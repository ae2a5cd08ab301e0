//! The paper-claim scorecard: each headline claim of the paper paired with
//! the reproduced number from the committed `results/` artifacts and the
//! places the repo's prose quotes it.
//!
//! Two different comparisons hang off this table:
//!
//! * the **scorecard page** shows paper-vs-measured and flags divergence
//!   beyond each claim's tolerance (some divergences are expected and
//!   documented — synthetic kernels, not SPEC binaries);
//! * the **drift check** (`docgen --check`) re-derives every number a doc
//!   quotes from the artifact it came from and fails when they disagree,
//!   so README/EXPERIMENTS can never silently go stale.

use crate::csvtab::Table;
use cbws_describe::ComponentDescription;
use std::path::Path;

/// Where a claim's reproduced number comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// A cell in a committed `results/*.csv`: the row whose leading cells
    /// equal `key`, at column `col`.
    Csv {
        /// File name under `results/`.
        file: &'static str,
        /// Leading row cells to match (1 cell, or 2 for long-format files).
        key: &'static [&'static str],
        /// Column name.
        col: &'static str,
    },
    /// A component's storage budget in KB, from its `Describe` impl.
    DescribeStorageKb {
        /// Component name as listed by `component_registry`.
        component: &'static str,
    },
    /// A numeric parameter default from a component's `Describe` impl.
    DescribeParam {
        /// Component name as listed by `component_registry`.
        component: &'static str,
        /// Parameter name.
        param: &'static str,
    },
    /// A numeric field of a committed `BENCH_*.json` snapshot. Claims with
    /// this source are repository measurements the docs quote, not paper
    /// claims, so the scorecard page leaves them out.
    Bench {
        /// Snapshot file name at the repository root.
        file: &'static str,
        /// Field name.
        field: &'static str,
    },
}

/// One place in the repo's prose that quotes the claim's number.
///
/// `pattern` is literal text containing a single `{NUM}` placeholder;
/// whitespace runs in both the pattern and the document are collapsed
/// before matching, so patterns may span soft line wraps.
#[derive(Debug, Clone, Copy)]
pub struct DocQuote {
    /// Repo-relative file the quote lives in.
    pub file: &'static str,
    /// Literal text around the number, `{NUM}` marking it.
    pub pattern: &'static str,
}

/// One headline claim of the paper.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Stable identifier (used in test assertions and error messages).
    pub id: &'static str,
    /// Human title for the scorecard row.
    pub title: &'static str,
    /// The paper's number, as text (may carry units or qualifiers).
    pub paper_text: &'static str,
    /// The paper's number, as a value.
    pub paper_value: f64,
    /// Relative tolerance vs the paper value before the scorecard flags
    /// the reproduction as diverging.
    pub tolerance: f64,
    /// Where the reproduced number comes from.
    pub source: Source,
    /// Prose quoting this number, checked for drift.
    pub quotes: &'static [DocQuote],
    /// Commentary shown on the scorecard (what drives any divergence).
    pub note: &'static str,
}

impl Claim {
    /// Whether this is one of the paper's claims (shown on the scorecard)
    /// rather than a repository measurement the docs quote.
    pub fn is_paper_claim(&self) -> bool {
        !matches!(self.source, Source::Bench { .. })
    }
}

/// The claim table. Order is the scorecard page order.
pub fn claims() -> Vec<Claim> {
    vec![
        Claim {
            id: "speedup-mi",
            title: "CBWS+SMS over SMS, memory-intensive geomean (Fig. 14)",
            paper_text: "1.31×",
            paper_value: 1.31,
            tolerance: 0.10,
            source: Source::Csv {
                file: "fig14_speedup.csv",
                key: &["average-MI"],
                col: "CBWS+SMS",
            },
            quotes: &[
                DocQuote {
                    file: "README.md",
                    pattern: "CBWS+SMS vs SMS: {NUM}× on the memory-intensive suite",
                },
                DocQuote {
                    file: "EXPERIMENTS.md",
                    pattern: "memory-intensive group | 1.31× | **{NUM}×**",
                },
            ],
            note: "Synthetic kernels reproduce the shape, not the absolute \
                   gap; 1.21× vs the paper's 1.31× under the flat memory \
                   model (the DRAM model closes it — see the dram-headline \
                   row).",
        },
        Claim {
            id: "speedup-all",
            title: "CBWS+SMS over SMS, all 30 benchmarks (Fig. 14)",
            paper_text: "1.16×",
            paper_value: 1.16,
            tolerance: 0.08,
            source: Source::Csv {
                file: "fig14_speedup.csv",
                key: &["average-ALL"],
                col: "CBWS+SMS",
            },
            quotes: &[
                DocQuote {
                    file: "README.md",
                    pattern: "suite, {NUM}× over all 30 benchmarks",
                },
                DocQuote {
                    file: "EXPERIMENTS.md",
                    pattern: "all 30 benchmarks | 1.16× | **{NUM}×**",
                },
            ],
            note: "Within 5% of the paper.",
        },
        Claim {
            id: "best-single",
            title: "Largest single-benchmark speedup (Fig. 14)",
            paper_text: "up to 4× (sgemm region)",
            paper_value: 4.0,
            tolerance: 0.25,
            source: Source::Csv {
                file: "fig14_speedup.csv",
                key: &["stencil-default"],
                col: "CBWS+SMS",
            },
            quotes: &[
                DocQuote {
                    file: "README.md",
                    pattern: "up to {NUM}× on stencil",
                },
                DocQuote {
                    file: "EXPERIMENTS.md",
                    pattern: "4× (sgemm region) | {NUM}× (stencil)",
                },
            ],
            note: "Known divergence: the paper's 4× is a region-level \
                   number on real sgemm; our whole-kernel stencil peaks at \
                   2.14×.",
        },
        Claim {
            id: "cbws-standalone",
            title: "Standalone CBWS vs SMS, memory-intensive geomean",
            paper_text: "~1.0 (mixed)",
            paper_value: 1.0,
            tolerance: 0.10,
            source: Source::Csv {
                file: "fig14_speedup.csv",
                key: &["average-MI"],
                col: "CBWS",
            },
            quotes: &[
                DocQuote {
                    file: "README.md",
                    pattern: "Standalone CBWS averages {NUM}×",
                },
                DocQuote {
                    file: "EXPERIMENTS.md",
                    pattern: "~1.0 (mixed) | {NUM}×",
                },
            ],
            note: "Ahead on regular loops, behind where the 16-entry table \
                   thrashes — the paper's finding.",
        },
        Claim {
            id: "cbws-storage",
            title: "CBWS storage budget (Table III)",
            paper_text: "< 1 KB (8,080 bits)",
            paper_value: 0.99,
            tolerance: 0.01,
            source: Source::Csv {
                file: "tab03_storage.csv",
                key: &["CBWS"],
                col: "KB",
            },
            quotes: &[
                DocQuote {
                    file: "README.md",
                    pattern: "bits ≈ {NUM} KB",
                },
                DocQuote {
                    file: "README.md",
                    pattern: "CBWS {NUM} KB — Table III",
                },
                DocQuote {
                    file: "EXPERIMENTS.md",
                    pattern: "3.75 / 5.07 / **{NUM} KB**",
                },
            ],
            note: "Bit-for-bit: the Fig. 8 structure accounting reproduces \
                   Table III exactly. Cross-checked against the `Describe` \
                   implementation by `docgen --check`.",
        },
        Claim {
            id: "dht-entries",
            title: "Differential history table size (Fig. 8)",
            paper_text: "16 entries",
            paper_value: 16.0,
            tolerance: 0.0,
            source: Source::DescribeParam {
                component: "CBWS",
                param: "table_entries",
            },
            quotes: &[
                DocQuote {
                    file: "README.md",
                    pattern: "the {NUM}-entry random-replacement differential history table",
                },
                DocQuote {
                    file: "DESIGN.md",
                    pattern: "hashes a 3-deep history of differentials into a {NUM}-entry",
                },
            ],
            note: "Read straight from the predictor's self-description, not \
                   from a results file.",
        },
        Claim {
            id: "cbws-wrong",
            title: "Standalone CBWS wrong-prefetch rate, MI average (Fig. 13)",
            paper_text: "5%",
            paper_value: 5.0,
            tolerance: 0.30,
            source: Source::Csv {
                file: "fig13_timeliness.csv",
                key: &["average-MI", "CBWS"],
                col: "wrong %",
            },
            quotes: &[
                DocQuote {
                    file: "README.md",
                    pattern: "standalone CBWS {NUM}% wrong",
                },
                DocQuote {
                    file: "EXPERIMENTS.md",
                    pattern: "| **measured CBWS** | 14.4 | 24.7 | 0.0 | 26.5 | **{NUM}** |",
                },
            ],
            note: "Most accurate scheme in both the paper and the \
                   reproduction.",
        },
        Claim {
            id: "sms-timely",
            title: "SMS timely rate, MI average (Fig. 13)",
            paper_text: "24%",
            paper_value: 24.0,
            tolerance: 0.25,
            source: Source::Csv {
                file: "fig13_timeliness.csv",
                key: &["average-MI", "SMS"],
                col: "timely %",
            },
            quotes: &[DocQuote {
                file: "README.md",
                pattern: "SMS {NUM}% timely",
            }],
            note: "",
        },
        Claim {
            id: "sms-wrong",
            title: "SMS wrong-prefetch rate, MI average (Fig. 13)",
            paper_text: "14%",
            paper_value: 14.0,
            tolerance: 0.25,
            source: Source::Csv {
                file: "fig13_timeliness.csv",
                key: &["average-MI", "SMS"],
                col: "wrong %",
            },
            quotes: &[DocQuote {
                file: "README.md",
                pattern: "timely / {NUM}% wrong",
            }],
            note: "",
        },
        Claim {
            id: "hybrid-timely",
            title: "CBWS+SMS timely rate, MI average (Fig. 13)",
            paper_text: "31%",
            paper_value: 31.0,
            tolerance: 0.25,
            source: Source::Csv {
                file: "fig13_timeliness.csv",
                key: &["average-MI", "CBWS+SMS"],
                col: "timely %",
            },
            quotes: &[DocQuote {
                file: "EXPERIMENTS.md",
                pattern: "improvement appears as 27.5→{NUM}",
            }],
            note: "The hybrid improves timeliness over SMS alone in both \
                   testbeds (paper 24→31, here 27.5→36.5).",
        },
        Claim {
            id: "dram-headline",
            title: "CBWS+SMS over SMS under banked DRAM, geomean",
            paper_text: "1.31×",
            paper_value: 1.31,
            tolerance: 0.05,
            source: Source::Csv {
                file: "dram_model.csv",
                key: &["geomean"],
                col: "dram: CBWS+SMS/SMS",
            },
            quotes: &[
                DocQuote {
                    file: "README.md",
                    pattern: "headline rises to {NUM}×",
                },
                DocQuote {
                    file: "EXPERIMENTS.md",
                    pattern: "geomean from 1.248 to **{NUM}**",
                },
            ],
            note: "Once wrong prefetches cost real DRAM bandwidth, the \
                   accuracy advantage recovers the paper's headline.",
        },
        Claim {
            id: "fig5-skew",
            title: "Differential skew: top 1% of vectors, stencil (Fig. 5)",
            paper_text: "≈100% of iterations",
            paper_value: 100.0,
            tolerance: 0.05,
            source: Source::Csv {
                file: "fig05_differential_skew.csv",
                key: &["stencil-default (3)"],
                col: "1% vecs",
            },
            quotes: &[DocQuote {
                file: "EXPERIMENTS.md",
                pattern: "| stencil (3) | {NUM} |",
            }],
            note: "The tiny-alphabet property the whole design rests on: a \
                   handful of differential vectors cover nearly every \
                   iteration of a regular loop.",
        },
        Claim {
            id: "replay-kernel-ratio",
            title: "AoS over packed replay time, both pre-materialized",
            paper_text: "",
            paper_value: 0.0,
            tolerance: 0.0,
            source: Source::Bench {
                file: "BENCH_trace.json",
                field: "replay_kernel_ratio",
            },
            quotes: &[DocQuote {
                file: "DESIGN.md",
                pattern: "`replay_kernel_ratio` is {NUM} on the committed \
                          `BENCH_trace.json` snapshot",
            }],
            note: "",
        },
    ]
}

/// Evaluates a claim's [`Source`] against the repo at `root`.
///
/// `registry` is the output of `cbws_harness::component_registry`, passed in
/// so Describe-backed claims need no rebuild per claim.
pub fn measure(
    claim: &Claim,
    root: &Path,
    registry: &[ComponentDescription],
) -> Result<f64, String> {
    match claim.source {
        Source::Csv { file, key, col } => {
            let table = Table::load(&root.join("results").join(file))?;
            let cell = table
                .cell(key, col)
                .ok_or_else(|| format!("{file}: no cell at {key:?} × {col:?}"))?;
            cell.parse::<f64>()
                .map_err(|_| format!("{file}: cell {key:?} × {col:?} is not a number: {cell:?}"))
        }
        Source::DescribeStorageKb { component } => {
            let d = find_component(registry, component)?;
            Ok(d.storage_kb()
                .ok_or_else(|| format!("component {component} declares no storage budget"))?)
        }
        Source::Bench { file, field } => {
            let snap = cbws_bench::perf_history::load_snapshot(&root.join(file), "committed", 0)?;
            snap.metrics
                .get(field)
                .copied()
                .ok_or_else(|| format!("{file}: no numeric field `{field}`"))
        }
        Source::DescribeParam { component, param } => {
            let d = find_component(registry, component)?;
            let p = d
                .params
                .iter()
                .find(|p| p.name == param)
                .ok_or_else(|| format!("component {component} has no param {param}"))?;
            p.default.parse::<f64>().map_err(|_| {
                format!(
                    "{component}.{param} default is not numeric: {:?}",
                    p.default
                )
            })
        }
    }
}

fn find_component<'a>(
    registry: &'a [ComponentDescription],
    name: &str,
) -> Result<&'a ComponentDescription, String> {
    registry
        .iter()
        .find(|d| d.name == name)
        .ok_or_else(|| format!("no component named {name} in the registry"))
}

/// A number extracted from prose, with the precision it was quoted at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quoted {
    /// The parsed value.
    pub value: f64,
    /// Digits after the decimal point in the quoted text.
    pub decimals: u32,
}

/// Collapses whitespace runs to single spaces (so patterns span soft line
/// wraps in the prose).
pub fn normalize_ws(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Extracts the `{NUM}` value for `pattern` from `text`.
///
/// Every occurrence of the leading context is tried (short prefixes like
/// `"CBWS "` appear many times in prose); the first occurrence followed by
/// a number and the trailing context wins.
pub fn quoted_number(text: &str, pattern: &str) -> Result<Quoted, String> {
    let (before, after) = pattern
        .split_once("{NUM}")
        .ok_or_else(|| format!("pattern has no {{NUM}} placeholder: {pattern:?}"))?;
    let text = normalize_ws(text);
    let before = normalize_ws(before);
    let after = normalize_ws(after);
    let mut found_prefix = false;
    for (pos, _) in text.match_indices(&before) {
        found_prefix = true;
        let rest = text[pos + before.len()..].trim_start();
        let Some(num_text) = leading_number(rest) else {
            continue;
        };
        if !after.is_empty() && !rest[num_text.len()..].trim_start().starts_with(&after) {
            continue;
        }
        let value = num_text
            .parse::<f64>()
            .map_err(|_| format!("unparseable number {num_text:?} after {before:?}"))?;
        let decimals = num_text
            .split_once('.')
            .map(|(_, frac)| frac.len() as u32)
            .unwrap_or(0);
        return Ok(Quoted { value, decimals });
    }
    Err(if found_prefix {
        format!("no occurrence of {before:?} is followed by a number and {after:?}")
    } else {
        format!("quote not found: {before:?}")
    })
}

/// The leading decimal literal of `s`, if any.
fn leading_number(s: &str) -> Option<&str> {
    let end = s
        .char_indices()
        .take_while(|&(i, c)| {
            c.is_ascii_digit() || (c == '.' && s[..i].contains(|d: char| d.is_ascii_digit()))
        })
        .map(|(i, c)| i + c.len_utf8())
        .last()?;
    let num = s[..end].trim_end_matches('.');
    (!num.is_empty()).then_some(num)
}

/// Whether `measured`, rounded to the quote's precision, equals the quote.
///
/// Values landing exactly on a rounding boundary (e.g. 2.145 quoted at two
/// decimals) are accepted either way — binary floats make the direction of
/// that half-step formatting-dependent.
pub fn quote_matches(measured: f64, quote: Quoted) -> bool {
    let half_step = 0.5 * 10f64.powi(-(quote.decimals as i32));
    (measured - quote.value).abs() <= half_step + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_and_rounds() {
        let q = quoted_number(
            "CBWS+SMS vs SMS: 1.21× on the memory-intensive\n  suite, more",
            "CBWS+SMS vs SMS: {NUM}× on the memory-intensive suite",
        )
        .unwrap();
        assert_eq!(
            q,
            Quoted {
                value: 1.21,
                decimals: 2
            }
        );
        assert!(quote_matches(1.209, q));
        assert!(!quote_matches(1.35, q));
    }

    #[test]
    fn integer_quote() {
        let q = quoted_number("a 16-entry table", "a {NUM}-entry table").unwrap();
        assert_eq!(
            q,
            Quoted {
                value: 16.0,
                decimals: 0
            }
        );
        assert!(quote_matches(16.0, q));
    }

    #[test]
    fn trailing_context_must_match() {
        assert!(quoted_number("rises to 1.33 overall", "rises to {NUM}× on").is_err());
    }

    #[test]
    fn missing_quote_is_an_error() {
        assert!(quoted_number("nothing here", "absent {NUM}").is_err());
    }

    #[test]
    fn half_values_round_as_quoted() {
        // The committed artifacts quote e.g. 2.145 as 2.14 (f64 rounding).
        assert!(quote_matches(
            2.145,
            Quoted {
                value: 2.14,
                decimals: 2
            }
        ));
        assert!(quote_matches(
            1.209,
            Quoted {
                value: 1.21,
                decimals: 2
            }
        ));
        assert!(quote_matches(
            0.937,
            Quoted {
                value: 0.94,
                decimals: 2
            }
        ));
    }
}
