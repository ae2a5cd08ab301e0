#![warn(missing_docs)]

//! Support code for the benches and the `perf-history` binary: the
//! append-only performance history that records and gates the
//! `BENCH_*.json` snapshots, and the few helpers every bench shares. Each
//! bench is a plain `harness = false` main that parses its command line
//! with [`Args::parse`] and times with [`time`], [`best_of`] or
//! [`ns_per_call`]. The paper's tables and figures are regenerated by the
//! `cbws-harness` binaries, not by benches.

pub mod perf_history;

use cbws_harness::service::parse_scale;
use cbws_workloads::Scale;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every flag a bench can accept: name, value hint, help. It is kept apart
/// from the harness binaries' table (`cbws_harness::cli::FLAGS`), which the
/// book prints as the user-facing flag reference; these are dev-only.
#[rustfmt::skip]
const FLAGS: &[(&str, Option<&str>, &str)] = &[
    ("--scale", Some("tiny|small|full|huge"), "trace length per workload"),
    ("--jobs", Some("N"), "engine worker threads; `0` = all cores"),
    ("--iters", Some("K"), "timed runs per leg, K >= 1; each leg keeps its best"),
    ("--all", None, "every registered workload instead of the default three"),
];

/// A bench's parsed command line. Each field is set only when the bench
/// accepts the flag and it was given.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// `--scale`.
    pub scale: Option<Scale>,
    /// `--jobs`.
    pub jobs: Option<usize>,
    /// `--iters`, at least 1.
    pub iters: Option<usize>,
    /// `--all`.
    pub all: bool,
}

impl Args {
    /// Parses the process arguments for bench `bench`, which accepts the
    /// flags named in `accepts` and cargo's own `--bench`. An unknown or
    /// repeated flag, a missing value, or a bad `--scale`, `--jobs` or
    /// `--iters` prints the usage and exits with status 2, before any work.
    pub fn parse(bench: &str, accepts: &[&str]) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Args::parse_from(accepts, &args).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{}", usage(bench, accepts));
            std::process::exit(2)
        })
    }

    /// Parses `args` (without the program name) against `accepts`.
    pub fn parse_from<S: AsRef<str>>(accepts: &[&str], args: &[S]) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut seen = Vec::new();
        let mut rest = args.iter().map(AsRef::as_ref);
        while let Some(arg) = rest.next() {
            // `cargo bench` passes `--bench` to every `harness = false` target.
            if arg == "--bench" {
                continue;
            }
            let Some(&(_, hint, _)) = FLAGS
                .iter()
                .find(|(name, ..)| *name == arg && accepts.contains(name))
            else {
                return Err(format!("unknown argument `{arg}`"));
            };
            if seen.contains(&arg) {
                return Err(format!("{arg} given twice"));
            }
            seen.push(arg);
            if hint.is_none() {
                parsed.all = true;
                continue;
            }
            let value = rest
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{arg} needs a value"))?;
            match arg {
                "--scale" => parsed.scale = Some(parse_scale(value)?),
                "--jobs" => parsed.jobs = Some(count(arg, value, 0)?),
                _ => parsed.iters = Some(count(arg, value, 1)?),
            }
        }
        Ok(parsed)
    }
}

/// `value`, given to flag `flag`, as a count of at least `min`.
fn count(flag: &str, value: &str, min: usize) -> Result<usize, String> {
    value
        .parse()
        .ok()
        .filter(|&n| n >= min)
        .ok_or_else(|| format!("{flag} takes a count of at least {min}, not `{value}`"))
}

/// The usage text of bench `bench`, which accepts the flags in `accepts`.
fn usage(bench: &str, accepts: &[&str]) -> String {
    let mut line = format!("usage: cargo bench -p cbws-bench --bench {bench}");
    let mut help = String::new();
    for (name, value, text) in FLAGS.iter().filter(|(name, ..)| accepts.contains(name)) {
        let shown = value.map_or(name.to_string(), |v| format!("{name} {v}"));
        line.push_str(&format!(" [{shown}]"));
        help.push_str(&format!("\n  {shown:<28} {text}"));
    }
    if !accepts.is_empty() {
        line = line.replacen(" [", " -- [", 1);
    }
    line + &help
}

/// The repository the process runs in: the nearest directory, from the
/// current one upwards, whose `Cargo.toml` declares `[workspace]`. It is
/// found at run time, so a copy of the tree measures and records into
/// itself (`cargo bench` runs a bench from its package directory). Exits
/// with status 2 when no such directory exists.
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|e| {
        eprintln!("error: cannot read the current directory: {e}");
        std::process::exit(2)
    });
    let is_root = |dir: &Path| {
        std::fs::read_to_string(dir.join("Cargo.toml"))
            .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
    };
    match cwd.ancestors().find(|dir| is_root(dir)) {
        Some(root) => root.to_path_buf(),
        None => {
            eprintln!(
                "error: no Cargo.toml with [workspace] in {} or above it; \
                 run from inside the repository",
                cwd.display()
            );
            std::process::exit(2)
        }
    }
}

/// Best-of-`iters` wall time of `f`, in seconds.
pub fn best_of(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        best = best.min(time(&mut f));
    }
    best
}

/// Wall time of one call of `f`, in seconds.
pub fn time(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Wall time per call of `f`, in nanoseconds: the best of `iters` batches
/// of `calls` calls each.
pub fn ns_per_call(iters: usize, calls: u64, mut f: impl FnMut()) -> f64 {
    best_of(iters, || (0..calls).for_each(|_| f())) * 1e9 / calls as f64
}

/// Writes a bench's `json` snapshot to `file` at the [`workspace_root`]
/// and prints it on stdout; `bench` tags the status line.
pub fn write_snapshot(bench: &str, file: &str, json: &str) {
    let path = workspace_root().join(file);
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("[{bench}] wrote {}", path.display()),
        Err(e) => eprintln!("[{bench}] cannot write {}: {e}", path.display()),
    }
    print!("{json}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_holds_the_workspace_manifest() {
        // Tests run from the package directory, one level below the root
        // of `crates/`.
        let root = workspace_root();
        assert!(root.join("crates/bench/Cargo.toml").is_file(), "{root:?}");
        let toml = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(toml.contains("[workspace]"));
    }

    const ALL_FLAGS: &[&str] = &["--scale", "--jobs", "--iters", "--all"];

    #[test]
    fn args_accept_cargos_bench_flag() {
        let args = Args::parse_from(ALL_FLAGS, &["--scale", "small", "--bench", "--iters", "2"]);
        assert_eq!(
            args,
            Ok(Args {
                scale: Some(Scale::Small),
                iters: Some(2),
                ..Args::default()
            })
        );
        assert_eq!(Args::parse_from(&[], &["--bench"]), Ok(Args::default()));
        assert_eq!(
            Args::parse_from(ALL_FLAGS, &["--all", "--jobs", "0"]),
            Ok(Args {
                jobs: Some(0),
                all: true,
                ..Args::default()
            })
        );
    }

    #[test]
    fn args_reject_a_bad_command_line() {
        for bad in [
            &["--bogus-flag"][..],
            &["--test"],
            &["tiny"],
            &["--scale", "tiny", "--scale", "small"],
            &["--all", "--all"],
            &["--scale"],
            &["--scale", "--iters", "3"],
            &["--scale", "smal"],
            &["--iters", "x"],
            &["--iters", "0"],
            &["--jobs", "x"],
            &["--jobs", "-1"],
        ] {
            assert!(Args::parse_from(ALL_FLAGS, bad).is_err(), "{bad:?}");
        }
        // A flag of the table that this bench does not take is unknown too.
        assert!(Args::parse_from(&["--scale"], &["--jobs", "2"]).is_err());
        assert!(Args::parse_from(&[], &["--scale", "tiny"]).is_err());
    }

    #[test]
    fn usage_lists_only_the_accepted_flags() {
        assert_eq!(
            usage("x", &[]),
            "usage: cargo bench -p cbws-bench --bench x"
        );
        let text = usage("x", &["--scale", "--iters"]);
        assert!(
            text.starts_with("usage: cargo bench -p cbws-bench --bench x -- [--scale "),
            "{text}"
        );
        assert!(
            text.contains("[--iters K]") && !text.contains("--jobs"),
            "{text}"
        );
    }
}
