#![warn(missing_docs)]

//! Self-description layer for the CBWS simulator.
//!
//! Every simulated component — the prefetchers in `cbws-prefetchers` and
//! `cbws-core`, the out-of-order core in `cbws-sim-cpu`, the memory
//! hierarchy in `cbws-sim-mem` — implements [`Describe`] and reports, as
//! data rather than prose:
//!
//! * its display **name** and the **paper section** it models,
//! * its **state budget** in bits (Table III accounting),
//! * every **tunable parameter** with default, range, and paper anchor,
//! * the **telemetry metric paths** it emits (see `cbws-telemetry`).
//!
//! The `docgen` crate turns these [`ComponentDescription`]s into the
//! generated reference book, and its `--check` mode cross-checks them
//! against the committed `results/` artifacts — so the documentation can
//! never drift from the code that defines the component.
//!
//! # Example
//!
//! ```
//! use cbws_describe::{ComponentDescription, ComponentKind, Describe, ParamSpec};
//!
//! struct Toy {
//!     entries: usize,
//! }
//!
//! impl Describe for Toy {
//!     fn describe(&self) -> ComponentDescription {
//!         ComponentDescription::new("Toy", ComponentKind::Prefetcher, "a toy prefetcher")
//!             .paper_section("§0")
//!             .storage_bits(self.entries as u64 * 8)
//!             .param(ParamSpec::new("entries", "table entries", self.entries.to_string(), "≥ 1"))
//!     }
//! }
//!
//! let d = Toy { entries: 16 }.describe();
//! assert_eq!(d.name, "Toy");
//! assert_eq!(d.storage_bits, Some(128));
//! assert_eq!(d.params[0].default, "16");
//! ```

use serde::{Deserialize, Serialize};

/// What role a described component plays in the simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComponentKind {
    /// A hardware prefetcher (baseline, CBWS scheme, or extension).
    Prefetcher,
    /// The out-of-order core timing model.
    CpuModel,
    /// The cache hierarchy / memory timing model.
    MemoryModel,
}

impl ComponentKind {
    /// Human-readable label used in generated pages.
    pub fn label(self) -> &'static str {
        match self {
            ComponentKind::Prefetcher => "prefetcher",
            ComponentKind::CpuModel => "CPU model",
            ComponentKind::MemoryModel => "memory model",
        }
    }
}

/// One tunable parameter of a component: its machine name, documentation,
/// the default in force, and the legal range.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamSpec {
    /// Field name in the component's config struct (e.g. `table_entries`).
    pub name: String,
    /// What the parameter does, including the paper anchor where one
    /// exists (e.g. "differential history table entries (§V-A: 16)").
    pub doc: String,
    /// The default value actually in force, rendered as text.
    pub default: String,
    /// The legal range or constraint, rendered as text (e.g. "≥ 1",
    /// "power of two").
    pub range: String,
}

impl ParamSpec {
    /// Creates a parameter spec.
    pub fn new(
        name: impl Into<String>,
        doc: impl Into<String>,
        default: impl Into<String>,
        range: impl Into<String>,
    ) -> Self {
        ParamSpec {
            name: name.into(),
            doc: doc.into(),
            default: default.into(),
            range: range.into(),
        }
    }
}

/// The kind of telemetry metric a component emits at a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonic counter (`Telemetry::count`).
    Counter,
    /// Last-value gauge (`Telemetry::set_gauge`).
    Gauge,
    /// Log2-bucketed histogram (`Telemetry::observe`).
    Histogram,
}

impl MetricKind {
    /// Human-readable label used in generated pages.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One dotted-path telemetry metric a component emits when a `Telemetry`
/// sink is attached (see the `cbws-telemetry` crate).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricSpec {
    /// Dotted metric path (e.g. `cbws.table.hit`).
    pub path: String,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// What the metric measures.
    pub doc: String,
}

impl MetricSpec {
    /// Creates a counter metric spec.
    pub fn counter(path: impl Into<String>, doc: impl Into<String>) -> Self {
        MetricSpec {
            path: path.into(),
            kind: MetricKind::Counter,
            doc: doc.into(),
        }
    }

    /// Creates a gauge metric spec.
    pub fn gauge(path: impl Into<String>, doc: impl Into<String>) -> Self {
        MetricSpec {
            path: path.into(),
            kind: MetricKind::Gauge,
            doc: doc.into(),
        }
    }

    /// Creates a histogram metric spec.
    pub fn histogram(path: impl Into<String>, doc: impl Into<String>) -> Self {
        MetricSpec {
            path: path.into(),
            kind: MetricKind::Histogram,
            doc: doc.into(),
        }
    }
}

/// Structured self-description of one simulated component.
///
/// Built with the builder-style methods; rendered into reference pages by
/// `docgen` and cross-checked against `results/` artifacts by
/// `docgen --check`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentDescription {
    /// Display name matching the paper's figure legends (e.g. `CBWS+SMS`).
    pub name: String,
    /// The component's role.
    pub kind: ComponentKind,
    /// One-paragraph summary of what the component models.
    pub summary: String,
    /// Paper anchor (e.g. `§V, Fig. 8, Algorithm 1`). Empty for
    /// beyond-paper extensions, which set [`ComponentDescription::extension`].
    pub paper_section: String,
    /// Total state budget in bits, following Table III's accounting.
    /// `None` for timing models, whose state is not prefetcher storage.
    pub storage_bits: Option<u64>,
    /// Whether this component is a beyond-paper extension (§III-A related
    /// work reproduced for comparison) rather than an evaluated §VII
    /// configuration.
    pub extension: bool,
    /// Tunable parameters with defaults and ranges.
    pub params: Vec<ParamSpec>,
    /// Telemetry metric paths the component emits.
    pub metrics: Vec<MetricSpec>,
}

impl ComponentDescription {
    /// Creates a description with the mandatory fields; everything else is
    /// filled by the builder methods.
    pub fn new(name: impl Into<String>, kind: ComponentKind, summary: impl Into<String>) -> Self {
        ComponentDescription {
            name: name.into(),
            kind,
            summary: summary.into(),
            paper_section: String::new(),
            storage_bits: None,
            extension: false,
            params: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Sets the paper anchor.
    pub fn paper_section(mut self, section: impl Into<String>) -> Self {
        self.paper_section = section.into();
        self
    }

    /// Sets the Table III state budget in bits.
    pub fn storage_bits(mut self, bits: u64) -> Self {
        self.storage_bits = Some(bits);
        self
    }

    /// Marks the component as a beyond-paper extension.
    pub fn extension(mut self) -> Self {
        self.extension = true;
        self
    }

    /// Appends one tunable parameter.
    pub fn param(mut self, p: ParamSpec) -> Self {
        self.params.push(p);
        self
    }

    /// Appends one emitted metric.
    pub fn metric(mut self, m: MetricSpec) -> Self {
        self.metrics.push(m);
        self
    }

    /// Appends several emitted metrics.
    pub fn metrics(mut self, ms: impl IntoIterator<Item = MetricSpec>) -> Self {
        self.metrics.extend(ms);
        self
    }

    /// State budget in KB (Table III's unit), if the component has one.
    pub fn storage_kb(&self) -> Option<f64> {
        self.storage_bits.map(|b| b as f64 / 8192.0)
    }

    /// The description as pretty-printed JSON (used by snapshot tests and
    /// machine consumers).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("description serialization is infallible")
    }
}

/// A component that can describe itself as structured data.
///
/// Implemented by every prefetcher the harness can build and by the
/// simulator timing models; `docgen` renders the output into the
/// generated reference (one page per component) so the documentation is
/// derived from the code rather than hand-written.
pub trait Describe {
    /// The component's self-description under its current configuration.
    fn describe(&self) -> ComponentDescription;
}

/// The metrics the harness counts at every prefetcher hook (in its
/// `PrefetchedMemory` glue), shared by all implementations.
pub fn prefetcher_hook_metrics() -> Vec<MetricSpec> {
    vec![
        MetricSpec::counter("prefetcher.accesses", "demand accesses observed"),
        MetricSpec::counter(
            "prefetcher.candidates",
            "candidate lines emitted across all hooks",
        ),
        MetricSpec::counter("prefetcher.block_begins", "BLOCK_BEGIN markers observed"),
        MetricSpec::counter("prefetcher.block_ends", "BLOCK_END markers observed"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_fills_every_field() {
        let d = ComponentDescription::new("X", ComponentKind::Prefetcher, "sum")
            .paper_section("§V")
            .storage_bits(8192)
            .extension()
            .param(ParamSpec::new("n", "doc", "4", "≥ 1"))
            .metric(MetricSpec::counter("x.hits", "hits"));
        assert_eq!(d.name, "X");
        assert_eq!(d.paper_section, "§V");
        assert_eq!(d.storage_kb(), Some(1.0));
        assert!(d.extension);
        assert_eq!(d.params.len(), 1);
        assert_eq!(d.metrics.len(), 1);
        assert_eq!(d.metrics[0].kind.label(), "counter");
    }

    #[test]
    fn json_round_trips() {
        let d = ComponentDescription::new("Y", ComponentKind::MemoryModel, "mem")
            .param(ParamSpec::new("latency", "cycles", "300", "≥ 1"))
            .metric(MetricSpec::histogram("l2.demand.latency", "latency"));
        let back: ComponentDescription = serde_json::from_str(&d.to_json()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn shared_hook_metrics_are_prefetcher_scoped() {
        let ms = prefetcher_hook_metrics();
        assert_eq!(ms.len(), 4);
        assert!(ms.iter().all(|m| m.path.starts_with("prefetcher.")));
    }
}
