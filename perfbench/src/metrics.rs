//! The benchmark's metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here, once, with
//! its unit and direction. `BENCHMARK.json` at the repository root must
//! list exactly these names (the contract tests check both directions),
//! and a run refuses to print a result that misses a declared metric or
//! carries an undeclared one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("gen_mb_s", "MB/s", Higher),
    m("peak_rss_mb", "MB", Lower),
    m("http_range_p50_ms", "ms", Lower),
    m("tcp_range_p99_ms", "ms", Lower),
    m("http_point_p50_ms", "ms", Lower),
];

/// Generator kinds whose per-cell kernel cost is reported: the
/// top-level kinds both shipped models use. Other kinds still count in
/// the per-table `fill_batch` totals.
pub const KINDS: &[&str] = &[
    "DateGenerator",
    "DecimalGenerator",
    "DefaultReferenceGenerator",
    "FormulaGenerator",
    "IdGenerator",
    "LongGenerator",
    "TruncateGenerator",
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). Table
/// roles: `fact` is the model's fact table (TPC-H `lineitem`, SSB
/// `lineorder`), `dims` every other table, row-weighted.
pub const PER_LAYER: &[MetricDef] = &[
    m("pdgf.setup.parse_s", "s", Lower),
    m("pdgf.setup.analyze_s", "s", Lower),
    m("pdgf.setup.prove_s", "s", Lower),
    m("pdgf.setup.build_s", "s", Lower),
    m("pdgf.serve.bind_s", "s", Lower),
    m("pdgf-prng.mix64_pair_ns", "ns", Lower),
    m("pdgf-prng.field_seed_ns", "ns", Lower),
    m("pdgf-prng.field_seed_uncached_ns", "ns", Lower),
    m("pdgf-prng.draws_per_row.fact", "count", Lower),
    m("pdgf-prng.draws_per_row.dims", "count", Lower),
    m("pdgf-gen.fill_batch_ns_per_row.fact", "ns", Lower),
    m("pdgf-gen.fill_batch_ns_per_row.dims", "ns", Lower),
    m("pdgf-gen.kind_ns_per_cell.DateGenerator", "ns", Lower),
    m("pdgf-gen.kind_ns_per_cell.DecimalGenerator", "ns", Lower),
    m(
        "pdgf-gen.kind_ns_per_cell.DefaultReferenceGenerator",
        "ns",
        Lower,
    ),
    m("pdgf-gen.kind_ns_per_cell.FormulaGenerator", "ns", Lower),
    m("pdgf-gen.kind_ns_per_cell.IdGenerator", "ns", Lower),
    m("pdgf-gen.kind_ns_per_cell.LongGenerator", "ns", Lower),
    m("pdgf-gen.kind_ns_per_cell.TruncateGenerator", "ns", Lower),
    m("pdgf-output.format_ns_per_row.fact", "ns", Lower),
    m("pdgf-output.format_ns_per_row.dims", "ns", Lower),
    m("pdgf-output.sink_ns_per_mb", "ns", Lower),
    m("pdgf-output.reorder_ns_per_package", "ns", Lower),
    m("pdgf-output.pool_ns_per_package", "ns", Lower),
    m("pdgf-runtime.handoff.send_wait_ns_per_package", "ns", Lower),
    m("pdgf-runtime.handoff.recv_wait_ns_per_package", "ns", Lower),
    m("pdgf-runtime.scheduler.residual_share", "ratio", Lower),
    m("pdgf-runtime.serve.range_p50_ms", "ms", Lower),
    m("pdgf-runtime.serve.range_p99_ms", "ms", Lower),
    m("pdgf-runtime.serve.point_p50_us", "us", Lower),
    m("pdgf-runtime.serve.point_p99_us", "us", Lower),
    m("pdgf-runtime.serve.first_package_p50_ms", "ms", Lower),
    m("pdgf.serve.tcp.range_overhead_ms", "ms", Lower),
    m("pdgf.serve.tcp.point_overhead_us", "us", Lower),
    m("pdgf.serve.http.range_overhead_ms", "ms", Lower),
    m("pdgf.serve.http.point_overhead_us", "us", Lower),
    m("pdgf.serve.tcp.range_p50_ms", "ms", Lower),
    m("pdgf.serve.tcp.delayed_ack_share", "ratio", Lower),
    m("pdgf.serve.tcp.point_p50_ms", "ms", Lower),
    m("pdgf.serve.tcp.point_p99_ms", "ms", Lower),
    m("pdgf.serve.http.range_p99_ms", "ms", Lower),
    m("pdgf.serve.http.point_p99_ms", "ms", Lower),
    m("trace.overhead_share", "ratio", Lower),
];

/// True when `name` is a legal metric name: non-empty, at most 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The metrics of one run, checked against one declared set.
#[derive(Debug)]
pub struct Report {
    declared: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty report over `declared`.
    pub fn new(declared: &'static [MetricDef]) -> Self {
        Self {
            declared,
            values: BTreeMap::new(),
        }
    }

    /// Record `name`. Panics on an undeclared name: that is a benchmark
    /// bug, never a property of the measured program.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .declared
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        self.values.insert(def.name, value);
    }

    /// Names recorded so far.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.keys().copied()
    }

    /// Declared metrics that are missing or not finite.
    pub fn problems(&self) -> Vec<String> {
        self.declared
            .iter()
            .filter_map(|d| match self.values.get(d.name) {
                None => Some(format!("{} missing", d.name)),
                Some(v) if !v.is_finite() => Some(format!("{} = {v}", d.name)),
                Some(_) => None,
            })
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    /// Values print with every digit (Rust's shortest round-trip form).
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for d in self.declared {
            let Some(v) = self.values.get(d.name) else {
                continue;
            };
            if !first {
                s.push_str(", ");
            }
            first = false;
            let v = if v.is_finite() { *v } else { -1.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
        }
        for k in KINDS {
            let name = format!("pdgf-gen.kind_ns_per_cell.{k}");
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".dot"));
    }

    #[test]
    fn report_rejects_gaps_and_prints_all_digits() {
        let mut r = Report::new(END_TO_END);
        r.set("setup_s", 0.123_456_789_012_345_67);
        assert!(r.problems().iter().any(|p| p.starts_with("gen_mb_s")));
        let line = r.to_json(true, 3, 0);
        assert!(line.contains("\"setup_s\": {\"value\": 0.12345678901234566, \"unit\": \"s\"}"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_panics() {
        Report::new(END_TO_END).set("pdgf.setup.parse_s", 1.0);
    }
}
