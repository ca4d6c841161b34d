//! Metric records, the printed table and the closing JSON line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured, all digits kept.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Whether the value is a pure function of the inputs (counts and
    /// modelled cycles) rather than a host time.
    pub exact: bool,
}

impl Metric {
    /// A host-time measurement.
    pub fn timed(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            exact: false,
        }
    }

    /// A value derived from counts and modelled cycles only.
    pub fn exact(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            exact: true,
        }
    }
}

/// For each per-layer metric prefix: the end-to-end metric it should
/// move, and on which workload. The first matching prefix wins.
const MOVES: &[(&str, &str, &str)] = &[
    ("host.", "none (the host's speed)", "all"),
    ("workloads.build_s", "setup_s", "all"),
    (
        "native.materialize_s",
        "setup_s, native_walks_per_s.*",
        "where-read, crud-w30",
    ),
    (
        "blockfile.load_ns",
        "native_walks_per_s.stream.w1",
        "where-read",
    ),
    (
        "native.page_reads_per_walk",
        "native_walks_per_s.stream.w1",
        "where-read",
    ),
    (
        "native.page_writes_per_walk",
        "native_walks_per_s.*",
        "crud-w30",
    ),
    (
        "codec.decode_ns",
        "native_walks_per_s.stream.w1",
        "where-read",
    ),
    (
        "tree.read_node_ns.cold",
        "native_walks_per_s.stream.w1",
        "where-read",
    ),
    (
        "tree.read_node_ns",
        "native_walks_per_s.metal*.w1",
        "where-read",
    ),
    (
        "native.cold_reads_per_walk",
        "native_walks_per_s.stream.w1",
        "where-read",
    ),
    (
        "native.hot_hits_per_walk",
        "native_walks_per_s.metal*.w1",
        "where-read",
    ),
    (
        "native.staged_hits_per_walk",
        "native_walks_per_s.*.w8",
        "where-read, crud-w30",
    ),
    (
        "native.prefetched_per_walk",
        "native_walks_per_s.*.w8",
        "where-read, crud-w30",
    ),
    (
        "native.staged_hits_per_prefetch",
        "native_walks_per_s.*.w8",
        "where-read, crud-w30",
    ),
    ("tree.insert_key_ns", "native_walks_per_s.*", "crud-w30"),
    ("tree.delete_key_ns", "native_walks_per_s.*", "crud-w30"),
    (
        "native.node_writes_per_walk",
        "native_walks_per_s.*",
        "crud-w30",
    ),
    (
        "ixcache.invalidated_per_walk",
        "native_walks_per_s.metal*",
        "crud-w30",
    ),
    (
        "ixcache.",
        "sim_walks_per_s.metal*, native_walks_per_s.metal*",
        "table2-sweep, where-read",
    ),
    ("sim.host_ns_per_event", "sim_walks_per_s.*", "table2-sweep"),
    ("model.", "model_speedup.*", "all"),
    ("obs.", "none (observe-only contract)", "all"),
    (
        "native.residual_frac",
        "native_walks_per_s.*.w1",
        "where-read, crud-w30",
    ),
];

/// The end-to-end metric and workload a per-layer metric should move.
pub fn moves(name: &str) -> (&'static str, &'static str) {
    MOVES
        .iter()
        .find(|(prefix, _, _)| name.starts_with(prefix))
        .map_or(("?", "?"), |&(_, metric, on)| (metric, on))
}

/// Prints the metric table (with the layer mapping when `traced`), then
/// the closing JSON line.
pub fn print(metrics: &[Metric], traced: bool, attempted: u64, failed: u64) {
    for m in metrics {
        if traced {
            let (metric, on) = moves(&m.name);
            println!(
                "{:<44} {:>16} {:<8} moves {metric} on {on}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        } else {
            println!("{:<44} {:>16} {}", m.name, fmt_value(m.value), m.unit);
        }
    }
    println!(
        "{:<44} {:>16} ratio ({failed} of {attempted} walks)",
        "failed_walk_frac",
        fmt_value(failed as f64 / attempted.max(1) as f64)
    );
    println!("{}", json(metrics, attempted, failed));
}

fn fmt_value(v: f64) -> String {
    if v.abs() >= 1e4 || v == v.trunc() {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. Values keep every digit Rust's shortest round-trip
/// formatting gives them.
pub fn json(metrics: &[Metric], attempted: u64, failed: u64) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            body,
            r#"{sep}"{}": {{"value": {value:?}, "unit": "{}"}}"#,
            m.name, m.unit
        );
    }
    format!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{body}}}}}"#,
        failed == 0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let m = [
            Metric::timed("setup_s", 0.8127, "s"),
            Metric::exact("model_speedup.metal", 2.0, "x"),
        ];
        assert_eq!(
            json(&m, 1000, 0),
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}, "model_speedup.metal": {"value": 2.0, "unit": "x"}}}"#
        );
        assert!(json(&m, 1000, 3).starts_with(r#"{"correct": false"#));
    }

    #[test]
    fn every_layer_prefix_names_its_target() {
        assert_eq!(
            moves("tree.read_node_ns.cold").0,
            "native_walks_per_s.stream.w1"
        );
        assert_eq!(
            moves("tree.read_node_ns.hot").0,
            "native_walks_per_s.metal*.w1"
        );
        assert_eq!(moves("ixcache.invalidated_per_walk.metal").1, "crud-w30");
        assert_eq!(moves("unlisted").0, "?");
    }
}
