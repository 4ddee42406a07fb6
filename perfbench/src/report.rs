//! The metric catalog and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the only metric names the
//! benchmark prints in its result line; `BENCHMARK.json` at the repository
//! root lists the same names (a self-test keeps the two in step).

use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of each workload sees (untraced runs). Every workload
/// reports all of them; what each one measures per workload is tabled in
/// the benchmark's README.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("read_p50_us", "us"),
    m("read_p90_us", "us"),
    m("build_p50_ms", "ms"),
    m("analytics_p50_ms", "ms"),
    m("ops_per_s", "1/s"),
    m("graph_bytes", "bytes"),
    m("build_peak_bytes", "bytes"),
];

/// Single-layer metrics (traced runs). A layer a workload does not load
/// reads 0 there. `<layer>.self_pct` is the layer's self time as a share
/// of the traced window; layer `client` is the benchmark's own loop.
pub const PER_LAYER: &[MetricDef] = &[
    m("dsl.check_ns", "ns"),
    m("reldb.scan_ns", "ns"),
    m("reldb.join_ns", "ns"),
    m("reldb.distinct_ns", "ns"),
    m("reldb.insert_ns_per_row", "ns/row"),
    m("reldb.delete_ns_per_row", "ns/row"),
    m("core.build_rep_ns", "ns"),
    m("core.extract_full_ns", "ns"),
    m("core.patch_ns", "ns"),
    m("core.reader_clone_ns", "ns"),
    m("graph.neighbors_ns", "ns"),
    m("dedup.dedup1_ns", "ns"),
    m("dedup.bitmap_ns", "ns"),
    m("dedup.stored_edges_cdup", "count"),
    m("dedup.stored_edges_dedup1", "count"),
    m("dedup.stored_edges_bitmap", "count"),
    m("algo.degree_ns", "ns"),
    m("algo.pagerank_ns", "ns"),
    m("algo.components_ns", "ns"),
    m("service.snapshot_ns", "ns"),
    m("service.apply.validate_ns", "ns"),
    m("service.apply.wal_append_ns", "ns"),
    m("service.apply.patch_ns", "ns"),
    m("service.apply.publish_ns", "ns"),
    m("service.apply.unattributed_ns", "ns"),
    m("wal.fsync_ns", "ns"),
    m("wal.bytes_per_row", "bytes/row"),
    m("wal.compactions", "count"),
    m("wal.compaction_ns", "ns"),
    m("analyze.hit_ratio", "share"),
    m("analyze.compute_ns", "ns"),
    m("analyze.warm_starts", "count"),
    m("protocol.parse_ns", "ns"),
    m("protocol.execute_ns", "ns"),
    m("server.wire_ns", "ns"),
    m("client.self_pct", "%"),
    m("dsl.self_pct", "%"),
    m("reldb.self_pct", "%"),
    m("core.self_pct", "%"),
    m("graph.self_pct", "%"),
    m("dedup.self_pct", "%"),
    m("algo.self_pct", "%"),
    m("service.self_pct", "%"),
    m("wal.self_pct", "%"),
    m("analyze.self_pct", "%"),
    m("protocol.self_pct", "%"),
    m("server.self_pct", "%"),
    m("trace.overhead_pct", "%"),
];

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Set one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line for the given catalog: exactly its metrics, in
    /// catalog order. Fails when one is missing or not a finite number.
    pub fn json_line(&self, catalog: &[MetricDef]) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut parts = Vec::with_capacity(catalog.len());
        for def in catalog {
            let v = *self
                .metrics
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not a finite number: {v}", def.name));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(v),
                def.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}
