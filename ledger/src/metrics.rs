//! The metric names, units and bounds: the one table `BENCHMARK.json`,
//! the run output and the A/A check all agree with (a test compares it
//! with `BENCHMARK.json`).

/// The four workloads, in the order `--aa` runs them.
pub const WORKLOADS: [&str; 4] = ["inproc_full", "inproc_sampled", "wire_bulk", "wire_fresh"];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// Printed by `--trace 0`. Definitions in README.md.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ingest_tuples_per_s", "tuples/s", true, 0.25),
    e2e("cpu_ns_per_tuple", "ns", false, 0.25),
    e2e("query_p50_us", "us", false, 0.25),
    e2e("f2_rel_halfwidth", "ratio", false, 0.10),
];

/// `(name, unit, higher is better)`, printed by `--trace 1`, grouped by
/// the crate the name is prefixed with.
pub const PER_LAYER: [(&str, &str, bool); 59] = [
    ("xi.signed_scatter_ns_per_tuple", "ns", false),
    ("sketch.fagms_update_ns_per_tuple", "ns", false),
    ("sketch.topk_update_ns_per_tuple", "ns", false),
    ("sketch.hll_update_ns_per_tuple", "ns", false),
    ("sketch.kll_update_ns_per_tuple", "ns", false),
    ("sketch.self_join_estimate_us", "us", false),
    ("sampling.skip_ns_per_tuple", "ns", false),
    ("sampling.kept_share", "ratio", false),
    ("core.multi_update_ns_per_tuple", "ns", false),
    ("core.sampled_update_ns_per_tuple", "ns", false),
    ("core.multi_clone_us", "us", false),
    ("core.multi_merge_us", "us", false),
    ("core.slim_project_us", "us", false),
    ("core.slim_encode_us", "us", false),
    ("core.slim_decode_us", "us", false),
    ("core.slim_bytes", "bytes", false),
    ("core.snapshot_encode_us", "us", false),
    ("core.snapshot_decode_us", "us", false),
    ("core.snapshot_bytes", "bytes", false),
    ("stream.push_ns_per_tuple", "ns", false),
    ("stream.push_call_share", "ratio", false),
    ("stream.push_loaned_ns_per_tuple", "ns", false),
    ("stream.ring_hop_ns_per_batch", "ns", false),
    ("stream.worker_cpu_ns_per_tuple", "ns", false),
    ("stream.merged_clean_us", "us", false),
    ("stream.merged_dirty_us", "us", false),
    ("stream.replica_refresh_us", "us", false),
    ("stream.pool_allocations_after_warmup", "count", false),
    ("stream.pool_reuses", "count", true),
    ("stream.queue_high_water", "count", false),
    ("stream.cache_hits", "count", true),
    ("stream.cache_rebuilds", "count", false),
    ("net.encode_ns_per_tuple", "ns", false),
    ("net.decode_ns_per_tuple", "ns", false),
    ("net.ingest_cpu_ns_per_tuple", "ns", false),
    ("net.query_cpu_us_per_query", "us", false),
    ("net.client_cpu_ns_per_tuple", "ns", false),
    ("net.send_call_share", "ratio", false),
    ("net.sync_rtt_us", "us", false),
    ("net.parse_query_ns", "ns", false),
    ("net.query_self_join_us", "us", false),
    ("net.query_distinct_us", "us", false),
    ("net.query_quantile_us", "us", false),
    ("net.query_topk_us", "us", false),
    ("net.bytes_per_tuple", "bytes", false),
    ("net.protocol_errors", "count", false),
    ("query.p90_us", "us", false),
    ("query.p99_us", "us", false),
    ("query.pooled_p50_us", "us", false),
    ("query.pooled_p90_us", "us", false),
    ("query.cpu_us", "us", false),
    ("gen.keys_s", "s", false),
    ("proc.rss_peak_mb", "MB", false),
    ("ledger.segment_rate_median", "tuples/s", true),
    ("ledger.segment_rate_iqr_share", "ratio", false),
    ("ledger.worker_sum_ratio", "ratio", false),
    ("ledger.e2e_sum_ratio", "ratio", true),
    ("ledger.unattributed_ns_per_tuple", "ns", false),
    ("ledger.trace_overhead_share", "ratio", false),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; this keeps it and the table
    /// above from drifting apart.
    #[test]
    fn benchmark_json_names_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        for m in END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        for (name, unit, higher) in PER_LAYER {
            let better = if higher { "higher" } else { "lower" };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        let listed = json.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
