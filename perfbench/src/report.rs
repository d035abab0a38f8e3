//! Metric names and units, and the one-line JSON result.
//!
//! The two tables here must agree with `BENCHMARK.json`: a test checks that
//! both list the same names with the same units, in the same order.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("f1_vs_truth", "share"),
    ("op_success_share", "share"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("setup.graph_build_ns", "ns"),
    ("setup.batch_cluster_ns", "ns"),
    ("setup.train_ns", "ns"),
    ("setup.open_ns", "ns"),
    ("loadgen.max_late_ms", "ms"),
    ("loadgen.submit_block_ns", "ns"),
    ("pipeline.rounds", "count"),
    ("pipeline.ops_per_round", "ops"),
    ("pipeline.overlap_stalls", "count"),
    ("pipeline.max_queue_depth", "ops"),
    ("pipeline.flush_wait_ns", "ns"),
    ("shard.route_ns", "ns"),
    ("shard.apply_ns", "ns"),
    ("shard.batch_imbalance", "ratio"),
    ("engine.apply_round_ns", "ns"),
    ("engine.rounds", "count"),
    ("engine.verify_ns", "ns"),
    ("similarity.graph_update_ns", "ns"),
    ("similarity.comparisons", "count"),
    ("similarity.edges", "count"),
    ("ml.predict_ns", "ns"),
    ("ml.merge_candidates", "count"),
    ("ml.split_candidates", "count"),
    ("ml.merge_acceptance", "share"),
    ("ml.split_acceptance", "share"),
    ("objective.evaluations", "count"),
    ("objective.score_ns", "ns"),
    ("refine.round_ns", "ns"),
    ("refine.repair_ns", "ns"),
    ("refine.boundary_pairs", "count"),
    ("refine.cross_edges", "count"),
    ("refine.dirty_clusters", "count"),
    ("refine.cross_pair_fraction", "share"),
    ("storage.fsyncs", "count"),
    ("storage.fsync_ns", "ns"),
    ("storage.wal_bytes", "bytes"),
    ("storage.snapshot_bytes", "bytes"),
    ("storage.checkpoints", "count"),
    ("storage.bytes_per_user_byte", "ratio"),
    ("recovery.open_ns", "ns"),
    ("recovery.replayed_rounds", "count"),
    ("trace.overhead_share", "share"),
    ("trace.attributed_share", "share"),
];

/// Render the result line.  `metrics` must hold a value for every name in
/// `table`; a missing one is an error, not a silent omission.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    metrics: &BTreeMap<&str, f64>,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs listed in one top-level array of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("section {section}"));
        let body = &text[start..];
        let end = body.find(']').expect("section is an array");
        let field = |entry: &str, key: &str| -> String {
            let tag = format!("\"{key}\": \"");
            let from = entry
                .find(&tag)
                .unwrap_or_else(|| panic!("{key} in {entry}"))
                + tag.len();
            entry[from..]
                .split('"')
                .next()
                .expect("closing quote")
                .to_string()
        };
        body[..end]
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn end_to_end_names_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    }

    #[test]
    fn per_layer_names_match_benchmark_json() {
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for w in crate::spec::WORKLOADS {
            let entry = format!("\"name\": \"{}\"", w.name);
            assert!(text.contains(&entry), "{} missing", w.name);
            let seeds = format!("seed {}, held-out {}", w.default_seed, w.held_out_seed);
            assert!(
                text.contains(&seeds),
                "{}: seeds not recorded as `{seeds}`",
                w.name
            );
        }
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let metrics: BTreeMap<&str, f64> = END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect();
        let line = result_line(true, 10, 0, &END_TO_END, &metrics).expect("complete");
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 1.5, \"unit\": \"ops/s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let metrics = BTreeMap::new();
        assert!(result_line(true, 1, 0, &END_TO_END, &metrics).is_err());
    }
}
