//! Per-layer numbers of a traced job.
//!
//! Two sources only: the counters and phase histograms the program's
//! telemetry already exports (read through `Registry::snapshot` before and
//! after serving), and component replays the benchmark times from outside
//! on untimed clones of each shard's state.

use crate::serve::{Job, ShardClone};
use crate::trace::Tracer;
use dc_core::Engine;
use dc_evolution::{merge_features, split_features};
use dc_similarity::ShardRouter;
use dc_telemetry::{clock, TelemetrySnapshot};
use dc_types::{ObjectId, Operation, OperationBatch};
use std::collections::BTreeMap;
use std::time::Duration;

/// Program telemetry accumulated while one job served: the difference
/// between two snapshots of the same thread's registry.
struct TelemetryDelta<'a> {
    before: &'a TelemetrySnapshot,
    after: &'a TelemetrySnapshot,
}

impl TelemetryDelta<'_> {
    /// Counter growth.
    fn counter(&self, name: &str) -> f64 {
        let get = |s: &TelemetrySnapshot| s.counters.get(name).copied().unwrap_or(0);
        get(self.after).saturating_sub(get(self.before)) as f64
    }

    /// Growth of a histogram's summed nanoseconds.
    fn hist_ns(&self, name: &str) -> f64 {
        let get = |s: &TelemetrySnapshot| s.histograms.get(name).map_or(0, |h| h.sum());
        get(self.after).saturating_sub(get(self.before)) as f64
    }

    /// Growth of a histogram's sample count.
    fn hist_count(&self, name: &str) -> f64 {
        let get = |s: &TelemetrySnapshot| s.histograms.get(name).map_or(0, |h| h.count());
        get(self.after).saturating_sub(get(self.before)) as f64
    }

    /// A gauge's last value (0 when never written).
    fn gauge(&self, name: &str) -> f64 {
        self.after.gauges.get(name).copied().unwrap_or(0.0)
    }
}

/// Phase histograms the pipeline coordinator records, one after the other,
/// for every round it serves: together they are the round's wall time as
/// the program itself attributes it.
const COORDINATOR_PHASES: [&str; 6] = [
    "pipeline.batch_form",
    "round.route",
    "pipeline.group_commit",
    "pipeline.overlap_stall",
    "round.shard_apply",
    "round.checkpoint",
];

/// Engine sub-layer times from a component replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// `ClusterAggregates::apply_batch` (graph update and similarity).
    pub graph_update: Duration,
    /// Merge and split features plus model predictions for every cluster.
    pub predict: Duration,
    /// `ObjectiveFunction::evaluate_with` after the round.
    pub score: Duration,
    /// `Engine::apply_round` of the same round on the replay engine.
    pub apply_round: Duration,
}

/// Replay `ops` through clones of the shards' post-set-up state in rounds of
/// `round_ops` operations, routed as the program routes them, timing each
/// engine component on its own.
pub fn replay_components(
    clones: Vec<ShardClone>,
    router: &ShardRouter,
    ops: &[Operation],
    round_ops: usize,
    tracer: &mut Tracer,
) -> Replay {
    let mut assignment: BTreeMap<ObjectId, usize> = BTreeMap::new();
    let mut engines: Vec<Engine> = Vec::with_capacity(clones.len());
    for (shard, c) in clones.into_iter().enumerate() {
        for id in c.graph.object_ids() {
            assignment.insert(id, shard);
        }
        engines.push(Engine::from_parts(
            c.graph,
            c.clustering,
            c.aggregates,
            c.dynamicc,
            0,
        ));
    }
    let mut replay = Replay::default();
    let root = tracer.open("replay", None);
    let replay_start = clock::now();
    for chunk in ops.chunks(round_ops.max(1)) {
        let mut batch = OperationBatch::new();
        for op in chunk {
            batch.push(op.clone());
        }
        let routed = router.route_batch(&batch, &mut assignment);
        for (engine, sub) in engines.iter_mut().zip(&routed.sub_batches) {
            if sub.is_empty() {
                continue;
            }
            // Untimed clone of the state the round starts from.
            let mut graph = engine.graph().clone();
            let mut clustering = engine.clustering().clone();
            let mut aggregates = engine.aggregates().clone();

            let t0 = clock::now();
            aggregates.apply_batch(&mut graph, &mut clustering, sub);
            let t1 = clock::now();
            tracer.record("replay.graph_update", Some(root), t0, t1);

            let models = engine.dynamicc().models();
            let theta = engine.dynamicc().config().theta_scale;
            let mut flagged = 0usize;
            for cid in clustering.cluster_ids() {
                flagged +=
                    usize::from(models.predicts_merge(&merge_features(&aggregates, cid), theta));
                flagged +=
                    usize::from(models.predicts_split(&split_features(&aggregates, cid), theta));
            }
            std::hint::black_box(flagged);
            let t2 = clock::now();
            tracer.record("replay.predict", Some(root), t1, t2);

            engine.apply_round(sub);
            let t3 = clock::now();
            tracer.record("replay.apply_round", Some(root), t2, t3);

            let score = engine.dynamicc().objective().evaluate_with(
                engine.aggregates(),
                engine.graph(),
                engine.clustering(),
            );
            std::hint::black_box(score);
            let t4 = clock::now();
            tracer.record("replay.score", Some(root), t3, t4);

            replay.graph_update += t1 - t0;
            replay.predict += t2 - t1;
            replay.apply_round += t3 - t2;
            replay.score += t4 - t3;
        }
    }
    tracer.close(root, replay_start, clock::now());
    replay
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced job, by name (units are fixed by
/// [`crate::report::PER_LAYER`]); the set-up phases are added by the caller.
pub fn job_layers(job: &Job, replay: &Replay) -> BTreeMap<&'static str, f64> {
    let t = TelemetryDelta {
        before: &job.telemetry.0,
        after: &job.telemetry.1,
    };
    let ns = |d: Duration| d.as_nanos() as f64;
    let stats_delta = |f: fn(&dc_core::DynamicCStats) -> usize| {
        f(&job.after.stats).saturating_sub(f(&job.before.stats)) as f64
    };
    let merge_candidates = stats_delta(|s| s.merge_candidates);
    let split_candidates = stats_delta(|s| s.split_candidates);
    let comparisons = job
        .after
        .shard_comparisons
        .saturating_sub(job.before.shard_comparisons) as f64;
    let boundary_pairs = t.counter("refine.boundary_pairs");
    let wal_bytes = t.counter("storage.wal_bytes_appended");
    let snapshot_bytes = t.counter("storage.snapshot_bytes_written");
    let coordinator_ns: f64 = COORDINATOR_PHASES.iter().map(|p| t.hist_ns(p)).sum();
    let verify = replay
        .apply_round
        .saturating_sub(replay.graph_update + replay.predict + replay.score);

    let mut m = BTreeMap::new();
    m.insert("loadgen.max_late_ms", job.max_late.as_secs_f64() * 1e3);
    m.insert("loadgen.submit_block_ns", ns(job.submit_block));
    m.insert("pipeline.rounds", job.rounds as f64);
    m.insert(
        "pipeline.ops_per_round",
        ratio(job.submitted as f64, job.rounds as f64),
    );
    m.insert("pipeline.overlap_stalls", job.overlap_stalls as f64);
    m.insert("pipeline.max_queue_depth", job.max_queue_depth as f64);
    m.insert("pipeline.flush_wait_ns", ns(job.flush_wait));
    m.insert("shard.route_ns", t.hist_ns("round.route"));
    m.insert("shard.apply_ns", t.hist_ns("round.shard_apply"));
    m.insert("shard.batch_imbalance", t.gauge("shard.batch_imbalance"));
    m.insert("engine.apply_round_ns", t.hist_ns("engine.apply_round"));
    m.insert("engine.rounds", t.counter("engine.rounds"));
    m.insert("engine.verify_ns", ns(verify));
    m.insert("similarity.graph_update_ns", ns(replay.graph_update));
    m.insert("similarity.comparisons", comparisons);
    m.insert("similarity.edges", job.edges as f64);
    m.insert("ml.predict_ns", ns(replay.predict));
    m.insert("ml.merge_candidates", merge_candidates);
    m.insert("ml.split_candidates", split_candidates);
    m.insert(
        "ml.merge_acceptance",
        ratio(stats_delta(|s| s.merges_applied), merge_candidates),
    );
    m.insert(
        "ml.split_acceptance",
        ratio(stats_delta(|s| s.splits_applied), split_candidates),
    );
    m.insert(
        "objective.evaluations",
        job.after
            .stats
            .objective_evaluations
            .saturating_sub(job.before.stats.objective_evaluations) as f64,
    );
    m.insert("objective.score_ns", ns(replay.score));
    m.insert("refine.round_ns", t.hist_ns("pipeline.refine"));
    m.insert("refine.repair_ns", t.hist_ns("refine.repair"));
    m.insert("refine.boundary_pairs", boundary_pairs);
    m.insert("refine.cross_edges", job.cross_edges as f64);
    m.insert("refine.dirty_clusters", t.counter("refine.dirty_clusters"));
    m.insert(
        "refine.cross_pair_fraction",
        ratio(boundary_pairs, boundary_pairs + comparisons),
    );
    m.insert("storage.fsyncs", t.counter("storage.fsync_count"));
    m.insert("storage.fsync_ns", t.hist_ns("storage.fsync"));
    m.insert("storage.wal_bytes", wal_bytes);
    m.insert("storage.snapshot_bytes", snapshot_bytes);
    m.insert("storage.checkpoints", t.hist_count("round.checkpoint"));
    m.insert(
        "storage.bytes_per_user_byte",
        ratio(wal_bytes + snapshot_bytes, job.user_bytes as f64),
    );
    m.insert("recovery.open_ns", ns(job.recovery));
    m.insert(
        "recovery.replayed_rounds",
        job.recovery_report.replayed_rounds as f64,
    );
    // Coordinator phases and the refine worker run concurrently; the larger
    // of the two is a lower bound on the wall time their spans cover, from
    // the first submit until the pipeline has drained.
    let covered = coordinator_ns.max(t.hist_ns("pipeline.refine"));
    m.insert(
        "trace.attributed_share",
        ratio(covered, ns(job.serve_wall + job.drain)),
    );
    m
}
