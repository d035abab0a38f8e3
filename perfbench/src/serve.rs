//! One job: set up a durable, sharded, pipelined engine, drive a workload's
//! stream through it from a single submitter thread, check the outcome, then
//! kill the pipeline and time recovery.
//!
//! The program is driven only through `ShardedDurableEngine::open` and
//! `PipelinedEngine::{start, submit, flush, close, kill}`; everything else
//! this module calls on it is a read-only accessor.

use crate::spec::{Loop, Workload, TRAIN_SNAPSHOTS};
use crate::stats;
use crate::trace::Tracer;
use dc_core::{
    train_on_workload, DurabilityOptions, DynamicC, DynamicCStats, PipelineOptions,
    PipelinedEngine, ShardedDurableEngine, ShardedRecoveryReport,
};
use dc_datagen::DynamicWorkload;
use dc_similarity::{ShardRouter, SimilarityGraph};
use dc_telemetry::{clock, TelemetrySnapshot};
use dc_types::{Clustering, Dataset, Operation};
use std::path::Path;
use std::time::{Duration, Instant};

/// Durability policy of every workload: group commit, checkpoint every
/// eighth round.
pub const DURABILITY: DurabilityOptions = DurabilityOptions {
    group_commit: true,
    checkpoint_every_rounds: 8,
};

/// Rounds in the write-ahead log beyond the last checkpoint when a job's
/// engine is killed: recovery loads that checkpoint and replays them.
pub const RECOVERY_WINDOW: u64 = 4;

/// How many single-operation rounds to commit after `served` rounds so that
/// the kill lands exactly [`RECOVERY_WINDOW`] rounds after a checkpoint, with
/// every replayed round one of these tail rounds.
pub fn tail_rounds(served: u64) -> u64 {
    let every = DURABILITY.checkpoint_every_rounds as u64;
    let aligned = (RECOVERY_WINDOW + every - served % every) % every;
    if aligned < RECOVERY_WINDOW {
        aligned + every
    } else {
        aligned
    }
}

/// Wall time of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `SimilarityGraph::build` over the initial dataset.
    pub graph_build: Duration,
    /// The batch algorithm's clustering of the initial graph.
    pub batch_cluster: Duration,
    /// `train_on_workload` over the training snapshots.
    pub train: Duration,
    /// `ShardedDurableEngine::open` of a fresh directory.
    pub open: Duration,
}

impl SetupTimes {
    /// All four phases.
    pub fn total(&self) -> Duration {
        self.graph_build + self.batch_cluster + self.train + self.open
    }
}

/// Per-shard engine state cloned (untimed) right after set-up, for the
/// traced run's component replays.
pub struct ShardClone {
    /// The shard's similarity graph.
    pub graph: SimilarityGraph,
    /// The shard's clustering.
    pub clustering: Clustering,
    /// The shard's maintained aggregates.
    pub aggregates: dc_similarity::ClusterAggregates,
    /// The shard's trained DynamicC (models, objective, stats).
    pub dynamicc: DynamicC,
}

/// Program-side counters read before and after serving.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounters {
    /// Summed DynamicC statistics over the shards.
    pub stats: DynamicCStats,
    /// Similarity computations of the per-shard graphs.
    pub shard_comparisons: u64,
}

/// Everything one job measured.
pub struct Job {
    /// `ShardedDurableEngine::open` of the job's fresh directory.
    pub open: Duration,
    /// Operations handed to `submit`.
    pub submitted: u64,
    /// Operations refused, errored, or missing from `ops_committed`.
    pub failed: u64,
    /// First submit to the last flush's return.
    pub serve_wall: Duration,
    /// The `close` that follows: the pipeline finishing the work still in
    /// flight after the last acknowledgement.
    pub drain: Duration,
    /// Per operation: due time to durable commit, in ms.
    pub commit_ms: Vec<f64>,
    /// Per client round: first submit to its flush's return, in ms.
    pub round_ms: Vec<f64>,
    /// Largest lateness of a submit call against its due time.
    pub max_late: Duration,
    /// Time the submitter spent inside `submit` (admission backpressure).
    pub submit_block: Duration,
    /// Time the submitter spent inside `flush`.
    pub flush_wait: Duration,
    /// Pairwise F1 of the refined clustering against the entity labels.
    pub f1: f64,
    /// `ShardedDurableEngine::open` of the killed directory.
    pub recovery: Duration,
    /// What that recovery did.
    pub recovery_report: ShardedRecoveryReport,
    /// Failed correctness checks, described.
    pub check_failures: Vec<String>,
    /// Rounds group-committed by the pipeline.
    pub rounds: u64,
    /// Committed rounds whose refine hand-off stalled.
    pub overlap_stalls: u64,
    /// Largest admission-queue depth at batch close.
    pub max_queue_depth: usize,
    /// Program counters before serving.
    pub before: EngineCounters,
    /// Program counters after serving.
    pub after: EngineCounters,
    /// Cross-shard edges held by the refiner after serving.
    pub cross_edges: usize,
    /// Edges in the shard graphs after serving.
    pub edges: usize,
    /// Encoded size of every submitted operation, in bytes.
    pub user_bytes: u64,
    /// This thread's program telemetry right before serving and right after
    /// the pipeline's threads merged theirs back on close.
    pub telemetry: (TelemetrySnapshot, TelemetrySnapshot),
}

/// The state every job's engine is opened from: the initial graph with the
/// training snapshots applied, the batch algorithm's last clustering, and
/// the trained models.  The training prefix is the same on every seed, so
/// one trained state serves every job of a run.
#[derive(Clone)]
pub struct Trained {
    graph: SimilarityGraph,
    clustering: Clustering,
    dynamicc: DynamicC,
}

/// Build the trained state in full: graph build, batch clustering,
/// training.  Times the three phases (`open` is left zero).
pub fn train(
    workload: &Workload,
    inputs: &DynamicWorkload,
    tracer: &mut Tracer,
) -> (Trained, SetupTimes) {
    let root = tracer.open("setup", None);
    let t0 = clock::now();
    let mut graph = SimilarityGraph::build(workload.graph_config(), &inputs.initial);
    let t1 = clock::now();
    tracer.record("setup.graph_build", Some(root), t0, t1);
    let batch = workload.batch();
    let initial = batch.cluster(&graph).clustering;
    let t2 = clock::now();
    tracer.record("setup.batch_cluster", Some(root), t1, t2);
    let mut dynamicc = DynamicC::with_objective(workload.objective());
    let training = train_on_workload(
        &mut dynamicc,
        &mut graph,
        &initial,
        &inputs.snapshots[..TRAIN_SNAPSHOTS],
        batch.as_ref(),
    );
    let clustering = training.final_clustering(&initial);
    let t3 = clock::now();
    tracer.record("setup.train", Some(root), t2, t3);
    tracer.close(root, t0, t3);
    let times = SetupTimes {
        graph_build: t1 - t0,
        batch_cluster: t2 - t1,
        train: t3 - t2,
        open: Duration::ZERO,
    };
    (
        Trained {
            graph,
            clustering,
            dynamicc,
        },
        times,
    )
}

/// Open a fresh engine in `dir` from `trained`; returns the engine, the
/// models to reopen it with, and the time `open` took.
fn open_fresh(
    workload: &Workload,
    trained: Trained,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(ShardedDurableEngine, DynamicC, Duration), String> {
    let Trained {
        graph,
        clustering,
        dynamicc,
    } = trained;
    let reopen_models = dynamicc.clone();
    let router = ShardRouter::for_config(workload.shards, graph.config());
    let config = graph.config().clone();
    let t0 = clock::now();
    let (engine, report) =
        ShardedDurableEngine::open(dir, router, config, dynamicc, DURABILITY, move || {
            (graph, clustering)
        })
        .map_err(|e| format!("open of a fresh directory failed: {e}"))?;
    let t1 = clock::now();
    tracer.record("setup.open", None, t0, t1);
    if report.recovered {
        return Err("a fresh directory reported recovered state".into());
    }
    Ok((engine, reopen_models, t1 - t0))
}

/// Clone each shard's engine state, for component replays.
fn clone_shards(engine: &ShardedDurableEngine) -> Vec<ShardClone> {
    engine
        .shards()
        .iter()
        .map(|s| {
            let e = s.engine();
            ShardClone {
                graph: e.graph().clone(),
                clustering: e.clustering().clone(),
                aggregates: e.aggregates().clone(),
                dynamicc: e.dynamicc().clone(),
            }
        })
        .collect()
}

fn counters(engine: &ShardedDurableEngine) -> EngineCounters {
    EngineCounters {
        stats: engine.stats(),
        shard_comparisons: engine.shard_comparisons(),
    }
}

/// Submit-side record of one served operation.
struct Submitted {
    due: Instant,
    at: Instant,
}

/// What the submitter loop observed.
struct Driven {
    ops: Vec<Submitted>,
    /// Per client round: first submit to the return of its flush.
    round_latencies: Vec<Duration>,
    refused: u64,
    flush_errors: u64,
    started: Instant,
    finished: Instant,
    submit_block: Duration,
    flush_wait: Duration,
}

/// Submit the stream in client rounds, each followed by a flush: the whole
/// stream as one round on the burst (a batch job), one snapshot per round
/// on the closed loop.  Every op of a round is due when the round starts.
fn drive(
    pipe: &PipelinedEngine,
    load: Loop,
    rounds: &[Vec<Operation>],
    tracer: &mut Tracer,
) -> Driven {
    let client_rounds: Vec<Vec<&Operation>> = match load {
        Loop::Burst => vec![rounds.iter().flatten().collect()],
        Loop::Closed => rounds.iter().map(|r| r.iter().collect()).collect(),
    };
    let serve = tracer.open("serve", None);
    let started = clock::now();
    let mut driven = Driven {
        ops: Vec::with_capacity(rounds.iter().map(Vec::len).sum()),
        round_latencies: Vec::with_capacity(client_rounds.len()),
        refused: 0,
        flush_errors: 0,
        started,
        finished: started,
        submit_block: Duration::ZERO,
        flush_wait: Duration::ZERO,
    };
    for round in client_rounds {
        let due = clock::now();
        for op in round {
            let at = clock::now();
            if pipe.submit(op.clone()).is_err() {
                driven.refused += 1;
            }
            let returned = clock::now();
            tracer.record("submit", Some(serve), at, returned);
            driven.submit_block += returned - at;
            driven.ops.push(Submitted { due, at });
        }
        let t = clock::now();
        if pipe.flush().is_err() {
            driven.flush_errors += 1;
        }
        let done = clock::now();
        tracer.record("flush", Some(serve), t, done);
        driven.flush_wait += done - t;
        driven.round_latencies.push(done - due);
    }
    driven.finished = clock::now();
    tracer.close(serve, started, driven.finished);
    driven
}

/// Whether two clusterings are bit-identical: same cluster ids, members,
/// and id watermark.
fn same_clustering(a: &Clustering, b: &Clustering) -> bool {
    a.id_watermark() == b.id_watermark()
        && a.cluster_ids() == b.cluster_ids()
        && a.cluster_ids()
            .iter()
            .all(|&cid| a.cluster(cid).map(|c| c.members()) == b.cluster(cid).map(|c| c.members()))
}

/// The live objects and records across the shards must be exactly the
/// generator's final dataset.
fn check_live_set(engine: &ShardedDurableEngine, expected: &Dataset) -> Result<(), String> {
    let mut live = 0usize;
    for shard in engine.shards() {
        let graph = shard.engine().graph();
        for id in graph.object_ids() {
            live += 1;
            if graph.record(id) != expected.record(id) {
                return Err(format!(
                    "object {id} is live with a record the stream never left it with"
                ));
            }
        }
    }
    if live != expected.len() {
        return Err(format!(
            "{live} live objects, the stream leaves {}",
            expected.len()
        ));
    }
    Ok(())
}

/// Run one job in `dir`, which must not exist yet, on an engine opened from
/// `trained`.  `clones` receives the shards' state right after the open when
/// given.
#[allow(clippy::too_many_arguments)]
pub fn run_job(
    workload: &Workload,
    trained: Trained,
    rounds: &[Vec<Operation>],
    final_dataset: &Dataset,
    truth: &Clustering,
    dir: &Path,
    tracer: &mut Tracer,
    clones: Option<&mut Vec<ShardClone>>,
) -> Result<Job, String> {
    let (engine, reopen_models, open) = open_fresh(workload, trained, dir, tracer)?;
    if let Some(clones) = clones {
        *clones = clone_shards(&engine);
    }
    let before = counters(&engine);
    let telemetry_before = dc_telemetry::registry().snapshot();
    let submitted_ops: Vec<&Operation> = rounds.iter().flatten().collect();
    let user_bytes = submitted_ops
        .iter()
        .map(|op| dc_types::codec::BinCodec::encode_to_vec(*op).len() as u64)
        .sum();

    let pipe = PipelinedEngine::start(engine, PipelineOptions::default());
    let driven = drive(&pipe, workload.load, rounds, tracer);
    let t = clock::now();
    let closed = pipe.close();
    let closed_at = clock::now();
    tracer.record("close", None, t, closed_at);
    let (engine, report) = closed.map_err(|e| format!("close failed: {e}"))?;
    let telemetry_after = dc_telemetry::registry().snapshot();

    let submitted = driven.ops.len() as u64;
    let mut check_failures = Vec::new();
    if driven.flush_errors > 0 {
        check_failures.push(format!("{} flushes failed", driven.flush_errors));
    }
    let missing = submitted.saturating_sub(report.ops_committed);
    if report.ops_committed != submitted {
        check_failures.push(format!(
            "{} ops committed of {submitted} submitted",
            report.ops_committed
        ));
    }
    if report.op_latencies_ns.len() as u64 != report.ops_committed {
        check_failures.push("one commit latency per committed op expected".into());
    }
    if let Err(e) = check_live_set(&engine, final_dataset) {
        check_failures.push(e);
    }

    // FIFO admission from one submitter: commit order is submit order.
    let commit_ms: Vec<f64> = driven
        .ops
        .iter()
        .zip(&report.op_latencies_ns)
        .map(|(op, &ns)| stats::due_to_commit(op.due, op.at, ns).as_secs_f64() * 1e3)
        .collect();
    let max_late = driven
        .ops
        .iter()
        .map(|op| stats::lateness(op.due, op.at))
        .max()
        .unwrap_or_default();
    let round_ms = driven
        .round_latencies
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();

    let f1 = dc_eval::quality_report(&engine.refined_clustering(), truth).f1;
    let after = counters(&engine);
    let cross_edges = engine.cross_shard_edges_recovered();
    let edges = engine
        .shards()
        .iter()
        .map(|s| s.engine().graph().edge_count())
        .sum();

    // Line the crash point up with the checkpoint cadence, so every job
    // recovers the same amount of work: a snapshot plus RECOVERY_WINDOW
    // single-operation rounds.
    let tail = tail_rounds(engine.rounds_served() as u64);
    let pipe = PipelinedEngine::start(engine, PipelineOptions::default());
    for id in final_dataset.ids().into_iter().take(tail as usize) {
        let record = final_dataset
            .record(id)
            .cloned()
            .ok_or("final dataset id without record")?;
        if pipe.submit(Operation::Update { id, record }).is_err() || pipe.flush().is_err() {
            check_failures.push("recovery tail refused an operation".into());
        }
    }
    let (engine, tail_report) = pipe.close().map_err(|e| format!("close failed: {e}"))?;
    if tail_report.rounds_committed != tail {
        check_failures.push(format!(
            "recovery tail committed {} rounds, {tail} expected",
            tail_report.rounds_committed
        ));
    }
    if let Err(e) = check_live_set(&engine, final_dataset) {
        check_failures.push(format!("after the recovery tail: {e}"));
    }

    // Kill after the drain, then recover: every acknowledged op must survive
    // and the recovered views must be bit-identical to the killed ones.
    let merged = engine.merged_clustering();
    let refined = engine.refined_clustering();
    PipelinedEngine::start(engine, PipelineOptions::default()).kill();
    let router = ShardRouter::for_config(workload.shards, &workload.graph_config());
    let recovery_span = tracer.open("recovery", None);
    let t0 = clock::now();
    let reopened = ShardedDurableEngine::open(
        dir,
        router,
        workload.graph_config(),
        reopen_models,
        DURABILITY,
        || {
            (
                SimilarityGraph::empty(workload.graph_config()),
                Clustering::new(),
            )
        },
    );
    let t1 = clock::now();
    tracer.record("open", Some(recovery_span), t0, t1);
    tracer.close(recovery_span, t0, t1);
    let (recovered, recovery_report) = reopened.map_err(|e| format!("recovery failed: {e}"))?;
    if !recovery_report.recovered {
        check_failures.push("reopen did not find the killed engine's state".into());
    }
    if !same_clustering(&recovered.merged_clustering(), &merged) {
        check_failures.push("recovered merged clustering differs from the killed one".into());
    }
    if !same_clustering(&recovered.refined_clustering(), &refined) {
        check_failures.push("recovered refined clustering differs from the killed one".into());
    }
    if let Err(e) = check_live_set(&recovered, final_dataset) {
        check_failures.push(format!("after recovery: {e}"));
    }
    drop(recovered);

    Ok(Job {
        open,
        submitted,
        failed: driven.refused.max(missing),
        serve_wall: driven.finished - driven.started,
        drain: closed_at - t,
        commit_ms,
        round_ms,
        max_late,
        submit_block: driven.submit_block,
        flush_wait: driven.flush_wait,
        f1,
        recovery: t1 - t0,
        recovery_report,
        check_failures,
        rounds: report.rounds_committed,
        overlap_stalls: report.overlap_stalls,
        max_queue_depth: report.max_queue_depth,
        before,
        after,
        cross_edges,
        edges,
        user_bytes,
        telemetry: (telemetry_before, telemetry_after),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kill_lands_a_fixed_window_after_a_checkpoint() {
        let every = DURABILITY.checkpoint_every_rounds as u64;
        for served in 0..4 * every {
            let tail = tail_rounds(served);
            assert_eq!((served + tail) % every, RECOVERY_WINDOW, "served {served}");
            assert!(
                tail >= RECOVERY_WINDOW,
                "replayed rounds must all be tail rounds"
            );
            assert!(tail < RECOVERY_WINDOW + every, "no more tail than needed");
        }
    }
}
