//! Recovery-equivalence tests for the sharded durable serving path,
//! mirroring the `durable_recovery.rs` harness.
//!
//! The invariant: a 4-shard [`ShardedDurableEngine`] that is killed and
//! reopened around **every** round produces bit-identical merged *and
//! refined* clusterings, [`DynamicCStats`], per-round reports (including the
//! cross-shard refinement metrics), per-shard comparison counters, and
//! recovered-edge counts to a [`ShardedEngine`] that served the same
//! workload in memory without ever restarting.  (The one deliberately
//! process-scoped quantity is the cumulative cross-shard comparison counter:
//! recovery rebuilds the derived cross-shard index from the recovered
//! per-shard graphs, so a restarted process reports the rebuild's work —
//! see `dc_core::refine`.)  Additionally, tearing the tail of **one
//! shard's** WAL no longer costs the round: the refine WAL logs the full
//! batch and syncs last, so recovery heals the torn shard by replaying the
//! staged batch from it (see `group_commit.rs` for the full tear matrix),
//! and the healed engine converges to the same final state.

use dc_core::{DurabilityOptions, ShardedDurableEngine, ShardedEngine, ShardedRoundReport};
use dc_datagen::fixtures::small_febrl_workload;
use dc_datagen::DynamicWorkload;
use dc_objective::{DbIndexObjective, ObjectiveFunction};
use dc_similarity::{BuildCounter, GraphConfig, ShardRouter, SimilarityGraph};
use dc_storage::wal::list_segments;
use dc_types::{Clustering, Snapshot};
use std::sync::Arc;

mod common;
use common::{assert_clusterings_identical, TempDir};

const TRAIN_ROUNDS: usize = 2;
const N_SHARDS: usize = 4;

fn trained_setup(
    workload: &DynamicWorkload,
    objective: Arc<dyn ObjectiveFunction>,
) -> (
    SimilarityGraph,
    Clustering,
    Vec<Snapshot>,
    dc_core::DynamicC,
) {
    common::trained_setup(
        workload,
        || GraphConfig::textual_febrl(0.6),
        objective,
        TRAIN_ROUNDS,
    )
}

/// The never-restarted in-memory reference: per-round reports and merged
/// clusterings.
#[allow(clippy::type_complexity)]
fn reference_run(
    workload: &DynamicWorkload,
    objective: Arc<dyn ObjectiveFunction>,
) -> (
    ShardedEngine,
    Vec<ShardedRoundReport>,
    Vec<Clustering>,
    Vec<Clustering>,
) {
    let (graph, previous, serve, dynamicc) = trained_setup(workload, objective);
    let router = ShardRouter::for_config(N_SHARDS, graph.config());
    let mut engine =
        ShardedEngine::new(router, graph, previous, dynamicc).expect("valid shard config");
    let mut reports = Vec::new();
    let mut clusterings = Vec::new();
    let mut refined = Vec::new();
    for snapshot in &serve {
        reports.push(engine.apply_round(&snapshot.batch));
        clusterings.push(engine.merged_clustering());
        refined.push(engine.refined_clustering());
    }
    (engine, reports, clusterings, refined)
}

#[test]
fn four_shard_kill_reopen_around_every_round_is_bit_identical() {
    let workload = small_febrl_workload();
    let objective: Arc<dyn ObjectiveFunction> = Arc::new(DbIndexObjective);
    let (reference, expected_reports, expected_clusterings, expected_refined) =
        reference_run(&workload, objective.clone());
    let (_, _, serve, _) = trained_setup(&workload, objective.clone());

    let options = DurabilityOptions {
        checkpoint_every_rounds: 2,
        group_commit: false,
    };
    let tmp = TempDir::new("kill-reopen");
    let dir = tmp.path();
    {
        let (graph, previous, _, dynamicc) = trained_setup(&workload, objective.clone());
        let router = ShardRouter::for_config(N_SHARDS, graph.config());
        let config = graph.config().clone();
        let (_engine, report) =
            ShardedDurableEngine::open(dir, router, config, dynamicc, options, move || {
                (graph, previous)
            })
            .unwrap();
        assert!(!report.recovered, "first open must be fresh");
        // Killed before serving anything.
    }

    for (i, snapshot) in serve.iter().enumerate() {
        // A fresh "process": reconstruct the deterministic open-time inputs.
        let (graph, _, _, dynamicc) = trained_setup(&workload, objective.clone());
        let router = ShardRouter::for_config(N_SHARDS, graph.config());
        let config = graph.config().clone();
        let ((mut engine, report), recovery_builds) = BuildCounter::scope(|| {
            ShardedDurableEngine::open(dir, router, config, dynamicc, options, || {
                unreachable!("recovery must not bootstrap")
            })
            .unwrap()
        });
        assert!(report.recovered, "round {i}: open must recover");
        assert_eq!(report.committed_round, i as u64, "round {i}: resume point");
        assert_eq!(report.rolled_back_rounds, 0, "round {i}: clean kill");
        assert_eq!(
            recovery_builds, 0,
            "round {i}: recovery must not rebuild aggregates"
        );
        assert_eq!(engine.rounds_served(), i);

        let round_report = engine.apply_round(&snapshot.batch).unwrap();
        assert_eq!(
            round_report, expected_reports[i],
            "round {i}: report diverged"
        );
        assert_clusterings_identical(
            &engine.merged_clustering(),
            &expected_clusterings[i],
            &format!("round {i}"),
        );
        assert_clusterings_identical(
            &engine.refined_clustering(),
            &expected_refined[i],
            &format!("round {i}: refined"),
        );
        // Killed here: dropped without a shutdown hook.
    }

    // Final recovery, then compare everything.
    let (graph, _, _, dynamicc) = trained_setup(&workload, objective.clone());
    let router = ShardRouter::for_config(N_SHARDS, graph.config());
    let config = graph.config().clone();
    let (engine, report) =
        ShardedDurableEngine::open(dir, router, config, dynamicc, options, || {
            unreachable!("recovery must not bootstrap")
        })
        .unwrap();
    assert!(report.recovered);
    assert_eq!(engine.rounds_served(), serve.len());
    assert_clusterings_identical(
        &engine.merged_clustering(),
        &reference.merged_clustering(),
        "final",
    );
    assert_clusterings_identical(
        &engine.refined_clustering(),
        &reference.refined_clustering(),
        "final refined",
    );
    assert_eq!(engine.stats(), reference.stats(), "stats diverged");
    assert_eq!(
        engine.shard_comparisons(),
        reference.shard_comparisons(),
        "per-shard similarity work counters diverged"
    );
    assert_eq!(
        engine.cross_shard_edges_recovered(),
        reference.cross_shard_edges_recovered(),
        "recovered-edge counts diverged"
    );
}

#[test]
fn one_shard_torn_tail_is_healed_from_the_refine_log() {
    let workload = small_febrl_workload();
    let objective: Arc<dyn ObjectiveFunction> = Arc::new(DbIndexObjective);
    let (reference, expected_reports, expected_clusterings, expected_refined) =
        reference_run(&workload, objective.clone());
    let (_, _, serve, _) = trained_setup(&workload, objective.clone());
    assert!(serve.len() >= 2, "need at least two rounds for this test");

    // No automatic checkpoints: the torn round must be recovered from the
    // WAL alone.
    let options = DurabilityOptions {
        checkpoint_every_rounds: 0,
        group_commit: false,
    };
    let tmp = TempDir::new("torn-tail");
    let dir = tmp.path();
    {
        let (graph, previous, _, dynamicc) = trained_setup(&workload, objective.clone());
        let router = ShardRouter::for_config(N_SHARDS, graph.config());
        let config = graph.config().clone();
        let (mut engine, _) =
            ShardedDurableEngine::open(dir, router, config, dynamicc, options, move || {
                (graph, previous)
            })
            .unwrap();
        let report = engine.apply_round(&serve[0].batch).unwrap();
        assert_eq!(report, expected_reports[0]);
        // Killed after round 1 was fully served and logged everywhere.
    }

    // Tear the tail of shard 2's round-1 WAL record: every shard logged the
    // round, but one of them now cannot recover it.
    let shard_dir = dir.join("shard-002");
    let (_, seg_path) = list_segments(&shard_dir).unwrap().pop().expect("segment");
    let len = std::fs::metadata(&seg_path).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&seg_path)
        .unwrap();
    file.set_len(len - 3).unwrap();
    drop(file);

    // Reopen: the committed round is the refine WAL's durable round (1) —
    // the refine WAL logs the full batch and is synced last, so the torn
    // shard is healed by replaying the staged round from it instead of
    // rolling the acknowledged round back everywhere.
    let (graph, _, _, dynamicc) = trained_setup(&workload, objective.clone());
    let router = ShardRouter::for_config(N_SHARDS, graph.config());
    let config = graph.config().clone();
    let (mut engine, report) =
        ShardedDurableEngine::open(dir, router, config, dynamicc, options, || {
            unreachable!("recovery must not bootstrap")
        })
        .unwrap();
    assert!(report.recovered);
    assert!(report.dropped_torn_tail, "the torn tail must be detected");
    assert_eq!(report.committed_round, 1, "round 1 was fully acknowledged");
    assert_eq!(report.rolled_back_rounds, 0, "no shard rolled back");
    assert_eq!(report.healed_rounds, 1, "the torn shard replayed one round");
    assert_eq!(engine.rounds_served(), 1);
    assert_clusterings_identical(
        &engine.merged_clustering(),
        &expected_clusterings[0],
        "healed round 1",
    );

    // Serving the rest of the workload lands on the reference state.
    for (i, snapshot) in serve.iter().enumerate().skip(1) {
        let round_report = engine.apply_round(&snapshot.batch).unwrap();
        assert_eq!(
            round_report, expected_reports[i],
            "round {i}: report diverged after healing"
        );
        assert_clusterings_identical(
            &engine.merged_clustering(),
            &expected_clusterings[i],
            &format!("post-heal round {i}"),
        );
        assert_clusterings_identical(
            &engine.refined_clustering(),
            &expected_refined[i],
            &format!("post-heal round {i}: refined"),
        );
    }
    assert_eq!(engine.stats(), reference.stats());
    assert_eq!(engine.shard_comparisons(), reference.shard_comparisons());
    assert_eq!(
        engine.cross_shard_edges_recovered(),
        reference.cross_shard_edges_recovered()
    );
}

/// Satellite regression for the refine-restore panic: a round sequence that
/// **adds** an object, **checkpoints** (so the refine snapshot holds it),
/// **deletes** it, and **re-adds** it — killed and reopened around every
/// round — must recover through `CrossShardRefiner::import_state` without
/// panicking (the historical code `expect`ed every restored mirror object to
/// be live) and stay bit-identical to a never-restarted run.
#[test]
fn add_delete_readd_across_checkpoints_recovers_bit_identically() {
    let workload = small_febrl_workload();
    let objective: Arc<dyn ObjectiveFunction> = Arc::new(DbIndexObjective);
    let (_, _, serve, _) = trained_setup(&workload, objective.clone());

    // The synthetic tail: add a brand-new object, remove it, re-add it —
    // with a checkpoint after every round, so each shape crosses a
    // snapshot/replay boundary.
    let novel = dc_types::ObjectId::new(1_000_000);
    let record = workload
        .initial
        .iter()
        .next()
        .expect("non-empty fixture")
        .1
        .clone();
    let mut rounds: Vec<dc_types::OperationBatch> =
        serve.iter().take(1).map(|s| s.batch.clone()).collect();
    for op in [
        dc_types::Operation::Add {
            id: novel,
            record: record.clone(),
        },
        dc_types::Operation::Remove { id: novel },
        dc_types::Operation::Add {
            id: novel,
            record: record.clone(),
        },
    ] {
        let mut batch = dc_types::OperationBatch::new();
        batch.push(op);
        rounds.push(batch);
    }

    // Never-restarted reference over the same rounds.
    let (graph, previous, _, dynamicc) = trained_setup(&workload, objective.clone());
    let router = ShardRouter::for_config(N_SHARDS, graph.config());
    let mut reference =
        ShardedEngine::new(router, graph, previous, dynamicc).expect("valid shard config");
    let mut expected_reports = Vec::new();
    let mut expected_refined = Vec::new();
    for batch in &rounds {
        expected_reports.push(reference.apply_round(batch));
        expected_refined.push(reference.refined_clustering());
    }

    let options = DurabilityOptions {
        checkpoint_every_rounds: 1,
        group_commit: false,
    };
    let tmp = TempDir::new("add-delete-readd");
    let dir = tmp.path();
    {
        let (graph, previous, _, dynamicc) = trained_setup(&workload, objective.clone());
        let router = ShardRouter::for_config(N_SHARDS, graph.config());
        let config = graph.config().clone();
        ShardedDurableEngine::open(dir, router, config, dynamicc, options, move || {
            (graph, previous)
        })
        .unwrap();
    }
    for (i, batch) in rounds.iter().enumerate() {
        let (graph, _, _, dynamicc) = trained_setup(&workload, objective.clone());
        let router = ShardRouter::for_config(N_SHARDS, graph.config());
        let config = graph.config().clone();
        let (mut engine, report) =
            ShardedDurableEngine::open(dir, router, config, dynamicc, options, || {
                unreachable!("recovery must not bootstrap")
            })
            .unwrap();
        assert!(report.recovered, "round {i}: open must recover");
        let round_report = engine.apply_round(batch).unwrap();
        assert_eq!(
            round_report.refine, expected_reports[i].refine,
            "round {i}: refine report diverged"
        );
        assert_clusterings_identical(
            &engine.refined_clustering(),
            &expected_refined[i],
            &format!("round {i}: refined"),
        );
        // Killed here.
    }
    let (graph, _, _, dynamicc) = trained_setup(&workload, objective);
    let router = ShardRouter::for_config(N_SHARDS, graph.config());
    let config = graph.config().clone();
    let (engine, report) =
        ShardedDurableEngine::open(dir, router, config, dynamicc, options, || {
            unreachable!("recovery must not bootstrap")
        })
        .unwrap();
    assert!(report.recovered);
    assert_eq!(engine.shard_of(novel), reference.shard_of(novel));
    assert_clusterings_identical(
        &engine.refined_clustering(),
        &reference.refined_clustering(),
        "final refined",
    );
}

#[test]
fn reopening_with_a_different_shard_count_is_rejected() {
    let workload = small_febrl_workload();
    let objective: Arc<dyn ObjectiveFunction> = Arc::new(DbIndexObjective);
    let options = DurabilityOptions::default();
    let tmp = TempDir::new("shard-count");
    let dir = tmp.path();
    {
        let (graph, previous, serve, dynamicc) = trained_setup(&workload, objective.clone());
        let router = ShardRouter::for_config(N_SHARDS, graph.config());
        let config = graph.config().clone();
        let (mut engine, _) =
            ShardedDurableEngine::open(dir, router, config, dynamicc, options, move || {
                (graph, previous)
            })
            .unwrap();
        engine.apply_round(&serve[0].batch).unwrap();
    }
    for (n_shards, direction) in [(2, "fewer"), (2 * N_SHARDS, "more")] {
        let (graph, previous, _, dynamicc) = trained_setup(&workload, objective.clone());
        let router = ShardRouter::for_config(n_shards, graph.config());
        let config = graph.config().clone();
        let result =
            ShardedDurableEngine::open(dir, router, config, dynamicc, options, move || {
                (graph, previous)
            });
        assert!(
            matches!(result, Err(dc_core::StorageError::Inconsistent(_))),
            "{direction} shards than on disk must be rejected, got {result:?}"
        );
    }
}
