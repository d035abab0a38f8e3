//! # dc-core — DynamicC
//!
//! The paper's primary contribution: a machine-learning-augmented dynamic
//! clustering system that learns, from historical cluster evolution, whether
//! a cluster is about to **merge** or **split** when the database changes,
//! and uses those predictions — verified against the clustering objective —
//! to update the clustering without re-running the batch algorithm.
//!
//! The lifecycle mirrors the paper exactly:
//!
//! 1. **Training phase** (§4, §5).  The underlying batch algorithm keeps
//!    answering re-clustering requests while DynamicC observes: each round's
//!    difference between the old and new clustering is converted into
//!    merge/split evolution steps ([`dc_evolution::derive_transformation`]),
//!    turned into per-cluster feature vectors, balanced with weighted
//!    negative samples, and appended to bounded training buffers
//!    ([`models::ModelPair`]).  Fitting the two classifiers and selecting
//!    the recall-first thresholds happens in [`DynamicC::retrain`].
//! 2. **Serving phase** (§6).  [`DynamicC`] implements
//!    [`dc_baselines::IncrementalClusterer`]: initial processing places new
//!    and updated objects into singleton clusters, then the merge algorithm
//!    (Algorithm 1, [`merge`]) and the split algorithm (Algorithm 2,
//!    [`split`]) alternate until a fixed point (Algorithm 3, [`dynamic`]).
//!    Every change proposed by a model is verified against the objective
//!    function before it is applied, so false positives cost one evaluation
//!    and never harm quality.
//! 3. **Continual learning** (§5.3, §8).  New rounds can keep being
//!    observed (e.g. whenever the batch algorithm is run occasionally to
//!    establish a quality baseline), old examples age out of the buffers,
//!    and [`DynamicC::retrain`] refreshes the models and thresholds.
//! 4. **Serving at scale** ([`engine`]).  The persistent [`Engine`] owns the
//!    similarity graph, the clustering, and the incrementally maintained
//!    cluster aggregates across rounds, so a steady-state round performs no
//!    full O(E) aggregate rebuild at all — `apply_round(batch)` folds the
//!    operations into all three states at O(degree) per operation and then
//!    runs Algorithm 3 against the maintained aggregate.
//! 5. **Durable serving** ([`durable`]).  The [`DurableEngine`] wraps the
//!    engine with `dc-storage`'s write-ahead log and snapshot subsystem:
//!    rounds are logged before they are applied, checkpoints bound recovery
//!    replay, and a recovered instance is bit-identical to a never-restarted
//!    one.  It is also the durable shard type: inside a sharded engine its
//!    WAL frames are staged and sealed by the sharded commit step.
//! 6. **Sharded serving** ([`shard`]).  The [`ShardedEngine`] partitions
//!    the live objects across N independent engines by their blocking keys
//!    (`dc_similarity::ShardRouter`) and serves each round's sub-batches in
//!    parallel on a scoped-thread pool.  [`ShardedDurableEngine`] is the
//!    same struct over [`DurableEngine`] shards, with one WAL + snapshot
//!    directory per shard and the refinement layer's log beside them.  One
//!    commit step (route, stage every shard's WAL frame, seal with one
//!    group fsync or N+1 classic fsyncs) and one checkpoint serve both
//!    synchronous `apply_round` and the [`pipeline`] coordinator, which
//!    borrows the engine's refiner while it serves.  One shard is
//!    bit-identical to the unsharded engine.
//! 7. **Cross-shard refinement** ([`refine`]).  After the parallel per-shard
//!    rounds, a deterministic boundary pass recovers the cross-shard
//!    similarity edges the partition dropped and repairs the merged
//!    clustering by running the trained merge/split passes — making
//!    multi-shard serving quality-equivalent to the unsharded engine instead
//!    of silently lossy.  Repair is **incremental**: the refiner maintains
//!    the global mirror, boundary index, and aggregates across rounds,
//!    computes each shard pair's cross edges once per pair lifetime, and
//!    restricts the merge/split fixed point to the dirty closure of the
//!    round's changes, partitioned into connected repair regions.  For
//!    objectives whose accept/reject decisions depend on the global score
//!    (declared via [`dc_objective::DecisionLocality`]), recorded rejection
//!    validity intervals keep the restricted fixed point decision-identical
//!    to a full repair.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub(crate) mod dirty;
pub mod durable;
pub mod dynamic;
pub mod engine;
pub mod merge;
pub mod models;
pub mod pipeline;
pub mod refine;
pub mod shard;
pub mod split;
pub mod trainer;

pub use config::{DynamicCConfig, DynamicCStats};
pub use durable::{DurabilityOptions, DurableEngine, RecoveryReport};
pub use dynamic::DynamicC;
pub use engine::{Engine, RoundReport};
pub use models::ModelPair;
pub use pipeline::{
    AdaptiveBatcher, PipelineError, PipelineOptions, PipelineReport, PipelinedEngine,
};
pub use refine::RefineReport;
pub use shard::{
    ShardConfigError, ShardedDurableEngine, ShardedEngine, ShardedRecoveryReport,
    ShardedRoundReport,
};
pub use trainer::{train_on_workload, RoundObservation, TrainingReport};

pub use dc_storage::StorageError;
