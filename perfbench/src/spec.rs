//! The two workloads: their inputs, serving configuration, and loop.
//!
//! The program only ever sees the generated operations.  Each family has one
//! fixed corpus, as the paper has fixed datasets, and one fixed training
//! prefix: the records live at the start and the snapshots the trainer
//! replays.  Set-up therefore does the same work on every seed, and the
//! models are the same.  The seed draws the served snapshots: which records
//! are added, removed, and updated, in which order.  The inputs are a pure
//! function of the seed.

use dc_batch::{BatchClusterer, HillClimbing};
use dc_datagen::numeric::jitter_record;
use dc_datagen::textual::corrupt_record;
use dc_datagen::{AccessLikeGenerator, DynamicWorkload, FebrlLikeGenerator, WorkloadConfig};
use dc_objective::{CorrelationObjective, DbIndexObjective, ObjectiveFunction};
use dc_similarity::measures::CompositeMeasure;
use dc_similarity::{GraphConfig, TokenBlocking};
use dc_types::{Dataset, ObjectId, Operation, OperationBatch, Record, RecordKind, Snapshot};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How the single submitter thread drives the pipeline.
#[derive(Debug, Clone, Copy)]
pub enum Loop {
    /// Submit the whole stream as fast as admission allows, then flush once.
    Burst,
    /// Closed loop: submit one snapshot's operations, flush, repeat.
    Closed,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Seed used when `--seed` is not given.
    pub default_seed: u64,
    /// A second seed, kept out of tuning, to re-check claims on.
    pub held_out_seed: u64,
    /// How the load is applied.
    pub load: Loop,
    /// Number of shards the engine is opened with.
    pub shards: usize,
    /// Consecutive jobs whose client rounds are pooled for one round-tail
    /// sample.  Jobs serve a fixed number of rounds, so the pool's size,
    /// and the rank its tail is read at, do not depend on how fast the
    /// program is.
    pub round_pool: usize,
    family: Family,
}

#[derive(Debug, Clone, Copy)]
enum Family {
    Febrl,
    Access,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 2] = [
    // A batch job over two shards: few large rounds, cross-shard refinement
    // is the serial tail.
    Workload {
        name: "febrl-burst",
        default_seed: 11,
        held_out_seed: 12,
        load: Loop::Burst,
        shards: 2,
        // One round a job: a pool of a hundred jobs would not fit in a
        // run, so each job is its own pool and the tail is its one round.
        round_pool: 1,
        family: Family::Febrl,
    },
    // The paper's per-round latency on one shard: no refinement, cheap
    // similarity, expensive verification, and the split path.
    Workload {
        name: "access-churn",
        default_seed: 31,
        held_out_seed: 32,
        load: Loop::Closed,
        shards: 1,
        // 3 x 40 rounds: enough for an exact p90 with ten rounds beyond it.
        round_pool: 3,
        family: Family::Access,
    },
];

/// Seed of the fixed Febrl-like corpus.
const FEBRL_CORPUS_SEED: u64 = 0xFEB1;

/// Seed of the fixed Access-like corpus.
const ACCESS_CORPUS_SEED: u64 = 0xACCE55;

/// Seed of the fixed initial records and training snapshots.
const TRAINING_MIX_SEED: u64 = 0x7EA1;

/// Leading snapshots replayed by the trainer during set-up; the rest are
/// served.
pub const TRAIN_SNAPSHOTS: usize = 2;

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    fn corpus(&self) -> Dataset {
        match self.family {
            Family::Febrl => FebrlLikeGenerator {
                originals: 300,
                duplicates_per_original: 1.8,
                seed: FEBRL_CORPUS_SEED,
                ..FebrlLikeGenerator::default()
            }
            .generate(),
            Family::Access => AccessLikeGenerator {
                clusters: 60,
                points_per_cluster: 40,
                seed: ACCESS_CORPUS_SEED,
                ..AccessLikeGenerator::default()
            }
            .generate(),
        }
    }

    /// The operation mix; `snapshots` counts the training snapshots and the
    /// served ones.
    fn mix(&self) -> WorkloadConfig {
        match self.family {
            Family::Febrl => WorkloadConfig {
                initial_fraction: 0.35,
                snapshots: TRAIN_SNAPSHOTS + 6,
                ..WorkloadConfig::default()
            },
            Family::Access => WorkloadConfig {
                initial_fraction: 0.5,
                snapshots: TRAIN_SNAPSHOTS + 40,
                add_fraction: 0.03,
                remove_fraction: 0.04,
                update_fraction: 0.12,
                ..WorkloadConfig::default()
            },
        }
    }

    /// Generate the workload's inputs: the fixed initial records and
    /// training snapshots, then served snapshots drawn from `seed`.
    pub fn generate(&self, seed: u64) -> DynamicWorkload {
        let corpus = self.corpus();
        let mix = self.mix();
        let mut workload = DynamicWorkload::generate(
            &corpus,
            WorkloadConfig {
                snapshots: TRAIN_SNAPSHOTS,
                seed: TRAINING_MIX_SEED,
                ..mix
            },
        );
        let mut current: BTreeMap<ObjectId, Record> = workload
            .final_dataset()
            .iter()
            .map(|(id, r)| (id, r.clone()))
            .collect();
        let mut inserted: BTreeSet<ObjectId> = workload.initial.ids().into_iter().collect();
        for snapshot in &workload.snapshots {
            inserted.extend(snapshot.batch.iter().map(Operation::object_id));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pending: Vec<ObjectId> = corpus
            .ids()
            .into_iter()
            .filter(|id| !inserted.contains(id))
            .collect();
        pending.shuffle(&mut rng);
        let mut live: Vec<ObjectId> = current.keys().copied().collect();
        // The served snapshots follow dc-datagen's per-snapshot recipe: adds
        // of never-seen records, then removes and updates of live ones, each
        // a fraction of the live count.
        for index in TRAIN_SNAPSHOTS + 1..=mix.snapshots {
            let count = |fraction: f64| (live.len().max(1) as f64 * fraction).round() as usize;
            let (n_add, n_remove, n_update) = (
                count(mix.add_fraction).min(pending.len()),
                count(mix.remove_fraction).min(live.len()),
                count(mix.update_fraction).min(live.len()),
            );
            let mut batch = OperationBatch::new();
            for id in pending.drain(pending.len() - n_add..) {
                let record = corpus.record(id).cloned().expect("corpus id");
                current.insert(id, record.clone());
                live.push(id);
                batch.push(Operation::Add { id, record });
            }
            live.shuffle(&mut rng);
            for id in live.drain(live.len() - n_remove..) {
                current.remove(&id);
                batch.push(Operation::Remove { id });
            }
            live.shuffle(&mut rng);
            for &id in live.iter().take(n_update) {
                let record = current.get(&id).expect("live record");
                let updated = match record.kind() {
                    RecordKind::Numeric => jitter_record(record, mix.update_jitter, &mut rng),
                    RecordKind::Textual | RecordKind::Mixed => {
                        corrupt_record(record, mix.update_typos, &mut rng)
                    }
                };
                current.insert(id, updated.clone());
                batch.push(Operation::Update {
                    id,
                    record: updated,
                });
            }
            workload.snapshots.push(Snapshot::new(index, batch));
        }
        workload
    }

    /// A fresh similarity-graph configuration (configs own boxed strategies
    /// and are rebuilt per use).
    pub fn graph_config(&self) -> GraphConfig {
        match self.family {
            // Exact token blocking: no stop-word cutoff, so candidate pairs
            // do not depend on how records are spread over shards.
            Family::Febrl => GraphConfig::new(
                Box::new(CompositeMeasure::febrl_default()),
                Box::new(TokenBlocking::new(0)),
                0.6,
            ),
            Family::Access => GraphConfig::numeric_euclidean(1.8, 4.0, 3, 0.25),
        }
    }

    /// The objective used for search and verification.
    pub fn objective(&self) -> Arc<dyn ObjectiveFunction> {
        match self.family {
            Family::Febrl => Arc::new(DbIndexObjective),
            Family::Access => Arc::new(CorrelationObjective),
        }
    }

    /// The batch algorithm the trainer observes.
    pub fn batch(&self) -> Box<dyn BatchClusterer> {
        Box::new(HillClimbing::with_objective(self.objective()))
    }

    /// The served snapshots' operations, grouped by snapshot.
    pub fn served_rounds(workload: &DynamicWorkload) -> Vec<Vec<Operation>> {
        workload.snapshots[TRAIN_SNAPSHOTS..]
            .iter()
            .map(|s| s.batch.iter().cloned().collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let w = find("access-churn").expect("known workload");
        let a = Workload::served_rounds(&w.generate(5));
        let b = Workload::served_rounds(&w.generate(5));
        let c = Workload::served_rounds(&w.generate(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn training_prefix_is_fixed_and_the_stream_replays() {
        for w in WORKLOADS {
            let a = w.generate(1);
            let b = w.generate(2);
            assert_eq!(a.initial.ids(), b.initial.ids());
            assert_eq!(
                a.snapshots[..TRAIN_SNAPSHOTS],
                b.snapshots[..TRAIN_SNAPSHOTS]
            );
            assert_ne!(Workload::served_rounds(&a), Workload::served_rounds(&b));
            // Replaying every snapshot must succeed: no op targets a dead id.
            assert!(!a.final_dataset().is_empty());
        }
    }

    #[test]
    fn round_pools_have_a_fixed_size() {
        let churn = find("access-churn").expect("known workload");
        let rounds = Workload::served_rounds(&churn.generate(1)).len();
        let pooled = churn.round_pool * rounds;
        assert_eq!(
            crate::stats::tail_index(pooled, 90.0),
            (pooled * 9).div_ceil(10) - 1,
            "the churn round p90 is exact"
        );
        let burst = find("febrl-burst").expect("known workload");
        assert_eq!(burst.round_pool, 1);
    }

    #[test]
    fn seeds_are_distinct_across_workloads() {
        let mut seeds: Vec<u64> = WORKLOADS
            .iter()
            .flat_map(|w| [w.default_seed, w.held_out_seed])
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 2 * WORKLOADS.len());
    }
}
