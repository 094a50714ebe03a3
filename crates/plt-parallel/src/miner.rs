//! The parallel PLT miner.
//!
//! Pipeline: parallel construction → one projection pass (flat per-item
//! conditional databases) → per-item tasks on the Rayon pool, each running
//! the sequential conditional miner on its own conditional database →
//! tree-shaped `reduce` of the per-worker result builders → one
//! `finish`. Task `j` emits exactly the frequent itemsets whose
//! highest-ranked item is `j`, so the per-task results partition the
//! answer and the reduce only concatenates.
//!
//! Each worker folds its items through a private [`ArenaPool`], so the
//! arena storage (position buffers, buckets, scratch arrays) is warmed
//! once per worker and reused across every item that worker processes —
//! steady-state mining allocates nothing.

use rayon::prelude::*;

use plt_core::arena::{ArenaPool, MineStats};
use plt_core::construct::ConstructOptions;
use plt_core::item::{Item, Rank, Support};
use plt_core::miner::{Miner, MiningResult};
use plt_core::plt::Plt;
use plt_core::ranking::RankPolicy;

use crate::construct::par_construct;
use crate::projection::project_all;

/// Parallel conditional PLT miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelPltMiner {
    /// Item-order policy for the underlying PLT.
    pub rank_policy: RankPolicy,
}

impl ParallelPltMiner {
    /// Miner with a specific rank policy.
    ///
    /// Prefer constructing miners through `plt-shard`'s `MinerBuilder`,
    /// which configures every engine through one path.
    pub fn with_policy(rank_policy: RankPolicy) -> Self {
        ParallelPltMiner { rank_policy }
    }
}

/// The PLT-level entry point: the projection pass, the fan-out and the
/// result's ordering are reported as `mine/project`, `mine/items` and
/// `mine/finish` spans, and the per-worker arena counters are merged at
/// reduce time and flushed into the recorder (with a `parallel.workers`
/// gauge for the pool width). The projections are released before the
/// result is ordered.
impl plt_core::miner::Mine for ParallelPltMiner {
    fn mine(&self, plt: &Plt, obs: &mut plt_obs::Obs) -> MiningResult {
        let projections = obs.time("mine/project", || project_all(plt));
        let n = plt.ranking().len() as Rank;
        let empty = || MiningResult::builder(plt.min_support(), plt.num_transactions());
        let t0 = obs.start();
        let (out, stats) = (1..=n)
            .into_par_iter()
            // Per-worker fold: the (pool, local-builder) accumulator lives
            // on one worker for its whole run of items, so every item it
            // mines reuses the same warmed arena storage and pushes into
            // the same builder.
            .fold(
                || (ArenaPool::new(), empty()),
                |(mut pool, mut local), j| {
                    let support = projections.support(j);
                    if support >= plt.min_support() {
                        local.push([plt.ranking().item(j)], support);
                        let cd = projections.conditional(j);
                        if !cd.is_empty() {
                            pool.mine_conditional(cd.iter(), plt, &[j], &mut local);
                        }
                    }
                    (pool, local)
                },
            )
            // The pool hands its accumulated engine counters over as the
            // worker's fold state retires.
            .map(|(mut pool, local)| (local, pool.take_stats()))
            // Tree-shaped concatenation on the pool instead of a
            // sequential loop on the calling thread.
            .reduce(
                || (empty(), MineStats::default()),
                |(mut a, mut sa), (b, sb)| {
                    a.append(b);
                    sa.merge(&sb);
                    (a, sa)
                },
            );
        drop(projections);
        obs.stop("mine/items", t0);
        stats.record(obs);
        obs.gauge("parallel.workers", rayon::current_num_threads() as u64);
        obs.time("mine/finish", || out.finish())
    }
}

impl Miner for ParallelPltMiner {
    fn name(&self) -> &'static str {
        "plt-parallel"
    }

    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        let plt = par_construct(
            transactions,
            min_support,
            ConstructOptions {
                rank_policy: self.rank_policy,
                with_prefixes: false,
            },
        )
        .expect("invalid transaction database");
        plt_core::miner::Mine::mine_plt(self, &plt)
    }

    fn mine_with_obs(
        &self,
        transactions: &[Vec<Item>],
        min_support: Support,
        obs: &mut plt_obs::Obs,
    ) -> MiningResult {
        let t0 = obs.start();
        let plt = par_construct(
            transactions,
            min_support,
            ConstructOptions {
                rank_policy: self.rank_policy,
                with_prefixes: false,
            },
        )
        .expect("invalid transaction database");
        obs.stop("construct/parallel", t0);
        plt_core::miner::Mine::mine(self, &plt, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_core::conditional::ConditionalMiner;
    use plt_core::miner::BruteForceMiner;
    use proptest::prelude::*;

    fn table1() -> Vec<Vec<Item>> {
        vec![
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1, 2, 3],
            vec![0, 1, 3, 4],
            vec![1, 2, 3],
            vec![2, 3, 5],
        ]
    }

    #[test]
    fn matches_sequential_conditional_miner() {
        let seq = ConditionalMiner::default().mine(&table1(), 2);
        let par = ParallelPltMiner::default().mine(&table1(), 2);
        assert_eq!(par.sorted(), seq.sorted());
    }

    #[test]
    fn single_thread_pool_matches_too() {
        let seq = ConditionalMiner::default().mine(&table1(), 2);
        let par = crate::run_with_threads(1, || ParallelPltMiner::default().mine(&table1(), 2));
        assert_eq!(par.sorted(), seq.sorted());
    }

    #[test]
    fn per_worker_stats_merge_into_recorder() {
        let mut rec = plt_obs::MetricsRecorder::new();
        let miner = ParallelPltMiner::default();
        let with_obs = miner.mine_with_obs(&table1(), 2, &mut plt_obs::Obs::new(&mut rec));
        assert_eq!(with_obs.sorted(), miner.mine(&table1(), 2).sorted());
        assert_eq!(rec.span_count("mine/project"), 1);
        assert_eq!(rec.span_count("mine/items"), 1);
        assert!(rec.gauge_value("parallel.workers") >= 1);
        // Table 1's conditional databases hold several vectors over a few
        // ranks each, so the superset-sum finish takes them and the
        // merged per-worker arena counters must show it.
        assert!(rec.counter_value("arena.subset_sum_finishes") > 0);
        assert!(rec.gauge_value("arena.bytes_peak") > 0);
    }

    #[test]
    fn empty_and_infrequent() {
        assert!(ParallelPltMiner::default().mine(&[], 1).is_empty());
        assert!(ParallelPltMiner::default().mine(&table1(), 10).is_empty());
    }

    #[test]
    fn larger_synthetic_agreement() {
        // A few thousand structured transactions; parallel result must be
        // identical to sequential.
        let db: Vec<Vec<Item>> = (0..4_000u32)
            .map(|i| {
                let mut t = vec![i % 11, 11 + (i % 7), 18 + (i % 5)];
                if i % 3 == 0 {
                    t.push(23 + (i % 2));
                }
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect();
        let seq = ConditionalMiner::default().mine(&db, 100);
        let par = ParallelPltMiner::default().mine(&db, 100);
        assert_eq!(par.sorted(), seq.sorted());
        assert!(!par.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Parallel mining agrees with brute force on random databases.
        #[test]
        fn prop_matches_brute_force(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..14, 1..7),
                1..40,
            ),
            min_support in 1u64..5,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let expect = BruteForceMiner.mine(&db, min_support);
            let got = ParallelPltMiner::default().mine(&db, min_support);
            prop_assert_eq!(got.sorted(), expect.sorted());
        }
    }
}
