//! Algorithm 3 — the conditional mining approach (§5.1).
//!
//! A pattern-growth miner in the FP-growth family, driven entirely by the
//! position-vector encoding:
//!
//! * the conditional database of the highest-ranked unprocessed item `j` is
//!   *exactly* the set of vectors whose cached **sum** equals `j`
//!   (Lemma 4.1.1: the sum is the rank of the last item) — no node links or
//!   header chains as in the FP-tree;
//! * the support of `suffix ∪ {item(j)}` is the total frequency of those
//!   vectors;
//! * each such vector is folded back into the working structure with its
//!   last position removed ("for each vector support D a new vector is
//!   constructed by removing the last position value and inserting this
//!   vector into the proper partition in the original database") so that
//!   the transaction keeps supporting its remaining items;
//! * if the extension is frequent, a **conditional PLT** is built from the
//!   removed-last-position vectors — re-filtered against the minimum
//!   support so the anti-monotone property prunes the recursion — and the
//!   process recurses ("a new conditional database is constructed as long
//!   as the produced itemset is frequent").
//!
//! Items are processed "in reverse lexicographic order", i.e. by descending
//! rank, both at the top level and inside every conditional structure.

use crate::construct::{construct, ConstructOptions};
use crate::item::{Item, Rank, Support};
use crate::miner::{Miner, MiningResult};
use crate::plt::Plt;
use crate::posvec::PositionVector;
use crate::ranking::RankPolicy;

/// The conditional (pattern-growth) miner. The recursion runs on the
/// flat arena layout of [`crate::arena`].
///
/// # Examples
///
/// ```
/// use plt_core::{ConditionalMiner, Miner};
///
/// let db = vec![vec![1, 2], vec![1, 2], vec![2, 3]];
/// let result = ConditionalMiner::default().mine(&db, 2);
/// assert_eq!(result.support(&[1, 2]), Some(2));
/// assert_eq!(result.support(&[2]), Some(3));
/// assert!(!result.contains(&[3])); // support 1 < 2
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ConditionalMiner {
    /// Item-order policy for the underlying PLT.
    pub rank_policy: RankPolicy,
}

impl ConditionalMiner {
    /// Miner with a specific rank policy.
    ///
    /// Prefer constructing miners through `plt-shard`'s `MinerBuilder`,
    /// which configures every engine through one path.
    pub fn with_policy(rank_policy: RankPolicy) -> Self {
        ConditionalMiner { rank_policy }
    }
}

/// The PLT-level entry point: the recursion is reported as a
/// `mine/conditional` span and the result's ordering as `mine/finish`,
/// and the arena flushes its `arena.*` counters into the recorder. The
/// arena's storage is released before the result is ordered, so the two
/// never peak together.
/// (Implemented with a qualified path so the two `mine` methods never
/// collide inside this module.)
impl crate::miner::Mine for ConditionalMiner {
    fn mine(&self, plt: &Plt, obs: &mut plt_obs::Obs) -> MiningResult {
        let t0 = obs.start();
        let mut pool = crate::arena::ArenaPool::new();
        let mut out = MiningResult::builder(plt.min_support(), plt.num_transactions());
        pool.mine_plt(plt, &mut out);
        pool.take_stats().record(obs);
        drop(pool);
        obs.stop("mine/conditional", t0);
        obs.time("mine/finish", || out.finish())
    }
}

impl Miner for ConditionalMiner {
    fn name(&self) -> &'static str {
        "plt-conditional"
    }

    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        let plt = construct(
            transactions,
            min_support,
            ConstructOptions {
                rank_policy: self.rank_policy,
                with_prefixes: false,
            },
        )
        .expect("invalid transaction database");
        crate::miner::Mine::mine_plt(self, &plt)
    }

    fn mine_with_obs(
        &self,
        transactions: &[Vec<Item>],
        min_support: Support,
        obs: &mut plt_obs::Obs,
    ) -> MiningResult {
        let plt = crate::construct::construct_obs(
            transactions,
            min_support,
            ConstructOptions {
                rank_policy: self.rank_policy,
                with_prefixes: false,
            },
            obs,
        )
        .expect("invalid transaction database");
        crate::miner::Mine::mine(self, &plt, obs)
    }
}

/// One step of `Conditional_Construct` exposed for inspection (Figure 5):
/// extracts item `j`'s conditional database from a PLT and returns
/// `(support_of_j, conditional_db, residual_groups)` where
/// `residual_groups` is the PLT after the extraction-and-fold step.
pub fn extract_conditional(plt: &Plt, j: Rank) -> (Support, Vec<(PositionVector, Support)>, Plt) {
    let mut residual = Plt::new(plt.ranking().clone(), plt.min_support())
        .expect("source PLT had valid min support");
    let mut conditional = Vec::new();
    let mut support = 0;
    for (v, e) in plt.iter() {
        if e.sum == j {
            support += e.freq;
            if let Some(prefix) = v.parent() {
                residual.insert_vector(&prefix, e.freq);
                conditional.push((prefix, e.freq));
            }
        } else {
            residual.insert_vector(v, e.freq);
        }
    }
    conditional.sort_by(|a, b| a.0.cmp(&b.0));
    (support, conditional, residual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::BruteForceMiner;
    use crate::topdown::TopDownMiner;
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

    fn pv(p: &[Rank]) -> PositionVector {
        PositionVector::from_positions(p.to_vec()).unwrap()
    }

    #[test]
    fn matches_brute_force_on_table1() {
        let expect = BruteForceMiner.mine(&table1(), 2);
        let got = ConditionalMiner::default().mine(&table1(), 2);
        assert_eq!(got.sorted(), expect.sorted());
        got.check_anti_monotone().unwrap();
    }

    #[test]
    fn figure5_conditional_database_of_d() {
        // §5.1: D has rank 4; its conditional database is built from the
        // vectors with sum 4: ABCD=[1,1,1,1], ABD=[1,1,2], BCD=[2,1,1],
        // CD=[3,1]. Prefixes: ABC=[1,1,1], AB=[1,1], BC=[2,1], C=[3].
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        let (support, cd, residual) = extract_conditional(&plt, 4);
        assert_eq!(support, 4);
        let expect_cd = vec![
            (pv(&[1, 1]), 1),
            (pv(&[1, 1, 1]), 1),
            (pv(&[2, 1]), 1),
            (pv(&[3]), 1),
        ];
        assert_eq!(cd, expect_cd);
        // Residual PLT after fold: [1,1,1]×(2 original + 1 folded),
        // [1,1]×1, [2,1]×1, [3]×1.
        assert_eq!(residual.vector_frequency(&pv(&[1, 1, 1])), 3);
        assert_eq!(residual.vector_frequency(&pv(&[1, 1])), 1);
        assert_eq!(residual.vector_frequency(&pv(&[2, 1])), 1);
        assert_eq!(residual.vector_frequency(&pv(&[3])), 1);
        assert_eq!(residual.num_vectors(), 4);
    }

    #[test]
    fn mine_conditional_matches_full_run_restricted_to_suffix() {
        // Mine D's conditional database with suffix [4]; the output must be
        // exactly the frequent itemsets containing D, minus {D} itself.
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        let (support, cd, _) = extract_conditional(&plt, 4);
        assert_eq!(support, 4);
        let partial = crate::arena::mine_conditional_arena(&cd, &plt, &[4]);
        let full = BruteForceMiner.mine(&table1(), 2);
        let expect: Vec<_> = full
            .sorted()
            .into_iter()
            .filter(|(s, _)| s.contains(3) && s.len() > 1) // item D = 3
            .collect();
        assert_eq!(partial.sorted(), expect);
    }

    #[test]
    fn results_merge() {
        let a = ConditionalMiner::default().mine(&table1(), 2);
        let mut merged = MiningResult::builder(a.min_support(), a.num_transactions());
        merged.extend_from(&a);
        merged.extend_from(&a); // identical supports merge losslessly
        assert_eq!(merged.finish(), a);
    }

    #[test]
    fn recursion_prunes_infrequent_extensions() {
        // In D's conditional database, A appears twice (ABC, AB) and is
        // locally frequent, but in {C,D}'s conditional database A appears
        // once and must be pruned: {A,C,D} (support 1) is never emitted.
        let r = ConditionalMiner::default().mine(&table1(), 2);
        assert!(r.contains(&[2, 3])); // {C,D} support 3
        assert!(r.contains(&[1, 2, 3])); // {B,C,D} support 2
        assert!(!r.contains(&[0, 2, 3])); // {A,C,D} support 1
        assert!(!r.contains(&[0, 1, 2, 3])); // {A,B,C,D} support 1
    }

    #[test]
    fn agrees_with_topdown() {
        let a = ConditionalMiner::default().mine(&table1(), 2);
        let b = TopDownMiner::default().mine(&table1(), 2);
        assert_eq!(a.sorted(), b.sorted());
    }

    #[test]
    fn single_item_transactions() {
        let db = vec![vec![7], vec![7], vec![3]];
        let r = ConditionalMiner::default().mine(&db, 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.support(&[7]), Some(2));
    }

    #[test]
    fn identical_transactions_dedupe_but_count() {
        let db = vec![vec![1, 2, 3]; 5];
        let r = ConditionalMiner::default().mine(&db, 3);
        assert_eq!(r.support(&[1, 2, 3]), Some(5));
        assert_eq!(r.len(), 7);
    }

    #[test]
    fn empty_database() {
        let db: Vec<Vec<Item>> = vec![];
        assert!(ConditionalMiner::default().mine(&db, 1).is_empty());
    }

    #[test]
    fn rank_policy_does_not_change_the_answer() {
        let expect = BruteForceMiner.mine(&table1(), 2);
        for policy in [
            RankPolicy::Lexicographic,
            RankPolicy::FrequencyAscending,
            RankPolicy::FrequencyDescending,
        ] {
            let got = ConditionalMiner::with_policy(policy).mine(&table1(), 2);
            assert_eq!(got.sorted(), expect.sorted(), "policy {policy:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Conditional mining agrees with brute force on random databases.
        #[test]
        fn prop_matches_brute_force(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..15, 1..7),
                1..40,
            ),
            min_support in 1u64..6,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let expect = BruteForceMiner.mine(&db, min_support);
            let got = ConditionalMiner::default().mine(&db, min_support);
            prop_assert_eq!(got.sorted(), expect.sorted());
        }

        /// All three rank policies agree on random databases.
        #[test]
        fn prop_policies_agree(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..10, 1..6),
                1..30,
            ),
            min_support in 1u64..4,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let lex = ConditionalMiner::with_policy(RankPolicy::Lexicographic)
                .mine(&db, min_support);
            let asc = ConditionalMiner::with_policy(RankPolicy::FrequencyAscending)
                .mine(&db, min_support);
            let desc = ConditionalMiner::with_policy(RankPolicy::FrequencyDescending)
                .mine(&db, min_support);
            prop_assert_eq!(lex.sorted(), asc.sorted());
            prop_assert_eq!(asc.sorted(), desc.sorted());
        }
    }
}
