//! Algorithm 2 — the top-down mining approach (§5, "The Top down
//! Approach").
//!
//! Starting from the longest vectors, the frequency of every vector is
//! propagated to all of its subset vectors, so that afterwards "the database
//! contains all the frequencies of all the subsets that may be presented in
//! the database" (the state Figure 4 depicts). The paper is explicit that
//! this approach ignores the anti-monotone property and is therefore suited
//! to *very low* minimum supports on dense data (§6).
//!
//! ## Canonical derivation discipline
//!
//! The paper's shifting scheme ("considering the last two positions … then
//! one shift to the left"; "any vector that does not have enough space for
//! shifting has already gone through the mining process") exists to ensure
//! each subset inherits each transaction's frequency **exactly once**. We
//! realise the same guarantee explicitly:
//!
//! * every subset of an itemset corresponds bijectively to a pair
//!   *(prefix length, set of merge cuts)* — drop a suffix of the vector,
//!   then replace chosen consecutive runs by their sums (Lemma 4.1.3
//!   generalised);
//! * prefix drops are applied at seeding time (the paper folds them into
//!   construction — `ConstructOptions::top_down`);
//! * merge cuts are applied in strictly **decreasing** cut order. Each
//!   in-flight vector carries the bound below which it may still merge, so
//!   every (prefix, cut-set) pair is generated along exactly one path and
//!   frequency inheritance (`V′.freq += V.freq` on partially accumulated
//!   values) is sound — this is dynamic programming over the subset
//!   lattice, which is precisely the efficiency the paper claims over
//!   re-deriving every subset from every transaction.

use crate::construct::{construct, ConstructOptions};
use crate::hash::FxHashMap;
use crate::item::{Item, Support};
use crate::miner::{Miner, MiningResult};
use crate::plt::Plt;
use crate::posvec::{PositionVector, Positions};
use crate::ranking::RankPolicy;

/// Complete subset-support table: the "database after the top-down
/// approach" of Figure 4.
#[derive(Debug, Clone, Default)]
pub struct AllSubsetSupports {
    supports: FxHashMap<PositionVector, Support>,
}

impl AllSubsetSupports {
    /// Support of the itemset encoded by `vector` (0 if it never occurs).
    pub fn support(&self, vector: &Positions) -> Support {
        self.supports.get(vector).copied().unwrap_or(0)
    }

    /// Number of distinct itemsets occurring in the database.
    pub fn len(&self) -> usize {
        self.supports.len()
    }

    /// True when the database was empty.
    pub fn is_empty(&self) -> bool {
        self.supports.is_empty()
    }

    /// Iterates over every `(vector, support)` pair.
    pub fn iter(&self) -> impl Iterator<Item = (&PositionVector, Support)> {
        self.supports.iter().map(|(k, &v)| (k, v))
    }

    /// Materialises the table as a [`Plt`] (vectors re-partitioned by
    /// length) — the exact artefact Figure 4 shows. The returned PLT reuses
    /// `plt`'s ranking and bookkeeping.
    pub fn as_plt(&self, plt: &Plt) -> Plt {
        let mut out = Plt::new(plt.ranking().clone(), plt.min_support())
            .expect("source PLT had valid min support");
        for (v, s) in self.iter() {
            out.insert_vector(v, s);
        }
        out
    }
}

/// Runs the top-down propagation over a PLT built **without** prefix
/// insertion, returning the support of every itemset present in the
/// database.
///
/// Exponential in the maximum transaction length (it enumerates the subset
/// lattice); callers are expected to bound transaction length — the
/// [`TopDownMiner`] enforces a limit.
pub fn all_subset_supports(plt: &Plt) -> AllSubsetSupports {
    // levels[k − 1]: in-flight vectors of length k, keyed by
    // (vector, merge bound): value = accumulated inherited frequency.
    // A merge bound of b permits merges at 0-based indices < b.
    let mut levels: Vec<FxHashMap<(PositionVector, u32), Support>> = Vec::new();

    // Seeding: every stored vector contributes each of its prefixes with
    // full merge freedom (the paper's part A, folded into construction).
    for (v, e) in plt.iter() {
        let ranks = v.ranks();
        if levels.len() < ranks.len() {
            levels.resize_with(ranks.len(), FxHashMap::default);
        }
        for end in 1..=ranks.len() {
            let prefix = PositionVector::from_ranks(&ranks[..end]).expect("valid prefix");
            let bound = (end - 1) as u32;
            *levels[end - 1].entry((prefix, bound)).or_insert(0) += e.freq;
        }
    }
    let max_len = levels.len();

    let mut supports: FxHashMap<PositionVector, Support> = FxHashMap::default();
    for k in (1..=max_len).rev() {
        let level = std::mem::take(&mut levels[k - 1]);
        for ((v, bound), freq) in level {
            *supports.entry(v.clone()).or_insert(0) += freq;
            for cut in 0..bound as usize {
                let child = v.merged_at(cut);
                *levels[k - 2].entry((child, cut as u32)).or_insert(0) += freq;
            }
        }
    }
    AllSubsetSupports { supports }
}

/// Reference implementation for the ablation in experiment X4: enumerate
/// every subset of every source vector directly (no inheritance). Same
/// output as [`all_subset_supports`], asymptotically more work per distinct
/// subset when vectors share structure.
pub fn all_subset_supports_naive(plt: &Plt) -> AllSubsetSupports {
    let mut supports: FxHashMap<PositionVector, Support> = FxHashMap::default();
    for (v, e) in plt.iter() {
        for sub in v.subset_vectors() {
            *supports.entry(sub).or_insert(0) += e.freq;
        }
    }
    AllSubsetSupports { supports }
}

/// The top-down miner: construct a PLT, propagate all subset frequencies,
/// filter by minimum support.
#[derive(Debug, Clone, Copy)]
pub struct TopDownMiner {
    /// Item-order policy for the underlying PLT.
    pub rank_policy: RankPolicy,
    /// Guard against the subset-lattice blow-up: transactions with more
    /// frequent items than this panic rather than silently consuming all
    /// memory. The paper positions top-down for short dense transactions.
    pub max_transaction_len: usize,
}

impl Default for TopDownMiner {
    fn default() -> Self {
        TopDownMiner {
            rank_policy: RankPolicy::Lexicographic,
            max_transaction_len: 24,
        }
    }
}

impl TopDownMiner {
    /// Miner with a specific rank policy.
    ///
    /// Prefer constructing miners through `plt-shard`'s `MinerBuilder`,
    /// which configures every engine through one path.
    pub fn with_policy(rank_policy: RankPolicy) -> Self {
        TopDownMiner {
            rank_policy,
            ..Default::default()
        }
    }
}

/// The PLT-level entry point: the propagation and the support filter are
/// reported as `mine/topdown/propagate` and `mine/topdown/filter` spans,
/// the result's ordering as `mine/finish`, plus a gauge for the table size.
impl crate::miner::Mine for TopDownMiner {
    fn mine(&self, plt: &Plt, obs: &mut plt_obs::Obs) -> MiningResult {
        assert!(
            plt.max_len() <= self.max_transaction_len,
            "top-down mining would enumerate 2^{} subsets; raise \
             max_transaction_len explicitly if this is intended",
            plt.max_len()
        );
        let table = obs.time("mine/topdown/propagate", || all_subset_supports(plt));
        obs.gauge("topdown.table_entries", table.len() as u64);
        let t0 = obs.start();
        let ranking = plt.ranking();
        let mut out = MiningResult::builder(plt.min_support(), plt.num_transactions());
        for (v, support) in table.iter() {
            if support >= plt.min_support() {
                out.push(v.ranks_iter().map(|r| ranking.item(r)), support);
            }
        }
        obs.stop("mine/topdown/filter", t0);
        obs.time("mine/finish", || out.finish())
    }
}

impl Miner for TopDownMiner {
    fn name(&self) -> &'static str {
        "plt-topdown"
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Rank;
    use crate::miner::BruteForceMiner;
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
    fn figure4_all_subset_supports_on_table1() {
        // Ground truth from DESIGN.md E-F4 (supports of all 15 itemsets
        // over {A,B,C,D} present in the filtered database).
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        let t = all_subset_supports(&plt);
        let expect: &[(&[Rank], Support)] = &[
            (&[1], 4),          // A
            (&[2], 5),          // B
            (&[3], 5),          // C
            (&[4], 4),          // D
            (&[1, 1], 4),       // AB
            (&[1, 2], 3),       // AC
            (&[1, 3], 2),       // AD
            (&[2, 1], 4),       // BC
            (&[2, 2], 3),       // BD
            (&[3, 1], 3),       // CD
            (&[1, 1, 1], 3),    // ABC
            (&[1, 1, 2], 2),    // ABD
            (&[1, 2, 1], 1),    // ACD
            (&[2, 1, 1], 2),    // BCD
            (&[1, 1, 1, 1], 1), // ABCD
        ];
        assert_eq!(t.len(), expect.len());
        for &(positions, support) in expect {
            assert_eq!(t.support(&pv(positions)), support, "vector {positions:?}");
        }
    }

    #[test]
    fn naive_and_canonical_agree() {
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        let a = all_subset_supports(&plt);
        let b = all_subset_supports_naive(&plt);
        assert_eq!(a.len(), b.len());
        for (v, s) in a.iter() {
            assert_eq!(b.support(v), s);
        }
    }

    #[test]
    fn miner_matches_brute_force_on_table1() {
        let expect = BruteForceMiner.mine(&table1(), 2);
        let got = TopDownMiner::default().mine(&table1(), 2);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn miner_matches_brute_force_at_min_support_one() {
        // min_support 1 keeps E and F frequent too.
        let expect = BruteForceMiner.mine(&table1(), 1);
        let got = TopDownMiner::default().mine(&table1(), 1);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn as_plt_renders_figure4() {
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        let table = all_subset_supports(&plt);
        let fig4 = table.as_plt(&plt);
        assert_eq!(fig4.num_vectors(), 15);
        assert_eq!(fig4.vector_frequency(&pv(&[1, 1])), 4);
        let rendered = fig4.render_matrices();
        assert!(rendered.contains("D_1:"));
        assert!(rendered.contains("[1,2,1]  sum=4  freq=1"));
    }

    #[test]
    fn rank_policy_does_not_change_the_answer() {
        for policy in [
            RankPolicy::Lexicographic,
            RankPolicy::FrequencyAscending,
            RankPolicy::FrequencyDescending,
        ] {
            let got = TopDownMiner::with_policy(policy).mine(&table1(), 2);
            let expect = BruteForceMiner.mine(&table1(), 2);
            assert_eq!(got.sorted(), expect.sorted(), "policy {policy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "2^")]
    fn long_transactions_are_rejected() {
        let t: Vec<Item> = (0..30).collect();
        let db = vec![t.clone(), t];
        TopDownMiner::default().mine(&db, 2);
    }

    #[test]
    fn empty_database() {
        let db: Vec<Vec<Item>> = vec![];
        let r = TopDownMiner::default().mine(&db, 1);
        assert!(r.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Top-down mining agrees with brute force on random databases.
        #[test]
        fn prop_matches_brute_force(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..12, 1..6),
                1..40,
            ),
            min_support in 1u64..5,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let expect = BruteForceMiner.mine(&db, min_support);
            let got = TopDownMiner::default().mine(&db, min_support);
            prop_assert_eq!(got.sorted(), expect.sorted());
        }

        /// The all-subsets table equals the naive enumeration on random
        /// databases (canonical-discipline uniqueness).
        #[test]
        fn prop_canonical_equals_naive(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..10, 1..6),
                1..25,
            ),
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let plt = construct(&db, 1, ConstructOptions::conditional()).unwrap();
            let a = all_subset_supports(&plt);
            let b = all_subset_supports_naive(&plt);
            prop_assert_eq!(a.len(), b.len());
            for (v, s) in a.iter() {
                prop_assert_eq!(b.support(v), s);
            }
        }
    }
}
