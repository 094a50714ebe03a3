//! Differential suite for the arena conditional engine: on random and
//! generated databases, the arena path must produce the *exact* frequent
//! family (itemsets and supports) of the top-down miner, FP-growth, Eclat
//! and — where the database is small enough — brute force, sequentially, in
//! parallel, per item projection, and under pool reuse. Both level
//! representations run: rank masks for databases with at most 64
//! frequent ranks, positions above that.

use std::collections::BTreeSet;

use plt::baselines::{EclatMiner, FpGrowthMiner};
use plt::core::construct::{construct, ConstructOptions};
use plt::core::miner::{BruteForceMiner, Miner, MiningResult};
use plt::core::subset::{NaiveChecker, SubsetChecker};
use plt::data::{DenseConfig, DenseGenerator, QuestConfig, QuestGenerator};
use plt::parallel::{project_all, ParallelPltMiner};
use plt::{ArenaPool, ConditionalMiner, PositionVector, RankPolicy, TopDownMiner};
use proptest::prelude::*;

/// Brute force enumerates every subset of every transaction; past this
/// many subsets in total it is left out of the reference set.
const BRUTE_FORCE_BUDGET: u64 = 1 << 18;

/// Everything that must agree with the arena engine on `db`.
fn references(db: &[Vec<u32>]) -> Vec<Box<dyn Miner>> {
    let mut miners: Vec<Box<dyn Miner>> = vec![
        Box::new(TopDownMiner::default()),
        Box::new(FpGrowthMiner),
        Box::new(EclatMiner::default()),
    ];
    let subsets = db
        .iter()
        .fold(0u64, |n, t| n.saturating_add(1 << t.len().min(63)));
    if subsets <= BRUTE_FORCE_BUDGET {
        miners.push(Box::new(BruteForceMiner));
    }
    miners
}

fn assert_arena_agrees(db: &[Vec<u32>], min_support: u64, label: &str) {
    let arena = ConditionalMiner::default().mine(db, min_support);
    arena
        .check_anti_monotone()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let expect = arena.sorted();
    for miner in references(db) {
        assert_eq!(
            miner.mine(db, min_support).sorted(),
            expect,
            "{label}: arena disagrees with {}",
            miner.name()
        );
    }
    let par = ParallelPltMiner::default().mine(db, min_support);
    assert_eq!(par.sorted(), expect, "{label}: parallel arena disagrees");
}

#[test]
fn arena_agrees_on_sparse_quest_data() {
    let db = QuestGenerator::new(QuestConfig::t5i2(700))
        .generate()
        .into_transactions();
    assert_arena_agrees(&db, 7, "quest 1%");
    assert_arena_agrees(&db, 35, "quest 5%");
}

#[test]
fn arena_agrees_on_dense_data() {
    let db = DenseGenerator::new(DenseConfig {
        num_transactions: 350,
        num_items: 12,
        density_hi: 0.85,
        density_lo: 0.2,
        seed: 0xa12e,
    })
    .generate()
    .into_transactions();
    assert_arena_agrees(&db, 175, "dense 50%");
    assert_arena_agrees(&db, 70, "dense 20%");
    assert_arena_agrees(&db, 35, "dense 10%");
}

#[test]
fn arena_agrees_under_every_rank_policy() {
    let db = QuestGenerator::new(QuestConfig::t5i2(400))
        .generate()
        .into_transactions();
    for policy in [
        RankPolicy::Lexicographic,
        RankPolicy::FrequencyAscending,
        RankPolicy::FrequencyDescending,
    ] {
        let arena = ConditionalMiner::with_policy(policy).mine(&db, 8).sorted();
        assert_eq!(
            arena,
            TopDownMiner::with_policy(policy).mine(&db, 8).sorted(),
            "{policy:?}"
        );
        assert_eq!(arena, FpGrowthMiner.mine(&db, 8).sorted(), "{policy:?}");
    }
}

/// Most frequent ranks a database may keep and still be mined as masks.
const MASK_BITS: u32 = 64;

/// One `mine_plt` call on `pool`, finished.
fn pool_mine(pool: &mut ArenaPool, plt: &plt::Plt) -> MiningResult {
    let mut out = MiningResult::builder(plt.min_support(), plt.num_transactions());
    pool.mine_plt(plt, &mut out);
    out.finish()
}

/// Mines `db` on a fresh pool, checks it against every reference, and
/// returns how many databases the pool mined as masks.
fn mask_levels_of(db: &[Vec<u32>], min_support: u64, label: &str) -> u64 {
    assert_arena_agrees(db, min_support, label);
    let plt = construct(db, min_support, ConstructOptions::conditional()).unwrap();
    let mut pool = ArenaPool::new();
    assert_eq!(
        pool_mine(&mut pool, &plt).sorted(),
        FpGrowthMiner.mine(db, min_support).sorted(),
        "{label}"
    );
    pool.stats().mask_levels
}

#[test]
fn root_with_64_frequent_items_is_masked_and_with_65_is_not() {
    // `n` items, each frequent on its own (twice at min_support 2), plus
    // {0, 1, n-1} twice. Below the root two conditional databases are
    // non-empty, and both are masks at either width: the one of item n-1
    // ({0, 1}) and the one of item 1 ({0}). So the root is the
    // difference.
    for n in [MASK_BITS, MASK_BITS + 1] {
        let mut db: Vec<Vec<u32>> = (0..n).flat_map(|i| [vec![i], vec![i]]).collect();
        db.extend([vec![0, 1, n - 1], vec![0, 1, n - 1]]);
        let root_masked = u64::from(n <= MASK_BITS);
        assert_eq!(
            mask_levels_of(&db, 2, &format!("root of {n}")),
            2 + root_masked,
            "{n} frequent items"
        );
    }
}

#[test]
fn conditional_database_with_64_frequent_ranks_is_masked_and_with_65_is_not() {
    // Item T co-occurs twice with each of `m` items and twice with
    // {0, 1}: the root keeps m + 1 > 64 ranks (positions), and T's
    // conditional database keeps exactly m. Two more conditional
    // databases are non-empty, and both are one-rank masks: {0} under
    // {1, T}, and {0} under {1}.
    const T: u32 = 1_000;
    for m in [MASK_BITS, MASK_BITS + 1] {
        let mut db: Vec<Vec<u32>> = (0..m).flat_map(|i| [vec![i, T], vec![i, T]]).collect();
        db.extend([vec![0, 1, T], vec![0, 1, T]]);
        let cd_masked = u64::from(m <= MASK_BITS);
        assert_eq!(
            mask_levels_of(&db, 2, &format!("CD of {m}")),
            2 + cd_masked,
            "{m} locally frequent ranks"
        );
    }
}

#[test]
fn one_pool_across_heterogeneous_databases() {
    // The parallel workers reuse one pool across many conditional
    // databases; mimic that lifecycle across whole PLTs of very different
    // shapes, masked roots alternating with position roots, and make sure
    // no state leaks between runs.
    let mut pool = ArenaPool::new();
    let sparse = QuestGenerator::new(QuestConfig::t5i2(300))
        .generate()
        .into_transactions();
    let wide = QuestGenerator::new(QuestConfig {
        num_items: 300,
        num_patterns: 300,
        ..QuestConfig::t5i2(400)
    })
    .generate()
    .into_transactions();
    let dense = DenseGenerator::new(DenseConfig {
        num_transactions: 200,
        num_items: 10,
        density_hi: 0.9,
        density_lo: 0.3,
        seed: 7,
    })
    .generate()
    .into_transactions();
    // [masked roots, position roots]
    let mut roots = [0; 2];
    for db in [&sparse, &wide, &dense, &wide, &sparse, &dense] {
        for min_support in [3u64, 20, 60] {
            let plt = construct(db, min_support, ConstructOptions::conditional()).unwrap();
            roots[usize::from(plt.ranking().len() > MASK_BITS as usize)] += 1;
            let reused = pool_mine(&mut pool, &plt).sorted();
            let fresh = pool_mine(&mut ArenaPool::new(), &plt).sorted();
            assert_eq!(reused, fresh, "min_support {min_support}");
            let fp = FpGrowthMiner.mine(db, min_support).sorted();
            assert_eq!(reused, fp, "min_support {min_support}");
        }
    }
    assert!(roots[0] > 0 && roots[1] > 0, "{roots:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random sparse-ish databases: wide universe, short transactions.
    #[test]
    fn prop_arena_matches_references_sparse(
        db in proptest::collection::vec(
            proptest::collection::btree_set(0u32..40, 1..8),
            1..50,
        ),
        min_support in 1u64..5,
    ) {
        let db: Vec<Vec<u32>> = db.into_iter().map(|t| t.into_iter().collect()).collect();
        assert_arena_agrees(&db, min_support, "prop sparse");
    }

    /// Random dense databases: narrow universe, long transactions.
    #[test]
    fn prop_arena_matches_references_dense(
        db in proptest::collection::vec(
            proptest::collection::btree_set(0u32..9, 2..9),
            1..40,
        ),
        min_support in 1u64..6,
    ) {
        let db: Vec<Vec<u32>> = db.into_iter().map(|t| t.into_iter().collect()).collect();
        assert_arena_agrees(&db, min_support, "prop dense");
    }

    /// A universe straddling 64 at low support: roots and conditional
    /// databases fall on both sides of the mask/position choice.
    #[test]
    fn prop_arena_matches_references_across_64_ranks(
        db in proptest::collection::vec(
            proptest::collection::btree_set(0u32..96, 1..10),
            1..60,
        ),
        min_support in 1u64..3,
    ) {
        let db: Vec<Vec<u32>> = db.into_iter().map(|t| t.into_iter().collect()).collect();
        assert_arena_agrees(&db, min_support, "prop across 64");
    }

    /// Per-item projections: `ArenaPool::mine_conditional` on item `j`'s
    /// projection emits exactly the brute-force itemsets whose
    /// highest-ranked item is `j`, minus `{j}` itself, under every rank
    /// policy — one warmed pool across all items, as the parallel and
    /// sharded miners use it.
    #[test]
    fn prop_projection_mining_matches_brute_force_restricted_to_suffix(
        db in proptest::collection::vec(
            proptest::collection::btree_set(0u32..14, 1..7),
            1..40,
        ),
        min_support in 1u64..5,
    ) {
        let db: Vec<Vec<u32>> = db.into_iter().map(|t| t.into_iter().collect()).collect();
        let full = BruteForceMiner.mine(&db, min_support).sorted();
        for policy in [
            RankPolicy::Lexicographic,
            RankPolicy::FrequencyAscending,
            RankPolicy::FrequencyDescending,
        ] {
            let plt = construct(&db, min_support, ConstructOptions {
                rank_policy: policy,
                with_prefixes: false,
            }).unwrap();
            let ranking = plt.ranking();
            let projections = project_all(&plt);
            let mut pool = ArenaPool::new();
            for j in 1..=ranking.len() as u32 {
                let mut out = MiningResult::builder(plt.min_support(), plt.num_transactions());
                pool.mine_conditional(projections.conditional(j).iter(), &plt, &[j], &mut out);
                let got = out.finish().sorted();
                let expect: Vec<_> = full
                    .iter()
                    .filter(|(s, _)| {
                        s.len() > 1
                            && s.contains(ranking.item(j))
                            && s.items().iter().all(|&i| ranking.rank(i).is_some_and(|r| r <= j))
                    })
                    .cloned()
                    .collect();
                prop_assert_eq!(got, expect, "{:?} rank {}", policy, j);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Generalised Lemma 4.1.3: position-vector subset derivations vs rank-set
// oracles. The `(k−1)`-subset machinery in `subset.rs` works entirely in
// position-vector space (drop the last position, or sum a consecutive
// pair); these properties pin it to the obvious definition — dropping one
// rank from the sorted rank set — on random vectors.
// ---------------------------------------------------------------------------

/// Drop-one oracle over a sorted rank slice: the rank sequence with
/// element `drop` removed.
fn drop_one(ranks: &[u32], drop: usize) -> Vec<u32> {
    ranks
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != drop)
        .map(|(_, &r)| r)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `level_down_subsets` (parent + consecutive merges) yields exactly
    /// the `k` vectors obtained by deleting each rank in turn — no more,
    /// no fewer, no duplicates (Lemma 4.1.2 makes rank sets and vectors
    /// interchangeable as identities).
    #[test]
    fn prop_level_down_matches_drop_one_rank_oracle(
        ranks in proptest::collection::btree_set(1u32..64, 1..10),
    ) {
        let ranks: Vec<u32> = ranks.into_iter().collect();
        let k = ranks.len();
        let v = PositionVector::from_ranks(&ranks).unwrap();

        let derived: BTreeSet<Vec<u32>> =
            v.level_down_subsets().map(|s| s.ranks()).collect();
        let mut oracle = BTreeSet::new();
        if k >= 2 {
            for drop in 0..k {
                oracle.insert(drop_one(&ranks, drop));
            }
        }
        prop_assert_eq!(derived.len(), if k >= 2 { k } else { 0 });
        prop_assert_eq!(derived, oracle);
    }

    /// `SubsetChecker` membership and the Apriori prune test
    /// (`all_level_down_subsets_present`) agree with a brute-force oracle
    /// holding plain rank sets, for an arbitrary stored family and
    /// arbitrary candidates.
    #[test]
    fn prop_subset_checker_agrees_with_rank_set_oracle(
        family in proptest::collection::btree_set(
            proptest::collection::btree_set(1u32..16, 1..5),
            1..30,
        ),
        candidates in proptest::collection::vec(
            proptest::collection::btree_set(1u32..16, 1..5),
            1..20,
        ),
    ) {
        let mut checker = SubsetChecker::new();
        let mut oracle: BTreeSet<Vec<u32>> = BTreeSet::new();
        for ranks in &family {
            let ranks: Vec<u32> = ranks.iter().copied().collect();
            checker.insert(PositionVector::from_ranks(&ranks).unwrap());
            oracle.insert(ranks);
        }
        prop_assert_eq!(checker.len(), oracle.len());

        for cand in candidates {
            let ranks: Vec<u32> = cand.into_iter().collect();
            let v = PositionVector::from_ranks(&ranks).unwrap();
            prop_assert_eq!(
                checker.contains(&v),
                oracle.contains(&ranks),
                "contains({:?})", &ranks
            );
            let brute = ranks.len() == 1
                || (0..ranks.len()).all(|d| oracle.contains(&drop_one(&ranks, d)));
            prop_assert_eq!(
                checker.all_level_down_subsets_present(&v),
                brute,
                "all_level_down({:?})", &ranks
            );
        }
    }

    /// On mined families the two production checkers agree with each
    /// other, and the family is level-down closed (anti-monotonicity):
    /// every mined itemset passes the prune test in both representations.
    #[test]
    fn prop_mined_family_is_level_down_closed(
        db in proptest::collection::vec(
            proptest::collection::btree_set(0u32..10, 1..6),
            1..30,
        ),
        min_support in 1u64..4,
    ) {
        let db: Vec<Vec<u32>> = db.into_iter().map(|t| t.into_iter().collect()).collect();
        let plt = construct(&db, min_support, ConstructOptions::conditional()).unwrap();
        let ranking = plt.ranking().clone();
        let result = ConditionalMiner::default().mine(&db, min_support);
        let checker = SubsetChecker::from_result(&result, &ranking);
        let naive = NaiveChecker::from_result(&result);
        prop_assert_eq!(checker.len(), naive.len());
        for (itemset, _) in result.iter() {
            let v = PositionVector::canonical_for(itemset.items(), &ranking)
                .expect("mined itemsets are fully ranked");
            prop_assert!(
                checker.all_level_down_subsets_present(&v),
                "vector prune rejects mined {}", itemset
            );
            prop_assert!(
                naive.all_level_down_subsets_present(itemset.items()),
                "naive prune rejects mined {}", itemset
            );
        }
    }
}
