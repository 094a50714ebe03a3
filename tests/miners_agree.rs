//! Cross-crate agreement: every miner in the workspace produces the exact
//! same frequent-itemset family (itemsets *and* supports) on realistic
//! generated workloads — PLT (both approaches, sequential and parallel)
//! against every baseline, and against brute force wherever the database
//! is small enough to enumerate.

use std::collections::BTreeSet;

use plt::baselines::apriori::{AprioriMiner, CountingStrategy, PruneStrategy};
use plt::baselines::{
    AisMiner, DicMiner, EclatMiner, FpGrowthMiner, HMineMiner, PartitionMiner, SamplingMiner,
};
use plt::core::miner::{BruteForceMiner, Miner};
use plt::core::HybridMiner;
use plt::data::{
    BasketConfig, BasketGenerator, DenseConfig, DenseGenerator, QuestConfig, QuestGenerator,
};
use plt::parallel::{ParallelEclatMiner, ParallelPltMiner};
use plt::{ConditionalMiner, RankPolicy, TopDownMiner};
use proptest::prelude::*;

mod common;
use common::{diff_support_maps, support_map};

fn all_miners() -> Vec<Box<dyn Miner>> {
    vec![
        Box::new(ConditionalMiner::default()),
        Box::new(ConditionalMiner::with_policy(
            RankPolicy::FrequencyDescending,
        )),
        Box::new(TopDownMiner::default()),
        Box::new(HybridMiner::default()),
        Box::new(HybridMiner {
            topdown_budget: 64,
            ..Default::default()
        }),
        Box::new(ParallelPltMiner::default()),
        Box::new(AprioriMiner::default()),
        Box::new(AprioriMiner {
            prune: PruneStrategy::PltSubsetChecker,
            counting: CountingStrategy::SubsetEnumeration,
        }),
        Box::new(FpGrowthMiner),
        Box::new(EclatMiner::default()),
        Box::new(EclatMiner::with_diffsets()),
        Box::new(HMineMiner),
        Box::new(ParallelEclatMiner),
        Box::new(AisMiner),
        Box::new(PartitionMiner::default()),
        Box::new(PartitionMiner { num_partitions: 7 }),
        Box::new(DicMiner::default()),
        Box::new(DicMiner { block_size: 37 }),
        Box::new(SamplingMiner::default()),
    ]
}

/// Brute force enumerates every subset of every transaction; it joins a
/// roster only when that totals at most this many subsets.
const BRUTE_FORCE_BUDGET: u64 = 1 << 18;

/// `miners`, plus brute force when `db` is small enough for it.
fn with_brute_force(db: &[Vec<u32>], mut miners: Vec<Box<dyn Miner>>) -> Vec<Box<dyn Miner>> {
    let subsets = db
        .iter()
        .fold(0u64, |n, t| n.saturating_add(1 << t.len().min(63)));
    if subsets <= BRUTE_FORCE_BUDGET {
        miners.push(Box::new(BruteForceMiner));
    }
    miners
}

fn assert_all_agree(db: &[Vec<u32>], min_support: u64, label: &str) {
    let reference = ConditionalMiner::default().mine(db, min_support);
    reference
        .check_anti_monotone()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let expect = reference.sorted();
    for miner in with_brute_force(db, all_miners()) {
        let got = miner.mine(db, min_support).sorted();
        assert_eq!(
            got.len(),
            expect.len(),
            "{label}: {} found {} itemsets, expected {}",
            miner.name(),
            got.len(),
            expect.len()
        );
        assert_eq!(got, expect, "{label}: {} disagrees", miner.name());
    }
}

#[test]
fn agree_on_sparse_quest_data() {
    let db = QuestGenerator::new(QuestConfig::t5i2(800))
        .generate()
        .into_transactions();
    assert_all_agree(&db, 8, "quest t5i2 1%");
    assert_all_agree(&db, 40, "quest t5i2 5%");
}

#[test]
fn agree_on_dense_data() {
    let db = DenseGenerator::new(DenseConfig {
        num_transactions: 400,
        num_items: 12,
        density_hi: 0.85,
        density_lo: 0.2,
        seed: 99,
    })
    .generate()
    .into_transactions();
    assert_all_agree(&db, 200, "dense 50%");
    assert_all_agree(&db, 80, "dense 20%");
}

#[test]
fn agree_on_market_baskets() {
    let db = BasketGenerator::new(BasketConfig {
        num_baskets: 600,
        ..Default::default()
    })
    .generate()
    .into_transactions();
    assert_all_agree(&db, 30, "baskets 5%");
}

#[test]
fn agree_when_nothing_is_frequent() {
    let db = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
    for miner in with_brute_force(&db, all_miners()) {
        assert!(miner.mine(&db, 2).is_empty(), "{}", miner.name());
    }
}

#[test]
fn agree_with_empty_transactions_interleaved() {
    // Real exports contain empty rows; every miner must skip them without
    // skewing counts.
    let db = vec![
        vec![1, 2, 3],
        vec![],
        vec![1, 2],
        vec![],
        vec![2, 3],
        vec![1, 2, 3],
    ];
    assert_all_agree(&db, 2, "empty rows");
    let r = ConditionalMiner::default().mine(&db, 2);
    assert_eq!(r.support(&[1, 2]), Some(3));
    assert_eq!(r.num_transactions(), 6); // empties still counted as rows
}

#[test]
fn agree_under_every_rank_policy_end_to_end() {
    let db = BasketGenerator::new(BasketConfig {
        num_baskets: 300,
        ..Default::default()
    })
    .generate()
    .into_transactions();
    let reference = ConditionalMiner::default().mine(&db, 15).sorted();
    for policy in [
        RankPolicy::Lexicographic,
        RankPolicy::FrequencyAscending,
        RankPolicy::FrequencyDescending,
    ] {
        let miners: Vec<Box<dyn Miner>> = vec![
            Box::new(ConditionalMiner::with_policy(policy)),
            Box::new(TopDownMiner::with_policy(policy)),
            Box::new(HybridMiner {
                rank_policy: policy,
                ..Default::default()
            }),
            Box::new(ParallelPltMiner::with_policy(policy)),
        ];
        for miner in miners {
            assert_eq!(
                miner.mine(&db, 15).sorted(),
                reference,
                "{} under {policy:?}",
                miner.name()
            );
        }
    }
}

#[test]
fn agree_on_degenerate_databases() {
    // Single transaction; all-identical transactions; singleton items.
    let cases: Vec<(Vec<Vec<u32>>, u64)> = vec![
        (vec![vec![1, 2, 3]], 1),
        (vec![vec![4, 5]; 10], 10),
        (vec![vec![7], vec![7], vec![8]], 2),
    ];
    for (db, ms) in cases {
        assert_all_agree(&db, ms, "degenerate");
    }
}

// ---------------------------------------------------------------------------
// Differential property harness: on random skewed databases with
// duplicated rows, every engine pair must agree on the *full*
// itemset → support map, across a min_support sweep that always includes
// the extremes 1 (everything non-empty is frequent) and |D| (only
// itemsets present in every transaction survive).
//
// The vendored proptest shim does not shrink, so disagreements are
// reported with the complete database, the support threshold, and a
// per-itemset diff — everything needed to replay the failure by hand.
// ---------------------------------------------------------------------------

/// The engine pairs under differential test: the arena conditional engine
/// against every other implementation family — the map-layout PLT
/// recursion (the hybrid miner with its top-down finish disabled), the
/// top-down miner, FP-growth, Eclat, and brute force.
fn differential_roster(db: &[Vec<u32>]) -> Vec<Box<dyn Miner>> {
    with_brute_force(
        db,
        vec![
            Box::new(HybridMiner {
                topdown_budget: 0,
                ..Default::default()
            }),
            Box::new(TopDownMiner::default()),
            Box::new(FpGrowthMiner),
            Box::new(EclatMiner::default()),
        ],
    )
}

/// Runs every engine pair over one `(db, min_support)` cell; `Err` carries
/// the full failing case.
fn engines_agree(db: &[Vec<u32>], min_support: u64) -> Result<(), String> {
    let arena = ConditionalMiner::default().mine(db, min_support);
    arena
        .check_anti_monotone()
        .map_err(|e| format!("arena family not anti-monotone at min_support {min_support}: {e}"))?;
    let reference = support_map(&arena);
    for miner in differential_roster(db) {
        let got = support_map(&miner.mine(db, min_support));
        if let Some(diff) = diff_support_maps(&reference, &got) {
            return Err(format!(
                "arena vs {} disagree at min_support {min_support} on db ({} rows):\n\
                 {db:?}\ndiff (reference = arena):\n{diff}",
                miner.name(),
                db.len(),
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Skewed item draws + duplicated rows, swept across min_support
    /// 1, a mid value, and |D|.
    #[test]
    fn prop_engine_pairs_agree_on_full_support_maps(
        raw in proptest::collection::vec(
            proptest::collection::btree_set(0u32..400, 1..7),
            4..24,
        ),
        dup_rows in 0usize..16,
        mid_support in 2u64..7,
    ) {
        // Skew: squaring a uniform draw concentrates mass near item 0,
        // approximating the head-heavy distributions of retail data
        // (duplicates introduced by the mapping collapse within a row).
        let mut db: Vec<Vec<u32>> = raw
            .iter()
            .map(|t| {
                let s: BTreeSet<u32> = t.iter().map(|&x| (x * x) / 400).collect();
                s.into_iter().collect()
            })
            .collect();
        // Duplicate a prefix of rows verbatim: exact repeats must fold
        // into counts, never into extra itemsets.
        let copies = dup_rows % db.len();
        for i in 0..copies {
            let row = db[i].clone();
            db.push(row);
        }
        let n = db.len() as u64;
        for min_support in [1, mid_support.min(n), n] {
            let outcome = engines_agree(&db, min_support);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}
