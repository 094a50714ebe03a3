//! Cross-crate agreement: every miner in the workspace produces the exact
//! same frequent-itemset family (itemsets *and* supports) on realistic
//! generated workloads — PLT (both approaches, sequential and parallel)
//! against every baseline, and against brute force wherever the database
//! is small enough to enumerate.

use std::collections::{BTreeMap, BTreeSet};

use plt::baselines::apriori::{AprioriMiner, CountingStrategy, PruneStrategy};
use plt::baselines::{
    AisMiner, DicMiner, EclatMiner, FpGrowthMiner, HMineMiner, PartitionMiner, SamplingMiner,
};
use plt::core::miner::{BruteForceMiner, Miner, MiningResult};
use plt::data::{
    BasketConfig, BasketGenerator, DenseConfig, DenseGenerator, QuestConfig, QuestGenerator,
};
use plt::parallel::{ParallelEclatMiner, ParallelPltMiner};
use plt::{ConditionalMiner, RankPolicy, TopDownMiner};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{diff_support_maps, support_map};

fn all_miners() -> Vec<Box<dyn Miner>> {
    vec![
        Box::new(ConditionalMiner::default()),
        Box::new(ConditionalMiner::with_policy(
            RankPolicy::FrequencyDescending,
        )),
        Box::new(TopDownMiner::default()),
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
/// against every other implementation family — the top-down PLT miner,
/// FP-growth, Eclat, and brute force.
fn differential_roster(db: &[Vec<u32>]) -> Vec<Box<dyn Miner>> {
    with_brute_force(
        db,
        vec![
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

/// Item alphabets for the ordering oracle, as the first of 40 ids: small
/// ids, ids around 2^16 and ids up to `u32::MAX`.
const ALPHABETS: [u32; 3] = [0, (1 << 16) - 20, u32::MAX - 39];

/// A support that is a function of the itemset, so duplicate pushes
/// agree on it.
fn oracle_support(items: &[u32]) -> u64 {
    items.iter().fold(items.len() as u64, |h, &i| {
        h.wrapping_mul(0x9e37_79b9).wrapping_add(u64::from(i)) % 1_000_003
    }) + 1
}

/// `v` in a random order: items as a miner may push them, or rows.
fn shuffled<T>(mut v: Vec<T>, rng: &mut SmallRng) -> Vec<T> {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The canonical order checked against an oracle that shares no code
    /// with `ResultBuilder::finish`: a `BTreeMap` keyed by `(len, items)`.
    /// Every miner orders its result through `finish`, so miner-vs-miner
    /// equality alone cannot catch an ordering bug. Size groups of 1 to 24
    /// items hold 0 to 199 itemsets; in some, every row shares its
    /// smallest or its largest item, so a whole column is constant and
    /// the radix skips it. Pushes come in random order, with duplicates,
    /// split across `push`, `append` and `extend_from`.
    #[test]
    fn prop_result_builder_matches_a_btree_oracle(
        seed in any::<u64>(),
        alphabets in 1usize..8,
        groups in proptest::collection::vec((1usize..25, 0usize..200, 0usize..3), 1..5),
        dup_percent in 0u64..50,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // A non-empty subset of the three alphabets, as a bit mask.
        let alphabets: Vec<_> = (0..3).filter(|b| alphabets & (1 << b) != 0).collect();
        // The smallest and the largest item the chosen alphabets hold.
        let lowest = ALPHABETS[alphabets[0]];
        let highest = ALPHABETS[alphabets[alphabets.len() - 1]] + 39;
        let mut pushes: Vec<(Vec<u32>, u64)> = Vec::new();
        let mut oracle: BTreeMap<(usize, Vec<u32>), u64> = BTreeMap::new();
        for &(k, n, shared) in &groups {
            let column = [None, Some(lowest), Some(highest)][shared];
            for _ in 0..n {
                let mut set: BTreeSet<u32> = column.into_iter().collect();
                while set.len() < k {
                    let base = ALPHABETS[alphabets[rng.gen_range(0..alphabets.len())]];
                    set.insert(base + rng.gen_range(0..40));
                }
                let items: Vec<u32> = set.into_iter().collect();
                let support = oracle_support(&items);
                oracle.insert((k, items.clone()), support);
                if rng.gen_range(0..100) < dup_percent {
                    pushes.push((shuffled(items.clone(), &mut rng), support));
                }
                pushes.push((shuffled(items, &mut rng), support));
            }
        }
        let order: Vec<(Vec<u32>, u64)> = shuffled(pushes.clone(), &mut rng);

        // Three routes into one builder: push, append, extend_from.
        let (a, rest) = order.split_at(order.len() / 3);
        let (b, c) = rest.split_at(rest.len() / 2);
        let builder_of = |rows: &[(Vec<u32>, u64)]| {
            let mut builder = MiningResult::builder(3, 17);
            for (items, support) in rows {
                builder.push(items.iter().copied(), *support);
            }
            builder
        };
        let mut main = builder_of(a);
        main.append(builder_of(b));
        main.extend_from(&builder_of(c).finish());
        let result = main.finish();

        let expect: Vec<(Vec<u32>, u64)> =
            oracle.iter().map(|((_, items), &s)| (items.clone(), s)).collect();
        let got: Vec<(Vec<u32>, u64)> =
            result.iter().map(|(s, sup)| (s.items().to_vec(), sup)).collect();
        prop_assert_eq!(&got, &expect, "iteration order, seed {}", seed);
        let sorted: Vec<(Vec<u32>, u64)> =
            result.sorted().into_iter().map(|(s, sup)| (s.into_items(), sup)).collect();
        prop_assert_eq!(&sorted, &expect, "sorted(), seed {}", seed);
        prop_assert_eq!(result.len(), oracle.len());
        prop_assert_eq!(result.max_size(), oracle.keys().last().map_or(0, |(k, _)| *k));
        prop_assert_eq!((result.min_support(), result.num_transactions()), (3, 17));
        for k in 0..=result.max_size() + 1 {
            let group: Vec<(Vec<u32>, u64)> =
                result.of_size(k).map(|(s, sup)| (s.items().to_vec(), sup)).collect();
            let want: Vec<(Vec<u32>, u64)> =
                expect.iter().filter(|(items, _)| items.len() == k).cloned().collect();
            prop_assert_eq!(group, want, "of_size({}), seed {}", k, seed);
        }

        // Probes: present (sorted, unsorted, with a repeated item) and
        // absent (sorted and unsorted).
        for ((_, items), &support) in &oracle {
            prop_assert_eq!(result.support(items), Some(support), "seed {}", seed);
            let mut reversed = items.clone();
            reversed.reverse();
            prop_assert_eq!(result.support(&reversed), Some(support), "seed {}", seed);
            let mut repeated = items.clone();
            repeated.push(items[0]);
            prop_assert_eq!(result.support(&repeated), Some(support), "seed {}", seed);
        }
        for _ in 0..64 {
            let k = rng.gen_range(1..26usize);
            let base = ALPHABETS[alphabets[rng.gen_range(0..alphabets.len())]];
            let probe: BTreeSet<u32> = (0..k).map(|_| base + rng.gen_range(0..40)).collect();
            let probe: Vec<u32> = probe.into_iter().collect();
            let want = oracle.get(&(probe.len(), probe.clone())).copied();
            prop_assert_eq!(result.support(&probe), want, "seed {}", seed);
            let unsorted = shuffled(probe, &mut rng);
            prop_assert_eq!(result.support(&unsorted), want, "seed {}", seed);
        }
        prop_assert_eq!(result.support(&[]), None);

        // The same multiset in another order finishes to an equal result.
        let again = builder_of(&shuffled(pushes, &mut rng)).finish();
        prop_assert!(again == result, "finish depends on push order, seed {}", seed);
    }
}
