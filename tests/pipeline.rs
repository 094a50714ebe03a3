//! End-to-end pipelines across crates: generate → construct → compress →
//! mine → condense → rules, with every stage cross-validated against
//! ground-truth database scans.

use plt::closed::{closed_itemsets, maximal_itemsets};
use plt::compress::CompressedPlt;
use plt::core::conditional::extract_conditional;
use plt::core::construct::{construct, ConstructOptions};
use plt::core::miner::Miner;
use plt::data::{BasketConfig, BasketGenerator, QuestConfig, QuestGenerator, TransactionDb};
use plt::rules::{generate_rules, RuleConfig};
use plt::ConditionalMiner;

#[test]
fn rules_are_verifiable_against_raw_scans() {
    let generator = BasketGenerator::new(BasketConfig {
        num_baskets: 1_500,
        ..Default::default()
    });
    let db = generator.generate();
    let min_support = db.absolute_support(0.03);
    let result = ConditionalMiner::default().mine(db.transactions(), min_support);
    let rules = generate_rules(
        &result,
        RuleConfig {
            min_confidence: 0.6,
        },
    );
    assert!(!rules.is_empty(), "basket data must induce rules");
    for rule in rules.iter().take(50) {
        let union = rule.antecedent.union(&rule.consequent);
        let sup_union = db.support_by_scan(union.items());
        let sup_ante = db.support_by_scan(rule.antecedent.items());
        assert_eq!(sup_union, rule.support, "rule {rule}");
        let conf = sup_union as f64 / sup_ante as f64;
        assert!((conf - rule.confidence).abs() < 1e-12, "rule {rule}");
        assert!(conf >= 0.6);
    }
}

#[test]
fn compressed_plt_is_a_faithful_store() {
    let db = QuestGenerator::new(QuestConfig::t5i2(1_200))
        .generate()
        .into_transactions();
    let min_support = 12;
    let plt = construct(&db, min_support, ConstructOptions::conditional()).unwrap();
    let compressed = CompressedPlt::from_plt(&plt);

    // Mining the decompressed PLT gives the same answer as mining the
    // original.
    let miner = ConditionalMiner::default();
    // Qualified: `Miner` is also in scope, and both traits have a `mine`.
    let from_original = plt::core::Mine::mine_plt(&miner, &plt);
    let from_roundtrip = plt::core::Mine::mine_plt(&miner, &compressed.to_plt());
    assert_eq!(from_original.sorted(), from_roundtrip.sorted());

    // The sum index returns exactly the conditional extraction of the
    // uncompressed structure (pre-fold).
    for j in 1..=plt.ranking().len() as u32 {
        let mut via_index: Vec<_> = compressed
            .vectors_with_sum(j)
            .into_iter()
            .filter_map(|(v, f)| v.parent().map(|p| (p, f)))
            .collect();
        via_index.sort();
        let (_, mut via_extract, _) = extract_conditional(&plt, j);
        via_extract.sort();
        // extract_conditional merges duplicates through Plt; merge ours.
        let merge = |v: Vec<(plt::PositionVector, u64)>| {
            let mut m = std::collections::BTreeMap::new();
            for (k, f) in v {
                *m.entry(k).or_insert(0) += f;
            }
            m
        };
        assert_eq!(merge(via_index), merge(via_extract), "rank {j}");
    }
}

#[test]
fn closed_and_maximal_reconstruct_the_frequency_family() {
    let db = BasketGenerator::new(BasketConfig {
        num_baskets: 800,
        ..Default::default()
    })
    .generate();
    let min_support = db.absolute_support(0.04);
    let all = ConditionalMiner::default().mine(db.transactions(), min_support);
    let closed = closed_itemsets(&all);
    let maximal = maximal_itemsets(&all);

    assert!(maximal.len() <= closed.len());
    assert!(closed.len() <= all.len());

    // Every frequent itemset is a subset of some maximal itemset.
    let maximal_sets: Vec<_> = maximal.iter().map(|(s, _)| s).collect();
    for (itemset, _) in all.iter() {
        assert!(
            maximal_sets.iter().any(|m| itemset.is_subset_of(*m)),
            "{itemset} not covered by any maximal set"
        );
    }

    // Every frequent itemset's support equals the max support among the
    // closed supersets containing it (the closure property).
    for (itemset, support) in all.iter() {
        let closure_sup = closed
            .iter()
            .filter(|(c, _)| itemset.is_subset_of(*c))
            .map(|(_, s)| s)
            .max()
            .expect("some closed superset exists");
        assert_eq!(closure_sup, support, "{itemset}");
    }
}

#[test]
fn mining_results_match_raw_scans_on_a_sample() {
    let db = QuestGenerator::new(QuestConfig::t5i2(700)).generate();
    let tdb = TransactionDb::from_sorted(db.transactions().to_vec());
    let min_support = 10;
    let result = ConditionalMiner::default().mine(db.transactions(), min_support);
    assert!(!result.is_empty());
    for (itemset, support) in result.iter().take(200) {
        assert_eq!(
            tdb.support_by_scan(itemset.items()),
            support,
            "{itemset} support mismatch vs raw scan"
        );
    }
}
