//! Parallel association-rule generation.
//!
//! Rule generation decomposes perfectly: the rules derived from one
//! frequent itemset depend only on that itemset and the (read-only)
//! support table, so the per-itemset *ap-genrules* runs fan out over the
//! Rayon pool with no coordination. On result sets with tens of thousands
//! of frequent itemsets this is the step that dominates an end-to-end
//! association-rules pipeline.

use rayon::prelude::*;

use plt_core::item::ItemsetRef;
use plt_core::miner::MiningResult;
use plt_rules::{rules_for_itemset, Rule, RuleConfig};

/// Generates all rules meeting the confidence threshold, parallelising
/// over the frequent itemsets. Output set equals
/// [`plt_rules::generate_rules`] (order unspecified, as there).
pub fn par_generate_rules(result: &MiningResult, config: RuleConfig) -> Vec<Rule> {
    assert!(
        (0.0..=1.0).contains(&config.min_confidence),
        "confidence is a probability"
    );
    let itemsets: Vec<(ItemsetRef<'_>, u64)> =
        result.iter().filter(|(s, _)| s.len() >= 2).collect();
    itemsets
        .par_iter()
        .map(|&(itemset, support)| rules_for_itemset(itemset, support, result, config))
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_core::miner::{BruteForceMiner, Miner};
    use plt_rules::{generate_rules, sort_rules};
    use proptest::prelude::*;

    fn table1() -> Vec<Vec<u32>> {
        vec![
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1, 2, 3],
            vec![0, 1, 3, 4],
            vec![1, 2, 3],
            vec![2, 3, 5],
        ]
    }

    fn normalised(mut rules: Vec<Rule>) -> Vec<Rule> {
        sort_rules(&mut rules);
        rules
    }

    #[test]
    fn matches_sequential_generation() {
        let result = BruteForceMiner.mine(&table1(), 2);
        for conf in [0.0, 0.5, 0.8, 1.0] {
            let config = RuleConfig {
                min_confidence: conf,
            };
            let seq = normalised(generate_rules(&result, config));
            let par = normalised(par_generate_rules(&result, config));
            assert_eq!(par.len(), seq.len(), "conf {conf}");
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.antecedent, b.antecedent);
                assert_eq!(a.consequent, b.consequent);
                assert!((a.confidence - b.confidence).abs() < 1e-12);
                assert!((a.lift - b.lift).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empty_result_yields_no_rules() {
        let result = BruteForceMiner.mine(&table1(), 10);
        assert!(par_generate_rules(&result, RuleConfig::default()).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Parallel and sequential rule generation agree on random data.
        #[test]
        fn prop_matches_sequential(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..10, 1..6),
                1..30,
            ),
            min_support in 1u64..4,
            conf_pct in 0u32..=100,
        ) {
            let db: Vec<Vec<u32>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let result = BruteForceMiner.mine(&db, min_support);
            let config = RuleConfig {
                min_confidence: conf_pct as f64 / 100.0,
            };
            let seq = normalised(generate_rules(&result, config));
            let par = normalised(par_generate_rules(&result, config));
            prop_assert_eq!(par.len(), seq.len());
            for (a, b) in par.iter().zip(&seq) {
                prop_assert_eq!(&a.antecedent, &b.antecedent);
                prop_assert_eq!(&a.consequent, &b.consequent);
            }
        }
    }
}
