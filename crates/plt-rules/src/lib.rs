//! # plt-rules — association-rule generation
//!
//! The second step of the paper's problem statement (§2): given the
//! frequent itemsets, enumerate all implications `X → Y` (`X ∩ Y = ∅`,
//! `X ∪ Y` frequent) whose confidence
//! `conf = support(X ∪ Y) / support(X)` meets a threshold. "Once the
//! frequent itemsets are determined, generating the rules is
//! straightforward" — straightforward, but worth doing right: this crate
//! implements the *ap-genrules* procedure of Agrawal & Srikant, which
//! prunes consequent supersets once a consequent fails (confidence is
//! anti-monotone in the consequent), rather than testing all `2^k`
//! splits.
//!
//! Every rule carries the standard interestingness measures: confidence,
//! lift, leverage and conviction.

use plt_core::item::{Itemset, ItemsetRef, Support};
use plt_core::miner::MiningResult;

/// An association rule `antecedent → consequent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Left-hand side `X` (non-empty).
    pub antecedent: Itemset,
    /// Right-hand side `Y` (non-empty, disjoint from `X`).
    pub consequent: Itemset,
    /// `support(X ∪ Y)` — absolute count.
    pub support: Support,
    /// `support(X ∪ Y) / support(X)`.
    pub confidence: f64,
    /// `confidence / P(Y)`: how much more often `Y` appears with `X` than
    /// alone. 1.0 = independent.
    pub lift: f64,
    /// `P(X ∪ Y) − P(X)·P(Y)`.
    pub leverage: f64,
    /// `(1 − P(Y)) / (1 − confidence)`; `+∞` for exact rules.
    pub conviction: f64,
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} => {}  (sup={}, conf={:.3}, lift={:.2})",
            self.antecedent, self.consequent, self.support, self.confidence, self.lift
        )
    }
}

/// Rule-generation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleConfig {
    /// Minimum confidence in `[0, 1]`.
    pub min_confidence: f64,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            min_confidence: 0.5,
        }
    }
}

/// Generates all rules meeting `config.min_confidence` from a mining
/// result.
///
/// Requires the result to be subset-closed (every miner in this workspace
/// produces closed results — the anti-monotone property guarantees it);
/// missing subset supports are a logic error and panic.
///
/// # Examples
///
/// ```
/// use plt_core::{ConditionalMiner, Miner};
/// use plt_rules::{generate_rules, RuleConfig};
///
/// let db = vec![vec![1, 2], vec![1, 2], vec![1, 2], vec![1]];
/// let result = ConditionalMiner::default().mine(&db, 2);
/// let rules = generate_rules(&result, RuleConfig { min_confidence: 0.9 });
/// // {2} → {1} holds with confidence 1.0; {1} → {2} only 0.75.
/// assert_eq!(rules.len(), 1);
/// assert_eq!(rules[0].antecedent.items(), &[2]);
/// assert!((rules[0].confidence - 1.0).abs() < 1e-12);
/// ```
pub fn generate_rules(result: &MiningResult, config: RuleConfig) -> Vec<Rule> {
    assert!(
        (0.0..=1.0).contains(&config.min_confidence),
        "confidence is a probability"
    );
    let mut rules = Vec::new();
    for (itemset, support) in result.iter() {
        if itemset.len() < 2 {
            continue;
        }
        rules.extend(rules_for_itemset(itemset, support, result, config));
    }
    rules
}

/// The per-itemset *ap-genrules* step: all rules splitting `itemset`
/// (whose support is `support`) that meet the confidence threshold.
/// `result` serves the subset-support lookups and must be subset-closed
/// over `itemset`, which is borrowed (typically from `result` itself).
fn rules_for_itemset(
    itemset: ItemsetRef<'_>,
    support: Support,
    result: &MiningResult,
    config: RuleConfig,
) -> Vec<Rule> {
    let n = result.num_transactions() as f64;
    let mut rules = Vec::new();
    if itemset.len() < 2 {
        return rules;
    }
    // Level 1: single-item consequents.
    let mut consequents: Vec<Itemset> = Vec::new();
    for &item in itemset.items() {
        let consequent = Itemset::from_sorted(vec![item]);
        if let Some(rule) = try_rule(itemset, &consequent, support, result, config, n) {
            rules.push(rule);
            consequents.push(consequent);
        }
    }
    // Levels 2..: grow consequents apriori-style from the survivors.
    let mut m = 1;
    while !consequents.is_empty() && itemset.len() > m + 1 {
        let candidates = join_consequents(&consequents);
        consequents.clear();
        for consequent in candidates {
            if let Some(rule) = try_rule(itemset, &consequent, support, result, config, n) {
                rules.push(rule);
                consequents.push(consequent);
            }
        }
        m += 1;
    }
    rules
}

/// Builds the rule `itemset \ consequent → consequent` if it passes the
/// confidence threshold.
fn try_rule(
    itemset: ItemsetRef<'_>,
    consequent: &Itemset,
    support: Support,
    result: &MiningResult,
    config: RuleConfig,
    n: f64,
) -> Option<Rule> {
    let antecedent = Itemset::from_sorted(
        itemset
            .items()
            .iter()
            .copied()
            .filter(|&i| !consequent.contains(i))
            .collect(),
    );
    debug_assert!(!antecedent.is_empty() && !consequent.is_empty());
    let sup_x = result
        .support(antecedent.items())
        .expect("mining results are subset-closed");
    let confidence = support as f64 / sup_x as f64;
    if confidence < config.min_confidence {
        return None;
    }
    let sup_y = result
        .support(consequent.items())
        .expect("mining results are subset-closed");
    let p_y = sup_y as f64 / n;
    let lift = confidence / p_y;
    let leverage = support as f64 / n - (sup_x as f64 / n) * p_y;
    let conviction = if confidence >= 1.0 {
        f64::INFINITY
    } else {
        (1.0 - p_y) / (1.0 - confidence)
    };
    Some(Rule {
        antecedent,
        consequent: consequent.clone(),
        support,
        confidence,
        lift,
        leverage,
        conviction,
    })
}

/// Apriori-style join of same-size consequents sharing all but their last
/// item (inputs and outputs sorted itemsets).
fn join_consequents(level: &[Itemset]) -> Vec<Itemset> {
    let mut out = Vec::new();
    for (i, a) in level.iter().enumerate() {
        for b in &level[i + 1..] {
            let (ia, ib) = (a.items(), b.items());
            let k = ia.len();
            if ia[..k - 1] == ib[..k - 1] && ia[k - 1] < ib[k - 1] {
                let mut items = ia.to_vec();
                items.push(ib[k - 1]);
                out.push(Itemset::from_sorted(items));
            }
        }
    }
    out
}

/// Sorts rules for presentation: by confidence, then lift, then support,
/// all descending; ties broken by the rule text for determinism.
pub fn sort_rules(rules: &mut [Rule]) {
    rules.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then(b.lift.total_cmp(&a.lift))
            .then(b.support.cmp(&a.support))
            .then_with(|| {
                (a.antecedent.clone(), a.consequent.clone())
                    .cmp(&(b.antecedent.clone(), b.consequent.clone()))
            })
    });
}

/// Convenience: generate, sort, and keep the best `k` rules.
pub fn top_rules(result: &MiningResult, config: RuleConfig, k: usize) -> Vec<Rule> {
    let mut rules = generate_rules(result, config);
    sort_rules(&mut rules);
    rules.truncate(k);
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_core::item::Item;
    use plt_core::miner::{BruteForceMiner, Miner};

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

    fn mined() -> MiningResult {
        BruteForceMiner.mine(&table1(), 2)
    }

    fn find<'a>(rules: &'a [Rule], x: &[Item], y: &[Item]) -> Option<&'a Rule> {
        rules
            .iter()
            .find(|r| r.antecedent.items() == x && r.consequent.items() == y)
    }

    #[test]
    fn exact_rule_has_confidence_one_and_infinite_conviction() {
        // A ⊆ every transaction that contains A also contains B:
        // sup(AB)=4 = sup(A) → conf(A→B) = 1.
        let rules = generate_rules(
            &mined(),
            RuleConfig {
                min_confidence: 0.9,
            },
        );
        let r = find(&rules, &[0], &[1]).expect("A→B");
        assert!((r.confidence - 1.0).abs() < 1e-12);
        assert_eq!(r.support, 4);
        assert!(r.conviction.is_infinite());
        // lift = 1.0 / (5/6)
        assert!((r.lift - 6.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn confidence_threshold_filters() {
        // conf(B→D) = sup(BD)/sup(B) = 3/5 = 0.6.
        let loose = generate_rules(
            &mined(),
            RuleConfig {
                min_confidence: 0.55,
            },
        );
        assert!(find(&loose, &[1], &[3]).is_some());
        let strict = generate_rules(
            &mined(),
            RuleConfig {
                min_confidence: 0.65,
            },
        );
        assert!(find(&strict, &[1], &[3]).is_none());
    }

    #[test]
    fn all_rules_meet_threshold_and_metrics_are_consistent() {
        let result = mined();
        let n = result.num_transactions() as f64;
        let rules = generate_rules(
            &result,
            RuleConfig {
                min_confidence: 0.5,
            },
        );
        assert!(!rules.is_empty());
        for r in &rules {
            assert!(r.confidence >= 0.5 && r.confidence <= 1.0 + 1e-12);
            assert!(r.antecedent.intersection(&r.consequent).is_empty());
            let z = r.antecedent.union(&r.consequent);
            assert_eq!(result.support(z.items()), Some(r.support));
            let sup_x = result.support(r.antecedent.items()).unwrap();
            assert!((r.confidence - r.support as f64 / sup_x as f64).abs() < 1e-12);
            let sup_y = result.support(r.consequent.items()).unwrap() as f64;
            assert!((r.lift - r.confidence / (sup_y / n)).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_exhaustive_enumeration() {
        // Compare ap-genrules against brute-force enumeration of every
        // (antecedent, consequent) split of every frequent itemset.
        let result = mined();
        let config = RuleConfig {
            min_confidence: 0.6,
        };
        let fast = {
            let mut r = generate_rules(&result, config);
            sort_rules(&mut r);
            r
        };
        let mut slow: Vec<Rule> = Vec::new();
        for (z, support) in result.iter() {
            if z.len() < 2 {
                continue;
            }
            for consequent in z.to_itemset().subsets() {
                if consequent.len() == z.len() || consequent.is_empty() {
                    continue;
                }
                let n = result.num_transactions() as f64;
                if let Some(rule) = try_rule(z, &consequent, support, &result, config, n) {
                    slow.push(rule);
                }
            }
        }
        sort_rules(&mut slow);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.antecedent, b.antecedent);
            assert_eq!(a.consequent, b.consequent);
            assert!((a.confidence - b.confidence).abs() < 1e-12);
        }
    }

    #[test]
    fn multi_item_consequents_are_generated() {
        // conf(A → BC) = sup(ABC)/sup(A) = 3/4.
        let rules = generate_rules(
            &mined(),
            RuleConfig {
                min_confidence: 0.7,
            },
        );
        let r = find(&rules, &[0], &[1, 2]).expect("A→BC");
        assert!((r.confidence - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_confidence_emits_every_split() {
        let result = mined();
        let rules = generate_rules(
            &result,
            RuleConfig {
                min_confidence: 0.0,
            },
        );
        // Σ over frequent k-itemsets (k≥2) of (2^k − 2) splits:
        // six 2-itemsets → 6·2 = 12; three 3-itemsets → 3·6 = 18.
        assert_eq!(rules.len(), 30);
    }

    #[test]
    fn top_rules_truncates_sorted() {
        let rules = top_rules(
            &mined(),
            RuleConfig {
                min_confidence: 0.1,
            },
            5,
        );
        assert_eq!(rules.len(), 5);
        assert!(rules.windows(2).all(|w| w[0].confidence >= w[1].confidence));
    }

    #[test]
    fn no_rules_from_singletons() {
        let db = vec![vec![1], vec![1], vec![2]];
        let result = BruteForceMiner.mine(&db, 1);
        assert!(generate_rules(&result, RuleConfig::default()).is_empty());
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_confidence() {
        generate_rules(
            &mined(),
            RuleConfig {
                min_confidence: 1.5,
            },
        );
    }

    #[test]
    fn display_is_readable() {
        let rules = generate_rules(
            &mined(),
            RuleConfig {
                min_confidence: 0.9,
            },
        );
        let text = rules[0].to_string();
        assert!(text.contains("=>"));
        assert!(text.contains("conf="));
    }
}
