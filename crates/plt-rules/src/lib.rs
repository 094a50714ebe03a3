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

use plt_core::item::{Item, Itemset, ItemsetRef, Support};
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
    let mut splitter = Splitter {
        result,
        min_confidence: config.min_confidence,
        n: result.num_transactions() as f64,
        antecedent: Vec::new(),
        candidates: Vec::new(),
        rules: Vec::new(),
    };
    for (itemset, support) in result.iter() {
        splitter.split(itemset, support);
    }
    splitter.rules
}

/// The *ap-genrules* state over one result. Candidate consequents and
/// antecedents are built in reused buffers, so only a rule that meets the
/// threshold allocates.
struct Splitter<'a> {
    /// Serves the subset-support lookups; must be subset-closed.
    result: &'a MiningResult,
    min_confidence: f64,
    n: f64,
    /// The antecedent of the split under test.
    antecedent: Vec<Item>,
    /// The next level's candidate consequents, back to back.
    candidates: Vec<Item>,
    rules: Vec<Rule>,
}

impl Splitter<'_> {
    /// All rules splitting `itemset` (whose support is `support`) that
    /// meet the confidence threshold.
    fn split(&mut self, itemset: ItemsetRef<'_>, support: Support) {
        if itemset.len() < 2 {
            return;
        }
        // Level 1: single-item consequents.
        let mut level = self.rules.len();
        for &item in itemset.items() {
            self.try_rule(itemset, &[item], support);
        }
        // Levels 2..: join the consequents this itemset's previous level
        // accepted, apriori-style, sharing all but their last item.
        let mut m = 1;
        while level < self.rules.len() && itemset.len() > m + 1 {
            self.candidates.clear();
            let accepted = &self.rules[level..];
            for (i, a) in accepted.iter().enumerate() {
                for b in &accepted[i + 1..] {
                    let (ia, ib) = (a.consequent.items(), b.consequent.items());
                    if ia[..m - 1] == ib[..m - 1] && ia[m - 1] < ib[m - 1] {
                        self.candidates.extend_from_slice(ia);
                        self.candidates.push(ib[m - 1]);
                    }
                }
            }
            level = self.rules.len();
            m += 1;
            let candidates = std::mem::take(&mut self.candidates);
            for consequent in candidates.chunks_exact(m) {
                self.try_rule(itemset, consequent, support);
            }
            self.candidates = candidates;
        }
    }

    /// Keeps the rule `itemset \ consequent → consequent` if it passes
    /// the confidence threshold.
    fn try_rule(&mut self, itemset: ItemsetRef<'_>, consequent: &[Item], support: Support) {
        self.antecedent.clear();
        self.antecedent
            .extend(itemset.items().iter().filter(|i| !consequent.contains(i)));
        debug_assert!(!self.antecedent.is_empty() && !consequent.is_empty());
        let sup_x = self
            .result
            .support(&self.antecedent)
            .expect("mining results are subset-closed");
        let confidence = support as f64 / sup_x as f64;
        if confidence < self.min_confidence {
            return;
        }
        let sup_y = self
            .result
            .support(consequent)
            .expect("mining results are subset-closed");
        let n = self.n;
        let p_y = sup_y as f64 / n;
        let lift = confidence / p_y;
        let leverage = support as f64 / n - (sup_x as f64 / n) * p_y;
        let conviction = if confidence >= 1.0 {
            f64::INFINITY
        } else {
            (1.0 - p_y) / (1.0 - confidence)
        };
        self.rules.push(Rule {
            antecedent: Itemset::from_sorted(self.antecedent.clone()),
            consequent: Itemset::from_sorted(consequent.to_vec()),
            support,
            confidence,
            lift,
            leverage,
            conviction,
        });
    }
}

/// Sorts rules for presentation: by confidence, then lift, then support,
/// all descending; ties broken by the rule text for determinism.
pub fn sort_rules(rules: &mut [Rule]) {
    rules.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then(b.lift.total_cmp(&a.lift))
            .then(b.support.cmp(&a.support))
            .then_with(|| (&a.antecedent, &a.consequent).cmp(&(&b.antecedent, &b.consequent)))
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
    use plt_core::miner::{BruteForceMiner, Miner};
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

    /// Every split of every frequent itemset that meets `min_confidence`,
    /// with its metrics computed directly, in `sort_rules` order: the
    /// reference for ap-genrules' pruning.
    fn all_splits(result: &MiningResult, min_confidence: f64) -> Vec<Rule> {
        let n = result.num_transactions() as f64;
        let mut rules = Vec::new();
        for (z, support) in result.iter() {
            let z = z.to_itemset();
            for consequent in z.subsets() {
                if consequent.is_empty() || consequent.len() == z.len() {
                    continue;
                }
                let antecedent = z.difference(&consequent);
                let sup_x = result.support(antecedent.items()).unwrap() as f64;
                let p_y = result.support(consequent.items()).unwrap() as f64 / n;
                let confidence = support as f64 / sup_x;
                if confidence < min_confidence {
                    continue;
                }
                rules.push(Rule {
                    antecedent,
                    consequent,
                    support,
                    confidence,
                    lift: confidence / p_y,
                    leverage: support as f64 / n - (sup_x / n) * p_y,
                    conviction: if confidence >= 1.0 {
                        f64::INFINITY
                    } else {
                        (1.0 - p_y) / (1.0 - confidence)
                    },
                });
            }
        }
        sort_rules(&mut rules);
        rules
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// ap-genrules keeps exactly the splits an exhaustive enumeration
        /// keeps, with the same metrics, at confidences from 0 to 1.
        #[test]
        fn matches_exhaustive_enumeration(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..7, 1..6),
                1..24,
            ),
            min_support in 1u64..4,
            twentieths in 0u32..=20,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let result = BruteForceMiner.mine(&db, min_support);
            let min_confidence = f64::from(twentieths) / 20.0;
            let mut fast = generate_rules(&result, RuleConfig { min_confidence });
            sort_rules(&mut fast);
            prop_assert_eq!(fast, all_splits(&result, min_confidence));
        }
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
