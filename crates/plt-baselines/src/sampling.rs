//! Toivonen's sampling algorithm (VLDB'96) — mine a random sample at a
//! lowered threshold, then verify against the full database in one pass.
//!
//! The completeness argument: let `S` be the itemsets frequent in the
//! sample (the candidates) and suppose some globally frequent `X ∉ S`;
//! take `X` minimal. All of `X`'s proper subsets are globally frequent
//! and, by minimality, in `S` — so `X` lies on the **negative border**
//! `Bd⁻(S)` (not in `S`, every immediate subset in `S`). Hence: count the
//! exact global supports of `S ∪ Bd⁻(S)`; if *no* border itemset turns
//! out frequent, the frequent candidates are exactly the global answer.
//! If one does, the sample missed something — this implementation retries
//! with a larger sample, and after `max_attempts` falls back to an exact
//! miner, so the result is always exact (the sampling is a performance
//! gamble, never a correctness one).

use plt_core::hash::FxHashSet;
use plt_core::item::{Item, Itemset, Support};
use plt_core::miner::{Miner, MiningResult};
use plt_data::transaction::TransactionDb;
use plt_data::vertical::VerticalDb;

use crate::eclat::EclatMiner;

/// The sampling miner.
#[derive(Debug, Clone, Copy)]
pub struct SamplingMiner {
    /// Fraction of the database to sample (without replacement).
    pub sample_fraction: f64,
    /// Threshold slack: the sample is mined at
    /// `relative_support · (1 − slack)` to reduce the miss probability.
    pub support_slack: f64,
    /// RNG seed (deterministic sampling).
    pub seed: u64,
    /// Failed-border retries before falling back to exact mining.
    pub max_attempts: usize,
}

impl Default for SamplingMiner {
    fn default() -> Self {
        SamplingMiner {
            sample_fraction: 0.25,
            support_slack: 0.25,
            seed: 0x7017_0e4e,
            max_attempts: 3,
        }
    }
}

/// How a [`SamplingMiner::mine_with_outcome`] run actually went — the
/// result is always exact either way; this reports which path produced
/// it so callers (the serving rebuild path, tests) can observe the
/// gamble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingOutcome {
    /// Sample-and-verify attempts made (0 when the small-database
    /// short-circuit skipped sampling entirely).
    pub attempts: usize,
    /// Attempts falsified by a frequent negative-border itemset.
    pub border_violations: usize,
    /// Whether the run gave up on sampling and re-mined exactly.
    pub fell_back: bool,
}

impl Miner for SamplingMiner {
    fn name(&self) -> &'static str {
        "sampling-toivonen"
    }

    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        self.mine_with_outcome(transactions, min_support).0
    }
}

impl SamplingMiner {
    /// [`Miner::mine`] plus the [`SamplingOutcome`] describing whether a
    /// verified sample or the exact fallback produced the answer.
    pub fn mine_with_outcome(
        &self,
        transactions: &[Vec<Item>],
        min_support: Support,
    ) -> (MiningResult, SamplingOutcome) {
        assert!(min_support >= 1, "minimum support must be at least 1");
        assert!((0.0..=1.0).contains(&self.sample_fraction));
        assert!((0.0..1.0).contains(&self.support_slack));
        let n = transactions.len();
        let mut outcome = SamplingOutcome {
            attempts: 0,
            border_violations: 0,
            fell_back: false,
        };
        // Sampling tiny databases is pointless; go exact.
        if n < 40 {
            outcome.fell_back = true;
            return (
                EclatMiner::default().mine(transactions, min_support),
                outcome,
            );
        }
        let rel = min_support as f64 / n as f64;

        // The verification index is attempt-invariant: build it once.
        let db = TransactionDb::from_sorted(transactions.to_vec());
        let vertical = VerticalDb::from_horizontal(&db);

        let mut fraction = self.sample_fraction;
        let slack = self.support_slack;
        for attempt in 0..self.max_attempts {
            outcome.attempts = attempt + 1;
            let sample = deterministic_sample(
                transactions,
                ((fraction * n as f64).ceil() as usize).clamp(1, n),
                self.seed.wrapping_add(attempt as u64),
            );
            let lowered = (((rel * (1.0 - slack)) * sample.len() as f64).floor() as Support).max(1);
            let local = EclatMiner::default().mine(&sample, lowered);
            let candidates: Vec<Itemset> = local.iter().map(|(s, _)| s.to_itemset()).collect();
            if let Some(result) =
                self.verify(&db, &vertical, transactions.len(), min_support, &candidates)
            {
                return (result, outcome);
            }
            // Border failure: draw a larger sample and retry. The slack
            // stays put — lowering the threshold further inflates the
            // candidate set (and its border) combinatorially, while a
            // bigger sample shrinks the miss probability directly; this
            // is Toivonen's own escalation.
            outcome.border_violations += 1;
            fraction = (fraction * 2.0).min(1.0);
        }
        outcome.fell_back = true;
        (
            EclatMiner::default().mine(transactions, min_support),
            outcome,
        )
    }
    /// Counts `candidates ∪ Bd⁻(candidates)` exactly; returns the final
    /// result when no border itemset is frequent, `None` on a miss.
    fn verify(
        &self,
        db: &TransactionDb,
        vertical: &VerticalDb,
        num_transactions: usize,
        min_support: Support,
        candidates: &[Itemset],
    ) -> Option<MiningResult> {
        let candidate_set: FxHashSet<&Itemset> = candidates.iter().collect();

        let border = negative_border(candidates, &candidate_set, db);

        let count = |itemset: &Itemset| -> Support {
            let mut items = itemset.items().iter();
            let first = *items.next().expect("non-empty itemset");
            let mut tids = vertical.tids(first).to_vec();
            for &item in items {
                if tids.is_empty() {
                    break;
                }
                tids = VerticalDb::intersect(&tids, vertical.tids(item));
            }
            tids.len() as Support
        };

        // Any frequent border itemset falsifies the sample.
        for b in &border {
            if count(b) >= min_support {
                return None;
            }
        }
        let mut result = MiningResult::builder(min_support, num_transactions as u64);
        for c in candidates {
            let support = count(c);
            if support >= min_support {
                result.push(c.items().iter().copied(), support);
            }
        }
        Some(result.finish())
    }
}

/// Deterministic sample without replacement: a seeded partial
/// Fisher–Yates over the index space.
fn deterministic_sample(transactions: &[Vec<Item>], size: usize, seed: u64) -> Vec<Vec<Item>> {
    // A tiny splitmix-style PRNG keeps `rand` out of the non-dev
    // dependency set of this crate.
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut idx: Vec<usize> = (0..transactions.len()).collect();
    let size = size.min(idx.len());
    for i in 0..size {
        let j = i + (next() as usize) % (idx.len() - i);
        idx.swap(i, j);
    }
    idx[..size]
        .iter()
        .map(|&i| transactions[i].clone())
        .collect()
}

/// `Bd⁻(S)`: itemsets not in `S` whose immediate subsets are all in `S`.
/// Level 1 is every database item missing from `S`; level `k ≥ 2` comes
/// from the Apriori join of `S_{k−1}`. Public so the approximate-serving
/// layer can exhibit and test border violations directly.
pub fn negative_border(
    candidates: &[Itemset],
    candidate_set: &FxHashSet<&Itemset>,
    db: &TransactionDb,
) -> Vec<Itemset> {
    let mut border = Vec::new();
    let in_s = |items: &[Item]| {
        let probe = Itemset::from_sorted(items.to_vec());
        candidate_set.contains(&probe)
    };

    // Level 1.
    for item in db.items() {
        if !in_s(&[item]) {
            border.push(Itemset::from_sorted(vec![item]));
        }
    }

    // Levels >= 2: join candidates of size k−1.
    let mut by_size: Vec<Vec<&Itemset>> = Vec::new();
    for c in candidates {
        let k = c.len();
        if by_size.len() < k {
            by_size.resize_with(k, Vec::new);
        }
        by_size[k - 1].push(c);
    }
    for level in &mut by_size {
        level.sort();
    }
    for level in &by_size {
        for (i, a) in level.iter().enumerate() {
            for b in &level[i + 1..] {
                let (ia, ib) = (a.items(), b.items());
                let k = ia.len();
                if ia[..k - 1] != ib[..k - 1] {
                    break; // sorted: once prefixes diverge, no more joins
                }
                let mut y = ia.to_vec();
                y.push(ib[k - 1]);
                if in_s(&y) {
                    continue;
                }
                // All immediate subsets in S?
                let all_in = (0..y.len()).all(|drop| {
                    let sub: Vec<Item> = y
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != drop)
                        .map(|(_, &v)| v)
                        .collect();
                    in_s(&sub)
                });
                if all_in {
                    border.push(Itemset::from_sorted(y));
                }
            }
        }
    }
    border.sort();
    border.dedup();
    border
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_core::miner::BruteForceMiner;
    use proptest::prelude::*;

    fn structured_db(n: usize) -> Vec<Vec<Item>> {
        (0..n as u32)
            .map(|i| {
                let mut t = vec![i % 5, 5 + (i % 3)];
                if i % 2 == 0 {
                    t.push(8);
                }
                if i % 7 == 0 {
                    t.push(9 + (i % 4));
                }
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect()
    }

    #[test]
    fn exact_on_structured_database() {
        let db = structured_db(500);
        let expect = BruteForceMiner.mine(&db, 25);
        let got = SamplingMiner::default().mine(&db, 25);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn exact_even_with_hostile_parameters() {
        // A tiny, heavily slack-free sample forces border failures and the
        // retry/fallback path; the answer must still be exact.
        let db = structured_db(300);
        let miner = SamplingMiner {
            sample_fraction: 0.05,
            support_slack: 0.0,
            seed: 1,
            max_attempts: 2,
        };
        let expect = BruteForceMiner.mine(&db, 10);
        let got = miner.mine(&db, 10);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn small_databases_short_circuit() {
        let db = vec![vec![1, 2], vec![1, 2], vec![2, 3]];
        let expect = BruteForceMiner.mine(&db, 2);
        let got = SamplingMiner::default().mine(&db, 2);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn negative_border_of_toy_family() {
        // S = {1}, {2}, {3}, {1,2}, {1,3} over items {1,2,3,4}:
        // border = {4} (missing item), {2,3} (both subsets in S).
        // {1,2,3} is NOT in the border: its subset {2,3} ∉ S.
        let candidates: Vec<Itemset> = [vec![1], vec![2], vec![3], vec![1, 2], vec![1, 3]]
            .into_iter()
            .map(Itemset::from_sorted)
            .collect();
        let set: FxHashSet<&Itemset> = candidates.iter().collect();
        let db = TransactionDb::new(vec![vec![1, 2, 3, 4]]);
        let border = negative_border(&candidates, &set, &db);
        assert_eq!(
            border,
            vec![
                Itemset::from_sorted(vec![2, 3]),
                Itemset::from_sorted(vec![4])
            ]
        );
    }

    #[test]
    fn outcome_reports_the_path_taken() {
        // Healthy parameters: a verified sample, no fallback.
        let db = structured_db(500);
        let (got, outcome) = SamplingMiner::default().mine_with_outcome(&db, 25);
        assert_eq!(got.sorted(), BruteForceMiner.mine(&db, 25).sorted());
        assert!(outcome.attempts >= 1);
        assert!(!outcome.fell_back);
        // Hostile parameters: border violations force the exact fallback.
        let miner = SamplingMiner {
            sample_fraction: 0.02,
            support_slack: 0.0,
            seed: 3,
            max_attempts: 1,
        };
        let (got, outcome) = miner.mine_with_outcome(&db, 2);
        assert_eq!(got.sorted(), BruteForceMiner.mine(&db, 2).sorted());
        if outcome.fell_back {
            assert_eq!(outcome.border_violations, outcome.attempts);
        }
        // Small databases short-circuit and say so.
        let tiny = vec![vec![1, 2], vec![2, 3]];
        let (_, outcome) = SamplingMiner::default().mine_with_outcome(&tiny, 1);
        assert!(outcome.fell_back);
        assert_eq!(outcome.attempts, 0);
    }

    #[test]
    fn sampling_is_deterministic() {
        let db = structured_db(400);
        let a = SamplingMiner::default().mine(&db, 20);
        let b = SamplingMiner::default().mine(&db, 20);
        assert_eq!(a.sorted(), b.sorted());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Sampling is exact on random databases regardless of parameters
        /// (the border check + fallback guarantee).
        #[test]
        fn prop_always_exact(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..10, 1..6),
                40..120,
            ),
            min_support in 2u64..8,
            fraction in 0.1f64..0.9,
            seed in 0u64..1000,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let miner = SamplingMiner {
                sample_fraction: fraction,
                support_slack: 0.2,
                seed,
                max_attempts: 2,
            };
            let expect = BruteForceMiner.mine(&db, min_support);
            let got = miner.mine(&db, min_support);
            prop_assert_eq!(got.sorted(), expect.sorted());
        }
    }
}
