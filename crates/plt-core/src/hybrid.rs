//! The hybrid miner — the coupling the paper's conclusion sketches.
//!
//! §6 positions the two approaches at opposite ends: conditional mining
//! "is best used when the data is dense and a high support count is
//! required", while top-down suits "situations where a very low minimum
//! support is provided … *or, if it coupled with a strategy with which to
//! compute the frequency and high level*". The hybrid realises that
//! coupling: it runs the conditional recursion (anti-monotone pruning at
//! the top, where it pays), but when a conditional database becomes small
//! enough that nearly its whole subset lattice is going to be frequent
//! anyway, it finishes that branch with one top-down propagation instead
//! of recursing — the same role FP-growth's single-path shortcut plays,
//! but applicable to *any* small conditional structure, not just paths.
//!
//! The switch criterion is an upper bound on the top-down cost:
//! `Σ_vectors 2^len ≤ budget`. Correctness does not depend on the budget —
//! both finishes compute exact supports — so the knob is purely a
//! performance trade (ablated in experiment X4's spirit; tested for
//! equivalence at every extreme here).

use std::collections::BTreeMap;

use crate::construct::{construct, ConstructOptions};
use crate::hash::FxHashMap;
use crate::item::{Item, Rank, Support};
use crate::miner::{Miner, MiningResult, ResultBuilder};
use crate::plt::Plt;
use crate::posvec::PositionVector;
use crate::ranking::RankPolicy;
use crate::topdown::all_subset_supports_of;

/// Working representation of a (conditional) PLT during mining: vectors
/// grouped by their sum. `BTreeMap` gives us "maximum rank present" and
/// descending iteration for free; the inner map deduplicates identical
/// vectors exactly as PLT partitions do. This is the literal rendering of
/// Algorithm 3's structure, independent of the arena layout the
/// conditional miner runs on.
type SumGroups = BTreeMap<Rank, FxHashMap<PositionVector, Support>>;

/// The hybrid conditional/top-down miner.
///
/// # Examples
///
/// ```
/// use plt_core::{HybridMiner, ConditionalMiner, Miner};
///
/// let db = vec![vec![1, 2, 3], vec![1, 2], vec![2, 3], vec![1, 2, 3]];
/// let hybrid = HybridMiner::default().mine(&db, 2);
/// let conditional = ConditionalMiner::default().mine(&db, 2);
/// assert_eq!(hybrid.sorted(), conditional.sorted());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HybridMiner {
    /// Item-order policy for the underlying PLT.
    pub rank_policy: RankPolicy,
    /// Branches whose estimated top-down cost (`Σ 2^len` over distinct
    /// vectors) is at most this are finished by propagation. `0` degrades
    /// to pure conditional mining; `u64::MAX` top-downs everything the
    /// lattice guard allows.
    pub topdown_budget: u64,
}

impl Default for HybridMiner {
    fn default() -> Self {
        HybridMiner {
            rank_policy: RankPolicy::Lexicographic,
            topdown_budget: 2_048,
        }
    }
}

/// The PLT-level entry point: the whole run (conditional recursion plus any
/// top-down finishes) is reported as one `mine/hybrid` span and the
/// result's ordering as `mine/finish`, with the budget surfaced as a gauge.
impl crate::miner::Mine for HybridMiner {
    fn mine(&self, plt: &Plt, obs: &mut plt_obs::Obs) -> MiningResult {
        let t0 = obs.start();
        let mut groups: SumGroups = SumGroups::new();
        for (v, e) in plt.iter() {
            *groups
                .entry(e.sum)
                .or_default()
                .entry(v.to_owned())
                .or_insert(0) += e.freq;
        }
        let mut out = MiningResult::builder(plt.min_support(), plt.num_transactions());
        let mut suffix = Vec::new();
        self.mine_groups(groups, plt, &mut suffix, &mut out);
        obs.gauge("hybrid.topdown_budget", self.topdown_budget);
        obs.stop("mine/hybrid", t0);
        obs.time("mine/finish", || out.finish())
    }
}

impl HybridMiner {
    /// Conditional recursion with the top-down finish.
    fn mine_groups(
        &self,
        mut groups: SumGroups,
        plt: &Plt,
        suffix: &mut Vec<Rank>,
        result: &mut ResultBuilder,
    ) {
        // Top-down finish for the whole current structure when cheap:
        // propagate every subset's frequency once and emit the frequent
        // ones. Valid exactly at the entry of a (conditional) structure,
        // before any folding has mixed partial counts in.
        if topdown_cost(&groups, self.topdown_budget).is_some() {
            self.finish_topdown(&groups, plt, suffix, result);
            return;
        }

        while let Some((&j, _)) = groups.iter().next_back() {
            let group = groups.remove(&j).expect("key just observed");
            let support: Support = group.values().sum();

            let mut conditional = Vec::new();
            for (v, f) in group {
                if let Some(prefix) = v.parent() {
                    *groups
                        .entry(prefix.sum())
                        .or_default()
                        .entry(prefix.clone())
                        .or_insert(0) += f;
                    conditional.push((prefix, f));
                }
            }
            if support < plt.min_support() {
                continue;
            }
            suffix.push(j);
            let ranking = plt.ranking();
            result.push(suffix.iter().map(|&r| ranking.item(r)), support);
            let cplt = conditional_construct(&conditional, plt.min_support());
            if !cplt.is_empty() {
                self.mine_groups(cplt, plt, suffix, result);
            }
            suffix.pop();
        }
    }

    /// One top-down propagation over a (conditional) structure: emits
    /// every frequent subset extended by the current suffix.
    fn finish_topdown(
        &self,
        groups: &SumGroups,
        plt: &Plt,
        suffix: &[Rank],
        result: &mut ResultBuilder,
    ) {
        let ranking = plt.ranking();
        let entries = groups
            .values()
            .flat_map(|m| m.iter().map(|(v, &f)| (&**v, f)));
        let table = all_subset_supports_of(entries);
        for (v, support) in table.iter() {
            if support >= plt.min_support() {
                let ranks = v.ranks_iter().chain(suffix.iter().copied());
                result.push(ranks.map(|r| ranking.item(r)), support);
            }
        }
    }
}

/// Builds a conditional PLT (as sum-groups) from prefix vectors, filtering
/// ranks that are infrequent within the conditional database. Ranks remain
/// global — positions are recomputed as deltas over the surviving ranks, so
/// every lemma keeps holding inside conditional structures.
fn conditional_construct(
    conditional: &[(PositionVector, Support)],
    min_support: Support,
) -> SumGroups {
    // Scan 1 (local): rank frequencies within CD_j.
    let mut counts: FxHashMap<Rank, Support> = FxHashMap::default();
    for (v, f) in conditional {
        for r in v.ranks_iter() {
            *counts.entry(r).or_insert(0) += f;
        }
    }

    // Scan 2 (local): filter and re-encode.
    let mut groups: SumGroups = BTreeMap::new();
    let mut kept: Vec<Rank> = Vec::new();
    for (v, f) in conditional {
        kept.clear();
        kept.extend(v.ranks_iter().filter(|r| counts[r] >= min_support));
        if kept.is_empty() {
            continue;
        }
        let filtered = PositionVector::from_ranks(&kept).expect("strictly increasing ranks");
        let sum = filtered.sum();
        *groups.entry(sum).or_default().entry(filtered).or_insert(0) += f;
    }
    groups
}

/// Upper-bounds the top-down cost `Σ 2^len`; `None` when it exceeds
/// `cap` (early exit so huge structures don't even finish the sum).
fn topdown_cost(groups: &SumGroups, cap: u64) -> Option<u64> {
    let mut cost: u64 = 0;
    for m in groups.values() {
        for v in m.keys() {
            let len = v.len() as u32;
            if len >= 63 {
                return None;
            }
            cost = cost.saturating_add(1u64 << len);
            if cost > cap {
                return None;
            }
        }
    }
    Some(cost)
}

impl Miner for HybridMiner {
    fn name(&self) -> &'static str {
        "plt-hybrid"
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditional::ConditionalMiner;
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

    #[test]
    fn matches_brute_force_at_every_budget() {
        let expect = BruteForceMiner.mine(&table1(), 2);
        for budget in [0, 1, 16, 2_048, u64::MAX] {
            let miner = HybridMiner {
                topdown_budget: budget,
                ..Default::default()
            };
            let got = miner.mine(&table1(), 2);
            assert_eq!(got.sorted(), expect.sorted(), "budget {budget}");
        }
    }

    #[test]
    fn zero_budget_equals_pure_conditional() {
        let miner = HybridMiner {
            topdown_budget: 0,
            ..Default::default()
        };
        let a = miner.mine(&table1(), 2);
        let b = ConditionalMiner::default().mine(&table1(), 2);
        assert_eq!(a.sorted(), b.sorted());
    }

    #[test]
    fn dense_database_with_finish() {
        // Dense, short transactions: the finish should trigger high in the
        // recursion and still be exact.
        let db: Vec<Vec<Item>> = (0..200u32)
            .map(|i| (0..8u32).filter(|&b| (i >> b) & 1 == 1 || b < 3).collect())
            .collect();
        let expect = BruteForceMiner.mine(&db, 5);
        let got = HybridMiner::default().mine(&db, 5);
        assert_eq!(got.sorted(), expect.sorted());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The hybrid agrees with brute force for random budgets.
        #[test]
        fn prop_matches_brute_force(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..12, 1..6),
                1..35,
            ),
            min_support in 1u64..5,
            budget in 0u64..10_000,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let expect = BruteForceMiner.mine(&db, min_support);
            let miner = HybridMiner {
                topdown_budget: budget,
                ..Default::default()
            };
            let got = miner.mine(&db, min_support);
            prop_assert_eq!(got.sorted(), expect.sorted());
        }
    }
}
