//! Algorithm 1 — PLT construction (§4.2).
//!
//! Two database scans, exactly as in FP-growth-family construction:
//!
//! 1. count item supports, keep the items meeting `min_support`, and assign
//!    ranks (the `Rank` function);
//! 2. project every transaction onto its frequent items, encode the rank
//!    sequence as a position vector, and insert it into the
//!    length-partitioned table, incrementing the frequency when the vector
//!    already exists.
//!
//! The paper additionally suggests (§5, "for reasons of efficiency and
//! correctness, we may include the first step above in the positional tree
//! construction process") inserting all proper **prefixes** of each vector
//! during construction when the top-down miner will be used: vector
//! `[1,1,1,1]` is then also added as `[1,1,1]`, `[1,1]` and `[1]`. The
//! [`ConstructOptions::with_prefixes`] flag enables this.

use crate::error::Result;
use crate::item::{Item, Support};
use crate::plt::Plt;
use crate::ranking::{ItemRanking, RankPolicy};

/// Knobs for [`construct`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConstructOptions {
    /// Item-order policy for the `Rank` function.
    pub rank_policy: RankPolicy,
    /// Insert every proper prefix of each transaction vector alongside the
    /// vector itself (the paper's part-A-at-construction optimisation for
    /// the top-down approach). Leave off for the conditional miner.
    pub with_prefixes: bool,
}

impl ConstructOptions {
    /// Options for feeding the conditional miner (no prefixes).
    pub fn conditional() -> Self {
        ConstructOptions::default()
    }

    /// Options for feeding the top-down miner (prefixes inserted during the
    /// second scan, as the paper recommends).
    pub fn top_down() -> Self {
        ConstructOptions {
            with_prefixes: true,
            ..Default::default()
        }
    }
}

/// Runs Algorithm 1 over a transaction database.
///
/// `transactions` may be any slice of item-slice-likes; items within a
/// transaction may appear in any order but must be distinct.
pub fn construct<T: AsRef<[Item]>>(
    transactions: &[T],
    min_support: Support,
    options: ConstructOptions,
) -> Result<Plt> {
    construct_obs(
        transactions,
        min_support,
        options,
        &mut plt_obs::Obs::none(),
    )
}

/// [`construct`] with observability: the two scans are reported as
/// `construct/rank` and `construct/encode` spans, plus gauges for the
/// sizes that determine downstream mining cost.
pub fn construct_obs<T: AsRef<[Item]>>(
    transactions: &[T],
    min_support: Support,
    options: ConstructOptions,
    obs: &mut plt_obs::Obs,
) -> Result<Plt> {
    // Scan 1: frequent items and ranks.
    let ranking = obs.time("construct/rank", || {
        ItemRanking::scan(transactions, min_support, options.rank_policy)
    });
    let mut plt = Plt::new(ranking, min_support)?;

    // Scan 2: encode and insert.
    let t0 = obs.start();
    for t in transactions {
        insert_one(&mut plt, t.as_ref(), options.with_prefixes)?;
    }
    obs.stop("construct/encode", t0);
    obs.gauge("construct.frequent_items", plt.ranking().len() as u64);
    obs.gauge("construct.vectors", plt.num_vectors() as u64);
    obs.gauge("construct.transactions", plt.num_transactions());
    Ok(plt)
}

/// Algorithm 1's second-scan step for one transaction, with or without
/// its prefixes; parallel construction runs it per chunk.
pub fn insert_one(plt: &mut Plt, transaction: &[Item], with_prefixes: bool) -> Result<()> {
    if with_prefixes {
        plt.insert_with_prefixes(transaction)?;
    } else {
        plt.insert_transaction(transaction)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Rank;
    use crate::posvec::PositionVector;

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
    fn construct_without_prefixes_matches_figure3() {
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        assert_eq!(plt.num_vectors(), 5);
        assert_eq!(plt.vector_frequency(&pv(&[1, 1, 1])), 2);
    }

    #[test]
    fn construct_with_prefixes_adds_prefix_vectors() {
        let plt = construct(&table1(), 2, ConstructOptions::top_down()).unwrap();
        // [1,1,1,1] contributes prefixes [1],[1,1],[1,1,1]; ABD adds
        // [1],[1,1]; etc. Check a few hand-computed frequencies:
        // [1] (= {A}) as a prefix appears for every transaction starting at
        // rank 1: t1,t2,t3,t4 → freq 4.
        assert_eq!(plt.vector_frequency(&pv(&[1])), 4);
        // [1,1] (= {A,B}) prefix of t1..t4 → 4.
        assert_eq!(plt.vector_frequency(&pv(&[1, 1])), 4);
        // [1,1,1] (= {A,B,C}): t1,t2 full vectors + prefix of t3 → 3.
        assert_eq!(plt.vector_frequency(&pv(&[1, 1, 1])), 3);
        // [2] (= {B}) prefix of t5 only → 1 (B's true support is counted by
        // the miners, not by prefix frequency).
        assert_eq!(plt.vector_frequency(&pv(&[2])), 1);
        // [3] (= {C}) prefix of t6 → 1.
        assert_eq!(plt.vector_frequency(&pv(&[3])), 1);
    }

    #[test]
    fn prefix_mode_rejects_duplicates_too() {
        let err = construct(&[vec![1, 1]], 1, ConstructOptions::top_down()).unwrap_err();
        assert_eq!(err, crate::error::PltError::DuplicateItem { item: 1 });
    }

    #[test]
    fn empty_database_constructs_empty_plt() {
        let db: Vec<Vec<Item>> = vec![];
        let plt = construct(&db, 1, ConstructOptions::conditional()).unwrap();
        assert_eq!(plt.num_vectors(), 0);
        assert_eq!(plt.max_len(), 0);
        assert!(plt.ranking().is_empty());
    }

    #[test]
    fn rank_policy_flows_through() {
        let plt = construct(
            &table1(),
            2,
            ConstructOptions {
                rank_policy: RankPolicy::FrequencyDescending,
                with_prefixes: false,
            },
        )
        .unwrap();
        // Under frequency-descending, B (support 5) holds rank 1.
        assert_eq!(plt.ranking().item(1), 1);
    }
}
