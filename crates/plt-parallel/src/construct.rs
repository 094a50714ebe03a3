//! Parallel PLT construction.
//!
//! Both of Algorithm 1's scans are associative folds, so they parallelise
//! by chunk:
//!
//! * scan 1 — item counting: each chunk folds a local `item → count` map;
//!   maps merge by summing (Rayon `fold` + `reduce`);
//! * scan 2 — vector insertion: each chunk builds a local [`Plt`] over the
//!   shared ranking; PLTs merge with [`Plt::absorb`] (frequencies sum).
//!
//! The merged structure holds the same rows as the sequential one: a
//! partition is a set of distinct vectors with summed frequencies, so
//! insertion order changes only the order of its rows.

use rayon::prelude::*;

use plt_core::construct::{insert_one, ConstructOptions};
use plt_core::error::Result;
use plt_core::hash::FxHashMap;
use plt_core::item::{Item, Support};
use plt_core::plt::Plt;
use plt_core::ranking::ItemRanking;

/// Transactions per parallel chunk. Large enough to amortise the local-map
/// allocations, small enough to load-balance skewed databases.
const CHUNK: usize = 2_048;

/// Parallel Algorithm 1. Semantically identical to
/// [`plt_core::construct::construct`]; errors (duplicate items) surface
/// from whichever chunk hits them first.
pub fn par_construct(
    transactions: &[Vec<Item>],
    min_support: Support,
    options: ConstructOptions,
) -> Result<Plt> {
    // Scan 1: parallel item counting.
    let counts = transactions
        .par_chunks(CHUNK)
        .fold(FxHashMap::<Item, Support>::default, |mut acc, chunk| {
            for t in chunk {
                for &item in t {
                    *acc.entry(item).or_insert(0) += 1;
                }
            }
            acc
        })
        .reduce(FxHashMap::default, |mut a, b| {
            for (item, c) in b {
                *a.entry(item).or_insert(0) += c;
            }
            a
        });
    let frequent: Vec<(Item, Support)> = counts
        .into_iter()
        .filter(|&(_, s)| s >= min_support)
        .collect();
    let ranking = ItemRanking::from_frequent_items(frequent, options.rank_policy);

    // Scan 2: parallel chunked insertion, merged by absorption.
    let plt = transactions
        .par_chunks(CHUNK)
        .map(|chunk| -> Result<Plt> {
            let mut local = Plt::new(ranking.clone(), min_support)?;
            for t in chunk {
                insert_one(&mut local, t, options.with_prefixes)?;
            }
            Ok(local)
        })
        .try_reduce(
            || Plt::new(ranking.clone(), min_support).expect("validated min support"),
            |mut a, b| {
                a.absorb(b);
                Ok(a)
            },
        )?;
    Ok(plt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_core::construct::construct;

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
    fn parallel_equals_sequential_small() {
        for opts in [
            ConstructOptions::conditional(),
            ConstructOptions::top_down(),
        ] {
            let seq = construct(&table1(), 2, opts).unwrap();
            let par = par_construct(&table1(), 2, opts).unwrap();
            assert_eq!(par.num_transactions(), seq.num_transactions());
            assert_eq!(par.num_vectors(), seq.num_vectors());
            for (v, e) in seq.iter() {
                assert_eq!(par.vector_frequency(v), e.freq, "{v}");
            }
        }
    }

    #[test]
    fn parallel_equals_sequential_across_chunk_boundaries() {
        // More transactions than one chunk to force a real merge.
        let db: Vec<Vec<Item>> = (0..3 * CHUNK)
            .map(|i| {
                let a = (i % 7) as Item;
                let b = 7 + (i % 5) as Item;
                let c = 12 + (i % 3) as Item;
                vec![a, b, c]
            })
            .collect();
        let seq = construct(&db, 50, ConstructOptions::conditional()).unwrap();
        let par = par_construct(&db, 50, ConstructOptions::conditional()).unwrap();
        assert_eq!(par.num_vectors(), seq.num_vectors());
        assert_eq!(par.total_frequency(), seq.total_frequency());
        for (v, e) in seq.iter() {
            assert_eq!(par.vector_frequency(v), e.freq);
        }
    }

    #[test]
    fn duplicate_items_error_out() {
        let db = vec![vec![1, 1, 2]];
        assert!(par_construct(&db, 1, ConstructOptions::conditional()).is_err());
        assert!(par_construct(&db, 1, ConstructOptions::top_down()).is_err());
    }

    #[test]
    fn empty_database() {
        let plt = par_construct(&[], 1, ConstructOptions::conditional()).unwrap();
        assert_eq!(plt.num_vectors(), 0);
    }
}
