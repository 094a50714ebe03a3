//! The seeded workloads behind the X-experiments.
//!
//! Each function is deterministic; the returned `Vec<Vec<Item>>` is the
//! concrete type the `Miner` trait consumes. Sizes are chosen so the full
//! suite completes on a laptop; the `experiments` binary's `--full` flag
//! scales them up.

use plt_data::gen::basket::{BasketConfig, BasketGenerator};
use plt_data::gen::dense::{DenseConfig, DenseGenerator};
use plt_data::gen::quest::{QuestConfig, QuestGenerator};
use plt_data::gen::zipf::{ZipfConfig, ZipfGenerator};
use plt_data::transaction::Item;

/// Sparse Quest data (`T10.I4.D{n}`) — the X1/X3/X5/X8 workload.
pub fn sparse(n: usize) -> Vec<Vec<Item>> {
    QuestGenerator::new(QuestConfig::t10i4(n))
        .generate()
        .into_transactions()
}

/// Smaller, denser Quest variant for quick runs.
pub fn sparse_small(n: usize) -> Vec<Vec<Item>> {
    QuestGenerator::new(QuestConfig::t5i2(n))
        .generate()
        .into_transactions()
}

/// Dense chess-like data — the X2/X4/X6 workload. `num_items` stays small
/// because the frequent-itemset lattice explodes with it.
pub fn dense(n: usize, num_items: u32) -> Vec<Vec<Item>> {
    DenseGenerator::new(DenseConfig {
        num_transactions: n,
        num_items,
        density_hi: 0.9,
        density_lo: 0.25,
        seed: 0x000d_ecaf,
    })
    .generate()
    .into_transactions()
}

/// Retail/click-log style data with power-law item popularity — the X10
/// workload.
pub fn zipf(n: usize, exponent: f64) -> Vec<Vec<Item>> {
    ZipfGenerator::new(ZipfConfig {
        num_transactions: n,
        exponent,
        ..Default::default()
    })
    .generate()
    .into_transactions()
}

/// Market-basket data with named products (examples + X7).
pub fn baskets(n: usize) -> Vec<Vec<Item>> {
    BasketGenerator::new(BasketConfig {
        num_baskets: n,
        ..Default::default()
    })
    .generate()
    .into_transactions()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_sized() {
        assert_eq!(sparse(500).len(), 500);
        assert_eq!(sparse(500), sparse(500));
        assert_eq!(dense(200, 12).len(), 200);
        assert_eq!(baskets(100).len(), 100);
        assert_eq!(sparse_small(50).len(), 50);
    }

    #[test]
    fn zipf_is_deterministic() {
        assert_eq!(zipf(100, 1.1), zipf(100, 1.1));
        assert_eq!(zipf(100, 1.1).len(), 100);
    }

    #[test]
    fn dense_universe_is_bounded() {
        let db = dense(300, 10);
        assert!(db.iter().flatten().all(|&i| i < 10));
    }
}
