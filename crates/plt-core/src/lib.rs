//! # plt-core — Positional Lexicographic Tree
//!
//! Core implementation of the **Positional Lexicographic Tree (PLT)**, the
//! frequent-itemset-mining structure proposed by Boukerche & Samarah
//! (*"PLT — Positional Lexicographic Tree: A New Structure for Mining
//! Frequent Itemsets"*, ICPP 2006).
//!
//! ## The idea
//!
//! Fix a total order over the frequent items of a transactional database and
//! assign each item a 1-based [`Rank`] that preserves that order. A
//! transaction, restricted to its frequent items and sorted by rank, is then
//! encoded as a [`PositionVector`]: the sequence of *rank deltas*
//!
//! ```text
//! pos(x_i) = Rank(x_i) − Rank(x_{i−1}),      Rank(null) = 0.
//! ```
//!
//! Three properties of this encoding (the paper's Lemmas 4.1.1–4.1.3) carry
//! the whole mining machinery:
//!
//! 1. prefix sums of the vector recover the ranks (Lemma 4.1.1);
//! 2. the vector uniquely identifies the itemset (Lemma 4.1.2);
//! 3. every subset of the itemset is obtained by dropping a suffix of the
//!    vector and replacing runs of consecutive positions by their sums
//!    (Lemma 4.1.3, generalised) — in particular the vector **sum** is the
//!    rank of the *last* item, which makes extracting an item's conditional
//!    database a single-pass filter.
//!
//! The [`Plt`] structure is the multiset of these vectors partitioned by
//! length, each vector carrying its frequency and cached sum. Two miners are
//! provided:
//!
//! * [`topdown`] — the paper's Algorithm 2: propagate frequencies from every
//!   vector to all of its subset vectors (no anti-monotone pruning; intended
//!   for dense data at very low minimum support);
//! * [`conditional`] — the paper's Algorithm 3: a pattern-growth miner that
//!   peels items off by descending rank, folding prefixes back into the
//!   structure, and recursing on conditional PLTs.
//!
//! ## Quick start
//!
//! ```
//! use plt_core::{Plt, RankPolicy, conditional::ConditionalMiner, miner::Miner};
//!
//! // Table 1 of the paper (items as integers: A=0, B=1, C=2, D=3, E=4, F=5).
//! let db: Vec<Vec<u32>> = vec![
//!     vec![0, 1, 2],
//!     vec![0, 1, 2],
//!     vec![0, 1, 2, 3],
//!     vec![0, 1, 3, 4],
//!     vec![1, 2, 3],
//!     vec![2, 3, 5],
//! ];
//! let result = ConditionalMiner::default().mine(&db, 2);
//! assert_eq!(result.support(&[0, 1, 2]), Some(3)); // {A,B,C} appears 3 times
//! assert_eq!(result.support(&[0, 2, 3]), None);    // {A,C,D} support 1 < 2
//! ```

pub mod arena;
pub mod conditional;
/// Bitset kernel layer — re-export of the [`plt_simd`] crate.
///
/// The baselines' bitset intersections call these kernels (the arena
/// engine runs plain fused loops and calls none); each kernel is one
/// plain loop, and the intersection counter lives here. See `DESIGN.md`
/// §11.
pub mod kernels {
    pub use plt_simd::*;
}
pub mod construct;
pub mod error;
pub mod hash;
pub mod item;
pub mod miner;
pub mod plt;
pub mod posvec;
pub mod query;
pub mod ranking;
pub mod subset;
pub mod topdown;
pub mod tree;

pub use arena::{ArenaPool, MineStats};
pub use conditional::ConditionalMiner;
pub use error::{PltError, Result};
pub use item::{Item, Itemset, ItemsetRef, Rank, Support};
pub use miner::{Mine, Miner, MiningResult, ResultBuilder};
pub use plt::{Plt, PltEntry};
pub use posvec::PositionVector;
pub use query::SupportOracle;
pub use ranking::{ItemRanking, RankPolicy};
pub use topdown::TopDownMiner;
