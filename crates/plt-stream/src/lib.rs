//! # plt-stream — streaming frequency sketch
//!
//! The paper pitches PLT as "a solution when large databases are being
//! mined"; the modern form of that problem is data that never stops
//! arriving. [`lossy::LossyCounter`] is an **approximate** frequency
//! sketch over the unbounded stream (Manku & Motwani's Lossy Counting,
//! VLDB'02) with its deterministic guarantees: no false negatives at
//! support `s`, undercounts bounded by `εN`, memory `O((1/ε)·log(εN))`.
//! `plt-approx` answers singleton supports from it.
//!
//! The sketch flags *which items* are worth exact treatment. Exact
//! itemset supports over the recent past come from `plt-shard`'s
//! `ShardedPipeline` with a window capacity — the window the serving
//! builder maintains.

pub mod lossy;

pub use lossy::LossyCounter;
