//! # plt-shard — sharded, incrementally updatable mining
//!
//! The paper's sum property (Lemma 4.1.1: the sum of a position vector is
//! the rank of its **last** item) partitions the frequent-itemset family
//! cleanly: every frequent itemset has a well-defined last (highest) rank,
//! and the itemsets whose last rank is `j` are mined entirely from item
//! `j`'s conditional database — the prefixes of the vectors that contain
//! rank `j`. Group contiguous rank ranges into **shards** and the full
//! answer becomes a disjoint union of per-shard fragments.
//!
//! That decomposition makes exact incremental mining cheap: a transaction
//! with projected ranks `R` can only change the support of itemsets whose
//! last rank is in `R` (an itemset is contained in the transaction only if
//! *all* its ranks — in particular its last — are in `R`). So a batch of
//! inserts/removals dirties exactly the shards its ranks fall into, and a
//! rebuild re-mines the dirty shards only — in parallel via rayon, with a
//! per-worker [`plt_core::ArenaPool`] — then merges fragments into a
//! snapshot. Clean fragments are reused byte-for-byte.
//!
//! The one global dependency is the item ranking. [`ShardedPipeline`]
//! maintains exact item counts across deltas and detects **drift**: when
//! the set of frequent items changes, ranks (and therefore shard
//! assignments and stored vectors) are no longer comparable, so the
//! pipeline re-ranks and marks every shard dirty — incremental mining
//! degrades to a full rebuild exactly when a full re-mine from scratch
//! would change the vocabulary, and matches it bit-for-bit either way.
//!
//! The crate also hosts [`MinerBuilder`], the single configuration path
//! (strategy, rank policy, minimum support, shard count) through
//! which `plt-cli` and `plt-serve` construct every PLT miner — as a
//! [`plt_core::Mine`] trait object, a transaction-level
//! [`plt_core::Miner`], or a [`ShardedPipeline`].

pub mod builder;
pub mod pipeline;

pub use builder::{MineStrategy, MinerBuilder};
pub use pipeline::{Delta, RebuildReport, ShardConfig, ShardedPipeline, DEFAULT_SHARD_COUNT};
