//! # plt — Positional Lexicographic Tree
//!
//! Facade crate re-exporting the whole PLT workspace: the core structure
//! and miners ([`core`]), data substrates ([`data`]), baseline miners
//! ([`baselines`]), parallel mining ([`parallel`]), compressed storage
//! ([`compress`]), association-rule generation ([`rules`]),
//! closed/maximal mining ([`closed`]), a Lossy Counting stream sketch
//! ([`stream`]), sharded incremental mining ([`shard`]), durable
//! segmented storage ([`store`]), the online query service ([`serve`]),
//! the query language and planner ([`query`]), the approximate
//! answering tier ([`approx`]) and the observability layer ([`obs`]).
//!
//! See the workspace `README.md` for a guided tour and `DESIGN.md` for the
//! paper-to-module map.

pub use plt_approx as approx;
pub use plt_baselines as baselines;
pub use plt_closed as closed;
pub use plt_compress as compress;
pub use plt_core as core;
pub use plt_data as data;
pub use plt_obs as obs;
pub use plt_parallel as parallel;
pub use plt_query as query;
pub use plt_rules as rules;
pub use plt_serve as serve;
pub use plt_shard as shard;
pub use plt_store as store;
pub use plt_stream as stream;

pub use plt_core::{
    ArenaPool, ConditionalMiner, Itemset, Mine, Miner, MiningResult, Plt, PositionVector,
    RankPolicy, Support, TopDownMiner,
};
pub use plt_shard::{MineStrategy, MinerBuilder, ShardedPipeline};
