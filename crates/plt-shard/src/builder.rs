//! `MinerBuilder` — the one configuration path for every PLT miner.
//!
//! `plt-cli` and `plt-serve` used to construct miners through scattered
//! per-type constructors (`ConditionalMiner::with_policy`,
//! `TopDownMiner::with_policy`, …). The builder replaces those call sites:
//! pick a [`MineStrategy`], tune the knobs, and take the result as a
//! [`Mine`] trait object (PLT-level), a [`Miner`] (transaction-level), or
//! a full [`ShardedPipeline`] for incremental workloads.

use plt_core::error::Result;
use plt_core::item::{Item, Support};
use plt_core::ranking::RankPolicy;
use plt_core::{ConditionalMiner, Mine, Miner, TopDownMiner};
use plt_parallel::ParallelPltMiner;

use crate::pipeline::{ShardConfig, ShardedPipeline, DEFAULT_SHARD_COUNT};

/// Which mining strategy a built miner runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MineStrategy {
    /// Bottom-up conditional-database mining (the paper's Figure 5 flow).
    #[default]
    Conditional,
    /// Top-down propagation over the full subset lattice.
    TopDown,
    /// Per-item parallel conditional mining via rayon.
    Parallel,
}

impl MineStrategy {
    /// Parses a strategy name as used by `plt-cli` (`conditional`,
    /// `topdown`, `parallel`).
    pub fn parse(name: &str) -> Option<MineStrategy> {
        match name {
            "conditional" => Some(MineStrategy::Conditional),
            "topdown" => Some(MineStrategy::TopDown),
            "parallel" => Some(MineStrategy::Parallel),
            _ => None,
        }
    }

    /// The canonical name (inverse of [`parse`](Self::parse)).
    pub fn name(&self) -> &'static str {
        match self {
            MineStrategy::Conditional => "conditional",
            MineStrategy::TopDown => "topdown",
            MineStrategy::Parallel => "parallel",
        }
    }
}

/// Builder for every PLT miner configuration.
#[derive(Debug, Clone, Copy)]
pub struct MinerBuilder {
    strategy: MineStrategy,
    rank_policy: RankPolicy,
    min_support: Support,
    shard_count: usize,
}

impl Default for MinerBuilder {
    fn default() -> MinerBuilder {
        MinerBuilder {
            strategy: MineStrategy::Conditional,
            rank_policy: RankPolicy::Lexicographic,
            min_support: 2,
            shard_count: DEFAULT_SHARD_COUNT,
        }
    }
}

impl MinerBuilder {
    /// Starts from the defaults: conditional strategy, lexicographic
    /// ranking, minimum support 2, 16 shards.
    pub fn new() -> MinerBuilder {
        MinerBuilder::default()
    }

    /// Selects the mining strategy.
    pub fn strategy(mut self, strategy: MineStrategy) -> MinerBuilder {
        self.strategy = strategy;
        self
    }

    /// Selects the item-ordering policy.
    pub fn rank_policy(mut self, rank_policy: RankPolicy) -> MinerBuilder {
        self.rank_policy = rank_policy;
        self
    }

    /// Sets the absolute minimum support of the pipeline side:
    /// [`shard_config`](Self::shard_config) and
    /// [`build_pipeline`](Self::build_pipeline) read it. The miners that
    /// [`build`](Self::build) and [`build_miner`](Self::build_miner)
    /// return take theirs per call.
    pub fn min_support(mut self, min_support: Support) -> MinerBuilder {
        self.min_support = min_support;
        self
    }

    /// Sets the shard count for [`build_pipeline`](Self::build_pipeline).
    pub fn shard_count(mut self, shard_count: usize) -> MinerBuilder {
        self.shard_count = shard_count;
        self
    }

    /// The PLT-level miner as a [`Mine`] trait object.
    pub fn build(&self) -> Box<dyn Mine> {
        match self.strategy {
            MineStrategy::Conditional => Box::new(ConditionalMiner::with_policy(self.rank_policy)),
            MineStrategy::TopDown => Box::new(TopDownMiner {
                rank_policy: self.rank_policy,
                ..TopDownMiner::default()
            }),
            MineStrategy::Parallel => Box::new(ParallelPltMiner::with_policy(self.rank_policy)),
        }
    }

    /// The transaction-level view of the same configuration as a [`Miner`]
    /// trait object (takes `(&[Vec<Item>], min_support)` directly).
    pub fn build_miner(&self) -> Box<dyn Miner> {
        match self.strategy {
            MineStrategy::Conditional => Box::new(ConditionalMiner::with_policy(self.rank_policy)),
            MineStrategy::TopDown => Box::new(TopDownMiner {
                rank_policy: self.rank_policy,
                ..TopDownMiner::default()
            }),
            MineStrategy::Parallel => Box::new(ParallelPltMiner::with_policy(self.rank_policy)),
        }
    }

    /// The pipeline-side configuration this builder describes.
    pub fn shard_config(&self, capacity: Option<usize>) -> ShardConfig {
        ShardConfig {
            shard_count: self.shard_count,
            min_support: self.min_support,
            rank_policy: self.rank_policy,
            capacity,
            defer_merge: false,
        }
    }

    /// A [`ShardedPipeline`] over `initial`, mined and ready to serve.
    pub fn build_pipeline(
        &self,
        initial: &[Vec<Item>],
        capacity: Option<usize>,
    ) -> Result<ShardedPipeline> {
        ShardedPipeline::new(initial, self.shard_config(capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_core::ranking::ItemRanking;
    use plt_core::Plt;

    fn sample() -> Vec<Vec<Item>> {
        vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3],
        ]
    }

    fn sample_plt(min_support: Support) -> Plt {
        let ranking = ItemRanking::scan(&sample(), min_support, RankPolicy::Lexicographic);
        let mut plt = Plt::new(ranking, min_support).unwrap();
        for t in sample() {
            plt.insert_transaction(&t).unwrap();
        }
        plt
    }

    #[test]
    fn all_strategies_agree_through_the_builder() {
        let plt = sample_plt(2);
        let reference = MinerBuilder::new().build().mine_plt(&plt);
        for strategy in [MineStrategy::TopDown, MineStrategy::Parallel] {
            let miner = MinerBuilder::new().strategy(strategy).build();
            let got = miner.mine_plt(&plt);
            assert_eq!(
                reference.sorted(),
                got.sorted(),
                "{} disagreed with conditional",
                strategy.name()
            );
        }
    }

    #[test]
    fn transaction_level_view_agrees_with_plt_level() {
        let plt_level = MinerBuilder::new().build().mine_plt(&sample_plt(2));
        let tx_level = MinerBuilder::new()
            .min_support(2)
            .build_miner()
            .mine(&sample(), 2);
        assert_eq!(plt_level.sorted(), tx_level.sorted());
    }

    #[test]
    fn strategy_names_round_trip() {
        for strategy in [
            MineStrategy::Conditional,
            MineStrategy::TopDown,
            MineStrategy::Parallel,
        ] {
            assert_eq!(MineStrategy::parse(strategy.name()), Some(strategy));
        }
        assert_eq!(MineStrategy::parse("bogus"), None);
    }

    #[test]
    fn builder_pipeline_respects_shard_count() {
        let pipeline = MinerBuilder::new()
            .min_support(2)
            .shard_count(2)
            .build_pipeline(&sample(), None)
            .unwrap();
        assert_eq!(pipeline.shard_count(), 2);
    }
}
