//! # plt-parallel — partitioned parallel mining
//!
//! The paper's closing claim (§6): "PLT provides partition criteria that
//! makes it easy to partition the mining process into several separate
//! tasks; each can be accomplished separately." This crate realises that
//! claim on shared-memory parallelism (ICPP being a parallel-processing
//! venue):
//!
//! * [`projection`] — one pass over the PLT yields, for every item `j`,
//!   its support and its conditional database (the prefix of every stored
//!   vector at `j`'s position). These per-item units are completely
//!   independent.
//! * [`ParallelPltMiner`] — fans the units out over a Rayon thread pool;
//!   each task runs the arena conditional miner
//!   ([`plt_core::ArenaPool::mine_conditional`]) on its own projection
//!   and results are merged (they are disjoint: task `j` produces exactly
//!   the itemsets whose highest-ranked item is `j`).
//! * [`construct`] — parallel two-scan PLT construction: both the item
//!   count and the vector insertion scans fold per-chunk partial
//!   structures that merge associatively.
//! * [`ParallelEclatMiner`] — a parallel baseline for the X5 speedup
//!   comparison, fanning out the first-level equivalence classes.
//! * [`run_with_threads`] — pins work to a pool of an exact size, for the
//!   thread-scaling sweeps.

pub mod construct;
pub mod eclat;
pub mod miner;
pub mod projection;

pub use construct::par_construct;
pub use eclat::ParallelEclatMiner;
pub use miner::ParallelPltMiner;
pub use projection::{project_all, project_marked, Projections};

/// Runs `f` on a dedicated Rayon pool with exactly `threads` workers.
/// All `par_iter` work spawned inside `f` stays on that pool — the knob
/// experiment X5 turns.
pub fn run_with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build thread pool")
        .install(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_with_threads_controls_pool_size() {
        let n = run_with_threads(3, rayon::current_num_threads);
        assert_eq!(n, 3);
        let n = run_with_threads(1, rayon::current_num_threads);
        assert_eq!(n, 1);
    }
}
