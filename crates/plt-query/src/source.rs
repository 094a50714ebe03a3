//! [`SupportSketch`]: the approximate-tier hook a
//! [`Snapshot`](crate::Snapshot) may carry. `plt-approx` provides the
//! production implementation.

use plt_core::item::{Item, Support};

/// An approximate support sketch a [`Snapshot`](crate::Snapshot) may
/// attach. The `SketchProbe` physical operator answers `SUPPORT OF`
/// through this trait in O(sketch) without touching the snapshot index
/// or PLT.
pub trait SupportSketch: std::fmt::Debug + Send + Sync {
    /// `(estimate, bound)`: the estimated support of `items` and the
    /// guaranteed absolute error bound, both in transactions —
    /// `|estimate − true| ≤ bound` with the sketch's configured
    /// confidence.
    fn estimate(&self, items: &[Item]) -> (Support, Support);

    /// The guaranteed error fraction of the window size (per-answer
    /// bounds are `⌈epsilon·N⌉` or tighter). The planner prices the
    /// probe out of `APPROX WITHIN e` queries with `e < epsilon`.
    fn epsilon(&self) -> f64;

    /// Rows one probe touches — the planner's cost proxy.
    fn cost(&self) -> usize;

    /// Resident memory in bytes (stats and bench reporting).
    fn memory_bytes(&self) -> usize;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A deterministic test sketch: counts exactly over a held copy of
    /// the database, then undercounts by one (capped at the stated
    /// bound) so approximate answers are distinguishable from exact
    /// ones while staying within the bound.
    #[derive(Debug)]
    pub(crate) struct TestSketch {
        pub db: Vec<Vec<Item>>,
        pub cost: usize,
        pub epsilon: f64,
    }

    impl SupportSketch for TestSketch {
        fn estimate(&self, items: &[Item]) -> (Support, Support) {
            let n = self.db.len() as u64;
            let truth = self
                .db
                .iter()
                .filter(|t| items.iter().all(|i| t.contains(i)))
                .count() as u64;
            let bound = (self.epsilon * n as f64).ceil() as u64;
            (truth.saturating_sub(bound.min(1)), bound)
        }

        fn epsilon(&self) -> f64 {
            self.epsilon
        }

        fn cost(&self) -> usize {
            self.cost
        }

        fn memory_bytes(&self) -> usize {
            self.db.iter().map(|t| t.len() * 4).sum()
        }
    }
}
