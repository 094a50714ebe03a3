//! # plt-approx — the approximate answering tier
//!
//! [`IndicatorSketch`] trades bounded error for latency and memory on the
//! serving path: a deterministic Bernoulli sample of the serving window
//! with explicit ε/δ parameters. It answers `SUPPORT OF {X} APPROX` in
//! `O(sketch)` without touching the snapshot, with a stated absolute
//! error bound derived from Hoeffding's inequality
//! (`m = ⌈ln(2/δ)/(2ε²)⌉` samples, memory independent of the window
//! size). It implements [`plt_query::SupportSketch`], so attaching one to
//! a query source makes the planner's `sketch_probe` operator eligible
//! for `APPROX`-tier support queries.
//!
//! ```
//! use plt_approx::{IndicatorSketch, SketchConfig};
//! use plt_query::SupportSketch;
//!
//! let mut sk = IndicatorSketch::new(SketchConfig {
//!     epsilon: 0.1,
//!     delta: 0.01,
//!     capacity: 100,
//!     seed: 7,
//! });
//! for t in [&[1u32, 2, 3][..], &[1, 2], &[2, 3], &[1, 2]] {
//!     sk.observe(t);
//! }
//! let (support, bound) = sk.estimate(&[1, 2]);
//! assert!(support.abs_diff(3) <= bound);
//! ```

pub mod sketch;

pub use sketch::{Estimate, IndicatorSketch, SketchConfig};
