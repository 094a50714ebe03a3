//! # plt-simd — bitset kernels for the vertical baselines
//!
//! The vertical baselines (`plt-baselines::eclat`, Apriori's bitset
//! probe) spend their time in one loop shape: bitset intersection with
//! popcount. This crate packages that shape as five kernels, each one
//! plain loop over `u64` words, straight-line so LLVM's auto-vectorizer
//! can widen it. The differential suite (`tests/kernel_equivalence.rs`
//! at the workspace root) checks every kernel against a per-bit
//! reference.
//!
//! The kernels are not `#[inline]`. Inlined into Eclat's join loop they
//! made X14's bitset Eclat about a quarter slower (median of 20 runs on
//! one core of a 2-vCPU Xeon, T10.I4.D10000 and ZIPF1.1.D10000).
//!
//! ## Counters
//!
//! Every intersection kernel bumps a thread-local counter.
//! [`KernelStats::snapshot_thread`] + [`KernelStats::since`] bracket a
//! mining call so callers (X14, the Eclat tests) can read
//! `bitmap_intersections` without any atomics on the hot path.

use std::cell::Cell;

thread_local! {
    /// Per-thread intersection counter.
    static BITMAP_INTERSECTIONS: Cell<u64> = const { Cell::new(0) };
}

/// Thread-local kernel counters: how many bitset intersections ran.
/// Snapshot before and after a mining call and diff with
/// [`KernelStats::since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Bitset AND/ANDNOT intersections.
    pub bitmap_intersections: u64,
}

impl KernelStats {
    /// The calling thread's cumulative counters.
    pub fn snapshot_thread() -> KernelStats {
        KernelStats {
            bitmap_intersections: BITMAP_INTERSECTIONS.with(Cell::get),
        }
    }

    /// Counter deltas since an earlier snapshot on the same thread.
    pub fn since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            bitmap_intersections: self.bitmap_intersections - earlier.bitmap_intersections,
        }
    }
}

#[inline]
fn note_intersection() {
    BITMAP_INTERSECTIONS.with(|c| c.set(c.get() + 1));
}

/// Total set bits across `words`.
pub fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

/// Popcount of `a AND b` without materialising the intersection — the
/// support-only bitset probe.
///
/// # Panics
/// When the word slices differ in length.
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "bitset word counts must match");
    note_intersection();
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x & y).count_ones() as u64)
        .sum()
}

/// Writes `a AND b` into `out` (cleared first) and returns its popcount —
/// the Eclat bitset intersection.
///
/// # Panics
/// When the word slices differ in length.
pub fn and_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u64 {
    assert_eq!(a.len(), b.len(), "bitset word counts must match");
    note_intersection();
    out.clear();
    out.reserve(a.len());
    let mut ones = 0u64;
    for (&x, &y) in a.iter().zip(b) {
        let w = x & y;
        ones += w.count_ones() as u64;
        out.push(w);
    }
    ones
}

/// Folds `b` into `acc` in place (`acc &= b`) and returns the resulting
/// popcount — the multi-way intersection step where the accumulator row
/// is reused across items.
///
/// # Panics
/// When the word slices differ in length.
pub fn and_assign_popcount(acc: &mut [u64], b: &[u64]) -> u64 {
    assert_eq!(acc.len(), b.len(), "bitset word counts must match");
    note_intersection();
    let mut ones = 0u64;
    for (x, &y) in acc.iter_mut().zip(b) {
        *x &= y;
        ones += x.count_ones() as u64;
    }
    ones
}

/// Writes `a AND NOT b` into `out` (cleared first) and returns its
/// popcount — the dEclat diffset primitive on bitsets.
///
/// # Panics
/// When the word slices differ in length.
pub fn andnot_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u64 {
    assert_eq!(a.len(), b.len(), "bitset word counts must match");
    note_intersection();
    out.clear();
    out.reserve(a.len());
    let mut ones = 0u64;
    for (&x, &y) in a.iter().zip(b) {
        let w = x & !y;
        ones += w.count_ones() as u64;
        out.push(w);
    }
    ones
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_kernels_basic() {
        assert_eq!(popcount(&[]), 0);
        assert_eq!(popcount(&[0b101, 0]), 2);
        assert_eq!(and_popcount(&[0b110], &[0b011]), 1);
        let mut w = Vec::new();
        assert_eq!(and_into(&[0b110], &[0b011], &mut w), 1);
        assert_eq!(w, vec![0b010]);
        assert_eq!(andnot_into(&[0b110], &[0b011], &mut w), 1);
        assert_eq!(w, vec![0b100]);
        let mut acc = vec![0b110];
        assert_eq!(and_assign_popcount(&mut acc, &[0b011]), 1);
        assert_eq!(acc, vec![0b010]);
    }

    #[test]
    fn stats_bracket_kernel_calls() {
        let before = KernelStats::snapshot_thread();
        let mut out = Vec::new();
        let _ = popcount(&[u64::MAX]);
        let _ = and_popcount(&[u64::MAX], &[0b1011]);
        let _ = and_into(&[u64::MAX], &[0b1011], &mut out);
        let _ = andnot_into(&[u64::MAX], &[0b1011], &mut out);
        let _ = and_assign_popcount(&mut [u64::MAX], &[0b1011]);
        let delta = KernelStats::snapshot_thread().since(&before);
        // Popcount intersects nothing; the four two-row kernels count.
        assert_eq!(delta.bitmap_intersections, 4);
    }

    #[test]
    #[should_panic(expected = "word counts")]
    fn and_rejects_mismatched_lengths() {
        let _ = and_popcount(&[1, 2], &[3]);
    }
}
