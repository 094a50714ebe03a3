//! # plt-simd — data-parallel kernels for the mining hot paths
//!
//! Position-vector decoding and the vertical baselines
//! (`plt-baselines::eclat`, Apriori's bitset probe) spend their time in
//! two loop shapes: the Lemma 4.1.1 prefix-sum scan that recovers ranks
//! from position deltas, and bitset intersection with popcount. This
//! crate packages those shapes as kernels with two backends:
//!
//! * **scalar** — portable `u64`-word code, always compiled, written so
//!   the auto-vectorizer has straight-line loops to chew on. This path is
//!   the *differential oracle*: every dispatched kernel is tested against
//!   [`scalar`] (`tests/kernel_equivalence.rs` at the workspace root).
//! * **simd** — explicit AVX2 lanes behind the `simd` cargo feature. The
//!   portable `std::simd` API is still nightly-only, so the stable
//!   `core::arch::x86_64` intrinsics render the same dispatch seam; when
//!   `std::simd` stabilises only the backend module changes.
//!
//! ## Backend selection
//!
//! The CPU picks: every dispatched call runs on [`active_backend`], which
//! is SIMD when the backend is compiled in *and* the CPU reports AVX2,
//! scalar otherwise. Detection runs once and is cached. There is no
//! override; code that needs the other path (the differential suites,
//! X14's microcells) calls [`scalar`] directly.
//!
//! ## Dispatch counters
//!
//! Every kernel call bumps a thread-local counter for the backend that
//! ran, and the bitset kernels additionally count intersections.
//! [`KernelStats::snapshot_thread`] + [`KernelStats::since`] bracket a
//! mining call so callers (X14, the Eclat tests) can read
//! `simd_calls` / `scalar_calls` / `bitmap_intersections` without any
//! atomics on the hot path.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable word-at-a-time code; always available.
    Scalar,
    /// Explicit vector lanes; requires the `simd` feature and a CPU with
    /// AVX2.
    Simd,
}

impl Backend {
    /// Canonical name, as emitted in metrics.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Simd => "simd",
        }
    }
}

/// True when the vector backend is compiled into this build (the `simd`
/// feature on an x86_64 target).
pub const fn simd_compiled() -> bool {
    cfg!(all(feature = "simd", target_arch = "x86_64"))
}

/// True when the vector backend is compiled in *and* the running CPU
/// supports it. Detection runs once and is cached.
pub fn simd_available() -> bool {
    // 0 = unknown, 1 = no, 2 = yes.
    static DETECTED: AtomicU8 = AtomicU8::new(0);
    match DETECTED.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let yes = detect_simd();
            DETECTED.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn detect_simd() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn detect_simd() -> bool {
    false
}

thread_local! {
    /// Per-thread dispatch counters.
    static SIMD_CALLS: Cell<u64> = const { Cell::new(0) };
    static SCALAR_CALLS: Cell<u64> = const { Cell::new(0) };
    static BITMAP_INTERSECTIONS: Cell<u64> = const { Cell::new(0) };
}

/// The backend every dispatched kernel call runs on: [`Backend::Simd`]
/// when [`simd_available`], [`Backend::Scalar`] otherwise.
#[inline]
pub fn active_backend() -> Backend {
    if simd_available() {
        Backend::Simd
    } else {
        Backend::Scalar
    }
}

/// Thread-local dispatch counters: how many kernel calls ran on each
/// backend, and how many of them were bitset intersections. Snapshot
/// before and after a mining call and diff with [`KernelStats::since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Kernel calls that ran on the vector backend.
    pub simd_calls: u64,
    /// Kernel calls that ran on the scalar backend.
    pub scalar_calls: u64,
    /// Bitset AND/ANDNOT intersections (counted whichever backend ran).
    pub bitmap_intersections: u64,
}

impl KernelStats {
    /// The calling thread's cumulative counters.
    pub fn snapshot_thread() -> KernelStats {
        KernelStats {
            simd_calls: SIMD_CALLS.with(Cell::get),
            scalar_calls: SCALAR_CALLS.with(Cell::get),
            bitmap_intersections: BITMAP_INTERSECTIONS.with(Cell::get),
        }
    }

    /// Counter deltas since an earlier snapshot on the same thread.
    pub fn since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            simd_calls: self.simd_calls - earlier.simd_calls,
            scalar_calls: self.scalar_calls - earlier.scalar_calls,
            bitmap_intersections: self.bitmap_intersections - earlier.bitmap_intersections,
        }
    }
}

#[inline]
fn note(backend: Backend) {
    match backend {
        Backend::Simd => SIMD_CALLS.with(|c| c.set(c.get() + 1)),
        Backend::Scalar => SCALAR_CALLS.with(|c| c.set(c.get() + 1)),
    }
}

#[inline]
fn note_intersection() {
    BITMAP_INTERSECTIONS.with(|c| c.set(c.get() + 1));
}

// ---------------------------------------------------------------------------
// Dispatch layer: one public function per kernel, routing to the active
// backend and bumping the dispatch counters.
// ---------------------------------------------------------------------------

/// Inclusive prefix sums of `deltas` into `out` (cleared first) — the
/// Lemma 4.1.1 rank recovery: `out[i] = deltas[0] + … + deltas[i]`.
#[inline]
pub fn prefix_sum_into(deltas: &[u32], out: &mut Vec<u32>) {
    let backend = active_backend();
    note(backend);
    match backend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // Safety: `active_backend` only returns Simd when AVX2 was detected.
        Backend::Simd => unsafe { avx2::prefix_sum_into(deltas, out) },
        _ => scalar::prefix_sum_into(deltas, out),
    }
}

/// Total set bits across `words`.
#[inline]
pub fn popcount(words: &[u64]) -> u64 {
    let backend = active_backend();
    note(backend);
    match backend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // Safety: AVX2 detected.
        Backend::Simd => unsafe { avx2::popcount(words) },
        _ => scalar::popcount(words),
    }
}

/// Popcount of `a AND b` without materialising the intersection — the
/// support-only bitset probe.
///
/// # Panics
/// When the word slices differ in length.
#[inline]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "bitset word counts must match");
    let backend = active_backend();
    note(backend);
    note_intersection();
    match backend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // Safety: AVX2 detected; lengths checked above.
        Backend::Simd => unsafe { avx2::and_popcount(a, b) },
        _ => scalar::and_popcount(a, b),
    }
}

/// Writes `a AND b` into `out` (cleared first) and returns its popcount —
/// the Eclat bitset intersection.
///
/// # Panics
/// When the word slices differ in length.
#[inline]
pub fn and_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u64 {
    assert_eq!(a.len(), b.len(), "bitset word counts must match");
    let backend = active_backend();
    note(backend);
    note_intersection();
    match backend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // Safety: AVX2 detected; lengths checked above.
        Backend::Simd => unsafe { avx2::and_into(a, b, out) },
        _ => scalar::and_into(a, b, out),
    }
}

/// Folds `b` into `acc` in place (`acc &= b`) and returns the resulting
/// popcount — the multi-way intersection step where the accumulator row
/// is reused across items.
///
/// # Panics
/// When the word slices differ in length.
#[inline]
pub fn and_assign_popcount(acc: &mut [u64], b: &[u64]) -> u64 {
    assert_eq!(acc.len(), b.len(), "bitset word counts must match");
    let backend = active_backend();
    note(backend);
    note_intersection();
    match backend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // Safety: AVX2 detected; lengths checked above.
        Backend::Simd => unsafe { avx2::and_assign_popcount(acc, b) },
        _ => scalar::and_assign_popcount(acc, b),
    }
}

/// Writes `a AND NOT b` into `out` (cleared first) and returns its
/// popcount — the dEclat diffset primitive on bitsets.
///
/// # Panics
/// When the word slices differ in length.
#[inline]
pub fn andnot_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u64 {
    assert_eq!(a.len(), b.len(), "bitset word counts must match");
    let backend = active_backend();
    note(backend);
    note_intersection();
    match backend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // Safety: AVX2 detected; lengths checked above.
        Backend::Simd => unsafe { avx2::andnot_into(a, b, out) },
        _ => scalar::andnot_into(a, b, out),
    }
}

// ---------------------------------------------------------------------------
// Scalar backend — the differential oracle. Plain loops over words,
// shaped so LLVM's auto-vectorizer can widen the ones that are widenable
// (everything except the inherently serial prefix sum).
// ---------------------------------------------------------------------------

/// The always-compiled portable backend. Public so the differential
/// suites and X14 can call it directly, bypassing dispatch.
pub mod scalar {
    /// Inclusive prefix sums (serial dependency chain; kept simple).
    pub fn prefix_sum_into(deltas: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.reserve(deltas.len());
        let mut acc = 0u32;
        for &d in deltas {
            acc = acc.wrapping_add(d);
            out.push(acc);
        }
    }

    /// Total set bits.
    pub fn popcount(words: &[u64]) -> u64 {
        words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Popcount of the intersection, no materialisation.
    pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x & y).count_ones() as u64)
            .sum()
    }

    /// Materialised intersection + popcount.
    pub fn and_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u64 {
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

    /// In-place intersection (`acc &= b`) + popcount.
    pub fn and_assign_popcount(acc: &mut [u64], b: &[u64]) -> u64 {
        let mut ones = 0u64;
        for (x, &y) in acc.iter_mut().zip(b) {
            *x &= y;
            ones += x.count_ones() as u64;
        }
        ones
    }

    /// Materialised difference (`a AND NOT b`) + popcount.
    pub fn andnot_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u64 {
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
}

// ---------------------------------------------------------------------------
// AVX2 backend. Every function is `#[target_feature(enable = "avx2,popcnt")]`
// and must only be reached through dispatch after runtime detection.
// ---------------------------------------------------------------------------

/// Explicit-lane backend: AVX2 + POPCNT. Only compiled under the `simd`
/// feature on x86_64; only *called* after [`simd_available`] says yes.
/// Public so the differential suites can pit it against [`scalar`]
/// directly.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub mod avx2 {
    use core::arch::x86_64::*;

    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn prefix_sum_into(deltas: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.reserve(deltas.len());
        let dst = out.as_mut_ptr();
        let mut written = 0usize;
        // 4-lane inclusive scan with a carried broadcast: two shift-adds
        // build the scan inside the register, the carry folds the running
        // total in, and lane 3 becomes the next carry.
        let mut carry = _mm_setzero_si128();
        let chunks = deltas.chunks_exact(4);
        let rem = chunks.remainder();
        for chunk in chunks {
            let mut x = _mm_loadu_si128(chunk.as_ptr() as *const __m128i);
            x = _mm_add_epi32(x, _mm_slli_si128(x, 4));
            x = _mm_add_epi32(x, _mm_slli_si128(x, 8));
            x = _mm_add_epi32(x, carry);
            _mm_storeu_si128(dst.add(written) as *mut __m128i, x);
            carry = _mm_shuffle_epi32(x, 0b11_11_11_11);
            written += 4;
        }
        let mut acc = _mm_cvtsi128_si32(carry) as u32;
        for &d in rem {
            acc = acc.wrapping_add(d);
            *dst.add(written) = acc;
            written += 1;
        }
        out.set_len(written);
    }

    /// # Safety
    /// Requires AVX2 + POPCNT at runtime.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn popcount(words: &[u64]) -> u64 {
        // `count_ones` lowers to the POPCNT instruction inside this
        // target_feature scope; four-word strides keep the loads wide.
        let mut total = 0u64;
        let chunks = words.chunks_exact(4);
        let rem = chunks.remainder();
        for c in chunks {
            total += c[0].count_ones() as u64
                + c[1].count_ones() as u64
                + c[2].count_ones() as u64
                + c[3].count_ones() as u64;
        }
        for &w in rem {
            total += w.count_ones() as u64;
        }
        total
    }

    /// # Safety
    /// Requires AVX2 + POPCNT at runtime; `a.len() == b.len()`.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len();
        let mut total = 0u64;
        let mut i = 0usize;
        let mut lanes = [0u64; 4];
        while i + 4 <= n {
            let x = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let y = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            let w = _mm256_and_si256(x, y);
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, w);
            total += lanes[0].count_ones() as u64
                + lanes[1].count_ones() as u64
                + lanes[2].count_ones() as u64
                + lanes[3].count_ones() as u64;
            i += 4;
        }
        while i < n {
            total += (a[i] & b[i]).count_ones() as u64;
            i += 1;
        }
        total
    }

    /// # Safety
    /// Requires AVX2 + POPCNT at runtime; `a.len() == b.len()`.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn and_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u64 {
        let n = a.len();
        out.clear();
        out.reserve(n);
        let dst = out.as_mut_ptr();
        let mut total = 0u64;
        let mut i = 0usize;
        let mut lanes = [0u64; 4];
        while i + 4 <= n {
            let x = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let y = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            let w = _mm256_and_si256(x, y);
            _mm256_storeu_si256(dst.add(i) as *mut __m256i, w);
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, w);
            total += lanes[0].count_ones() as u64
                + lanes[1].count_ones() as u64
                + lanes[2].count_ones() as u64
                + lanes[3].count_ones() as u64;
            i += 4;
        }
        while i < n {
            let w = a[i] & b[i];
            total += w.count_ones() as u64;
            *dst.add(i) = w;
            i += 1;
        }
        out.set_len(n);
        total
    }

    /// # Safety
    /// Requires AVX2 + POPCNT at runtime; `acc.len() == b.len()`.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn and_assign_popcount(acc: &mut [u64], b: &[u64]) -> u64 {
        let n = acc.len();
        let mut total = 0u64;
        let mut i = 0usize;
        let mut lanes = [0u64; 4];
        while i + 4 <= n {
            let x = _mm256_loadu_si256(acc.as_ptr().add(i) as *const __m256i);
            let y = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            let w = _mm256_and_si256(x, y);
            _mm256_storeu_si256(acc.as_mut_ptr().add(i) as *mut __m256i, w);
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, w);
            total += lanes[0].count_ones() as u64
                + lanes[1].count_ones() as u64
                + lanes[2].count_ones() as u64
                + lanes[3].count_ones() as u64;
            i += 4;
        }
        while i < n {
            acc[i] &= b[i];
            total += acc[i].count_ones() as u64;
            i += 1;
        }
        total
    }

    /// # Safety
    /// Requires AVX2 + POPCNT at runtime; `a.len() == b.len()`.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn andnot_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u64 {
        let n = a.len();
        out.clear();
        out.reserve(n);
        let dst = out.as_mut_ptr();
        let mut total = 0u64;
        let mut i = 0usize;
        let mut lanes = [0u64; 4];
        while i + 4 <= n {
            let x = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let y = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            // `_mm256_andnot_si256(y, x)` computes `(NOT y) AND x`.
            let w = _mm256_andnot_si256(y, x);
            _mm256_storeu_si256(dst.add(i) as *mut __m256i, w);
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, w);
            total += lanes[0].count_ones() as u64
                + lanes[1].count_ones() as u64
                + lanes[2].count_ones() as u64
                + lanes[3].count_ones() as u64;
            i += 4;
        }
        while i < n {
            let w = a[i] & !b[i];
            total += w.count_ones() as u64;
            *dst.add(i) = w;
            i += 1;
        }
        out.set_len(n);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn active_backend_is_the_cpu_detection() {
        let want = if simd_available() {
            Backend::Simd
        } else {
            Backend::Scalar
        };
        assert_eq!(active_backend(), want);
        assert!(simd_compiled() || !simd_available());
    }

    #[test]
    fn stats_bracket_kernel_calls() {
        let before = KernelStats::snapshot_thread();
        let mut out = Vec::new();
        prefix_sum_into(&[1, 2, 3], &mut out);
        assert_eq!(out, vec![1, 3, 6]);
        let _ = and_popcount(&[u64::MAX], &[0b1011]);
        // The scalar oracle is called directly and counts nothing.
        let _ = scalar::and_popcount(&[u64::MAX], &[0b1011]);
        let delta = KernelStats::snapshot_thread().since(&before);
        assert_eq!(delta.simd_calls + delta.scalar_calls, 2);
        let on_active = match active_backend() {
            Backend::Simd => delta.simd_calls,
            Backend::Scalar => delta.scalar_calls,
        };
        assert_eq!(on_active, 2);
        assert_eq!(delta.bitmap_intersections, 1);
    }

    #[test]
    fn scalar_kernels_basic() {
        let mut out = Vec::new();
        scalar::prefix_sum_into(&[], &mut out);
        assert!(out.is_empty());
        scalar::prefix_sum_into(&[5], &mut out);
        assert_eq!(out, vec![5]);
        scalar::prefix_sum_into(&[1, 2, 3], &mut out);
        assert_eq!(out, vec![1, 3, 6]);
        assert_eq!(scalar::popcount(&[0b101, 0]), 2);
        assert_eq!(scalar::and_popcount(&[0b110], &[0b011]), 1);
        let mut w = Vec::new();
        assert_eq!(scalar::and_into(&[0b110], &[0b011], &mut w), 1);
        assert_eq!(w, vec![0b010]);
        assert_eq!(scalar::andnot_into(&[0b110], &[0b011], &mut w), 1);
        assert_eq!(w, vec![0b100]);
        let mut acc = vec![0b110];
        assert_eq!(scalar::and_assign_popcount(&mut acc, &[0b011]), 1);
        assert_eq!(acc, vec![0b010]);
    }

    #[test]
    #[should_panic(expected = "word counts")]
    fn and_rejects_mismatched_lengths() {
        let _ = and_popcount(&[1, 2], &[3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Dispatch output equals the scalar oracle for every kernel, on
        /// whatever backend this build and CPU resolve to.
        #[test]
        fn prop_dispatch_equals_scalar(
            deltas in proptest::collection::vec(1u32..1000, 0..64),
            words_a in proptest::collection::vec(proptest::any::<u64>(), 0..40),
        ) {
            let mut got = Vec::new();
            let mut want = Vec::new();
            prefix_sum_into(&deltas, &mut got);
            scalar::prefix_sum_into(&deltas, &mut want);
            prop_assert_eq!(&got, &want);

            let words_b: Vec<u64> = words_a.iter().map(|w| w.rotate_left(17)).collect();
            prop_assert_eq!(popcount(&words_a), scalar::popcount(&words_a));
            prop_assert_eq!(
                and_popcount(&words_a, &words_b),
                scalar::and_popcount(&words_a, &words_b)
            );
            let mut out_d = Vec::new();
            let mut out_s = Vec::new();
            let pd = and_into(&words_a, &words_b, &mut out_d);
            let ps = scalar::and_into(&words_a, &words_b, &mut out_s);
            prop_assert_eq!(pd, ps);
            prop_assert_eq!(&out_d, &out_s);
            let pd = andnot_into(&words_a, &words_b, &mut out_d);
            let ps = scalar::andnot_into(&words_a, &words_b, &mut out_s);
            prop_assert_eq!(pd, ps);
            prop_assert_eq!(&out_d, &out_s);
            let mut acc_d = words_a.clone();
            let mut acc_s = words_a.clone();
            let pd = and_assign_popcount(&mut acc_d, &words_b);
            let ps = scalar::and_assign_popcount(&mut acc_s, &words_b);
            prop_assert_eq!(pd, ps);
            prop_assert_eq!(acc_d, acc_s);
        }
    }
}
