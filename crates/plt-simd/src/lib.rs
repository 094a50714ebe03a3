//! # plt-simd — data-parallel kernels for the mining hot paths
//!
//! The vertical baselines (`plt-baselines::eclat`, Apriori's bitset
//! probe) and position-vector decoding spend their time in a handful of
//! loop shapes: the Lemma 4.1.1 prefix-sum scan that recovers ranks from
//! position deltas, gathered support accumulation, and TID-set
//! intersection. This crate packages those shapes as kernels with
//! two interchangeable backends:
//!
//! * **scalar** — portable `u64`-word code, always compiled, written so
//!   the auto-vectorizer has straight-line loops to chew on. This path is
//!   the *differential oracle*: every SIMD result is property-tested
//!   against it (`tests/kernel_equivalence.rs` at the workspace root).
//! * **simd** — explicit AVX2 lanes behind the `simd` cargo feature,
//!   selected at runtime only when the CPU reports `avx2` support. The
//!   portable `std::simd` API is still nightly-only, so the stable
//!   `core::arch::x86_64` intrinsics render the same dispatch seam; when
//!   `std::simd` stabilises only the backend module changes.
//!
//! ## Backend selection
//!
//! Resolution order for every kernel call:
//!
//! 1. the **thread** override ([`set_thread_backend`]) — what the
//!    differential tests and X14 pin per run;
//! 2. the **process** override ([`set_global_backend`]) — what
//!    `plt-mine --kernel simd|scalar` sets;
//! 3. **auto**: SIMD if compiled in *and* detected at runtime, scalar
//!    otherwise.
//!
//! Forcing [`Backend::Simd`] on a build or CPU without it silently falls
//! back to scalar — the force is a preference, never an unsound promise.
//!
//! ## Dispatch counters
//!
//! Every kernel call bumps a thread-local counter for the backend that
//! actually ran, and the bitset kernels additionally count intersections.
//! [`KernelStats::snapshot_thread`] + [`KernelStats::since`] bracket a
//! mining call so callers (X14, the Eclat tests) can read
//! `simd_calls` / `scalar_calls` / `bitmap_intersections` without any
//! atomics on the hot path.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable word-at-a-time code; always available.
    Scalar,
    /// Explicit vector lanes; requires the `simd` feature and a CPU with
    /// AVX2. Falls back to scalar when either is missing.
    Simd,
}

impl Backend {
    /// Canonical name, as accepted by `--kernel` and emitted in metrics.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Simd => "simd",
        }
    }

    /// Parses a `--kernel` value; `None` for unknown names.
    pub fn from_name(s: &str) -> Option<Backend> {
        match s {
            "scalar" => Some(Backend::Scalar),
            "simd" => Some(Backend::Simd),
            _ => None,
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

/// Process-wide backend override: 0 = auto, 1 = scalar, 2 = simd.
static GLOBAL_FORCE: AtomicU8 = AtomicU8::new(0);

/// Forces every thread without its own override onto `backend`
/// (`None` restores auto-detection). This is what `--kernel` sets.
pub fn set_global_backend(backend: Option<Backend>) {
    let v = match backend {
        None => 0,
        Some(Backend::Scalar) => 1,
        Some(Backend::Simd) => 2,
    };
    GLOBAL_FORCE.store(v, Ordering::Relaxed);
}

/// The current process-wide override, if any.
pub fn global_backend() -> Option<Backend> {
    match GLOBAL_FORCE.load(Ordering::Relaxed) {
        1 => Some(Backend::Scalar),
        2 => Some(Backend::Simd),
        _ => None,
    }
}

thread_local! {
    /// Per-thread override (parallel workers pin their choice here) and
    /// the per-thread dispatch counters.
    static THREAD_FORCE: Cell<u8> = const { Cell::new(0) };
    static SIMD_CALLS: Cell<u64> = const { Cell::new(0) };
    static SCALAR_CALLS: Cell<u64> = const { Cell::new(0) };
    static BITMAP_INTERSECTIONS: Cell<u64> = const { Cell::new(0) };
}

/// Overrides the backend for the *calling thread* only (`None` clears the
/// override). The parallel miner calls this once per worker.
pub fn set_thread_backend(backend: Option<Backend>) {
    let v = match backend {
        None => 0,
        Some(Backend::Scalar) => 1,
        Some(Backend::Simd) => 2,
    };
    THREAD_FORCE.with(|c| c.set(v));
}

/// The backend the next kernel call on this thread will run: thread
/// override, then process override, then auto-detection — always
/// degraded to [`Backend::Scalar`] when SIMD is not actually runnable.
pub fn active_backend() -> Backend {
    let forced = THREAD_FORCE.with(Cell::get);
    let choice = match forced {
        1 => Some(Backend::Scalar),
        2 => Some(Backend::Simd),
        _ => global_backend(),
    };
    match choice {
        Some(Backend::Scalar) => Backend::Scalar,
        Some(Backend::Simd) | None => {
            if simd_available() {
                Backend::Simd
            } else {
                Backend::Scalar
            }
        }
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

/// Position deltas of the strictly increasing `ranks` into `out`
/// (cleared first) — the Definition 4.1.2 encode, inverse of
/// [`prefix_sum_into`]: `out[0] = ranks[0]`, `out[i] = ranks[i] − ranks[i−1]`.
#[inline]
pub fn delta_encode_into(ranks: &[u32], out: &mut Vec<u32>) {
    let backend = active_backend();
    note(backend);
    match backend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // Safety: gated on runtime AVX2 detection.
        Backend::Simd => unsafe { avx2::delta_encode_into(ranks, out) },
        _ => scalar::delta_encode_into(ranks, out),
    }
}

/// Gathered sum `Σ values[ids[k]]` — the branchless support accumulation
/// over a sum bucket's packed entry ids.
///
/// # Panics
/// When any id is out of bounds for `values`.
#[inline]
pub fn sum_gather(values: &[u64], ids: &[u32]) -> u64 {
    let backend = active_backend();
    note(backend);
    check_ids(values.len(), ids);
    match backend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // Safety: AVX2 detected; ids bounds-checked above.
        Backend::Simd => unsafe { avx2::sum_gather(values, ids) },
        _ => scalar::sum_gather(values, ids),
    }
}

/// How many of the gathered `values[ids[k]]` are `>= min` — the
/// all-locally-frequent test of `Conditional_Construct` scan 2
/// (`count_ge(counts, touched, min) == touched.len()`).
///
/// # Panics
/// When any id is out of bounds for `values`.
#[inline]
pub fn count_ge(values: &[u64], ids: &[u32], min: u64) -> usize {
    let backend = active_backend();
    note(backend);
    check_ids(values.len(), ids);
    match backend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // Safety: AVX2 detected; ids bounds-checked above.
        Backend::Simd => unsafe { avx2::count_ge(values, ids, min) },
        _ => scalar::count_ge(values, ids, min),
    }
}

/// Appends to `out` (cleared first) every `r` in `ranks` with
/// `values[r] >= min`, preserving order — the locally-frequent filter of
/// scan 2. Scalar on every backend: the compress step is serial, and X14
/// measured an AVX2 variant at 0.71–0.80× of this loop.
///
/// # Panics
/// When any rank is out of bounds for `values`.
#[inline]
pub fn filter_ge_into(values: &[u64], ranks: &[u32], min: u64, out: &mut Vec<u32>) {
    note(Backend::Scalar);
    check_ids(values.len(), ranks);
    scalar::filter_ge_into(values, ranks, min, out)
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

/// Bounds check shared by the gather kernels: one branch-free max scan,
/// far cheaper than per-lane checked indexing and sound for the SIMD
/// gathers.
#[inline]
fn check_ids(len: usize, ids: &[u32]) {
    let max = ids.iter().copied().max();
    if let Some(max) = max {
        assert!(
            (max as usize) < len,
            "kernel id {max} out of bounds for table of {len}"
        );
    }
}

// ---------------------------------------------------------------------------
// Scalar backend — the differential oracle. Plain loops over words,
// shaped so LLVM's auto-vectorizer can widen the ones that are widenable
// (everything except the inherently serial prefix sum).
// ---------------------------------------------------------------------------

/// The always-compiled portable backend. Public so the differential
/// suites can call it directly, bypassing dispatch.
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

    /// Position deltas of a rank sequence (`out[i] = ranks[i] − ranks[i−1]`).
    pub fn delta_encode_into(ranks: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.reserve(ranks.len());
        let mut prev = 0u32;
        for &r in ranks {
            out.push(r.wrapping_sub(prev));
            prev = r;
        }
    }

    /// Gathered sum over `ids`.
    pub fn sum_gather(values: &[u64], ids: &[u32]) -> u64 {
        let mut acc = 0u64;
        for &id in ids {
            acc = acc.wrapping_add(values[id as usize]);
        }
        acc
    }

    /// Gathered count of entries `>= min` (branchless accumulate).
    pub fn count_ge(values: &[u64], ids: &[u32], min: u64) -> usize {
        let mut n = 0usize;
        for &id in ids {
            n += usize::from(values[id as usize] >= min);
        }
        n
    }

    /// Order-preserving filter of ranks whose gathered value is `>= min`.
    pub fn filter_ge_into(values: &[u64], ranks: &[u32], min: u64, out: &mut Vec<u32>) {
        out.clear();
        out.reserve(ranks.len());
        for &r in ranks {
            if values[r as usize] >= min {
                out.push(r);
            }
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
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn delta_encode_into(ranks: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.reserve(ranks.len());
        if ranks.is_empty() {
            return;
        }
        let dst = out.as_mut_ptr();
        *dst = ranks[0];
        // out[i] = ranks[i] − ranks[i−1]: two unaligned loads one lane
        // apart, full-width subtract.
        let mut i = 1usize;
        while i + 8 <= ranks.len() {
            let cur = _mm256_loadu_si256(ranks.as_ptr().add(i) as *const __m256i);
            let prev = _mm256_loadu_si256(ranks.as_ptr().add(i - 1) as *const __m256i);
            let d = _mm256_sub_epi32(cur, prev);
            _mm256_storeu_si256(dst.add(i) as *mut __m256i, d);
            i += 8;
        }
        while i < ranks.len() {
            *dst.add(i) = ranks[i].wrapping_sub(ranks[i - 1]);
            i += 1;
        }
        out.set_len(ranks.len());
    }

    /// # Safety
    /// Requires AVX2 at runtime; every id must be in bounds for `values`.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn sum_gather(values: &[u64], ids: &[u32]) -> u64 {
        let mut acc = _mm256_setzero_si256();
        let chunks = ids.chunks_exact(4);
        let rem = chunks.remainder();
        for chunk in chunks {
            let idx = _mm_loadu_si128(chunk.as_ptr() as *const __m128i);
            let v = _mm256_i32gather_epi64(values.as_ptr() as *const i64, idx, 8);
            acc = _mm256_add_epi64(acc, v);
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut total = lanes[0]
            .wrapping_add(lanes[1])
            .wrapping_add(lanes[2])
            .wrapping_add(lanes[3]);
        for &id in rem {
            total = total.wrapping_add(*values.get_unchecked(id as usize));
        }
        total
    }

    /// Unsigned 64-bit `x >= min` mask per lane (bias to signed compare).
    #[inline]
    unsafe fn ge_mask(x: __m256i, biased_min: __m256i, bias: __m256i) -> __m256i {
        // unsigned x >= min  ⇔  ¬(biased_min > biased_x), computed as
        // (biased_x > biased_min) OR (x == min-as-loaded handled by eq).
        let bx = _mm256_xor_si256(x, bias);
        let gt = _mm256_cmpgt_epi64(bx, biased_min);
        let eq = _mm256_cmpeq_epi64(bx, biased_min);
        _mm256_or_si256(gt, eq)
    }

    /// # Safety
    /// Requires AVX2 at runtime; every id must be in bounds for `values`.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn count_ge(values: &[u64], ids: &[u32], min: u64) -> usize {
        let bias = _mm256_set1_epi64x(i64::MIN);
        let biased_min = _mm256_xor_si256(_mm256_set1_epi64x(min as i64), bias);
        let mut n = 0usize;
        let chunks = ids.chunks_exact(4);
        let rem = chunks.remainder();
        for chunk in chunks {
            let idx = _mm_loadu_si128(chunk.as_ptr() as *const __m128i);
            let v = _mm256_i32gather_epi64(values.as_ptr() as *const i64, idx, 8);
            let m = ge_mask(v, biased_min, bias);
            n += (_mm256_movemask_pd(_mm256_castsi256_pd(m)) as u32).count_ones() as usize;
        }
        for &id in rem {
            n += usize::from(*values.get_unchecked(id as usize) >= min);
        }
        n
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
    fn backend_resolution_order() {
        set_global_backend(None);
        set_thread_backend(None);
        let auto = active_backend();
        assert_eq!(
            auto,
            if simd_available() {
                Backend::Simd
            } else {
                Backend::Scalar
            }
        );
        set_global_backend(Some(Backend::Scalar));
        assert_eq!(active_backend(), Backend::Scalar);
        // The thread override wins over the process override.
        set_thread_backend(Some(Backend::Simd));
        assert_eq!(
            active_backend(),
            if simd_available() {
                Backend::Simd
            } else {
                Backend::Scalar
            }
        );
        set_thread_backend(None);
        set_global_backend(None);
    }

    #[test]
    fn backend_names_roundtrip() {
        for b in [Backend::Scalar, Backend::Simd] {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("turbo"), None);
    }

    #[test]
    fn stats_bracket_kernel_calls() {
        set_thread_backend(Some(Backend::Scalar));
        let before = KernelStats::snapshot_thread();
        let mut out = Vec::new();
        prefix_sum_into(&[1, 2, 3], &mut out);
        assert_eq!(out, vec![1, 3, 6]);
        let _ = and_popcount(&[u64::MAX], &[0b1011]);
        let delta = KernelStats::snapshot_thread().since(&before);
        assert_eq!(delta.scalar_calls, 2);
        assert_eq!(delta.simd_calls, 0);
        assert_eq!(delta.bitmap_intersections, 1);
        set_thread_backend(None);
    }

    #[test]
    fn scalar_kernels_basic() {
        let mut out = Vec::new();
        scalar::prefix_sum_into(&[], &mut out);
        assert!(out.is_empty());
        scalar::prefix_sum_into(&[5], &mut out);
        assert_eq!(out, vec![5]);
        scalar::delta_encode_into(&[1, 3, 6], &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(scalar::sum_gather(&[10, 20, 30], &[2, 0, 2]), 70);
        assert_eq!(scalar::count_ge(&[1, 5, 3], &[0, 1, 2], 3), 2);
        let mut kept = Vec::new();
        scalar::filter_ge_into(&[1, 5, 3], &[0, 1, 2], 3, &mut kept);
        assert_eq!(kept, vec![1, 2]);
        assert_eq!(scalar::popcount(&[0b101, 0]), 2);
        assert_eq!(scalar::and_popcount(&[0b110], &[0b011]), 1);
        let mut w = Vec::new();
        assert_eq!(scalar::and_into(&[0b110], &[0b011], &mut w), 1);
        assert_eq!(w, vec![0b010]);
        assert_eq!(scalar::andnot_into(&[0b110], &[0b011], &mut w), 1);
        assert_eq!(w, vec![0b100]);
    }

    #[test]
    fn dispatch_matches_scalar_whatever_backend() {
        let values: Vec<u64> = (0..100).map(|i| (i * 7) % 13).collect();
        let ids: Vec<u32> = (0..100).rev().collect();
        assert_eq!(sum_gather(&values, &ids), scalar::sum_gather(&values, &ids));
        assert_eq!(
            count_ge(&values, &ids, 6),
            scalar::count_ge(&values, &ids, 6)
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rejects_out_of_bounds_ids() {
        let _ = sum_gather(&[1, 2], &[5]);
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
            min in 0u64..2000,
        ) {
            let mut got = Vec::new();
            let mut want = Vec::new();
            prefix_sum_into(&deltas, &mut got);
            scalar::prefix_sum_into(&deltas, &mut want);
            prop_assert_eq!(&got, &want);

            // The prefix sums are strictly increasing, so they round-trip
            // through the encoder.
            delta_encode_into(&want.clone(), &mut got);
            prop_assert_eq!(&got, &deltas);

            let values: Vec<u64> = deltas.iter().map(|&d| d as u64).collect();
            let ids: Vec<u32> = (0..values.len() as u32).collect();
            prop_assert_eq!(sum_gather(&values, &ids), scalar::sum_gather(&values, &ids));
            prop_assert_eq!(
                count_ge(&values, &ids, min),
                scalar::count_ge(&values, &ids, min)
            );

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
