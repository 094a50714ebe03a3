//! Differential equivalence for the kernel layer: every `plt-simd`
//! primitive must produce bit-identical results on the scalar and SIMD
//! backends, over adversarial shapes — empty inputs, single elements,
//! lengths straddling the vector lane width, misaligned slices, all-zero
//! and all-max words — and the Eclat miners built on the kernels (bitset
//! and tidset) must agree on full support maps with the arena engine,
//! which dispatches no kernels and serves as the reference.
//!
//! On builds without the `simd` feature the Simd backend degrades to
//! scalar and every check passes trivially; the CI matrix runs this suite
//! in both configurations so the AVX2 path is exercised wherever the host
//! supports it.

use std::collections::BTreeSet;

use plt::baselines::{EclatMiner, TidRepr};
use plt::core::kernels::{self, Backend};
use plt::core::miner::Miner;
use plt::ConditionalMiner;
use proptest::prelude::*;

mod common;
use common::{diff_support_maps, support_map};

/// Runs `f` once per backend and returns the two results; callers assert
/// equality. The thread pin is always cleared, even on panic unwind.
fn on_both_backends<R>(mut f: impl FnMut() -> R) -> (R, R) {
    struct Unpin;
    impl Drop for Unpin {
        fn drop(&mut self) {
            kernels::set_thread_backend(None);
        }
    }
    let _unpin = Unpin;
    kernels::set_thread_backend(Some(Backend::Scalar));
    let scalar = f();
    kernels::set_thread_backend(Some(Backend::Simd));
    let simd = f();
    (scalar, simd)
}

/// Lengths around the AVX2 lane widths (8 × u32, 4 × u64) plus the empty,
/// singleton, and bulk cases.
const ADVERSARIAL_LENS: &[usize] = &[
    0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 10_000,
];

/// Deterministic non-trivial u32 payload.
fn pattern_u32(len: usize) -> Vec<u32> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(37) % 101) + 1)
        .collect()
}

/// Deterministic non-trivial u64 payload (mixes high and low words).
fn pattern_u64(len: usize) -> Vec<u64> {
    (0..len as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 32))
        .collect()
}

#[test]
fn scan_kernels_agree_across_adversarial_lengths() {
    for &len in ADVERSARIAL_LENS {
        let deltas = pattern_u32(len);
        let (a, b) = on_both_backends(|| {
            let mut out = Vec::new();
            kernels::prefix_sum_into(&deltas, &mut out);
            out
        });
        assert_eq!(a, b, "prefix_sum_into at len {len}");

        // Round trip: delta-encoding the recovered ranks must give the
        // deltas back, on both backends (Lemma 4.1.1 both directions).
        let ranks = a;
        let (a, b) = on_both_backends(|| {
            let mut out = Vec::new();
            kernels::delta_encode_into(&ranks, &mut out);
            out
        });
        assert_eq!(a, b, "delta_encode_into at len {len}");
        assert_eq!(a, deltas, "delta/prefix round trip at len {len}");
    }
}

#[test]
fn gather_kernels_agree_across_adversarial_lengths() {
    for &len in ADVERSARIAL_LENS {
        let values: Vec<u64> = pattern_u32(len).into_iter().map(u64::from).collect();
        // Gather through a permuted id order to exercise non-contiguous
        // access on every lane position.
        let ids: Vec<u32> = (0..len as u32).rev().collect();
        let (a, b) = on_both_backends(|| kernels::sum_gather(&values, &ids));
        assert_eq!(a, b, "sum_gather at len {len}");

        let min = 50;
        let (a, b) = on_both_backends(|| kernels::count_ge(&values, &ids, min));
        assert_eq!(a, b, "count_ge at len {len}");

        // `filter_ge_into` is scalar on every backend; its filtered set is
        // exactly the ids whose value clears the bar, in order.
        let mut kept = Vec::new();
        kernels::filter_ge_into(&values, &ids, min, &mut kept);
        let expect: Vec<u32> = ids
            .iter()
            .copied()
            .filter(|&id| values[id as usize] >= min)
            .collect();
        assert_eq!(kept, expect, "filter_ge_into semantics at len {len}");
    }
}

#[test]
fn bitset_kernels_agree_across_adversarial_lengths() {
    for &len in ADVERSARIAL_LENS {
        let a_words = pattern_u64(len);
        let b_words: Vec<u64> = pattern_u64(len).iter().map(|w| w.rotate_left(17)).collect();
        let (s, v) = on_both_backends(|| kernels::popcount(&a_words));
        assert_eq!(s, v, "popcount at len {len}");

        let (s, v) = on_both_backends(|| kernels::and_popcount(&a_words, &b_words));
        assert_eq!(s, v, "and_popcount at len {len}");

        let (s, v) = on_both_backends(|| {
            let mut out = Vec::new();
            let count = kernels::and_into(&a_words, &b_words, &mut out);
            (count, out)
        });
        assert_eq!(s, v, "and_into at len {len}");
        assert_eq!(s.0, kernels::popcount(&s.1), "and_into count at len {len}");

        let (s, v) = on_both_backends(|| {
            let mut acc = a_words.clone();
            let count = kernels::and_assign_popcount(&mut acc, &b_words);
            (count, acc)
        });
        assert_eq!(s, v, "and_assign_popcount at len {len}");

        let (s, v) = on_both_backends(|| {
            let mut out = Vec::new();
            let count = kernels::andnot_into(&a_words, &b_words, &mut out);
            (count, out)
        });
        assert_eq!(s, v, "andnot_into at len {len}");
        // a AND NOT b, verified word-by-word against the definition.
        let expect: Vec<u64> = a_words
            .iter()
            .zip(&b_words)
            .map(|(&x, &y)| x & !y)
            .collect();
        assert_eq!(s.1, expect, "andnot_into semantics at len {len}");
    }
}

#[test]
fn bitset_kernels_handle_all_zero_and_all_max_words() {
    for &len in &[4usize, 5, 64, 1_000] {
        let zeros = vec![0u64; len];
        let maxed = vec![u64::MAX; len];
        let (s, v) = on_both_backends(|| {
            (
                kernels::popcount(&zeros),
                kernels::popcount(&maxed),
                kernels::and_popcount(&zeros, &maxed),
                kernels::and_popcount(&maxed, &maxed),
            )
        });
        assert_eq!(s, v, "all-zero/all-max at len {len}");
        assert_eq!(s.0, 0);
        assert_eq!(s.1, 64 * len as u64);
        assert_eq!(s.2, 0);
        assert_eq!(s.3, 64 * len as u64);
        let (s, v) = on_both_backends(|| {
            let mut out = Vec::new();
            kernels::andnot_into(&maxed, &zeros, &mut out)
        });
        assert_eq!(s, v);
        assert_eq!(s, 64 * len as u64, "MAX AND NOT 0 keeps every bit");
    }
}

#[test]
fn kernels_agree_on_misaligned_slices() {
    // Slicing off a prefix shifts the data relative to any 16/32-byte
    // boundary the backing allocation had; the kernels take unaligned
    // loads, so every offset must produce identical answers.
    let deltas = pattern_u32(4_099);
    let words = pattern_u64(1_027);
    let words_b: Vec<u64> = pattern_u64(1_027).iter().map(|w| !w).collect();
    for offset in 1..=7usize {
        let d = &deltas[offset..];
        let (a, b) = on_both_backends(|| {
            let mut out = Vec::new();
            kernels::prefix_sum_into(d, &mut out);
            out
        });
        assert_eq!(a, b, "prefix_sum_into at offset {offset}");

        let w = &words[offset..];
        let wb = &words_b[offset..];
        let (s, v) = on_both_backends(|| kernels::and_popcount(w, wb));
        assert_eq!(s, v, "and_popcount at offset {offset}");
        let (s, v) = on_both_backends(|| {
            let mut out = Vec::new();
            kernels::andnot_into(w, wb, &mut out)
        });
        assert_eq!(s, v, "andnot_into at offset {offset}");
    }
}

#[test]
fn dispatch_matches_the_scalar_oracle_directly() {
    // The dispatch layer must route to code equivalent to the always-
    // compiled scalar module — checked against the oracle itself, not
    // just backend-vs-backend.
    let deltas = pattern_u32(1_000);
    let values: Vec<u64> = pattern_u32(1_000).into_iter().map(u64::from).collect();
    let ids: Vec<u32> = (0..1_000u32).collect();
    let words = pattern_u64(250);
    let words_b = pattern_u64(250);

    let mut expect_ranks = Vec::new();
    kernels::scalar::prefix_sum_into(&deltas, &mut expect_ranks);
    let expect_sum = kernels::scalar::sum_gather(&values, &ids);
    let expect_pop = kernels::scalar::and_popcount(&words, &words_b);

    for backend in [Backend::Scalar, Backend::Simd] {
        kernels::set_thread_backend(Some(backend));
        let mut ranks = Vec::new();
        kernels::prefix_sum_into(&deltas, &mut ranks);
        assert_eq!(ranks, expect_ranks, "{backend:?} vs scalar oracle");
        assert_eq!(
            kernels::sum_gather(&values, &ids),
            expect_sum,
            "{backend:?}"
        );
        assert_eq!(
            kernels::and_popcount(&words, &words_b),
            expect_pop,
            "{backend:?}"
        );
        kernels::set_thread_backend(None);
    }
}

/// Full-support-map agreement between the kernel-backed miners — tidset
/// Eclat and bitset Eclat (forced, regardless of density) — and the
/// arena conditional engine.
fn miners_agree(db: &[Vec<u32>], min_support: u64) -> Result<(), String> {
    let arena = ConditionalMiner::default().mine(db, min_support);
    let reference = support_map(&arena);
    let roster: Vec<(&str, EclatMiner)> = vec![
        (
            "eclat-tidset",
            EclatMiner::default().with_repr(TidRepr::Tidset),
        ),
        (
            "eclat-bitset",
            EclatMiner::default().with_repr(TidRepr::Bitset),
        ),
        (
            "declat-bitset",
            EclatMiner::with_diffsets().with_repr(TidRepr::Bitset),
        ),
    ];
    for (name, miner) in roster {
        let got = support_map(&miner.mine(db, min_support));
        if let Some(diff) = diff_support_maps(&reference, &got) {
            return Err(format!(
                "arena vs {name} disagree at min_support {min_support} on db \
                 ({} rows):\n{db:?}\ndiff (reference = arena):\n{diff}",
                db.len(),
            ));
        }
    }
    Ok(())
}

#[test]
fn bitmap_and_tidset_miners_agree_on_generated_workloads() {
    use plt::data::{DenseConfig, DenseGenerator, QuestConfig, QuestGenerator};
    let sparse = QuestGenerator::new(QuestConfig::t5i2(500))
        .generate()
        .into_transactions();
    miners_agree(&sparse, 5).unwrap();
    miners_agree(&sparse, 25).unwrap();
    let dense = DenseGenerator::new(DenseConfig {
        num_transactions: 300,
        num_items: 12,
        density_hi: 0.85,
        density_lo: 0.2,
        seed: 7,
    })
    .generate()
    .into_transactions();
    miners_agree(&dense, 150).unwrap();
    miners_agree(&dense, 60).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random u32 streams: the scan kernels agree between backends at
    /// arbitrary (not just lane-aligned) lengths.
    #[test]
    fn prop_scan_kernels_agree(
        deltas in proptest::collection::vec(any::<u32>(), 0..600),
    ) {
        // Cap the deltas so prefix sums cannot overflow u32.
        let deltas: Vec<u32> = deltas.into_iter().map(|d| d % 1_000).collect();
        let (a, b) = on_both_backends(|| {
            let mut out = Vec::new();
            kernels::prefix_sum_into(&deltas, &mut out);
            out
        });
        prop_assert_eq!(a, b);
    }

    /// Random u64 words: every bitset kernel agrees between backends.
    #[test]
    fn prop_bitset_kernels_agree(
        a in proptest::collection::vec(any::<u64>(), 0..200),
        mask in any::<u64>(),
    ) {
        let b: Vec<u64> = a.iter().map(|w| w ^ mask).collect();
        let (s, v) = on_both_backends(|| {
            let mut and_out = Vec::new();
            let mut not_out = Vec::new();
            (
                kernels::popcount(&a),
                kernels::and_popcount(&a, &b),
                kernels::and_into(&a, &b, &mut and_out),
                kernels::andnot_into(&a, &b, &mut not_out),
                and_out,
                not_out,
            )
        });
        prop_assert_eq!(s, v);
    }

    /// Random support tables: gather/count agree between backends under
    /// permuted id orders, and the filter keeps exactly the qualifying ids.
    #[test]
    fn prop_gather_kernels_agree(
        values in proptest::collection::vec(any::<u64>(), 1..400),
        min in any::<u64>(),
    ) {
        let values: Vec<u64> = values.into_iter().map(|v| v % 10_000).collect();
        let min = min % 10_000;
        let ids: Vec<u32> = (0..values.len() as u32).rev().collect();
        let (a, b) = on_both_backends(|| {
            (
                kernels::sum_gather(&values, &ids),
                kernels::count_ge(&values, &ids, min),
            )
        });
        prop_assert_eq!(a, b);
        let mut kept = Vec::new();
        kernels::filter_ge_into(&values, &ids, min, &mut kept);
        prop_assert_eq!(kept.len(), a.1);
        prop_assert!(kept.iter().all(|&id| values[id as usize] >= min));
    }

    /// miners_agree-style sweep: on random skewed databases the bitmap
    /// Eclat, tidset Eclat, and arena engines produce identical support
    /// maps at min_support 1, a mid value, and |D|.
    #[test]
    fn prop_bitmap_tidset_and_arena_miners_agree(
        raw in proptest::collection::vec(
            proptest::collection::btree_set(0u32..300, 1..7),
            3..20,
        ),
        mid_support in 2u64..6,
    ) {
        let db: Vec<Vec<u32>> = raw
            .iter()
            .map(|t| {
                let s: BTreeSet<u32> = t.iter().map(|&x| (x * x) / 300).collect();
                s.into_iter().collect()
            })
            .collect();
        let n = db.len() as u64;
        for min_support in [1, mid_support.min(n), n] {
            let outcome = miners_agree(&db, min_support);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}
