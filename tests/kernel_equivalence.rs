//! Differential equivalence for the kernel layer: every dispatched
//! `plt-simd` kernel must produce bit-identical results to the scalar
//! oracle (`kernels::scalar`), over adversarial shapes — empty inputs,
//! single elements, lengths straddling the vector lane width, misaligned
//! slices, all-zero and all-max words — and the Eclat miners built on the
//! kernels (bitset and tidset) must agree on full support maps with the
//! arena engine, which dispatches no kernels and serves as the reference.
//!
//! Dispatch runs whatever backend the CPU resolves to. On builds without
//! the `simd` feature that is the scalar code itself and every kernel
//! check passes trivially; CI runs this suite with `--features simd` as
//! well, so the AVX2 path is exercised wherever the host supports it.

use std::collections::BTreeSet;

use plt::baselines::{EclatMiner, TidRepr};
use plt::core::kernels::{self, scalar};
use plt::core::miner::Miner;
use plt::ConditionalMiner;
use proptest::prelude::*;

mod common;
use common::{diff_support_maps, support_map};

/// One implementation of the kernel set, as plain function pointers.
struct Kernels {
    prefix_sum_into: fn(&[u32], &mut Vec<u32>),
    popcount: fn(&[u64]) -> u64,
    and_popcount: fn(&[u64], &[u64]) -> u64,
    and_into: fn(&[u64], &[u64], &mut Vec<u64>) -> u64,
    and_assign_popcount: fn(&mut [u64], &[u64]) -> u64,
    andnot_into: fn(&[u64], &[u64], &mut Vec<u64>) -> u64,
}

/// The public entry points, on the backend this build and CPU resolve to.
const DISPATCH: Kernels = Kernels {
    prefix_sum_into: kernels::prefix_sum_into,
    popcount: kernels::popcount,
    and_popcount: kernels::and_popcount,
    and_into: kernels::and_into,
    and_assign_popcount: kernels::and_assign_popcount,
    andnot_into: kernels::andnot_into,
};

/// The always-compiled scalar module, called directly.
const ORACLE: Kernels = Kernels {
    prefix_sum_into: scalar::prefix_sum_into,
    popcount: scalar::popcount,
    and_popcount: scalar::and_popcount,
    and_into: scalar::and_into,
    and_assign_popcount: scalar::and_assign_popcount,
    andnot_into: scalar::andnot_into,
};

/// Runs `f` through dispatch and through the oracle and returns both
/// results; callers assert equality.
fn dispatch_and_oracle<R>(f: impl Fn(&Kernels) -> R) -> (R, R) {
    (f(&DISPATCH), f(&ORACLE))
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
        let (a, b) = dispatch_and_oracle(|k| {
            let mut out = Vec::new();
            (k.prefix_sum_into)(&deltas, &mut out);
            out
        });
        assert_eq!(a, b, "prefix_sum_into at len {len}");

        // Lemma 4.1.1 in reverse: differencing the recovered ranks gives
        // the deltas back.
        let mut prev = 0u32;
        let back: Vec<u32> = a
            .iter()
            .map(|&r| {
                let d = r - prev;
                prev = r;
                d
            })
            .collect();
        assert_eq!(back, deltas, "delta/prefix round trip at len {len}");
    }
}

#[test]
fn bitset_kernels_agree_across_adversarial_lengths() {
    for &len in ADVERSARIAL_LENS {
        let a_words = pattern_u64(len);
        let b_words: Vec<u64> = pattern_u64(len).iter().map(|w| w.rotate_left(17)).collect();
        let (s, v) = dispatch_and_oracle(|k| (k.popcount)(&a_words));
        assert_eq!(s, v, "popcount at len {len}");

        let (s, v) = dispatch_and_oracle(|k| (k.and_popcount)(&a_words, &b_words));
        assert_eq!(s, v, "and_popcount at len {len}");

        let (s, v) = dispatch_and_oracle(|k| {
            let mut out = Vec::new();
            let count = (k.and_into)(&a_words, &b_words, &mut out);
            (count, out)
        });
        assert_eq!(s, v, "and_into at len {len}");
        assert_eq!(s.0, scalar::popcount(&s.1), "and_into count at len {len}");

        let (s, v) = dispatch_and_oracle(|k| {
            let mut acc = a_words.clone();
            let count = (k.and_assign_popcount)(&mut acc, &b_words);
            (count, acc)
        });
        assert_eq!(s, v, "and_assign_popcount at len {len}");

        let (s, v) = dispatch_and_oracle(|k| {
            let mut out = Vec::new();
            let count = (k.andnot_into)(&a_words, &b_words, &mut out);
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
        let (s, v) = dispatch_and_oracle(|k| {
            (
                (k.popcount)(&zeros),
                (k.popcount)(&maxed),
                (k.and_popcount)(&zeros, &maxed),
                (k.and_popcount)(&maxed, &maxed),
            )
        });
        assert_eq!(s, v, "all-zero/all-max at len {len}");
        assert_eq!(s.0, 0);
        assert_eq!(s.1, 64 * len as u64);
        assert_eq!(s.2, 0);
        assert_eq!(s.3, 64 * len as u64);
        let (s, v) = dispatch_and_oracle(|k| {
            let mut out = Vec::new();
            (k.andnot_into)(&maxed, &zeros, &mut out)
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
        let (a, b) = dispatch_and_oracle(|k| {
            let mut out = Vec::new();
            (k.prefix_sum_into)(d, &mut out);
            out
        });
        assert_eq!(a, b, "prefix_sum_into at offset {offset}");

        let w = &words[offset..];
        let wb = &words_b[offset..];
        let (s, v) = dispatch_and_oracle(|k| (k.and_popcount)(w, wb));
        assert_eq!(s, v, "and_popcount at offset {offset}");
        let (s, v) = dispatch_and_oracle(|k| {
            let mut out = Vec::new();
            (k.andnot_into)(w, wb, &mut out)
        });
        assert_eq!(s, v, "andnot_into at offset {offset}");
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

    /// Random u32 streams: the scan kernel agrees with the oracle at
    /// arbitrary (not just lane-aligned) lengths.
    #[test]
    fn prop_scan_kernels_agree(
        deltas in proptest::collection::vec(any::<u32>(), 0..600),
    ) {
        // Cap the deltas so prefix sums cannot overflow u32.
        let deltas: Vec<u32> = deltas.into_iter().map(|d| d % 1_000).collect();
        let (a, b) = dispatch_and_oracle(|k| {
            let mut out = Vec::new();
            (k.prefix_sum_into)(&deltas, &mut out);
            out
        });
        prop_assert_eq!(a, b);
    }

    /// Random u64 words: every bitset kernel agrees with the oracle.
    #[test]
    fn prop_bitset_kernels_agree(
        a in proptest::collection::vec(any::<u64>(), 0..200),
        mask in any::<u64>(),
    ) {
        let b: Vec<u64> = a.iter().map(|w| w ^ mask).collect();
        let (s, v) = dispatch_and_oracle(|k| {
            let mut and_out = Vec::new();
            let mut not_out = Vec::new();
            let mut acc = a.clone();
            (
                (k.popcount)(&a),
                (k.and_popcount)(&a, &b),
                (k.and_into)(&a, &b, &mut and_out),
                (k.andnot_into)(&a, &b, &mut not_out),
                (k.and_assign_popcount)(&mut acc, &b),
                and_out,
                not_out,
                acc,
            )
        });
        prop_assert_eq!(s, v);
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
