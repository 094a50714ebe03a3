//! Differential equivalence for the kernel layer: every `plt-simd`
//! bitset kernel must produce bit-identical results to an independent
//! per-bit reference, and the Lemma 4.1.1 decode
//! (`PositionVector::ranks`) must match per-element prefix sums, over
//! adversarial shapes — empty inputs, single elements, lengths around
//! word-group boundaries, misaligned slices, all-zero and all-max words.
//! The Eclat miners built on the kernels (bitset and tidset) must agree on
//! full support maps with the arena engine, which calls no kernels and
//! serves as the reference.

use std::collections::BTreeSet;

use plt::baselines::{EclatMiner, TidRepr};
use plt::core::kernels;
use plt::core::miner::Miner;
use plt::core::PltError;
use plt::{ConditionalMiner, PositionVector};
use proptest::prelude::*;

mod common;
use common::{diff_support_maps, support_map};

/// One implementation of the bitset kernel set, as plain function
/// pointers.
struct Kernels {
    popcount: fn(&[u64]) -> u64,
    and_popcount: fn(&[u64], &[u64]) -> u64,
    and_into: fn(&[u64], &[u64], &mut Vec<u64>) -> u64,
    and_assign_popcount: fn(&mut [u64], &[u64]) -> u64,
    andnot_into: fn(&[u64], &[u64], &mut Vec<u64>) -> u64,
}

/// The kernels under test.
const KERNELS: Kernels = Kernels {
    popcount: kernels::popcount,
    and_popcount: kernels::and_popcount,
    and_into: kernels::and_into,
    and_assign_popcount: kernels::and_assign_popcount,
    andnot_into: kernels::andnot_into,
};

/// The per-bit reference.
const ORACLE: Kernels = Kernels {
    popcount: reference::popcount,
    and_popcount: reference::and_popcount,
    and_into: reference::and_into,
    and_assign_popcount: reference::and_assign_popcount,
    andnot_into: reference::andnot_into,
};

/// Reference kernels that read and write one bit at a time, so none of
/// them shares a loop shape (or `count_ones`) with the kernels under
/// test.
mod reference {
    fn bit(word: u64, i: u32) -> bool {
        (word >> i) & 1 == 1
    }

    /// Applies `op` bit by bit to two equal-length word slices.
    fn combine(a: &[u64], b: &[u64], op: fn(bool, bool) -> bool) -> Vec<u64> {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                (0..64)
                    .filter(|&i| op(bit(x, i), bit(y, i)))
                    .fold(0u64, |w, i| w | (1 << i))
            })
            .collect()
    }

    pub fn popcount(words: &[u64]) -> u64 {
        words
            .iter()
            .map(|&w| (0..64).filter(|&i| bit(w, i)).count() as u64)
            .sum()
    }

    pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        popcount(&combine(a, b, |x, y| x && y))
    }

    pub fn and_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u64 {
        *out = combine(a, b, |x, y| x && y);
        popcount(out)
    }

    pub fn and_assign_popcount(acc: &mut [u64], b: &[u64]) -> u64 {
        let words = combine(acc, b, |x, y| x && y);
        acc.copy_from_slice(&words);
        popcount(acc)
    }

    pub fn andnot_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u64 {
        *out = combine(a, b, |x, y| x && !y);
        popcount(out)
    }
}

/// Runs `f` through the kernels and through the reference and returns
/// both results; callers assert equality.
fn kernel_and_oracle<R>(f: impl Fn(&Kernels) -> R) -> (R, R) {
    (f(&KERNELS), f(&ORACLE))
}

/// Checks `PositionVector::ranks` on `positions` against per-element
/// prefix sums, and Lemma 4.1.1 in reverse: differencing the recovered
/// ranks gives the positions back. An empty sequence has no vector.
fn check_ranks(positions: &[u32]) -> Result<(), String> {
    if positions.is_empty() {
        return match PositionVector::from_positions(Vec::new()) {
            Err(PltError::Empty) => Ok(()),
            other => Err(format!("empty positions gave {other:?}")),
        };
    }
    let ranks = PositionVector::from_positions(positions.to_vec())
        .map_err(|e| format!("from_positions at len {}: {e}", positions.len()))?
        .ranks();
    for (i, &rank) in ranks.iter().enumerate() {
        let want: u64 = positions[..=i].iter().map(|&p| u64::from(p)).sum();
        if u64::from(rank) != want {
            return Err(format!("rank {i} is {rank}, prefix sum is {want}"));
        }
    }
    let mut prev = 0u32;
    let back: Vec<u32> = ranks
        .iter()
        .map(|&r| {
            let d = r - prev;
            prev = r;
            d
        })
        .collect();
    if back != positions {
        return Err(format!(
            "delta/prefix round trip at len {}",
            positions.len()
        ));
    }
    Ok(())
}

/// Lengths around 4- and 8-word groups plus the empty, singleton, and
/// bulk cases.
const ADVERSARIAL_LENS: &[usize] = &[
    0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 10_000,
];

/// Deterministic non-trivial u32 payload; every value is a valid
/// position (>= 1).
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
        check_ranks(&pattern_u32(len)).unwrap();
    }
}

#[test]
fn bitset_kernels_agree_across_adversarial_lengths() {
    for &len in ADVERSARIAL_LENS {
        let a_words = pattern_u64(len);
        let b_words: Vec<u64> = pattern_u64(len).iter().map(|w| w.rotate_left(17)).collect();
        let (s, v) = kernel_and_oracle(|k| (k.popcount)(&a_words));
        assert_eq!(s, v, "popcount at len {len}");

        let (s, v) = kernel_and_oracle(|k| (k.and_popcount)(&a_words, &b_words));
        assert_eq!(s, v, "and_popcount at len {len}");

        let (s, v) = kernel_and_oracle(|k| {
            let mut out = Vec::new();
            let count = (k.and_into)(&a_words, &b_words, &mut out);
            (count, out)
        });
        assert_eq!(s, v, "and_into at len {len}");

        let (s, v) = kernel_and_oracle(|k| {
            let mut acc = a_words.clone();
            let count = (k.and_assign_popcount)(&mut acc, &b_words);
            (count, acc)
        });
        assert_eq!(s, v, "and_assign_popcount at len {len}");

        let (s, v) = kernel_and_oracle(|k| {
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
        let (s, v) = kernel_and_oracle(|k| {
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
        let (s, v) = kernel_and_oracle(|k| {
            let mut out = Vec::new();
            (k.andnot_into)(&maxed, &zeros, &mut out)
        });
        assert_eq!(s, v);
        assert_eq!(s, 64 * len as u64, "MAX AND NOT 0 keeps every bit");
    }
}

#[test]
fn kernels_agree_on_misaligned_slices() {
    // Slicing off a prefix shifts the data relative to any boundary the
    // backing allocation had; every offset must produce identical answers.
    let deltas = pattern_u32(4_099);
    let full = PositionVector::from_positions(deltas.clone())
        .unwrap()
        .ranks();
    let words = pattern_u64(1_027);
    let words_b: Vec<u64> = pattern_u64(1_027).iter().map(|w| !w).collect();
    for offset in 1..=7usize {
        let d = &deltas[offset..];
        check_ranks(d).unwrap();
        // Decoding a suffix of the positions gives the full decode's
        // ranks shifted down by the rank the suffix starts after.
        let shifted: Vec<u32> = full[offset..]
            .iter()
            .map(|&r| r - full[offset - 1])
            .collect();
        let ranks = PositionVector::from_positions(d.to_vec()).unwrap().ranks();
        assert_eq!(ranks, shifted, "ranks at offset {offset}");

        let w = &words[offset..];
        let wb = &words_b[offset..];
        let (s, v) = kernel_and_oracle(|k| (k.and_popcount)(w, wb));
        assert_eq!(s, v, "and_popcount at offset {offset}");
        let (s, v) = kernel_and_oracle(|k| {
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

    /// Random position streams: the decode matches per-element prefix
    /// sums at arbitrary lengths, and the empty stream has no vector.
    #[test]
    fn prop_scan_kernels_agree(
        deltas in proptest::collection::vec(any::<u32>(), 0..600),
    ) {
        // Positions are >= 1; the cap keeps the ranks inside u32.
        let deltas: Vec<u32> = deltas.into_iter().map(|d| d % 1_000 + 1).collect();
        let outcome = check_ranks(&deltas);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// Random u64 words: every bitset kernel agrees with the reference.
    #[test]
    fn prop_bitset_kernels_agree(
        a in proptest::collection::vec(any::<u64>(), 0..200),
        mask in any::<u64>(),
    ) {
        let b: Vec<u64> = a.iter().map(|w| w ^ mask).collect();
        let (s, v) = kernel_and_oracle(|k| {
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
