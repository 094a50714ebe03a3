//! A fast, non-cryptographic hasher for hot hash maps.
//!
//! Position vectors are hashed on every insert of every transaction and on
//! every subset-propagation step of the top-down miner; profiling the Rust
//! compiler (and this crate) shows SipHash dominating such workloads. We
//! vendor the tiny Fx (Firefox) multiply-rotate hash rather than pulling in
//! an extra dependency: the algorithm is ~20 lines and its behaviour is
//! easily unit-tested. HashDoS resistance is irrelevant here — keys are
//! derived from the caller's own data, never from an adversarial network.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Fx hash (64-bit variant); chosen by the
/// Firefox team as `π * 2^62` rounded to an odd integer.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx word-at-a-time hasher.
///
/// Writes fold each machine word into the state with
/// `state = (state rotl 5 ^ word) * SEED`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with the Fx hash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with the Fx hash.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// One rank's word in a rank-set hash: the splitmix64 finalizer, so the
/// wrapping sum over a vector's ranks spreads into every bit.
#[inline]
pub(crate) fn mix(rank: crate::item::Rank) -> u64 {
    let mut z = u64::from(rank).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The rank-set hash of a delta window: the wrapping sum of [`mix`] over
/// its ranks. Order-free, so dropping the last rank is one subtraction; a
/// pure function of the rank set, whichever encoding the caller holds.
/// The PLT's row index keys its matrices by it, and the conditional
/// arena's dedup tables start from the same cached value.
pub(crate) fn window_hash(window: &[crate::item::Rank]) -> u64 {
    let mut rank = 0;
    window.iter().fold(0u64, |h, &p| {
        rank += p;
        h.wrapping_add(mix(rank))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        let a = hash_of(&[1u32, 2, 3]);
        let b = hash_of(&[1u32, 2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // A weak smoke test, not a statistical one: the vectors that arise
        // as hot keys differ in a single small delta and must not collide.
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u32 {
            for j in 0..64u32 {
                assert!(seen.insert(hash_of(&[i, j])), "collision at [{i},{j}]");
            }
        }
    }

    #[test]
    fn unaligned_tails_are_hashed() {
        // 5 bytes exercises the remainder path of `write`.
        assert_ne!(hash_of(&b"abcde".as_slice()), hash_of(&b"abcdf".as_slice()));
    }

    #[test]
    fn maps_and_sets_are_usable() {
        let mut m: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
        m.insert(vec![1, 2], 10);
        *m.entry(vec![1, 2]).or_insert(0) += 5;
        assert_eq!(m[&vec![1, 2]], 15);

        let mut s: FxHashSet<u32> = FxHashSet::default();
        assert!(s.insert(3));
        assert!(!s.insert(3));
    }
}
