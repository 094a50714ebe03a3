//! The `PLTC` on-disk format (version 2).
//!
//! ```text
//! "PLTC" | version varint | crc32 u32 LE
//! | min_support varint | num_transactions varint
//! | rank policy u8 | n_items varint | (item varint, support varint)×n
//! | n_partitions varint
//! | (k varint, entries varint, data_len varint, front-coded payload)×p
//! | fx-checksum u64 LE
//! ```
//!
//! Design notes:
//!
//! * indexes (restart tables, sum index) are derived data and are rebuilt
//!   on load rather than trusted from disk;
//! * the ranking is stored as `(item, support)` in rank order plus the
//!   policy byte; `ItemRanking::from_frequent_items` is deterministic, so
//!   reload reproduces the identical `Rank` function;
//! * two independent integrity checks: the v2 header CRC32 covers every
//!   byte after the CRC field up to the trailing checksum (standard
//!   polynomial, so external tools can verify it), and the trailing Fx
//!   hash covers the whole body including magic, version and the CRC
//!   field itself. Both detect corruption, not tampering — the format
//!   trusts its producer;
//! * version 1 files (no CRC field) are no longer readable; the version
//!   check rejects them with a clear error rather than misparsing.

use std::io::{Read, Write};
use std::path::Path;

use crate::compressed::CompressedPlt;

/// File magic.
pub const MAGIC: &[u8; 4] = b"PLTC";

/// Current format version. v2 added the header CRC32 and overlong-varint
/// rejection on decode.
pub const VERSION: u32 = 2;

/// Integrity checksum: the workspace Fx hash over a byte slice.
pub fn checksum(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = plt_core::hash::FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Writes a compressed PLT to any writer.
pub fn write<W: Write>(mut writer: W, plt: &CompressedPlt) -> std::io::Result<()> {
    writer.write_all(&plt.to_bytes())
}

/// Reads a compressed PLT from any reader.
pub fn read<R: Read>(mut reader: R) -> std::io::Result<CompressedPlt> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    CompressedPlt::from_bytes(&bytes)
}

/// Saves to a file path.
pub fn save<P: AsRef<Path>>(path: P, plt: &CompressedPlt) -> std::io::Result<()> {
    write(std::fs::File::create(path)?, plt)
}

/// Loads from a file path.
pub fn load<P: AsRef<Path>>(path: P) -> std::io::Result<CompressedPlt> {
    read(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_core::construct::{construct, ConstructOptions};
    use plt_core::ranking::RankPolicy;
    use proptest::prelude::*;

    fn sample(policy: RankPolicy) -> CompressedPlt {
        let db: Vec<Vec<u32>> = (0..200u32)
            .map(|i| vec![i % 9, 9 + (i % 7), 16 + (i % 5)])
            .collect();
        let plt = construct(
            &db,
            3,
            ConstructOptions {
                rank_policy: policy,
                with_prefixes: false,
            },
        )
        .unwrap();
        CompressedPlt::from_plt(&plt)
    }

    #[test]
    fn byte_round_trip_preserves_everything() {
        for policy in [
            RankPolicy::Lexicographic,
            RankPolicy::FrequencyDescending,
            RankPolicy::FrequencyAscending,
        ] {
            let original = sample(policy);
            let bytes = original.to_bytes();
            let loaded = CompressedPlt::from_bytes(&bytes).unwrap();
            assert_eq!(loaded.num_vectors(), original.num_vectors());
            let a = original.to_plt();
            let b = loaded.to_plt();
            assert_eq!(a.num_transactions(), b.num_transactions());
            assert_eq!(a.min_support(), b.min_support());
            assert_eq!(a.ranking(), b.ranking(), "{policy:?}");
            for (v, e) in a.iter() {
                assert_eq!(b.vector_frequency(v), e.freq);
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let path = std::env::temp_dir().join(format!("plt-file-{}.pltc", std::process::id()));
        let original = sample(RankPolicy::Lexicographic);
        save(&path, &original).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.num_vectors(), original.num_vectors());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detects_bad_magic() {
        let mut bytes = sample(RankPolicy::Lexicographic).to_bytes();
        bytes[0] = b'X';
        let err = CompressedPlt::from_bytes(&bytes).unwrap_err();
        // Flipping the magic also breaks the checksum; either message is a
        // correct rejection.
        let msg = err.to_string();
        assert!(msg.contains("checksum") || msg.contains("magic"), "{msg}");
    }

    #[test]
    fn detects_corruption_anywhere() {
        let bytes = sample(RankPolicy::Lexicographic).to_bytes();
        for pos in [4, bytes.len() / 2, bytes.len() - 9] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0xff;
            assert!(
                CompressedPlt::from_bytes(&corrupted).is_err(),
                "flip at {pos} must be detected"
            );
        }
    }

    #[test]
    fn detects_truncation() {
        let bytes = sample(RankPolicy::Lexicographic).to_bytes();
        assert!(CompressedPlt::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(CompressedPlt::from_bytes(&bytes[..4]).is_err());
        assert!(CompressedPlt::from_bytes(&[]).is_err());
    }

    #[test]
    fn crc32_catches_body_corruption_even_with_restamped_checksum() {
        // Flip a body byte *and* re-stamp the trailing Fx checksum: only
        // the independent header CRC32 can catch this.
        let mut bytes = sample(RankPolicy::Lexicographic).to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let body_len = bytes.len() - 8;
        let sum = checksum(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        let err = CompressedPlt::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("CRC32"), "{err}");
    }

    #[test]
    fn header_crc_field_sits_after_magic_and_version() {
        let bytes = sample(RankPolicy::Lexicographic).to_bytes();
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(bytes[4], VERSION as u8); // varint, single byte
        let stored = u32::from_le_bytes(bytes[5..9].try_into().unwrap());
        let computed = crate::crc::crc32(&bytes[9..bytes.len() - 8]);
        assert_eq!(stored, computed);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let original = sample(RankPolicy::Lexicographic);
        let mut bytes = original.to_bytes();
        // Version is the varint right after the 4-byte magic; VERSION = 1
        // encodes as a single byte. Patch it and re-stamp the checksum.
        bytes[4] = 9;
        let body_len = bytes.len() - 8;
        let sum = checksum(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        let err = CompressedPlt::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    /// Frames a crafted body the way `to_bytes` does: magic, version,
    /// header CRC32 over `body`, `body`, trailing checksum.
    fn seal(body: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        crate::varint::put_u32(&mut bytes, VERSION);
        bytes.extend_from_slice(&crate::crc::crc32(body).to_le_bytes());
        bytes.extend_from_slice(body);
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn counts_no_bytes_back_are_invalid_data() {
        // Both checksums hold, but a count claims 2^36 of something:
        // rejected, not sized into an allocation.
        let huge = |body: &mut Vec<u8>| crate::varint::put_u64(body, 1 << 36);
        // min_support, num_transactions, policy, then 2^36 ranked items.
        let mut items = vec![1, 1, 0];
        huge(&mut items);
        assert_eq!(seal(&items).len(), 26);
        // No items, one partition of 2^36-position vectors, one entry,
        // one payload byte.
        let mut width = vec![1, 1, 0, 0, 1];
        huge(&mut width);
        width.extend_from_slice(&[1, 1, 0]);
        for body in [items, width] {
            let err = CompressedPlt::from_bytes(&seal(&body)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn empty_body_is_invalid_data() {
        // Both checksums hold over a body that ends right after the
        // header CRC32: the header varints are missing.
        let bytes = seal(&[]);
        assert_eq!(bytes.len(), 17);
        let err = CompressedPlt::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// compress → file → decode round trip on random databases: the
        /// reloaded PLT carries the identical vector → frequency table,
        /// and — Lemma 4.1.2 — assigns every itemset the same canonical
        /// position-vector key as the original, so index lookups built
        /// against one answer correctly against the other.
        #[test]
        fn prop_file_roundtrip_preserves_canonical_keys(
            rows in proptest::collection::vec(
                proptest::collection::btree_set(0u32..30, 1..7),
                1..40,
            ),
            min_support in 1u64..5,
        ) {
            use std::sync::atomic::{AtomicUsize, Ordering};
            static CASE: AtomicUsize = AtomicUsize::new(0);

            let db: Vec<Vec<u32>> =
                rows.into_iter().map(|t| t.into_iter().collect()).collect();
            let plt = construct(&db, min_support, ConstructOptions::conditional()).unwrap();
            let compressed = CompressedPlt::from_plt(&plt);

            let path = std::env::temp_dir().join(format!(
                "plt-file-prop-{}-{}.pltc",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed),
            ));
            save(&path, &compressed).unwrap();
            let decoded = load(&path).unwrap().to_plt();
            std::fs::remove_file(&path).ok();

            // The stored table survives byte-for-byte in meaning: same
            // ranking, same (positions, frequency) multiset.
            prop_assert_eq!(plt.ranking(), decoded.ranking());
            prop_assert_eq!(plt.min_support(), decoded.min_support());
            prop_assert_eq!(plt.num_transactions(), decoded.num_transactions());
            let table = |p: &plt_core::Plt| -> std::collections::BTreeSet<(Vec<u32>, u64)> {
                p.iter()
                    .map(|(v, e)| (v.positions().to_vec(), e.freq))
                    .collect()
            };
            prop_assert_eq!(table(&plt), table(&decoded));

            // Canonical keys: every source row (restricted to its frequent
            // items) keys identically through both PLTs.
            for row in &db {
                let frequent: Vec<u32> = row
                    .iter()
                    .copied()
                    .filter(|&i| plt.ranking().rank(i).is_some())
                    .collect();
                if frequent.is_empty() {
                    continue;
                }
                let key = |p: &plt_core::Plt| {
                    plt_core::PositionVector::canonical_for(&frequent, p.ranking())
                };
                let (original, reloaded) = (key(&plt), key(&decoded));
                prop_assert!(original.is_some(), "no key for {:?}", frequent);
                prop_assert_eq!(original, reloaded, "keys diverge for {:?}", frequent);
            }
        }
    }
}
