//! Immutable on-disk segment files.
//!
//! A segment holds the frequent itemsets of one or more shards, each
//! itemset stored as its **canonical position vector** (Lemma 4.1.2: the
//! vector is a bijective key for the itemset under a fixed ranking) plus
//! its support. The encoding extends the PLTC idiom — varint positions,
//! front coding within fixed-size blocks — and adds the piece random
//! access needs: a **prefix-sum block index** (block byte offsets stored
//! as varint deltas) and a first-key table, so a point lookup is a binary
//! search over block first-keys followed by a decode of at most one
//! block: `O(log B + BLOCK_ENTRIES)`.
//!
//! ```text
//! file  := "PLTS" | version u32 LE | crc32 u32 LE (over remainder)
//!          | num_transactions varint | n_shards varint | shard*
//! shard := shard_id varint | n_entries varint
//!          | n_blocks varint | block-offset deltas (varint, prefix-summed)
//!          | first keys (klen varint, positions varint×klen) × n_blocks
//!          | payload_len varint | payload
//! entry := klen varint | lcp varint | (klen−lcp) suffix positions varint
//!          | support varint            (lcp = 0 at block starts)
//! ```
//!
//! Entries are sorted lexicographically by position vector. Segments are
//! written once, fsynced, and never modified; readers mmap the file,
//! verify the CRC, parse the directory + indexes into memory, check each
//! shard's index against one decode of its payload, and then decode
//! payload bytes straight out of the mapping on demand.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use plt_compress::crc::crc32;
use plt_compress::varint;
use plt_core::item::{Rank, Support};

use crate::mmap::Mmap;

/// Segment file magic.
pub const SEGMENT_MAGIC: &[u8; 4] = b"PLTS";

/// Segment format version.
pub const SEGMENT_VERSION: u32 = 1;

/// Entries per front-coded block (restart interval). Lookups decode at
/// most this many entries after the block binary search.
pub const BLOCK_ENTRIES: usize = 32;

/// The entries of one shard headed for a segment: `(canonical position
/// vector, support)` pairs. The writer sorts them.
#[derive(Debug, Clone, Default)]
pub struct ShardEntries {
    /// Shard index the entries belong to.
    pub shard: u32,
    /// `(positions, support)` pairs, any order.
    pub entries: Vec<(Vec<Rank>, Support)>,
}

/// Serialises shards into segment-file bytes.
pub fn encode_segment(num_transactions: u64, shards: &[ShardEntries]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    let crc_pos = out.len();
    out.extend_from_slice(&[0u8; 4]);

    varint::put_u64(&mut out, num_transactions);
    let mut sorted: Vec<&ShardEntries> = shards.iter().collect();
    sorted.sort_by_key(|s| s.shard);
    varint::put_u64(&mut out, sorted.len() as u64);
    for shard in sorted {
        let mut entries = shard.entries.clone();
        entries.sort();
        // Position vectors are bijective itemset keys (Lemma 4.1.2), so
        // duplicates can only come from caller error; keep the first.
        entries.dedup_by(|a, b| a.0 == b.0);
        varint::put_u32(&mut out, shard.shard);
        varint::put_u64(&mut out, entries.len() as u64);

        // Front-code the payload, remembering block offsets + first keys.
        let mut payload = Vec::new();
        let mut offsets: Vec<u64> = Vec::new();
        let mut first_keys: Vec<&[Rank]> = Vec::new();
        let mut prev: &[Rank] = &[];
        for (ordinal, (positions, support)) in entries.iter().enumerate() {
            let lcp = if ordinal % BLOCK_ENTRIES == 0 {
                offsets.push(payload.len() as u64);
                first_keys.push(positions);
                0
            } else {
                positions
                    .iter()
                    .zip(prev)
                    .take_while(|(a, b)| a == b)
                    .count()
            };
            varint::put_u64(&mut payload, positions.len() as u64);
            varint::put_u64(&mut payload, lcp as u64);
            for &p in &positions[lcp..] {
                varint::put_u32(&mut payload, p);
            }
            varint::put_u64(&mut payload, *support);
            prev = positions;
        }

        varint::put_u64(&mut out, offsets.len() as u64);
        let mut prev_off = 0u64;
        for &off in &offsets {
            varint::put_u64(&mut out, off - prev_off); // prefix-sum deltas
            prev_off = off;
        }
        for key in &first_keys {
            varint::put_u64(&mut out, key.len() as u64);
            for &p in key.iter() {
                varint::put_u32(&mut out, p);
            }
        }
        varint::put_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
    }

    let crc = crc32(&out[crc_pos + 4..]);
    out[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Writes a segment file (write → fsync). Returns the byte size.
pub fn write_segment(
    path: &Path,
    num_transactions: u64,
    shards: &[ShardEntries],
) -> io::Result<u64> {
    let bytes = encode_segment(num_transactions, shards);
    let mut file = std::fs::File::create(path)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    Ok(bytes.len() as u64)
}

/// Decodes a shard's payload once and checks its block index against
/// it: one block per `BLOCK_ENTRIES` entries, each offset and first key
/// naming the entry that starts its block, keys strictly increasing, and
/// the payload used up by `n_entries` entries. Panics where they
/// disagree (`open` turns that into `InvalidData`), so `lookup` and
/// `iter_shard` decode only bytes that passed here.
fn check_shard(payload: &[u8], n_entries: usize, offsets: &[u64], first_keys: &[Vec<Rank>]) {
    assert_eq!(
        offsets.len(),
        n_entries.div_ceil(BLOCK_ENTRIES),
        "block count"
    );
    let mut buf = payload;
    let (mut key, mut prev): (Vec<Rank>, Vec<Rank>) = (Vec::new(), Vec::new());
    for ordinal in 0..n_entries {
        let at = (payload.len() - buf.len()) as u64;
        let klen = varint::get_u64(&mut buf) as usize;
        let lcp = varint::get_u64(&mut buf) as usize;
        let block = (ordinal % BLOCK_ENTRIES == 0).then_some(ordinal / BLOCK_ENTRIES);
        assert!(lcp <= klen && lcp <= prev.len(), "prefix longer than a key");
        assert!(
            block.is_none() || lcp == 0,
            "block starts with a shared prefix"
        );
        key.clear();
        key.extend_from_slice(&prev[..lcp]);
        for _ in lcp..klen {
            key.push(varint::get_u32(&mut buf));
        }
        varint::get_u64(&mut buf); // support
        assert!(ordinal == 0 || key > prev, "keys out of order");
        if let Some(b) = block {
            assert!(
                offsets[b] == at && first_keys[b] == key,
                "block index disagrees"
            );
        }
        std::mem::swap(&mut key, &mut prev);
    }
    assert!(buf.is_empty(), "payload longer than its entries");
}

/// In-memory index of one shard inside a segment.
struct ShardIndex {
    shard: u32,
    n_entries: usize,
    /// Absolute byte offset of each block start within the payload.
    offsets: Vec<u64>,
    /// First position vector of each block.
    first_keys: Vec<Vec<Rank>>,
    /// Payload byte range within the mapped file.
    payload: std::ops::Range<usize>,
}

/// Per-shard index statistics, exposed for `store inspect`.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: u32,
    /// Entries stored for the shard.
    pub entries: usize,
    /// Front-coded blocks (binary-search domain of a lookup).
    pub blocks: usize,
    /// Payload bytes (excluding the index).
    pub payload_bytes: usize,
}

/// A read-only, mmap-backed view of a segment file. The directory and
/// block indexes live in memory; entry payloads are decoded from the
/// mapping on demand, so a point lookup touches only the pages of one
/// block.
pub struct SegmentReader {
    /// The mapped file.
    map: Mmap,
    path: PathBuf,
    num_transactions: u64,
    /// Sorted by shard id.
    shards: Vec<ShardIndex>,
}

impl std::fmt::Debug for SegmentReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentReader")
            .field("path", &self.path)
            .field("bytes", &self.map.len())
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl SegmentReader {
    /// Maps and validates a segment file, parsing the directory and
    /// block indexes and checking each shard's index against one decode
    /// of its payload. A file that is not a well-formed segment is
    /// `InvalidData` here, so later reads never meet malformed bytes.
    pub fn open(path: &Path) -> io::Result<SegmentReader> {
        let map = Mmap::open(path)?;
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let bytes = map.as_slice();
        if bytes.len() < 12 || &bytes[..4] != SEGMENT_MAGIC {
            return Err(bad("not a PLT segment (bad magic)"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != SEGMENT_VERSION {
            return Err(bad(&format!("unsupported segment version {version}")));
        }
        let stored = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if crc32(&bytes[12..]) != stored {
            return Err(bad("segment CRC32 mismatch"));
        }

        // The varint decoder panics on corruption; the CRC has already
        // vouched for the bytes, so a panic here means a malformed write
        // (or a CRC-valid file that lies) — convert it into an error all
        // the same.
        let parsed = std::panic::catch_unwind(|| {
            let data = &bytes[12..];
            let mut buf = data;
            let num_transactions = varint::get_u64(&mut buf);
            // Counts come from the file: each allocation they size is
            // capped by the bytes left, so a count that no bytes back
            // cannot exhaust memory before the reads below fail.
            let n_shards = varint::get_u64(&mut buf) as usize;
            let mut shards = Vec::with_capacity(n_shards.min(buf.len()));
            for _ in 0..n_shards {
                let shard = varint::get_u32(&mut buf);
                let n_entries = varint::get_u64(&mut buf) as usize;
                let n_blocks = varint::get_u64(&mut buf) as usize;
                let mut offsets = Vec::with_capacity(n_blocks.min(buf.len()));
                let mut acc = 0u64;
                for _ in 0..n_blocks {
                    acc += varint::get_u64(&mut buf);
                    offsets.push(acc);
                }
                let mut first_keys = Vec::with_capacity(n_blocks.min(buf.len()));
                for _ in 0..n_blocks {
                    let klen = varint::get_u64(&mut buf) as usize;
                    let mut key = Vec::with_capacity(klen.min(buf.len()));
                    for _ in 0..klen {
                        key.push(varint::get_u32(&mut buf));
                    }
                    first_keys.push(key);
                }
                let payload_len = varint::get_u64(&mut buf) as usize;
                let start = 12 + (data.len() - buf.len());
                assert!(buf.len() >= payload_len, "payload overruns file");
                check_shard(&buf[..payload_len], n_entries, &offsets, &first_keys);
                buf = &buf[payload_len..];
                shards.push(ShardIndex {
                    shard,
                    n_entries,
                    offsets,
                    first_keys,
                    payload: start..start + payload_len,
                });
            }
            assert!(buf.is_empty(), "trailing bytes after last shard");
            (num_transactions, shards)
        })
        .map_err(|_| bad("malformed segment structure"))?;

        Ok(SegmentReader {
            map,
            path: path.to_path_buf(),
            num_transactions: parsed.0,
            shards: parsed.1,
        })
    }

    /// Shard ids present in the segment, ascending.
    pub fn shard_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.shards.iter().map(|s| s.shard)
    }

    /// Window size recorded when the segment was written (informational —
    /// a live pipeline substitutes its current count when loading).
    pub fn num_transactions(&self) -> u64 {
        self.num_transactions
    }

    /// Total mapped bytes.
    pub fn bytes(&self) -> u64 {
        self.map.len() as u64
    }

    /// File path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Per-shard index statistics.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                shard: s.shard,
                entries: s.n_entries,
                blocks: s.offsets.len(),
                payload_bytes: s.payload.len(),
            })
            .collect()
    }

    fn index_of(&self, shard: u32) -> Option<&ShardIndex> {
        self.shards
            .binary_search_by_key(&shard, |s| s.shard)
            .ok()
            .map(|i| &self.shards[i])
    }

    /// Point lookup: the support of the itemset whose canonical position
    /// vector is `positions`, or `None` if absent. Binary search over the
    /// block first-keys, then a decode of at most one block.
    pub fn lookup(&self, shard: u32, positions: &[Rank]) -> Option<Support> {
        let idx = self.index_of(shard)?;
        // First block whose first key is > target; the candidate block is
        // the one before it.
        let upper = idx
            .first_keys
            .partition_point(|key| key.as_slice() <= positions);
        if upper == 0 {
            return None;
        }
        let block = upper - 1;
        let payload = &self.map.as_slice()[idx.payload.clone()];
        let mut buf = &payload[idx.offsets[block] as usize..];
        let in_block = (idx.n_entries - block * BLOCK_ENTRIES).min(BLOCK_ENTRIES);
        let mut prev: Vec<Rank> = Vec::new();
        for _ in 0..in_block {
            let klen = varint::get_u64(&mut buf) as usize;
            let lcp = varint::get_u64(&mut buf) as usize;
            prev.truncate(lcp);
            for _ in lcp..klen {
                prev.push(varint::get_u32(&mut buf));
            }
            let support = varint::get_u64(&mut buf);
            match prev.as_slice().cmp(positions) {
                std::cmp::Ordering::Equal => return Some(support),
                std::cmp::Ordering::Greater => return None, // sorted: passed it
                std::cmp::Ordering::Less => {}
            }
        }
        None
    }

    /// Sequentially decodes every entry of `shard` (used to load a
    /// spilled fragment back into memory, and by the proptest oracle).
    pub fn iter_shard(&self, shard: u32) -> Option<Vec<(Vec<Rank>, Support)>> {
        let idx = self.index_of(shard)?;
        let payload = &self.map.as_slice()[idx.payload.clone()];
        let mut buf = payload;
        let mut out = Vec::with_capacity(idx.n_entries);
        let mut prev: Vec<Rank> = Vec::new();
        for _ in 0..idx.n_entries {
            let klen = varint::get_u64(&mut buf) as usize;
            let lcp = varint::get_u64(&mut buf) as usize;
            prev.truncate(lcp);
            for _ in lcp..klen {
                prev.push(varint::get_u32(&mut buf));
            }
            let support = varint::get_u64(&mut buf);
            out.push((prev.clone(), support));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("plt-seg-{}-{name}.plts", std::process::id()))
    }

    fn sample_entries(n: usize, salt: u32) -> Vec<(Vec<Rank>, Support)> {
        // Strictly increasing position vectors of varied length.
        (0..n as u32)
            .map(|i| {
                let k = 1 + (i % 4) as usize;
                let mut v = Vec::with_capacity(k);
                let mut acc = 0;
                for j in 0..k as u32 {
                    acc += 1 + ((i * 7 + j * 3 + salt) % 5);
                    v.push(acc);
                }
                (v, u64::from(i % 9 + 1))
            })
            .collect()
    }

    #[test]
    fn write_read_round_trip_multi_shard() {
        let path = tmp("multi");
        let shards = vec![
            ShardEntries {
                shard: 0,
                entries: sample_entries(100, 0),
            },
            ShardEntries {
                shard: 3,
                entries: sample_entries(7, 11),
            },
        ];
        write_segment(&path, 500, &shards).unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        assert_eq!(reader.num_transactions(), 500);
        assert_eq!(reader.shard_ids().collect::<Vec<_>>(), vec![0, 3]);
        for shard in &shards {
            let mut expect: Vec<(Vec<Rank>, Support)> = shard.entries.clone();
            expect.sort();
            expect.dedup_by(|a, b| a.0 == b.0);
            let got = reader.iter_shard(shard.shard).unwrap();
            assert_eq!(got, expect);
            for (positions, support) in &expect {
                assert_eq!(
                    reader.lookup(shard.shard, positions),
                    Some(*support),
                    "{positions:?}"
                );
            }
        }
        assert_eq!(reader.lookup(0, &[999]), None);
        assert_eq!(reader.lookup(9, &[1]), None, "absent shard");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_shard_and_empty_segment() {
        let path = tmp("empty");
        let shards = vec![ShardEntries {
            shard: 2,
            entries: vec![],
        }];
        write_segment(&path, 0, &shards).unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        assert_eq!(reader.iter_shard(2).unwrap(), vec![]);
        assert_eq!(reader.lookup(2, &[1]), None);

        let path2 = tmp("none");
        write_segment(&path2, 0, &[]).unwrap();
        let reader2 = SegmentReader::open(&path2).unwrap();
        assert_eq!(reader2.shard_ids().count(), 0);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let path = tmp("corrupt");
        write_segment(
            &path,
            10,
            &[ShardEntries {
                shard: 0,
                entries: sample_entries(50, 3),
            }],
        )
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = SegmentReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("CRC32"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_count_no_bytes_back_is_invalid_data() {
        // A 19-byte segment with a valid CRC32 whose shard count claims
        // 2^36 shards: rejected, not sized into an allocation.
        let path = tmp("shard-count");
        let mut body = Vec::new();
        varint::put_u64(&mut body, 0); // num_transactions
        varint::put_u64(&mut body, 1 << 36);
        let mut bytes = SEGMENT_MAGIC.to_vec();
        bytes.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        assert_eq!(bytes.len(), 19);
        std::fs::write(&path, &bytes).unwrap();
        let err = SegmentReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lookup_before_first_key_is_none() {
        let path = tmp("first");
        write_segment(
            &path,
            1,
            &[ShardEntries {
                shard: 0,
                entries: vec![(vec![5], 2), (vec![5, 6], 3)],
            }],
        )
        .unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        assert_eq!(reader.lookup(0, &[1]), None);
        assert_eq!(reader.lookup(0, &[5]), Some(2));
        assert_eq!(reader.lookup(0, &[5, 6]), Some(3));
        std::fs::remove_file(&path).ok();
    }
}
