//! The compressed PLT: per-partition front-coded varint blocks plus a sum
//! index.
//!
//! Layout of one partition (all vectors of one length `k`):
//!
//! ```text
//! entries sorted lexicographically, grouped into blocks of BLOCK entries;
//! each block starts at a byte offset recorded in `restarts`.
//!
//! entry 0 of a block:  k varint positions, varint freq
//! entry i > 0:         varint lcp (shared prefix length with previous
//!                      entry), (k − lcp) varint positions, varint freq
//! ```
//!
//! Random access decodes at most one block; streaming decodes run straight
//! through. The sum index maps each distinct vector sum to the ordinals of
//! its entries, so a conditional database (all vectors whose last item has
//! rank `j` — Lemma 4.1.1) is fetched by ordinal without touching other
//! blocks.

use std::collections::BTreeMap;

use bytes::Bytes;

use plt_core::item::{Rank, Support};
use plt_core::plt::Plt;
use plt_core::posvec::{PositionVector, Positions};

use crate::varint;

/// Entries per front-coding block (restart interval).
const BLOCK: usize = 16;

/// One compressed partition.
#[derive(Debug, Clone)]
struct Partition {
    /// Vector length of every entry in this partition.
    k: usize,
    data: Bytes,
    /// Byte offset of each block start.
    restarts: Vec<u32>,
    num_entries: usize,
    /// sum → ordinals of entries with that sum, ordinals ascending.
    sum_index: BTreeMap<Rank, Vec<u32>>,
}

impl Partition {
    fn build(k: usize, mut entries: Vec<(&Positions, Support)>) -> Partition {
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut data = Vec::new();
        let mut restarts = Vec::new();
        let mut sum_index: BTreeMap<Rank, Vec<u32>> = BTreeMap::new();
        let mut prev: &[Rank] = &[];
        for (ordinal, (v, freq)) in entries.iter().enumerate() {
            let positions = v.positions();
            debug_assert_eq!(positions.len(), k);
            sum_index.entry(v.sum()).or_default().push(ordinal as u32);
            if ordinal % BLOCK == 0 {
                restarts.push(data.len() as u32);
                for &p in positions {
                    varint::put_u32(&mut data, p);
                }
            } else {
                let lcp = positions
                    .iter()
                    .zip(prev)
                    .take_while(|(a, b)| a == b)
                    .count();
                varint::put_u32(&mut data, lcp as u32);
                for &p in &positions[lcp..] {
                    varint::put_u32(&mut data, p);
                }
            }
            varint::put_u64(&mut data, *freq);
            prev = positions;
        }
        Partition {
            k,
            data: Bytes::from(data),
            restarts,
            num_entries: entries.len(),
            sum_index,
        }
    }

    /// Streams every `(vector, freq)` entry in lexicographic order.
    fn iter(&self) -> PartitionIter<'_> {
        PartitionIter {
            partition: self,
            buf: &self.data,
            ordinal: 0,
            prev: Vec::with_capacity(self.k),
        }
    }

    /// Decodes the entry at `ordinal` by walking its block.
    fn decode_at(&self, ordinal: u32) -> (PositionVector, Support) {
        let block = ordinal as usize / BLOCK;
        let mut buf = &self.data[self.restarts[block] as usize..];
        let mut prev: Vec<Rank> = Vec::with_capacity(self.k);
        let first = block * BLOCK;
        for i in first..=ordinal as usize {
            let lcp = if i == first {
                0
            } else {
                varint::get_u32(&mut buf) as usize
            };
            prev.truncate(lcp);
            for _ in lcp..self.k {
                prev.push(varint::get_u32(&mut buf));
            }
            let freq = varint::get_u64(&mut buf);
            if i == ordinal as usize {
                return (
                    PositionVector::from_positions(prev.clone()).expect("stored vectors valid"),
                    freq,
                );
            }
        }
        unreachable!("ordinal within bounds")
    }
}

struct PartitionIter<'a> {
    partition: &'a Partition,
    buf: &'a [u8],
    ordinal: usize,
    prev: Vec<Rank>,
}

impl Iterator for PartitionIter<'_> {
    type Item = (PositionVector, Support);

    fn next(&mut self) -> Option<Self::Item> {
        if self.ordinal >= self.partition.num_entries {
            return None;
        }
        let lcp = if self.ordinal % BLOCK == 0 {
            0
        } else {
            varint::get_u32(&mut self.buf) as usize
        };
        self.prev.truncate(lcp);
        for _ in lcp..self.partition.k {
            self.prev.push(varint::get_u32(&mut self.buf));
        }
        let freq = varint::get_u64(&mut self.buf);
        self.ordinal += 1;
        Some((
            PositionVector::from_positions(self.prev.clone()).expect("stored vectors valid"),
            freq,
        ))
    }
}

/// A PLT stored compressed. Holds everything needed to reconstruct the
/// original [`Plt`] (the ranking is kept uncompressed — it is `O(items)`).
///
/// # Examples
///
/// ```
/// use plt_compress::CompressedPlt;
/// use plt_core::construct::{construct, ConstructOptions};
///
/// let db = vec![vec![1, 2, 3], vec![1, 2], vec![2, 3]];
/// let plt = construct(&db, 1, ConstructOptions::conditional()).unwrap();
/// let compressed = CompressedPlt::from_plt(&plt);
/// // Exact round trip…
/// let back = compressed.to_plt();
/// assert_eq!(back.num_vectors(), plt.num_vectors());
/// // …and indexed access to item 3's conditional database (sum == 3).
/// assert_eq!(compressed.vectors_with_sum(3).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CompressedPlt {
    partitions: Vec<Partition>,
    ranking: plt_core::ranking::ItemRanking,
    min_support: Support,
    num_transactions: u64,
}

impl CompressedPlt {
    /// Compresses a PLT.
    pub fn from_plt(plt: &Plt) -> CompressedPlt {
        let mut partitions = Vec::new();
        for k in 1..=plt.max_len() {
            let entries: Vec<(&Positions, Support)> =
                plt.partition(k).map(|(v, e)| (v, e.freq)).collect();
            if !entries.is_empty() {
                partitions.push(Partition::build(k, entries));
            }
        }
        CompressedPlt {
            partitions,
            ranking: plt.ranking().clone(),
            min_support: plt.min_support(),
            num_transactions: plt.num_transactions(),
        }
    }

    /// Decompresses back into a [`Plt`]; exact round trip.
    pub fn to_plt(&self) -> Plt {
        let mut plt =
            Plt::new(self.ranking.clone(), self.min_support).expect("stored min support was valid");
        for p in &self.partitions {
            for (v, freq) in p.iter() {
                plt.insert_vector(&v, freq);
            }
        }
        for _ in 0..self.num_transactions {
            plt.note_transaction();
        }
        plt
    }

    /// Total number of stored vectors.
    pub fn num_vectors(&self) -> usize {
        self.partitions.iter().map(|p| p.num_entries).sum()
    }

    /// Compressed payload size in bytes (vector data only; the index adds
    /// [`index_bytes`](Self::index_bytes)).
    pub fn data_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.data.len()).sum()
    }

    /// Size of the restart tables and sum index.
    pub fn index_bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| {
                p.restarts.len() * 4 + p.sum_index.values().map(|v| 4 + v.len() * 4).sum::<usize>()
            })
            .sum()
    }

    /// The conditional database of the item with rank `j`: decoded vectors
    /// whose sum is `j`, fetched through the sum index. (Callers typically
    /// drop the last position next — `PositionVector::parent`.)
    pub fn vectors_with_sum(&self, j: Rank) -> Vec<(PositionVector, Support)> {
        let mut out = Vec::new();
        for p in &self.partitions {
            if let Some(ordinals) = p.sum_index.get(&j) {
                for &o in ordinals {
                    out.push(p.decode_at(o));
                }
            }
        }
        out
    }

    /// Streams every stored entry (shortest partitions first).
    pub fn iter(&self) -> impl Iterator<Item = (PositionVector, Support)> + '_ {
        self.partitions.iter().flat_map(|p| p.iter())
    }

    /// Builds the size-accounting report of experiment X6 for a PLT and
    /// the database it came from.
    pub fn report(plt: &Plt, raw_db_items: usize) -> CompressionReport {
        let compressed = CompressedPlt::from_plt(plt);
        let plt_table_bytes: usize = plt
            .iter()
            .map(|(v, _)| {
                v.len() * std::mem::size_of::<Rank>()
                    + std::mem::size_of::<Support>()
                    + std::mem::size_of::<Rank>()
            })
            .sum();
        CompressionReport {
            raw_db_bytes: raw_db_items * std::mem::size_of::<u32>(),
            plt_table_bytes,
            compressed_data_bytes: compressed.data_bytes(),
            compressed_index_bytes: compressed.index_bytes(),
            num_vectors: compressed.num_vectors(),
        }
    }
}

impl CompressedPlt {
    /// Serialises to the `PLTC` v2 byte format (see [`crate::file`]):
    /// header with CRC32, ranking table, per-partition payloads, trailing
    /// checksum. Indexes are *not* stored — they are derived data,
    /// rebuilt on load.
    pub fn to_bytes(&self) -> Vec<u8> {
        use crate::varint::{put_u32, put_u64};
        let mut out: Vec<u8> = Vec::new();
        out.extend_from_slice(crate::file::MAGIC);
        put_u32(&mut out, crate::file::VERSION);
        // Reserve the header CRC32; patched once the body is complete.
        let crc_pos = out.len();
        out.extend_from_slice(&[0u8; 4]);
        put_u64(&mut out, self.min_support);
        put_u64(&mut out, self.num_transactions);
        out.push(match self.ranking.policy() {
            plt_core::ranking::RankPolicy::Lexicographic => 0,
            plt_core::ranking::RankPolicy::FrequencyDescending => 1,
            plt_core::ranking::RankPolicy::FrequencyAscending => 2,
        });
        put_u64(&mut out, self.ranking.len() as u64);
        for (item, _, support) in self.ranking.entries() {
            put_u32(&mut out, item);
            put_u64(&mut out, support);
        }
        put_u64(&mut out, self.partitions.len() as u64);
        for p in &self.partitions {
            put_u64(&mut out, p.k as u64);
            put_u64(&mut out, p.num_entries as u64);
            put_u64(&mut out, p.data.len() as u64);
            out.extend_from_slice(&p.data);
        }
        let crc = crate::crc::crc32(&out[crc_pos + 4..]);
        out[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
        let checksum = crate::file::checksum(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Deserialises the `PLTC` byte format, validating magic, version,
    /// CRC32 and checksum, and rebuilding the restart tables and sum
    /// indexes.
    pub fn from_bytes(bytes: &[u8]) -> std::io::Result<CompressedPlt> {
        if bytes.len() < crate::file::MAGIC.len() + 8 {
            return Err(bad("truncated PLTC file"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if crate::file::checksum(body) != stored {
            return Err(bad("PLTC checksum mismatch"));
        }
        let (magic, rest) = body.split_at(crate::file::MAGIC.len());
        if magic != crate::file::MAGIC {
            return Err(bad("not a PLTC file (bad magic)"));
        }
        // The varint decoder panics on malformed input, and the
        // (non-cryptographic) checksums vouch for the bytes, not their
        // structure: every read past the magic runs under one catch, so
        // a file that passes both checks but is inconsistent becomes
        // InvalidData, never a panic.
        std::panic::catch_unwind(|| decode_body(rest))
            .map_err(|_| bad("malformed PLTC structure"))?
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Decodes everything after the `PLTC` magic. Counts come from the file:
/// each allocation they size is capped by the bytes left, so a count
/// that no bytes back cannot exhaust memory before the reads fail.
fn decode_body(mut buf: &[u8]) -> std::io::Result<CompressedPlt> {
    use crate::varint::{get_u32, get_u64};

    let version = get_u32(&mut buf);
    if version != crate::file::VERSION {
        return Err(bad(&format!("unsupported PLTC version {version}")));
    }
    if buf.len() < 4 {
        return Err(bad("truncated PLTC header"));
    }
    let stored_crc = u32::from_le_bytes(buf[..4].try_into().expect("4-byte crc"));
    buf = &buf[4..];
    if crate::crc::crc32(buf) != stored_crc {
        return Err(bad("PLTC CRC32 mismatch"));
    }
    let min_support = get_u64(&mut buf);
    let num_transactions = get_u64(&mut buf);
    let policy = match buf.first() {
        Some(0) => plt_core::ranking::RankPolicy::Lexicographic,
        Some(1) => plt_core::ranking::RankPolicy::FrequencyDescending,
        Some(2) => plt_core::ranking::RankPolicy::FrequencyAscending,
        _ => return Err(bad("bad rank policy byte")),
    };
    buf = &buf[1..];
    let n_items = get_u64(&mut buf) as usize;
    let mut frequent = Vec::with_capacity(n_items.min(buf.len()));
    for _ in 0..n_items {
        let item = get_u32(&mut buf);
        let support = get_u64(&mut buf);
        frequent.push((item, support));
    }
    // `from_frequent_items` re-sorts by the policy (deterministic tie
    // break), reproducing the original ranking exactly.
    let ranking = plt_core::ranking::ItemRanking::from_frequent_items(frequent, policy);

    let n_partitions = get_u64(&mut buf) as usize;
    let mut partitions = Vec::with_capacity(n_partitions.min(buf.len()));
    for _ in 0..n_partitions {
        let k = get_u64(&mut buf) as usize;
        let num_entries = get_u64(&mut buf) as usize;
        let data_len = get_u64(&mut buf) as usize;
        // A stored partition is never empty, and its first entry alone
        // takes k + 1 bytes.
        if k == 0 || k >= data_len || buf.len() < data_len {
            return Err(bad("corrupt partition header"));
        }
        let (data, rest) = buf.split_at(data_len);
        buf = rest;
        // Decode and rebuild: the payload is not trusted to carry valid
        // indexes, so entries are re-front-coded from scratch. Streaming
        // decode needs no restarts.
        let shell = Partition {
            k,
            data: Bytes::copy_from_slice(data),
            restarts: Vec::new(),
            num_entries,
            sum_index: BTreeMap::new(),
        };
        let entries: Vec<(PositionVector, Support)> = shell.iter().collect();
        if entries.len() != num_entries {
            return Err(bad("partition entry count mismatch"));
        }
        let entries = entries.iter().map(|(v, freq)| (&**v, *freq)).collect();
        partitions.push(Partition::build(k, entries));
    }
    Ok(CompressedPlt {
        partitions,
        ranking,
        min_support,
        num_transactions,
    })
}

/// Size accounting for experiment X6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionReport {
    /// The horizontal database as flat `u32` items.
    pub raw_db_bytes: usize,
    /// The uncompressed PLT table (positions + freq + cached sum per
    /// vector).
    pub plt_table_bytes: usize,
    /// Front-coded varint payload.
    pub compressed_data_bytes: usize,
    /// Restart + sum-index overhead.
    pub compressed_index_bytes: usize,
    /// Distinct vectors stored.
    pub num_vectors: usize,
}

impl CompressionReport {
    /// Compression ratio of the payload vs the raw database.
    pub fn ratio_vs_raw(&self) -> f64 {
        self.compressed_data_bytes as f64 / self.raw_db_bytes.max(1) as f64
    }

    /// Compression ratio of the payload vs the in-memory PLT table.
    pub fn ratio_vs_table(&self) -> f64 {
        self.compressed_data_bytes as f64 / self.plt_table_bytes.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_core::construct::{construct, ConstructOptions};
    use plt_core::item::Item;

    fn table1() -> Vec<Vec<Item>> {
        vec![
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1, 2, 3],
            vec![0, 1, 3, 4],
            vec![1, 2, 3],
            vec![2, 3, 5],
        ]
    }

    fn build(db: &[Vec<Item>], min_sup: Support) -> Plt {
        construct(db, min_sup, ConstructOptions::conditional()).unwrap()
    }

    #[test]
    fn round_trip_table1() {
        let plt = build(&table1(), 2);
        let compressed = CompressedPlt::from_plt(&plt);
        assert_eq!(compressed.num_vectors(), plt.num_vectors());
        let back = compressed.to_plt();
        assert_eq!(back.num_vectors(), plt.num_vectors());
        assert_eq!(back.num_transactions(), plt.num_transactions());
        for (v, e) in plt.iter() {
            assert_eq!(back.vector_frequency(v), e.freq);
        }
    }

    #[test]
    fn round_trip_many_blocks() {
        // > BLOCK distinct vectors per partition to exercise restarts and
        // front coding.
        let db: Vec<Vec<Item>> = (0..300u32)
            .map(|i| vec![i % 20, 20 + (i % 15), 40 + (i % 11)])
            .collect();
        let plt = build(&db, 1);
        let compressed = CompressedPlt::from_plt(&plt);
        let back = compressed.to_plt();
        assert_eq!(back.num_vectors(), plt.num_vectors());
        for (v, e) in plt.iter() {
            assert_eq!(back.vector_frequency(v), e.freq, "{v}");
        }
    }

    #[test]
    fn sum_index_fetches_conditional_database() {
        let plt = build(&table1(), 2);
        let compressed = CompressedPlt::from_plt(&plt);
        let mut cd = compressed.vectors_with_sum(4);
        cd.sort();
        let mut expect: Vec<(PositionVector, Support)> = plt
            .iter()
            .filter(|(_, e)| e.sum == 4)
            .map(|(v, e)| (v.to_owned(), e.freq))
            .collect();
        expect.sort();
        assert_eq!(cd, expect);
        assert!(compressed.vectors_with_sum(99).is_empty());
    }

    #[test]
    fn random_access_equals_streaming() {
        let db: Vec<Vec<Item>> = (0..200u32)
            .map(|i| vec![i % 10, 10 + (i % 9), 19 + (i % 8), 27 + (i % 7)])
            .collect();
        let plt = build(&db, 1);
        let compressed = CompressedPlt::from_plt(&plt);
        for p in &compressed.partitions {
            let streamed: Vec<_> = p.iter().collect();
            for (ordinal, entry) in streamed.iter().enumerate() {
                assert_eq!(&p.decode_at(ordinal as u32), entry);
            }
        }
    }

    #[test]
    fn compression_beats_flat_encoding() {
        // Dense-ish data with small deltas: varint + front coding must
        // be well under 4 bytes per position.
        let db: Vec<Vec<Item>> = (0..500u32)
            .map(|i| {
                (0..8u32)
                    .filter(|b| (i >> b) & 1 == 1 || b % 2 == 0)
                    .collect()
            })
            .collect();
        let plt = build(&db, 1);
        let report = CompressedPlt::report(&plt, db.iter().map(Vec::len).sum());
        assert!(report.compressed_data_bytes > 0);
        assert!(
            report.ratio_vs_table() < 0.5,
            "expected >2x vs table, got ratio {}",
            report.ratio_vs_table()
        );
        assert!(report.ratio_vs_raw() < 1.0, "should beat the raw database");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Compression round-trips exactly on random databases, and
            /// the sum index agrees with a direct filter, for any
            /// min-support.
            #[test]
            fn prop_round_trip_and_index(
                db in proptest::collection::vec(
                    proptest::collection::btree_set(0u32..30, 1..8),
                    1..60,
                ),
                min_sup in 1u64..4,
            ) {
                let db: Vec<Vec<Item>> = db.into_iter()
                    .map(|t| t.into_iter().collect())
                    .collect();
                let plt = build(&db, min_sup);
                let compressed = CompressedPlt::from_plt(&plt);
                let back = compressed.to_plt();
                prop_assert_eq!(back.num_vectors(), plt.num_vectors());
                for (v, e) in plt.iter() {
                    prop_assert_eq!(back.vector_frequency(v), e.freq);
                }
                for j in 1..=plt.ranking().len() as u32 {
                    let mut got = compressed.vectors_with_sum(j);
                    got.sort();
                    let mut expect: Vec<(PositionVector, Support)> = plt
                        .iter()
                        .filter(|(_, e)| e.sum == j)
                        .map(|(v, e)| (v.to_owned(), e.freq))
                        .collect();
                    expect.sort();
                    prop_assert_eq!(got, expect);
                }
            }
        }
    }

    #[test]
    fn empty_plt_compresses_to_nothing() {
        let plt = build(&[], 1);
        let c = CompressedPlt::from_plt(&plt);
        assert_eq!(c.num_vectors(), 0);
        assert_eq!(c.data_bytes(), 0);
        assert_eq!(c.to_plt().num_vectors(), 0);
    }
}
