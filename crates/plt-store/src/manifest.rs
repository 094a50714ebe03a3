//! The checkpoint manifest and the window snapshot file.
//!
//! `MANIFEST` is the single source of truth for a data directory: which
//! WAL holds the live tail, which window snapshot to reload, which
//! segment files are alive, which segment serves each shard, and the
//! **exact ranking** in force at checkpoint time (stored as `(item,
//! support)` pairs in rank order plus the policy byte —
//! `ItemRanking::from_frequent_items` is deterministic, so recovery
//! reproduces the identical rank function, and with it identical
//! canonical position vectors).
//!
//! The manifest is replaced atomically: write `MANIFEST.tmp`, fsync it,
//! `rename(2)` over `MANIFEST`, fsync the directory. A crash leaves
//! either the old or the new manifest, never a torn one — and every file
//! a manifest references is always fsynced before the rename publishes
//! it.
//!
//! ```text
//! manifest := "PLTM" | version u32 LE | crc32 u32 LE (over remainder)
//!             | epoch varint | last_seq varint
//!             | min_support varint | shard_count varint
//!             | policy u8 | n_items varint | (item, support varints)×n
//!             | wal name | window name          (varint len + utf-8)
//!             | n_segments varint | segment names
//!             | shard_map: shard_count varints  (0 = none, else ordinal+1)
//!             | dirty: shard_count bytes
//! window   := "PLTX" | version u32 LE | crc32 u32 LE (over remainder)
//!             | n varint | (len varint, items varint×len)×n
//! ```

use std::io::{self, Write};
use std::path::Path;

use plt_compress::crc::crc32;
use plt_compress::varint;
use plt_core::item::{Item, Support};
use plt_core::ranking::{ItemRanking, RankPolicy};

/// Manifest file name within a data directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Manifest file magic.
pub const MANIFEST_MAGIC: &[u8; 4] = b"PLTM";

/// Window snapshot magic.
pub const WINDOW_MAGIC: &[u8; 4] = b"PLTX";

/// Format version shared by manifest and window files.
pub const STORE_VERSION: u32 = 1;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    varint::put_u64(out, name.len() as u64);
    out.extend_from_slice(name.as_bytes());
}

fn get_name(buf: &mut &[u8]) -> io::Result<String> {
    let len = varint::get_u64(buf) as usize;
    if buf.len() < len {
        return Err(bad("truncated name"));
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    String::from_utf8(head.to_vec()).map_err(|_| bad("name is not utf-8"))
}

fn policy_byte(policy: RankPolicy) -> u8 {
    match policy {
        RankPolicy::Lexicographic => 0,
        RankPolicy::FrequencyDescending => 1,
        RankPolicy::FrequencyAscending => 2,
    }
}

fn policy_from(byte: u8) -> io::Result<RankPolicy> {
    match byte {
        0 => Ok(RankPolicy::Lexicographic),
        1 => Ok(RankPolicy::FrequencyDescending),
        2 => Ok(RankPolicy::FrequencyAscending),
        _ => Err(bad("bad rank policy byte")),
    }
}

/// Checkpoint metadata: everything recovery needs besides the WAL tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Checkpoint epoch (monotone; names the WAL/window files).
    pub epoch: u64,
    /// WAL sequence number the checkpoint captured up to (exclusive):
    /// the current WAL's records all have `seq >= last_seq`.
    pub last_seq: u64,
    /// Pipeline minimum support.
    pub min_support: Support,
    /// Shard count at checkpoint time.
    pub shard_count: usize,
    /// Ranking policy.
    pub policy: RankPolicy,
    /// Exact ranking entries, rank order: `(item, support-at-rank-time)`.
    pub items: Vec<(Item, Support)>,
    /// Live WAL file name (tail to replay).
    pub wal: String,
    /// Window snapshot file name.
    pub window: String,
    /// Live segment file names.
    pub segments: Vec<String>,
    /// For each shard, the index into `segments` serving it (`None` when
    /// the shard has never been persisted — recovery re-mines it).
    pub shard_map: Vec<Option<usize>>,
    /// Dirty flags at checkpoint time (normally all false: checkpoints
    /// run between applies).
    pub dirty: Vec<bool>,
}

impl Manifest {
    /// Rebuilds the exact ranking the manifest captured.
    pub fn ranking(&self) -> ItemRanking {
        ItemRanking::from_frequent_items(self.items.clone(), self.policy)
    }

    /// Serialises the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&STORE_VERSION.to_le_bytes());
        let crc_pos = out.len();
        out.extend_from_slice(&[0u8; 4]);

        varint::put_u64(&mut out, self.epoch);
        varint::put_u64(&mut out, self.last_seq);
        varint::put_u64(&mut out, self.min_support);
        varint::put_u64(&mut out, self.shard_count as u64);
        out.push(policy_byte(self.policy));
        varint::put_u64(&mut out, self.items.len() as u64);
        for &(item, support) in &self.items {
            varint::put_u32(&mut out, item);
            varint::put_u64(&mut out, support);
        }
        put_name(&mut out, &self.wal);
        put_name(&mut out, &self.window);
        varint::put_u64(&mut out, self.segments.len() as u64);
        for name in &self.segments {
            put_name(&mut out, name);
        }
        debug_assert_eq!(self.shard_map.len(), self.shard_count);
        debug_assert_eq!(self.dirty.len(), self.shard_count);
        for &entry in &self.shard_map {
            varint::put_u64(&mut out, entry.map(|i| i as u64 + 1).unwrap_or(0));
        }
        for &d in &self.dirty {
            out.push(u8::from(d));
        }

        let crc = crc32(&out[crc_pos + 4..]);
        out[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates manifest bytes.
    pub fn decode(bytes: &[u8]) -> io::Result<Manifest> {
        if bytes.len() < 12 || &bytes[..4] != MANIFEST_MAGIC {
            return Err(bad("not a PLT manifest (bad magic)"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != STORE_VERSION {
            return Err(bad(&format!("unsupported manifest version {version}")));
        }
        let stored = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if crc32(&bytes[12..]) != stored {
            return Err(bad("manifest CRC32 mismatch"));
        }
        std::panic::catch_unwind(|| -> io::Result<Manifest> {
            let mut buf = &bytes[12..];
            let epoch = varint::get_u64(&mut buf);
            let last_seq = varint::get_u64(&mut buf);
            let min_support = varint::get_u64(&mut buf);
            let shard_count = varint::get_u64(&mut buf) as usize;
            let policy = policy_from(*buf.first().ok_or_else(|| bad("truncated manifest"))?)?;
            buf = &buf[1..];
            // Counts come from the file: each allocation they size is
            // capped by the bytes left, so a count that no bytes back
            // cannot exhaust memory before the reads below fail.
            let n_items = varint::get_u64(&mut buf) as usize;
            let mut items = Vec::with_capacity(n_items.min(buf.len()));
            for _ in 0..n_items {
                let item = varint::get_u32(&mut buf);
                let support = varint::get_u64(&mut buf);
                items.push((item, support));
            }
            let wal = get_name(&mut buf)?;
            let window = get_name(&mut buf)?;
            let n_segments = varint::get_u64(&mut buf) as usize;
            let mut segments = Vec::with_capacity(n_segments.min(buf.len()));
            for _ in 0..n_segments {
                segments.push(get_name(&mut buf)?);
            }
            let mut shard_map = Vec::with_capacity(shard_count.min(buf.len()));
            for _ in 0..shard_count {
                let v = varint::get_u64(&mut buf);
                if v as usize > n_segments {
                    return Err(bad("shard map points past the segment list"));
                }
                shard_map.push((v > 0).then(|| v as usize - 1));
            }
            if buf.len() != shard_count {
                return Err(bad("dirty bitmap length mismatch"));
            }
            let dirty = buf.iter().map(|&b| b != 0).collect();
            Ok(Manifest {
                epoch,
                last_seq,
                min_support,
                shard_count,
                policy,
                items,
                wal,
                window,
                segments,
                shard_map,
                dirty,
            })
        })
        .map_err(|_| bad("malformed manifest structure"))?
    }

    /// Atomically publishes the manifest into `dir`: tmp file → fsync →
    /// rename → directory fsync.
    pub fn write_atomic(&self, dir: &Path) -> io::Result<()> {
        let tmp = dir.join("MANIFEST.tmp");
        let target = dir.join(MANIFEST_NAME);
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&self.encode())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &target)?;
        sync_dir(dir)
    }

    /// Reads the manifest of `dir`, `None` when the directory has never
    /// been checkpointed.
    pub fn read(dir: &Path) -> io::Result<Option<Manifest>> {
        let path = dir.join(MANIFEST_NAME);
        match std::fs::read(&path) {
            Ok(bytes) => Manifest::decode(&bytes).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Fsyncs a directory so renames/creates within it are durable.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Writes a window snapshot (write → fsync). `transactions` are stored
/// in window order.
pub fn write_window<'a, I>(path: &Path, transactions: I) -> io::Result<u64>
where
    I: ExactSizeIterator<Item = &'a [Item]>,
{
    let mut out = Vec::new();
    out.extend_from_slice(WINDOW_MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    let crc_pos = out.len();
    out.extend_from_slice(&[0u8; 4]);
    varint::put_u64(&mut out, transactions.len() as u64);
    for t in transactions {
        varint::put_u64(&mut out, t.len() as u64);
        for &item in t {
            varint::put_u32(&mut out, item);
        }
    }
    let crc = crc32(&out[crc_pos + 4..]);
    out[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
    let mut file = std::fs::File::create(path)?;
    file.write_all(&out)?;
    file.sync_all()?;
    Ok(out.len() as u64)
}

/// Reads a window snapshot back.
pub fn read_window(path: &Path) -> io::Result<Vec<Vec<Item>>> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 12 || &bytes[..4] != WINDOW_MAGIC {
        return Err(bad("not a PLT window snapshot (bad magic)"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != STORE_VERSION {
        return Err(bad(&format!("unsupported window version {version}")));
    }
    let stored = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if crc32(&bytes[12..]) != stored {
        return Err(bad("window snapshot CRC32 mismatch"));
    }
    std::panic::catch_unwind(|| {
        let mut buf = &bytes[12..];
        let n = varint::get_u64(&mut buf) as usize;
        let mut out = Vec::with_capacity(n.min(1 << 22));
        for _ in 0..n {
            let len = varint::get_u64(&mut buf) as usize;
            let mut t = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                t.push(varint::get_u32(&mut buf));
            }
            out.push(t);
        }
        out
    })
    .map_err(|_| bad("malformed window snapshot"))
}

/// Names for the files of one epoch.
pub fn wal_name(epoch: u64) -> String {
    format!("wal-{epoch:06}.plj")
}

/// Window snapshot name for an epoch.
pub fn window_name(epoch: u64) -> String {
    format!("window-{epoch:06}.plx")
}

/// Segment file name: epoch it was born in plus a monotone counter.
pub fn segment_name(epoch: u64, counter: u64) -> String {
    format!("seg-{epoch:06}-{counter:06}.plts")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            epoch: 3,
            last_seq: 17,
            min_support: 2,
            shard_count: 4,
            policy: RankPolicy::FrequencyDescending,
            items: vec![(10, 9), (4, 7), (2, 7), (8, 3)],
            wal: wal_name(3),
            window: window_name(3),
            segments: vec![segment_name(2, 0), segment_name(3, 1)],
            shard_map: vec![Some(0), None, Some(1), Some(1)],
            dirty: vec![false, true, false, false],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let m = sample();
        let back = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        // The rebuilt ranking ranks every stored item.
        let ranking = back.ranking();
        assert_eq!(ranking.len(), 4);
        for &(item, _) in &back.items {
            assert!(ranking.rank(item).is_some());
        }
    }

    #[test]
    fn corruption_and_truncation_rejected() {
        let bytes = sample().encode();
        for pos in [0, 5, 12, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0xff;
            assert!(Manifest::decode(&corrupted).is_err(), "flip at {pos}");
        }
        assert!(Manifest::decode(&bytes[..bytes.len() - 2]).is_err());
        assert!(Manifest::decode(&[]).is_err());
    }

    #[test]
    fn item_count_no_bytes_back_is_invalid_data() {
        // A 23-byte manifest with a valid CRC32 whose item count claims
        // 2^36 entries: rejected, not sized into an allocation.
        let mut body = Vec::new();
        for v in [1, 0, 2, 0] {
            varint::put_u64(&mut body, v); // epoch, last_seq, min_support, shard_count
        }
        body.push(policy_byte(RankPolicy::Lexicographic));
        varint::put_u64(&mut body, 1 << 36);
        let mut bytes = MANIFEST_MAGIC.to_vec();
        bytes.extend_from_slice(&STORE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        assert_eq!(bytes.len(), 23);
        let err = Manifest::decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn atomic_write_and_read() {
        let dir = std::env::temp_dir().join(format!("plt-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Manifest::read(&dir).unwrap().is_none());
        let m = sample();
        m.write_atomic(&dir).unwrap();
        assert_eq!(Manifest::read(&dir).unwrap(), Some(m.clone()));
        // Re-publish (the common path): replaces, does not append.
        let mut m2 = m;
        m2.epoch = 4;
        m2.write_atomic(&dir).unwrap();
        assert_eq!(Manifest::read(&dir).unwrap().unwrap().epoch, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn window_snapshot_round_trip() {
        let path = std::env::temp_dir().join(format!("plt-window-{}.plx", std::process::id()));
        let window: Vec<Vec<Item>> = vec![vec![1, 2, 3], vec![], vec![9]];
        write_window(&path, window.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(read_window(&path).unwrap(), window);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_window_round_trip() {
        let path = std::env::temp_dir().join(format!("plt-window-e-{}.plx", std::process::id()));
        let window: Vec<Vec<Item>> = Vec::new();
        write_window(&path, window.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(read_window(&path).unwrap(), window);
        std::fs::remove_file(&path).ok();
    }
}
