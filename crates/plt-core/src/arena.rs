//! Arena-backed, allocation-free conditional mining (`DESIGN.md` §6).
//!
//! A literal rendering of Algorithm 3 keeps a
//! `BTreeMap<Rank, FxHashMap<PositionVector, Support>>` of sum-groups and
//! heap-allocates a fresh vector for every prefix at every recursion level
//! (the hybrid miner in [`crate::hybrid`] still works that way). This
//! module is the same algorithm on a flat layout that exploits what the
//! paper actually promises — the PLT is "a table-like data structure"
//! whose cached sums make conditional extraction a lookup, not a rebuild:
//!
//! * a (conditional) database is **one contiguous position buffer**
//!   (`Vec<Rank>`) plus packed per-entry columns — no per-vector
//!   allocation;
//! * entries are stored **SoA-style** (`offsets` / `lens` / `freqs` /
//!   `hashes` as parallel arrays rather than an array of structs), so
//!   the bucket drain touches one field across many entries from
//!   contiguous memory;
//! * sum-groups are **dense rank-indexed buckets** (`Vec<Vec<EntryId>>`
//!   over `1..=max_rank`) instead of an ordered map — "for j = Max down
//!   to 1" is a cursor walk, and Lemma 4.1.1 guarantees every entry sits
//!   in the bucket of its last item's rank. The bucket index *is* the
//!   entry's cached sum, so no sum column is kept;
//! * prefix fold-back ("a new vector is constructed by removing the last
//!   position value and inserting this vector into the proper partition")
//!   is an **O(1) re-tag**: shrink `lens` by one and move the entry id
//!   from bucket `j` to bucket `j − last`. By Lemma 4.1.1 the dropped
//!   item has rank `j`, so the entry's order-free hash (a wrapping sum of
//!   one mixed word per live rank) loses exactly `mix(j)` — the drain's
//!   dedup probe is O(1) too. A map layout pays an allocation plus an
//!   O(len) hash insert for the same step;
//! * a conditional database with **at most 64 locally frequent ranks** is
//!   a `MaskLevel` instead: one `u64` per vector, where bit `b` stands
//!   for the `b`-th smallest kept rank. Bits follow rank order, so the top
//!   set bit is the vector's sum (its bucket), a fold clears that bit, two
//!   vectors are duplicates exactly when their words are equal, and a
//!   child is built from per-bit counts and one AND. A child keeps a
//!   subset of its parent's bits, so a mask subtree never returns to
//!   positions and one bit→rank table in the pool serves all of it;
//! * the two local scans of `Conditional_Construct` are **one fused
//!   routine** over the positions: scan 1 recovers ranks and counts them
//!   in one loop, and its counts pick the child's representation; scan 2
//!   then filters, re-deltas and hashes into a position buffer, or ORs
//!   the kept ranks' bits into one word per vector. Both run over
//!   per-depth levels and one rank-count table held in a reusable
//!   [`ArenaPool`], so steady-state mining performs zero allocations.
//!
//! Correctness (same itemsets, same supports as brute force, the hybrid
//! and top-down PLT miners, FP-growth and Eclat) is enforced by the
//! property suites here, in `tests/arena_equivalence.rs`,
//! `tests/miners_agree.rs` and `tests/kernel_equivalence.rs`.

use crate::item::{Rank, Support};
use crate::miner::{MiningResult, ResultBuilder};
use crate::plt::Plt;
use crate::posvec::PositionVector;
use plt_obs::Obs;

/// Index of an entry within its [`Level`] or [`MaskLevel`].
type EntryId = u32;

/// Most locally frequent ranks a conditional database may keep and still
/// be mined as a [`MaskLevel`]: the bits of one word.
const MASK_BITS: usize = 64;

/// Engine counters accumulated by every arena mining call. Kept always-on
/// (plain `u64` adds are far below measurement noise) so the numbers exist
/// whether or not an observability recorder is installed; [`MineStats::record`]
/// flushes them into a recorder under the `arena.*` names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MineStats {
    /// Prefix fold-backs performed in the bucket drains (the O(1) re-tags).
    pub vectors_folded: u64,
    /// Fold-backs absorbed by an existing identical vector (frequency merge).
    pub dedup_hits: u64,
    /// Single-entry databases emitted via the subset shortcut.
    pub single_path_shortcuts: u64,
    /// Databases mined as rank masks (one `u64` per vector): conditional
    /// databases with at most 64 locally frequent ranks, and the root when
    /// the ranking has at most 64 ranks.
    pub mask_levels: u64,
    /// Peak bytes held across the pool's storage (positions, words, entry
    /// columns, rank counts, dedup tables; excludes per-bucket spine
    /// capacity).
    pub bytes_peak: u64,
}

impl MineStats {
    /// Folds another stats block into this one (counters add, peak maxes) —
    /// used when merging per-worker pools.
    pub fn merge(&mut self, other: &MineStats) {
        self.vectors_folded += other.vectors_folded;
        self.dedup_hits += other.dedup_hits;
        self.single_path_shortcuts += other.single_path_shortcuts;
        self.mask_levels += other.mask_levels;
        self.bytes_peak = self.bytes_peak.max(other.bytes_peak);
    }

    /// Flushes the counters into an observability recorder under the
    /// `arena.*` names (`bytes_peak` as a gauge, the rest as counters).
    pub fn record(&self, obs: &mut Obs) {
        obs.counter("arena.vectors_folded", self.vectors_folded);
        obs.counter("arena.dedup_hits", self.dedup_hits);
        obs.counter("arena.single_path_shortcuts", self.single_path_shortcuts);
        obs.counter("arena.mask_levels", self.mask_levels);
        obs.gauge("arena.bytes_peak", self.bytes_peak);
    }
}

/// One rank's word in an entry hash: the splitmix64 finalizer, so the
/// wrapping sum over an entry's ranks spreads into the bits the dedup
/// table indexes by.
#[inline]
fn mix(rank: Rank) -> u64 {
    let mut z = u64::from(rank).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The entry hash of a delta window computed from scratch: the wrapping
/// sum of [`mix`] over its ranks. Order-free, so dropping the last rank
/// is one subtraction; a pure function of the rank set, whichever
/// encoding the caller holds.
fn window_hash(window: &[Rank]) -> u64 {
    let mut rank: Rank = 0;
    window.iter().fold(0u64, |h, &p| {
        rank += p;
        h.wrapping_add(mix(rank))
    })
}

/// The dedup hash of a mask word: Fibonacci hashing, whose top bits —
/// the ones [`DedupTable`] indexes by — depend on every bit of the word.
#[inline]
fn word_hash(word: u64) -> u64 {
    word.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The bit a mask word's bucket is named by: its top set bit, which
/// stands for the highest rank, the vector's sum (Lemma 4.1.1).
#[inline]
fn top_bit(word: u64) -> usize {
    debug_assert_ne!(word, 0);
    63 - word.leading_zeros() as usize
}

/// Drain-scoped dedup table: open-addressed `(version, id)` slots,
/// picked by the top bits of an entry hash. Bumping `version`
/// invalidates every slot, so the per-drain reset is O(1).
#[derive(Debug, Default)]
struct DedupTable {
    slots: Vec<(u32, EntryId)>,
    /// Version stamp marking which slots are live.
    version: u32,
    /// Probe window of the current drain, `slots[..=mask]`: a small
    /// bucket probes only a prefix of the table, which stays in cache.
    mask: usize,
    /// `64 − log2(mask + 1)`: shifts a hash down to its first slot.
    shift: u32,
}

impl DedupTable {
    /// Opens a drain of at most `n` inserts: invalidates every slot in
    /// O(1) and sizes the probe window to keep the load below 75%,
    /// growing the table when it is too small.
    fn begin(&mut self, n: usize) {
        let slots = (n * 4 / 3 + 1).next_power_of_two().max(16);
        if self.slots.len() < slots {
            self.slots = vec![(0, 0); slots];
        }
        self.mask = slots - 1;
        self.shift = 64 - slots.trailing_zeros();
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            // u32 wraparound: scrub once so stale stamps cannot alias.
            self.slots.fill((0, 0));
            self.version = 1;
        }
    }

    /// Looks along `hash`'s probe sequence for an entry `same` accepts,
    /// recording `id` there if there is none. Returns the already-present
    /// duplicate on a hit. The hash only picks the probe sequence; `same`
    /// alone decides a hit.
    #[inline]
    fn probe(&mut self, hash: u64, id: EntryId, same: impl Fn(EntryId) -> bool) -> Option<EntryId> {
        let mut i = (hash >> self.shift) as usize;
        loop {
            let (v, other) = self.slots[i];
            if v != self.version {
                self.slots[i] = (self.version, id);
                return None;
            }
            if same(other) {
                return Some(other);
            }
            i = (i + 1) & self.mask;
        }
    }
}

/// Scan-1 scratch of `Conditional_Construct`: local rank frequencies,
/// indexed by rank. One table serves every depth, because each
/// construction clears it in O(|touched|) before the recursion goes on.
#[derive(Debug, Default)]
struct RankCounts {
    counts: Vec<Support>,
    /// Ranks with a non-zero `counts` cell.
    touched: Vec<Rank>,
    /// A mask construction's word bit for each touched rank: `1 << b` for
    /// the `b`-th smallest kept rank, 0 for a pruned one.
    bits: Vec<u64>,
}

impl RankCounts {
    /// Sizes the tables for ranks `1..=max_rank`.
    fn ensure_rank_capacity(&mut self, max_rank: usize) {
        if self.counts.len() < max_rank + 1 {
            self.counts.resize(max_rank + 1, 0);
            self.bits.resize(max_rank + 1, 0);
        }
    }

    /// Adds `freq` to every rank of the delta window, recovering the
    /// ranks (Lemma 4.1.1) in the same loop.
    fn add(&mut self, window: &[Rank], freq: Support) {
        let mut rank: Rank = 0;
        for &p in window {
            rank += p;
            let count = &mut self.counts[rank as usize];
            if *count == 0 {
                self.touched.push(rank);
            }
            *count += freq;
        }
    }

    /// Number of counted ranks that reach `min_support`.
    fn kept(&self, min_support: Support) -> usize {
        self.touched
            .iter()
            .filter(|&&r| self.counts[r as usize] >= min_support)
            .count()
    }

    /// Lists the kept ranks (at most [`MASK_BITS`]) in rank order as
    /// `bit_ranks`, and gives every touched rank its word bit.
    fn number_kept(&mut self, bit_ranks: &mut Vec<Rank>, min_support: Support) {
        bit_ranks.clear();
        for &r in &self.touched {
            self.bits[r as usize] = 0;
            if self.counts[r as usize] >= min_support {
                bit_ranks.push(r);
            }
        }
        bit_ranks.sort_unstable();
        for (b, &r) in bit_ranks.iter().enumerate() {
            self.bits[r as usize] = 1 << b;
        }
    }

    /// Zeroes the touched cells for the next construction.
    fn clear(&mut self) {
        for &r in &self.touched {
            self.counts[r as usize] = 0;
        }
        self.touched.clear();
    }
}

/// One recursion depth's working storage for a database with more than
/// 64 frequent ranks. A level is built by its parent (or from the PLT at
/// depth 0), mined to exhaustion, and then reused by the next sibling
/// conditional database at the same depth.
///
/// Entry storage is SoA: the `(offset, len, freq, hash)` of each entry
/// lives in four parallel columns indexed by [`EntryId`]. An entry's sum
/// is the index of the bucket holding it (Lemma 4.1.1).
#[derive(Debug, Default)]
struct Level {
    /// Contiguous position storage for every entry of this level.
    positions: Vec<Rank>,
    /// Column: start of each entry's positions in `positions`.
    offsets: Vec<u32>,
    /// Column: current number of live positions (fold-back shrinks this).
    lens: Vec<u32>,
    /// Column: transactions supporting each vector.
    freqs: Vec<Support>,
    /// Column: cached [`window_hash`] of each entry's live positions,
    /// kept in step with `lens` by the fold's O(1) update.
    hashes: Vec<u64>,
    /// `buckets[s]` holds the ids of entries whose *current* sum — the
    /// rank of their last live item — is `s` (index 0 unused). Entries
    /// move strictly downwards as they shrink, so a bucket is complete by
    /// the time the descending cursor reaches it and never needs
    /// tombstones.
    buckets: Vec<Vec<EntryId>>,
    /// Highest sum that may own a non-empty bucket.
    max_sum: Rank,
    /// Scratch: ids of the entries forming the conditional database of
    /// the bucket currently being peeled.
    cond: Vec<EntryId>,
    /// Drain-scoped dedup table keyed by the `hashes` column.
    dedup: DedupTable,
}

impl Level {
    /// Clears entry storage for a fresh database over ranks
    /// `1..=max_rank`. Buckets are already empty: mining drains every
    /// bucket it fills.
    fn reset(&mut self, max_rank: usize) {
        if self.buckets.len() < max_rank + 1 {
            self.buckets.resize_with(max_rank + 1, Vec::new);
        }
        self.positions.clear();
        self.offsets.clear();
        self.lens.clear();
        self.freqs.clear();
        self.hashes.clear();
        self.max_sum = 0;
        debug_assert!(self.buckets.iter().all(Vec::is_empty));
    }

    /// Number of live entries.
    fn num_entries(&self) -> usize {
        self.offsets.len()
    }

    /// The live positions of entry `id`.
    fn window(&self, id: usize) -> &[Rank] {
        let o = self.offsets[id] as usize;
        &self.positions[o..o + self.lens[id] as usize]
    }

    /// Reserves room for exactly `entries` more entries holding
    /// `positions` more positions, so storage whose final size is known
    /// up front is allocated once instead of grown by doubling.
    fn reserve_exact(&mut self, entries: usize, positions: usize) {
        self.positions.reserve_exact(positions);
        self.offsets.reserve_exact(entries);
        self.lens.reserve_exact(entries);
        self.freqs.reserve_exact(entries);
        self.hashes.reserve_exact(entries);
    }

    /// Records the entry whose positions were just written at
    /// `positions[offset..]`, and parks it in the bucket of its sum.
    fn tag(&mut self, offset: usize, freq: Support, sum: Rank, hash: u64) {
        let id = self.num_entries() as EntryId;
        self.offsets.push(offset as u32);
        self.lens.push((self.positions.len() - offset) as u32);
        self.freqs.push(freq);
        self.hashes.push(hash);
        self.buckets[sum as usize].push(id);
        self.max_sum = self.max_sum.max(sum);
    }

    /// Appends a delta window verbatim with its known sum and hash.
    fn push_window(&mut self, window: &[Rank], freq: Support, sum: Rank, hash: u64) {
        debug_assert!(!window.is_empty());
        debug_assert_eq!(window.iter().sum::<Rank>(), sum);
        debug_assert_eq!(window_hash(window), hash);
        let offset = self.positions.len();
        self.positions.extend_from_slice(window);
        self.tag(offset, freq, sum, hash);
    }

    /// Appends the ranks of `window` whose local count reaches
    /// `min_support`, re-deltaed (Definition 4.1.2) and hashed in the
    /// same pass. When the survivors equal the previous entry's
    /// positions, the frequencies merge instead — a free partial dedup
    /// that catches runs of identical prefixes.
    fn push_filtered(
        &mut self,
        window: &[Rank],
        freq: Support,
        counts: &[Support],
        min_support: Support,
    ) {
        let offset = self.positions.len();
        self.positions.reserve(window.len());
        let (mut rank, mut last, mut hash): (Rank, Rank, u64) = (0, 0, 0);
        for &p in window {
            rank += p;
            if counts[rank as usize] >= min_support {
                self.positions.push(rank - last);
                last = rank;
                hash = hash.wrapping_add(mix(rank));
            }
        }
        let len = self.positions.len() - offset;
        if len == 0 {
            return;
        }
        if let Some(prev) = self.num_entries().checked_sub(1) {
            if self.hashes[prev] == hash
                && self.lens[prev] as usize == len
                && self.window(prev) == &self.positions[offset..]
            {
                self.positions.truncate(offset);
                self.freqs[prev] += freq;
                return;
            }
        }
        self.tag(offset, freq, last, hash);
    }

    /// Looks up a live entry with the same content as entry `id`,
    /// recording `id` in the dedup table if there is none. Returns the
    /// already-present duplicate on a hit. The cached hash only picks the
    /// probe sequence; a hit needs the full windows to compare equal.
    fn dedup_entry(&mut self, id: EntryId) -> Option<EntryId> {
        let Level {
            positions,
            offsets,
            lens,
            hashes,
            dedup,
            ..
        } = self;
        let window = |e: usize| {
            let o = offsets[e] as usize;
            &positions[o..o + lens[e] as usize]
        };
        let idu = id as usize;
        let h = hashes[idu];
        dedup.probe(h, id, |other| {
            let ou = other as usize;
            hashes[ou] == h && lens[ou] == lens[idu] && window(ou) == window(idu)
        })
    }
}

/// One recursion depth's working storage for a database with at most 64
/// locally frequent ranks: one word and one frequency per vector. Bit `b`
/// of a word stands for the pool's `bit_ranks[b]`. The entries are
/// distinct words before the first drain: a construction merges the words
/// its AND made equal.
#[derive(Debug, Default)]
struct MaskLevel {
    /// Column: each vector's live ranks as bits.
    words: Vec<u64>,
    /// Column: transactions supporting each vector.
    freqs: Vec<Support>,
    /// `buckets[b]` holds the ids of entries whose top set bit is `b`.
    /// A fold clears that bit, so entries move strictly downwards.
    buckets: Vec<Vec<EntryId>>,
    /// OR of every word pushed: the bits that may own a non-empty bucket.
    span: u64,
    /// Scratch: ids of the entries forming the conditional database of
    /// the bucket currently being peeled.
    cond: Vec<EntryId>,
    /// Dedup table keyed by [`word_hash`]: drain-scoped while mining,
    /// construction-scoped while the level is built.
    dedup: DedupTable,
}

impl MaskLevel {
    /// Clears entry storage for a fresh database. Buckets are already
    /// empty: mining drains every bucket it fills.
    fn reset(&mut self) {
        if self.buckets.len() < MASK_BITS {
            self.buckets.resize_with(MASK_BITS, Vec::new);
        }
        self.words.clear();
        self.freqs.clear();
        self.span = 0;
        debug_assert!(self.buckets.iter().all(Vec::is_empty));
    }

    /// Number of live entries.
    fn num_entries(&self) -> usize {
        self.words.len()
    }

    /// Appends a non-zero word that no entry of the level holds yet.
    fn push(&mut self, word: u64, freq: Support) {
        let id = self.num_entries() as EntryId;
        self.words.push(word);
        self.freqs.push(freq);
        self.buckets[top_bit(word)].push(id);
        self.span |= word;
    }

    /// Looks up an entry holding `word` since the last `dedup.begin`,
    /// recording entry `id` as its holder if there is none.
    fn dedup_word(&mut self, id: EntryId, word: u64) -> Option<EntryId> {
        let words = &self.words;
        self.dedup
            .probe(word_hash(word), id, |other| words[other as usize] == word)
    }

    /// Appends a non-zero word, or merges its frequency into the entry
    /// holding the same word since the last `dedup.begin`.
    fn push_merged(&mut self, word: u64, freq: Support) {
        match self.dedup_word(self.num_entries() as EntryId, word) {
            Some(other) => self.freqs[other as usize] += freq,
            None => self.push(word, freq),
        }
    }
}

/// Which representation a construction filled.
enum Built {
    /// No rank stayed frequent: there is nothing to mine.
    Empty,
    /// More than 64 ranks stayed frequent: a position [`Level`].
    Positions,
    /// At most 64 ranks stayed frequent: a [`MaskLevel`].
    Masks,
}

/// `Conditional_Construct`'s two local scans over the delta windows of
/// `db`. Scan 1 recovers every rank and counts it, and the count of
/// locally frequent ranks picks the child: at most 64 fill `narrow`,
/// numbered in rank order into `bit_ranks`, and more fill `wide`. Scan 2
/// reuses scan 1's counts either way.
fn construct<'a, I>(
    db: I,
    counts: &mut RankCounts,
    bit_ranks: &mut Vec<Rank>,
    wide: &mut Level,
    narrow: &mut MaskLevel,
    min_support: Support,
) -> Built
where
    I: Iterator<Item = (&'a [Rank], Support)> + Clone,
{
    debug_assert!(counts.touched.is_empty());
    let mut windows = 0;
    for (window, freq) in db.clone() {
        counts.add(window, freq);
        windows += 1;
    }
    let kept = counts.kept(min_support);
    let built = if kept == 0 {
        Built::Empty
    } else if kept <= MASK_BITS {
        counts.number_kept(bit_ranks, min_support);
        narrow.reset();
        narrow.dedup.begin(windows);
        for (window, freq) in db {
            let mut rank: Rank = 0;
            let word = window.iter().fold(0u64, |word, &p| {
                rank += p;
                word | counts.bits[rank as usize]
            });
            if word != 0 {
                narrow.push_merged(word, freq);
            }
        }
        Built::Masks
    } else {
        wide.reset(counts.counts.len() - 1);
        for (window, freq) in db {
            wide.push_filtered(window, freq, &counts.counts, min_support);
        }
        Built::Positions
    };
    counts.clear();
    built
}

/// `Conditional_Construct` inside a mask subtree: per-bit counts over the
/// parent's CD (scan 1), then one AND with the kept bits per word (scan
/// 2). The AND can make distinct words equal, and those merge. Returns
/// whether `child` holds any entries.
fn construct_masks(parent: &MaskLevel, child: &mut MaskLevel, min_support: Support) -> bool {
    let mut counts = [0 as Support; MASK_BITS];
    let mut seen = 0u64;
    for &id in &parent.cond {
        let (mut word, freq) = (parent.words[id as usize], parent.freqs[id as usize]);
        seen |= word;
        while word != 0 {
            counts[word.trailing_zeros() as usize] += freq;
            word &= word - 1;
        }
    }
    let mut keep = 0u64;
    let mut bits = seen;
    while bits != 0 {
        let b = bits.trailing_zeros();
        if counts[b as usize] >= min_support {
            keep |= 1 << b;
        }
        bits &= bits - 1;
    }
    child.reset();
    if keep == 0 {
        return false;
    }
    child.dedup.begin(parent.cond.len());
    for &id in &parent.cond {
        let word = parent.words[id as usize] & keep;
        if word != 0 {
            child.push_merged(word, parent.freqs[id as usize]);
        }
    }
    true
}

/// Reusable per-depth arena storage for the conditional miner.
///
/// One pool serves any number of successive mining calls; each call
/// reuses the levels (and their buckets, columns and position buffers)
/// grown by earlier calls, so a warmed pool mines without allocating.
/// The parallel miner keeps one pool per worker.
///
/// # Examples
///
/// ```
/// use plt_core::arena::ArenaPool;
/// use plt_core::construct::{construct, ConstructOptions};
/// use plt_core::MiningResult;
///
/// let db = vec![vec![1, 2], vec![1, 2], vec![2, 3]];
/// let plt = construct(&db, 2, ConstructOptions::conditional()).unwrap();
/// let mut pool = ArenaPool::new();
/// let mut out = MiningResult::builder(plt.min_support(), plt.num_transactions());
/// pool.mine_plt(&plt, &mut out);
/// let result = out.finish();
/// assert_eq!(result.support(&[1, 2]), Some(2));
/// assert_eq!(result.support(&[2]), Some(3));
/// ```
#[derive(Debug, Default)]
pub struct ArenaPool {
    /// Position storage per depth.
    levels: Vec<Level>,
    /// Mask storage per depth.
    masks: Vec<MaskLevel>,
    /// The rank-count table every construction shares.
    counts: RankCounts,
    /// The global rank each mask bit stands for, in the active mask
    /// subtree.
    bit_ranks: Vec<Rank>,
    /// Engine counters accumulated across mining calls on this pool.
    stats: MineStats,
}

impl ArenaPool {
    /// An empty pool; storage is grown on first use and retained.
    pub fn new() -> ArenaPool {
        ArenaPool::default()
    }

    /// Sizes the rank-count table for ranks `1..=max_rank` and makes
    /// sure depth 0 exists, ready to be filled.
    fn prepare(&mut self, max_rank: usize) {
        self.counts.ensure_rank_capacity(max_rank);
        self.ensure_depth(0);
    }

    /// Makes sure `levels[depth]` and `masks[depth]` exist. Storage is
    /// sized by the representation that fills them.
    fn ensure_depth(&mut self, depth: usize) {
        while self.levels.len() <= depth {
            self.levels.push(Level::default());
            self.masks.push(MaskLevel::default());
        }
    }

    /// Mines an already-constructed PLT (built without prefix insertion),
    /// feeding the arena straight from the partition storage — no
    /// per-vector clone, no intermediate map — and pushing every frequent
    /// itemset into `out`. A ranking of at most 64 ranks starts masked,
    /// with bit `b` standing for rank `b + 1`.
    pub fn mine_plt(&mut self, plt: &Plt, out: &mut ResultBuilder) {
        let max_rank = plt.ranking().len();
        self.prepare(max_rank);
        let mut suffix = Vec::new();
        if max_rank <= MASK_BITS {
            self.bit_ranks.clear();
            self.bit_ranks.extend(1..=max_rank as Rank);
            let level = &mut self.masks[0];
            level.reset();
            level.words.reserve_exact(plt.num_vectors());
            level.freqs.reserve_exact(plt.num_vectors());
            // Every ranked item is frequent and the PLT's vectors are
            // distinct, so the words go in unfiltered and unmerged.
            for (v, e) in plt.iter() {
                let word = v.ranks_iter().fold(0u64, |w, r| w | 1 << (r - 1));
                level.push(word, e.freq);
            }
            if level.num_entries() > 0 {
                mine_masks(self, 0, plt, &mut suffix, out);
            }
        } else {
            let level = &mut self.levels[0];
            level.reset(max_rank);
            let positions = (1..=plt.max_len()).map(|k| k * plt.partition_len(k));
            level.reserve_exact(plt.num_vectors(), positions.sum());
            for (v, e) in plt.iter() {
                let window = v.positions();
                level.push_window(window, e.freq, e.sum, window_hash(window));
            }
            mine_level(self, 0, plt, &mut suffix, out);
        }
        self.note_bytes_peak();
    }

    /// Engine counters accumulated so far on this pool.
    pub fn stats(&self) -> &MineStats {
        &self.stats
    }

    /// Takes the accumulated counters, resetting them to zero — the
    /// per-worker handoff used by the parallel miner's reduce step.
    pub fn take_stats(&mut self) -> MineStats {
        std::mem::take(&mut self.stats)
    }

    /// Folds the current storage footprint into `stats.bytes_peak`.
    /// O(levels) with constant work per level, so it runs once per mining
    /// call; the per-bucket spine vectors are deliberately excluded.
    fn note_bytes_peak(&mut self) {
        use std::mem::size_of;
        let table = |d: &DedupTable| d.slots.capacity() * size_of::<(u32, EntryId)>();
        let mut bytes = self.counts.counts.capacity() * size_of::<Support>()
            + self.counts.touched.capacity() * size_of::<Rank>()
            + self.counts.bits.capacity() * size_of::<u64>()
            + self.bit_ranks.capacity() * size_of::<Rank>();
        for level in &self.levels {
            bytes += level.positions.capacity() * size_of::<Rank>()
                + level.offsets.capacity() * size_of::<u32>()
                + level.lens.capacity() * size_of::<u32>()
                + level.freqs.capacity() * size_of::<Support>()
                + level.hashes.capacity() * size_of::<u64>()
                + level.buckets.capacity() * size_of::<Vec<EntryId>>()
                + level.cond.capacity() * size_of::<EntryId>()
                + table(&level.dedup);
        }
        for level in &self.masks {
            bytes += level.words.capacity() * size_of::<u64>()
                + level.freqs.capacity() * size_of::<Support>()
                + level.buckets.capacity() * size_of::<Vec<EntryId>>()
                + level.cond.capacity() * size_of::<EntryId>()
                + table(&level.dedup);
        }
        self.stats.bytes_peak = self.stats.bytes_peak.max(bytes as u64);
    }

    /// Mines a conditional database under a fixed suffix of global ranks.
    /// The database is given as `(positions, frequency)` windows so callers
    /// holding flat storage (the parallel projections) feed it without
    /// materialising vectors; it is locally re-filtered against the
    /// minimum support before mining. Every itemset found is pushed into
    /// `out`; the suffix's own support is *not* emitted.
    ///
    /// This is the unit of work of the paper's partitioning claim ("PLT
    /// provides partition criteria that makes it easy to partition the
    /// mining process into several separate tasks"): `plt-parallel` and
    /// `plt-shard` project the PLT once per item and fan these calls out.
    pub fn mine_conditional<'a, I>(
        &mut self,
        conditional: I,
        plt: &Plt,
        suffix: &[Rank],
        out: &mut ResultBuilder,
    ) where
        I: Iterator<Item = (&'a [Rank], Support)> + Clone,
    {
        self.prepare(plt.ranking().len());
        let built = construct(
            conditional,
            &mut self.counts,
            &mut self.bit_ranks,
            &mut self.levels[0],
            &mut self.masks[0],
            plt.min_support(),
        );
        let mut sfx = suffix.to_vec();
        mine_built(self, 0, built, plt, &mut sfx, out);
        self.note_bytes_peak();
    }
}

/// Mines the database a construction just built at `depth`.
fn mine_built(
    pool: &mut ArenaPool,
    depth: usize,
    built: Built,
    plt: &Plt,
    suffix: &mut Vec<Rank>,
    out: &mut ResultBuilder,
) {
    match built {
        Built::Empty => {}
        Built::Positions => mine_level(pool, depth, plt, suffix, out),
        Built::Masks => mine_masks(pool, depth, plt, suffix, out),
    }
}

/// Pushes the itemset of `suffix` with `support`. The suffix holds global
/// ranks in descending order, so its reverse maps through the ranking to
/// items in ascending order under the default lexicographic ranking (the
/// builder sorts any other order).
#[inline]
fn emit(out: &mut ResultBuilder, plt: &Plt, suffix: &[Rank], support: Support) {
    let ranking = plt.ranking();
    out.push(suffix.iter().rev().map(|&r| ranking.item(r)), support);
}

/// Emits `suffix ∪ S` with support `freq` for every non-empty subset `S`
/// of the mask word's ranks: the single-path shortcut. A one-entry
/// database supports every non-empty subset of its vector with the
/// entry's own frequency, so the whole subtree is emitted with direct
/// pushes — no drains, no child construction. The counterpart of
/// FP-growth's single-path optimisation, justified here by Lemma 4.1.3
/// (every subset arises from the one vector).
fn emit_subsets(
    word: u64,
    freq: Support,
    bit_ranks: &[Rank],
    plt: &Plt,
    suffix: &mut Vec<Rank>,
    out: &mut ResultBuilder,
) {
    let base = suffix.len();
    let mut subset = word;
    while subset != 0 {
        // Top bit first, keeping the suffix descending.
        let mut bits = subset;
        while bits != 0 {
            let b = top_bit(bits);
            suffix.push(bit_ranks[b]);
            bits ^= 1 << b;
        }
        emit(out, plt, suffix, freq);
        suffix.truncate(base);
        subset = (subset - 1) & word;
    }
}

/// The recursive core — the paper's `Mining(PLT, itemset)` over the arena
/// representation. `pool.levels[depth]` is the (conditional) PLT being
/// peeled; deeper levels are constructed on demand and reused across
/// siblings.
fn mine_level(
    pool: &mut ArenaPool,
    depth: usize,
    plt: &Plt,
    suffix: &mut Vec<Rank>,
    out: &mut ResultBuilder,
) {
    let min_support = plt.min_support();
    // "For j = Max down to 1": walk the dense buckets with a cursor.
    let mut cursor = pool.levels[depth].max_sum;
    while cursor >= 1 {
        let j = cursor;
        cursor -= 1;
        let level = &mut pool.levels[depth];
        if level.buckets[j as usize].is_empty() {
            continue;
        }
        // Peel bucket j: its entries are exactly the vectors whose last
        // item has rank j (Lemma 4.1.1). The extension's support is the
        // sum of their frequencies, taken before the fold loop mutates
        // anything (folding only merges frequencies *into* entries after
        // their original value was already counted, so the pre-fold sum
        // equals a total accumulated during the drain).
        let mut ids = std::mem::take(&mut level.buckets[j as usize]);
        let support: Support = ids.iter().map(|&id| level.freqs[id as usize]).sum();
        // Fold each prefix back with an O(1) re-tag and collect the
        // survivors as CD_j. Folding merges duplicate prefixes as it
        // goes: distinct vectors `[P, x]` and `[P, y]` both fold to `P`,
        // and on dense data those duplicates compound through the
        // recursion. A map layout merges them in its hash insert; the
        // drain-scoped dedup table restores the same invariant (each
        // bucket holds distinct vectors) without allocating, probing
        // with the cached hash: the dropped item has rank j, so every
        // fold updates the hash by the same O(1) subtraction.
        let mix_j = mix(j);
        let mut folded: u64 = 0;
        let mut dedup_hits: u64 = 0;
        level.dedup.begin(ids.len());
        level.cond.clear();
        for &id in &ids {
            let idu = id as usize;
            debug_assert_eq!(level.window(idu).iter().sum::<Rank>(), j);
            if level.lens[idu] > 1 {
                let last = level.positions[(level.offsets[idu] + level.lens[idu] - 1) as usize];
                level.lens[idu] -= 1;
                level.hashes[idu] = level.hashes[idu].wrapping_sub(mix_j);
                debug_assert_eq!(level.hashes[idu], window_hash(level.window(idu)));
                folded += 1;
                match level.dedup_entry(id) {
                    Some(other) => {
                        dedup_hits += 1;
                        level.freqs[other as usize] += level.freqs[idu];
                    }
                    None => {
                        level.buckets[(j - last) as usize].push(id);
                        level.cond.push(id);
                    }
                }
            }
        }
        ids.clear();
        level.buckets[j as usize] = ids; // hand the capacity back
        pool.stats.vectors_folded += folded;
        pool.stats.dedup_hits += dedup_hits;

        if support < min_support {
            // "If the new extension is no longer frequent, there is no
            // need for a new conditional database."
            continue;
        }

        suffix.push(j);
        emit(out, plt, suffix, support);

        // CPLT = PLT_Construction(CD_j, min_sup): the fused two-scan
        // local construction, writing into the next depth's reusable
        // storage. Each CD_j entry's prefix is its *current* (already
        // shrunk) window.
        pool.ensure_depth(depth + 1);
        let (parents, children) = pool.levels.split_at_mut(depth + 1);
        let parent = &parents[depth];
        let cd = parent.cond.iter().map(|&id| {
            let i = id as usize;
            (parent.window(i), parent.freqs[i])
        });
        let built = construct(
            cd,
            &mut pool.counts,
            &mut pool.bit_ranks,
            &mut children[0],
            &mut pool.masks[depth + 1],
            min_support,
        );
        mine_built(pool, depth + 1, built, plt, suffix, out);
        suffix.pop();
    }
}

/// [`mine_level`] on a [`MaskLevel`]: the same peel, fold, dedup and
/// construction as word operations. Bucket `b` holds the words whose top
/// bit is `b`; a fold clears that bit; a dedup probe compares words.
fn mine_masks(
    pool: &mut ArenaPool,
    depth: usize,
    plt: &Plt,
    suffix: &mut Vec<Rank>,
    out: &mut ResultBuilder,
) {
    pool.stats.mask_levels += 1;
    let level = &mut pool.masks[depth];
    if level.num_entries() == 1 {
        pool.stats.single_path_shortcuts += 1;
        let (word, freq) = (level.words[0], level.freqs[0]);
        // Consume the entry's bucket so the level resets clean for the
        // next sibling.
        level.buckets[top_bit(word)].clear();
        emit_subsets(word, freq, &pool.bit_ranks, plt, suffix, out);
        return;
    }
    let min_support = plt.min_support();
    let mut pending = level.span;
    while pending != 0 {
        let b = top_bit(pending);
        pending ^= 1 << b;
        let level = &mut pool.masks[depth];
        if level.buckets[b].is_empty() {
            continue;
        }
        let mut ids = std::mem::take(&mut level.buckets[b]);
        let support: Support = ids.iter().map(|&id| level.freqs[id as usize]).sum();
        let mut folded: u64 = 0;
        let mut dedup_hits: u64 = 0;
        level.dedup.begin(ids.len());
        level.cond.clear();
        for &id in &ids {
            let idu = id as usize;
            let word = level.words[idu] ^ (1 << b);
            if word == 0 {
                continue;
            }
            level.words[idu] = word;
            folded += 1;
            match level.dedup_word(id, word) {
                Some(other) => {
                    dedup_hits += 1;
                    level.freqs[other as usize] += level.freqs[idu];
                }
                None => {
                    level.buckets[top_bit(word)].push(id);
                    level.cond.push(id);
                }
            }
        }
        ids.clear();
        level.buckets[b] = ids; // hand the capacity back
        pool.stats.vectors_folded += folded;
        pool.stats.dedup_hits += dedup_hits;

        if support < min_support {
            continue;
        }

        suffix.push(pool.bit_ranks[b]);
        emit(out, plt, suffix, support);

        pool.ensure_depth(depth + 1);
        let (parents, children) = pool.masks.split_at_mut(depth + 1);
        if construct_masks(&parents[depth], &mut children[0], min_support) {
            mine_masks(pool, depth + 1, plt, suffix, out);
        }
        suffix.pop();
    }
}

/// One-shot arena mining of a PLT with a throwaway pool. Callers mining
/// repeatedly (servers, the parallel workers) should hold an
/// [`ArenaPool`] instead to amortise the storage.
pub fn mine_plt_arena(plt: &Plt) -> MiningResult {
    let mut out = MiningResult::builder(plt.min_support(), plt.num_transactions());
    ArenaPool::new().mine_plt(plt, &mut out);
    out.finish()
}

/// One-shot arena mining of a materialised conditional database (see
/// [`ArenaPool::mine_conditional`]).
pub fn mine_conditional_arena(
    conditional: &[(PositionVector, Support)],
    plt: &Plt,
    suffix: &[Rank],
) -> MiningResult {
    let mut out = MiningResult::builder(plt.min_support(), plt.num_transactions());
    ArenaPool::new().mine_conditional(
        conditional.iter().map(|(v, f)| (v.positions(), *f)),
        plt,
        suffix,
        &mut out,
    );
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{construct, ConstructOptions};
    use crate::item::{Item, Itemset};
    use crate::miner::{BruteForceMiner, Miner};
    use crate::ranking::RankPolicy;
    use proptest::prelude::*;

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

    /// One `mine_plt` call on `pool`, finished.
    fn mine(pool: &mut ArenaPool, plt: &Plt) -> MiningResult {
        let mut out = MiningResult::builder(plt.min_support(), plt.num_transactions());
        pool.mine_plt(plt, &mut out);
        out.finish()
    }

    /// Item `j`'s full conditional database: the sub-`j` prefix of every
    /// vector that contains rank `j`.
    fn projection(plt: &Plt, j: Rank) -> Vec<(PositionVector, Support)> {
        plt.iter()
            .filter(|(v, _)| v.contains_rank(j))
            .filter_map(|(v, e)| {
                let prefix: Vec<Rank> = v.ranks_iter().take_while(|&r| r < j).collect();
                (!prefix.is_empty()).then(|| (PositionVector::from_ranks(&prefix).unwrap(), e.freq))
            })
            .collect()
    }

    /// The brute-force itemsets whose highest-ranked item is `j`, minus
    /// `{j}` itself — exactly what mining `j`'s projection must emit.
    fn restricted_to_suffix(db: &[Vec<Item>], plt: &Plt, j: Rank) -> Vec<(Itemset, Support)> {
        let ranking = plt.ranking();
        BruteForceMiner
            .mine(db, plt.min_support())
            .sorted()
            .into_iter()
            .filter(|(s, _)| {
                s.len() > 1
                    && s.contains(ranking.item(j))
                    && s.items()
                        .iter()
                        .all(|&i| ranking.rank(i).is_some_and(|r| r <= j))
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_on_table1() {
        let expect = BruteForceMiner.mine(&table1(), 2);
        let got = mine_plt_arena(&build(&table1(), 2));
        assert_eq!(got.sorted(), expect.sorted());
        got.check_anti_monotone().unwrap();
    }

    #[test]
    fn pool_is_reusable_across_runs() {
        let mut pool = ArenaPool::new();
        let plt1 = build(&table1(), 2);
        let first = mine(&mut pool, &plt1);
        // A different database and threshold on the same warmed pool.
        let db2: Vec<Vec<Item>> = vec![vec![1, 2, 3]; 5];
        let plt2 = build(&db2, 3);
        let second = mine(&mut pool, &plt2);
        assert_eq!(second.support(&[1, 2, 3]), Some(5));
        assert_eq!(second.len(), 7);
        // And the original answer again, unchanged.
        assert_eq!(mine(&mut pool, &plt1), first);
    }

    #[test]
    fn conditional_matches_brute_force_restricted_to_suffix() {
        let plt = build(&table1(), 2);
        for j in 1..=plt.ranking().len() as Rank {
            let arena = mine_conditional_arena(&projection(&plt, j), &plt, &[j]);
            assert_eq!(
                arena.sorted(),
                restricted_to_suffix(&table1(), &plt, j),
                "rank {j}"
            );
        }
    }

    #[test]
    fn empty_plt_mines_empty() {
        let db: Vec<Vec<Item>> = vec![];
        let plt = build(&db, 1);
        assert!(mine_plt_arena(&plt).is_empty());
    }

    #[test]
    fn stats_accumulate_and_take_resets() {
        let mut pool = ArenaPool::new();
        let plt = build(&table1(), 2);
        mine(&mut pool, &plt);
        let stats = *pool.stats();
        assert!(stats.vectors_folded > 0, "{stats:?}");
        assert!(stats.bytes_peak > 0, "{stats:?}");
        // Six ranks: the root and every conditional database are masks.
        assert!(stats.mask_levels > 1, "{stats:?}");
        // Taking hands the counters over and resets the pool's block.
        let taken = pool.take_stats();
        assert_eq!(taken, stats);
        assert_eq!(*pool.stats(), MineStats::default());
        // Merge adds counters and maxes the peak.
        let mut merged = taken;
        merged.merge(&taken);
        assert_eq!(merged.vectors_folded, 2 * taken.vectors_folded);
        assert_eq!(merged.dedup_hits, 2 * taken.dedup_hits);
        assert_eq!(merged.mask_levels, 2 * taken.mask_levels);
        assert_eq!(merged.bytes_peak, taken.bytes_peak);
        // Recording flushes under the arena.* names.
        let mut rec = plt_obs::MetricsRecorder::new();
        taken.record(&mut Obs::new(&mut rec));
        assert_eq!(
            rec.counter_value("arena.vectors_folded"),
            taken.vectors_folded
        );
        assert_eq!(rec.counter_value("arena.mask_levels"), taken.mask_levels);
        assert_eq!(rec.gauge_value("arena.bytes_peak"), taken.bytes_peak);
    }

    #[test]
    fn single_path_shortcut_is_counted() {
        let db = vec![vec![1, 2, 3]; 5];
        let plt = build(&db, 3);
        let mut pool = ArenaPool::new();
        mine(&mut pool, &plt);
        assert!(pool.stats().single_path_shortcuts >= 1);
    }

    #[test]
    fn consecutive_duplicate_prefixes_merge() {
        // Five identical transactions: the root level holds one entry and
        // every conditional database is a single merged entry.
        let db = vec![vec![1, 2, 3]; 5];
        let plt = build(&db, 3);
        let r = mine_plt_arena(&plt);
        assert_eq!(r.support(&[1, 2, 3]), Some(5));
        assert_eq!(r.len(), 7);
    }

    #[test]
    fn hash_collisions_do_not_merge_distinct_entries() {
        // Ranks {1, 3} and {2, 3}: the same length and sum, different
        // windows. Forge equal hashes so the second probes into the
        // first's slot; only the full window compare may decide a hit.
        let mut level = Level::default();
        level.reset(3);
        for window in [[1, 2], [2, 1], [1, 2]] {
            level.push_window(&window, 1, 3, window_hash(&window));
        }
        level.hashes[1] = level.hashes[0];
        level.dedup.begin(3);
        assert_eq!(level.dedup_entry(0), None);
        assert_eq!(level.dedup_entry(1), None, "a forged collision merged");
        // A genuine duplicate still hits.
        assert_eq!(level.dedup_entry(2), Some(0));
    }

    #[test]
    fn masks_merge_the_words_an_and_makes_equal() {
        // CD = {r0, r1, r2} and {r0, r1, r3}: r2 and r3 fall below
        // min_support 2, so both words AND to {r0, r1} and merge.
        let mut parent = MaskLevel::default();
        parent.reset();
        parent.push(0b0111, 1);
        parent.push(0b1011, 1);
        parent.cond = vec![0, 1];
        let mut child = MaskLevel::default();
        assert!(construct_masks(&parent, &mut child, 2));
        assert_eq!(child.words, [0b0011]);
        assert_eq!(child.freqs, [2]);
        assert!(!construct_masks(&parent, &mut MaskLevel::default(), 3));
    }

    #[test]
    fn window_hash_is_order_free_over_ranks() {
        // {1, 3, 4} as deltas, then dropping the last rank by subtracting
        // its mix, equals hashing {1, 3} from scratch.
        let full = window_hash(&[1, 2, 1]);
        assert_eq!(full, mix(1).wrapping_add(mix(3)).wrapping_add(mix(4)));
        assert_eq!(full.wrapping_sub(mix(4)), window_hash(&[1, 2]));
        assert_ne!(window_hash(&[1, 2]), window_hash(&[2, 1]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arena mining agrees with brute force on random databases.
        #[test]
        fn prop_matches_brute_force(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..15, 1..7),
                1..40,
            ),
            min_support in 1u64..6,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let expect = BruteForceMiner.mine(&db, min_support);
            let plt = build(&db, min_support);
            let got = mine_plt_arena(&plt);
            prop_assert_eq!(got.sorted(), expect.sorted());
        }

        /// A single reused pool gives the same answers as fresh pools.
        #[test]
        fn prop_pool_reuse_is_stateless(
            dbs in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::btree_set(0u32..10, 1..6),
                    1..20,
                ),
                1..4,
            ),
        ) {
            let mut pool = ArenaPool::new();
            for db in dbs {
                let db: Vec<Vec<Item>> = db.into_iter()
                    .map(|t| t.into_iter().collect())
                    .collect();
                let plt = build(&db, 2);
                let reused = mine(&mut pool, &plt);
                let fresh = mine_plt_arena(&plt);
                prop_assert_eq!(reused.sorted(), fresh.sorted());
            }
        }

        /// Arena conditional mining of each item's projection agrees with
        /// the brute-force family restricted to that suffix, for every
        /// rank policy.
        #[test]
        fn prop_conditional_matches_brute_force(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..12, 1..6),
                1..30,
            ),
            min_support in 1u64..4,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            for policy in [RankPolicy::Lexicographic, RankPolicy::FrequencyDescending] {
                let plt = construct(&db, min_support, ConstructOptions {
                    rank_policy: policy,
                    with_prefixes: false,
                }).unwrap();
                for j in 1..=plt.ranking().len() as Rank {
                    let arena = mine_conditional_arena(&projection(&plt, j), &plt, &[j]);
                    prop_assert_eq!(arena.sorted(), restricted_to_suffix(&db, &plt, j));
                }
            }
        }
    }
}
