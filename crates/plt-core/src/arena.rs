//! Arena-backed, allocation-free conditional mining (`DESIGN.md` §6, §11).
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
//!   allocation, no hashing;
//! * entries are stored **SoA-style** (`offsets` / `lens` / `freqs` /
//!   `sums` as four parallel arrays rather than an array of structs), so
//!   the data-parallel kernels load whole lanes of one field
//!   contiguously — the bucket-drain support accumulation is a single
//!   gathered sum over the `freqs` column;
//! * sum-groups are **dense rank-indexed buckets** (`Vec<Vec<EntryId>>`
//!   over `1..=max_rank`) instead of an ordered map — "for j = Max down
//!   to 1" is a cursor walk, and Lemma 4.1.1 guarantees every entry sits
//!   in the bucket of its last item's rank;
//! * prefix fold-back ("a new vector is constructed by removing the last
//!   position value and inserting this vector into the proper partition")
//!   is an **O(1) re-tag**: shrink `lens` by one, subtract the dropped
//!   position from the cached sum, push the entry id into the bucket of
//!   the new sum. A map layout pays an allocation plus a hash insert for
//!   the same step;
//! * the two local scans of `Conditional_Construct` run over per-depth
//!   **scratch buffers** held in a recursion-level [`ArenaPool`], so
//!   steady-state mining performs zero allocations; the scans themselves
//!   run through the [`crate::kernels`] layer — the Lemma 4.1.1 rank
//!   recovery is a prefix-sum kernel, the locally-frequent filter is a
//!   gathered compare — so they pick up the AVX2 backend when the `simd`
//!   feature and the CPU allow, with the scalar path as the
//!   always-available differential oracle.
//!
//! Correctness (same itemsets, same supports as brute force, the hybrid
//! and top-down PLT miners, FP-growth and Eclat) is enforced by the
//! property suites here, in `tests/arena_equivalence.rs`,
//! `tests/miners_agree.rs` and `tests/kernel_equivalence.rs`.

use crate::item::{Itemset, Rank, Support};
use crate::miner::MiningResult;
use crate::plt::Plt;
use crate::posvec::PositionVector;
use plt_obs::Obs;
use plt_simd::KernelStats;

/// Index of an entry within its [`Level`].
type EntryId = u32;

/// Engine counters accumulated by every arena mining call. Kept always-on
/// (plain `u64` adds are far below measurement noise) so the numbers exist
/// whether or not an observability recorder is installed; [`MineStats::record`]
/// flushes them into a recorder under the `arena.*` and `kernel.*` names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MineStats {
    /// Prefix fold-backs performed in the bucket drains (the O(1) re-tags).
    pub vectors_folded: u64,
    /// Fold-backs absorbed by an existing identical vector (frequency merge).
    pub dedup_hits: u64,
    /// Entries copied through verbatim because every local rank stayed
    /// frequent (the fast path of `Conditional_Construct`'s scan 2).
    pub copy_throughs: u64,
    /// Single-entry databases emitted via the subset shortcut.
    pub single_path_shortcuts: u64,
    /// Peak bytes held across the pool's level storage (positions, entry
    /// columns, scratch, dedup table; excludes per-bucket spine capacity).
    pub bytes_peak: u64,
    /// Kernel calls dispatched to the SIMD backend during mining.
    pub simd_calls: u64,
    /// Kernel calls dispatched to the scalar backend during mining.
    pub scalar_calls: u64,
    /// Bitset AND/ANDNOT intersections run through the kernel layer on
    /// this thread while mining (zero for the arena itself; populated
    /// when bitmap-backed baselines share the counters).
    pub bitmap_intersections: u64,
}

impl MineStats {
    /// Folds another stats block into this one (counters add, peak maxes) —
    /// used when merging per-worker pools.
    pub fn merge(&mut self, other: &MineStats) {
        self.vectors_folded += other.vectors_folded;
        self.dedup_hits += other.dedup_hits;
        self.copy_throughs += other.copy_throughs;
        self.single_path_shortcuts += other.single_path_shortcuts;
        self.bytes_peak = self.bytes_peak.max(other.bytes_peak);
        self.simd_calls += other.simd_calls;
        self.scalar_calls += other.scalar_calls;
        self.bitmap_intersections += other.bitmap_intersections;
    }

    /// Flushes the counters into an observability recorder under the
    /// `arena.*` and `kernel.*` names (`bytes_peak` as a gauge, the rest
    /// as counters).
    pub fn record(&self, obs: &mut Obs) {
        obs.counter("arena.vectors_folded", self.vectors_folded);
        obs.counter("arena.dedup_hits", self.dedup_hits);
        obs.counter("arena.copy_throughs", self.copy_throughs);
        obs.counter("arena.single_path_shortcuts", self.single_path_shortcuts);
        obs.gauge("arena.bytes_peak", self.bytes_peak);
        obs.counter("kernel.simd_calls", self.simd_calls);
        obs.counter("kernel.scalar_calls", self.scalar_calls);
        obs.counter("kernel.bitmap_intersections", self.bitmap_intersections);
    }
}

/// One recursion depth's working storage. A level is built by its parent
/// (or from the PLT at depth 0), mined to exhaustion, and then reused by
/// the next sibling conditional database at the same depth.
///
/// Entry storage is SoA: the packed `(offset, len, freq, sum)` of the old
/// layout lives in four parallel columns indexed by [`EntryId`], so the
/// kernels gather one field across many entries from contiguous memory.
#[derive(Debug, Default)]
struct Level {
    /// Contiguous position storage for every entry of this level.
    positions: Vec<Rank>,
    /// Column: start of each entry's positions in `positions`.
    offsets: Vec<u32>,
    /// Column: current number of live positions (fold-back shrinks this).
    lens: Vec<u32>,
    /// Column: transactions supporting each vector. Contiguous so the
    /// bucket-drain support accumulation is one gathered-sum kernel call.
    freqs: Vec<Support>,
    /// Column: cached sum of each entry's live positions.
    sums: Vec<Rank>,
    /// `buckets[s]` holds the ids of entries whose *current* sum is `s`
    /// (index 0 unused). Entries move strictly downwards as they shrink,
    /// so a bucket is complete by the time the descending cursor reaches
    /// it and never needs tombstones.
    buckets: Vec<Vec<EntryId>>,
    /// Highest sum that may own a non-empty bucket.
    max_sum: Rank,
    /// Scratch: local rank frequencies (scan 1 of Conditional_Construct),
    /// indexed by rank; reset in O(|touched|) via `touched`.
    counts: Vec<Support>,
    /// Scratch: ranks with a non-zero `counts` cell.
    touched: Vec<Rank>,
    /// Scratch: locally frequent ranks of the entry being re-encoded.
    kept: Vec<Rank>,
    /// Scratch: decoded (prefix-summed) ranks of the window being scanned.
    ranks: Vec<Rank>,
    /// Scratch: re-deltaed positions of the entry being appended.
    enc: Vec<Rank>,
    /// Scratch: ids of the entries forming the conditional database of
    /// the bucket currently being peeled.
    cond: Vec<EntryId>,
    /// Drain-scoped dedup table: open-addressed `(version, id)` slots
    /// keyed by entry-content hash. Bumping `dedup_version` invalidates
    /// every slot, so the per-drain reset is O(1).
    dedup: Vec<(u32, EntryId)>,
    /// Version stamp marking which slots are live.
    dedup_version: u32,
    /// Live slots in `dedup`.
    dedup_len: usize,
}

/// FNV-1a over the rank sequence decoded from a delta window. Hashing the
/// prefix sums (not the raw deltas) keeps the hash a pure function of the
/// itemset, whichever encoding the caller holds.
fn hash_window(window: &[Rank]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut acc: Rank = 0;
    for &p in window {
        acc += p;
        h ^= acc as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Level {
    /// Grows the dense per-rank tables to cover ranks `1..=max_rank`.
    fn ensure_rank_capacity(&mut self, max_rank: usize) {
        if self.buckets.len() < max_rank + 1 {
            self.buckets.resize_with(max_rank + 1, Vec::new);
        }
        if self.counts.len() < max_rank + 1 {
            self.counts.resize(max_rank + 1, 0);
        }
    }

    /// Clears entry storage for a fresh conditional database. Buckets are
    /// already empty: mining drains every bucket it fills.
    fn reset(&mut self) {
        self.positions.clear();
        self.offsets.clear();
        self.lens.clear();
        self.freqs.clear();
        self.sums.clear();
        self.max_sum = 0;
        debug_assert!(self.buckets.iter().all(Vec::is_empty));
        debug_assert!(self.counts.iter().all(|&c| c == 0));
    }

    /// Number of live entries.
    fn num_entries(&self) -> usize {
        self.offsets.len()
    }

    /// Appends an entry encoding the strictly increasing rank sequence
    /// `ranks` (re-deltaed per Definition 4.1.2 through the encode
    /// kernel). If the ranks equal those of the previously appended
    /// entry, the frequencies merge instead — a free partial dedup that
    /// catches runs of identical prefixes.
    fn push_ranks(&mut self, ranks: &[Rank], freq: Support) {
        debug_assert!(!ranks.is_empty());
        let sum = *ranks.last().expect("non-empty ranks");
        if let Some(last) = self.num_entries().checked_sub(1) {
            if self.sums[last] == sum && self.lens[last] as usize == ranks.len() {
                let start = self.offsets[last] as usize;
                let prev = &self.positions[start..start + ranks.len()];
                let mut acc = 0;
                if prev.iter().zip(ranks).all(|(&p, &r)| {
                    acc += p;
                    acc == r
                }) {
                    self.freqs[last] += freq;
                    return;
                }
            }
        }
        let offset = self.positions.len() as u32;
        plt_simd::delta_encode_into(ranks, &mut self.enc);
        self.positions.extend_from_slice(&self.enc);
        let id = self.num_entries() as EntryId;
        self.offsets.push(offset);
        self.lens.push(ranks.len() as u32);
        self.freqs.push(freq);
        self.sums.push(sum);
        self.buckets[sum as usize].push(id);
        self.max_sum = self.max_sum.max(sum);
    }

    /// Invalidates every dedup slot for the next drain, in O(1).
    fn dedup_reset(&mut self) {
        self.dedup_len = 0;
        self.dedup_version = self.dedup_version.wrapping_add(1);
        if self.dedup_version == 0 {
            // u32 wraparound: scrub once so stale stamps cannot alias.
            self.dedup.fill((0, 0));
            self.dedup_version = 1;
        }
    }

    /// Grows the dedup table to absorb `n` more inserts below 75% load,
    /// rehashing any live slots.
    fn dedup_reserve(&mut self, n: usize) {
        let need = (self.dedup_len + n) * 4 / 3 + 1;
        if self.dedup.len() >= need {
            return;
        }
        let cap = need.next_power_of_two().max(16);
        let old = std::mem::replace(&mut self.dedup, vec![(0, 0); cap]);
        let mask = cap - 1;
        for (v, id) in old {
            if v == self.dedup_version {
                let o = self.offsets[id as usize] as usize;
                let l = self.lens[id as usize] as usize;
                let h = hash_window(&self.positions[o..o + l]);
                let mut i = h as usize & mask;
                while self.dedup[i].0 == self.dedup_version {
                    i = (i + 1) & mask;
                }
                self.dedup[i] = (self.dedup_version, id);
            }
        }
    }

    /// Looks up a live entry with the same content as entry `id`,
    /// recording `id` in the table if there is none. Returns the
    /// already-present duplicate on a hit.
    fn dedup_entry(&mut self, id: EntryId) -> Option<EntryId> {
        debug_assert!(!self.dedup.is_empty());
        let mask = self.dedup.len() - 1;
        let eo = self.offsets[id as usize] as usize;
        let el = self.lens[id as usize] as usize;
        let esum = self.sums[id as usize];
        let h = hash_window(&self.positions[eo..eo + el]);
        let mut i = h as usize & mask;
        loop {
            let (v, other) = self.dedup[i];
            if v != self.dedup_version {
                self.dedup[i] = (self.dedup_version, id);
                self.dedup_len += 1;
                return None;
            }
            let ou = other as usize;
            if self.lens[ou] as usize == el && self.sums[ou] == esum {
                let oo = self.offsets[ou] as usize;
                if self.positions[oo..oo + el] == self.positions[eo..eo + el] {
                    return Some(other);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Appends an entry from raw positions (already delta-encoded), used
    /// when feeding straight from PLT partition storage.
    fn push_positions(&mut self, positions: &[Rank], freq: Support, sum: Rank) {
        debug_assert!(!positions.is_empty());
        debug_assert_eq!(positions.iter().sum::<Rank>(), sum);
        let offset = self.positions.len() as u32;
        self.positions.extend_from_slice(positions);
        let id = self.num_entries() as EntryId;
        self.offsets.push(offset);
        self.lens.push(positions.len() as u32);
        self.freqs.push(freq);
        self.sums.push(sum);
        self.buckets[sum as usize].push(id);
        self.max_sum = self.max_sum.max(sum);
    }
}

/// Reusable per-depth arena storage for the conditional miner.
///
/// One pool serves any number of successive mining calls; each call
/// reuses the levels (and their buckets, scratch arrays and position
/// buffers) grown by earlier calls, so a warmed pool mines without
/// allocating. The parallel miner keeps one pool per worker.
///
/// # Examples
///
/// ```
/// use plt_core::arena::ArenaPool;
/// use plt_core::construct::{construct, ConstructOptions};
///
/// let db = vec![vec![1, 2], vec![1, 2], vec![2, 3]];
/// let plt = construct(&db, 2, ConstructOptions::conditional()).unwrap();
/// let mut pool = ArenaPool::new();
/// let result = pool.mine_plt(&plt);
/// assert_eq!(result.support(&[1, 2]), Some(2));
/// assert_eq!(result.support(&[2]), Some(3));
/// ```
#[derive(Debug, Default)]
pub struct ArenaPool {
    levels: Vec<Level>,
    /// Rank capacity the levels are currently sized for.
    max_rank: usize,
    /// Engine counters accumulated across mining calls on this pool.
    stats: MineStats,
}

impl ArenaPool {
    /// An empty pool; storage is grown on first use and retained.
    pub fn new() -> ArenaPool {
        ArenaPool::default()
    }

    /// Sizes the pool for ranks `1..=max_rank` and returns a reset depth-0
    /// level ready to be filled.
    fn prepare(&mut self, max_rank: usize) -> &mut Level {
        self.max_rank = max_rank;
        if self.levels.is_empty() {
            self.levels.push(Level::default());
        }
        let level = &mut self.levels[0];
        level.ensure_rank_capacity(max_rank);
        level.reset();
        level
    }

    /// Makes sure `levels[depth]` exists and covers the pool's rank range.
    fn ensure_level(&mut self, depth: usize) {
        while self.levels.len() <= depth {
            self.levels.push(Level::default());
        }
        self.levels[depth].ensure_rank_capacity(self.max_rank);
    }

    /// Mines an already-constructed PLT (built without prefix insertion),
    /// feeding the arena straight from the partition storage — no
    /// per-vector clone, no intermediate map.
    pub fn mine_plt(&mut self, plt: &Plt) -> MiningResult {
        let kernels_before = KernelStats::snapshot_thread();
        let mut result = MiningResult::new(plt.min_support(), plt.num_transactions());
        let level = self.prepare(plt.ranking().len());
        for (v, e) in plt.iter() {
            level.push_positions(v.positions(), e.freq, e.sum);
        }
        let mut suffix = Vec::new();
        mine_or_shortcut(self, 0, plt, &mut suffix, &mut result);
        self.note_bytes_peak();
        self.note_kernel_stats(kernels_before);
        result
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

    /// Folds the current level storage footprint into `stats.bytes_peak`.
    /// O(levels) with constant work per level, so it runs once per mining
    /// call; the per-bucket spine vectors are deliberately excluded.
    fn note_bytes_peak(&mut self) {
        let mut bytes = 0u64;
        for level in &self.levels {
            bytes += (level.positions.capacity() * std::mem::size_of::<Rank>()
                + level.offsets.capacity() * std::mem::size_of::<u32>()
                + level.lens.capacity() * std::mem::size_of::<u32>()
                + level.freqs.capacity() * std::mem::size_of::<Support>()
                + level.sums.capacity() * std::mem::size_of::<Rank>()
                + level.buckets.capacity() * std::mem::size_of::<Vec<EntryId>>()
                + level.counts.capacity() * std::mem::size_of::<Support>()
                + level.touched.capacity() * std::mem::size_of::<Rank>()
                + level.kept.capacity() * std::mem::size_of::<Rank>()
                + level.ranks.capacity() * std::mem::size_of::<Rank>()
                + level.enc.capacity() * std::mem::size_of::<Rank>()
                + level.cond.capacity() * std::mem::size_of::<EntryId>()
                + level.dedup.capacity() * std::mem::size_of::<(u32, EntryId)>())
                as u64;
        }
        self.stats.bytes_peak = self.stats.bytes_peak.max(bytes);
    }

    /// Folds the kernel-dispatch counters spent since `before` (on this
    /// thread) into the pool's stats block.
    fn note_kernel_stats(&mut self, before: KernelStats) {
        let delta = KernelStats::snapshot_thread().since(&before);
        self.stats.simd_calls += delta.simd_calls;
        self.stats.scalar_calls += delta.scalar_calls;
        self.stats.bitmap_intersections += delta.bitmap_intersections;
    }

    /// Mines a conditional database under a fixed suffix of global ranks.
    /// The database is given as `(positions, frequency)` windows so callers
    /// holding flat storage (the parallel projections) feed it without
    /// materialising vectors; it is locally re-filtered against the
    /// minimum support before mining. The suffix's own support is *not*
    /// emitted.
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
    ) -> MiningResult
    where
        I: Iterator<Item = (&'a [Rank], Support)> + Clone,
    {
        let kernels_before = KernelStats::snapshot_thread();
        let mut result = MiningResult::new(plt.min_support(), plt.num_transactions());
        let min_support = plt.min_support();
        let level = self.prepare(plt.ranking().len());

        // Scan 1 (local): rank frequencies within the conditional
        // database. The Lemma 4.1.1 rank recovery runs through the
        // prefix-sum kernel; the scatter-add over `counts` stays scalar
        // (its writes are data-dependent).
        for (positions, freq) in conditional.clone() {
            plt_simd::prefix_sum_into(positions, &mut level.ranks);
            for &r in &level.ranks {
                if level.counts[r as usize] == 0 {
                    level.touched.push(r);
                }
                level.counts[r as usize] += freq;
            }
        }

        // Scan 2 (local): filter infrequent ranks (gathered-compare
        // kernel) and re-encode survivors.
        for (positions, freq) in conditional {
            plt_simd::prefix_sum_into(positions, &mut level.ranks);
            // Taken out so `push_ranks` can borrow the level mutably.
            let mut kept = std::mem::take(&mut level.kept);
            plt_simd::filter_ge_into(&level.counts, &level.ranks, min_support, &mut kept);
            if !kept.is_empty() {
                level.push_ranks(&kept, freq);
            }
            level.kept = kept;
        }
        for &r in &level.touched {
            level.counts[r as usize] = 0;
        }
        level.touched.clear();

        let mut sfx = suffix.to_vec();
        mine_or_shortcut(self, 0, plt, &mut sfx, &mut result);
        self.note_bytes_peak();
        self.note_kernel_stats(kernels_before);
        result
    }
}

/// Dispatches `levels[depth]` to the single-path shortcut when it holds
/// exactly one entry, and to the full recursive peel otherwise.
fn mine_or_shortcut(
    pool: &mut ArenaPool,
    depth: usize,
    plt: &Plt,
    suffix: &mut Vec<Rank>,
    result: &mut MiningResult,
) {
    let level = &pool.levels[depth];
    if level.num_entries() == 1 && level.lens[0] <= MAX_SINGLE_PATH {
        pool.stats.single_path_shortcuts += 1;
        emit_single_path(&mut pool.levels[depth], plt, suffix, result);
    } else {
        mine_level(pool, depth, plt, suffix, result);
    }
}

/// Longest vector the single-path shortcut enumerates directly (2^len
/// itemsets); longer chains fall back to the recursive peel, which visits
/// the same family without materialising a mask loop.
const MAX_SINGLE_PATH: u32 = 30;

/// The single-path shortcut: a one-entry database supports every
/// non-empty subset of its vector with the entry's own frequency, so the
/// whole subtree is emitted with direct inserts — no drains, no child
/// construction. The counterpart of FP-growth's single-path optimisation,
/// justified here by Lemma 4.1.3 (every subset arises from the one
/// vector).
fn emit_single_path(
    level: &mut Level,
    plt: &Plt,
    suffix: &mut Vec<Rank>,
    result: &mut MiningResult,
) {
    debug_assert_eq!(level.num_entries(), 1);
    let freq = level.freqs[0];
    // The entry is parked in its bucket; consume it so the level resets
    // clean for the next sibling.
    level.buckets[level.sums[0] as usize].clear();
    let off = level.offsets[0] as usize;
    let len = level.lens[0] as usize;
    plt_simd::prefix_sum_into(&level.positions[off..off + len], &mut level.kept);
    let k = level.kept.len();
    let base = suffix.len();
    for mask in 1u64..(1u64 << k) {
        for (i, &r) in level.kept.iter().enumerate() {
            if mask & (1 << i) != 0 {
                suffix.push(r);
            }
        }
        let items = plt.ranking().items_for_ranks(suffix);
        result.insert(Itemset::from_sorted(items), freq);
        suffix.truncate(base);
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
    result: &mut MiningResult,
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
        // item has rank j (Lemma 4.1.1). The extension's support is a
        // branchless gathered sum over the contiguous `freqs` column —
        // the SoA payoff — computed before the fold loop mutates
        // anything (folding only merges frequencies *into* entries after
        // their original value was already counted, so the pre-fold sum
        // equals the old accumulate-as-you-drain total).
        let mut ids = std::mem::take(&mut level.buckets[j as usize]);
        let support: Support = plt_simd::sum_gather(&level.freqs, &ids);
        // Fold each prefix back with an O(1) re-tag and collect the
        // survivors as CD_j. Folding merges duplicate prefixes as it
        // goes: distinct vectors `[P, x]` and `[P, y]` both fold to `P`,
        // and on dense data those duplicates compound through the
        // recursion. A map layout merges them in its hash insert; the
        // drain-scoped dedup table restores the same invariant (each
        // bucket holds distinct vectors) at the same O(len)-per-entry
        // cost, without allocating.
        let mut folded: u64 = 0;
        let mut dedup_hits: u64 = 0;
        level.dedup_reset();
        level.dedup_reserve(ids.len());
        level.cond.clear();
        for &id in &ids {
            let idu = id as usize;
            debug_assert_eq!(level.sums[idu], j);
            if level.lens[idu] > 1 {
                let last = level.positions[(level.offsets[idu] + level.lens[idu] - 1) as usize];
                level.lens[idu] -= 1;
                level.sums[idu] -= last;
                folded += 1;
                match level.dedup_entry(id) {
                    Some(other) => {
                        dedup_hits += 1;
                        level.freqs[other as usize] += level.freqs[idu];
                    }
                    None => {
                        let sum = level.sums[idu];
                        level.buckets[sum as usize].push(id);
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
        let items = plt.ranking().items_for_ranks(suffix);
        result.insert(Itemset::from_sorted(items), support);

        // CPLT = PLT_Construction(CD_j, min_sup): the two-scan local
        // construction, writing into the next depth's reusable level.
        pool.ensure_level(depth + 1);
        let (parents, children) = pool.levels.split_at_mut(depth + 1);
        if construct_child(
            &mut parents[depth],
            &mut children[0],
            min_support,
            &mut pool.stats,
        ) {
            mine_or_shortcut(pool, depth + 1, plt, suffix, result);
        }
        suffix.pop();
    }
}

/// Builds `child` from the conditional entry ids staged in `parent.cond`
/// (scan 1: count ranks; scan 2: filter and re-encode). Returns whether
/// the child holds any entries. All work runs over the levels' scratch
/// buffers; nothing is allocated once capacities are warm. Both scans
/// route their vectorizable halves through the kernel layer: rank
/// recovery is the prefix-sum kernel, the all-locally-frequent test and
/// the survivor filter are gathered compares.
fn construct_child(
    parent: &mut Level,
    child: &mut Level,
    min_support: Support,
    stats: &mut MineStats,
) -> bool {
    child.reset();
    // Scan 1 (local): rank frequencies within CD_j. The prefix of entry
    // `id` is its *current* (already shrunk) position window.
    for &id in &parent.cond {
        let idu = id as usize;
        let o = parent.offsets[idu] as usize;
        let l = parent.lens[idu] as usize;
        let freq = parent.freqs[idu];
        plt_simd::prefix_sum_into(&parent.positions[o..o + l], &mut parent.ranks);
        for &r in &parent.ranks {
            if parent.counts[r as usize] == 0 {
                parent.touched.push(r);
            }
            parent.counts[r as usize] += freq;
        }
    }
    // Scan 2 (local): drop locally infrequent ranks, re-delta the rest.
    // When every touched rank stays frequent — the common case on dense
    // data — the filter is the identity, and each entry copies through as
    // a raw slice with no per-position branching. Entries in `cond` are
    // distinct (the drain merged duplicates), so the copy needs no
    // dedup.
    let all_frequent =
        plt_simd::count_ge(&parent.counts, &parent.touched, min_support) == parent.touched.len();
    if all_frequent {
        stats.copy_throughs += parent.cond.len() as u64;
        for &id in &parent.cond {
            let idu = id as usize;
            let o = parent.offsets[idu] as usize;
            let l = parent.lens[idu] as usize;
            child.push_positions(
                &parent.positions[o..o + l],
                parent.freqs[idu],
                parent.sums[idu],
            );
        }
    } else {
        for &id in &parent.cond {
            let idu = id as usize;
            let o = parent.offsets[idu] as usize;
            let l = parent.lens[idu] as usize;
            plt_simd::prefix_sum_into(&parent.positions[o..o + l], &mut parent.ranks);
            plt_simd::filter_ge_into(&parent.counts, &parent.ranks, min_support, &mut parent.kept);
            if !parent.kept.is_empty() {
                child.push_ranks(&parent.kept, parent.freqs[idu]);
            }
        }
    }
    // O(touched) reset keeps the counts array clean for the next sibling.
    for &r in &parent.touched {
        parent.counts[r as usize] = 0;
    }
    parent.touched.clear();
    child.num_entries() > 0
}

/// One-shot arena mining of a PLT with a throwaway pool. Callers mining
/// repeatedly (servers, the parallel workers) should hold an
/// [`ArenaPool`] instead to amortise the storage.
pub fn mine_plt_arena(plt: &Plt) -> MiningResult {
    ArenaPool::new().mine_plt(plt)
}

/// One-shot arena mining of a materialised conditional database (see
/// [`ArenaPool::mine_conditional`]).
pub fn mine_conditional_arena(
    conditional: &[(PositionVector, Support)],
    plt: &Plt,
    suffix: &[Rank],
) -> MiningResult {
    ArenaPool::new().mine_conditional(
        conditional.iter().map(|(v, f)| (v.positions(), *f)),
        plt,
        suffix,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{construct, ConstructOptions};
    use crate::item::Item;
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
        let first = pool.mine_plt(&plt1);
        // A different database and threshold on the same warmed pool.
        let db2: Vec<Vec<Item>> = vec![vec![1, 2, 3]; 5];
        let plt2 = build(&db2, 3);
        let second = pool.mine_plt(&plt2);
        assert_eq!(second.support(&[1, 2, 3]), Some(5));
        assert_eq!(second.len(), 7);
        // And the original answer again, unchanged.
        assert_eq!(pool.mine_plt(&plt1).sorted(), first.sorted());
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
        pool.mine_plt(&plt);
        let stats = *pool.stats();
        assert!(stats.vectors_folded > 0, "{stats:?}");
        assert!(stats.bytes_peak > 0, "{stats:?}");
        // Every kernel call during the mine landed on exactly one backend.
        assert!(stats.simd_calls + stats.scalar_calls > 0, "{stats:?}");
        // Taking hands the counters over and resets the pool's block.
        let taken = pool.take_stats();
        assert_eq!(taken, stats);
        assert_eq!(*pool.stats(), MineStats::default());
        // Merge adds counters and maxes the peak.
        let mut merged = taken;
        merged.merge(&taken);
        assert_eq!(merged.vectors_folded, 2 * taken.vectors_folded);
        assert_eq!(merged.scalar_calls, 2 * taken.scalar_calls);
        assert_eq!(merged.bytes_peak, taken.bytes_peak);
        // Recording flushes under the arena.* and kernel.* names.
        let mut rec = plt_obs::MetricsRecorder::new();
        taken.record(&mut Obs::new(&mut rec));
        assert_eq!(
            rec.counter_value("arena.vectors_folded"),
            taken.vectors_folded
        );
        assert_eq!(
            rec.counter_value("kernel.simd_calls") + rec.counter_value("kernel.scalar_calls"),
            taken.simd_calls + taken.scalar_calls
        );
        assert_eq!(rec.gauge_value("arena.bytes_peak"), taken.bytes_peak);
    }

    #[test]
    fn single_path_shortcut_is_counted() {
        let db = vec![vec![1, 2, 3]; 5];
        let plt = build(&db, 3);
        let mut pool = ArenaPool::new();
        pool.mine_plt(&plt);
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
    fn forced_backends_agree() {
        // The same pool, mined under each forced backend, must produce
        // identical answers — the in-crate rendering of the differential
        // suite in tests/kernel_equivalence.rs.
        let plt = build(&table1(), 2);
        plt_simd::set_thread_backend(Some(plt_simd::Backend::Scalar));
        let scalar = mine_plt_arena(&plt);
        plt_simd::set_thread_backend(Some(plt_simd::Backend::Simd));
        let simd = mine_plt_arena(&plt);
        plt_simd::set_thread_backend(None);
        assert_eq!(scalar.sorted(), simd.sorted());
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
                let reused = pool.mine_plt(&plt);
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
