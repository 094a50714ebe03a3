//! Dirty-rank projections: per-item conditional databases restricted to a
//! marked rank set.
//!
//! Same single-pass formulation as `plt_parallel::projection` — vector `V`
//! with ranks `r_1 < … < r_k` contributes its prefix before `r_i` to item
//! `r_i`'s conditional database — but prefixes are only copied for ranks
//! the caller marked dirty. Clean ranks cost one flag test per occupied
//! position, so the projection pass itself scales with the dirty fraction
//! of the position mass, not the full database.

use plt_core::item::{Rank, Support};
use plt_core::plt::Plt;

/// One dirty rank's projection: support plus its conditional database in
/// flat storage (the layout the arena engine consumes directly).
#[derive(Debug, Clone, Default)]
pub(crate) struct Slot {
    pub(crate) support: Support,
    /// Contiguous position storage for every prefix in this database.
    positions: Vec<Rank>,
    /// `(offset, len, freq)` windows into `positions`.
    entries: Vec<(u32, u32, Support)>,
}

impl Slot {
    /// True when the rank has no conditional database (only prefixes of
    /// length ≥ 1 are stored).
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(positions, frequency)` windows — the shape
    /// [`plt_core::ArenaPool::mine_conditional`] consumes.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[Rank], Support)> + Clone + '_ {
        let positions = &self.positions;
        self.entries
            .iter()
            .map(move |&(off, len, freq)| (&positions[off as usize..(off + len) as usize], freq))
    }
}

/// Projects the marked ranks of `plt` in one pass. `marked` is indexed by
/// rank (index 0 unused); the returned slots are indexed by `rank − 1`,
/// with unmarked ranks left empty.
pub(crate) fn project_marked(plt: &Plt, marked: &[bool]) -> Vec<Slot> {
    let n = plt.ranking().len();
    let mut by_rank: Vec<Slot> = vec![Slot::default(); n];
    for (v, e) in plt.iter() {
        let positions = v.positions();
        let mut acc = 0;
        for (i, &p) in positions.iter().enumerate() {
            acc += p; // rank of the i-th item (Lemma 4.1.1)
            if !marked[acc as usize] {
                continue;
            }
            let slot = &mut by_rank[(acc - 1) as usize];
            slot.support += e.freq;
            if i > 0 {
                let off = slot.positions.len() as u32;
                slot.positions.extend_from_slice(&positions[..i]);
                slot.entries.push((off, i as u32, e.freq));
            }
        }
    }
    by_rank
}
