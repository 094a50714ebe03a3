//! Per-item projections of a PLT — the parallel work units.
//!
//! The sequential conditional miner (Algorithm 3) peels items off one at a
//! time, folding prefixes back as it goes; that fold creates a sequential
//! dependency between items. For parallel mining we instead compute every
//! item's conditional database directly from the *original* PLT in one
//! pass: vector `V` with ranks `r_1 < … < r_k` contributes its prefix
//! before `r_i` to item `r_i`'s database, for every `i`. The two
//! formulations count identically (each transaction containing item `j`
//! contributes its sub-`j` prefix exactly once either way), but the direct
//! one makes the per-item units independent.
//!
//! Conditional databases are stored **flat**: one contiguous position
//! buffer per item plus `(offset, len, freq)` windows, the same layout the
//! arena engine consumes — so the per-worker miners are fed straight from
//! these slices without materialising a single `PositionVector`.

use plt_core::item::{Rank, Support};
use plt_core::plt::Plt;

/// One item's projection: support plus its conditional database in flat
/// storage.
#[derive(Debug, Clone, Default)]
struct Slot {
    support: Support,
    /// Contiguous position storage for every prefix in this database.
    positions: Vec<Rank>,
    /// `(offset, len, freq)` windows into `positions`.
    entries: Vec<(u32, u32, Support)>,
}

/// A borrowed view of one item's conditional database.
#[derive(Debug, Clone, Copy)]
pub struct CondView<'a> {
    positions: &'a [Rank],
    entries: &'a [(u32, u32, Support)],
}

impl<'a> CondView<'a> {
    /// Number of (unmerged) prefix entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the item has no conditional database.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(positions, frequency)` windows — the exact shape
    /// [`plt_core::ArenaPool::mine_conditional`] consumes.
    pub fn iter(&self) -> impl Iterator<Item = (&'a [Rank], Support)> + Clone + '_ {
        let positions = self.positions;
        self.entries
            .iter()
            .map(move |&(off, len, freq)| (&positions[off as usize..(off + len) as usize], freq))
    }
}

/// All per-item projections of a PLT.
#[derive(Debug, Clone)]
pub struct Projections {
    /// Indexed by `rank − 1`. Duplicate prefixes are left unmerged — the
    /// conditional construction merges them.
    by_rank: Vec<Slot>,
}

impl Projections {
    /// Number of ranked items covered.
    pub fn len(&self) -> usize {
        self.by_rank.len()
    }

    /// True when the PLT had no ranked items.
    pub fn is_empty(&self) -> bool {
        self.by_rank.is_empty()
    }

    /// Support of the item holding `rank`, as observed in the vectors.
    pub fn support(&self, rank: Rank) -> Support {
        self.by_rank[(rank - 1) as usize].support
    }

    /// Conditional database of the item holding `rank`, as a flat view.
    pub fn conditional(&self, rank: Rank) -> CondView<'_> {
        let slot = &self.by_rank[(rank - 1) as usize];
        CondView {
            positions: &slot.positions,
            entries: &slot.entries,
        }
    }
}

/// Builds every item's projection in a single pass over the PLT. Prefixes
/// are written directly into per-item flat buffers (positions are shared
/// deltas, so the prefix before rank `r_i` is just the first `i` positions
/// of the vector — a plain slice copy).
pub fn project_all(plt: &Plt) -> Projections {
    project(plt, |_| true)
}

/// The same pass restricted to the ranks with `marked[rank]` set
/// (`marked` is indexed by rank, index 0 unused): every other rank is
/// left with support 0 and an empty conditional database. An unmarked
/// rank costs one flag test per occupied position, so the pass scales
/// with the marked share of the position mass — what a re-mine of a few
/// dirty rank ranges needs.
pub fn project_marked(plt: &Plt, marked: &[bool]) -> Projections {
    project(plt, |rank| marked[rank as usize])
}

fn project(plt: &Plt, keep: impl Fn(Rank) -> bool) -> Projections {
    let n = plt.ranking().len();
    let mut by_rank: Vec<Slot> = vec![Slot::default(); n];
    for (v, e) in plt.iter() {
        let positions = v.positions();
        let mut acc = 0;
        for (i, &p) in positions.iter().enumerate() {
            acc += p; // rank of the i-th item (Lemma 4.1.1)
            if !keep(acc) {
                continue;
            }
            let slot = &mut by_rank[(acc - 1) as usize];
            slot.support += e.freq;
            if i > 0 {
                let offset = slot.positions.len() as u32;
                slot.positions.extend_from_slice(&positions[..i]);
                slot.entries.push((offset, i as u32, e.freq));
            }
        }
    }
    Projections { by_rank }
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

    #[test]
    fn supports_match_item_scan() {
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        let proj = project_all(&plt);
        assert_eq!(proj.len(), 4);
        assert_eq!(proj.support(1), 4); // A
        assert_eq!(proj.support(2), 5); // B
        assert_eq!(proj.support(3), 5); // C
        assert_eq!(proj.support(4), 4); // D
    }

    #[test]
    fn conditional_of_top_rank_matches_figure5() {
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        let proj = project_all(&plt);
        let view = proj.conditional(4);
        assert_eq!(view.len(), 4);
        let mut windows: Vec<(Vec<Rank>, Support)> =
            view.iter().map(|(p, f)| (p.to_vec(), f)).collect();
        windows.sort();
        assert_eq!(
            windows,
            vec![
                (vec![1, 1], 1),
                (vec![1, 1, 1], 1),
                (vec![2, 1], 1),
                (vec![3], 1),
            ]
        );
    }

    #[test]
    fn conditional_of_lowest_rank_is_empty() {
        // Rank 1 is the smallest item; nothing precedes it.
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        let proj = project_all(&plt);
        assert!(proj.conditional(1).is_empty());
    }

    #[test]
    fn intermediate_rank_projects_prefixes_only() {
        // Item C (rank 3): contained in ABC×2, ABCD, BCD, CD. Prefixes:
        // AB×3 (from ABC×2 + ABCD), B×1 (BCD), none for CD (C is first).
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        let proj = project_all(&plt);
        let mut total: Support = 0;
        for (positions, f) in proj.conditional(3).iter() {
            assert!(positions.iter().sum::<Rank>() < 3);
            total += f;
        }
        // 4 prefix-contributing occurrences (ABC×2, ABCD, BCD).
        assert_eq!(total, 4);
    }

    #[test]
    fn marked_ranks_project_as_in_the_full_pass() {
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        let all = project_all(&plt);
        let marked = project_marked(&plt, &[false, false, true, false, true]);
        let windows = |p: &Projections, r: Rank| -> Vec<(Vec<Rank>, Support)> {
            p.conditional(r)
                .iter()
                .map(|(w, f)| (w.to_vec(), f))
                .collect()
        };
        for r in [2, 4] {
            assert_eq!(marked.support(r), all.support(r));
            assert_eq!(windows(&marked, r), windows(&all, r));
        }
        for r in [1, 3] {
            assert_eq!(marked.support(r), 0);
            assert!(marked.conditional(r).is_empty());
        }
    }

    #[test]
    fn empty_plt_projects_nothing() {
        let db: Vec<Vec<Item>> = vec![];
        let plt = construct(&db, 1, ConstructOptions::conditional()).unwrap();
        assert!(project_all(&plt).is_empty());
    }
}
