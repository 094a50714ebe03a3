//! Eclat / dEclat — vertical mining by TID-set intersection (Zaki, TKDE
//! 2000, the paper's reference \[12\]; diffsets from Zaki & Gouda, KDD'03,
//! reference \[16\]).
//!
//! The database is turned into per-item TID lists; the support of
//! `P ∪ {x, y}` is the size of the intersection of the TID lists of
//! `P ∪ {x}` and `P ∪ {y}`. The search is a depth-first walk over
//! equivalence classes sharing a prefix.
//!
//! With **diffsets**, a class member stores the TIDs its prefix has but it
//! does not: `d(Pxy) = t(Px) \ t(Py)` at the first level and
//! `d(Pxy) = d(Py) \ d(Px)` below, with
//! `support(Pxy) = support(Px) − |d(Pxy)|`. Dense data makes diffsets much
//! smaller than tidsets — the classic trade measured in experiment X1.
//!
//! Two **TID representations** are supported (see `DESIGN.md` §11):
//!
//! * sorted `Vec<Tid>` lists joined by sorted-merge (the classic layout,
//!   best when the database is sparse);
//! * packed `u64` bitmap rows joined by `AND`+popcount (or
//!   `AND NOT`+popcount for diffsets) through the [`plt_core::kernels`]
//!   layer, which dispatches to the AVX2 backend when compiled in.
//!
//! [`TidRepr::Auto`] picks bitmaps exactly when they are smaller than the
//! sorted lists ([`BitsetTidDb::prefer_bitmaps`]), i.e. on dense data.
//! Either way the recursion recycles its intermediate buffers through a
//! free-list pool, so steady-state mining allocates nothing per candidate.

use plt_core::item::{Item, Support};
use plt_core::miner::{Miner, MiningResult, ResultBuilder};
use plt_data::bitset::BitsetTidDb;
use plt_data::transaction::TransactionDb;
use plt_data::vertical::{Tid, VerticalDb};

/// How equivalence-class members store their TID sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TidRepr {
    /// Bitmaps when [`BitsetTidDb::prefer_bitmaps`] says they are smaller
    /// than the sorted lists, sorted lists otherwise.
    #[default]
    Auto,
    /// Always sorted `Vec<Tid>` lists (the classic Eclat layout).
    Tidset,
    /// Always packed `u64` bitmap rows.
    Bitset,
}

/// The Eclat miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct EclatMiner {
    /// Switch to diffsets below the first level (dEclat).
    pub use_diffsets: bool,
    /// TID-set representation policy.
    pub repr: TidRepr,
}

impl EclatMiner {
    /// The dEclat variant.
    pub fn with_diffsets() -> Self {
        EclatMiner {
            use_diffsets: true,
            ..Default::default()
        }
    }

    /// The same miner pinned to a TID representation.
    pub fn with_repr(mut self, repr: TidRepr) -> Self {
        self.repr = repr;
        self
    }
}

/// One member of an equivalence class over sorted TID lists: the extending
/// item, its TID-list or diffset, and its exact support.
#[derive(Debug, Clone)]
struct Member {
    item: Item,
    /// TID set (`diffset == false`) or diffset against the class prefix.
    tids: Vec<Tid>,
    support: Support,
}

/// One member of an equivalence class over bitmap rows.
#[derive(Debug, Clone)]
struct BitMember {
    item: Item,
    /// Bitmap of the TID set or diffset, `ceil(n/64)` words.
    words: Vec<u64>,
    support: Support,
}

/// Free-list recycling pool for the recursion's intermediate buffers.
/// Candidates that fail the support test hand their buffer straight back;
/// surviving members return theirs when their class has been fully
/// extended — so the whole depth-first walk touches a bounded set of
/// allocations instead of one `Vec` per candidate pair.
#[derive(Debug, Default)]
struct FreeList<T> {
    free: Vec<Vec<T>>,
}

impl<T> FreeList<T> {
    fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    fn put(&mut self, mut v: Vec<T>) {
        v.clear();
        self.free.push(v);
    }
}

impl Miner for EclatMiner {
    fn name(&self) -> &'static str {
        if self.use_diffsets {
            "declat"
        } else {
            "eclat"
        }
    }

    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        assert!(min_support >= 1, "minimum support must be at least 1");
        let mut result = MiningResult::builder(min_support, transactions.len() as u64);
        let db = TransactionDb::from_sorted(transactions.to_vec());
        let vertical = VerticalDb::from_horizontal(&db);

        // Frequent items with their tidsets, ordered by ascending support
        // (the standard Eclat ordering: small classes first keeps
        // intermediate sets small).
        let mut frequent: Vec<(Item, &[Tid])> = vertical
            .columns()
            .filter(|(_, tids)| tids.len() as Support >= min_support)
            .collect();
        frequent.sort_by_key(|&(item, tids)| (tids.len(), item));
        for &(item, tids) in &frequent {
            result.push([item], tids.len() as Support);
        }

        let total_tids: usize = frequent.iter().map(|&(_, t)| t.len()).sum();
        let use_bitmaps = match self.repr {
            TidRepr::Tidset => false,
            TidRepr::Bitset => true,
            TidRepr::Auto => BitsetTidDb::prefer_bitmaps(db.len(), frequent.len(), total_tids),
        };

        let mut prefix: Vec<Item> = Vec::new();
        if use_bitmaps {
            let words_per_row = db.len().div_ceil(64);
            let root: Vec<BitMember> = frequent
                .iter()
                .map(|&(item, tids)| {
                    let mut words = vec![0u64; words_per_row];
                    for &t in tids {
                        words[t as usize >> 6] |= 1u64 << (t & 63);
                    }
                    BitMember {
                        item,
                        words,
                        support: tids.len() as Support,
                    }
                })
                .collect();
            let mut pool = FreeList::default();
            // The root level always holds tidsets; diffsets begin one
            // level in.
            self.extend_class_bits(
                &root,
                false,
                min_support,
                &mut prefix,
                &mut pool,
                &mut result,
            );
        } else {
            let root: Vec<Member> = frequent
                .iter()
                .map(|&(item, tids)| Member {
                    item,
                    tids: tids.to_vec(),
                    support: tids.len() as Support,
                })
                .collect();
            let mut pool = FreeList::default();
            self.extend_class_tids(
                &root,
                false,
                min_support,
                &mut prefix,
                &mut pool,
                &mut result,
            );
        }
        result.finish()
    }
}

impl EclatMiner {
    /// Recursively extends an equivalence class over sorted TID lists.
    /// `diffset_mode` says how the *members'* tid vectors are to be
    /// interpreted.
    fn extend_class_tids(
        &self,
        class: &[Member],
        diffset_mode: bool,
        min_support: Support,
        prefix: &mut Vec<Item>,
        pool: &mut FreeList<Tid>,
        result: &mut ResultBuilder,
    ) {
        for i in 0..class.len() {
            let a = &class[i];
            prefix.push(a.item);
            let mut child: Vec<Member> = Vec::new();
            for b in &class[i + 1..] {
                let mut tids = pool.take();
                let support = if self.use_diffsets {
                    if diffset_mode {
                        // d(Pab) = d(Pb) \ d(Pa); support = sup(Pa) − |d|.
                        VerticalDb::difference_into(&b.tids, &a.tids, &mut tids);
                    } else {
                        // Transition level: members hold tidsets;
                        // d(ab) = t(a) \ t(b); support = sup(a) − |d|.
                        VerticalDb::difference_into(&a.tids, &b.tids, &mut tids);
                    }
                    a.support - tids.len() as Support
                } else {
                    VerticalDb::intersect_into(&a.tids, &b.tids, &mut tids);
                    tids.len() as Support
                };
                if support >= min_support {
                    result.push(prefix.iter().copied().chain([b.item]), support);
                    child.push(Member {
                        item: b.item,
                        tids,
                        support,
                    });
                } else {
                    pool.put(tids);
                }
            }
            if !child.is_empty() {
                self.extend_class_tids(
                    &child,
                    self.use_diffsets,
                    min_support,
                    prefix,
                    pool,
                    result,
                );
            }
            for m in child {
                pool.put(m.tids);
            }
            prefix.pop();
        }
    }

    /// Recursively extends an equivalence class over bitmap rows. The
    /// joins are kernel calls: `AND`+popcount for tidsets,
    /// `AND NOT`+popcount for diffsets.
    fn extend_class_bits(
        &self,
        class: &[BitMember],
        diffset_mode: bool,
        min_support: Support,
        prefix: &mut Vec<Item>,
        pool: &mut FreeList<u64>,
        result: &mut ResultBuilder,
    ) {
        for i in 0..class.len() {
            let a = &class[i];
            prefix.push(a.item);
            let mut child: Vec<BitMember> = Vec::new();
            for b in &class[i + 1..] {
                let mut words = pool.take();
                let support = if self.use_diffsets {
                    let d = if diffset_mode {
                        // d(Pab) = d(Pb) \ d(Pa).
                        plt_simd::andnot_into(&b.words, &a.words, &mut words)
                    } else {
                        // Transition level: d(ab) = t(a) \ t(b).
                        plt_simd::andnot_into(&a.words, &b.words, &mut words)
                    };
                    a.support - d
                } else {
                    plt_simd::and_into(&a.words, &b.words, &mut words)
                };
                if support >= min_support {
                    result.push(prefix.iter().copied().chain([b.item]), support);
                    child.push(BitMember {
                        item: b.item,
                        words,
                        support,
                    });
                } else {
                    pool.put(words);
                }
            }
            if !child.is_empty() {
                self.extend_class_bits(
                    &child,
                    self.use_diffsets,
                    min_support,
                    prefix,
                    pool,
                    result,
                );
            }
            for m in child {
                pool.put(m.words);
            }
            prefix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_core::miner::BruteForceMiner;
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

    fn all_variants() -> Vec<EclatMiner> {
        let mut v = Vec::new();
        for use_diffsets in [false, true] {
            for repr in [TidRepr::Auto, TidRepr::Tidset, TidRepr::Bitset] {
                v.push(EclatMiner { use_diffsets, repr });
            }
        }
        v
    }

    #[test]
    fn tidset_variant_matches_brute_force() {
        let expect = BruteForceMiner.mine(&table1(), 2);
        let got = EclatMiner::default().mine(&table1(), 2);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn diffset_variant_matches_brute_force() {
        let expect = BruteForceMiner.mine(&table1(), 2);
        let got = EclatMiner::with_diffsets().mine(&table1(), 2);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn bitset_variants_match_brute_force() {
        let expect = BruteForceMiner.mine(&table1(), 2);
        for miner in all_variants() {
            let got = miner.mine(&table1(), 2);
            assert_eq!(got.sorted(), expect.sorted(), "{miner:?}");
        }
    }

    #[test]
    fn diffsets_and_tidsets_agree_at_min_support_one() {
        let a = EclatMiner::default().mine(&table1(), 1);
        let b = EclatMiner::with_diffsets().mine(&table1(), 1);
        assert_eq!(a.sorted(), b.sorted());
    }

    #[test]
    fn empty_and_infrequent() {
        for miner in all_variants() {
            assert!(miner.mine(&[], 1).is_empty(), "{miner:?}");
            assert!(miner.mine(&table1(), 10).is_empty(), "{miner:?}");
        }
    }

    #[test]
    fn dense_db_deep_lattice() {
        // Dense enough that Auto picks bitmaps: 4 items over 5
        // transactions with every row fully set.
        let db = vec![vec![1, 2, 3, 4]; 5];
        for miner in all_variants() {
            let r = miner.mine(&db, 3);
            assert_eq!(r.len(), 15, "{miner:?}");
            assert_eq!(r.support(&[1, 2, 3, 4]), Some(5), "{miner:?}");
        }
    }

    #[test]
    fn bitmap_joins_are_counted() {
        let before = plt_simd::KernelStats::snapshot_thread();
        EclatMiner::default()
            .with_repr(TidRepr::Bitset)
            .mine(&table1(), 2);
        let delta = plt_simd::KernelStats::snapshot_thread().since(&before);
        assert!(delta.bitmap_intersections > 0, "{delta:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every Eclat variant (tidset/diffset × representation) agrees
        /// with brute force on random databases.
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
            for miner in all_variants() {
                let got = miner.mine(&db, min_support);
                prop_assert_eq!(got.sorted(), expect.sorted(), "{:?}", miner);
            }
        }
    }
}
