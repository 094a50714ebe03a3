//! The Apriori hash tree (Agrawal & Srikant, VLDB'94 §2.1.2).
//!
//! Candidates of a fixed size `k` are stored in a tree whose interior
//! nodes hash one item per depth into a fixed fan-out; leaves hold small
//! candidate buckets. Counting a transaction walks every hash path its
//! items can take and subset-tests only the candidates in the reached
//! leaves — the data structure that made candidate counting tractable
//! before pattern growth existed.
//!
//! A leaf can be reached through several item prefixes of one transaction;
//! candidates carry the id of the last transaction that counted them so a
//! transaction never double-counts (the classic guard).

use plt_core::item::{sorted_subset, Item, Support};

/// Interior fan-out. Small and fixed: candidates hash by `item % BRANCH`.
const BRANCH: usize = 8;
/// A leaf splits into an interior node when it exceeds this many
/// candidates (and depth still allows hashing another item).
const LEAF_CAP: usize = 16;

#[derive(Debug)]
struct Candidate {
    items: Vec<Item>,
    count: Support,
    /// Guard against double counting: id of the last transaction that
    /// incremented `count`.
    last_tid: u64,
}

#[derive(Debug)]
enum Node {
    Interior(Box<[Node; BRANCH]>),
    Leaf(Vec<Candidate>),
}

impl Node {
    fn empty_leaf() -> Node {
        Node::Leaf(Vec::new())
    }

    fn empty_interior() -> Node {
        Node::Interior(Box::new(std::array::from_fn(|_| Node::empty_leaf())))
    }
}

/// A hash tree over candidates of one size.
#[derive(Debug)]
pub struct HashTree {
    root: Node,
    k: usize,
    len: usize,
}

#[inline]
fn bucket(item: Item) -> usize {
    item as usize % BRANCH
}

impl HashTree {
    /// Builds the tree from `k`-item candidates (each sorted).
    pub fn new(k: usize, candidates: impl IntoIterator<Item = Vec<Item>>) -> HashTree {
        assert!(k >= 1);
        let mut tree = HashTree {
            root: Node::empty_leaf(),
            k,
            len: 0,
        };
        for c in candidates {
            debug_assert_eq!(c.len(), k);
            debug_assert!(c.windows(2).all(|w| w[0] < w[1]));
            tree.insert(c);
        }
        tree
    }

    /// Number of stored candidates.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no candidates are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn insert(&mut self, items: Vec<Item>) {
        let k = self.k;
        let mut node = &mut self.root;
        let mut depth = 0;
        loop {
            match node {
                Node::Interior(buckets) => {
                    let b = bucket(items[depth]);
                    node = &mut buckets[b];
                    depth += 1;
                }
                Node::Leaf(cands) => {
                    cands.push(Candidate {
                        items,
                        count: 0,
                        last_tid: u64::MAX,
                    });
                    self.len += 1;
                    if cands.len() > LEAF_CAP && depth < k {
                        // Split: redistribute candidates one level deeper.
                        let cands = std::mem::take(cands);
                        let mut interior = Node::empty_interior();
                        if let Node::Interior(buckets) = &mut interior {
                            for c in cands {
                                let b = bucket(c.items[depth]);
                                match &mut buckets[b] {
                                    Node::Leaf(l) => l.push(c),
                                    Node::Interior(_) => unreachable!("fresh leaves"),
                                }
                            }
                        }
                        *node = interior;
                    }
                    return;
                }
            }
        }
    }

    /// Counts one transaction (sorted, duplicate-free, already filtered to
    /// frequent items). `tid` must be unique per transaction.
    pub fn count_transaction(&mut self, tid: u64, t: &[Item]) {
        if t.len() < self.k {
            return;
        }
        Self::visit(&mut self.root, tid, t, 0);
    }

    fn visit(node: &mut Node, tid: u64, t: &[Item], start: usize) {
        match node {
            Node::Interior(buckets) => {
                // Try every remaining item as the next hashed element.
                for i in start..t.len() {
                    Self::visit(&mut buckets[bucket(t[i])], tid, t, i + 1);
                }
            }
            Node::Leaf(cands) => {
                for c in cands {
                    if c.last_tid != tid && sorted_subset(&c.items, t) {
                        c.count += 1;
                        c.last_tid = tid;
                    }
                }
            }
        }
    }

    /// Consumes the tree, yielding `(candidate, count)` pairs.
    pub fn into_counts(self) -> Vec<(Vec<Item>, Support)> {
        let mut out = Vec::with_capacity(self.len);
        fn drain(node: Node, out: &mut Vec<(Vec<Item>, Support)>) {
            match node {
                Node::Interior(buckets) => {
                    for b in Vec::from(*buckets) {
                        drain(b, out);
                    }
                }
                Node::Leaf(cands) => {
                    out.extend(cands.into_iter().map(|c| (c.items, c.count)));
                }
            }
        }
        drain(self.root, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_all(
        k: usize,
        candidates: Vec<Vec<Item>>,
        db: &[Vec<Item>],
    ) -> Vec<(Vec<Item>, Support)> {
        let mut tree = HashTree::new(k, candidates);
        for (tid, t) in db.iter().enumerate() {
            tree.count_transaction(tid as u64, t);
        }
        let mut counts = tree.into_counts();
        counts.sort();
        counts
    }

    #[test]
    fn counts_pairs_exactly() {
        let db = vec![vec![1, 2, 3], vec![1, 2], vec![2, 3], vec![1, 3]];
        let candidates = vec![vec![1, 2], vec![1, 3], vec![2, 3]];
        let counts = count_all(2, candidates, &db);
        assert_eq!(
            counts,
            vec![(vec![1, 2], 2), (vec![1, 3], 2), (vec![2, 3], 2),]
        );
    }

    #[test]
    fn no_double_counting_through_multiple_paths() {
        // Transaction with many items reaching the same leaf repeatedly.
        let db = vec![(1u32..=12).collect::<Vec<_>>()];
        let candidates = vec![vec![1, 2, 3], vec![2, 4, 6], vec![10, 11, 12]];
        let counts = count_all(3, candidates, &db);
        assert!(counts.iter().all(|(_, c)| *c == 1), "{counts:?}");
    }

    #[test]
    fn short_transactions_are_skipped() {
        let db = vec![vec![1, 2]];
        let counts = count_all(3, vec![vec![1, 2, 3]], &db);
        assert_eq!(counts[0].1, 0);
    }

    #[test]
    fn splits_scale_to_many_candidates() {
        // 200 pair candidates force interior splits; verify counting stays
        // exact against a brute-force count.
        let items: Vec<Item> = (0..25).collect();
        let mut candidates = Vec::new();
        for i in 0..items.len() {
            for j in i + 1..items.len() {
                candidates.push(vec![items[i], items[j]]);
            }
        }
        let db: Vec<Vec<Item>> = (0..40)
            .map(|t| {
                items
                    .iter()
                    .copied()
                    .filter(|&x| (x as usize + t) % 3 != 0)
                    .collect()
            })
            .collect();
        let counts = count_all(2, candidates.clone(), &db);
        assert_eq!(counts.len(), candidates.len());
        for (cand, count) in counts {
            let expect = db.iter().filter(|t| sorted_subset(&cand, t)).count() as Support;
            assert_eq!(count, expect, "candidate {cand:?}");
        }
    }

    #[test]
    fn empty_tree() {
        let tree = HashTree::new(2, Vec::<Vec<Item>>::new());
        assert!(tree.is_empty());
        assert_eq!(tree.into_counts(), vec![]);
    }
}
