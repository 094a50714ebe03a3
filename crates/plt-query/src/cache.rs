//! Generation-aware LRU plan cache.
//!
//! Keys are the **printed normalized AST**
//! ([`Query::cache_key`](crate::ast::Query::cache_key)), so two
//! expressions that differ only in whitespace, keyword case, item order,
//! or commutative AND/OR operand order hit the same entry. Each entry remembers the snapshot
//! generation it was planned against; a lookup under a different
//! generation evicts the entry and reports a miss — snapshot swaps
//! invalidate lazily, with no publish-side hook.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::plan::Plan;

/// Monotonic counters exposed on the `stats` endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Entries dropped because their generation no longer matched.
    pub invalidations: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    plan: Plan,
    generation: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, Entry>,
    clock: u64,
    counters: CacheCounters,
}

/// A thread-safe LRU cache of compiled plans.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (0 disables caching:
    /// every lookup misses and inserts are dropped).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Looks up the plan for `key` under `generation`. A stored plan
    /// from another generation is removed and counted as an
    /// invalidation (and a miss).
    pub fn lookup(&self, key: &str, generation: u64) -> Option<Plan> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let tick = inner.clock;
        match inner.map.get_mut(key) {
            Some(entry) if entry.generation == generation => {
                entry.last_used = tick;
                let plan = entry.plan;
                inner.counters.hits += 1;
                Some(plan)
            }
            Some(_) => {
                inner.map.remove(key);
                inner.counters.invalidations += 1;
                inner.counters.misses += 1;
                None
            }
            None => {
                inner.counters.misses += 1;
                None
            }
        }
    }

    /// Stores a plan, evicting the least-recently-used entry at
    /// capacity.
    pub fn insert(&self, key: String, generation: u64, plan: Plan) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let tick = inner.clock;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                inner.counters.evictions += 1;
            }
        }
        inner.map.insert(
            key,
            Entry {
                plan,
                generation,
                last_used: tick,
            },
        );
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss/eviction/invalidation counters.
    pub fn counters(&self) -> CacheCounters {
        self.inner.lock().unwrap().counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PhysOp;

    fn plan(op: PhysOp, cost: f64) -> Plan {
        Plan { op, cost }
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = PlanCache::new(4);
        assert!(cache.lookup("TOP 5", 1).is_none());
        cache.insert("TOP 5".into(), 1, plan(PhysOp::ExtTraverse, 10.0));
        let got = cache.lookup("TOP 5", 1).unwrap();
        assert_eq!(got.op, PhysOp::ExtTraverse);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn generation_mismatch_invalidates() {
        let cache = PlanCache::new(4);
        cache.insert("TOP 5".into(), 1, plan(PhysOp::ExtTraverse, 10.0));
        // New generation: the stale plan is dropped, not served.
        assert!(cache.lookup("TOP 5", 2).is_none());
        assert_eq!(cache.len(), 0);
        let c = cache.counters();
        assert_eq!(c.invalidations, 1);
        assert_eq!(c.misses, 1);
        // Re-planned under the new generation, it hits again.
        cache.insert("TOP 5".into(), 2, plan(PhysOp::FullScan, 5.0));
        assert!(cache.lookup("TOP 5", 2).is_some());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = PlanCache::new(2);
        cache.insert("a".into(), 1, plan(PhysOp::FullScan, 1.0));
        cache.insert("b".into(), 1, plan(PhysOp::FullScan, 2.0));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.lookup("a", 1).is_some());
        cache.insert("c".into(), 1, plan(PhysOp::FullScan, 3.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("a", 1).is_some());
        assert!(cache.lookup("b", 1).is_none());
        assert!(cache.lookup("c", 1).is_some());
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache = PlanCache::new(2);
        cache.insert("a".into(), 1, plan(PhysOp::FullScan, 1.0));
        cache.insert("b".into(), 1, plan(PhysOp::FullScan, 2.0));
        cache.insert("a".into(), 1, plan(PhysOp::FullScan, 9.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters().evictions, 0);
        assert_eq!(cache.lookup("a", 1).unwrap().cost, 9.0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        cache.insert("a".into(), 1, plan(PhysOp::FullScan, 1.0));
        assert!(cache.lookup("a", 1).is_none());
        assert!(cache.is_empty());
    }
}
