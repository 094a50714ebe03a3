//! Sharded LRU cache for rendered responses.
//!
//! Read endpoints are deterministic functions of (snapshot generation,
//! stale flag, request), so the engine caches the rendered JSON string
//! keyed by the canonical request text and tagged with the `(generation,
//! stale)` pair it was rendered from; a lookup under any other tag is a
//! miss, so a reply that lands after a publish or a `mark_stale` cleared
//! the cache can never be served under the newer state. The map is split into shards, each behind its
//! own mutex, so concurrent readers on different shards never contend;
//! within a shard, recency is a monotone tick and eviction removes the
//! smallest tick (an `O(shard)` scan — shards are small by
//! construction, `capacity / shards` entries).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What a cached reply was rendered from: `(generation, stale)`.
pub type Tag = (u64, bool);

/// A sharded least-recently-used string cache.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    tick: AtomicU64,
}

#[derive(Debug, Default)]
struct Shard {
    /// key → (recency tick, tag, rendered reply).
    entries: HashMap<String, (u64, Tag, String)>,
}

impl ShardedCache {
    /// A cache with `shards` shards of `capacity / shards` entries each
    /// (at least one per shard). `shards` must be non-zero.
    pub fn new(capacity: usize, shards: usize) -> ShardedCache {
        assert!(shards > 0, "cache needs at least one shard");
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard: (capacity / shards).max(1),
            tick: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        // FNV-1a: stable across runs (unlike `RandomState`), cheap, and
        // good enough to spread protocol strings.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in key.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Fetches the reply cached under `tag` and refreshes its recency.
    /// An entry rendered under another tag is a miss.
    pub fn get(&self, key: &str, tag: Tag) -> Option<String> {
        let mut shard = self.shard(key).lock().unwrap();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        match shard.entries.get_mut(key)? {
            (stamp, t, value) if *t == tag => {
                *stamp = tick;
                Some(value.clone())
            }
            _ => None,
        }
    }

    /// Inserts a reply rendered under `tag`, evicting the
    /// least-recently-used entry of the target shard when it is full.
    pub fn put(&self, key: String, tag: Tag, value: String) {
        let mut shard = self.shard(&key).lock().unwrap();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        if shard.entries.len() >= self.per_shard && !shard.entries.contains_key(&key) {
            if let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&oldest);
            }
        }
        shard.entries.insert(key, (tick, tag, value));
    }

    /// Drops every entry — called when a new snapshot is published or
    /// the serving state changes, since cached responses embed both.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().entries.clear();
        }
    }

    /// Entries currently held, across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().entries.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_round_trip() {
        let cache = ShardedCache::new(64, 8);
        assert_eq!(cache.get("a", (1, false)), None);
        cache.put("a".into(), (1, false), "1".into());
        assert_eq!(cache.get("a", (1, false)).as_deref(), Some("1"));
        cache.put("a".into(), (1, false), "2".into());
        assert_eq!(cache.get("a", (1, false)).as_deref(), Some("2"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_within_shard() {
        // One shard of capacity 2 makes eviction order observable.
        let cache = ShardedCache::new(2, 1);
        cache.put("a".into(), (1, false), "1".into());
        cache.put("b".into(), (1, false), "2".into());
        cache.get("a", (1, false)); // refresh a; b is now LRU
        cache.put("c".into(), (1, false), "3".into());
        assert_eq!(cache.get("a", (1, false)).as_deref(), Some("1"));
        assert_eq!(cache.get("b", (1, false)), None);
        assert_eq!(cache.get("c", (1, false)).as_deref(), Some("3"));
    }

    #[test]
    fn eviction_follows_exact_access_order() {
        // Fill a single shard, touch entries in a scrambled order, then
        // overflow one at a time: victims must fall out precisely in
        // last-touch order.
        let cache = ShardedCache::new(4, 1);
        for k in ["a", "b", "c", "d"] {
            cache.put(k.into(), (1, false), k.to_uppercase());
        }
        // Recency (oldest → newest) becomes: b, d, a, c.
        cache.get("b", (1, false));
        cache.get("d", (1, false));
        cache.get("a", (1, false));
        cache.get("c", (1, false));

        cache.put("e".into(), (1, false), "E".into());
        assert_eq!(
            cache.get("b", (1, false)),
            None,
            "b was least recently touched"
        );
        cache.put("f".into(), (1, false), "F".into());
        assert_eq!(cache.get("d", (1, false)), None, "then d");
        // a and c survive, plus the two newcomers.
        assert_eq!(cache.get("a", (1, false)).as_deref(), Some("A"));
        assert_eq!(cache.get("c", (1, false)).as_deref(), Some("C"));
        assert_eq!(cache.get("e", (1, false)).as_deref(), Some("E"));
        assert_eq!(cache.get("f", (1, false)).as_deref(), Some("F"));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn overwriting_a_present_key_never_evicts() {
        let cache = ShardedCache::new(2, 1);
        cache.put("a".into(), (1, false), "1".into());
        cache.put("b".into(), (1, false), "2".into());
        // Shard is full, but "a" is present: replace in place.
        cache.put("a".into(), (1, false), "3".into());
        assert_eq!(cache.get("a", (1, false)).as_deref(), Some("3"));
        assert_eq!(cache.get("b", (1, false)).as_deref(), Some("2"));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn put_refreshes_recency_like_get() {
        let cache = ShardedCache::new(2, 1);
        cache.put("a".into(), (1, false), "1".into());
        cache.put("b".into(), (1, false), "2".into());
        cache.put("a".into(), (1, false), "1b".into()); // a is now the newest
        cache.put("c".into(), (1, false), "3".into());
        assert_eq!(
            cache.get("b", (1, false)),
            None,
            "b was LRU after a's re-put"
        );
        assert_eq!(cache.get("a", (1, false)).as_deref(), Some("1b"));
    }

    #[test]
    fn an_entry_from_another_generation_is_a_miss() {
        let cache = ShardedCache::new(64, 8);
        cache.put("a".into(), (1, false), "old".into());
        assert_eq!(cache.get("a", (2, false)), None);
        assert_eq!(cache.get("a", (1, false)).as_deref(), Some("old"));
        // A re-put at the newer generation replaces the stale entry.
        cache.put("a".into(), (2, false), "new".into());
        assert_eq!(cache.get("a", (2, false)).as_deref(), Some("new"));
        assert_eq!(cache.get("a", (1, false)), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn an_entry_rendered_under_another_stale_flag_is_a_miss() {
        let cache = ShardedCache::new(64, 8);
        cache.put("a".into(), (1, false), "fresh".into());
        assert_eq!(cache.get("a", (1, true)), None);
        assert_eq!(cache.get("a", (1, false)).as_deref(), Some("fresh"));
    }

    #[test]
    fn clear_empties_all_shards() {
        let cache = ShardedCache::new(32, 4);
        for i in 0..20 {
            cache.put(format!("k{i}"), (1, false), "v".into());
        }
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(ShardedCache::new(128, 8));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = cache.clone();
                scope.spawn(move || {
                    for i in 0..200 {
                        let key = format!("k{}", (t * 31 + i) % 50);
                        if cache.get(&key, (1, false)).is_none() {
                            cache.put(key, (1, false), format!("{i}"));
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 128);
    }
}
