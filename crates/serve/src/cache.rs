//! Epoch-stamped LRU cache of query results with dirty-set-aware survival.
//!
//! The paper observes that weight updates arrive in periodic batches
//! (Section 6.2), so between two epochs the answer to a repeated
//! `(source, target, k)` request is bit-identical, and it stays exact across a
//! publish that dirties none of the subgraphs it depends on. Entries are
//! therefore stamped with the epoch they are exact for, and each carries the
//! [`QueryTrace`] of its answer: the set of subgraphs the answer depended on
//! (level-one lookups plus the skeleton survival sweep).
//! [`ResultCache::retain_for_publish`] evicts the entries whose trace
//! intersects the batch's dirty set and *re-stamps* the rest to the new epoch,
//! so under steady small-batch churn the hit rate tracks the locality of the
//! updates instead of collapsing to zero at every publish — the read-path
//! counterpart of maintenance cost scaling with what changed.
//!
//! The implementation is a classic O(1) LRU: a `HashMap` from key to a slot in
//! a slab of doubly linked entries, with the most recently used entry at the
//! head of the list. A full cache evicts the tail.

use ksp_algo::Path;
use ksp_core::kspdg::QueryTrace;
use ksp_graph::{SubgraphSet, VertexId};
use std::collections::HashMap;

/// Cache key: the full query identity. The epoch an entry is exact for is
/// stored *in* the entry (and advanced by survival), not in the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Query source vertex.
    pub source: VertexId,
    /// Query target vertex.
    pub target: VertexId,
    /// Number of paths requested.
    pub k: usize,
}

/// What [`ResultCache::retain_for_publish`] did to the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheRetention {
    /// Entries whose trace was disjoint from the dirty set: re-stamped to the
    /// new epoch and still servable.
    pub retained: usize,
    /// Entries evicted because their trace intersected the dirty set, their
    /// trace was incomplete, or they were stamped older than the previous
    /// epoch.
    pub evicted: usize,
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry {
    key: CacheKey,
    value: Vec<Path>,
    /// The epoch the cached answer is exact for.
    epoch: u64,
    /// The answer's subgraph dependency set.
    trace: SubgraphSet,
    /// Whether `trace` certifies the answer (see [`QueryTrace::complete`]);
    /// uncertified entries never survive a publish.
    complete: bool,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map from [`CacheKey`] to the k shortest paths.
#[derive(Debug)]
pub struct ResultCache {
    map: HashMap<CacheKey, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl ResultCache {
    /// Creates a cache that holds at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        ResultCache {
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, returning the paths only if the entry is exact for
    /// `epoch`; a hit marks the entry as most recently used. A stale entry
    /// (one that did not survive into `epoch`) is left in place to be
    /// overwritten by the recomputed answer or aged out by LRU churn.
    pub fn get(&mut self, key: &CacheKey, epoch: u64) -> Option<&[Path]> {
        let slot = *self.map.get(key)?;
        if self.slab[slot].epoch != epoch {
            return None;
        }
        self.detach(slot);
        self.attach_front(slot);
        Some(&self.slab[slot].value)
    }

    /// Inserts or replaces the entry for `key` with an answer exact for
    /// `epoch` carrying dependency set `trace`, as the most recently used
    /// entry. A full cache first evicts its least recently used entry.
    pub fn insert(&mut self, key: CacheKey, epoch: u64, trace: QueryTrace, value: Vec<Path>) {
        if let Some(&slot) = self.map.get(&key) {
            let entry = &mut self.slab[slot];
            entry.value = value;
            entry.epoch = epoch;
            entry.complete = trace.complete;
            entry.trace = trace.subgraphs;
            self.detach(slot);
            self.attach_front(slot);
            return;
        }
        if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
        }
        let entry = Entry {
            key,
            value,
            epoch,
            complete: trace.complete,
            trace: trace.subgraphs,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.attach_front(slot);
    }

    /// Applies one epoch publish (`prev_epoch` → `new_epoch`, dirtying
    /// `dirty`) to the cache. An entry stamped `new_epoch` (inserted by a
    /// worker that loaded the new snapshot before this walk ran) is left
    /// alone. An entry stamped `prev_epoch` whose trace is complete and
    /// disjoint from `dirty` is re-stamped to `new_epoch`. Every other entry
    /// is evicted, including one stamped older than `prev_epoch` (a worker
    /// computed it against an old snapshot and inserted it after further
    /// publishes): the dirty sets of the publishes it missed are not kept.
    pub fn retain_for_publish(
        &mut self,
        prev_epoch: u64,
        new_epoch: u64,
        dirty: &SubgraphSet,
    ) -> CacheRetention {
        let mut outcome = CacheRetention::default();
        let mut evict: Vec<usize> = Vec::new();
        for &slot in self.map.values() {
            let entry = &mut self.slab[slot];
            if entry.epoch == new_epoch {
                continue;
            }
            if entry.epoch == prev_epoch && entry.complete && !entry.trace.intersects(dirty) {
                entry.epoch = new_epoch;
                outcome.retained += 1;
            } else {
                evict.push(slot);
            }
        }
        for slot in evict {
            self.detach(slot);
            self.map.remove(&self.slab[slot].key);
            self.slab[slot].value = Vec::new();
            self.free.push(slot);
            outcome.evicted += 1;
        }
        outcome
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slab[slot].prev = NIL;
        self.slab[slot].next = NIL;
    }

    fn attach_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_graph::{SubgraphId, Weight};

    fn key(s: u32, t: u32, k: usize) -> CacheKey {
        CacheKey { source: VertexId(s), target: VertexId(t), k }
    }

    fn path(len: f64) -> Vec<Path> {
        vec![Path::new(vec![VertexId(0), VertexId(1)], Weight::new(len))]
    }

    fn trace(ids: &[u32]) -> QueryTrace {
        QueryTrace { subgraphs: ids.iter().map(|&i| SubgraphId(i)).collect(), complete: true }
    }

    fn dirty(ids: &[u32]) -> SubgraphSet {
        ids.iter().map(|&i| SubgraphId(i)).collect()
    }

    #[test]
    fn get_returns_inserted_value_for_matching_epoch() {
        let mut cache = ResultCache::new(4);
        cache.insert(key(0, 1, 2), 0, trace(&[1]), path(3.0));
        let hit = cache.get(&key(0, 1, 2), 0).expect("hit");
        assert_eq!(hit.len(), 1);
        assert!(hit[0].distance().approx_eq(Weight::new(3.0)));
        assert!(cache.get(&key(0, 1, 2), 1).is_none(), "different epoch must miss");
        assert!(cache.get(&key(0, 1, 3), 0).is_none(), "different k must miss");
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = ResultCache::new(2);
        cache.insert(key(0, 1, 1), 0, trace(&[]), path(1.0));
        cache.insert(key(0, 2, 1), 0, trace(&[]), path(2.0));
        assert!(cache.get(&key(0, 1, 1), 0).is_some()); // 0->1 now most recent
        cache.insert(key(0, 3, 1), 0, trace(&[]), path(3.0)); // evicts 0->2
        assert!(cache.get(&key(0, 2, 1), 0).is_none());
        assert!(cache.get(&key(0, 1, 1), 0).is_some());
        assert!(cache.get(&key(0, 3, 1), 0).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_replaces_value_and_epoch_without_growth() {
        let mut cache = ResultCache::new(2);
        cache.insert(key(0, 1, 1), 0, trace(&[1]), path(1.0));
        cache.insert(key(0, 1, 1), 3, trace(&[2]), path(9.0));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(0, 1, 1), 0).is_none(), "old epoch is gone");
        let hit = cache.get(&key(0, 1, 1), 3).unwrap();
        assert!(hit[0].distance().approx_eq(Weight::new(9.0)));
    }

    #[test]
    fn dirty_trace_intersection_always_evicts() {
        // The invalidation contract: an entry whose trace intersects the
        // publish's dirty set must never survive, no matter how it overlaps.
        for overlap in [&[3u32][..], &[3, 9], &[0, 3, 200]] {
            let mut cache = ResultCache::new(4);
            cache.insert(key(0, 1, 2), 0, trace(&[3, 7]), path(1.0));
            let outcome = cache.retain_for_publish(0, 1, &dirty(overlap));
            assert_eq!(outcome, CacheRetention { evicted: 1, ..CacheRetention::default() });
            assert!(cache.get(&key(0, 1, 2), 1).is_none(), "dirty entry served after publish");
            assert!(cache.is_empty());
        }
    }

    #[test]
    fn disjoint_trace_survives_and_is_restamped() {
        let mut cache = ResultCache::new(4);
        cache.insert(key(0, 1, 2), 0, trace(&[3, 7]), path(1.0));
        cache.insert(key(0, 2, 2), 0, trace(&[5]), path(2.0));
        let outcome = cache.retain_for_publish(0, 1, &dirty(&[5, 8]));
        assert_eq!(outcome, CacheRetention { retained: 1, evicted: 1 });
        assert!(cache.get(&key(0, 1, 2), 1).is_some(), "disjoint entry must survive");
        assert!(cache.get(&key(0, 1, 2), 0).is_none(), "survivor now carries the new epoch");
        assert!(cache.get(&key(0, 2, 2), 1).is_none(), "dirtied entry must be gone");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn incomplete_traces_and_uncovered_laggards_never_survive() {
        let mut cache = ResultCache::new(4);
        // Incomplete trace (iteration-capped answer): disjoint but uncertified.
        cache.insert(
            key(0, 1, 2),
            0,
            QueryTrace { subgraphs: dirty(&[1]), complete: false },
            path(1.0),
        );
        // An entry that sleeps through a publish: the intervening dirty set
        // is unknown, so it must not be re-stamped even with a disjoint trace.
        cache.insert(key(0, 2, 2), 0, trace(&[2]), path(2.0));
        let first = cache.retain_for_publish(0, 1, &dirty(&[9]));
        assert_eq!(first.retained, 1, "only the complete entry survives epoch 1");
        // Simulate the gap: entry 0->2 now claims epoch 1; hand-publish
        // epoch 2 -> 3 so epoch 2's dirty set is never seen.
        let second = cache.retain_for_publish(2, 3, &dirty(&[9]));
        assert_eq!(second.retained, 0);
        assert_eq!(second.evicted, 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn laggard_dies_when_any_covered_dirty_set_intersects() {
        let mut cache = ResultCache::new(4);
        cache.retain_for_publish(0, 1, &dirty(&[5]));
        cache.retain_for_publish(1, 2, &dirty(&[6]));
        // Trace hits epoch 2's dirty set — an update it slept through touched
        // a subgraph it depends on, so the cached answer may be wrong.
        cache.insert(key(0, 1, 2), 0, trace(&[6]), path(1.0));
        let outcome = cache.retain_for_publish(2, 3, &dirty(&[7]));
        assert_eq!(outcome.evicted, 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn entries_already_at_the_new_epoch_are_untouched() {
        let mut cache = ResultCache::new(4);
        // A worker that loaded the new snapshot inserted before the publish
        // walk: the walk must keep it as-is, dirty trace or not.
        cache.insert(key(0, 1, 2), 1, trace(&[3]), path(1.0));
        let outcome = cache.retain_for_publish(0, 1, &dirty(&[3]));
        assert_eq!(outcome, CacheRetention::default());
        assert!(cache.get(&key(0, 1, 2), 1).is_some());
    }

    #[test]
    fn survival_chains_across_many_publishes() {
        let mut cache = ResultCache::new(4);
        cache.insert(key(0, 1, 2), 0, trace(&[3]), path(1.0));
        for epoch in 0..50u64 {
            let outcome = cache.retain_for_publish(epoch, epoch + 1, &dirty(&[4]));
            assert_eq!(outcome.retained, 1, "entry must survive publish {epoch}");
        }
        assert!(cache.get(&key(0, 1, 2), 50).is_some());
    }

    #[test]
    fn laggard_dies_even_when_every_missed_dirty_set_is_disjoint() {
        let mut cache = ResultCache::new(4);
        cache.retain_for_publish(0, 1, &dirty(&[5]));
        cache.retain_for_publish(1, 2, &dirty(&[6]));
        // A worker that computed against the epoch-0 snapshot inserts only
        // now, two publishes late. Its trace misses every dirty set, but the
        // cache keeps none of them, so the next publish must not re-stamp it.
        cache.insert(key(0, 1, 2), 0, trace(&[3]), path(1.0));
        let outcome = cache.retain_for_publish(2, 3, &dirty(&[7]));
        assert_eq!((outcome.retained, outcome.evicted), (0, 1));
        assert!(cache.get(&key(0, 1, 2), 3).is_none(), "a laggard never serves a later epoch");
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_eviction_takes_the_tail_over_a_wide_trace() {
        // Oldest first: a narrow-trace entry at the tail, a 64-subgraph trace
        // just above it. The victim of a full cache is the least recently
        // used entry, not the one with the widest trace.
        let mut cache = ResultCache::new(3);
        cache.insert(key(0, 1, 1), 0, trace(&[1]), path(1.0));
        cache.insert(key(0, 2, 1), 0, trace(&(0..64).collect::<Vec<_>>()), path(2.0));
        cache.insert(key(0, 3, 1), 0, trace(&[2]), path(3.0));
        cache.insert(key(0, 4, 1), 0, trace(&[3]), path(4.0));
        assert!(cache.get(&key(0, 1, 1), 0).is_none(), "the tail was the victim");
        assert!(cache.get(&key(0, 2, 1), 0).is_some(), "the wide trace stays");
        assert!(cache.get(&key(0, 3, 1), 0).is_some());
        assert!(cache.get(&key(0, 4, 1), 0).is_some());
        // The lookups above made the wide trace the least recently used.
        cache.insert(key(0, 5, 1), 0, trace(&[4]), path(5.0));
        assert!(cache.get(&key(0, 2, 1), 0).is_none());
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn capacity_eviction_takes_the_tail_over_an_incomplete_trace() {
        // A complete 32-subgraph trace at the tail, an incomplete trace above
        // it: the tail is the victim even though the other entry cannot
        // survive a publish.
        let mut cache = ResultCache::new(2);
        cache.insert(key(0, 1, 1), 0, trace(&(0..32).collect::<Vec<_>>()), path(1.0));
        cache.insert(
            key(0, 2, 1),
            0,
            QueryTrace { subgraphs: dirty(&[5]), complete: false },
            path(2.0),
        );
        cache.insert(key(0, 3, 1), 0, trace(&[9]), path(3.0));
        assert!(cache.get(&key(0, 1, 1), 0).is_none(), "the tail was the victim");
        assert!(cache.get(&key(0, 2, 1), 0).is_some(), "the incomplete trace stays");
        assert!(cache.get(&key(0, 3, 1), 0).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn equal_weights_degenerate_to_plain_lru() {
        // Traces of equal size: the full cache evicts its tail.
        let mut cache = ResultCache::new(2);
        cache.insert(key(0, 1, 1), 0, trace(&[1]), path(1.0));
        cache.insert(key(0, 2, 1), 0, trace(&[2]), path(2.0));
        cache.insert(key(0, 3, 1), 0, trace(&[3]), path(3.0));
        assert!(cache.get(&key(0, 1, 1), 0).is_none(), "tail evicted on equal weights");
        assert!(cache.get(&key(0, 2, 1), 0).is_some());
        assert!(cache.get(&key(0, 3, 1), 0).is_some());
    }

    #[test]
    fn heavy_churn_keeps_list_consistent() {
        let mut cache = ResultCache::new(8);
        for round in 0u64..200 {
            for t in 0..16u32 {
                cache.insert(key(t, t + 1, 1), round % 3, trace(&[t % 5]), path(t as f64));
                let _ = cache.get(&key(t / 2, t / 2 + 1, 1), round % 3);
            }
            if round % 7 == 0 {
                cache.retain_for_publish(round % 3, round % 3 + 1, &dirty(&[round as u32 % 5]));
            }
        }
        assert_eq!(cache.len(), 8);
    }
}
