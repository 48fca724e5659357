//! Epoch-stamped LRU cache of query results with dirty-set-aware survival.
//!
//! The paper observes that weight updates arrive in periodic batches
//! (Section 6.2), so between two epochs the answer to a repeated
//! `(source, target, k)` request is bit-identical. Entries are therefore
//! stamped with the epoch they are exact for — but unlike the original
//! wholesale-clear design, an epoch publish no longer empties the cache.
//! Every entry carries the [`QueryTrace`] of its answer: the set of subgraphs
//! the answer depended on (level-one lookups plus the skeleton survival
//! sweep). [`ResultCache::retain_for_publish`] evicts exactly the entries
//! whose trace intersects the batch's dirty set and *re-stamps* the rest to
//! the new epoch, so under steady small-batch churn the hit rate tracks the
//! locality of the updates instead of collapsing to zero at every publish —
//! the read-path counterpart of maintenance cost scaling with what changed.
//!
//! The implementation is a classic O(1) LRU: a `HashMap` from key to a slot in
//! a slab of doubly linked entries, with the most recently used entry at the
//! head of the list.

use ksp_algo::Path;
use ksp_core::kspdg::QueryTrace;
use ksp_graph::{SubgraphSet, VertexId};
use std::collections::{HashMap, VecDeque};

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
    /// Entries evicted because their trace intersected a dirty set, their
    /// trace was incomplete, or they lagged further behind than the dirty-set
    /// ring could certify.
    pub evicted: usize,
    /// Entries stamped *older* than the previous epoch — a worker raced a
    /// publish (or several) and inserted an answer computed against an old
    /// snapshot — rescued because the ring of recent dirty sets covered every
    /// intervening publish and the trace was disjoint from all of them.
    /// Disjoint from `retained`, which counts only one-epoch survivors.
    pub ring_retained: usize,
    /// Capacity (insert-time) evictions since the previous publish walk in
    /// which the trace-size weight overrode plain LRU order — the victim was
    /// *not* the least recently used entry, because a nearby entry's huge (or
    /// incomplete) trace made it the better sacrifice. Drained into the
    /// outcome by [`ResultCache::retain_for_publish`].
    pub weighted_evicted: usize,
}

const NIL: usize = usize::MAX;

/// Length of the dirty-set ring. Deep enough to bridge the handful of
/// publishes a slow query can race against, small enough that the
/// per-publish clone of the dirty set stays negligible next to the retention
/// walk itself.
const HISTORY_DEPTH: usize = 8;

/// How many entries from the LRU tail the weighted victim scan considers.
/// Bounded so an insert stays O(1); large enough that a huge-trace entry
/// sitting a few slots off the tail is still sacrificed before a small
/// survivable one.
const EVICTION_SCAN: usize = 8;

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
    /// Capacity evictions where the trace-size weight picked a victim other
    /// than the plain-LRU tail; drained by [`ResultCache::retain_for_publish`].
    weighted_evictions: usize,
    /// Ring of the last [`HISTORY_DEPTH`] publishes, oldest first:
    /// `(epoch, dirty)` records that the publish which produced `epoch`
    /// dirtied exactly `dirty`. Lets an entry lagging several epochs survive
    /// when the ring certifies every publish it slept through.
    history: VecDeque<(u64, SubgraphSet)>,
}

impl ResultCache {
    /// Creates a cache that holds at most `capacity` entries and remembers
    /// the dirty sets of the last eight publishes for multi-epoch survival.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        ResultCache {
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            weighted_evictions: 0,
            history: VecDeque::with_capacity(HISTORY_DEPTH),
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
    /// `epoch` carrying dependency set `trace`, evicting a victim if the
    /// cache is full.
    ///
    /// Victim choice is trace-size-weighted LRU: among the `EVICTION_SCAN`
    /// least recently used entries, evict the one with an incomplete trace
    /// (it cannot survive any publish) or, failing that, the largest trace —
    /// a huge dependency set intersects almost any batch's dirty set, so the
    /// entry would die at the next publish anyway, while a small-trace entry
    /// is the one worth keeping alive. Ties fall back to plain LRU order.
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
            let victim = self.weighted_victim();
            debug_assert_ne!(victim, NIL);
            if victim != self.tail {
                self.weighted_evictions += 1;
            }
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
    /// `dirty`) to the cache: entries stamped `prev_epoch` whose trace is
    /// complete and disjoint from `dirty` are re-stamped to `new_epoch`;
    /// entries already stamped `new_epoch` (inserted by a worker that loaded
    /// the new snapshot before this walk ran) are kept untouched.
    ///
    /// Entries stamped *older* than `prev_epoch` — a worker computed against
    /// an old snapshot and inserted after further publishes raced past it —
    /// get a second chance through the dirty-set ring: if the ring still
    /// holds every publish in `(entry_epoch, new_epoch]` and the entry's
    /// trace is disjoint from all of those dirty sets, the answer is provably
    /// still exact and is re-stamped too (counted as
    /// [`CacheRetention::ring_retained`]). A gap in the ring — the laggard
    /// slept through a publish whose dirty set has already been forgotten —
    /// means the union of intervening dirtiness is unknown, so the entry is
    /// evicted.
    pub fn retain_for_publish(
        &mut self,
        prev_epoch: u64,
        new_epoch: u64,
        dirty: &SubgraphSet,
    ) -> CacheRetention {
        if self.history.len() == HISTORY_DEPTH {
            self.history.pop_front();
        }
        self.history.push_back((new_epoch, dirty.clone()));
        let mut outcome = CacheRetention {
            // Hand the insert-time weighted-eviction count to the publish
            // that collects retention totals, then restart the window.
            weighted_evicted: std::mem::take(&mut self.weighted_evictions),
            ..CacheRetention::default()
        };
        let mut evict: Vec<usize> = Vec::new();
        for &slot in self.map.values() {
            let entry = &self.slab[slot];
            if entry.epoch == new_epoch {
                continue;
            }
            if !entry.complete {
                evict.push(slot);
            } else if entry.epoch == prev_epoch && !entry.trace.intersects(dirty) {
                outcome.retained += 1;
            } else if entry.epoch < prev_epoch
                && self.ring_certifies(entry.epoch, new_epoch, &entry.trace)
            {
                outcome.ring_retained += 1;
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
        // Re-stamp survivors after the eviction pass so the map iteration
        // above never observes a half-updated cache.
        for &slot in self.map.values() {
            let entry = &mut self.slab[slot];
            if entry.epoch < new_epoch {
                entry.epoch = new_epoch;
            }
        }
        outcome
    }

    /// Whether the dirty-set ring proves that an entry stamped `entry_epoch`
    /// is still exact at `new_epoch`: the ring must hold an unbroken chain of
    /// publishes for every epoch in `(entry_epoch, new_epoch]`, each with a
    /// dirty set disjoint from `trace`. The current publish has already been
    /// pushed, so the walk runs newest-to-oldest from the ring's tail.
    fn ring_certifies(&self, entry_epoch: u64, new_epoch: u64, trace: &SubgraphSet) -> bool {
        let mut need = new_epoch;
        for (epoch, dirty) in self.history.iter().rev() {
            if *epoch != need || trace.intersects(dirty) {
                return false;
            }
            if need == entry_epoch + 1 {
                return true;
            }
            need -= 1;
        }
        false
    }

    /// Drops every entry. The dirty-set ring is *not* cleared: it records
    /// publish history, which remains true regardless of what the cache
    /// holds, so entries inserted afterwards at older epochs can still be
    /// certified.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.weighted_evictions = 0;
    }

    /// Picks the capacity-eviction victim: walks up to [`EVICTION_SCAN`]
    /// entries from the LRU tail and returns the slot with the highest
    /// sacrifice score `(incomplete trace, trace length, age)`. With equal
    /// weights this degenerates to the plain tail, so the weighted policy is
    /// a strict refinement of LRU, never a replacement.
    fn weighted_victim(&self) -> usize {
        let mut best = self.tail;
        if best == NIL {
            return NIL;
        }
        // Age rank descends from the tail; fold it into the score so ties on
        // (incomplete, trace length) resolve to the oldest candidate.
        let mut best_score = (!self.slab[best].complete, self.slab[best].trace.len(), usize::MAX);
        let mut slot = self.slab[best].prev;
        for age in 1..EVICTION_SCAN {
            if slot == NIL {
                break;
            }
            let entry = &self.slab[slot];
            let score = (!entry.complete, entry.trace.len(), usize::MAX - age);
            if score > best_score {
                best = slot;
                best_score = score;
            }
            slot = entry.prev;
        }
        best
    }

    /// Capacity evictions so far in which the trace-size weight overrode
    /// plain LRU order (the victim was not the tail).
    pub fn weighted_evictions(&self) -> usize {
        self.weighted_evictions
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
    fn clear_empties_the_cache() {
        let mut cache = ResultCache::new(8);
        for t in 1..5 {
            cache.insert(key(0, t, 2), 0, trace(&[t]), path(t as f64));
        }
        assert_eq!(cache.len(), 4);
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get(&key(0, 1, 2), 0).is_none());
        cache.insert(key(0, 1, 2), 1, trace(&[1]), path(1.0));
        assert_eq!(cache.len(), 1);
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
        assert_eq!(
            outcome,
            CacheRetention { retained: 1, evicted: 1, ..CacheRetention::default() }
        );
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
        // An entry that sleeps through a publish the ring never saw: the
        // intervening dirty set is unknown, so it must not be re-stamped
        // even with a disjoint trace.
        cache.insert(key(0, 2, 2), 0, trace(&[2]), path(2.0));
        let first = cache.retain_for_publish(0, 1, &dirty(&[9]));
        assert_eq!(first.retained, 1, "only the complete entry survives epoch 1");
        // Simulate the gap: entry 0->2 now claims epoch 1; hand-publish
        // epoch 2 -> 3 so the ring is missing epoch 2's dirty set.
        let second = cache.retain_for_publish(2, 3, &dirty(&[9]));
        assert_eq!(second.retained, 0);
        assert_eq!(second.ring_retained, 0, "a ring gap must not certify the laggard");
        assert_eq!(second.evicted, 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn laggard_survives_when_the_ring_covers_every_missed_publish() {
        let mut cache = ResultCache::new(4);
        cache.retain_for_publish(0, 1, &dirty(&[5]));
        cache.retain_for_publish(1, 2, &dirty(&[6]));
        // A worker that computed against the epoch-0 snapshot inserts only
        // now — two publishes late. Its trace is disjoint from every dirty
        // set the ring holds, so the next publish can prove it still exact.
        cache.insert(key(0, 1, 2), 0, trace(&[3]), path(1.0));
        let outcome = cache.retain_for_publish(2, 3, &dirty(&[7]));
        assert_eq!(outcome.ring_retained, 1, "ring-covered laggard must be rescued");
        assert_eq!(outcome.retained, 0);
        assert_eq!(outcome.evicted, 0);
        assert!(cache.get(&key(0, 1, 2), 3).is_some(), "rescued entry serves the new epoch");
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
        assert_eq!(outcome.ring_retained, 0);
        assert_eq!(outcome.evicted, 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn ring_forgets_publishes_beyond_its_depth() {
        let mut cache = ResultCache::new(4);
        for epoch in 0..HISTORY_DEPTH as u64 {
            cache.retain_for_publish(epoch, epoch + 1, &dirty(&[5]));
        }
        // Publishing epoch D + 1 pushes epoch 1's dirty set out of the ring.
        // A laggard from epoch 0 needs every dirty set in 1..=D + 1 and so
        // dies; a laggard from epoch 1 needs only 2..=D + 1, still covered.
        let depth = HISTORY_DEPTH as u64;
        cache.insert(key(0, 1, 2), 0, trace(&[3]), path(1.0));
        cache.insert(key(0, 2, 2), 1, trace(&[3]), path(2.0));
        let outcome = cache.retain_for_publish(depth, depth + 1, &dirty(&[7]));
        assert_eq!(outcome.ring_retained, 1, "only the in-window laggard survives");
        assert_eq!(outcome.evicted, 1);
        assert!(cache.get(&key(0, 2, 2), depth + 1).is_some());
        assert!(cache.get(&key(0, 1, 2), depth + 1).is_none());
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
    fn eviction_sacrifices_the_huge_trace_entry_first() {
        // Three entries, oldest first: a small-trace one at the tail, a
        // huge-trace one just above it. Plain LRU would evict the tail; the
        // weighted policy must sacrifice the huge trace instead — it dies to
        // almost any publish anyway — and count the override.
        let mut cache = ResultCache::new(3);
        cache.insert(key(0, 1, 1), 0, trace(&[1]), path(1.0));
        cache.insert(key(0, 2, 1), 0, trace(&(0..64).collect::<Vec<_>>()), path(2.0));
        cache.insert(key(0, 3, 1), 0, trace(&[2]), path(3.0));
        assert_eq!(cache.weighted_evictions(), 0);
        cache.insert(key(0, 4, 1), 0, trace(&[3]), path(4.0));
        assert!(cache.get(&key(0, 2, 1), 0).is_none(), "huge-trace entry was the victim");
        assert!(cache.get(&key(0, 1, 1), 0).is_some(), "small-trace tail survived");
        assert_eq!(cache.weighted_evictions(), 1);
    }

    #[test]
    fn eviction_prefers_incomplete_traces_over_any_size() {
        // An uncertified entry can never survive a publish: it outranks even
        // a larger complete trace as the sacrifice.
        let mut cache = ResultCache::new(2);
        cache.insert(key(0, 1, 1), 0, trace(&(0..32).collect::<Vec<_>>()), path(1.0));
        cache.insert(
            key(0, 2, 1),
            0,
            QueryTrace { subgraphs: dirty(&[5]), complete: false },
            path(2.0),
        );
        cache.insert(key(0, 3, 1), 0, trace(&[9]), path(3.0));
        assert!(cache.get(&key(0, 2, 1), 0).is_none(), "incomplete entry was the victim");
        assert!(cache.get(&key(0, 1, 1), 0).is_some());
        assert_eq!(cache.weighted_evictions(), 1);
    }

    #[test]
    fn equal_weights_degenerate_to_plain_lru() {
        let mut cache = ResultCache::new(2);
        cache.insert(key(0, 1, 1), 0, trace(&[1]), path(1.0));
        cache.insert(key(0, 2, 1), 0, trace(&[2]), path(2.0));
        cache.insert(key(0, 3, 1), 0, trace(&[3]), path(3.0));
        assert!(cache.get(&key(0, 1, 1), 0).is_none(), "tail evicted on equal weights");
        assert_eq!(cache.weighted_evictions(), 0, "no override happened");
    }

    #[test]
    fn retain_for_publish_drains_the_weighted_counter() {
        let mut cache = ResultCache::new(2);
        cache.insert(key(0, 1, 1), 0, trace(&[1]), path(1.0));
        cache.insert(key(0, 2, 1), 0, trace(&(0..64).collect::<Vec<_>>()), path(2.0));
        cache.insert(key(0, 3, 1), 0, trace(&[3]), path(3.0)); // weighted eviction
        let outcome = cache.retain_for_publish(0, 1, &dirty(&[99]));
        assert_eq!(outcome.weighted_evicted, 1, "publish walk collects the window");
        let next = cache.retain_for_publish(1, 2, &dirty(&[99]));
        assert_eq!(next.weighted_evicted, 0, "the window restarted");
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
