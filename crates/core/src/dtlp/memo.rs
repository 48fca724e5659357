//! What queries learn from one set of weights, kept for the queries after them.
//!
//! Each [`SubgraphIndex`] keeps the partial k shortest paths between pairs of its
//! boundary vertices (see [`crate::kspdg::refine`]), and the [`DtlpIndex`] each
//! target's distances over the skeleton (see [`crate::dtlp::target_row`]). Both are
//! a [`Memo`], and both live by one rule:
//!
//! * **An entry is a function of the holder's weights and its key.** Whichever
//!   query filled it, a reader gets the bits it would have computed. Entries of one
//!   key are prefixes of one computation, so the memo keeps the one that answers
//!   more ([`MemoEntry::reach`]).
//! * **The first query that offers an entry makes the memo.** Build and restore
//!   start without one, so maintenance allocates none.
//! * **A clone shares it,** as it shares the weights: a publish does no work per
//!   entry.
//! * **Maintenance forgets it before it changes a weight** ([`Memo::forget`]),
//!   leaving it to the clones that still hold the old weights. Only the subgraphs a
//!   batch dirtied lose their partials; any batch that updates an edge drops the
//!   target rows.
//! * **It is never persisted, encoded or counted** in the index's memory figures;
//!   [`DtlpIndex::memo_bytes`] estimates both memos (the `ksp_memo_bytes` gauge).
//!
//! Every query and every shard reads a memo behind one lock. Each entry is
//! inserted whole, so a thread that panicked while holding the lock left nothing
//! half-written, and a poisoned lock is used as is. Nothing bounds a memo's size
//! but its keys: a subgraph's ordered boundary pairs, the index's targets.
//!
//! [`SubgraphIndex`]: crate::dtlp::SubgraphIndex
//! [`DtlpIndex`]: crate::dtlp::DtlpIndex
//! [`DtlpIndex::memo_bytes`]: crate::dtlp::DtlpIndex::memo_bytes

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// What a [`Memo`] keeps under one key.
pub(crate) trait MemoEntry {
    /// How much the entry answers: of two entries for one key, the memo keeps the
    /// one that answers more.
    fn reach(&self) -> usize;

    /// An estimate of the bytes the entry holds.
    fn memory_bytes(&self) -> usize;
}

type Entries<K, V> = Mutex<HashMap<K, Arc<V>>>;

/// Entries queries filled on one set of weights, by key; see the module docs.
#[derive(Debug)]
pub(crate) struct Memo<K, V>(OnceLock<Arc<Entries<K, V>>>);

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo(OnceLock::new())
    }
}

impl<K, V> Clone for Memo<K, V> {
    fn clone(&self) -> Self {
        Memo(self.0.clone())
    }
}

/// The entries behind `lock`, poisoned or not.
fn entries<K, V>(lock: &Entries<K, V>) -> MutexGuard<'_, HashMap<K, Arc<V>>> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<K: Eq + Hash, V: MemoEntry> Memo<K, V> {
    /// The entry of `key`, if a query left one.
    pub(crate) fn get(&self, key: &K) -> Option<Arc<V>> {
        entries(self.0.get()?).get(key).cloned()
    }

    /// Keeps `entry` as the entry of `key`, unless the one there reaches as far.
    pub(crate) fn offer(&self, key: K, entry: Arc<V>) {
        let mut entries = entries(self.0.get_or_init(Arc::default));
        let kept = entries.entry(key).or_insert_with(|| Arc::clone(&entry));
        if kept.reach() < entry.reach() {
            *kept = entry;
        }
    }

    /// Lets go of the entries before a weight changes.
    pub(crate) fn forget(&mut self) {
        self.0.take();
    }

    /// An estimate of the bytes the entries hold.
    pub(crate) fn memory_bytes(&self) -> usize {
        let Some(lock) = self.0.get() else { return 0 };
        let slot = std::mem::size_of::<(K, Arc<V>)>();
        entries(lock).values().map(|v| slot + v.memory_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtlp::{DtlpConfig, DtlpIndex, TargetDistances};
    use crate::kspdg::refine::Partials;
    use ksp_algo::SearchArena;
    use ksp_graph::{VertexId, Weight};

    /// Checks the memo rule on two keys and two entries, `small` reaching less far.
    fn check<K: Eq + Hash + Clone, V: MemoEntry>(keys: [K; 2], small: Arc<V>, large: Arc<V>) {
        assert!(small.reach() < large.reach(), "the entries must differ in reach");
        let [key, other] = keys;
        let is = |got: Option<Arc<V>>, want: &Arc<V>| got.is_some_and(|v| Arc::ptr_eq(&v, want));
        let memo = Memo::<K, V>::default();
        for (offered, kept) in [(&small, &small), (&large, &large), (&small, &large)] {
            memo.offer(key.clone(), Arc::clone(offered));
            assert!(is(memo.get(&key), kept), "only a larger offer replaces an entry");
        }
        let one = memo.memory_bytes();
        assert!(one > 0);

        // A clone shares the entries, and what either side offers, until it forgets;
        // forgetting leaves the other side's entries in place.
        let mut clone = memo.clone();
        assert!(is(clone.get(&key), &large));
        clone.offer(other.clone(), Arc::clone(&small));
        assert!(is(memo.get(&other), &small) && memo.memory_bytes() > one);
        clone.forget();
        assert!(clone.get(&key).is_none() && clone.memory_bytes() == 0);
        assert!(is(memo.get(&key), &large) && is(memo.get(&other), &small));

        // A forgotten memo allocates nothing until its next offer, which it keeps.
        assert!(clone.0.get().is_none(), "a read must not make the memo");
        clone.offer(key.clone(), Arc::clone(&small));
        assert!(is(clone.get(&key), &small) && is(memo.get(&key), &large));
    }

    #[test]
    fn both_memos_keep_the_entry_that_answers_more_until_forgotten() {
        let graph = crate::dtlp::index::tests::road_network(300, 7);
        let index = DtlpIndex::build(&graph, DtlpConfig::new(25, 2)).unwrap();

        // Partials of one boundary pair, asked for 1 and for 3 paths.
        let sg = index.subgraph_indexes().iter().find(|sg| sg.num_pairs() > 0).unwrap();
        let (a, b) = (sg.pair(0).a, sg.pair(0).b);
        let partials = |k| {
            let mut arenas = (SearchArena::new(), SearchArena::new());
            let run = Partials::compute(sg.subgraph(), a, b, k, true, &mut arenas.0, &mut arenas.1);
            Arc::new(run.0)
        };
        check([(a, b), (b, a)], partials(1), partials(3));

        // Rows of one target, filled on two cold clones: one as far as a small
        // bound, the other to the end of the search.
        let target = VertexId(150);
        let row = |bound| {
            let cold = index.clone();
            let mut to_target = TargetDistances::new(&cold, target, &mut SearchArena::new());
            to_target.settle_within(Weight::ZERO, bound);
            to_target.offer();
            cold.target_row(target).expect("the search left a row")
        };
        check([target, VertexId(151)], row(Weight::new(1.0)), row(Weight::INFINITY));
    }
}
