//! Epoch-based snapshots of the (graph, index) pair.
//!
//! The paper's deployment applies weight updates in periodic batches (Section 2:
//! the `Gcurr` buffer; Section 6.2: one traffic snapshot every few minutes) while
//! queries keep arriving. The serving subsystem models each applied batch as an
//! **epoch**: an immutable, internally consistent `(DynamicGraph, DtlpIndex)`
//! pair behind `Arc`s. Workers load the current epoch with one `RwLock` read and
//! then run an arbitrary number of queries against it without further
//! synchronisation; the updater builds the next epoch off to the side and
//! publishes it with one pointer swap. Readers never block the publisher for
//! longer than the swap, and a query never observes a graph from one epoch and
//! an index from another.

use ksp_core::dtlp::DtlpIndex;
use ksp_graph::DynamicGraph;
use std::sync::{Arc, PoisonError, RwLock};

/// One immutable epoch: a consistent graph/index pair plus its sequence number.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    graph: Arc<DynamicGraph>,
    index: Arc<DtlpIndex>,
}

impl EpochSnapshot {
    /// Wraps a graph and the index built over it as epoch `epoch`.
    pub fn new(epoch: u64, graph: Arc<DynamicGraph>, index: Arc<DtlpIndex>) -> Self {
        EpochSnapshot { epoch, graph, index }
    }

    /// The epoch sequence number (0 for the initial build, +1 per published batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The road network as of this epoch.
    pub fn graph(&self) -> &Arc<DynamicGraph> {
        &self.graph
    }

    /// The DTLP index maintained to exactly this epoch's weights.
    pub fn index(&self) -> &Arc<DtlpIndex> {
        &self.index
    }
}

/// The shared generation pointer: workers `load` it, the updater `publish`es it.
#[derive(Debug)]
pub struct EpochPointer {
    current: RwLock<Arc<EpochSnapshot>>,
}

impl EpochPointer {
    /// Creates the pointer at its initial epoch.
    pub fn new(initial: EpochSnapshot) -> Self {
        EpochPointer { current: RwLock::new(Arc::new(initial)) }
    }

    /// Returns the current epoch. The returned `Arc` keeps the whole epoch alive
    /// for as long as the caller works with it, even across later publishes.
    pub fn load(&self) -> Arc<EpochSnapshot> {
        self.current.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Atomically replaces the current epoch, returning the one it displaced.
    pub fn publish(&self, next: EpochSnapshot) -> Arc<EpochSnapshot> {
        let mut slot = self.current.write().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *slot, Arc::new(next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_core::dtlp::DtlpConfig;
    use ksp_graph::GraphBuilder;

    fn snapshot(epoch: u64) -> EpochSnapshot {
        let mut b = GraphBuilder::undirected(4);
        b.edge(0, 1, 1).edge(1, 2, 1).edge(2, 3, 1).edge(0, 3, 5);
        let graph = b.build().unwrap();
        let index = DtlpIndex::build(&graph, DtlpConfig::new(2, 1)).unwrap();
        EpochSnapshot::new(epoch, Arc::new(graph), Arc::new(index))
    }

    #[test]
    fn load_returns_published_epoch() {
        let pointer = EpochPointer::new(snapshot(0));
        assert_eq!(pointer.load().epoch(), 0);
        let old = pointer.publish(snapshot(1));
        assert_eq!(old.epoch(), 0);
        assert_eq!(pointer.load().epoch(), 1);
    }

    #[test]
    fn loaded_epoch_outlives_publish() {
        let pointer = EpochPointer::new(snapshot(0));
        let held = pointer.load();
        pointer.publish(snapshot(1));
        // The reader's epoch stays fully usable after the swap.
        assert_eq!(held.epoch(), 0);
        assert_eq!(held.graph().num_vertices(), 4);
        assert!(held.index().num_subgraphs() > 0);
    }
}
