//! Edge-weight update events.
//!
//! In the deployed system (Section 6.1) weight updates stream into the EntranceSpout
//! and are routed to the SubgraphBolt owning the affected edge. This module defines the
//! update representation shared by the graph, the DTLP index and the cluster runtime.

use crate::ids::EdgeId;
use crate::weight::Weight;

/// A single edge-weight change: the edge now has weight `new_weight`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightUpdate {
    /// The edge whose weight changed.
    pub edge: EdgeId,
    /// The new current weight of the edge.
    pub new_weight: Weight,
}

impl WeightUpdate {
    /// Creates a new weight update.
    pub fn new(edge: EdgeId, new_weight: Weight) -> Self {
        WeightUpdate { edge, new_weight }
    }
}

/// A batch of weight updates representing one traffic snapshot.
///
/// The paper applies updates snapshot-by-snapshot: at each snapshot a fraction `α` of
/// edges change weight within a relative range `[-τ, +τ]`. A batch corresponds to one
/// such snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateBatch {
    /// Updates in this batch. At most one update per edge is expected; if an edge
    /// appears multiple times the last update wins.
    pub updates: Vec<WeightUpdate>,
}

impl UpdateBatch {
    /// Creates a batch from a list of updates.
    pub fn new(updates: Vec<WeightUpdate>) -> Self {
        UpdateBatch { updates }
    }

    /// Number of updates in the batch.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Iterates over the updates.
    pub fn iter(&self) -> impl Iterator<Item = &WeightUpdate> {
        self.updates.iter()
    }

    /// Splits the batch into per-partition batches according to `owner_of`, which maps
    /// an edge to the index of the partition (worker / subgraph) that owns it.
    ///
    /// This mirrors how the EntranceSpout scatters an incoming update stream to
    /// SubgraphBolts.
    pub fn split_by(
        &self,
        num_partitions: usize,
        mut owner_of: impl FnMut(EdgeId) -> usize,
    ) -> Vec<UpdateBatch> {
        let mut parts = vec![UpdateBatch::default(); num_partitions];
        for u in &self.updates {
            let p = owner_of(u.edge);
            assert!(p < num_partitions, "owner_of returned partition {p} >= {num_partitions}");
            parts[p].updates.push(*u);
        }
        parts
    }
}

impl FromIterator<WeightUpdate> for UpdateBatch {
    fn from_iter<T: IntoIterator<Item = WeightUpdate>>(iter: T) -> Self {
        UpdateBatch { updates: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_from_iterator_and_len() {
        let batch: UpdateBatch =
            (0..5).map(|i| WeightUpdate::new(EdgeId(i), Weight::new(i as f64 + 1.0))).collect();
        assert_eq!(batch.len(), 5);
        assert!(!batch.is_empty());
    }

    #[test]
    fn empty_batch_reports_empty() {
        let batch = UpdateBatch::default();
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
    }

    #[test]
    fn split_by_routes_updates_to_owning_partition() {
        let batch: UpdateBatch =
            (0..10).map(|i| WeightUpdate::new(EdgeId(i), Weight::new(1.0))).collect();
        let parts = batch.split_by(3, |e| (e.0 % 3) as usize);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 4); // edges 0,3,6,9
        assert_eq!(parts[1].len(), 3);
        assert_eq!(parts[2].len(), 3);
        assert!(parts[0].iter().all(|u| u.edge.0 % 3 == 0));
    }

    #[test]
    #[should_panic(expected = "owner_of returned partition")]
    fn split_by_panics_on_out_of_range_partition() {
        let batch = UpdateBatch::new(vec![WeightUpdate::new(EdgeId(0), Weight::new(1.0))]);
        let _ = batch.split_by(1, |_| 7);
    }
}
