//! The EP-Index: edge → bounding-paths map used for index maintenance (Section 3.7).
//!
//! When the weight of edge `e` changes by `Δw`, every bounding path passing through `e`
//! must have its stored distance adjusted by `Δw`. The EP-Index is the key/value
//! structure the paper proposes for locating those paths without scanning: the key is
//! an edge, the value the list of bounding paths covering it.

use ksp_graph::EdgeId;
use std::collections::HashMap;

/// Reference to one bounding path within a subgraph index: the boundary pair it
/// belongs to and its position within that pair's path list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathRef {
    /// Index of the boundary pair in the subgraph index's pair table.
    pub pair: u32,
    /// Index of the path within the pair's bounding-path list.
    pub path: u32,
}

/// The uncompressed edge → paths map.
#[derive(Debug, Clone, Default)]
pub struct EpIndex {
    entries: HashMap<EdgeId, Vec<PathRef>>,
    total_refs: usize,
}

impl EpIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        EpIndex::default()
    }

    /// Registers that the bounding path `path_ref` traverses `edge`.
    pub fn insert(&mut self, edge: EdgeId, path_ref: PathRef) {
        self.entries.entry(edge).or_default().push(path_ref);
        self.total_refs += 1;
    }

    /// The bounding paths passing through `edge` (empty slice if none).
    pub fn paths_through(&self, edge: EdgeId) -> &[PathRef] {
        self.entries.get(&edge).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The whole map as `(edge, paths)` pairs in ascending edge order, each edge's
    /// paths in insertion order: the input of the MFP-tree forest.
    pub(crate) fn edge_paths(&self) -> Vec<(EdgeId, Vec<PathRef>)> {
        let mut list: Vec<(EdgeId, Vec<PathRef>)> =
            self.entries.iter().map(|(&e, refs)| (e, refs.clone())).collect();
        list.sort_unstable_by_key(|(e, _)| e.0);
        list
    }

    /// Number of edges that have at least one bounding path through them.
    pub fn num_edges(&self) -> usize {
        self.entries.len()
    }

    /// Total number of (edge, path) entries; this is the quantity
    /// `Nb(Nb−1)/2 · ξ · n_e` the paper uses to argue the EP-Index can be large.
    pub fn num_entries(&self) -> usize {
        self.total_refs
    }

    /// Estimated memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.entries.len() * (std::mem::size_of::<EdgeId>() + std::mem::size_of::<Vec<PathRef>>())
            + self.total_refs * std::mem::size_of::<PathRef>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut idx = EpIndex::new();
        idx.insert(EdgeId(3), PathRef { pair: 0, path: 0 });
        idx.insert(EdgeId(3), PathRef { pair: 1, path: 2 });
        idx.insert(EdgeId(5), PathRef { pair: 0, path: 1 });
        assert_eq!(idx.paths_through(EdgeId(3)).len(), 2);
        assert_eq!(idx.paths_through(EdgeId(5)).len(), 1);
        assert!(idx.paths_through(EdgeId(9)).is_empty());
        assert_eq!(idx.num_edges(), 2);
        assert_eq!(idx.num_entries(), 3);
        assert!(idx.memory_bytes() > 0);
    }

    #[test]
    fn duplicate_inserts_are_kept_as_given() {
        // The builder never inserts duplicates; the index itself does not deduplicate.
        let mut idx = EpIndex::new();
        let r = PathRef { pair: 2, path: 1 };
        idx.insert(EdgeId(1), r);
        idx.insert(EdgeId(1), r);
        assert_eq!(idx.paths_through(EdgeId(1)), &[r, r]);
        assert_eq!(idx.num_entries(), 2);
    }
}
