//! [`StoreCodec`] implementations for the DTLP index.
//!
//! Only the *primary* state of the index is persisted: the per-subgraph
//! subgraphs (with live weights), the bounding-path sets with their
//! accumulated `current_distance` values, the last lower bound reported per
//! pair, the vertex/edge ownership tables and the configuration. Everything
//! else — the EP-Index, the skeleton graph — is a deterministic
//! function of that state and is rebuilt on decode via
//! [`SubgraphIndex::restore`] and [`DtlpIndex::assemble`]. Persisting the
//! accumulated floats (rather than recomputing distances from weights) is what
//! makes a recovered index answer queries bit-identically to the one that was
//! checkpointed: incremental maintenance applies deltas, and replaying those
//! deltas from a recomputed baseline could drift in the last ulp.

use crate::codec::{encode_slice, Reader, StoreCodec, Writer};
use crate::error::CodecError;
use ksp_core::dtlp::{
    BoundingPath, BoundingPathSet, DtlpConfig, DtlpIndex, PairPaths, SubgraphIndex,
};
use ksp_graph::{Subgraph, SubgraphId, VertexId, Weight};
use std::sync::Arc;

/// The index holds its per-subgraph entries as shared COW handles; on disk a
/// handle is just its pointee (decode re-wraps, sharing nothing with anyone).
impl StoreCodec for Arc<SubgraphIndex> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Arc::new(SubgraphIndex::decode(r)?))
    }
}

impl StoreCodec for DtlpConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.max_subgraph_vertices as u64);
        w.put_u64(self.xi as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(DtlpConfig { max_subgraph_vertices: r.get_u64()? as usize, xi: r.get_u64()? as usize })
    }
}

/// One boundary pair's bounding paths: the endpoints, then a count-prefixed list
/// of paths, each its count-prefixed vertices, vfrag count and accumulated
/// distance. Written from the index's flat layout, read back into the owned form
/// [`SubgraphIndex::restore`] takes.
fn encode_pair(pair: PairPaths<'_>, w: &mut Writer) {
    pair.a.encode(w);
    pair.b.encode(w);
    w.put_u64(pair.len() as u64);
    for i in 0..pair.len() {
        encode_slice(pair.vertices(i), w);
        w.put_u64(pair.vfrags(i));
        pair.distance(i).encode(w);
    }
}

fn decode_pair(r: &mut Reader<'_>) -> Result<BoundingPathSet, CodecError> {
    let a = VertexId::decode(r)?;
    let b = VertexId::decode(r)?;
    let count = r.get_count(1)?;
    let mut paths = Vec::with_capacity(count);
    for _ in 0..count {
        let vertices = Vec::<VertexId>::decode(r)?;
        if vertices.len() < 2 {
            return Err(CodecError::InvalidValue("a bounding path joins two distinct vertices"));
        }
        let vfrags = r.get_u64()?;
        let current_distance = Weight::decode(r)?;
        paths.push(BoundingPath { vertices, vfrags, current_distance });
    }
    Ok(BoundingPathSet { a, b, paths })
}

impl StoreCodec for SubgraphIndex {
    fn encode(&self, w: &mut Writer) {
        self.subgraph().encode(w);
        w.put_u64(self.num_pairs() as u64);
        for pair in self.pairs() {
            encode_pair(pair, w);
        }
        encode_slice(self.last_lower_bounds(), w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let subgraph = Subgraph::decode(r)?;
        let num_pairs = r.get_count(1)?;
        let pairs = (0..num_pairs).map(|_| decode_pair(r)).collect::<Result<Vec<_>, _>>()?;
        let last_lbd = Vec::<Weight>::decode(r)?;
        if pairs.len() != last_lbd.len() {
            return Err(CodecError::InvalidValue("pair table and lower-bound table disagree"));
        }
        Ok(SubgraphIndex::restore(subgraph, pairs, last_lbd))
    }
}

impl StoreCodec for DtlpIndex {
    fn encode(&self, w: &mut Writer) {
        self.config().encode(w);
        self.is_directed().encode(w);
        encode_slice(self.subgraph_indexes(), w);
        // Vertex memberships by ascending vertex id. Per-vertex membership
        // order is preserved verbatim: it determines refine-step candidate order.
        let memberships = self.vertex_memberships();
        w.put_u64(memberships.len() as u64);
        for (v, sgs) in memberships {
            v.encode(w);
            encode_slice(sgs, w);
        }
        encode_slice(self.edge_owners(), w);
        encode_slice(self.boundary_vertices(), w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let config = DtlpConfig::decode(r)?;
        let directed = bool::decode(r)?;
        let subgraph_indexes = Vec::<Arc<SubgraphIndex>>::decode(r)?;
        let num_memberships = r.get_count(12)?; // vertex id + empty-list length
        let mut vertex_subgraphs = Vec::with_capacity(num_memberships);
        for i in 0..num_memberships {
            if VertexId::decode(r)?.index() != i {
                return Err(CodecError::InvalidValue("vertex memberships out of order"));
            }
            vertex_subgraphs.push(Vec::<SubgraphId>::decode(r)?);
        }
        let edge_owner = Vec::<SubgraphId>::decode(r)?;
        let boundary = Vec::<VertexId>::decode(r)?;
        let num_subgraphs = subgraph_indexes.len() as u32;
        if edge_owner.iter().any(|sg| sg.0 >= num_subgraphs) {
            return Err(CodecError::InvalidValue("edge owner references unknown subgraph"));
        }
        if vertex_subgraphs.iter().flatten().any(|sg| sg.0 >= num_subgraphs) {
            return Err(CodecError::InvalidValue("vertex membership references unknown subgraph"));
        }
        Ok(DtlpIndex::assemble(
            config,
            directed,
            subgraph_indexes,
            vertex_subgraphs,
            edge_owner,
            boundary,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_graph::{DynamicGraph, GraphBuilder, UpdateBatch, WeightUpdate};

    fn grid_graph(n: usize) -> DynamicGraph {
        // An n x n grid with varied initial weights: enough structure for a
        // multi-subgraph partition without workload-crate dependencies here.
        let side = n as u32;
        let mut b = GraphBuilder::undirected(n * n);
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    b.edge(v, v + 1, 1 + (v % 4));
                }
                if r + 1 < side {
                    b.edge(v, v + side, 1 + ((v + 1) % 3));
                }
            }
        }
        b.build().unwrap()
    }

    fn perturb(graph: &mut DynamicGraph, index: &mut DtlpIndex, seed: u64) {
        let updates: Vec<WeightUpdate> = graph
            .edge_ids()
            .filter(|e| (e.0 as u64 + seed).is_multiple_of(3))
            .map(|e| {
                let w = graph.initial_weight(e) as f64;
                WeightUpdate::new(e, ksp_graph::Weight::new(w * (0.25 + (seed as f64 % 3.0))))
            })
            .collect();
        let batch = UpdateBatch::new(updates);
        graph.apply_batch(&batch).unwrap();
        index.apply_batch(&batch).unwrap();
    }

    #[test]
    fn index_round_trip_is_byte_identical_after_updates() {
        let mut graph = grid_graph(8);
        let mut index = DtlpIndex::build(&graph, DtlpConfig::new(12, 2)).unwrap();
        for seed in 1..4 {
            perturb(&mut graph, &mut index, seed);
        }
        let bytes = index.to_bytes();
        let decoded = DtlpIndex::from_bytes(&bytes).unwrap();
        // The canonical encoding of the restored index equals the original's.
        assert_eq!(decoded.to_bytes(), bytes);
        // Structural agreement.
        assert_eq!(decoded.num_subgraphs(), index.num_subgraphs());
        assert_eq!(decoded.boundary_vertices(), index.boundary_vertices());
        assert_eq!(decoded.edge_owners(), index.edge_owners());
        assert_eq!(decoded.skeleton().num_skeleton_edges(), index.skeleton().num_skeleton_edges());
        // Skeleton weights agree exactly (not just within epsilon).
        for e in index.skeleton().edges() {
            let restored = decoded.skeleton().skeleton_edge_weight(e.a, e.b).unwrap();
            assert_eq!(restored.value().to_bits(), e.weight.value().to_bits());
        }
    }

    #[test]
    fn restored_index_continues_maintenance_identically() {
        let mut graph = grid_graph(6);
        let mut index = DtlpIndex::build(&graph, DtlpConfig::new(10, 2)).unwrap();
        perturb(&mut graph, &mut index, 1);

        let mut restored = DtlpIndex::from_bytes(&index.to_bytes()).unwrap();
        // Apply the same follow-up batch to both and compare encodings again:
        // maintenance from the restored state must not diverge.
        let mut graph2 = graph.clone();
        perturb(&mut graph, &mut index, 2);
        perturb(&mut graph2, &mut restored, 2);
        assert_eq!(restored.to_bytes(), index.to_bytes());
    }

    #[test]
    fn corrupt_edge_owner_is_rejected() {
        let graph = grid_graph(4);
        let index = DtlpIndex::build(&graph, DtlpConfig::new(6, 1)).unwrap();
        let mut bytes = index.to_bytes();
        // The boundary list is the final field: u64 count + 4 bytes per entry.
        // The 4 bytes just before it hold the last edge-owner id; blast them.
        let boundary_bytes = 8 + index.boundary_vertices().len() * 4;
        let owner_end = bytes.len() - boundary_bytes;
        bytes[owner_end - 4..owner_end].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            DtlpIndex::from_bytes(&bytes),
            Err(CodecError::InvalidValue("edge owner references unknown subgraph"))
        ));
    }

    #[test]
    fn corrupt_vertex_memberships_are_rejected() {
        let graph = grid_graph(4);
        let index = DtlpIndex::build(&graph, DtlpConfig::new(6, 1)).unwrap();
        let bytes = index.to_bytes();
        // The memberships end where the edge owners and the boundary list begin
        // (each a u64 count + 4 bytes per entry). The last entry is the last
        // vertex: its id, then its subgraph list.
        let tail = 8 + index.edge_owners().len() * 4 + 8 + index.boundary_vertices().len() * 4;
        let end = bytes.len() - tail;
        let last = VertexId(graph.num_vertices() as u32 - 1);
        let id_end = end - index.subgraphs_of_vertex(last).len() * 4 - 8;
        let mut unknown = bytes.clone();
        unknown[end - 4..end].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            DtlpIndex::from_bytes(&unknown),
            Err(CodecError::InvalidValue("vertex membership references unknown subgraph"))
        ));
        let mut reordered = bytes;
        reordered[id_end - 4..id_end].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            DtlpIndex::from_bytes(&reordered),
            Err(CodecError::InvalidValue("vertex memberships out of order"))
        ));
    }
}
