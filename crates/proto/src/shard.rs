//! Frame types for *shard-to-shard* traffic.
//!
//! The Storm-style topology in `ksp-cluster` exchanges tuples between the
//! entrance spout / query bolt on the master and the subgraph bolts on the
//! workers: scattered weight updates, broadcast partial-KSP requests, and the
//! lower-bound deltas and partial paths coming back. Today those tuples ride
//! in-process channels; this module gives each of them a wire encoding under
//! the same [`crate::frame`] codec the client protocol uses, so
//!
//! * the topology's communication-cost accounting can price every tuple in
//!   **physical wire bytes** (header + encoded payload) instead of abstract
//!   tuple counts, and
//! * a future multi-process topology ships these exact frames over the
//!   `TcpTransport` sockets without inventing a second codec.
//!
//! [`ShardTuple::frame_cost`] is the bridge: the number of bytes the tuple
//! would occupy on the wire, framing included.

use crate::frame::frame_len;
use crate::message::WirePath;
use ksp_algo::Path;
use ksp_graph::{SubgraphId, VertexId, Weight, WeightUpdate};
use ksp_store::codec::encode_slice;
use ksp_store::{CodecError, Reader, StoreCodec, Writer};

/// One lower-bound change reported back from a subgraph bolt after applying
/// updates: the bounding-path lower bound of pair `(a, b)` contributed by
/// `subgraph` is now `lower_bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowerBoundDelta {
    /// The subgraph whose pair moved.
    pub subgraph: SubgraphId,
    /// First endpoint of the boundary pair.
    pub a: VertexId,
    /// Second endpoint of the boundary pair.
    pub b: VertexId,
    /// The new lower bound.
    pub lower_bound: Weight,
}

impl StoreCodec for LowerBoundDelta {
    fn encode(&self, w: &mut Writer) {
        self.subgraph.encode(w);
        self.a.encode(w);
        self.b.encode(w);
        self.lower_bound.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(LowerBoundDelta {
            subgraph: SubgraphId::decode(r)?,
            a: VertexId::decode(r)?,
            b: VertexId::decode(r)?,
            lower_bound: Weight::decode(r)?,
        })
    }
}

/// The partial k shortest paths computed for one `(source, target)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairPaths {
    /// Source vertex of the pair.
    pub source: VertexId,
    /// Target vertex of the pair.
    pub target: VertexId,
    /// The paths, in the worker's answer order.
    pub paths: Vec<WirePath>,
}

impl StoreCodec for PairPaths {
    fn encode(&self, w: &mut Writer) {
        self.source.encode(w);
        self.target.encode(w);
        self.paths.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PairPaths {
            source: VertexId::decode(r)?,
            target: VertexId::decode(r)?,
            paths: Vec::decode(r)?,
        })
    }
}

/// A tuple exchanged between the master (EntranceSpout / QueryBolt) and a
/// subgraph worker, in both directions.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardTuple {
    /// Master → worker: apply these weight updates to the subgraphs the
    /// worker owns.
    ApplyUpdates {
        /// The updates, all owned by the receiving worker.
        updates: Vec<WeightUpdate>,
    },
    /// Worker → master: lower-bound changes caused by an update batch.
    LowerBoundDeltas {
        /// The changed pair bounds.
        deltas: Vec<LowerBoundDelta>,
    },
    /// Master → worker: compute partial k shortest paths for these pairs.
    PartialKspRequest {
        /// The boundary pairs of the reference path.
        pairs: Vec<(VertexId, VertexId)>,
        /// Paths requested per pair.
        k: u64,
    },
    /// Worker → master: the partial paths for the requested pairs.
    PartialKspReply {
        /// One entry per answered pair.
        answers: Vec<PairPaths>,
    },
    /// Master → worker: distances between a vertex and the boundary vertices
    /// of the worker's subgraphs containing it.
    EndpointDistancesRequest {
        /// The (possibly non-boundary) endpoint.
        vertex: VertexId,
        /// Whether boundary → vertex distances are wanted instead (directed
        /// graphs).
        reverse: bool,
    },
    /// Worker → master: the endpoint/boundary distances.
    EndpointDistancesReply {
        /// `(boundary vertex, distance)` pairs.
        distances: Vec<(VertexId, Weight)>,
    },
    /// Master → worker: the shortest within-subgraph distance between two
    /// vertices, over the worker's subgraphs containing both.
    WithinSubgraphRequest {
        /// Source vertex.
        source: VertexId,
        /// Target vertex.
        target: VertexId,
    },
    /// Worker → master: the within-subgraph distance, when one exists.
    WithinSubgraphReply {
        /// The distance, or `None` when no owned subgraph contains both.
        distance: Option<Weight>,
    },
    /// Master → worker: stop.
    Shutdown,
}

const SHARD_APPLY_UPDATES: u8 = 0;
const SHARD_LOWER_BOUND_DELTAS: u8 = 1;
const SHARD_PARTIAL_KSP_REQUEST: u8 = 2;
const SHARD_PARTIAL_KSP_REPLY: u8 = 3;
const SHARD_ENDPOINT_REQUEST: u8 = 4;
const SHARD_ENDPOINT_REPLY: u8 = 5;
const SHARD_WITHIN_REQUEST: u8 = 6;
const SHARD_WITHIN_REPLY: u8 = 7;
const SHARD_SHUTDOWN: u8 = 8;

impl StoreCodec for ShardTuple {
    fn encode(&self, w: &mut Writer) {
        match self {
            ShardTuple::ApplyUpdates { updates } => {
                w.put_u8(SHARD_APPLY_UPDATES);
                updates.encode(w);
            }
            ShardTuple::LowerBoundDeltas { deltas } => {
                w.put_u8(SHARD_LOWER_BOUND_DELTAS);
                deltas.encode(w);
            }
            ShardTuple::PartialKspRequest { pairs, k } => {
                w.put_u8(SHARD_PARTIAL_KSP_REQUEST);
                pairs.encode(w);
                w.put_u64(*k);
            }
            ShardTuple::PartialKspReply { answers } => {
                w.put_u8(SHARD_PARTIAL_KSP_REPLY);
                answers.encode(w);
            }
            ShardTuple::EndpointDistancesRequest { vertex, reverse } => {
                w.put_u8(SHARD_ENDPOINT_REQUEST);
                vertex.encode(w);
                reverse.encode(w);
            }
            ShardTuple::EndpointDistancesReply { distances } => {
                w.put_u8(SHARD_ENDPOINT_REPLY);
                distances.encode(w);
            }
            ShardTuple::WithinSubgraphRequest { source, target } => {
                w.put_u8(SHARD_WITHIN_REQUEST);
                source.encode(w);
                target.encode(w);
            }
            ShardTuple::WithinSubgraphReply { distance } => {
                w.put_u8(SHARD_WITHIN_REPLY);
                distance.encode(w);
            }
            ShardTuple::Shutdown => w.put_u8(SHARD_SHUTDOWN),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            SHARD_APPLY_UPDATES => Ok(ShardTuple::ApplyUpdates { updates: Vec::decode(r)? }),
            SHARD_LOWER_BOUND_DELTAS => {
                Ok(ShardTuple::LowerBoundDeltas { deltas: Vec::decode(r)? })
            }
            SHARD_PARTIAL_KSP_REQUEST => {
                Ok(ShardTuple::PartialKspRequest { pairs: Vec::decode(r)?, k: r.get_u64()? })
            }
            SHARD_PARTIAL_KSP_REPLY => Ok(ShardTuple::PartialKspReply { answers: Vec::decode(r)? }),
            SHARD_ENDPOINT_REQUEST => Ok(ShardTuple::EndpointDistancesRequest {
                vertex: VertexId::decode(r)?,
                reverse: bool::decode(r)?,
            }),
            SHARD_ENDPOINT_REPLY => {
                Ok(ShardTuple::EndpointDistancesReply { distances: Vec::decode(r)? })
            }
            SHARD_WITHIN_REQUEST => Ok(ShardTuple::WithinSubgraphRequest {
                source: VertexId::decode(r)?,
                target: VertexId::decode(r)?,
            }),
            SHARD_WITHIN_REPLY => {
                Ok(ShardTuple::WithinSubgraphReply { distance: Option::decode(r)? })
            }
            SHARD_SHUTDOWN => Ok(ShardTuple::Shutdown),
            tag => Err(CodecError::InvalidTag { what: "ShardTuple", tag }),
        }
    }
}

impl ShardTuple {
    /// The bytes this tuple occupies on the wire, framing included — the
    /// physical communication cost the cluster experiments account per tuple.
    pub fn frame_cost(&self) -> usize {
        frame_len(self.to_bytes().len())
    }
}

// Borrowed-payload frame costs.
//
// The topology prices every channel message as if it had been framed, but
// the payloads live in its own structures (update vectors, reply maps,
// `ksp_algo::Path`s). These helpers encode straight from borrowed data —
// byte-for-byte the same encoding as constructing the [`ShardTuple`], minus
// the clone of the payload into a throwaway owned tuple. A test pins the
// equivalence.

/// Frame cost of [`ShardTuple::ApplyUpdates`] carrying `updates`.
pub fn apply_updates_frame_cost(updates: &[WeightUpdate]) -> usize {
    let mut w = Writer::new();
    w.put_u8(SHARD_APPLY_UPDATES);
    encode_slice(updates, &mut w);
    frame_len(w.len())
}

/// Frame cost of [`ShardTuple::LowerBoundDeltas`] carrying `deltas`.
pub fn lower_bound_deltas_frame_cost<I>(deltas: I) -> usize
where
    I: ExactSizeIterator<Item = LowerBoundDelta>,
{
    let mut w = Writer::new();
    w.put_u8(SHARD_LOWER_BOUND_DELTAS);
    w.put_u64(deltas.len() as u64);
    for delta in deltas {
        delta.encode(&mut w);
    }
    frame_len(w.len())
}

/// Frame cost of [`ShardTuple::PartialKspRequest`] carrying `pairs`.
pub fn partial_ksp_request_frame_cost(pairs: &[(VertexId, VertexId)], k: u64) -> usize {
    let mut w = Writer::new();
    w.put_u8(SHARD_PARTIAL_KSP_REQUEST);
    encode_slice(pairs, &mut w);
    w.put_u64(k);
    frame_len(w.len())
}

/// Frame cost of [`ShardTuple::PartialKspReply`] carrying one path list per
/// `(source, target)` pair, priced straight from the computed
/// [`Path`]s (no [`WirePath`] conversion).
pub fn partial_ksp_reply_frame_cost<'a, I>(answers: I) -> usize
where
    I: ExactSizeIterator<Item = (VertexId, VertexId, &'a [Path])>,
{
    let mut w = Writer::new();
    w.put_u8(SHARD_PARTIAL_KSP_REPLY);
    w.put_u64(answers.len() as u64);
    for (source, target, paths) in answers {
        source.encode(&mut w);
        target.encode(&mut w);
        w.put_u64(paths.len() as u64);
        for path in paths {
            // Identical bytes to `WirePath::from_path(path).encode(..)`.
            encode_slice(path.vertices(), &mut w);
            path.distance().encode(&mut w);
        }
    }
    frame_len(w.len())
}

/// Frame cost of [`ShardTuple::EndpointDistancesReply`] carrying `distances`.
pub fn endpoint_distances_reply_frame_cost(distances: &[(VertexId, Weight)]) -> usize {
    let mut w = Writer::new();
    w.put_u8(SHARD_ENDPOINT_REPLY);
    encode_slice(distances, &mut w);
    frame_len(w.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAME_HEADER_LEN;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn shard_tuples_round_trip() {
        let tuples = vec![
            ShardTuple::ApplyUpdates {
                updates: vec![WeightUpdate::new(ksp_graph::EdgeId(3), Weight::new(1.5))],
            },
            ShardTuple::LowerBoundDeltas {
                deltas: vec![LowerBoundDelta {
                    subgraph: SubgraphId(2),
                    a: v(1),
                    b: v(7),
                    lower_bound: Weight::new(4.25),
                }],
            },
            ShardTuple::PartialKspRequest { pairs: vec![(v(0), v(5)), (v(5), v(9))], k: 3 },
            ShardTuple::PartialKspReply {
                answers: vec![PairPaths {
                    source: v(0),
                    target: v(5),
                    paths: vec![WirePath {
                        vertices: vec![v(0), v(2), v(5)],
                        distance: Weight::new(7.0),
                    }],
                }],
            },
            ShardTuple::EndpointDistancesRequest { vertex: v(4), reverse: true },
            ShardTuple::EndpointDistancesReply { distances: vec![(v(1), Weight::new(2.0))] },
            ShardTuple::WithinSubgraphRequest { source: v(1), target: v(2) },
            ShardTuple::WithinSubgraphReply { distance: Some(Weight::new(3.5)) },
            ShardTuple::WithinSubgraphReply { distance: None },
            ShardTuple::Shutdown,
        ];
        for tuple in tuples {
            assert_eq!(ShardTuple::from_bytes(&tuple.to_bytes()).unwrap(), tuple);
            assert_eq!(tuple.frame_cost(), FRAME_HEADER_LEN + tuple.to_bytes().len());
        }
    }

    #[test]
    fn borrowed_cost_helpers_match_the_owned_tuple_encodings() {
        let updates = vec![
            WeightUpdate::new(ksp_graph::EdgeId(3), Weight::new(1.5)),
            WeightUpdate::new(ksp_graph::EdgeId(9), Weight::new(0.25)),
        ];
        assert_eq!(
            apply_updates_frame_cost(&updates),
            ShardTuple::ApplyUpdates { updates: updates.clone() }.frame_cost()
        );

        let deltas = vec![
            LowerBoundDelta {
                subgraph: SubgraphId(0),
                a: v(1),
                b: v(2),
                lower_bound: Weight::new(3.0),
            },
            LowerBoundDelta {
                subgraph: SubgraphId(4),
                a: v(5),
                b: v(6),
                lower_bound: Weight::new(7.5),
            },
        ];
        assert_eq!(
            lower_bound_deltas_frame_cost(deltas.iter().copied()),
            ShardTuple::LowerBoundDeltas { deltas: deltas.clone() }.frame_cost()
        );

        let pairs = vec![(v(0), v(5)), (v(5), v(9))];
        assert_eq!(
            partial_ksp_request_frame_cost(&pairs, 3),
            ShardTuple::PartialKspRequest { pairs: pairs.clone(), k: 3 }.frame_cost()
        );

        let paths = vec![
            Path::new(vec![v(0), v(2), v(5)], Weight::new(7.0)),
            Path::new(vec![v(0), v(5)], Weight::new(9.5)),
        ];
        assert_eq!(
            partial_ksp_reply_frame_cost([(v(0), v(5), paths.as_slice())].into_iter()),
            ShardTuple::PartialKspReply {
                answers: vec![PairPaths {
                    source: v(0),
                    target: v(5),
                    paths: paths.iter().map(WirePath::from_path).collect(),
                }],
            }
            .frame_cost()
        );

        let distances = vec![(v(1), Weight::new(2.0)), (v(8), Weight::new(0.5))];
        assert_eq!(
            endpoint_distances_reply_frame_cost(&distances),
            ShardTuple::EndpointDistancesReply { distances: distances.clone() }.frame_cost()
        );
    }

    #[test]
    fn frame_cost_scales_with_the_payload() {
        let small = ShardTuple::ApplyUpdates {
            updates: vec![WeightUpdate::new(ksp_graph::EdgeId(0), Weight::new(1.0))],
        };
        let large = ShardTuple::ApplyUpdates {
            updates: (0..100)
                .map(|i| WeightUpdate::new(ksp_graph::EdgeId(i), Weight::new(1.0)))
                .collect(),
        };
        assert!(large.frame_cost() > small.frame_cost());
        assert_eq!(ShardTuple::Shutdown.frame_cost(), FRAME_HEADER_LEN + 1);
    }
}
