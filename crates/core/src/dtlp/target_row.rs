//! Distances to a query's target over the skeleton, shared by the queries to that
//! target on one set of weights.
//!
//! The reference enumeration of a KSP-DG query is guided by each vertex's exact
//! distance to the target over the query's overlay (see [`crate::kspdg::query`]).
//! Those distances come from one Dijkstra search from the target over the reversed
//! skeleton plus the target's own attachments, settled only as far as queries ask.
//! A [`TargetRow`] is what such a search has settled: each settled skeleton
//! vertex's distance, dense by skeleton position, the off-skeleton vertices it
//! settled, its open list, and the target's attachments. The index keeps one row
//! per target (see [`DtlpIndex::target_row`]).
//!
//! A query reads its target's row through [`TargetDistances`]. A vertex the row
//! settled is one array read. Only a query that asks about a vertex the row has not
//! settled restores the row's search on an arena of its own, resumes it as far as
//! it needs, and offers the longer row back. Restoring and resuming settles
//! vertices in the order the search would have, so every distance has the bits of
//! one full search, whichever query settled it: no answer depends on which queries
//! ran before. A query whose target has no row yet starts the search from nothing,
//! as FindKSP's own reverse search would.
//!
//! **Why the distances are the overlay's.** A query's overlay also attaches its
//! source, which the row leaves out. Dijkstra gives every vertex the least
//! `fl(d(u) + w)` over its successors, whatever the settle order, so the two
//! differ only where that least passes through the source.
//! [`TargetDistances::add_source`] gives the source itself that least over its
//! out-edges. No other vertex needs it: no reference path enters the source's
//! state, and the suffix of a simple route never returns to the source, so neither
//! the heuristic nor the survival sweep may use a path through it. Over a directed
//! skeleton nothing reaches the source's attachments from another vertex anyway.
//! Over an undirected one a detour `b → source → b'` inside subgraph `sg` is no
//! shorter than the skeleton edge `b → b'`, whose weight is a lower bound of the
//! distance inside `sg`; its floating-point sum can still round an ulp below the
//! edge's, where the row reads the larger, exact-arithmetic-equal value.

use crate::dtlp::{DtlpIndex, OverlayView, SkeletonGraph};
use ksp_algo::SearchArena;
use ksp_graph::{GraphView, SubgraphId, VertexId, Weight};
use std::sync::Arc;

/// What one target's search over the skeleton has settled; see the module docs.
#[derive(Debug)]
pub struct TargetRow {
    target: VertexId,
    /// The target's attachments `(b, d, sg)`: boundary vertex `b` reaches the
    /// target at distance `d` inside subgraph `sg`. Empty for a boundary target.
    attachments: Vec<(VertexId, Weight, SubgraphId)>,
    /// By skeleton position: each settled vertex's distance to the target,
    /// infinite for the others.
    distance: Vec<Weight>,
    /// The settled vertices off the skeleton (the target, attachment-only
    /// boundary vertices), with their distances.
    settled_off: Vec<(VertexId, Weight)>,
    /// The search's open list; empty once it ran out, when every distance is final.
    queued: Vec<(VertexId, Weight)>,
    /// Number of vertices settled.
    settled: usize,
}

impl TargetRow {
    /// The vertex the distances lead to.
    pub fn target(&self) -> VertexId {
        self.target
    }

    /// The target's attachments to the skeleton, in the order a query's overlay adds
    /// them: by the target's subgraphs, then by each subgraph's boundary order.
    pub fn attachments(&self) -> &[(VertexId, Weight, SubgraphId)] {
        &self.attachments
    }

    /// The distance from `v` to the target over `skeleton` (that of the index the
    /// row came from) plus the target's attachments, if the row knows it: zero at
    /// the target, infinite where no path exists, `None` where the search must go
    /// on to tell.
    #[inline]
    pub fn distance(&self, skeleton: &SkeletonGraph, v: VertexId) -> Option<Weight> {
        if v == self.target {
            return Some(Weight::ZERO);
        }
        match skeleton.position(v) {
            // Once the search ran out, an infinite distance is final too.
            Some(p) if self.distance[p].is_finite() || self.queued.is_empty() => {
                Some(self.distance[p])
            }
            Some(_) => None,
            // A vertex off the skeleton has no edge but its attachments.
            None => {
                let attached = self.attachments.iter().filter(|&&(b, _, _)| b == v);
                Some(attached.map(|&(_, d, _)| d).min().unwrap_or(Weight::INFINITY))
            }
        }
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.attachments.len() * std::mem::size_of::<(VertexId, Weight, SubgraphId)>()
            + self.distance.len() * std::mem::size_of::<Weight>()
            + (self.settled_off.len() + self.queued.len())
                * std::mem::size_of::<(VertexId, Weight)>()
    }

    /// Whether `self` settled more than `other`. Rows of one target on one set of
    /// weights are prefixes of one search, so the larger holds the smaller.
    pub(crate) fn settled_more_than(&self, other: &TargetRow) -> bool {
        self.settled > other.settled
    }
}

/// One query's distances to its target over its overlay: the reference FindKSP's
/// heuristic and the target half of the survival sweep.
///
/// It reads the index's [`TargetRow`] for the target, resumes the row's search on
/// its own arena when asked about a vertex the row has not settled, and hands a
/// longer row back to the index in [`TargetDistances::offer`]. With
/// [`TargetDistances::add_source`] it also answers for the query's source.
#[derive(Debug)]
pub struct TargetDistances<'i> {
    index: &'i DtlpIndex,
    target: VertexId,
    /// The index's row when the query started, if there was one.
    row: Option<Arc<TargetRow>>,
    /// The target's attachments, computed by this query when there was no row.
    computed: Vec<(VertexId, Weight, SubgraphId)>,
    /// The row's search, resumed on this query's arena, once a vertex beyond the
    /// row was asked about: the skeleton plus the target's attachments, and the
    /// search over its reverse.
    resumed: Option<(OverlayView<'i>, SearchArena)>,
    /// The query's source and its distance, if one was added.
    source: Option<(VertexId, Weight)>,
}

impl<'i> TargetDistances<'i> {
    /// The distances to `target` on `index`'s current weights: its row, or, for a
    /// target no query has asked about, the target's attachments computed on
    /// `arena` and a search not yet started.
    pub fn new(index: &'i DtlpIndex, target: VertexId, arena: &mut SearchArena) -> Self {
        let row = index.target_row(target);
        let mut computed = Vec::new();
        if row.is_none() && !index.is_boundary(target) {
            for &sg in index.subgraphs_of_vertex(target) {
                let to_target = index.subgraph_index(sg).boundary_distances_to(target, arena);
                let attached = to_target.into_iter().filter(|&(b, _)| b != target);
                computed.extend(attached.map(|(b, d)| (b, d, sg)));
            }
        }
        TargetDistances { index, target, row, computed, resumed: None, source: None }
    }

    /// The target's attachments to the skeleton (see [`TargetRow::attachments`]).
    pub fn attachments(&self) -> &[(VertexId, Weight, SubgraphId)] {
        self.row.as_deref().map_or(&self.computed, |row| &row.attachments)
    }

    /// Answers for `source` too: its distance is the least `w + d(b)` over its
    /// out-edges `source → b` of weight `w` in `overlay`, the value a search over
    /// the overlay settles it at.
    pub fn add_source(&mut self, overlay: &OverlayView<'_>, source: VertexId) {
        let mut out_edges = Vec::new();
        overlay.for_each_neighbor(source, |b, w| out_edges.push((b, w)));
        let mut least = Weight::INFINITY;
        for (b, w) in out_edges {
            least = least.min(w + self.get(b));
        }
        self.source = Some((source, least));
    }

    /// The distance from `v` to the target, resuming the search as far as `v` if
    /// the row does not know it; infinite where none exists.
    #[inline]
    pub fn get(&mut self, v: VertexId) -> Weight {
        match self.source {
            Some((source, d)) if source == v => d,
            _ => self.known(v).unwrap_or_else(|| {
                let (overlay, search) = self.resume();
                search.settle_through(&overlay.reversed(), v)
            }),
        }
    }

    /// Settles every vertex at distance `d` with `offset + d < bound` (see
    /// [`SearchArena::resume_within`]).
    pub fn settle_within(&mut self, offset: Weight, bound: Weight) {
        let row_reaches = |row: &TargetRow| {
            row.queued.iter().map(|&(_, g)| g).min().is_none_or(|g| offset + g >= bound)
        };
        if self.resumed.is_none() && self.row.as_deref().is_some_and(row_reaches) {
            return;
        }
        let (overlay, search) = self.resume();
        search.resume_within(&overlay.reversed(), offset, bound);
    }

    /// The distance from `v` to the target if the search has settled `v` (or ran
    /// out), infinite otherwise; it resumes nothing.
    pub fn settled(&self, v: VertexId) -> Weight {
        let resumed = self.resumed.as_ref().map(|(_, search)| search.distance(v));
        self.known(v).or(resumed).unwrap_or(Weight::INFINITY)
    }

    /// Offers the row this query's search extended to the index, which keeps it
    /// if no other query has offered a longer one.
    pub fn offer(self) {
        let TargetDistances { index, target, row, computed, resumed, .. } = self;
        let Some((_, search)) = resumed else { return };
        let skeleton = index.skeleton();
        let distance: Vec<Weight> =
            skeleton.vertices_by_position().iter().map(|&v| search.distance(v)).collect();
        let mut settled = distance.iter().filter(|d| d.is_finite()).count();
        let attachments = row.map_or(computed, |row| row.attachments.clone());
        // A non-boundary target lies in one subgraph, so each off-skeleton vertex
        // is listed once.
        let off_skeleton = attachments.iter().map(|&(b, _, _)| b).chain([target]);
        let settled_off: Vec<(VertexId, Weight)> = off_skeleton
            .filter(|&v| !skeleton.contains(v))
            .map(|v| (v, search.distance(v)))
            .filter(|&(_, d)| d.is_finite())
            .collect();
        settled += settled_off.len();
        let queued = search.queued().collect();
        let row = TargetRow { target, attachments, distance, settled_off, queued, settled };
        index.offer_target_row(Arc::new(row));
    }

    /// What the row at hand says about `v`.
    #[inline]
    fn known(&self, v: VertexId) -> Option<Weight> {
        match &self.row {
            Some(row) => row.distance(self.index.skeleton(), v),
            None if v == self.target => Some(Weight::ZERO),
            None => None,
        }
    }

    /// The search, resumed from the row (or started) on first use.
    fn resume(&mut self) -> (&OverlayView<'i>, &mut SearchArena) {
        let (index, target, row) = (self.index, self.target, &self.row);
        let attachments = row.as_deref().map_or(&self.computed, |row| &row.attachments);
        let (overlay, search) = self.resumed.get_or_insert_with(|| {
            let mut overlay = index.skeleton().overlay();
            for &(b, d, sg) in attachments {
                if index.is_directed() {
                    overlay.add_edge(b, target, d, sg);
                } else {
                    overlay.add_undirected_edge(b, target, d, sg);
                }
            }
            let mut search = SearchArena::new();
            match row {
                None => search.open_search(&overlay.reversed(), target),
                Some(row) => {
                    let by_position = index.skeleton().vertices_by_position().iter();
                    let settled = by_position.zip(&row.distance).map(|(&v, &d)| (v, d));
                    let settled = settled.filter(|&(_, d)| d.is_finite());
                    let settled = settled.chain(row.settled_off.iter().copied());
                    search.restore_search(&overlay.reversed(), settled, row.queued.iter().copied());
                }
            }
            (overlay, search)
        });
        (overlay, search)
    }
}
