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
//! per target (see [`DtlpIndex::target_row`]) by the rule `dtlp::memo` states.
//!
//! A query reads its target's row through [`TargetDistances`]. A vertex the row
//! settled is one array read. Only a query that asks about a vertex the row has not
//! settled restores the row's search on an arena of its own, resumes it as far as
//! it needs, and offers the longer row back. Restoring and resuming settles
//! vertices in the order the search would have, so every distance has the bits of
//! one full search, whichever query settled it: no answer depends on which queries
//! ran before. A query whose target has no row yet reads an empty one: the
//! target's attachments, nothing settled, and the target alone on the open list,
//! where FindKSP's own reverse search would start.
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

use crate::dtlp::memo::MemoEntry;
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
    /// infinite for the others; empty in a row that settled nothing yet.
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
    /// The row of a search from `target` that settled nothing yet: the target's
    /// attachments, computed on `arena`, and the target alone on the open list if
    /// the skeleton or an attachment reaches it.
    fn empty(index: &DtlpIndex, target: VertexId, arena: &mut SearchArena) -> Self {
        let mut attachments = Vec::new();
        if !index.is_boundary(target) {
            for &sg in index.subgraphs_of_vertex(target) {
                let to_target = index.subgraph_index(sg).boundary_distances_to(target, arena);
                let attached = to_target.into_iter().filter(|&(b, _)| b != target);
                attachments.extend(attached.map(|(b, d)| (b, d, sg)));
            }
        }
        let reached = index.skeleton().contains(target) || !attachments.is_empty();
        let queued = reached.then_some((target, Weight::ZERO)).into_iter().collect();
        let (distance, settled_off) = (Vec::new(), Vec::new());
        TargetRow { target, attachments, distance, settled_off, queued, settled: 0 }
    }

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
            Some(p) => {
                let d = self.distance.get(p).copied().unwrap_or(Weight::INFINITY);
                // Once the search ran out, an infinite distance is final too.
                (d.is_finite() || self.queued.is_empty()).then_some(d)
            }
            // A vertex off the skeleton has no edge but its attachments.
            None => {
                let attached = self.attachments.iter().filter(|&&(b, _, _)| b == v);
                Some(attached.map(|&(_, d, _)| d).min().unwrap_or(Weight::INFINITY))
            }
        }
    }
}

impl MemoEntry for TargetRow {
    /// The number of vertices settled. Rows of one target on one set of weights
    /// are prefixes of one search, so the larger holds the smaller.
    fn reach(&self) -> usize {
        self.settled
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.attachments.len() * std::mem::size_of::<(VertexId, Weight, SubgraphId)>()
            + self.distance.len() * std::mem::size_of::<Weight>()
            + (self.settled_off.len() + self.queued.len())
                * std::mem::size_of::<(VertexId, Weight)>()
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
    /// The index's row when the query started, or an empty one.
    row: Arc<TargetRow>,
    /// The row's search, resumed on this query's arena, once a vertex beyond the
    /// row was asked about: the skeleton plus the target's attachments, and the
    /// search over its reverse.
    resumed: Option<(OverlayView<'i>, SearchArena)>,
    /// The query's source and its distance, if one was added.
    source: Option<(VertexId, Weight)>,
}

impl<'i> TargetDistances<'i> {
    /// The distances to `target` on `index`'s current weights: its row, or, for a
    /// target no query has asked about, an empty row whose attachments are
    /// computed on `arena`.
    pub fn new(index: &'i DtlpIndex, target: VertexId, arena: &mut SearchArena) -> Self {
        let row = index.target_row(target);
        let row = row.unwrap_or_else(|| Arc::new(TargetRow::empty(index, target, arena)));
        TargetDistances { index, row, resumed: None, source: None }
    }

    /// The target's attachments to the skeleton (see [`TargetRow::attachments`]).
    pub fn attachments(&self) -> &[(VertexId, Weight, SubgraphId)] {
        &self.row.attachments
    }

    /// Answers for `source` too: its distance is the least `w + d(b)` over its
    /// out-edges `source → b` of weight `w` in `overlay`, the value a search over
    /// the overlay settles it at.
    pub fn add_source(&mut self, overlay: &OverlayView<'_>, source: VertexId) {
        let mut least = Weight::INFINITY;
        overlay.for_each_neighbor(source, |b, w| least = least.min(w + self.get(b)));
        self.source = Some((source, least));
    }

    /// The distance from `v` to the target, resuming the search as far as `v` if
    /// the row does not know it; infinite where none exists.
    #[inline]
    pub fn get(&mut self, v: VertexId) -> Weight {
        match self.source {
            Some((source, d)) if source == v => d,
            _ => self.row.distance(self.index.skeleton(), v).unwrap_or_else(|| {
                let (overlay, search) = self.resume();
                search.settle_through(&overlay.reversed(), v)
            }),
        }
    }

    /// Settles every vertex at distance `d` with `offset + d < bound` (see
    /// [`SearchArena::resume_within`]).
    pub fn settle_within(&mut self, offset: Weight, bound: Weight) {
        let nearest_queued = self.row.queued.iter().map(|&(_, g)| g).min();
        if self.resumed.is_none() && nearest_queued.is_none_or(|g| offset + g >= bound) {
            return;
        }
        let (overlay, search) = self.resume();
        search.resume_within(&overlay.reversed(), offset, bound);
    }

    /// The distance from `v` to the target if the search has settled `v` (or ran
    /// out), infinite otherwise; it resumes nothing.
    pub fn settled(&self, v: VertexId) -> Weight {
        let resumed = self.resumed.as_ref().map(|(_, search)| search.distance(v));
        self.row.distance(self.index.skeleton(), v).or(resumed).unwrap_or(Weight::INFINITY)
    }

    /// Offers the row this query's search extended to the index, which keeps it
    /// if no other query has offered a longer one.
    pub fn offer(self) {
        let TargetDistances { index, row, resumed, .. } = self;
        let Some((_, search)) = resumed else { return };
        let target = row.target;
        let skeleton = index.skeleton();
        let distance: Vec<Weight> =
            skeleton.vertices_by_position().iter().map(|&v| search.distance(v)).collect();
        let mut settled = distance.iter().filter(|d| d.is_finite()).count();
        let attachments =
            Arc::try_unwrap(row).map_or_else(|row| row.attachments.clone(), |row| row.attachments);
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
        index.target_rows.offer(target, Arc::new(row));
    }

    /// The search, resumed from the row on first use.
    fn resume(&mut self) -> (&OverlayView<'i>, &mut SearchArena) {
        let (index, row) = (self.index, &self.row);
        let (overlay, search) = self.resumed.get_or_insert_with(|| {
            let target = row.target;
            let mut overlay = index.skeleton().overlay();
            for &(b, d, sg) in &row.attachments {
                overlay.attach(b, target, d, sg);
            }
            let mut search = SearchArena::new();
            let by_position = index.skeleton().vertices_by_position().iter();
            let settled = by_position.zip(&row.distance).map(|(&v, &d)| (v, d));
            let settled = settled.filter(|&(_, d)| d.is_finite());
            let settled = settled.chain(row.settled_off.iter().copied());
            search.restore_search(&overlay.reversed(), settled, row.queued.iter().copied());
            (overlay, search)
        });
        (overlay, search)
    }
}
