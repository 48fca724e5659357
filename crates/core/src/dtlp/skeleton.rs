//! The skeleton graph `Gλ` (Section 3.6) and the query-time overlay view (Section 5.3).
//!
//! The skeleton graph contains every boundary vertex of every subgraph; a pair of
//! boundary vertices that co-occur in at least one subgraph is connected by an edge
//! whose weight is the *minimum lower bound distance* over those subgraphs. Because
//! each subgraph contributes its own lower bound, the skeleton keeps the per-subgraph
//! contributions and recomputes the minimum whenever one of them changes.
//!
//! Which edges exist and which subgraphs contribute to each is fixed once the
//! skeleton is assembled; only the contributed bounds move. The skeleton therefore
//! keeps that topology behind one shared `Arc` and the numbers in flat vectors, so
//! an epoch fork copies the numbers and shares the rest. The topology also maps
//! every (subgraph, pair index) to the position of its contribution, so
//! maintenance patches a changed bound by position, without a lookup by endpoints.
//!
//! Queries whose endpoints are not boundary vertices are handled with an
//! [`OverlayView`]: the endpoints are attached to `Gλ` with temporary edges to the
//! boundary vertices of their home subgraphs, without mutating the shared skeleton.
//!
//! **The labelled view.** Every subgraph's boundary vertices form a clique in `Gλ`,
//! so a skeleton path `a → b → c` whose two hops both lie in one subgraph has a twin
//! `a → c`, and both refine to the same routes. The query engine therefore
//! enumerates its reference paths over a [`LabelledView`] of the overlay instead:
//! one *state* per (boundary vertex, subgraph of the hop that entered it), plus the
//! source's own state. A state's edges are the per-subgraph contributions of its
//! vertex's skeleton edges, and the endpoint attachments, each weighted by the bound
//! of its own subgraph rather than the edge minimum, and none in the subgraph that
//! entered the state. So no path takes two hops in a row inside one subgraph, and
//! each path is a sequence of [`Hop`]s. The states and each contribution's head
//! state are fixed at assembly and shared by every epoch; the view adds only the
//! query's endpoint states.

use crate::dtlp::subgraph_index::LowerBoundChange;
use ksp_algo::Projection;
use ksp_graph::{GraphView, SubgraphId, VertexId, Weight};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// One edge of the skeleton graph and its current weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkeletonEdge {
    /// First endpoint (source for directed skeletons).
    pub a: VertexId,
    /// Second endpoint (destination for directed skeletons).
    pub b: VertexId,
    /// The minimum lower bound distance over the contributing subgraphs (the
    /// paper's `MBD(a, b)`).
    pub weight: Weight,
}

/// Adjacency lists over a sparse set of vertex ids: an id → position map and one list
/// per position, each in insertion order. Lookups are two array reads; ids beyond the
/// map, and ids never inserted, have no list.
#[derive(Debug, Clone)]
struct Adjacency<T> {
    /// By vertex id: the vertex's position in `lists`, or [`Adjacency::ABSENT`].
    position: Vec<u32>,
    /// By position: the vertex id.
    id_at: Vec<VertexId>,
    lists: Vec<Vec<(VertexId, T)>>,
}

impl<T> Adjacency<T> {
    const ABSENT: u32 = u32::MAX;

    fn new() -> Self {
        Adjacency { position: Vec::new(), id_at: Vec::new(), lists: Vec::new() }
    }

    /// Number of vertices with a list.
    fn len(&self) -> usize {
        self.lists.len()
    }

    /// One more than the largest id inserted (0 if none).
    fn id_bound(&self) -> usize {
        self.position.len()
    }

    fn contains(&self, v: VertexId) -> bool {
        self.position.get(v.index()).is_some_and(|&p| p != Self::ABSENT)
    }

    fn list(&self, v: VertexId) -> &[(VertexId, T)] {
        match self.position.get(v.index()) {
            Some(&p) if p != Self::ABSENT => &self.lists[p as usize],
            _ => &[],
        }
    }

    /// The list of `v`, inserting `v` with an empty list if it has none.
    fn list_mut(&mut self, v: VertexId) -> &mut Vec<(VertexId, T)> {
        if v.index() >= self.position.len() {
            self.position.resize(v.index() + 1, Self::ABSENT);
        }
        if self.position[v.index()] == Self::ABSENT {
            self.position[v.index()] = self.lists.len() as u32;
            self.id_at.push(v);
            self.lists.push(Vec::new());
        }
        &mut self.lists[self.position[v.index()] as usize]
    }

    fn num_entries(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// The ids with a list, ascending.
    fn ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.position.len() as u32).map(VertexId).filter(|&v| self.contains(v))
    }
}

/// The skeleton graph `Gλ`.
///
/// Cloning copies the two weight vectors — one entry per contribution and one per
/// edge — and shares the topology.
#[derive(Debug, Clone)]
pub struct SkeletonGraph {
    topology: Arc<SkeletonTopology>,
    /// The lower bound distance of each contribution, parallel to
    /// `topology.contributor`.
    contribution: Vec<Weight>,
    /// Each edge's weight: the minimum over its contributions.
    weight: Vec<Weight>,
}

/// The part of the skeleton fixed at assembly: edges, adjacency, each edge's
/// contributions, and where each subgraph's pair bounds land among them.
#[derive(Debug)]
struct SkeletonTopology {
    directed: bool,
    /// Endpoints of each edge.
    ends: Vec<(VertexId, VertexId)>,
    edge_lookup: HashMap<(VertexId, VertexId), u32>,
    /// Outgoing edges as (neighbour, edge index).
    adj: Adjacency<u32>,
    /// For a directed skeleton, incoming edges as (neighbour, edge index): the
    /// transpose of `adj`, which the guided reference search walks backwards from
    /// the target. `None` when undirected, where `adj` serves both directions.
    in_adj: Option<Adjacency<u32>>,
    /// Edge `i`'s contributions are `contribution_start[i]..contribution_start[i + 1]`.
    contribution_start: Vec<u32>,
    /// The edge each contribution belongs to.
    contribution_edge: Vec<u32>,
    /// Subgraph `s`'s pair slots are `slot[slot_start[s]..slot_start[s + 1]]`.
    slot_start: Vec<u32>,
    /// For each (subgraph, pair index), in assembly order: its contribution.
    slot: Vec<u32>,
    /// The subgraph of each contribution.
    contributor: Vec<SubgraphId>,
    /// The labelled view's states: the vertex at position `p` of `adj` has
    /// `state_start[p]..state_start[p + 1]`, one per subgraph whose contribution
    /// enters it, by ascending subgraph.
    state_start: Vec<u32>,
    /// The vertex and the subgraph of each state.
    state: Vec<(VertexId, SubgraphId)>,
    /// The state each contribution enters when its edge is taken from `ends.0` to
    /// `ends.1`, and, undirected, from `ends.1` to `ends.0` (empty if directed).
    enters_forward: Vec<u32>,
    enters_backward: Vec<u32>,
}

impl SkeletonTopology {
    #[inline]
    fn key(&self, a: VertexId, b: VertexId) -> (VertexId, VertexId) {
        if self.directed || a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn edge(&self, a: VertexId, b: VertexId) -> Option<usize> {
        self.edge_lookup.get(&self.key(a, b)).map(|&i| i as usize)
    }

    /// The edge between `a` and `b`, added if missing.
    fn edge_or_insert(&mut self, a: VertexId, b: VertexId) -> u32 {
        let key = self.key(a, b);
        if let Some(&idx) = self.edge_lookup.get(&key) {
            return idx;
        }
        let idx = self.ends.len() as u32;
        self.ends.push(key);
        self.edge_lookup.insert(key, idx);
        self.adj.list_mut(key.0).push((key.1, idx));
        let back = self.adj.list_mut(key.1);
        match &mut self.in_adj {
            Some(in_adj) => in_adj.list_mut(key.1).push((key.0, idx)),
            None => back.push((key.0, idx)),
        }
        idx
    }

    fn contributions_of(&self, edge: usize) -> Range<usize> {
        self.contribution_start[edge] as usize..self.contribution_start[edge + 1] as usize
    }

    /// The states of `v`, empty if it is not a skeleton vertex.
    fn states_of(&self, v: VertexId) -> Range<usize> {
        match self.adj.position.get(v.index()) {
            Some(&p) if p != Adjacency::<u32>::ABSENT => {
                self.state_start[p as usize] as usize..self.state_start[p as usize + 1] as usize
            }
            _ => 0..0,
        }
    }

    /// The state of `v` entered from subgraph `sg`, if the skeleton has one.
    fn state_of(&self, v: VertexId, sg: SubgraphId) -> Option<u32> {
        let states = self.states_of(v);
        let start = states.start;
        self.state[states].binary_search_by_key(&sg, |&(_, l)| l).ok().map(|i| (start + i) as u32)
    }

    /// Numbers the labelled view's states and records the state each contribution
    /// enters, from the contributions' edges and subgraphs.
    fn label_states(&mut self) {
        let entering = |t: &Self, c: usize, forward: bool| {
            let (a, b) = t.ends[t.contribution_edge[c] as usize];
            (if forward { b } else { a }, t.contributor[c])
        };
        let directions: &[bool] = if self.directed { &[true] } else { &[true, false] };
        let mut labels: Vec<Vec<SubgraphId>> = vec![Vec::new(); self.adj.len()];
        for c in 0..self.contributor.len() {
            for &forward in directions {
                let (v, sg) = entering(self, c, forward);
                labels[self.adj.position[v.index()] as usize].push(sg);
            }
        }
        self.state_start = vec![0];
        for (mut l, &v) in labels.into_iter().zip(&self.adj.id_at) {
            l.sort_unstable();
            l.dedup();
            self.state.extend(l.into_iter().map(|sg| (v, sg)));
            self.state_start.push(self.state.len() as u32);
        }
        let state_at = |t: &Self, c: usize, forward: bool| {
            let (v, sg) = entering(t, c, forward);
            t.state_of(v, sg).expect("every contribution enters a state")
        };
        self.enters_forward =
            (0..self.contributor.len()).map(|c| state_at(self, c, true)).collect();
        if !self.directed {
            self.enters_backward =
                (0..self.contributor.len()).map(|c| state_at(self, c, false)).collect();
        }
    }
}

impl SkeletonGraph {
    /// Assembles the skeleton from every subgraph's per-pair lower bounds (Algorithm
    /// 1): one edge per boundary pair that some subgraph indexes, weighted by the
    /// minimum bound over the subgraphs that index it. Part `s` holds the bounds of
    /// subgraph `s`, in its pair order. Edges are numbered, and each edge's
    /// contributions ordered, by first appearance; a subgraph that lists one pair
    /// twice contributes once, with its last bound, and maintenance of either
    /// entry patches that contribution.
    pub fn assemble<P: IntoIterator<Item = LowerBoundChange>>(
        directed: bool,
        parts: impl IntoIterator<Item = P>,
    ) -> Self {
        let mut topology = SkeletonTopology {
            directed,
            ends: Vec::new(),
            edge_lookup: HashMap::new(),
            adj: Adjacency::new(),
            in_adj: directed.then(Adjacency::new),
            contribution_start: vec![0],
            contribution_edge: Vec::new(),
            slot_start: vec![0],
            slot: Vec::new(),
            contributor: Vec::new(),
            state_start: Vec::new(),
            state: Vec::new(),
            enters_forward: Vec::new(),
            enters_backward: Vec::new(),
        };
        // One arrival per (subgraph, pair), in slot order.
        let mut arrivals: Vec<(u32, SubgraphId, Weight)> = Vec::new();
        for (s, part) in parts.into_iter().enumerate() {
            let sg = SubgraphId(s as u32);
            for lb in part {
                arrivals.push((topology.edge_or_insert(lb.a, lb.b), sg, lb.new_lbd));
            }
            topology.slot_start.push(arrivals.len() as u32);
        }
        // Group by edge; the sort is stable, so each group keeps arrival order.
        let mut order: Vec<u32> = (0..arrivals.len() as u32).collect();
        order.sort_by_key(|&j| arrivals[j as usize].0);
        topology.slot = vec![0; arrivals.len()];
        let mut contributor: Vec<SubgraphId> = Vec::with_capacity(arrivals.len());
        let mut contribution = Vec::with_capacity(arrivals.len());
        let mut weight = Vec::with_capacity(topology.ends.len());
        for group in order.chunk_by(|&x, &y| arrivals[x as usize].0 == arrivals[y as usize].0) {
            let start = contribution.len();
            for &j in group {
                let (edge, sg, lbd) = arrivals[j as usize];
                let c = match contributor[start..].iter().position(|&s| s == sg) {
                    Some(i) => start + i,
                    None => {
                        contributor.push(sg);
                        contribution.push(lbd);
                        topology.contribution_edge.push(edge);
                        contribution.len() - 1
                    }
                };
                contribution[c] = lbd;
                topology.slot[j as usize] = c as u32;
            }
            topology.contribution_start.push(contribution.len() as u32);
            weight.push(min_weight(&contribution[start..]));
        }
        topology.contributor = contributor;
        topology.label_states();
        SkeletonGraph { topology: Arc::new(topology), contribution, weight }
    }

    /// Whether `self` and `other` share one topology allocation. Maintenance never
    /// copies it, so every epoch descended from one assembly shares it.
    pub fn shares_structure_with(&self, other: &SkeletonGraph) -> bool {
        Arc::ptr_eq(&self.topology, &other.topology)
    }

    /// Whether the skeleton is directed.
    pub fn is_directed(&self) -> bool {
        self.topology.directed
    }

    /// Number of (boundary) vertices in the skeleton.
    pub fn num_skeleton_vertices(&self) -> usize {
        self.topology.adj.len()
    }

    /// Number of edges in the skeleton.
    pub fn num_skeleton_edges(&self) -> usize {
        self.weight.len()
    }

    /// Whether the skeleton contains the vertex.
    pub fn contains(&self, v: VertexId) -> bool {
        self.topology.adj.contains(v)
    }

    /// The position of skeleton vertex `v` among `0..num_skeleton_vertices()`, the
    /// order tables dense over the skeleton's vertices are kept in.
    #[inline]
    pub(crate) fn position(&self, v: VertexId) -> Option<usize> {
        match self.topology.adj.position.get(v.index()) {
            Some(&p) if p != Adjacency::<u32>::ABSENT => Some(p as usize),
            _ => None,
        }
    }

    /// The skeleton vertices by position: the inverse of [`SkeletonGraph::position`].
    pub(crate) fn vertices_by_position(&self) -> &[VertexId] {
        &self.topology.adj.id_at
    }

    /// All skeleton vertices, ascending.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.topology.adj.ids()
    }

    /// Iterates over all skeleton edges.
    pub fn edges(&self) -> impl Iterator<Item = SkeletonEdge> + '_ {
        self.topology.ends.iter().zip(&self.weight).map(|(&(a, b), &weight)| SkeletonEdge {
            a,
            b,
            weight,
        })
    }

    /// Updates the lower bound distance subgraph `sg` contributes for its indexed
    /// pair number `pair`, the position the pair had in `sg`'s part at assembly.
    /// Returns `true` if the edge's effective weight (the minimum over
    /// contributions) changed.
    pub(crate) fn set_contribution(&mut self, sg: SubgraphId, pair: usize, lbd: Weight) -> bool {
        let topology = &*self.topology;
        let c = topology.slot[topology.slot_start[sg.index()] as usize + pair] as usize;
        let edge = topology.contribution_edge[c] as usize;
        self.contribution[c] = lbd;
        let new_weight = min_weight(&self.contribution[topology.contributions_of(edge)]);
        let changed = !new_weight.approx_eq(self.weight[edge]);
        self.weight[edge] = new_weight;
        changed
    }

    /// The current weight of the skeleton edge between `a` and `b`, if present.
    pub fn skeleton_edge_weight(&self, a: VertexId, b: VertexId) -> Option<Weight> {
        self.topology.edge(a, b).map(|i| self.weight[i])
    }

    /// Estimated memory footprint in bytes: the topology, counted once, plus this
    /// epoch's weights.
    pub fn memory_bytes(&self) -> usize {
        let t = &*self.topology;
        t.ends.len() * std::mem::size_of::<(VertexId, VertexId)>()
            + t.edge_lookup.len() * (std::mem::size_of::<(VertexId, VertexId)>() + 4)
            + t.adj.num_entries() * std::mem::size_of::<(VertexId, u32)>()
            + t.adj.id_bound() * std::mem::size_of::<u32>()
            + t.in_adj.as_ref().map_or(0, |a| {
                a.num_entries() * std::mem::size_of::<(VertexId, u32)>()
                    + a.id_bound() * std::mem::size_of::<u32>()
            })
            + (t.contribution_start.len()
                + t.contribution_edge.len()
                + t.slot_start.len()
                + t.slot.len()
                + t.contributor.len()
                + t.state_start.len()
                + t.enters_forward.len()
                + t.enters_backward.len())
                * std::mem::size_of::<u32>()
            + t.state.len() * std::mem::size_of::<(VertexId, SubgraphId)>()
            + (self.contribution.len() + self.weight.len()) * std::mem::size_of::<Weight>()
    }

    /// Calls `f` once per edge entering `v`, with the edge's tail and current weight.
    fn for_each_in_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        let t = &*self.topology;
        for &(from, idx) in t.in_adj.as_ref().unwrap_or(&t.adj).list(v) {
            f(from, self.weight[idx as usize]);
        }
    }

    /// Builds an overlay view that adds temporary vertices/edges (query endpoints that
    /// are not boundary vertices) on top of this skeleton.
    pub fn overlay(&self) -> OverlayView<'_> {
        OverlayView { skeleton: self, extra: Adjacency::new(), extra_in: Adjacency::new() }
    }
}

/// The minimum of `weights` (the first of equals), or infinity if empty.
fn min_weight(weights: &[Weight]) -> Weight {
    weights.iter().copied().min().unwrap_or(Weight::INFINITY)
}

impl GraphView for SkeletonGraph {
    fn num_vertices(&self) -> usize {
        self.topology.adj.id_bound()
    }

    fn contains_vertex(&self, v: VertexId) -> bool {
        self.topology.adj.contains(v)
    }

    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        for &(to, idx) in self.topology.adj.list(v) {
            f(to, self.weight[idx as usize]);
        }
    }

    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.skeleton_edge_weight(u, v)
    }
}

/// A read-only view of the skeleton graph plus query-local extra edges.
///
/// The extra edges attach a non-boundary source/destination to the boundary vertices of
/// its home subgraph(s) with lower-bound weights (Section 5.3). The underlying skeleton
/// is not mutated, so concurrent queries can each hold their own overlay.
#[derive(Debug, Clone)]
pub struct OverlayView<'a> {
    skeleton: &'a SkeletonGraph,
    /// Extra adjacency: vertex → (neighbour, (weight, subgraph the weight was
    /// computed in)). Entries are directional; the caller adds both directions for
    /// undirected graphs.
    extra: Adjacency<(Weight, SubgraphId)>,
    /// Over a directed skeleton, the transpose of `extra`: vertex → (tail, (weight,
    /// subgraph)). Empty over an undirected one, whose extra edges come in both
    /// directions.
    extra_in: Adjacency<(Weight, SubgraphId)>,
}

impl<'a> OverlayView<'a> {
    /// Adds a one-directional overlay edge from `u` to `v` with the given weight, a
    /// distance computed inside subgraph `sg`.
    ///
    /// Over an undirected skeleton, add extra edges in both directions
    /// ([`OverlayView::add_undirected_edge`]): [`OverlayView::reversed`] reads an
    /// undirected overlay's forward lists as its reverse.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight, sg: SubgraphId) {
        self.extra.list_mut(u).push((v, (w, sg)));
        self.extra.list_mut(v);
        if self.skeleton.is_directed() {
            self.extra_in.list_mut(v).push((u, (w, sg)));
        }
    }

    /// Adds overlay edges in both directions between `u` and `v`.
    pub fn add_undirected_edge(&mut self, u: VertexId, v: VertexId, w: Weight, sg: SubgraphId) {
        self.add_edge(u, v, w, sg);
        self.add_edge(v, u, w, sg);
    }

    /// Adds the edge `u → v`, and `v → u` too over an undirected skeleton: how a
    /// query attaches an endpoint.
    pub(crate) fn attach(&mut self, u: VertexId, v: VertexId, w: Weight, sg: SubgraphId) {
        self.add_edge(u, v, w, sg);
        if !self.skeleton.is_directed() {
            self.add_edge(v, u, w, sg);
        }
    }

    /// Number of extra (overlay) directed edge entries.
    pub fn num_overlay_edges(&self) -> usize {
        self.extra.num_entries()
    }

    /// This overlay with every edge turned around: the view FindKSP's reverse
    /// shortest-path search runs on. It reads the skeleton's in-adjacency, built once
    /// at assembly, and the extra edges' recorded reverses, so it allocates nothing.
    pub fn reversed(&self) -> ReversedOverlay<'_, 'a> {
        ReversedOverlay { overlay: self }
    }

    /// The labelled view of this overlay for paths from `source` to `target` (see
    /// the module docs). Its source state is [`LabelledView::source_state`]; its
    /// paths end at the first state of `target`.
    pub fn labelled(&self, source: VertexId, target: VertexId) -> LabelledView<'_, 'a> {
        let mut view = LabelledView {
            overlay: self,
            source,
            target,
            base: self.skeleton.topology.state.len() as u32,
            extra: vec![(source, None)],
        };
        for &(w, (_, sg)) in self.extra.lists.iter().flatten() {
            if w != source && view.state_of(w, sg).is_none() {
                view.extra.push((w, Some(sg)));
            }
        }
        view
    }
}

impl GraphView for OverlayView<'_> {
    fn num_vertices(&self) -> usize {
        self.skeleton.num_vertices().max(self.extra.id_bound())
    }

    fn contains_vertex(&self, v: VertexId) -> bool {
        self.skeleton.contains_vertex(v) || self.extra.contains(v)
    }

    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        self.skeleton.for_each_neighbor(v, &mut f);
        for &(to, (w, _)) in self.extra.list(v) {
            f(to, w);
        }
    }

    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let base = self.skeleton.edge_weight(u, v);
        let extra = self.extra.list(u).iter().find(|&&(to, _)| to == v).map(|&(_, (w, _))| w);
        match (base, extra) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// An [`OverlayView`] with every edge turned around; see [`OverlayView::reversed`].
#[derive(Debug, Clone, Copy)]
pub struct ReversedOverlay<'o, 'a> {
    overlay: &'o OverlayView<'a>,
}

impl GraphView for ReversedOverlay<'_, '_> {
    fn num_vertices(&self) -> usize {
        self.overlay.num_vertices()
    }

    fn contains_vertex(&self, v: VertexId) -> bool {
        self.overlay.contains_vertex(v)
    }

    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        let OverlayView { skeleton, extra, extra_in } = self.overlay;
        skeleton.for_each_in_neighbor(v, &mut f);
        let extra = if skeleton.is_directed() { extra_in } else { extra };
        for &(from, (w, _)) in extra.list(v) {
            f(from, w);
        }
    }

    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.overlay.edge_weight(v, u)
    }
}

/// One hop of a labelled path: a run of edges inside `subgraph` from `from` to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hop {
    /// The subgraph the run lies in.
    pub subgraph: SubgraphId,
    /// Where the run starts: a boundary vertex of `subgraph`, or the source.
    pub from: VertexId,
    /// Where the run ends: a boundary vertex of `subgraph`, or the target.
    pub to: VertexId,
}

/// The overlay as a graph of states, one per (vertex, subgraph of the hop that
/// entered it); see the module docs and [`OverlayView::labelled`].
///
/// States below `base` are the skeleton's, numbered at assembly. The view adds the
/// source's state, whose hop is none, and a state for each (vertex, subgraph) an
/// endpoint attachment enters that the skeleton has none for. No edge enters a
/// state of the source, and none leaves a state of the target.
#[derive(Debug, Clone)]
pub struct LabelledView<'o, 'a> {
    overlay: &'o OverlayView<'a>,
    source: VertexId,
    target: VertexId,
    base: u32,
    /// The states from `base` on: the source's first.
    extra: Vec<(VertexId, Option<SubgraphId>)>,
}

impl LabelledView<'_, '_> {
    /// The state paths start from.
    pub fn source_state(&self) -> VertexId {
        VertexId(self.base)
    }

    /// The vertex of `state` and the subgraph of the hop that entered it.
    #[inline]
    fn state(&self, state: VertexId) -> (VertexId, Option<SubgraphId>) {
        match state.0.checked_sub(self.base) {
            None => {
                let (v, sg) = self.overlay.skeleton.topology.state[state.index()];
                (v, Some(sg))
            }
            Some(i) => self.extra[i as usize],
        }
    }

    /// The state of `v` entered from subgraph `sg`, if the view has one.
    fn state_of(&self, v: VertexId, sg: SubgraphId) -> Option<u32> {
        let topology = &self.overlay.skeleton.topology;
        topology.state_of(v, sg).or_else(|| {
            let i = self.extra.iter().position(|&e| e == (v, Some(sg)))?;
            Some(self.base + i as u32)
        })
    }

    /// The hops of a path of states, in order.
    pub fn hops<'p>(&'p self, states: &'p [VertexId]) -> impl Iterator<Item = Hop> + 'p {
        states.windows(2).map(|pair| {
            let (to, sg) = self.state(pair[1]);
            Hop {
                subgraph: sg.expect("no edge enters the source state"),
                from: self.state(pair[0]).0,
                to,
            }
        })
    }
}

impl GraphView for LabelledView<'_, '_> {
    fn num_vertices(&self) -> usize {
        self.base as usize + self.extra.len()
    }

    fn contains_vertex(&self, state: VertexId) -> bool {
        state.index() < self.num_vertices()
    }

    fn for_each_neighbor(&self, state: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        let (v, entered) = self.state(state);
        if v == self.target {
            return;
        }
        let skeleton = self.overlay.skeleton;
        let t = &*skeleton.topology;
        for &(w, e) in t.adj.list(v) {
            if w == self.source {
                continue;
            }
            let heads =
                if t.ends[e as usize].1 == w { &t.enters_forward } else { &t.enters_backward };
            for c in t.contributions_of(e as usize) {
                if entered != Some(t.contributor[c]) {
                    f(VertexId(heads[c]), skeleton.contribution[c]);
                }
            }
        }
        for &(w, (weight, sg)) in self.overlay.extra.list(v) {
            if w != self.source && entered != Some(sg) {
                f(VertexId(self.state_of(w, sg).expect("attachments enter states")), weight);
            }
        }
    }

    fn edge_weight(&self, x: VertexId, y: VertexId) -> Option<Weight> {
        let ((u, entered), (w, sg)) = (self.state(x), self.state(y));
        let sg = sg?;
        if entered == Some(sg) || u == self.target || w == self.source {
            return None;
        }
        let skeleton = self.overlay.skeleton;
        let t = &*skeleton.topology;
        let base = t.edge(u, w).and_then(|e| {
            let c = t.contributions_of(e).find(|&c| t.contributor[c] == sg)?;
            Some(skeleton.contribution[c])
        });
        base.or_else(|| {
            let mut extra = self.overlay.extra.list(u).iter();
            extra.find(|&&(to, (_, l))| to == w && l == sg).map(|&(_, (weight, _))| weight)
        })
    }
}

impl Projection for LabelledView<'_, '_> {
    #[inline]
    fn vertex_of(&self, state: VertexId) -> VertexId {
        self.state(state).0
    }

    fn for_each_state(&self, vertex: VertexId, mut f: impl FnMut(VertexId)) {
        for s in self.overlay.skeleton.topology.states_of(vertex) {
            f(VertexId(s as u32));
        }
        for (i, &(v, _)) in self.extra.iter().enumerate() {
            if v == vertex {
                f(VertexId(self.base + i as u32));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_algo::dijkstra_path;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// A skeleton assembled from `(a, b, subgraph, bound)` contributions; each
    /// subgraph's pairs are numbered in the order they are listed.
    fn skeleton(directed: bool, bounds: &[(u32, u32, u32, f64)]) -> SkeletonGraph {
        let num_parts = bounds.iter().map(|&(_, _, sg, _)| sg as usize + 1).max().unwrap_or(0);
        let mut parts = vec![Vec::new(); num_parts];
        for &(a, b, sg, w) in bounds {
            parts[sg as usize].push(LowerBoundChange { a: v(a), b: v(b), new_lbd: Weight::new(w) });
        }
        SkeletonGraph::assemble(directed, parts)
    }

    fn sample_skeleton() -> SkeletonGraph {
        skeleton(false, &[(1, 2, 0, 5.0), (2, 3, 1, 4.0), (1, 3, 2, 20.0)])
    }

    #[test]
    fn contributions_take_the_minimum() {
        // Subgraphs 0 and 5 both index the pair (1, 2).
        let mut sk = skeleton(false, &[(1, 2, 0, 5.0), (2, 3, 1, 4.0), (2, 1, 5, 9.0)]);
        assert_eq!(sk.skeleton_edge_weight(v(1), v(2)), Some(Weight::new(5.0)));
        // The second subgraph's bound drops below the first: the weight drops.
        assert!(sk.set_contribution(SubgraphId(5), 0, Weight::new(3.0)));
        assert_eq!(sk.skeleton_edge_weight(v(1), v(2)), Some(Weight::new(3.0)));
        // Raising the non-minimal contribution does not change the weight.
        assert!(!sk.set_contribution(SubgraphId(0), 0, Weight::new(100.0)));
        assert_eq!(sk.skeleton_edge_weight(v(1), v(2)), Some(Weight::new(3.0)));
        // Raising the minimal contribution re-evaluates the minimum.
        assert!(sk.set_contribution(SubgraphId(5), 0, Weight::new(50.0)));
        assert_eq!(sk.skeleton_edge_weight(v(1), v(2)), Some(Weight::new(50.0)));
        // Patching one edge leaves the others alone.
        assert_eq!(sk.skeleton_edge_weight(v(2), v(3)), Some(Weight::new(4.0)));
        // At assembly, a subgraph repeated for one pair keeps its last bound, and
        // both of its slots patch that one contribution.
        let mut repeated = skeleton(false, &[(1, 2, 0, 5.0), (2, 1, 0, 7.0), (1, 2, 1, 6.0)]);
        assert_eq!(repeated.skeleton_edge_weight(v(1), v(2)), Some(Weight::new(6.0)));
        assert!(repeated.set_contribution(SubgraphId(0), 0, Weight::new(1.0)));
        assert_eq!(repeated.skeleton_edge_weight(v(1), v(2)), Some(Weight::new(1.0)));
        assert!(repeated.set_contribution(SubgraphId(0), 1, Weight::new(9.0)));
        assert_eq!(repeated.skeleton_edge_weight(v(1), v(2)), Some(Weight::new(6.0)));
    }

    #[test]
    fn clones_share_the_topology_and_own_their_weights() {
        let sk = sample_skeleton();
        let mut next = sk.clone();
        assert!(next.set_contribution(SubgraphId(2), 0, Weight::new(2.0)));
        assert!(next.shares_structure_with(&sk));
        assert_eq!(sk.skeleton_edge_weight(v(1), v(3)), Some(Weight::new(20.0)));
        assert_eq!(next.skeleton_edge_weight(v(3), v(1)), Some(Weight::new(2.0)));
        assert!(!sample_skeleton().shares_structure_with(&sk));
    }

    #[test]
    fn undirected_skeleton_is_symmetric() {
        let sk = sample_skeleton();
        assert_eq!(sk.edge_weight(v(2), v(1)), sk.edge_weight(v(1), v(2)));
        let n1 = sk.neighbors(v(1));
        assert_eq!(n1.len(), 2);
        assert_eq!(sk.num_skeleton_vertices(), 3);
        assert_eq!(sk.num_skeleton_edges(), 3);
    }

    #[test]
    fn directed_skeleton_keeps_directions_apart() {
        let sk = skeleton(true, &[(1, 2, 0, 5.0), (2, 1, 0, 8.0)]);
        assert_eq!(sk.edge_weight(v(1), v(2)), Some(Weight::new(5.0)));
        assert_eq!(sk.edge_weight(v(2), v(1)), Some(Weight::new(8.0)));
        assert_eq!(sk.neighbors(v(1)).len(), 1);
        assert_eq!(sk.num_skeleton_edges(), 2);
    }

    /// Every (tail, head, edge) entry of `adj`, sorted.
    fn entries(adj: &Adjacency<u32>, reversed: bool) -> Vec<(VertexId, VertexId, u32)> {
        let mut out: Vec<_> = adj
            .ids()
            .flat_map(|x| {
                adj.list(x).iter().map(move |&(y, e)| if reversed { (y, x, e) } else { (x, y, e) })
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn directed_in_adjacency_is_the_shared_transpose_of_adj() {
        let sk = skeleton(
            true,
            &[(1, 2, 0, 5.0), (2, 1, 0, 8.0), (2, 3, 1, 4.0), (7, 3, 2, 2.0), (1, 7, 2, 6.0)],
        );
        let t = &*sk.topology;
        let in_adj = t.in_adj.as_ref().expect("a directed skeleton keeps its in-adjacency");
        assert_eq!(entries(in_adj, true), entries(&t.adj, false));
        assert_eq!(in_adj.num_entries(), sk.num_skeleton_edges());
        // Vertex 3 has no outgoing edge and two incoming ones.
        assert!(sk.neighbors(v(3)).is_empty());
        let mut into_3 = Vec::new();
        sk.for_each_in_neighbor(v(3), |from, w| into_3.push((from, w)));
        into_3.sort();
        assert_eq!(into_3, vec![(v(2), Weight::new(4.0)), (v(7), Weight::new(2.0))]);
        // A clone, and a clone whose weights moved, share the same in-adjacency.
        let mut next = sk.clone();
        assert!(next.set_contribution(SubgraphId(1), 0, Weight::new(1.0)));
        assert!(next.shares_structure_with(&sk));
        assert!(std::ptr::eq(next.topology.in_adj.as_ref().unwrap(), in_adj));
        let mut moved = Vec::new();
        next.for_each_in_neighbor(v(3), |from, w| moved.push((from, w)));
        moved.sort();
        assert_eq!(moved, vec![(v(2), Weight::new(1.0)), (v(7), Weight::new(2.0))]);
        // An undirected skeleton keeps none: `adj` already lists both directions.
        assert!(sample_skeleton().topology.in_adj.is_none());
    }

    #[test]
    fn reversed_overlay_turns_skeleton_and_extra_edges_around() {
        let sk = skeleton(true, &[(1, 2, 0, 5.0), (2, 3, 1, 4.0), (3, 1, 2, 1.0)]);
        let mut overlay = sk.overlay();
        overlay.add_edge(v(50), v(1), Weight::new(2.0), SubgraphId(0));
        overlay.add_edge(v(3), v(60), Weight::new(3.0), SubgraphId(0));
        let reversed = overlay.reversed();
        assert_eq!(reversed.num_vertices(), overlay.num_vertices());
        for x in [1, 2, 3, 50, 60] {
            for (y, w) in overlay.neighbors(v(x)) {
                assert_eq!(reversed.edge_weight(y, v(x)), Some(w));
                assert!(reversed.neighbors(y).contains(&(v(x), w)), "{y} <- {x}");
            }
        }
        let total: usize = [1, 2, 3, 50, 60].iter().map(|&x| reversed.neighbors(v(x)).len()).sum();
        assert_eq!(total, 5);
        // The reverse search from 60 reaches 50 at the forward distance 50 -> 60.
        let mut arena = ksp_algo::SearchArena::new();
        arena.search_from(&reversed, v(60));
        assert_eq!(
            arena.distance(v(50)),
            dijkstra_path(&overlay, v(50), v(60)).unwrap().distance()
        );
        // Over an undirected skeleton the reverse is the overlay itself.
        let undirected = sample_skeleton();
        let mut overlay = undirected.overlay();
        overlay.add_undirected_edge(v(50), v(1), Weight::new(1.0), SubgraphId(0));
        for x in [1, 2, 3, 50] {
            assert_eq!(overlay.reversed().neighbors(v(x)), overlay.neighbors(v(x)));
        }
    }

    #[test]
    fn shortest_paths_run_over_the_skeleton() {
        let sk = sample_skeleton();
        let p = dijkstra_path(&sk, v(1), v(3)).unwrap();
        assert_eq!(p.distance(), Weight::new(9.0));
        assert_eq!(p.vertices(), &[v(1), v(2), v(3)]);
    }

    #[test]
    fn overlay_attaches_temporary_endpoints() {
        let sk = sample_skeleton();
        let mut overlay = sk.overlay();
        // Vertex 50 is a non-boundary source attached to boundary vertices 1 and 2.
        overlay.add_undirected_edge(v(50), v(1), Weight::new(1.0), SubgraphId(0));
        overlay.add_undirected_edge(v(50), v(2), Weight::new(7.0), SubgraphId(0));
        assert!(overlay.contains_vertex(v(50)));
        assert_eq!(overlay.num_overlay_edges(), 4);
        let p = dijkstra_path(&overlay, v(50), v(3)).unwrap();
        // 50 -> 1 -> 2 -> 3 = 1 + 5 + 4 = 10, vs 50 -> 2 -> 3 = 7 + 4 = 11.
        assert_eq!(p.distance(), Weight::new(10.0));
        // The underlying skeleton is untouched.
        assert!(!sk.contains(v(50)));
    }

    #[test]
    fn one_arena_serves_a_high_id_graph_then_the_skeleton() {
        // A query's arena first searches a subgraph whose ids sit high, then the
        // skeleton overlay over low ids; the overlay answer must match a fresh arena.
        let mut b = ksp_graph::GraphBuilder::undirected(100);
        b.edge(90, 91, 1).edge(91, 92, 1).edge(90, 92, 5);
        let high = b.build().unwrap();
        let sk = sample_skeleton();
        let mut overlay = sk.overlay();
        overlay.add_undirected_edge(v(50), v(1), Weight::new(1.0), SubgraphId(0));
        let mut arena = ksp_algo::SearchArena::new();
        let p = arena.shortest_path(&high, v(90), v(92), &[], &[]).unwrap();
        assert_eq!(p.distance(), Weight::new(2.0));
        let shared = arena.shortest_path(&overlay, v(50), v(3), &[v(2)], &[]);
        assert_eq!(
            shared,
            ksp_algo::SearchArena::new().shortest_path(&overlay, v(50), v(3), &[v(2)], &[])
        );
        assert_eq!(shared.unwrap().vertices(), &[v(50), v(1), v(3)]);
        assert_eq!(sk.vertices().collect::<Vec<_>>(), vec![v(1), v(2), v(3)]);
    }

    #[test]
    fn overlay_edge_weight_prefers_the_smaller_of_base_and_extra() {
        let sk = sample_skeleton();
        let mut overlay = sk.overlay();
        overlay.add_undirected_edge(v(1), v(2), Weight::new(1.5), SubgraphId(0));
        assert_eq!(overlay.edge_weight(v(1), v(2)), Some(Weight::new(1.5)));
        assert_eq!(overlay.edge_weight(v(2), v(3)), Some(Weight::new(4.0)));
    }

    #[test]
    fn memory_estimate_is_positive() {
        let sk = sample_skeleton();
        assert!(sk.memory_bytes() > 0);
    }
}
