//! Property-based tests of the KSP algorithms: Yen and FindKSP must agree with each
//! other and with a brute-force enumeration of all simple paths on small graphs, and
//! with each other on the views KSP-DG runs them over (a subgraph, the skeleton
//! overlay).

use ksp_algo::{find_ksp, yen_ksp, FindKsp, KspEnumerator, Path, SearchArena};
use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_graph::{DynamicGraph, GraphBuilder, GraphView, SubgraphId, VertexId, Weight};
use ksp_workload::{
    RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig, TrafficModel, Xoshiro256,
};
use proptest::prelude::*;

/// A tiny graph of 4–8 vertices with integer weights from 1 to 11, so equal distances
/// are common, undirected or directed (with more edge draws, so that directed pairs
/// are still often connected).
fn arbitrary_graph_of(directed: bool) -> impl Strategy<Value = DynamicGraph> {
    (4usize..9).prop_flat_map(move |n| {
        let edge_count = if directed { n * 3 } else { n * 2 };
        (Just(n), proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..12), edge_count))
            .prop_map(move |(n, edges)| {
                let mut b =
                    if directed { GraphBuilder::directed(n) } else { GraphBuilder::undirected(n) };
                for (u, v, w) in edges {
                    if u != v {
                        b.edge(u, v, w);
                    }
                }
                b.build().expect("valid graph")
            })
    })
}

fn arbitrary_graph() -> impl Strategy<Value = DynamicGraph> {
    arbitrary_graph_of(false)
}

/// Exhaustively enumerates the distances of all simple paths between two vertices via
/// depth-first search; feasible because the graphs are tiny.
fn brute_force_distances(graph: &DynamicGraph, s: VertexId, t: VertexId) -> Vec<Weight> {
    fn dfs(
        graph: &DynamicGraph,
        current: VertexId,
        target: VertexId,
        visited: &mut Vec<VertexId>,
        distance: Weight,
        out: &mut Vec<Weight>,
    ) {
        if current == target {
            out.push(distance);
            return;
        }
        let neighbors = graph.neighbors(current);
        for (to, w) in neighbors {
            if visited.contains(&to) {
                continue;
            }
            visited.push(to);
            dfs(graph, to, target, visited, distance + w, out);
            visited.pop();
        }
    }
    let mut out = Vec::new();
    let mut visited = vec![s];
    dfs(graph, s, t, &mut visited, Weight::ZERO, &mut out);
    out.sort();
    out
}

/// Checks `got` against brute force: the `k` smallest simple-path distances from `s` to
/// `t`, exactly and in order, each on a distinct simple route whose edges sum to it.
fn prop_assert_matches_brute_force(
    graph: &DynamicGraph,
    s: VertexId,
    t: VertexId,
    k: usize,
    got: &[Path],
) -> Result<(), proptest::TestCaseError> {
    let mut expected = brute_force_distances(graph, s, t);
    expected.truncate(k);
    let distances: Vec<Weight> = got.iter().map(Path::distance).collect();
    prop_assert_eq!(distances, expected, "{}->{} k={}", s, t, k);
    for (i, p) in got.iter().enumerate() {
        prop_assert!(Path::is_simple(p.vertices()));
        prop_assert!((p.source(), p.target()) == (s, t));
        prop_assert_eq!(p.recompute_distance(graph), Some(p.distance()));
        prop_assert!(got[..i].iter().all(|q| !q.same_route(p)), "route repeated: {:?}", p);
    }
    Ok(())
}

/// The distance bits of the first `k` paths FindKSP (guided by one search over
/// `reverse`) and Yen produce from `s` to `t` over `view`.
fn guided_and_plain_bits<G: GraphView, R: GraphView>(
    view: &G,
    reverse: &R,
    s: VertexId,
    t: VertexId,
    k: usize,
) -> (Vec<u64>, Vec<u64>) {
    let bits = |p: Path| p.distance().value().to_bits();
    let mut arena = SearchArena::new();
    let mut guided = FindKsp::new(view, reverse, s, t, &mut SearchArena::new());
    let guided = (0..k).map_while(|_| guided.next_path_in(&mut arena)).map(bits).collect();
    let mut plain = KspEnumerator::new(view, s, t);
    let plain = (0..k).map_while(|_| plain.next_path_in(&mut arena)).map(bits).collect();
    (guided, plain)
}

/// A 150-vertex road network, directed or not, and its DTLP index at z = 15, ξ = 2,
/// after two traffic batches (which change a directed road's two directions
/// independently, so a directed skeleton is not symmetric).
fn network_and_index(seed: u64, directed: bool) -> (DynamicGraph, DtlpIndex) {
    let mut config = RoadNetworkConfig::with_vertices(150);
    config.directed = directed;
    let mut graph = RoadNetworkGenerator::new(config).generate(seed).expect("valid network").graph;
    let mut index = DtlpIndex::build(&graph, DtlpConfig::new(15, 2)).expect("index build");
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.9), seed);
    for _ in 0..2 {
        let batch = traffic.next_snapshot();
        graph.apply_batch(&batch).expect("valid batch");
        index.apply_batch(&batch).expect("valid batch");
    }
    (graph, index)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn yen_matches_brute_force(
        graph in arbitrary_graph(),
        directed in arbitrary_graph_of(true),
        k in 1usize..9,
    ) {
        for graph in [&graph, &directed] {
            let s = VertexId(0);
            let t = VertexId((graph.num_vertices() - 1) as u32);
            prop_assert_matches_brute_force(graph, s, t, k, &yen_ksp(graph, s, t, k))?;
        }
    }

    #[test]
    fn findksp_matches_brute_force(
        graph in arbitrary_graph(),
        directed in arbitrary_graph_of(true),
        k in 1usize..9,
    ) {
        for graph in [&graph, &directed] {
            let s = VertexId(1);
            let t = VertexId((graph.num_vertices() - 2) as u32);
            prop_assert_matches_brute_force(graph, s, t, k, &find_ksp(graph, s, t, k))?;
        }
    }

    #[test]
    fn findksp_matches_yen_distances(graph in arbitrary_graph(), k in 1usize..6) {
        let s = VertexId(1 % graph.num_vertices() as u32);
        let t = VertexId((graph.num_vertices() - 2) as u32);
        let a = yen_ksp(&graph, s, t, k);
        let b = find_ksp(&graph, s, t, k);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!(x.distance().approx_eq(y.distance()));
        }
    }

    #[test]
    fn yen_output_is_sorted_distinct_and_simple(graph in arbitrary_graph(), k in 1usize..8) {
        let s = VertexId(0);
        let t = VertexId((graph.num_vertices() / 2) as u32);
        let paths = yen_ksp(&graph, s, t, k);
        prop_assert!(paths.len() <= k);
        for w in paths.windows(2) {
            prop_assert!(w[0].distance() <= w[1].distance());
            prop_assert!(!w[0].same_route(&w[1]));
        }
        for p in &paths {
            prop_assert!(Path::is_simple(p.vertices()));
            let recomputed = p.recompute_distance(&graph).expect("edges exist");
            prop_assert!(recomputed.approx_eq(p.distance()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// FindKSP and Yen produce the same sequence of distance bits for k ≤ 6 over a
    /// partitioned `Subgraph` and over the skeleton `OverlayView` KSP-DG enumerates its
    /// reference paths on, both undirected and directed. Only distances are compared:
    /// where two routes tie, A*'s (f, g, vertex) queue order and Dijkstra's
    /// (distance, vertex) order may settle different ones.
    #[test]
    fn findksp_matches_yen_bits_on_subgraphs_and_overlays(
        seed in 0u64..10_000,
        directed in 0u32..2,
        k in 1usize..7,
    ) {
        let (graph, index) = network_and_index(seed, directed == 1);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut pick = |n: usize| rng.next_bounded(n as u64) as usize;

        // A subgraph, guided over its reverse as the engine's partials are.
        let sg = index.subgraph_index(SubgraphId(pick(index.num_subgraphs()) as u32)).subgraph();
        let (s, t) = (sg.vertices()[pick(sg.vertices().len())], sg.vertices()[pick(sg.vertices().len())]);
        let (guided, plain) = guided_and_plain_bits(sg, &sg.reversed(), s, t, k);
        prop_assert_eq!(guided, plain, "subgraph {}->{}", s, t);

        // The skeleton overlay, with a non-boundary source attached to its subgraph's
        // boundary as the engine attaches it.
        let s = VertexId(pick(graph.num_vertices()) as u32);
        let boundary = index.boundary_vertices();
        let t = boundary[pick(boundary.len())];
        let mut overlay = index.skeleton().overlay();
        let mut arena = SearchArena::new();
        if !index.is_boundary(s) {
            for &sg in index.subgraphs_of_vertex(s) {
                for (b, d) in index.subgraph_index(sg).boundary_distances_from(s, &mut arena) {
                    if graph.is_directed() {
                        overlay.add_edge(s, b, d);
                    } else {
                        overlay.add_undirected_edge(s, b, d);
                    }
                }
            }
        }
        let (guided, plain) = guided_and_plain_bits(&overlay, &overlay.reversed(), s, t, k);
        prop_assert_eq!(guided.len(), plain.len());
        prop_assert_eq!(guided, plain, "overlay {}->{}", s, t);
    }
}
