//! KSP query workload generation (Section 6.4: batches of `Nq` random queries).

use crate::rng::Xoshiro256;
use ksp_graph::{DynamicGraph, VertexId};

/// A single k-shortest-path query `q(vs, vt)` with its `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KspQuery {
    /// Source vertex.
    pub source: VertexId,
    /// Destination vertex.
    pub target: VertexId,
    /// Number of shortest paths requested.
    pub k: usize,
}

impl KspQuery {
    /// Creates a query.
    pub fn new(source: VertexId, target: VertexId, k: usize) -> Self {
        KspQuery { source, target, k }
    }
}

/// Configuration of the query workload generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryWorkloadConfig {
    /// Number of queries in the batch (the paper's `Nq`).
    pub num_queries: usize,
    /// The `k` of every query (the paper uses a fixed `k` per experiment, default 2).
    pub k: usize,
    /// If `true`, endpoints are restricted to distinct vertices (always desirable; a
    /// query with `source == target` is degenerate).
    pub distinct_endpoints: bool,
}

impl Default for QueryWorkloadConfig {
    fn default() -> Self {
        QueryWorkloadConfig { num_queries: 1000, k: 2, distinct_endpoints: true }
    }
}

impl QueryWorkloadConfig {
    /// Creates a configuration for `num_queries` queries with parameter `k`.
    pub fn new(num_queries: usize, k: usize) -> Self {
        QueryWorkloadConfig { num_queries, k, distinct_endpoints: true }
    }
}

/// A generated batch of queries.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryWorkload {
    /// The queries, in arrival order.
    pub queries: Vec<KspQuery>,
}

impl QueryWorkload {
    /// Generates a deterministic workload of uniformly random origin/destination pairs.
    pub fn generate(graph: &DynamicGraph, config: QueryWorkloadConfig, seed: u64) -> Self {
        assert!(graph.num_vertices() >= 2, "need at least two vertices to generate queries");
        assert!(config.k >= 1, "k must be at least 1");
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x9E3779B97F4A7C15);
        let n = graph.num_vertices() as u64;
        let mut queries = Vec::with_capacity(config.num_queries);
        while queries.len() < config.num_queries {
            let s = VertexId(rng.next_bounded(n) as u32);
            let t = VertexId(rng.next_bounded(n) as u32);
            if config.distinct_endpoints && s == t {
                continue;
            }
            queries.push(KspQuery::new(s, t, config.k));
        }
        QueryWorkload { queries }
    }

    /// Generates a workload whose endpoints are drawn from a given candidate set (e.g.
    /// boundary vertices only, which the paper's core algorithm description assumes).
    pub fn generate_from_candidates(
        candidates: &[VertexId],
        config: QueryWorkloadConfig,
        seed: u64,
    ) -> Self {
        assert!(candidates.len() >= 2, "need at least two candidate endpoints");
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xA5A5_5A5A_1234_4321);
        let n = candidates.len() as u64;
        let mut queries = Vec::with_capacity(config.num_queries);
        while queries.len() < config.num_queries {
            let s = candidates[rng.next_bounded(n) as usize];
            let t = candidates[rng.next_bounded(n) as usize];
            if config.distinct_endpoints && s == t {
                continue;
            }
            queries.push(KspQuery::new(s, t, config.k));
        }
        QueryWorkload { queries }
    }

    /// Number of queries in the workload.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Iterates over the queries.
    pub fn iter(&self) -> impl Iterator<Item = &KspQuery> {
        self.queries.iter()
    }

    /// Returns a copy of this workload with every query's `k` replaced.
    pub fn with_k(&self, k: usize) -> Self {
        QueryWorkload {
            queries: self.queries.iter().map(|q| KspQuery::new(q.source, q.target, k)).collect(),
        }
    }

    /// Returns the first `count` queries as a new workload (for scaling experiments
    /// that sweep `Nq` while keeping the query mix fixed).
    pub fn prefix(&self, count: usize) -> Self {
        QueryWorkload { queries: self.queries.iter().take(count).copied().collect() }
    }

    /// Endlessly cycles through the workload starting at `offset % len`.
    ///
    /// This is the replay order used by closed-loop load clients: each client
    /// starts at its own offset so concurrent clients cover different parts of
    /// the workload (and therefore different service shards) instead of
    /// marching in lockstep.
    ///
    /// # Panics
    ///
    /// Panics if the workload is empty.
    pub fn cycle_from(&self, offset: usize) -> impl Iterator<Item = KspQuery> + '_ {
        assert!(!self.is_empty(), "cannot cycle over an empty workload");
        let len = self.queries.len();
        (0..).map(move |i| self.queries[(offset + i) % len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{RoadNetworkConfig, RoadNetworkGenerator};

    fn graph() -> DynamicGraph {
        RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(300)).generate(3).unwrap().graph
    }

    #[test]
    fn generates_requested_number_of_queries() {
        let g = graph();
        let w = QueryWorkload::generate(&g, QueryWorkloadConfig::new(250, 4), 1);
        assert_eq!(w.len(), 250);
        assert!(!w.is_empty());
        assert!(w.iter().all(|q| q.k == 4));
    }

    #[test]
    fn endpoints_are_valid_and_distinct() {
        let g = graph();
        let w = QueryWorkload::generate(&g, QueryWorkloadConfig::new(500, 2), 9);
        for q in w.iter() {
            assert!(q.source.index() < g.num_vertices());
            assert!(q.target.index() < g.num_vertices());
            assert_ne!(q.source, q.target);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g = graph();
        let a = QueryWorkload::generate(&g, QueryWorkloadConfig::new(100, 2), 42);
        let b = QueryWorkload::generate(&g, QueryWorkloadConfig::new(100, 2), 42);
        assert_eq!(a, b);
        let c = QueryWorkload::generate(&g, QueryWorkloadConfig::new(100, 2), 43);
        assert_ne!(a, c);
    }

    #[test]
    fn candidate_generation_only_uses_candidates() {
        let candidates = vec![VertexId(3), VertexId(7), VertexId(11), VertexId(19)];
        let w = QueryWorkload::generate_from_candidates(
            &candidates,
            QueryWorkloadConfig::new(50, 2),
            5,
        );
        for q in w.iter() {
            assert!(candidates.contains(&q.source));
            assert!(candidates.contains(&q.target));
            assert_ne!(q.source, q.target);
        }
    }

    #[test]
    fn with_k_rewrites_only_k() {
        let g = graph();
        let w = QueryWorkload::generate(&g, QueryWorkloadConfig::new(20, 2), 3);
        let w8 = w.with_k(8);
        assert_eq!(w.len(), w8.len());
        for (a, b) in w.iter().zip(w8.iter()) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.target, b.target);
            assert_eq!(b.k, 8);
        }
    }

    #[test]
    fn cycle_from_wraps_and_respects_offset() {
        let g = graph();
        let w = QueryWorkload::generate(&g, QueryWorkloadConfig::new(5, 2), 3);
        let replay: Vec<KspQuery> = w.cycle_from(3).take(12).collect();
        assert_eq!(replay.len(), 12);
        assert_eq!(replay[0], w.queries[3]);
        assert_eq!(replay[1], w.queries[4]);
        assert_eq!(replay[2], w.queries[0]);
        assert_eq!(replay[7], w.queries[(3 + 7) % 5]);
    }

    #[test]
    fn prefix_takes_first_queries() {
        let g = graph();
        let w = QueryWorkload::generate(&g, QueryWorkloadConfig::new(100, 2), 3);
        let p = w.prefix(10);
        assert_eq!(p.len(), 10);
        assert_eq!(p.queries[..], w.queries[..10]);
    }
}
