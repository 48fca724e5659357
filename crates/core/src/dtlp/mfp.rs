//! The compressed bounding-path storage of Section 4: MinHash/LSH grouping and MFP-trees.
//!
//! The EP-Index duplicates every bounding path once per edge it covers, which the paper
//! observes can dwarf the subgraph itself. Section 4 compresses it in two steps:
//!
//! 1. **Grouping** ([`MinHashLsh`]): edges whose path sets have a high Jaccard
//!    similarity are placed in the same group, using MinHash signatures and
//!    locality-sensitive hashing over signature bands. Edges colliding in at least one
//!    band end up in the same group.
//! 2. **Compression** ([`MfpForest`]): within a group, each edge's path list (sorted by
//!    how often each path occurs across the group, descending) is inserted into a
//!    modified FP-tree, so edges with similar path sets share prefix nodes. The tail
//!    node of every insertion records the edge and the length of its path list, so the
//!    list can be recovered by walking up that many ancestors.
//!
//! Maintenance always reads the EP-Index. The forest is built from the EP-Index
//! content only to report what the compressed form would cost
//! ([`crate::dtlp::DtlpIndex::mfp_level1_memory_bytes`], the MFP-tree column of
//! Figures 15–18); it recovers every edge's path set exactly.

use crate::dtlp::ep_index::PathRef;
use ksp_graph::EdgeId;
use std::collections::HashMap;

/// Number of MinHash hash functions used for signatures.
const NUM_HASHES: usize = 8;
/// Number of LSH bands (each band has `NUM_HASHES / NUM_BANDS` rows).
const NUM_BANDS: usize = 4;

fn mix(x: u64) -> u64 {
    // SplitMix64 finaliser; a good cheap 64-bit mixer.
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn hash_path(p: PathRef, salt: u64) -> u64 {
    mix(((p.pair as u64) << 32 | p.path as u64) ^ mix(salt))
}

/// MinHash + LSH grouping of edges by path-set similarity.
pub(crate) struct MinHashLsh;

impl MinHashLsh {
    /// Groups edges so that edges with similar path sets share a group.
    ///
    /// The input is the EP-Index content as (edge, path list) pairs; the output is a
    /// partition of the edges (every edge appears in exactly one group).
    pub(crate) fn group_edges(edge_paths: &[(EdgeId, Vec<PathRef>)]) -> Vec<Vec<usize>> {
        let n = edge_paths.len();
        if n == 0 {
            return Vec::new();
        }
        // Signature matrix: per edge, NUM_HASHES minhash values.
        let signatures: Vec<[u64; NUM_HASHES]> = edge_paths
            .iter()
            .map(|(_, paths)| {
                let mut sig = [u64::MAX; NUM_HASHES];
                for &p in paths {
                    for (h, slot) in sig.iter_mut().enumerate() {
                        let v = hash_path(p, h as u64);
                        if v < *slot {
                            *slot = v;
                        }
                    }
                }
                sig
            })
            .collect();

        // LSH banding: edges identical in at least one band are unioned.
        let rows_per_band = NUM_HASHES / NUM_BANDS;
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for band in 0..NUM_BANDS {
            let mut buckets: HashMap<u64, usize> = HashMap::new();
            for (i, sig) in signatures.iter().enumerate() {
                let mut key = band as u64;
                for r in 0..rows_per_band {
                    key = mix(key ^ sig[band * rows_per_band + r]);
                }
                match buckets.get(&key) {
                    Some(&j) => {
                        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                        if ri != rj {
                            parent[ri] = rj;
                        }
                    }
                    None => {
                        buckets.insert(key, i);
                    }
                }
            }
        }
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(i);
        }
        let mut out: Vec<Vec<usize>> = groups.into_values().collect();
        out.sort_by_key(|g| g[0]);
        out
    }

    /// Exact Jaccard similarity of two path sets; used by tests to validate grouping.
    #[cfg(test)]
    fn jaccard(a: &[PathRef], b: &[PathRef]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let sa: std::collections::HashSet<_> = a.iter().collect();
        let sb: std::collections::HashSet<_> = b.iter().collect();
        let inter = sa.intersection(&sb).count() as f64;
        let union = sa.union(&sb).count() as f64;
        inter / union
    }
}

/// A node of one MFP-tree.
#[derive(Debug, Clone)]
struct MfpNode {
    /// The bounding path this node represents; `None` for the root and for tail nodes.
    path: Option<PathRef>,
    /// Read only by the lookup, which only tests call; the memory estimate still
    /// prices it, since a tree without parent links could not recover any list.
    #[cfg_attr(not(test), expect(dead_code))]
    parent: Option<u32>,
    children: Vec<u32>,
}

/// One MFP-tree: a prefix tree over path lists, with tail entries per edge.
struct MfpTree {
    nodes: Vec<MfpNode>,
    /// edge → (node index of the last path node of its list, list length).
    tails: HashMap<EdgeId, (u32, u32)>,
}

impl MfpTree {
    fn new() -> Self {
        MfpTree {
            nodes: vec![MfpNode { path: None, parent: None, children: Vec::new() }],
            tails: HashMap::new(),
        }
    }

    /// Inserts an edge's (already frequency-sorted) path list.
    fn insert(&mut self, edge: EdgeId, paths: &[PathRef]) {
        let mut cur = 0u32; // root
        let mut i = 0usize;
        // Follow the longest matching prefix.
        'outer: while i < paths.len() {
            let want = paths[i];
            for &child in &self.nodes[cur as usize].children {
                if self.nodes[child as usize].path == Some(want) {
                    cur = child;
                    i += 1;
                    continue 'outer;
                }
            }
            break;
        }
        // Append the remainder.
        for &p in &paths[i..] {
            let idx = self.nodes.len() as u32;
            self.nodes.push(MfpNode { path: Some(p), parent: Some(cur), children: Vec::new() });
            self.nodes[cur as usize].children.push(idx);
            cur = idx;
        }
        self.tails.insert(edge, (cur, paths.len() as u32));
    }

    /// Recovers the path list of `edge` by walking up from its tail node.
    #[cfg(test)]
    fn paths_of(&self, edge: EdgeId, out: &mut Vec<PathRef>) -> bool {
        let Some(&(mut node, count)) = self.tails.get(&edge) else { return false };
        let start = out.len();
        for _ in 0..count {
            let n = &self.nodes[node as usize];
            out.push(n.path.expect("path nodes below the root carry a PathRef"));
            node = n.parent.expect("walked past the root");
        }
        out[start..].reverse();
        true
    }

    /// Number of nodes (excluding the root).
    #[cfg(test)]
    fn num_nodes(&self) -> usize {
        self.nodes.len() - 1
    }

    fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<MfpNode>()
            + self
                .nodes
                .iter()
                .map(|n| n.children.len() * std::mem::size_of::<u32>())
                .sum::<usize>()
            + self.tails.len() * (std::mem::size_of::<EdgeId>() + 8)
    }
}

/// The forest of MFP-trees for one subgraph (one tree per LSH group), merged under a
/// conceptual empty root as in Figure 13 of the paper.
pub(crate) struct MfpForest {
    trees: Vec<MfpTree>,
    /// edge → tree index (the tree holding its tail).
    edge_tree: HashMap<EdgeId, u32>,
}

impl MfpForest {
    /// Builds the forest from EP-Index content.
    pub(crate) fn build(edge_paths: &[(EdgeId, Vec<PathRef>)]) -> Self {
        let groups = MinHashLsh::group_edges(edge_paths);
        let mut trees = Vec::with_capacity(groups.len());
        let mut edge_tree = HashMap::with_capacity(edge_paths.len());
        for group in groups {
            // Global (within-group) frequency of each path, for the descending sort the
            // paper prescribes — frequent paths near the root maximise prefix sharing.
            let mut freq: HashMap<PathRef, u32> = HashMap::new();
            for &i in &group {
                for &p in &edge_paths[i].1 {
                    *freq.entry(p).or_insert(0) += 1;
                }
            }
            let mut tree = MfpTree::new();
            for &i in &group {
                let (edge, paths) = &edge_paths[i];
                let mut sorted = paths.clone();
                sorted.sort_by(|a, b| {
                    freq[b].cmp(&freq[a]).then_with(|| (a.pair, a.path).cmp(&(b.pair, b.path)))
                });
                tree.insert(*edge, &sorted);
                edge_tree.insert(*edge, trees.len() as u32);
            }
            trees.push(tree);
        }
        MfpForest { trees, edge_tree }
    }

    /// Appends the bounding paths passing through `edge` to `out`.
    #[cfg(test)]
    pub(crate) fn collect_paths_through(&self, edge: EdgeId, out: &mut Vec<PathRef>) {
        if let Some(&t) = self.edge_tree.get(&edge) {
            self.trees[t as usize].paths_of(edge, out);
        }
    }

    /// Number of trees in the forest (LSH groups).
    #[cfg(test)]
    fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Total number of path nodes stored; with effective prefix sharing this is smaller
    /// than the EP-Index entry count.
    #[cfg(test)]
    fn num_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.num_nodes()).sum()
    }

    /// Estimated memory footprint in bytes.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.trees.iter().map(|t| t.memory_bytes()).sum::<usize>()
            + self.edge_tree.len() * (std::mem::size_of::<EdgeId>() + 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(pair: u32, path: u32) -> PathRef {
        PathRef { pair, path }
    }

    fn sample_edge_paths() -> Vec<(EdgeId, Vec<PathRef>)> {
        // Edges 0..3 share most of their paths (like consecutive road segments), edge 9
        // has a disjoint set.
        vec![
            (EdgeId(0), vec![p(0, 0), p(0, 1), p(1, 0)]),
            (EdgeId(1), vec![p(0, 0), p(0, 1), p(1, 0), p(2, 0)]),
            (EdgeId(2), vec![p(0, 0), p(0, 1)]),
            (EdgeId(3), vec![p(0, 0), p(1, 0)]),
            (EdgeId(9), vec![p(7, 0), p(7, 1)]),
        ]
    }

    #[test]
    fn forest_recovers_exact_path_sets() {
        let input = sample_edge_paths();
        let forest = MfpForest::build(&input);
        for (edge, paths) in &input {
            let mut out = Vec::new();
            forest.collect_paths_through(*edge, &mut out);
            let mut expected = paths.clone();
            expected.sort_by_key(|p| (p.pair, p.path));
            out.sort_by_key(|p| (p.pair, p.path));
            assert_eq!(out, expected, "path set of {edge} not preserved");
        }
    }

    #[test]
    fn unknown_edges_yield_nothing() {
        let forest = MfpForest::build(&sample_edge_paths());
        let mut out = Vec::new();
        forest.collect_paths_through(EdgeId(77), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn similar_edges_share_prefix_nodes() {
        let input = sample_edge_paths();
        let forest = MfpForest::build(&input);
        let total_entries: usize = input.iter().map(|(_, ps)| ps.len()).sum();
        assert!(
            forest.num_nodes() < total_entries,
            "expected compression: {} nodes vs {} raw entries",
            forest.num_nodes(),
            total_entries
        );
    }

    #[test]
    fn jaccard_similarity_is_correct() {
        let a = vec![p(0, 0), p(0, 1), p(1, 0)];
        let b = vec![p(0, 0), p(0, 1), p(2, 0)];
        let j = MinHashLsh::jaccard(&a, &b);
        assert!((j - 0.5).abs() < 1e-12);
        assert_eq!(MinHashLsh::jaccard(&[], &[]), 1.0);
    }

    #[test]
    fn grouping_is_a_partition_of_all_edges() {
        let input = sample_edge_paths();
        let groups = MinHashLsh::group_edges(&input);
        let mut covered: Vec<usize> = groups.iter().flatten().copied().collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..input.len()).collect::<Vec<_>>());
    }

    #[test]
    fn highly_similar_edges_usually_land_in_the_same_group() {
        // Two identical path sets must always collide in every band.
        let input = vec![
            (EdgeId(0), vec![p(0, 0), p(0, 1), p(1, 0)]),
            (EdgeId(1), vec![p(0, 0), p(0, 1), p(1, 0)]),
            (EdgeId(2), vec![p(9, 0)]),
        ];
        let groups = MinHashLsh::group_edges(&input);
        let group_of = |i: usize| groups.iter().position(|g| g.contains(&i)).unwrap();
        assert_eq!(group_of(0), group_of(1));
    }

    #[test]
    fn empty_input_builds_an_empty_forest() {
        let forest = MfpForest::build(&[]);
        assert_eq!(forest.num_trees(), 0);
        assert_eq!(forest.num_nodes(), 0);
        assert_eq!(forest.memory_bytes(), 0);
    }

    #[test]
    fn memory_estimate_reflects_compression() {
        // Many edges sharing one long path list should need far less memory per edge
        // than storing the list repeatedly.
        let shared: Vec<PathRef> = (0..20).map(|i| p(i, 0)).collect();
        let input: Vec<(EdgeId, Vec<PathRef>)> =
            (0..50).map(|e| (EdgeId(e), shared.clone())).collect();
        let forest = MfpForest::build(&input);
        assert!(forest.num_nodes() <= 20 * 4, "sharing failed: {} nodes", forest.num_nodes());
    }
}
