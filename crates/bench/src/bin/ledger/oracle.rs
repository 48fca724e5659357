//! The oracle: Yen's algorithm on the whole graph of the epoch an answer
//! reports. It runs after the timed phases, never inside one.
//!
//! Distances are compared bit for bit where the graph's weights are still
//! the generator's integers (every sum is exact). After an update they are
//! products like `7 × 0.8313…`, KSP-DG adds the same edges in a different
//! order than Yen does (partial paths are summed first, then joined), and the
//! two totals may differ in the last bits; there the comparison allows the
//! relative 1e-9 of `Weight::approx_eq`, which the repository's own engine
//! tests use against Yen, and additionally requires the reported distance to
//! match the path's own edges on that epoch's graph.
//!
//! Every check is strict, and an answer falls into one of three classes.
//! *Exact*: Yen's answer. *Wrong*: anything a correct engine cannot return —
//! a path that is not simple, not in the graph, not between the query's ends,
//! out of order, reporting a distance its edges do not add up to, shorter
//! than the oracle's, or a first path that is not the shortest; it counts in
//! `failed` and fails the run. *Suboptimal*: after an update, every path
//! valid and the first one optimal, but a later path longer than the oracle's
//! — the seed commit's engine now and then stops one reference path early and
//! returns a k-th path that is not the k-th shortest (`v67 -> v223` at epoch
//! 74 of the seed-301 global stream gets 75.404 for a third path where Yen
//! finds 74.761; asking for k = 4 returns both). That defect predates the
//! benchmark and is ROADMAP item 4's to fix, so it is *measured*, not
//! tolerated: every such answer lowers the end-to-end metric `exact_share`
//! and is printed, and a change that adds one more shows in that number.

use crate::inputs::BatchSource;
use crate::loadgen::Sampled;
use ksp_algo::{yen_ksp, Path};
use ksp_graph::DynamicGraph;
use ksp_proto::QueryKey;
use std::collections::HashSet;

/// At most this many distinct answers are verified per run (evenly spaced
/// among the sampled ones); one check costs a whole-graph Yen run.
pub const MAX_CHECKS: usize = 1500;

#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Exactly Yen's answer.
    Exact,
    /// A valid answer after an update whose first path is optimal and whose
    /// later paths are not all the shortest ones; says which.
    Suboptimal(String),
    /// Anything else; says why.
    Wrong(String),
}

/// Compares `paths`, the answer to `key` on `graph`, with Yen's.
pub fn check_answer(graph: &DynamicGraph, key: QueryKey, paths: &[Path]) -> Verdict {
    check_against(graph, key, paths, &yen_ksp(graph, key.source, key.target, key.k))
}

fn check_against(
    graph: &DynamicGraph,
    key: QueryKey,
    paths: &[Path],
    expected: &[Path],
) -> Verdict {
    if paths.len() != expected.len() {
        return Verdict::Wrong(format!(
            "{} paths, the oracle finds {}",
            paths.len(),
            expected.len()
        ));
    }
    let exact = graph.version() == 0;
    let mut longer = None;
    for (i, (got, want)) in paths.iter().zip(expected).enumerate() {
        if got.source() != key.source || got.target() != key.target {
            return Verdict::Wrong(format!("path {i} runs {} -> {}", got.source(), got.target()));
        }
        if !Path::is_simple(got.vertices()) {
            return Verdict::Wrong(format!("path {i} repeats a vertex"));
        }
        if i > 0 && got.distance() < paths[i - 1].distance() {
            return Verdict::Wrong(format!("path {i} is shorter than path {}", i - 1));
        }
        let (d, e) = (got.distance(), want.distance());
        match got.recompute_distance(graph) {
            Some(own) if own.approx_eq(d) => {}
            Some(own) => {
                return Verdict::Wrong(format!("path {i} reports {d} but its edges sum to {own}"))
            }
            None => {
                return Verdict::Wrong(format!("path {i} uses an edge the graph does not have"))
            }
        }
        let same = if exact { d.value().to_bits() == e.value().to_bits() } else { d.approx_eq(e) };
        if !same {
            let why = format!("path {i} has distance {d}, the oracle's is {e}");
            if exact || i == 0 || d < e {
                return Verdict::Wrong(why);
            }
            longer.get_or_insert(why);
        }
    }
    longer.map_or(Verdict::Exact, Verdict::Suboptimal)
}

/// Rebuilds each epoch's graph from the workload's batch stream and checks
/// sampled answers against it.
pub struct Oracle {
    graph: DynamicGraph,
    batches: BatchSource,
    /// Answers compared with Yen's.
    pub checked: u64,
    /// What fails the run: one line per wrong answer or other failure.
    pub wrong: Vec<String>,
    /// One line per suboptimal answer.
    pub suboptimal: Vec<String>,
}

impl Oracle {
    /// `graph` is the epoch-0 graph and `batches` a fresh stream of the
    /// batches the run published, in order.
    pub fn new(graph: &DynamicGraph, batches: BatchSource) -> Self {
        Oracle {
            graph: graph.clone(),
            batches,
            checked: 0,
            wrong: Vec::new(),
            suboptimal: Vec::new(),
        }
    }

    /// The graph at `epoch`, which must not be below an epoch asked for before.
    pub fn graph_at(&mut self, epoch: u64) -> &DynamicGraph {
        assert!(epoch >= self.graph.version(), "the oracle only walks forward");
        while self.graph.version() < epoch {
            let batch = self.batches.next_batch();
            self.graph = self.graph.with_batch(&batch).expect("the run published this batch");
        }
        &self.graph
    }

    /// Checks up to `MAX_CHECKS` of `samples`, duplicates removed.
    pub fn verify(&mut self, universe: &[QueryKey], mut samples: Vec<Sampled>) {
        let mut seen = HashSet::new();
        samples.retain(|s| seen.insert((s.key, s.answer.epoch)));
        samples.sort_by_key(|s| (s.answer.epoch, s.key));
        let stride = samples.len().div_ceil(MAX_CHECKS).max(1);
        for sample in samples.iter().step_by(stride) {
            let key = universe[sample.key as usize];
            let epoch = sample.answer.epoch;
            self.check(key, epoch, &sample.answer.paths, "");
        }
    }

    /// Checks one answer to `key` on `epoch` (not below an epoch asked for
    /// before); `context` says where the answer came from.
    pub fn check(&mut self, key: QueryKey, epoch: u64, paths: &[Path], context: &str) {
        let verdict = check_answer(self.graph_at(epoch), key, paths);
        self.checked += 1;
        let describe = |why: String| {
            format!(
                "{context}{} -> {} (k = {}) at epoch {epoch}: {why}",
                key.source, key.target, key.k
            )
        };
        match verdict {
            Verdict::Exact => {}
            Verdict::Suboptimal(why) => self.suboptimal.push(describe(why)),
            Verdict::Wrong(why) => self.wrong.push(describe(why)),
        }
    }

    /// Records a failure that is not an answer's (a store that does not
    /// reopen, say).
    pub fn fail(&mut self, why: String) {
        self.wrong.push(why);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{network, BatchKind, Dataset, Scale};
    use ksp_graph::Weight;

    #[test]
    fn accepts_yen_and_rejects_a_corrupted_distance() {
        let Dataset { graph, pairs, .. } = Dataset::generate(&Scale::quick());
        let key = pairs[0];
        let good = yen_ksp(&graph, key.source, key.target, key.k);
        assert_eq!(good.len(), key.k);
        assert_eq!(check_answer(&graph, key, &good), Verdict::Exact);
        let wrong = |v: Verdict, what: &str| match v {
            Verdict::Wrong(why) => assert!(why.contains(what), "{why} does not mention {what}"),
            other => panic!("{other:?} should be wrong ({what})"),
        };

        // One ulp off at epoch 0 is a wrong answer, whichever side is off: a
        // corrupted *expected* distance fails the run just the same.
        let mut off = good.clone();
        let d = off[1].distance().value();
        off[1] = off[1].with_distance(Weight::new(f64::from_bits(d.to_bits() + 1)));
        wrong(check_answer(&graph, key, &off), "distance");
        wrong(check_against(&graph, key, &good, &off), "distance");

        wrong(check_answer(&graph, key, &good[..2]), "paths");
        if good[0].distance() != good[2].distance() {
            let mut swapped = good.clone();
            swapped.swap(0, 2);
            wrong(check_answer(&graph, key, &swapped), "distance");
        }
        if graph.edge_between(key.source, key.target).is_none() {
            let mut fake = good.clone();
            fake[0] = Path::new(vec![key.source, key.target], good[0].distance());
            wrong(check_answer(&graph, key, &fake), "edge");
        }
    }

    #[test]
    fn after_an_update_a_longer_later_path_is_suboptimal_and_nothing_else_is() {
        let Dataset { graph, pairs, .. } = Dataset::generate(&Scale::quick());
        let graph = graph.with_batch(&BatchSource::new(BatchKind::Global, &graph, 1).next_batch());
        let graph = graph.unwrap();
        let key = QueryKey { k: 4, ..pairs[0] };
        let four = yen_ksp(&graph, key.source, key.target, 4);
        let key = QueryKey { k: 3, ..key };
        assert!(four[2].distance() < four[3].distance(), "pick a query without a tie here");
        assert_eq!(check_answer(&graph, key, &four[..3]), Verdict::Exact);
        // The engine's defect: third path skipped, fourth returned in its place.
        let skipped = [four[0].clone(), four[1].clone(), four[3].clone()];
        assert!(matches!(check_answer(&graph, key, &skipped), Verdict::Suboptimal(_)));
        // A first path that is not the shortest is wrong, not suboptimal ...
        let late = [four[1].clone(), four[2].clone(), four[3].clone()];
        assert!(matches!(check_answer(&graph, key, &late), Verdict::Wrong(_)));
        // ... and so is a distance below the oracle's, or one the edges do not add up to.
        let mut short = four[..3].to_vec();
        short[2] = short[2].with_distance(short[1].distance());
        assert!(matches!(check_answer(&graph, key, &short), Verdict::Wrong(_)));

        // Each one is counted on its own list; none is waved through.
        let epoch0 = network(&Scale::quick());
        let mut oracle = Oracle::new(&epoch0, BatchSource::new(BatchKind::Global, &epoch0, 1));
        oracle.check(key, 1, &four[..3], "");
        oracle.check(key, 1, &skipped, "");
        oracle.check(key, 1, &late, "");
        assert_eq!((oracle.checked, oracle.suboptimal.len(), oracle.wrong.len()), (3, 1, 1));
    }

    #[test]
    fn walks_the_batch_stream_to_the_epoch_asked_for() {
        let graph = network(&Scale::quick());
        let mut oracle = Oracle::new(&graph, BatchSource::new(BatchKind::Global, &graph, 5));
        let mut by_hand = graph.clone();
        let mut stream = BatchSource::new(BatchKind::Global, &graph, 5);
        for _ in 0..3 {
            by_hand = by_hand.with_batch(&stream.next_batch()).unwrap();
        }
        assert_eq!(oracle.graph_at(3).version(), 3);
        assert_eq!(oracle.graph_at(3).total_weight(), by_hand.total_weight());
        assert_ne!(graph.total_weight(), by_hand.total_weight());
    }
}
