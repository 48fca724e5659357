//! Traffic evolution model (Section 6.2 of the paper).
//!
//! The paper uses the time-varying travel-time model of Fleischmann et al. \[5\] to
//! synthesise traffic: at each snapshot a fraction `α` of the edges change weight, and
//! the change stays within a relative range `[-τ, +τ]` of the *initial* weight. All
//! roads follow a similar trend (e.g. a morning rush hour raises travel times across
//! the network), which Section 5.5 relies on when arguing the number of iterations of
//! KSP-DG stays small.
//!
//! [`TrafficModel`] produces a deterministic stream of [`UpdateBatch`]es for a graph:
//! each call to [`TrafficModel::next_snapshot`] selects `α · |E|` edges and assigns
//! them a new weight `w0 · (1 + trend + noise)` clamped to `[w0 · (1 − τ), w0 · (1 + τ)]`
//! and to a small positive floor, where `trend` follows a slow sinusoidal rush-hour
//! cycle shared by all edges and `noise` is per-edge uniform noise.

use crate::rng::Xoshiro256;
use ksp_graph::{DynamicGraph, EdgeId, UpdateBatch, Weight, WeightUpdate};

/// Configuration of the traffic model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Fraction of edges whose weight changes at each snapshot (the paper's `α`).
    pub alpha: f64,
    /// Relative range of weight variation (the paper's `τ`): new weights stay within
    /// `[w0·(1−τ), w0·(1+τ)]`.
    pub tau: f64,
    /// Number of snapshots in one full trend cycle (rush hour period). The default of
    /// 48 corresponds to half-hourly snapshots over a day.
    pub cycle_length: u32,
    /// When `true`, the two directions of a directed road receive identical changes
    /// (the paper uses identical changes to simulate undirected CUSA and independent
    /// changes for the directed variant).
    pub mirror_directions: bool,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        // The paper's defaults: α = 35 %, τ = 30 %.
        TrafficConfig { alpha: 0.35, tau: 0.30, cycle_length: 48, mirror_directions: false }
    }
}

impl TrafficConfig {
    /// Creates a configuration with the given `α` and `τ` and defaults elsewhere.
    pub fn new(alpha: f64, tau: f64) -> Self {
        TrafficConfig { alpha, tau, ..Default::default() }
    }

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.alpha),
            "alpha must be within [0, 1], got {}",
            self.alpha
        );
        assert!((0.0..=1.0).contains(&self.tau), "tau must be within [0, 1], got {}", self.tau);
        assert!(self.cycle_length > 0, "cycle length must be positive");
    }
}

/// Deterministic generator of traffic-update snapshots for a particular graph.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    config: TrafficConfig,
    rng: Xoshiro256,
    /// Initial weights of all edges, captured at model construction.
    initial_weights: Vec<u32>,
    /// For directed graphs with mirrored directions: the id of the opposite edge.
    reverse_edge: Vec<Option<EdgeId>>,
    snapshot_index: u64,
}

impl TrafficModel {
    /// Creates a traffic model for `graph` with the given configuration and seed.
    pub fn new(graph: &DynamicGraph, config: TrafficConfig, seed: u64) -> Self {
        config.validate();
        let initial_weights = graph.edges().map(|(_, e)| e.initial_weight).collect();
        let reverse_edge = if config.mirror_directions && graph.is_directed() {
            graph.edges().map(|(_, e)| graph.edge_between(e.v, e.u)).collect()
        } else {
            vec![None; graph.num_edges()]
        };
        TrafficModel {
            config,
            rng: Xoshiro256::seed_from_u64(seed ^ 0x7AFF_1C00),
            initial_weights,
            reverse_edge,
            snapshot_index: 0,
        }
    }

    /// The configuration of this model.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// Number of snapshots generated so far.
    pub fn snapshots_generated(&self) -> u64 {
        self.snapshot_index
    }

    /// Generates the next snapshot of weight updates.
    ///
    /// The returned batch changes `α · |E|` distinct edges. The caller applies it to
    /// the master graph (and/or routes the per-edge updates to the owning workers).
    pub fn next_snapshot(&mut self) -> UpdateBatch {
        let m = self.initial_weights.len();
        let count = ((m as f64) * self.config.alpha).round() as usize;
        let chosen = self.rng.sample_indices(m, count);

        // Shared trend: a slow sinusoid over the cycle, scaled to use up to 60 % of τ,
        // so that all changed edges move in a similar direction (Section 5.5).
        let phase = (self.snapshot_index % self.config.cycle_length as u64) as f64
            / self.config.cycle_length as f64;
        let trend = 0.6 * self.config.tau * (2.0 * std::f64::consts::PI * phase).sin();

        let mut updates = Vec::with_capacity(chosen.len());
        let mut touched = vec![false; m];
        for idx in chosen {
            if touched[idx] {
                continue;
            }
            let w0 = self.initial_weights[idx] as f64;
            let noise = self.rng.next_range_f64(-0.4 * self.config.tau, 0.4 * self.config.tau);
            let factor = (1.0 + trend + noise).clamp(1.0 - self.config.tau, 1.0 + self.config.tau);
            let new_weight = Weight::new((w0 * factor).max(0.1));
            touched[idx] = true;
            updates.push(WeightUpdate::new(EdgeId(idx as u32), new_weight));
            if let Some(rev) = self.reverse_edge[idx] {
                if !touched[rev.index()] {
                    touched[rev.index()] = true;
                    updates.push(WeightUpdate::new(rev, new_weight));
                }
            }
        }
        self.snapshot_index += 1;
        UpdateBatch::new(updates)
    }

    /// Generates `count` consecutive snapshots.
    pub fn snapshots(&mut self, count: usize) -> Vec<UpdateBatch> {
        (0..count).map(|_| self.next_snapshot()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{RoadNetworkConfig, RoadNetworkGenerator};

    fn network(n: usize) -> DynamicGraph {
        RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n)).generate(5).unwrap().graph
    }

    #[test]
    fn snapshot_changes_roughly_alpha_fraction_of_edges() {
        let g = network(600);
        let mut model = TrafficModel::new(&g, TrafficConfig::new(0.35, 0.3), 1);
        let batch = model.next_snapshot();
        let expected = (g.num_edges() as f64 * 0.35).round() as usize;
        assert!(
            (batch.len() as i64 - expected as i64).unsigned_abs() as usize <= expected / 10 + 1,
            "expected about {expected} updates, got {}",
            batch.len()
        );
    }

    #[test]
    fn updates_respect_the_tau_envelope_around_initial_weight() {
        let g = network(600);
        let tau = 0.3;
        let mut model = TrafficModel::new(&g, TrafficConfig::new(0.5, tau), 7);
        for batch in model.snapshots(10) {
            for u in batch.iter() {
                let w0 = g.initial_weight(u.edge) as f64;
                let w = u.new_weight.value();
                assert!(
                    w >= w0 * (1.0 - tau) - 1e-9 && w <= w0 * (1.0 + tau) + 1e-9,
                    "weight {w} outside envelope for w0 {w0}"
                );
                assert!(w > 0.0);
            }
        }
    }

    #[test]
    fn each_edge_updated_at_most_once_per_snapshot() {
        let g = network(400);
        let mut model = TrafficModel::new(&g, TrafficConfig::new(0.8, 0.5), 3);
        let batch = model.next_snapshot();
        let mut ids: Vec<u32> = batch.iter().map(|u| u.edge.0).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn alpha_zero_produces_empty_batches() {
        let g = network(300);
        let mut model = TrafficModel::new(&g, TrafficConfig::new(0.0, 0.3), 3);
        assert!(model.next_snapshot().is_empty());
    }

    #[test]
    fn model_is_deterministic_for_seed() {
        let g = network(300);
        let mut a = TrafficModel::new(&g, TrafficConfig::default(), 9);
        let mut b = TrafficModel::new(&g, TrafficConfig::default(), 9);
        assert_eq!(a.next_snapshot(), b.next_snapshot());
        assert_eq!(a.snapshots_generated(), 1);
    }

    #[test]
    fn mirrored_directed_updates_keep_directions_identical() {
        let cfg = RoadNetworkConfig::with_vertices(200).directed();
        let g = RoadNetworkGenerator::new(cfg).generate(11).unwrap().graph;
        let traffic_cfg = TrafficConfig { mirror_directions: true, ..TrafficConfig::new(0.5, 0.4) };
        let mut model = TrafficModel::new(&g, traffic_cfg, 21);
        let batch = model.next_snapshot();
        // Apply to a clone and verify both directions end up identical where both exist.
        let mut g2 = g.clone();
        g2.apply_batch(&batch).unwrap();
        for (_, e) in g2.edges() {
            if let Some(rev) = g2.edge_between(e.v, e.u) {
                assert!(g2.weight(rev).approx_eq(e.current_weight));
            }
        }
    }

    #[test]
    fn trend_moves_weights_in_a_common_direction() {
        let g = network(500);
        // Use a snapshot index in the first quarter of the cycle, where the trend is
        // positive, and check that clearly more weights increase than decrease.
        let mut model = TrafficModel::new(&g, TrafficConfig::new(0.6, 0.5), 17);
        let _ = model.next_snapshot(); // phase 0 (trend 0)
        let batch = model.next_snapshot(); // phase 1/48 > 0 -> positive trend
        let mut up = 0;
        let mut down = 0;
        for u in batch.iter() {
            let w0 = g.initial_weight(u.edge) as f64;
            if u.new_weight.value() > w0 {
                up += 1;
            } else if u.new_weight.value() < w0 {
                down += 1;
            }
        }
        assert!(up > down, "expected a majority of increases, got {up} up vs {down} down");
    }

    #[test]
    #[should_panic(expected = "alpha must be within")]
    fn invalid_alpha_is_rejected() {
        let g = network(200);
        let _ = TrafficModel::new(&g, TrafficConfig::new(1.5, 0.3), 1);
    }
}
