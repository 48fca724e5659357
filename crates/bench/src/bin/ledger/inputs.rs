//! Inputs: the dataset, the four workloads, and what `--seed` decides.
//!
//! The *dataset* — road network and query logs — is fixed, as the paper's road
//! networks are: one cold KSP-DG query costs anywhere from 0.3 ms to 1.5 s
//! (the slowest 1 % carry a quarter of all time), so a run that drew fresh
//! queries per seed would report the luck of the draw, ±10 % on throughput at
//! any run length the contract allows. What `--seed` decides is the *traffic*:
//! the order requests arrive in, which connection carries which, and every
//! global update batch. A workload is a cycle — a fixed multiset of requests
//! in seeded order — and a run measures whole cycles, so two seeds do the
//! same work in a different order.
//!
//! There are two query logs, both drawn by rules that look at the network
//! alone — never at the index, its partition or what the engine answers — so
//! a change to the system under test cannot change the questions. `pairs`
//! holds uniform `(s, t)` pairs, about 25 hops apart on average. `trips`
//! holds trips 3 to 10 hops long, every length equally often: the workloads
//! that read *after* updates draw from it. At ξ = 2 the index's lower bounds
//! loosen once weights have moved, and what a cold query then costs grows
//! with its length: after 100 incidents a 5-hop trip costs 2 times what it
//! cost at epoch 0, a 10-hop trip 9 times (16 ms, 48 ms worst), a 14-hop trip
//! 90 times (370 ms, 2.8 s worst), and a uniform pair 1.5 s on average and
//! 79 s at worst in the sizing pass. Ten hops is as far as a twenty-second
//! window carries: the slow path is in the measurement — nine tenths of what
//! misses cost on `mixed_churn` goes to trips of 7 hops and more — and no
//! single request outlasts a repetition.

use ksp_graph::{DynamicGraph, EdgeId, UpdateBatch, VertexId, Weight, WeightUpdate};
use ksp_proto::QueryKey;
use ksp_workload::{
    RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig, TrafficModel, Xoshiro256,
};
use std::time::Duration;

/// Seed of the dataset (network and query log); not an argument.
pub const DATASET_SEED: u64 = 2020;
/// Paths asked for by every query.
pub const K: usize = 3;
/// Fewest and most hops between the ends of a trip.
pub const TRIP_HOPS: (usize, usize) = (3, 10);
/// Shards of every service, as ISSUE 16 fixes them.
pub const SHARDS: usize = 2;
/// The most connections to a server, and the most threads the generator uses.
pub const CONNECTIONS: usize = 2;

/// Every request count in one place. `full` is what `BENCHMARK.json` runs;
/// `quick` is the self-tests' scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub vertices: usize,
    /// DTLP subgraph size `z` (ξ is always 2).
    pub z: usize,
    pub cold_universe: usize,
    /// Per-shard cache capacity of the cold workload: 1, the smallest the
    /// service takes, so that replaying the universe cycle after cycle misses
    /// every time. (Anything larger lets the cache's trace-weighted eviction
    /// keep the few smallest answers for a whole cycle.)
    pub cold_cache: usize,
    pub hot_universe: usize,
    /// Requests per cycle for the most popular hot query.
    pub hot_top: f64,
    pub mixed_universe: usize,
    pub mixed_top: f64,
    pub mixed_cache: usize,
    /// Publishes per cycle of the mixed workload, evenly spaced among its
    /// reads: one per 120 ms or so at the seed commit's speed.
    pub mixed_publishes: usize,
    /// Local batches published before the mixed workload's warm-up, so that
    /// every subgraph has been updated before anything is measured.
    pub mixed_prelude: usize,
    pub storm_hot: usize,
    /// Publishes per repetition of the update storm.
    pub storm_cycle: usize,
    pub ladder_reads: usize,
    pub ladder_writes: usize,
    /// Set-ups per run; the median is `setup_s`.
    pub setup_repeats: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            vertices: 1200,
            z: 50,
            cold_universe: 240,
            cold_cache: 1,
            hot_universe: 128,
            hot_top: 100.0,
            mixed_universe: 120,
            mixed_top: 120.0,
            mixed_cache: 32,
            mixed_publishes: 8,
            mixed_prelude: 100,
            storm_hot: 64,
            storm_cycle: 96,
            ladder_reads: 32,
            ladder_writes: 48,
            setup_repeats: 5,
        }
    }

    pub fn quick() -> Self {
        Scale {
            vertices: 200,
            z: 20,
            cold_universe: 60,
            cold_cache: 1,
            hot_universe: 16,
            hot_top: 40.0,
            mixed_universe: 40,
            mixed_top: 12.0,
            mixed_cache: 8,
            mixed_publishes: 3,
            mixed_prelude: 30,
            storm_hot: 8,
            storm_cycle: 40,
            ladder_reads: 12,
            ladder_writes: 36,
            setup_repeats: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdUniform,
    HotZipf,
    MixedChurn,
    UpdateStorm,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ColdUniform, Workload::HotZipf, Workload::MixedChurn, Workload::UpdateStorm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdUniform => "cold_uniform",
            Workload::HotZipf => "hot_zipf",
            Workload::MixedChurn => "mixed_churn",
            Workload::UpdateStorm => "update_storm",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    /// The paper's default: `TrafficModel` with α = 0.35, τ = 0.30 — about a
    /// third of all edges, spread over the whole network.
    Global,
    /// Every edge within three hops of a seeded random centre, new weight =
    /// initial × U[0.7, 1.3] — an incident, not a rush hour.
    Local,
}

/// Who reads and who writes during the measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Closed-loop readers on every connection, no writer.
    Readers,
    /// Closed-loop readers on every connection; a batch is published ahead of
    /// every `publish_every`-th request of a cycle, the first included, by
    /// the connection that draws it.
    ReadersAndWriter { publish_every: usize },
    /// One closed-loop writer; the other connection reads on an absolute
    /// schedule.
    WriterAndScheduledReader { read_every: Duration },
}

/// One workload's inputs for one seed.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// The distinct queries this workload draws from (a prefix of the log).
    pub universe: Vec<QueryKey>,
    /// One cycle of requests, as indices into `universe`, in seeded order.
    pub cycle: Vec<u32>,
    /// Requests issued before measurement starts, as indices into `universe`.
    pub warmup: Vec<u32>,
    /// Publishes per repetition where a connection publishes back to back.
    pub publish_cycle: usize,
    /// Batches published, unmeasured, before the warm-up reads: enough that
    /// the index is in the state updates leave it in, not the state the build
    /// left it in (see the module comment on what the first update costs).
    pub prelude: usize,
    /// `ServiceConfig::cache_capacity` override; `None` keeps the default.
    pub cache_capacity: Option<usize>,
    /// Whether the service runs over a durable store.
    pub persistent: bool,
    /// The kind of update this workload publishes; workloads that publish
    /// nothing still name one, for the write ladder of the traced run.
    pub batches: BatchKind,
    pub traffic: Traffic,
    /// Connections the generator opens.
    pub connections: usize,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, scale: &Scale, dataset: &Dataset) -> Plan {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x1ED6_E200);
        // What most workloads share; each arm below says what differs.
        let base = |universe: &[QueryKey], cycle: Vec<u32>| Plan {
            workload,
            seed,
            universe: universe.to_vec(),
            cycle,
            warmup: Vec::new(),
            publish_cycle: 0,
            prelude: 0,
            cache_capacity: None,
            persistent: false,
            batches: BatchKind::Global,
            traffic: Traffic::Readers,
            connections: CONNECTIONS,
        };
        match workload {
            Workload::ColdUniform => {
                let n = scale.cold_universe;
                let cycle = uniform_cycle(n, &mut rng);
                Plan {
                    // The tail of the cycle, so the measured cycle's first
                    // requests are as far from their last use as every other.
                    warmup: cycle[n - n.min(32)..].to_vec(),
                    cache_capacity: Some(scale.cold_cache),
                    ..base(&dataset.pairs[..n], cycle)
                }
            }
            Workload::HotZipf => {
                let n = scale.hot_universe;
                let cycle = zipf_cycle(n, 1.0, scale.hot_top, &mut rng);
                Plan {
                    // Every key once: the caches hold the whole universe.
                    warmup: (0..n as u32).collect(),
                    batches: BatchKind::Local,
                    ..base(&dataset.pairs[..n], cycle)
                }
            }
            Workload::MixedChurn => {
                let n = scale.mixed_universe;
                let cycle = zipf_cycle(n, 1.1, scale.mixed_top, &mut rng);
                let publish_every = cycle.len().div_ceil(scale.mixed_publishes);
                Plan {
                    // A whole cycle, which leaves the caches in the state
                    // every later cycle starts from.
                    warmup: cycle.clone(),
                    prelude: scale.mixed_prelude,
                    cache_capacity: Some(scale.mixed_cache),
                    batches: BatchKind::Local,
                    traffic: Traffic::ReadersAndWriter { publish_every },
                    // One reader, as ISSUE 16 has it. With two, the median
                    // read is a hit that finds its shard's worker busy with
                    // the other connection's miss and waits for the other
                    // shard's idle worker to steal it at its next poll: 0.6
                    // ms whatever the host's speed — a timer of the service
                    // (`STEAL_POLL`), which a correction for speed can only
                    // make worse.
                    connections: 1,
                    ..base(&dataset.trips[..n], cycle)
                }
            }
            Workload::UpdateStorm => {
                let n = scale.storm_hot;
                Plan {
                    warmup: (0..n as u32).collect(),
                    publish_cycle: scale.storm_cycle,
                    // One global batch moves a third of all edges in every
                    // subgraph; eight leave nothing as the build left it.
                    prelude: 8,
                    persistent: true,
                    traffic: Traffic::WriterAndScheduledReader {
                        read_every: Duration::from_millis(20),
                    },
                    ..base(&dataset.trips[..n], uniform_cycle(n, &mut rng))
                }
            }
        }
    }

    /// A fresh stream of this workload's update batches. Two sources made
    /// with the same arguments yield the same batches, so the oracle replays
    /// the stream rather than the run keeping every batch it sent.
    pub fn batch_source(&self, graph: &DynamicGraph) -> BatchSource {
        // Global batches follow the run's seed. Local batches are the
        // dataset's incident log, the same for every seed: what a cold query
        // costs after updates depends on exactly which weights moved where
        // (±30 % between incident streams in the sizing pass), and that is
        // the engine's business, not the luck of a run.
        let seed = match self.batches {
            BatchKind::Global => self.seed,
            BatchKind::Local => DATASET_SEED,
        };
        BatchSource::new(self.batches, graph, seed)
    }
}

/// The road network. Generating it is part of set-up time.
pub fn network(scale: &Scale) -> DynamicGraph {
    RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(scale.vertices))
        .generate(DATASET_SEED)
        .expect("the road-network generator accepts every positive size")
        .graph
}

/// The fixed inputs: the epoch-0 network and the two query logs.
pub struct Dataset {
    pub graph: DynamicGraph,
    /// Distinct uniform `(s, t)` pairs, `s != t`.
    pub pairs: Vec<QueryKey>,
    /// Distinct trips: `s` uniform, the hop count uniform within `TRIP_HOPS`,
    /// `t` uniform among the vertices that many hops from `s`.
    pub trips: Vec<QueryKey>,
}

impl Dataset {
    pub fn generate(scale: &Scale) -> Dataset {
        let graph = network(scale);
        let vertices = graph.num_vertices() as u64;
        let pairs_wanted = scale.cold_universe.max(scale.hot_universe);
        let trips_wanted = scale.mixed_universe.max(scale.storm_hot);
        let mut rng = Xoshiro256::seed_from_u64(DATASET_SEED ^ 0x0106);
        let mut seen = std::collections::HashSet::new();
        let mut pairs = Vec::with_capacity(pairs_wanted);
        while pairs.len() < pairs_wanted {
            let s = VertexId(rng.next_bounded(vertices) as u32);
            let t = VertexId(rng.next_bounded(vertices) as u32);
            if s != t && seen.insert((s, t)) {
                pairs.push(QueryKey::new(s, t, K));
            }
        }
        let mut trips = Vec::with_capacity(trips_wanted);
        let lengths = (TRIP_HOPS.1 - TRIP_HOPS.0 + 1) as u64;
        while trips.len() < trips_wanted {
            let s = VertexId(rng.next_bounded(vertices) as u32);
            let hops = TRIP_HOPS.0 + rng.next_bounded(lengths) as usize;
            let rings = hop_rings(&graph, s, hops);
            // Nothing is that far from `s` in a corner of a small network.
            let Some(ring) = rings.get(hops).filter(|ring| !ring.is_empty()) else { continue };
            let t = ring[rng.next_bounded(ring.len() as u64) as usize];
            if seen.insert((s, t)) {
                trips.push(QueryKey::new(s, t, K));
            }
        }
        Dataset { graph, pairs, trips }
    }
}

/// `rings[d]` = the vertices exactly `d` hops from `centre`, each ring in
/// ascending id order, for `d` in `0..=hops`.
fn hop_rings(graph: &DynamicGraph, centre: VertexId, hops: usize) -> Vec<Vec<VertexId>> {
    let mut seen = std::collections::HashSet::from([centre]);
    let mut rings = vec![vec![centre]];
    for _ in 0..hops {
        let mut next = Vec::new();
        for &v in rings.last().expect("rings starts non-empty") {
            for &(u, _) in graph.adjacency(v) {
                if seen.insert(u) {
                    next.push(u);
                }
            }
        }
        next.sort_unstable();
        rings.push(next);
    }
    rings
}

/// One cycle over `n` keys, each once, in drawn order.
pub fn uniform_cycle(n: usize, rng: &mut Xoshiro256) -> Vec<u32> {
    let mut cycle: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut cycle);
    cycle
}

/// One cycle of a Zipf(`s`) mix over `n` keys with *exact* frequencies: the
/// key of rank `r` (1-based) appears `max(1, round(top / r^s))` times, and
/// only the order is drawn. Sampling ranks independently instead would let
/// the draw decide how often the expensive keys come up.
pub fn zipf_cycle(n: usize, s: f64, top: f64, rng: &mut Xoshiro256) -> Vec<u32> {
    let mut cycle = Vec::new();
    for rank in 1..=n {
        let times = (top / (rank as f64).powf(s)).round().max(1.0) as usize;
        cycle.extend(std::iter::repeat_n(rank as u32 - 1, times));
    }
    rng.shuffle(&mut cycle);
    cycle
}

/// A deterministic stream of update batches of one kind.
pub struct BatchSource {
    kind: BatchKind,
    traffic: TrafficModel,
    rng: Xoshiro256,
    /// The epoch-0 graph: topology and initial weights for local batches.
    graph: DynamicGraph,
}

impl BatchSource {
    pub fn new(kind: BatchKind, graph: &DynamicGraph, seed: u64) -> Self {
        BatchSource {
            kind,
            traffic: TrafficModel::new(graph, TrafficConfig::default(), seed),
            rng: Xoshiro256::seed_from_u64(seed ^ 0x0BA7_C4E5),
            graph: graph.clone(),
        }
    }

    pub fn next_batch(&mut self) -> UpdateBatch {
        match self.kind {
            BatchKind::Global => self.traffic.next_snapshot(),
            BatchKind::Local => self.local_batch(),
        }
    }

    fn local_batch(&mut self) -> UpdateBatch {
        let centre = VertexId(self.rng.next_bounded(self.graph.num_vertices() as u64) as u32);
        let near: std::collections::BTreeSet<VertexId> =
            hop_rings(&self.graph, centre, 3).into_iter().flatten().collect();
        let mut edges: Vec<EdgeId> = near
            .iter()
            .flat_map(|&v| self.graph.adjacency(v).iter())
            .filter(|(u, _)| near.contains(u))
            .map(|&(_, e)| e)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
            .into_iter()
            .map(|e| {
                let factor = self.rng.next_range_f64(0.7, 1.3);
                WeightUpdate::new(e, Weight::new(f64::from(self.graph.initial_weight(e)) * factor))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cycle_has_exact_frequencies_in_seeded_order() {
        let a = zipf_cycle(10, 1.0, 20.0, &mut Xoshiro256::seed_from_u64(1));
        let b = zipf_cycle(10, 1.0, 20.0, &mut Xoshiro256::seed_from_u64(2));
        assert_ne!(a, b, "the seed decides the order");
        let count = |c: &[u32], key: u32| c.iter().filter(|&&k| k == key).count();
        for cycle in [&a, &b] {
            assert_eq!(count(cycle, 0), 20);
            assert_eq!(count(cycle, 1), 10);
            assert_eq!(count(cycle, 3), 5);
            assert_eq!(count(cycle, 9), 2);
        }
        let mut sorted = (a.clone(), b.clone());
        sorted.0.sort_unstable();
        sorted.1.sort_unstable();
        assert_eq!(sorted.0, sorted.1, "every seed does the same work");
    }

    #[test]
    fn same_seed_same_inputs_and_the_dataset_ignores_the_seed() {
        let scale = Scale::quick();
        let data = Dataset::generate(&scale);
        let again = Dataset::generate(&scale);
        assert_eq!((&data.pairs, &data.trips), (&again.pairs, &again.trips));
        for trip in &data.trips {
            let rings = hop_rings(&data.graph, trip.source, TRIP_HOPS.1);
            let hops = rings.iter().position(|ring| ring.contains(&trip.target));
            assert!(hops.is_some_and(|h| h >= TRIP_HOPS.0), "{trip:?} is {hops:?} hops");
        }
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let (a, b) = (Plan::new(w, 9, &scale, &data), Plan::new(w, 9, &scale, &data));
            assert_eq!((&a.cycle, &a.warmup), (&b.cycle, &b.warmup));
            assert_eq!(a.universe, Plan::new(w, 10, &scale, &data).universe);
            assert_ne!(a.cycle, Plan::new(w, 10, &scale, &data).cycle);
            let first = |p: &Plan| {
                let mut source = p.batch_source(&data.graph);
                (source.next_batch(), source.next_batch())
            };
            assert_eq!(first(&a), first(&b));
            assert!(!first(&a).0.is_empty() && first(&a).0 != first(&a).1);
        }
    }

    #[test]
    fn local_batches_stay_near_their_centre() {
        let scale = Scale::quick();
        let graph = network(&scale);
        let mut source = BatchSource::new(BatchKind::Local, &graph, 3);
        let global = BatchSource::new(BatchKind::Global, &graph, 3).next_batch();
        for _ in 0..20 {
            let batch = source.next_batch();
            assert!(!batch.is_empty() && batch.len() < global.len());
            for update in batch.iter() {
                let w0 = f64::from(graph.initial_weight(update.edge));
                let w = update.new_weight.value();
                assert!(w >= 0.7 * w0 - 1e-9 && w <= 1.3 * w0 + 1e-9);
            }
        }
    }
}
