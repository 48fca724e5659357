//! The traced run: the stack measured layer by layer, from outside.
//!
//! No span is added inside the program. The run replays a fixed prefix of
//! the workload's own requests, one at a time, through successively thicker
//! stacks — engine, service, in-process client, client over the event loop —
//! and records a span around each call. A layer's self time is its stack's
//! time minus the next thinner stack's time on the same requests, so the rows
//! sum to the thickest stack's figure by construction. The write ladder does
//! the same for update batches: graph, index, in-memory service, persistent
//! service, client over the event loop, and a replica behind that.

use crate::alloc::{self, HeapUse};
use crate::catalogue::{Report, PER_LAYER};
use crate::e2e::{self, Outcome};
use crate::inputs::{network, Dataset, Plan, Scale, Traffic, Workload};
use crate::loadgen::{merge, ms, open_loop};
use crate::phase::{self, Phase};
use crate::reference::Speedometer;
use crate::scratch::{self, ScratchDir};
use crate::stack::{self, service_config, Stack, TcpClient};
use crate::{json, procfs, stats};
use ksp_algo::{dijkstra_path, yen_ksp};
use ksp_core::dtlp::DtlpIndex;
use ksp_core::kspdg::{KspDgConfig, KspDgEngine, QueryStats};
use ksp_graph::UpdateBatch;
use ksp_obs::ObsConfig;
use ksp_proto::{KspClient, QueryKey};
use ksp_repl::{Replica, ReplicaConfig, ReplicationSource};
use ksp_serve::{InProcTransport, QueryService};
use ksp_store::{Store, StoreConfig};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Open-loop rate (requests/s) and latency limit (ms, from due time) per
/// workload, frozen at about half the seed commit's closed-loop throughput
/// and twice its open-loop p99 at that rate. `update_storm` has no open-loop
/// phase of its own: its scheduled reader (50 reads/s) is one.
fn open_loop_terms(workload: Workload) -> (f64, f64) {
    match workload {
        Workload::ColdUniform => (30.0, 300.0),
        Workload::HotZipf => (3000.0, 3.0),
        Workload::MixedChurn => (150.0, 200.0),
        Workload::UpdateStorm => (50.0, 300.0),
    }
}

/// One recorded span. `parent` and `id` index the run's span list; the root
/// span is its own parent.
struct Span {
    name: &'static str,
    parent: usize,
    /// Position of the request in the ladder's list; `u32::MAX` for spans
    /// that cover a whole pass.
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Spans stay in memory until the run ends.
struct Spans {
    origin: Instant,
    list: Vec<Span>,
    /// Off during the untraced replay: calls are timed but nothing is kept.
    enabled: bool,
}

impl Spans {
    fn new() -> Self {
        let mut spans =
            Spans { origin: Instant::now(), list: Vec::with_capacity(1 << 14), enabled: true };
        spans.open("run", 0, u32::MAX);
        spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (the root's, while disabled).
    fn open(&mut self, name: &'static str, parent: usize, request: u32) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.list.push(Span { name, parent, request, start_ns, end_ns: start_ns });
        self.list.len() - 1
    }

    fn close(&mut self, id: usize) {
        if self.enabled {
            self.list[id].end_ns = self.now_ns();
        }
    }

    /// Records a span that was timed elsewhere; returns its id.
    fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u32,
        began: Instant,
        took: Duration,
    ) -> usize {
        let start_ns = began.saturating_duration_since(self.origin).as_nanos() as u64;
        self.list.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
        });
        self.list.len() - 1
    }

    /// Runs `f` inside a span and returns what it returned and how long it
    /// took: where tracing is on, the span *is* the measurement.
    fn timed<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u32,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.open(name, parent, request);
        let started = Instant::now();
        let result = f();
        let took = started.elapsed();
        if self.enabled {
            self.list[id].end_ns = self.list[id].start_ns + took.as_nanos() as u64;
        }
        (result, took)
    }

    fn write(&mut self, path: &Path, workload: Workload, seed: u64) -> std::io::Result<()> {
        self.close(0);
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"spans\": [\n",
            json::quote(workload.name())
        );
        for (id, s) in self.list.iter().enumerate() {
            let request =
                if s.request == u32::MAX { "null".to_string() } else { s.request.to_string() };
            out.push_str(&format!(
                "{{\"id\": {id}, \"name\": {}, \"parent\": {}, \"request\": {request}, \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                json::quote(s.name),
                s.parent,
                s.start_ns,
                s.end_ns,
                if id + 1 == self.list.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What a traced run accumulates.
struct Record {
    report: Report,
    notes: Vec<String>,
    spans: Spans,
    /// What went wrong outside the oracle's reach.
    failures: Vec<String>,
}

/// What the thinnest stacks cost for one query of the ladder.
struct Baseline {
    dijkstra: Duration,
    dijkstra_heap: HeapUse,
    yen: Duration,
    engine_heap: HeapUse,
    sweep: Duration,
    stats: QueryStats,
}

const L2: &str = "L2 QueryService::query";
const L3: &str = "L3 KspClient<InProcTransport>::query";
const L4: &str = "L4 KspClient::query over EventLoopServer";

/// One timed replay of the ladder's requests through one stack: per request,
/// microseconds and whether the cache answered.
fn replay(
    spans: &mut Spans,
    pass_name: &'static str,
    call_name: &'static str,
    keys: &[QueryKey],
    call: &mut dyn FnMut(&QueryKey) -> bool,
) -> Vec<(f64, bool)> {
    let root = spans.open(pass_name, 0, u32::MAX);
    let times = keys
        .iter()
        .enumerate()
        .map(|(r, q)| {
            let (hit, took) = spans.timed(call_name, root, r as u32, || call(q));
            (us(took), hit)
        })
        .collect();
    spans.close(root);
    times
}

/// Per request, the median over rounds.
fn column_medians(rounds: &[Vec<(f64, bool)>]) -> Vec<f64> {
    (0..rounds[0].len())
        .map(|i| stats::median(&mut rounds.iter().map(|r| r[i].0).collect::<Vec<_>>()))
        .collect()
}

/// The read ladder: emits every read-side per-layer metric.
///
/// Each round replays the same requests through every stack in turn; a
/// request's figure for a stack is its median over the rounds, which run
/// while `budget` lasts (at least once, at most 15 times).
fn read_ladder(
    record: &mut Record,
    stack: &Stack,
    tcp: &mut TcpClient,
    plan: &Plan,
    scale: &Scale,
    budget: Duration,
) {
    let Record { report, notes, spans, .. } = record;
    // The first queries of the universe, the same for every seed, so that the
    // ladder's exact counts compare across runs.
    let keys = &plan.universe[..scale.ladder_reads.min(plan.universe.len())];

    let service = &stack.service;
    let mut in_proc = KspClient::new(InProcTransport::new(service.clone()));
    // The twin starts from the graph as it is now, so both services answer
    // the same queries on the same weights; only `observability` differs.
    let mut twin_config = service_config(plan, scale);
    twin_config.observability = ObsConfig::disabled();
    let twin = QueryService::start((**service.snapshot().graph()).clone(), twin_config)
        .expect("the serving graph is a valid graph");
    // One untimed pass each, so every timed pass starts from the cache state
    // the pass before it left — the same one — and from warm memory.
    for q in keys {
        let _ = service.query(q.source, q.target, q.k);
        let _ = twin.query(q.source, q.target, q.k);
    }

    // L0 once per query, on the epoch the service is serving.
    let snapshot = service.snapshot();
    let (graph, index) = (snapshot.graph(), snapshot.index());
    // The engine runs with the certified trace on, as the service runs it.
    let engine = KspDgEngine::with_config(index, KspDgConfig::default().with_trace());
    let root = spans.open("pass:L0 algo", 0, u32::MAX);
    let mut baselines: Vec<Baseline> = keys
        .iter()
        .enumerate()
        .map(|(r, q)| {
            let r = r as u32;
            let ((_, dijkstra_heap), dijkstra) = spans.timed("L0 dijkstra_path", root, r, || {
                alloc::measure(|| std::hint::black_box(dijkstra_path(&**graph, q.source, q.target)))
            });
            let (_, yen) = spans.timed("L0 yen_ksp", root, r, || {
                std::hint::black_box(yen_ksp(&**graph, q.source, q.target, q.k))
            });
            Baseline {
                dijkstra,
                dijkstra_heap,
                yen,
                engine_heap: HeapUse::default(),
                sweep: Duration::ZERO,
                stats: QueryStats::default(),
            }
        })
        .collect();
    spans.close(root);

    let wire_before = tcp.stats();
    let started = Instant::now();
    let (mut l1, mut l2, mut l3, mut l4, mut untraced, mut obs_off) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // The engine passes run on one thread of their own, as the service's
    // engine runs on a long-lived shard worker: on the main thread, whose
    // heap holds everything the ledger itself allocated, the same queries
    // took 9 % longer in the sizing pass, and a thread per pass starts every
    // pass with a cold heap. It reports when each call began and how long it
    // took; the spans are recorded from that.
    let engine_pass = || -> Vec<(Instant, Duration, HeapUse, Duration, QueryStats)> {
        keys.iter()
            .map(|q| {
                let began = Instant::now();
                let (result, heap) = alloc::measure(|| engine.query(q.source, q.target, q.k));
                (began, began.elapsed(), heap, result.sweep_time, result.stats)
            })
            .collect()
    };
    std::thread::scope(|scope| {
        let (go, asked) = mpsc::channel::<()>();
        let (done, answered) = mpsc::channel();
        scope.spawn(move || while asked.recv().is_ok() && done.send(engine_pass()).is_ok() {});
        // At least two rounds, so that every figure is a median of something.
        while l2.len() < 2 || (started.elapsed() < budget && l2.len() < 15) {
            // Spans and allocation counting are on for the traced passes and
            // off for the untraced replay; the difference is what tracing
            // costs.
            alloc::measure(|| {
                go.send(()).expect("the engine thread waits for rounds");
                let pass = answered.recv().expect("the engine pass panicked");
                let (first, last) = (&pass[0], &pass[pass.len() - 1]);
                let whole = (last.0 + last.1) - first.0;
                let root = spans.record("pass:L1 engine", 0, u32::MAX, first.0, whole);
                for (r, call) in pass.iter().enumerate() {
                    spans.record("L1 KspDgEngine::query", root, r as u32, call.0, call.1);
                }
                l1.push(pass.iter().map(|call| (us(call.1), false)).collect());
                for (baseline, (_, _, heap, sweep, stats)) in baselines.iter_mut().zip(pass) {
                    (baseline.engine_heap, baseline.sweep, baseline.stats) = (heap, sweep, stats);
                }
                // Up the ladder in one round and down it in the next, so that
                // no stack is always the one measured right after another.
                let order = if l2.len() % 2 == 0 { [2, 3, 4] } else { [4, 3, 2] };
                for layer in order {
                    match layer {
                        2 => l2.push(replay(spans, "pass:L2 service", L2, keys, &mut |q| {
                            service.query(q.source, q.target, q.k).is_ok_and(|a| a.cache_hit)
                        })),
                        3 => l3.push(replay(
                            spans,
                            "pass:L3 in-process client",
                            L3,
                            keys,
                            &mut |q| {
                                in_proc.query(q.source, q.target, q.k).is_ok_and(|a| a.cache_hit)
                            },
                        )),
                        _ => l4.push(replay(
                            spans,
                            "pass:L4 client over event loop",
                            L4,
                            keys,
                            &mut |q| tcp.query(q.source, q.target, q.k).is_ok_and(|a| a.cache_hit),
                        )),
                    }
                }
            });
            spans.enabled = false;
            untraced.push(replay(spans, "", "", keys, &mut |q| {
                tcp.query(q.source, q.target, q.k).is_ok_and(|a| a.cache_hit)
            }));
            obs_off.push(replay(spans, "", "", keys, &mut |q| {
                twin.query(q.source, q.target, q.k).is_ok_and(|a| a.cache_hit)
            }));
            spans.enabled = true;
        }
        // Dropping `go` here ends the engine thread; the scope joins it.
    });
    let wire = tcp.stats();
    let rounds = l2.len();
    // Traced and untraced replays went over the same connection and sent the
    // same requests, so the connection's totals cover both.
    let on_wire = (2 * rounds * keys.len()) as f64;

    let distinct = keys.len() as u64;
    let engine_us = column_medians(&l1);
    let per_query =
        |f: &dyn Fn(&Baseline) -> f64| baselines.iter().map(f).sum::<f64>() / distinct as f64;
    report.emit("algo.dijkstra_us", per_query(&|b| us(b.dijkstra)), distinct);
    report.emit("algo.yen_ms", per_query(&|b| ms(b.yen)), distinct);
    report.emit(
        "algo.allocs_per_dijkstra",
        per_query(&|b| b.dijkstra_heap.allocs as f64),
        distinct,
    );
    let mut engine_ms: Vec<f64> = engine_us.iter().map(|t| t / 1e3).collect();
    stats::sort(&mut engine_ms);
    report.emit("core.kspdg.query_ms_mean", stats::mean(&engine_ms), distinct);
    report.emit("core.kspdg.query_ms_p90", stats::percentile(&engine_ms, 0.9), distinct);
    let engine_total: f64 = engine_us.iter().sum();
    report.emit(
        "core.kspdg.vs_yen_ratio",
        stats::ratio(engine_total, baselines.iter().map(|b| us(b.yen)).sum()),
        distinct,
    );
    report.emit(
        "core.kspdg.sweep_share",
        stats::ratio(baselines.iter().map(|b| us(b.sweep)).sum(), engine_total),
        distinct,
    );
    report.emit(
        "core.kspdg.iterations_per_query",
        per_query(&|b| b.stats.iterations as f64),
        distinct,
    );
    report.emit(
        "core.kspdg.partials_per_query",
        per_query(&|b| b.stats.partial_computations as f64),
        distinct,
    );
    let partial_hits: usize = baselines.iter().map(|b| b.stats.partial_cache_hits).sum();
    let partials: usize = baselines.iter().map(|b| b.stats.partial_computations).sum();
    report.emit(
        "core.kspdg.partial_hit_share",
        stats::ratio(partial_hits as f64, (partial_hits + partials) as f64),
        (partial_hits + partials) as u64,
    );
    report.emit(
        "core.kspdg.subgraphs_examined_per_query",
        per_query(&|b| b.stats.subgraphs_examined as f64),
        distinct,
    );
    report.emit(
        "core.kspdg.candidates_per_query",
        per_query(&|b| b.stats.candidates_generated as f64),
        distinct,
    );
    report.emit(
        "core.kspdg.allocs_per_query",
        per_query(&|b| b.engine_heap.allocs as f64),
        distinct,
    );
    report.emit(
        "core.kspdg.alloc_kb_per_query",
        per_query(&|b| b.engine_heap.bytes as f64 / 1024.0),
        distinct,
    );

    // The engine's part of a request is the engine's time on that query if
    // the service sent it to the engine, and nothing if the cache answered.
    let hit: Vec<bool> = l2[0].iter().map(|&(_, hit)| hit).collect();
    let engine_part: Vec<f64> =
        engine_us.iter().zip(&hit).map(|(&t, &hit)| if hit { 0.0 } else { t }).collect();
    let service_us = column_medians(&l2);
    let total = |v: &[f64]| v.iter().sum::<f64>();
    let (t1, t2, t3, t4) = (
        total(&engine_part),
        total(&service_us),
        total(&column_medians(&l3)),
        total(&column_medians(&l4)),
    );
    let n = keys.len() as f64;
    let samples = keys.len() as u64;
    report.emit("ladder.read.engine_us", t1 / n, samples);
    report.emit("serve.service.self_us", (t2 - t1) / n, samples);
    report.emit("proto.codec.self_us", (t3 - t2) / n, samples);
    report.emit("serve.event_loop.self_us", (t4 - t3) / n, samples);
    report.emit("ladder.read.total_us", t4 / n, samples);
    report.emit("ladder.read.engine_share", stats::ratio(t1, t4), samples);
    let hits: Vec<f64> = service_us.iter().zip(&hit).filter(|(_, &h)| h).map(|(&t, _)| t).collect();
    let miss_self: Vec<f64> = service_us
        .iter()
        .zip(&engine_part)
        .zip(&hit)
        .filter(|(_, &h)| !h)
        .map(|((&t, &e), _)| t - e)
        .collect();
    report.emit("serve.service.hit_us", stats::mean(&hits), hits.len() as u64);
    report.emit("serve.service.miss_self_us", stats::mean(&miss_self), miss_self.len() as u64);
    report.emit(
        "serve.obs_overhead_share",
        stats::ratio(t2, total(&column_medians(&obs_off))) - 1.0,
        samples,
    );
    report.emit(
        "trace.overhead_share",
        stats::ratio(t4, total(&column_medians(&untraced))) - 1.0,
        samples,
    );
    let wire_bytes =
        wire.bytes_sent + wire.bytes_received - wire_before.bytes_sent - wire_before.bytes_received;
    report.emit("proto.bytes_per_request", wire_bytes as f64 / on_wire, samples);
    // `TransportStats` adds whole microseconds per call, so a sub-microsecond
    // encode counts as zero: read these two as lower bounds.
    report.emit(
        "proto.serialize_us",
        (wire.serialize_micros - wire_before.serialize_micros) as f64 / on_wire,
        samples,
    );
    report.emit(
        "proto.decode_us",
        (wire.decode_micros - wire_before.decode_micros) as f64 / on_wire,
        samples,
    );
    notes.push(format!(
        "read ladder: {} requests ({} cache hits), median of {rounds} rounds; engine {:.1} + service {:.1} + client {:.1} + event loop {:.1} = {:.1} us",
        keys.len(),
        hits.len(),
        t1 / n,
        (t2 - t1) / n,
        (t3 - t2) / n,
        (t4 - t3) / n,
        t4 / n
    ));
}

fn dir_bytes(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The write ladder: emits every write-side per-layer metric.
fn write_ladder(record: &mut Record, data: &Dataset, plan: &Plan, scale: &Scale) {
    let Record { report, notes, spans, failures } = record;
    let mut source = plan.batch_source(&data.graph);
    let batches: Vec<UpdateBatch> = (0..scale.ladder_writes).map(|_| source.next_batch()).collect();
    let n = batches.len() as f64;
    let samples = batches.len() as u64;
    let edges: usize = batches.iter().map(UpdateBatch::len).sum();
    let config = service_config(plan, scale);
    let pass = |spans: &mut Spans,
                pass_name: &'static str,
                call_name: &'static str,
                f: &mut dyn FnMut(&UpdateBatch)| {
        let root = spans.open(pass_name, 0, u32::MAX);
        let mut each: Vec<f64> = batches
            .iter()
            .enumerate()
            .map(|(i, batch)| ms(spans.timed(call_name, root, i as u32, || f(batch)).1))
            .collect();
        spans.close(root);
        // The batches of a stream are alike, so a layer's figure is the
        // median batch: one slow fsync does not move it.
        stats::median(&mut each)
    };

    // W0 graph, W1 index.
    let mut graph = data.graph.clone();
    let w0 = pass(spans, "pass:W0 graph", "W0 DynamicGraph::with_batch", &mut |batch| {
        graph = graph.with_batch(batch).expect("the batch names edges of this graph");
    });
    let (mut index, build) = spans.timed("DtlpIndex::build", 0, u32::MAX, || {
        DtlpIndex::build(&data.graph, config.dtlp).expect("the generated network is a valid graph")
    });
    let built = index.build_stats().clone();
    report.emit("core.dtlp.build_s", build.as_secs_f64(), 1);
    report.emit("core.dtlp.subgraphs", built.num_subgraphs as f64, 1);
    report.emit("core.dtlp.boundary_vertices", built.num_boundary_vertices as f64, 1);
    report.emit("core.dtlp.level1_mb", index.level1_memory_bytes() as f64 / 1e6, 1);
    report.emit("core.dtlp.skeleton_mb", index.skeleton_memory_bytes() as f64 / 1e6, 1);
    let (mut dirty, mut touched) = (0usize, 0usize);
    let w1 = pass(spans, "pass:W1 index", "W1 DtlpIndex::apply_batch", &mut |batch| {
        let stats = index.apply_batch(batch).expect("the batch names edges of this graph");
        dirty += stats.dirty_subgraphs.len();
        touched += stats.paths_touched;
    });
    report.emit("core.dtlp.dirty_subgraphs_per_batch", dirty as f64 / n, samples);
    report.emit("core.dtlp.paths_touched_per_batch", touched as f64 / n, samples);
    let (image, encode) = spans.timed("Store::encode_checkpoint", 0, u32::MAX, || {
        Store::encode_checkpoint(graph.version(), &graph, &index)
    });
    report.emit("store.checkpoint.encode_ms", ms(encode), 1);
    report.emit("store.checkpoint_mb", image.len() as f64 / 1e6, 1);
    drop((image, index));

    // W2 in-memory service, W3 persistent service, both called directly.
    let in_memory = stack::start(network(scale), config, false, "ladder-memory");
    let w2 = pass(spans, "pass:W2 service", "W2 QueryService::apply_batch", &mut |batch| {
        in_memory.service.apply_batch(batch).expect("an in-memory publish has nothing to fail on");
    });
    drop(in_memory);
    let durable = stack::start(network(scale), config, true, "ladder-durable");
    let store_path = durable.store_path();
    // The log is whole until the first checkpoint (epoch 32) prunes it, so
    // its size is read after the 16th batch.
    let logged = batches.len().min(16);
    let (mut sent, mut wal_bytes) = (0, 0);
    let w3 = pass(
        spans,
        "pass:W3 durable service",
        "W3 QueryService::apply_batch + WAL",
        &mut |batch| {
            durable.service.apply_batch(batch).expect("the scratch store takes appends");
            sent += 1;
            if sent == logged {
                wal_bytes = dir_bytes(&store_path, "wal-");
            }
        },
    );
    let wal_per_batch = stats::ratio(wal_bytes as f64, logged as f64);
    let edges_per_batch = edges as f64 / n;
    report.emit("store.wal_bytes_per_batch", wal_per_batch, logged as u64);
    // An update is an edge id and a weight: 12 bytes of information.
    report.emit(
        "store.disk_bytes_per_update_byte",
        stats::ratio(wal_per_batch, edges_per_batch * 12.0),
        logged as u64,
    );

    // Restart: what the persistent service left behind, opened three times.
    let Stack { server, service, dir } = durable;
    drop(server);
    drop(service);
    let mut recoveries = Vec::new();
    let mut replayed = (0, 0);
    for _ in 0..3 {
        let (opened, took) = spans.timed("QueryService::open", 0, u32::MAX, || {
            QueryService::open(&dir.child("store"), config, StoreConfig::default())
        });
        let (service, recovery) = opened.expect("the store the ladder just wrote reopens");
        if service.current_epoch() != batches.len() as u64 {
            failures.push(format!(
                "recovery reached epoch {} of {}",
                service.current_epoch(),
                batches.len()
            ));
        }
        recoveries.push(ms(took));
        replayed = (recovery.batches_replayed, recovery.partial_images_applied);
    }
    report.emit("store.recovery_ms", stats::median(&mut recoveries), recoveries.len() as u64);
    report.emit("store.recover.batches_replayed", replayed.0 as f64, 1);
    report.emit("store.recover.partial_images", replayed.1 as f64, 1);
    drop(dir);

    // W4 persistent service behind the event loop, with a replica attached.
    let leader = stack::start(network(scale), config, true, "ladder-leader");
    let replica_dir = ScratchDir::create("ladder-replica").expect("scratch space is writable");
    let shipping =
        ReplicationSource::attach(&leader.service).expect("a persistent service has a log to ship");
    let (replica, bootstrap) = spans.timed("Replica::bootstrap", 0, u32::MAX, || {
        Replica::bootstrap(
            leader.server.local_addr(),
            replica_dir.child("replica"),
            ReplicaConfig::new("ledger", config, StoreConfig::default()),
        )
    });
    let mut replica = replica.expect("a fresh replica bootstraps from a leader at epoch 0");
    let mut client = leader.connect(1).pop().expect("one connection was asked for");
    let bytes_before = client.stats().bytes_sent;
    let w4 =
        pass(spans, "pass:W4 client over event loop", "W4 KspClient::apply_batch", &mut |batch| {
            client.apply_batch(batch).expect("the leader takes the batch");
        });
    report.emit(
        "proto.batch_bytes_per_edge",
        stats::ratio((client.stats().bytes_sent - bytes_before) as f64, edges as f64),
        edges as u64,
    );
    let shipped_before = shipping.bytes_shipped();
    let (caught_up, catch_up) = spans
        .timed("Replica::sync_to_caught_up", 0, u32::MAX, || replica.sync_to_caught_up(10_000));
    if caught_up.as_ref().ok() != Some(&(batches.len() as u64)) {
        failures.push(format!("the replica caught up to {caught_up:?} of {}", batches.len()));
    }
    let promotion = replica.promote();
    report.emit("repl.bootstrap_ms", ms(bootstrap), 1);
    report.emit("repl.catchup_ms_per_epoch", ms(catch_up) / n, samples);
    report.emit(
        "repl.bytes_per_epoch",
        (shipping.bytes_shipped() - shipped_before) as f64 / n,
        samples,
    );
    report.emit("repl.promote_us", us(promotion.duration), 1);
    drop(replica);
    drop(client);
    drop(leader);
    drop(replica_dir);

    report.emit("graph.with_batch_us", w0 * 1e3, samples);
    report.emit("core.dtlp.apply_batch_ms", w1, samples);
    report.emit("serve.publish.self_ms", w2 - w1 - w0, samples);
    report.emit("store.wal.self_ms", w3 - w2, samples);
    report.emit("serve.event_loop.publish_self_ms", w4 - w3, samples);
    report.emit("ladder.write.total_ms", w4, samples);
    notes.push(format!(
        "write ladder: {} batches of {edges_per_batch:.0} edges, median batch; graph {w0:.3} + index {w1:.3} + publish {:.3} + log {:.3} + event loop {:.3} = {w4:.3} ms",
        batches.len(),
        w2 - w1 - w0,
        w3 - w2,
        w4 - w3,
    ));
}

/// Metrics of the traced run's own end-to-end phase: what the service's and
/// the process's counters moved by while the workload's traffic ran.
fn phase_metrics(report: &mut Report, phase: &mut Phase) {
    let (before, after) = (&phase.before, &phase.after);
    let answered = phase.reads.answered;
    let operations = (answered + phase.writes.rtt_ms.len() as u64) as f64;
    let publishes = (after.epochs_published - before.epochs_published) as f64;
    let retained = (after.cache_retained - before.cache_retained) as f64;
    let evicted = (after.cache_evicted - before.cache_evicted) as f64;
    report.emit(
        "serve.cache.hit_share",
        stats::ratio(phase.reads.hits as f64, answered as f64),
        answered,
    );
    report.emit(
        "serve.cache.retained_share",
        stats::ratio(retained, retained + evicted),
        (retained + evicted) as u64,
    );
    report.emit(
        "serve.cache.evicted_per_publish",
        stats::ratio(evicted, publishes),
        publishes as u64,
    );
    report.emit("serve.steals", (after.steals - before.steals) as f64, answered);
    let high_water = after.queue_gauges.iter().map(|g| g.high_water).max().unwrap_or(0);
    report.emit("serve.queue_high_water", high_water as f64, answered);
    report.emit("serve.rejected", (after.rejected - before.rejected) as f64, answered);
    let mut publish_ms = phase.writes.rtt_ms.clone();
    stats::sort(&mut publish_ms);
    let published = publish_ms.len() as u64;
    report.emit("serve.publish.p50_ms", stats::percentile(&publish_ms, 0.50), published);
    report.emit("serve.publish.p95_ms", stats::percentile(&publish_ms, 0.95), published);
    report.emit(
        "serve.publish.edges_per_s",
        stats::ratio(phase.writes.edges as f64, publish_ms.iter().sum::<f64>() / 1e3),
        published,
    );
    let ops = operations as u64;
    report.emit(
        "serve.event_loop.rw_syscalls_per_request",
        stats::ratio(phase.rw_syscalls as f64, operations),
        ops,
    );
    report.emit(
        "serve.event_loop.ctx_switches_per_request",
        stats::ratio(phase.ctx_switches as f64, operations),
        ops,
    );
    report.emit("proc.cpu_ms_per_request", stats::ratio(phase.cpu_ms, operations), ops);
    report.emit("loadgen.warmup_s", phase.warmup.as_secs_f64(), 1);
    // No per-layer time is corrected for the host's speed; this is the
    // figure to correct one by (`reference::NOMINAL_US` at nominal speed).
    report.emit(
        "host.reference_us",
        stats::median(&mut phase.reference_us),
        phase.reference_us.len() as u64,
    );
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    out: Option<&Path>,
) -> Outcome {
    let data = Dataset::generate(scale);
    let plan = Plan::new(workload, seed, scale, &data);
    let confined = procfs::OneProcessor::confine();
    let mut record = Record {
        report: Report::new(PER_LAYER),
        notes: Vec::new(),
        spans: Spans::new(),
        failures: Vec::new(),
    };

    // The workload's own traffic, for a shorter window than an end-to-end
    // run's, with the counters read.
    let stack = stack::start(
        network(scale),
        service_config(&plan, scale),
        plan.persistent,
        workload.name(),
    );
    let mut clients = stack.connect(plan.connections);
    let window = Duration::from_secs_f64(seconds * 0.3);
    let speedometer = Speedometer::new();
    let (mut phase, _) = record.spans.timed("phase:workload traffic", 0, u32::MAX, || {
        phase::run(&plan, &stack, &data.graph, &mut clients, window, &speedometer)
    });
    phase_metrics(&mut record.report, &mut phase);
    if confined.is_none() {
        record.notes.push("the kernel refused to confine the run to one processor".to_string());
    }

    // The open loop: requests due on a schedule, timed from when they were
    // due. The update storm's scheduled reader already is one.
    let mut attempted = phase.reads.attempted() + phase.writes.attempted();
    let mut failed = phase.reads.errors + phase.reads.inconsistent + phase.writes.errors;
    let (rate, limit_ms) = open_loop_terms(workload);
    let (mut due, mut late, open_for) =
        if matches!(plan.traffic, Traffic::WriterAndScheduledReader { .. }) {
            (phase.reads.due_ms.clone(), phase.reads.late_ms.clone(), phase.wall)
        } else {
            let run_for = Duration::from_secs_f64(seconds * 0.2);
            let (logs, _) = record.spans.timed("phase:open loop", 0, u32::MAX, || {
                open_loop(&mut clients, &plan.universe, &plan.cycle, rate, run_for)
            });
            let mut log = merge(logs);
            attempted += log.attempted();
            failed += log.errors + log.inconsistent;
            phase.reads.samples.append(&mut log.samples);
            (log.due_ms, log.late_ms, run_for)
        };
    stats::sort(&mut due);
    stats::sort(&mut late);
    let in_time = due.iter().filter(|&&d| d <= limit_ms).count();
    let report = &mut record.report;
    report.emit("open.p50_ms", stats::percentile(&due, 0.50), due.len() as u64);
    report.emit("open.p99_ms", stats::percentile(&due, 0.99), due.len() as u64);
    report.emit("open.lateness_p99_ms", stats::percentile(&late, 0.99), late.len() as u64);
    report.emit(
        "open.rate_at_slo_qps",
        stats::ratio(in_time as f64, open_for.as_secs_f64()),
        due.len() as u64,
    );

    // The ladders.
    let budget = Duration::from_secs_f64(seconds * 0.3);
    read_ladder(&mut record, &stack, &mut clients[0], &plan, scale, budget);
    drop(clients);
    drop(stack);
    write_ladder(&mut record, &data, &plan, scale);
    let Record { mut report, mut notes, mut spans, mut failures } = record;

    let verify_started = Instant::now();
    let mut verified = e2e::verify(&plan, scale, &data.graph, &mut phase, None);
    report.emit(
        "core.kspdg.suboptimal_answers",
        verified.suboptimal.len() as f64,
        verified.checked,
    );
    verified.wrong.append(&mut failures);
    failed += verified.wrong.len() as u64;
    notes.push(verified.summary(verify_started.elapsed().as_secs_f64()));
    notes.extend(verified.lines());

    let dir = out.map(Path::to_path_buf).unwrap_or_else(scratch::root);
    let path = dir.join(format!("ledger-trace-{}.json", workload.name()));
    match spans.write(&path, workload, seed) {
        Ok(()) => notes.push(format!("{} spans written to {}", spans.list.len(), path.display())),
        Err(e) => {
            failed += 1;
            notes.push(format!("WRONG: the trace file was not written: {e}"));
        }
    }
    Outcome { report, attempted, failed, correct: failed == 0, notes }
}
