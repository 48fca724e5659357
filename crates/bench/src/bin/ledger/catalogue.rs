//! The metric catalogue: every name the ledger may print, with its unit, and
//! the `Report` that holds one run's values.
//!
//! `BENCHMARK.json` lists the same names (a self-test compares the two), plus
//! what only the driver needs: direction, bound, and which end-to-end metric
//! a per-layer metric is expected to move. Every workload emits every metric:
//! where a per-layer metric has nothing to measure on a workload (publish
//! latency on a read-only mix) it is emitted as 0 with a sample count of 0.

/// End-to-end metrics, measured with tracing off. "Operation" means the
/// workload's primary stream: queries, or publishes on `update_storm`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("exact_share", "ratio"),
];

/// Per-layer metrics, from the traced run. Layer = crate (or module) name.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("algo.dijkstra_us", "us"),
    ("algo.yen_ms", "ms"),
    ("algo.allocs_per_dijkstra", "count"),
    ("core.dtlp.build_s", "s"),
    ("core.dtlp.subgraphs", "count"),
    ("core.dtlp.boundary_vertices", "count"),
    ("core.dtlp.level1_mb", "MB"),
    ("core.dtlp.skeleton_mb", "MB"),
    ("core.dtlp.apply_batch_ms", "ms"),
    ("core.dtlp.dirty_subgraphs_per_batch", "count"),
    ("core.dtlp.paths_touched_per_batch", "count"),
    ("core.kspdg.query_ms_mean", "ms"),
    ("core.kspdg.query_ms_p90", "ms"),
    ("core.kspdg.vs_yen_ratio", "ratio"),
    ("core.kspdg.iterations_per_query", "count"),
    ("core.kspdg.partials_per_query", "count"),
    ("core.kspdg.partial_hit_share", "ratio"),
    ("core.kspdg.subgraphs_examined_per_query", "count"),
    ("core.kspdg.candidates_per_query", "count"),
    ("core.kspdg.allocs_per_query", "count"),
    ("core.kspdg.alloc_kb_per_query", "kB"),
    ("core.kspdg.sweep_share", "ratio"),
    ("core.kspdg.suboptimal_answers", "count"),
    ("graph.with_batch_us", "us"),
    ("serve.service.self_us", "us"),
    ("serve.service.miss_self_us", "us"),
    ("serve.service.hit_us", "us"),
    ("serve.obs_overhead_share", "ratio"),
    ("serve.cache.hit_share", "ratio"),
    ("serve.cache.retained_share", "ratio"),
    ("serve.cache.evicted_per_publish", "count"),
    ("serve.steals", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.rejected", "count"),
    ("serve.publish.self_ms", "ms"),
    ("serve.publish.p50_ms", "ms"),
    ("serve.publish.p95_ms", "ms"),
    ("serve.publish.edges_per_s", "edges/s"),
    ("serve.event_loop.self_us", "us"),
    ("serve.event_loop.publish_self_ms", "ms"),
    ("serve.event_loop.rw_syscalls_per_request", "count"),
    ("serve.event_loop.ctx_switches_per_request", "count"),
    ("proto.codec.self_us", "us"),
    ("proto.bytes_per_request", "B"),
    ("proto.serialize_us", "us"),
    ("proto.decode_us", "us"),
    ("proto.batch_bytes_per_edge", "B"),
    ("store.wal.self_ms", "ms"),
    ("store.wal_bytes_per_batch", "B"),
    ("store.checkpoint.encode_ms", "ms"),
    ("store.checkpoint_mb", "MB"),
    ("store.disk_bytes_per_update_byte", "ratio"),
    ("store.recovery_ms", "ms"),
    ("store.recover.batches_replayed", "count"),
    ("store.recover.partial_images", "count"),
    ("repl.bootstrap_ms", "ms"),
    ("repl.catchup_ms_per_epoch", "ms"),
    ("repl.bytes_per_epoch", "B"),
    ("repl.promote_us", "us"),
    ("proc.cpu_ms_per_request", "ms"),
    ("loadgen.warmup_s", "s"),
    ("host.reference_us", "us"),
    ("open.p50_ms", "ms"),
    ("open.p99_ms", "ms"),
    ("open.lateness_p99_ms", "ms"),
    ("open.rate_at_slo_qps", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("ladder.read.engine_us", "us"),
    ("ladder.read.engine_share", "ratio"),
    ("ladder.read.total_us", "us"),
    ("ladder.write.total_ms", "ms"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value summarises (0 = not applicable here).
    pub samples: u64,
}

/// One run's metrics, checked against one of the catalogues above.
#[derive(Debug, Clone)]
pub struct Report {
    catalogue: &'static [(&'static str, &'static str)],
    pub rows: Vec<Row>,
}

impl Report {
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Self {
        Report { catalogue, rows: Vec::with_capacity(catalogue.len()) }
    }

    /// Records `name`. Panics on a name the catalogue does not declare, on a
    /// second value for one name, and on a value JSON cannot carry — each is
    /// a bug in the ledger, not a property of the run.
    pub fn emit(&mut self, name: &str, value: f64, samples: u64) {
        let &(name, unit) = self
            .catalogue
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(name).is_none(), "metric {name} emitted twice");
        self.rows.push(Row { name, unit, value, samples });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// Names the catalogue declares that have no value yet.
    pub fn missing(&self) -> Vec<&'static str> {
        self.catalogue.iter().map(|(n, _)| *n).filter(|n| self.get(n).is_none()).collect()
    }

    /// Rows in catalogue order.
    pub fn sorted_rows(&self) -> Vec<&Row> {
        self.catalogue.iter().filter_map(|(n, _)| self.rows.iter().find(|r| r.name == *n)).collect()
    }
}
