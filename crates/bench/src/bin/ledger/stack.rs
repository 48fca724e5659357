//! The system under test, assembled the way every workload runs it: network
//! → `QueryService` (in memory or over a store) → `EventLoopServer` on a
//! loopback port → blocking `KspClient`s, all in this process.

use crate::inputs::{network, Plan, Scale, SHARDS};
use crate::reference::Speedometer;
use crate::scratch::ScratchDir;
use ksp_core::dtlp::DtlpConfig;
use ksp_graph::DynamicGraph;
use ksp_proto::{KspClient, TcpTransport};
use ksp_serve::{EventLoopServer, QueryService, ServiceConfig};
use ksp_store::StoreConfig;
use std::sync::Arc;
use std::time::Instant;

pub type TcpClient = KspClient<TcpTransport>;

/// Production defaults (observability on, default admission); a workload
/// overrides the cache capacity and nothing else.
pub fn service_config(plan: &Plan, scale: &Scale) -> ServiceConfig {
    let mut config = ServiceConfig::new(SHARDS, DtlpConfig::new(scale.z, 2));
    if let Some(capacity) = plan.cache_capacity {
        config.cache_capacity = capacity;
    }
    config
}

// Field order is drop order: the server stops before the last service handle
// goes, and the store directory outlives the service writing to it.
pub struct Stack {
    pub server: EventLoopServer,
    pub service: Arc<QueryService>,
    /// Holds the store of a persistent service, at `dir.child("store")`.
    pub dir: ScratchDir,
}

impl Stack {
    pub fn store_path(&self) -> std::path::PathBuf {
        self.dir.child("store")
    }

    pub fn connect(&self, connections: usize) -> Vec<TcpClient> {
        (0..connections)
            .map(|_| {
                KspClient::connect(self.server.local_addr())
                    .expect("the loopback server accepts connections")
                    .0
            })
            .collect()
    }
}

/// Starts `graph` behind a service and a server; `persistent` puts a store
/// with `StoreConfig::default()` (fsync always, checkpoint every 32 epochs)
/// under it.
pub fn start(graph: DynamicGraph, config: ServiceConfig, persistent: bool, label: &str) -> Stack {
    let dir = ScratchDir::create(label).expect("scratch space beside the executable is writable");
    let service = if persistent {
        QueryService::start_with_store(graph, config, &dir.child("store"), StoreConfig::default())
            .expect("a fresh directory takes a new store")
    } else {
        QueryService::start(graph, config).expect("the generated network is a valid graph")
    };
    let service = Arc::new(service);
    let server = EventLoopServer::bind(service.clone(), "127.0.0.1:0")
        .expect("a loopback port is available");
    Stack { server, service, dir }
}

/// Sets the stack up `scale.setup_repeats` times and keeps the last one.
/// Returns it with every set-up time in seconds: network generation +
/// service start (index build, and the first checkpoint of a persistent
/// service) + server bind, up to ready-to-accept. The host's speed is
/// sampled on `speedometer` ahead of the first set-up and after each.
pub fn set_up(plan: &Plan, scale: &Scale, speedometer: &Speedometer) -> (Stack, Vec<f64>) {
    /// Samples between two set-ups.
    const SAMPLES: usize = 4;
    let mut times = Vec::new();
    let mut stack = None;
    (0..SAMPLES).for_each(|_| speedometer.sample());
    for _ in 0..scale.setup_repeats.max(1) {
        drop(stack.take());
        let started = Instant::now();
        let graph = network(scale);
        let built =
            start(graph, service_config(plan, scale), plan.persistent, plan.workload.name());
        times.push(started.elapsed().as_secs_f64());
        stack = Some(built);
        (0..SAMPLES).for_each(|_| speedometer.sample());
    }
    (stack.expect("at least one set-up ran"), times)
}
