//! The protocol endpoint of a [`QueryService`]: request dispatch and the
//! in-process transport.
//!
//! [`QueryService::handle`] turns any protocol [`Request`] into a
//! [`Response`], and every transport funnels into the service's one query
//! path, so a query answered over a socket runs exactly the code (and
//! produces the bit-identical answer) of a query answered in process:
//!
//! * [`InProcTransport`] hands the request straight to `handle` — nothing is
//!   serialised, paths move by pointer, and the transport's byte counters
//!   stay at zero (the baseline the communication-cost experiments compare
//!   the wire against).
//! * [`EventLoopServer`](crate::EventLoopServer) puts the service behind a
//!   socket: it reads length-prefixed CRC-guarded frames and submits a
//!   single query straight to the service; the reply to a miss is built by
//!   the worker that answers it, with `query_response` and `echo_trace` —
//!   the same two steps `handle` takes. Every other request goes through
//!   `handle` on the server's control thread. Malformed, truncated, corrupt or foreign-version frames
//!   are answered with a typed [`ErrorReply`] and a clean disconnect.

use crate::service::{PublishError, QueryResponse, QueryService, ServiceError};
use ksp_proto::message::{ErrorReply, QueryAnswer, Request, Response, TraceContext};
use ksp_proto::transport::{Transport, TransportError, TransportStats};
use std::sync::Arc;

impl From<ServiceError> for ErrorReply {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::Overloaded { depth, retry_after_ms } => {
                ErrorReply::Overloaded { depth: depth as u64, retry_after_ms }
            }
            ServiceError::ShuttingDown => ErrorReply::ShuttingDown,
            ServiceError::InvalidQuery(g) => ErrorReply::InvalidQuery(g.to_string()),
            ServiceError::InvalidK => ErrorReply::InvalidK,
        }
    }
}

impl From<PublishError> for ErrorReply {
    fn from(e: PublishError) -> Self {
        match e {
            PublishError::Graph(g) => ErrorReply::InvalidBatch(g.to_string()),
            PublishError::Store(s) => ErrorReply::Storage(s.to_string()),
            PublishError::Degraded(reason) => ErrorReply::Degraded(reason),
        }
    }
}

/// The replication endpoint a [`QueryService`] delegates `ShipSegment`,
/// `SnapshotChunk` and `ReplAck` requests to, when one is registered via
/// [`QueryService::set_replication_hook`].
///
/// `ksp-serve` knows nothing about log shipping — the hook inverts the
/// dependency so `ksp-repl` can plug a leader-side `ReplicationSource` into
/// the service *after* construction, and every transport routes through it
/// automatically because they all funnel into [`QueryService::handle`].
pub trait ReplicationHook: Send + Sync {
    /// Answers one replication request. Only the three replication variants
    /// are ever dispatched here; anything else is a service bug.
    fn handle(&self, request: &Request) -> Response;

    /// Metric families (`ksp_repl_*`) the hook contributes to the service's
    /// observability snapshot, appended to every `ObsSnapshot` response.
    fn metric_families(&self) -> (Vec<ksp_obs::Counter>, Vec<ksp_obs::Gauge>);
}

/// The reply to one query's outcome.
pub(crate) fn query_response(result: Result<QueryResponse, ServiceError>) -> Response {
    match result {
        Ok(response) => Response::Query(QueryAnswer {
            epoch: response.epoch,
            cache_hit: response.cache_hit,
            latency_micros: response.latency.as_micros().min(u64::MAX as u128) as u64,
            stats: (&response.stats).into(),
            paths: response.paths,
        }),
        Err(e) => Response::Error(e.into()),
    }
}

/// Wraps `response` in the trace envelope its request arrived in, if any.
pub(crate) fn echo_trace(trace: Option<TraceContext>, response: Response) -> Response {
    match trace {
        Some(trace) => Response::Traced { trace, inner: Box::new(response) },
        None => response,
    }
}

impl QueryService {
    /// Answers one protocol request. This is the generic dispatch every
    /// transport calls into; [`QueryService::query`] and
    /// [`QueryService::apply_batch`] are the typed fast paths it routes
    /// through, so in-process and remote callers observe identical behaviour.
    ///
    /// A `Request::Traced` envelope is unwrapped first and its context echoed
    /// back around the response — around typed error replies too — and the
    /// trace id is threaded into the query path so any flight dump the
    /// request triggers carries it. A bare request gets a bare reply: every
    /// `KspClient` request is traced, but raw-frame peers need not be.
    pub fn handle(&self, request: Request) -> Response {
        let (trace, request) = request.into_parts();
        let trace_id = trace.map(|t| t.trace_id).unwrap_or(0);
        echo_trace(trace, self.handle_inner(request, trace_id))
    }

    fn handle_inner(&self, request: Request, trace_id: u64) -> Response {
        match request {
            // `into_parts` unwraps exactly one envelope, and the wire decoder
            // rejects nesting, so this arm is only reachable for an
            // in-process caller that built a nested envelope by hand.
            Request::Traced { .. } => Response::Error(ErrorReply::Malformed(
                "nested trace envelopes are not supported".to_string(),
            )),
            Request::Ping => {
                Response::Pong { epoch: self.current_epoch(), num_shards: self.num_shards() as u64 }
            }
            Request::Query(key) => {
                query_response(self.query_traced(key.source, key.target, key.k, trace_id))
            }
            Request::ApplyBatch(batch) => match self.apply_batch(&batch) {
                Ok(epoch) => Response::ApplyBatch { epoch },
                Err(e) => Response::Error(e.into()),
            },
            Request::CheckpointNow => match self.checkpoint_now() {
                Ok(epoch) => Response::CheckpointNow { epoch },
                Err(e) => Response::Error(e.into()),
            },
            Request::ObsSnapshot => Response::ObsSnapshot(Box::new(self.obs_snapshot())),
            request @ (Request::ShipSegment { .. }
            | Request::SnapshotChunk { .. }
            | Request::ReplAck { .. }) => match self.replication_hook() {
                Some(hook) => hook.handle(&request),
                None => Response::Error(ErrorReply::Unsupported(
                    "replication is not enabled on this server".to_string(),
                )),
            },
        }
    }
}

/// The zero-copy in-process transport: requests are dispatched straight into
/// [`QueryService::handle`] on the caller's thread. No bytes are produced, so
/// [`TransportStats`] reports zero wire cost — by design, as the baseline the
/// TCP path is priced against.
pub struct InProcTransport {
    service: Arc<QueryService>,
    stats: TransportStats,
}

impl InProcTransport {
    /// Wraps a shared service handle.
    pub fn new(service: Arc<QueryService>) -> Self {
        InProcTransport { service, stats: TransportStats::default() }
    }
}

impl Transport for InProcTransport {
    fn roundtrip(&mut self, request: Request) -> Result<Response, TransportError> {
        self.stats.requests += 1;
        let response = self.service.handle(request);
        self.stats.responses += 1;
        Ok(response)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use ksp_core::dtlp::DtlpConfig;
    use ksp_graph::{VertexId, WeightUpdate};
    use ksp_proto::message::QueryKey;
    use ksp_proto::{HandshakeInfo, KspClient};
    use ksp_workload::{RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig, TrafficModel};

    fn service(n: usize, shards: usize, seed: u64) -> (Arc<QueryService>, ksp_graph::DynamicGraph) {
        let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n))
            .generate(seed)
            .unwrap()
            .graph;
        let config = ServiceConfig::new(shards, DtlpConfig::new(16, 2));
        let service = Arc::new(QueryService::start(graph.clone(), config).unwrap());
        (service, graph)
    }

    #[test]
    fn handle_dispatches_the_full_operator_surface() {
        let (service, graph) = service(150, 2, 3);
        let last = VertexId(graph.num_vertices() as u32 - 1);

        assert_eq!(service.handle(Request::Ping), Response::Pong { epoch: 0, num_shards: 2 });

        // Replication requests are typed-unsupported until a hook registers.
        assert!(matches!(
            service.handle(Request::ShipSegment { from_epoch: 1, max_records: 8, max_bytes: 1024 }),
            Response::Error(ErrorReply::Unsupported(_))
        ));

        // Query: answers equal the direct path bit for bit.
        let direct = service.query(VertexId(0), last, 2).unwrap();
        let Response::Query(answer) =
            service.handle(Request::Query(QueryKey::new(VertexId(0), last, 2)))
        else {
            panic!("expected a Query response");
        };
        assert_eq!(answer.epoch, direct.epoch);
        assert_eq!(answer.paths.len(), direct.paths.len());
        for (a, b) in answer.paths.iter().zip(direct.paths.iter()) {
            assert_eq!(a.vertices(), b.vertices());
            assert_eq!(a.distance().value().to_bits(), b.distance().value().to_bits());
        }

        // ApplyBatch publishes; the epoch is visible to later requests.
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.4, 0.4), 5);
        let Response::ApplyBatch { epoch } =
            service.handle(Request::ApplyBatch(traffic.next_snapshot()))
        else {
            panic!("expected an ApplyBatch response");
        };
        assert_eq!(epoch, 1);
        assert_eq!(service.current_epoch(), 1);

        // An invalid batch fails typed and publishes nothing.
        let bogus = ksp_graph::UpdateBatch::new(vec![WeightUpdate::new(
            ksp_graph::EdgeId(graph.num_edges() as u32 + 7),
            ksp_graph::Weight::new(1.0),
        )]);
        assert!(matches!(
            service.handle(Request::ApplyBatch(bogus)),
            Response::Error(ErrorReply::InvalidBatch(_))
        ));
        assert_eq!(service.current_epoch(), 1);

        // CheckpointNow on an in-memory service is a typed no-op.
        assert_eq!(service.handle(Request::CheckpointNow), Response::CheckpointNow { epoch: None });

        // ObsSnapshot carries the rejected counter and the one queue gauge.
        let Response::ObsSnapshot(snap) = service.handle(Request::ObsSnapshot) else {
            panic!("expected an ObsSnapshot response");
        };
        assert_eq!(snap.counter("ksp_epochs_published_total"), 1);
        assert_eq!(snap.counter("ksp_requests_rejected_total"), 0);
        assert_eq!(snap.gauges.iter().filter(|g| g.name == "ksp_queue_depth").count(), 1);
        let completed = service.metrics().completed;
        assert_eq!(snap.counter("ksp_requests_completed_total"), completed);
        assert_eq!(snap.end_to_end.count, completed);
    }

    #[test]
    fn pipelined_queries_fail_one_at_a_time() {
        let (service, graph) = service(120, 2, 13);
        let last = VertexId(graph.num_vertices() as u32 - 1);
        let bad = VertexId(graph.num_vertices() as u32 + 9);
        let mut client = KspClient::new(InProcTransport::new(service));
        let outcomes = client
            .query_pipelined(&[
                QueryKey::new(VertexId(0), last, 1),
                QueryKey::new(bad, last, 1),
                QueryKey::new(VertexId(0), last, 0),
            ])
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(!outcomes[0].as_ref().unwrap().paths.is_empty());
        assert!(matches!(outcomes[1], Err(ErrorReply::InvalidQuery(_))));
        assert!(matches!(outcomes[2], Err(ErrorReply::InvalidK)));
    }

    #[test]
    fn in_proc_transport_is_zero_copy_and_counts_requests() {
        let (service, graph) = service(120, 1, 11);
        let last = VertexId(graph.num_vertices() as u32 - 1);
        let (mut client, info) =
            KspClient::handshake(InProcTransport::new(service.clone())).unwrap();
        assert_eq!(info, HandshakeInfo { epoch: 0, num_shards: 1 });
        let answer = client.query(VertexId(0), last, 2).unwrap();
        assert_eq!(answer.epoch, 0);
        assert!(!answer.paths.is_empty());
        let stats = client.stats();
        assert_eq!(stats.requests, 2); // ping + query
        assert_eq!(stats.bytes_sent, 0, "in-process moves no bytes");
        assert_eq!(stats.bytes_received, 0);
    }
}
