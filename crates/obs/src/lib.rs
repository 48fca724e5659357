//! Observability for the KSP-DG serving stack: per-stage request spans, a
//! flight recorder, and metrics exposition.
//!
//! The serving layer (PRs 2–5) made the paper's thesis — maintenance cost
//! scales with what changed — hold end to end, but a running service could
//! only report one end-to-end latency histogram and a handful of counters.
//! This crate is the missing layer between "the benchmarks say so" and "the
//! operator can see it":
//!
//! * **[`StageSpan`] / [`SpanChain`] / [`StageHistograms`]** — one stage
//!   clock, generic over a [`StageSet`], for both paths. Every request is
//!   stamped through the [`Stage`]s admission → queue → cache → engine →
//!   trace_sweep → reply; every epoch publish through the
//!   [`PublishStage`]s stage_index → wal_append → fsync → swap → retention →
//!   checkpoint_encode → checkpoint_commit, the span travelling into the
//!   background checkpointer for checkpoint epochs. Stage durations are
//!   derived from *one* set of cumulative stamps, so they telescope:
//!   per-stage totals sum exactly to the end-to-end latency the service
//!   records. Disabled spans cost one branch per stage mark.
//! * **[`FlightRecorder`]** — a fixed-size, lock-free ring of recent
//!   structured [`ObsEvent`]s (epoch publishes with dirty-set sizes,
//!   checkpoint commits, cache retention outcomes, rejections, hostile
//!   frames, recovery steps). Anomaly triggers (per-request SLO
//!   breach, slow publish, hostile frame, recovery) capture a bounded
//!   [`FlightDump`] — the ring contents plus the offending request's span
//!   chain — for post-hoc diagnosis.
//! * **[`ObsSnapshot`] / [`render_prometheus`]** — a plain-data snapshot of
//!   per-stage histograms, counters, gauges and the latest flight dump,
//!   renderable as Prometheus text exposition format so any scraper can read
//!   a service over the existing wire protocol.
//!
//! The crate is dependency-free (std only) and sits below `ksp-store`,
//! `ksp-proto` and `ksp-serve`: the store's codec encodes [`ObsSnapshot`],
//! proto carries it as the `ObsSnapshot` response, serve owns the
//! instrumentation points.

#![warn(missing_docs)]

mod config;
mod expo;
mod flight;
mod histogram;
mod publish;
mod snapshot;
mod span;
mod stage;

pub use config::ObsConfig;
pub use expo::{
    render_prometheus, E2E_FAMILY, PUBLISH_E2E_FAMILY, PUBLISH_STAGE_FAMILY, STAGE_FAMILY,
};
pub use flight::{EventKind, FlightDump, FlightRecorder, ObsEvent};
pub use histogram::{bucket_upper_micros, HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use publish::PublishStage;
pub use snapshot::{Counter, Gauge, ObsSnapshot, StageSnapshot};
pub use span::{SpanChain, StageHistograms, StageSpan};
pub use stage::{Stage, StageSet};
