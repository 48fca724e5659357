//! Observability configuration.

use std::time::Duration;

/// Knobs for the observability layer; lives inside the service configuration
/// (and therefore stays `Copy`). The flight-recorder capacity and the
/// publish, log-append and fsync stall bounds are fixed by the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record per-request span chains and per-stage histograms. When `false`,
    /// requests carry a disabled span and every stage mark is a single
    /// branch; the flight recorder still captures service-level events
    /// (publishes, checkpoints, recovery), which are far off the per-request
    /// hot path.
    pub enabled: bool,
    /// Per-request latency SLO: a completed request slower than this triggers
    /// a flight dump carrying the offending request's span chain.
    /// [`Duration::ZERO`] disables the trigger.
    pub slo_p99: Duration,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { enabled: true, slo_p99: Duration::ZERO }
    }
}

impl ObsConfig {
    /// A configuration with per-request instrumentation off.
    pub fn disabled() -> Self {
        ObsConfig { enabled: false, ..ObsConfig::default() }
    }
}
