//! The plain-data observability snapshot a service hands to scrapers.

use crate::flight::FlightDump;
use crate::histogram::HistogramSnapshot;
use crate::publish::PublishStage;
use crate::stage::{Stage, StageSet};

/// A cumulative-monotonic counter sample, optionally labelled
/// (e.g. `shard="2"`). Labels are pre-rendered `key="value"` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    /// Metric family name (e.g. `ksp_requests_completed_total`).
    pub name: String,
    /// Pre-rendered label pairs, empty for none.
    pub labels: String,
    /// Current value; never decreases over a service's lifetime.
    pub value: u64,
}

/// A point-in-time gauge sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Gauge {
    /// Metric family name (e.g. `ksp_epoch_age_seconds`).
    pub name: String,
    /// Pre-rendered label pairs, empty for none.
    pub labels: String,
    /// Current value.
    pub value: f64,
}

/// One stage's latency histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot<S: StageSet> {
    /// Which stage.
    pub stage: S,
    /// Its histogram.
    pub histogram: HistogramSnapshot,
}

/// Everything an observability scrape returns: per-stage histograms, the
/// end-to-end histogram, counters, gauges, and the latest flight-recorder
/// dump. This is the payload behind the wire `ObsSnapshot` request and the
/// input of [`render_prometheus`](crate::render_prometheus).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsSnapshot {
    /// Per-stage latency histograms, in [`Stage::ALL`] order.
    pub stages: Vec<StageSnapshot<Stage>>,
    /// The end-to-end latency histogram.
    pub end_to_end: HistogramSnapshot,
    /// Per-write-path-stage publish histograms, in [`PublishStage::ALL`]
    /// order. Their totals telescope to `publish_end_to_end.total_micros`.
    pub publish_stages: Vec<StageSnapshot<PublishStage>>,
    /// The end-to-end epoch-publish latency histogram.
    pub publish_end_to_end: HistogramSnapshot,
    /// Cumulative counters.
    pub counters: Vec<Counter>,
    /// Point-in-time gauges.
    pub gauges: Vec<Gauge>,
    /// The latest anomaly dump, if any trigger has fired.
    pub dump: Option<FlightDump>,
}

impl ObsSnapshot {
    /// The histogram of one read-path or write-path stage, if present.
    pub fn stage<S: StageSet>(&self, stage: S) -> Option<&HistogramSnapshot> {
        S::in_snapshot(self).iter().find(|s| s.stage == stage).map(|s| &s.histogram)
    }

    /// The value of an (unlabelled or labelled) counter by family name,
    /// summed over labels.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().filter(|c| c.name == name).map(|c| c.value).sum()
    }

    /// The first gauge sample with this family name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }
}
