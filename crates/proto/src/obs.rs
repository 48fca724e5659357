//! Wire forms of the `ksp-obs` observability snapshot.
//!
//! The serving layer's [`ObsSnapshot`] — per-stage latency histograms, the
//! end-to-end histogram, counters/gauges and the latest flight-recorder dump
//! — crosses the wire as the mirror structs in this module. `ksp-obs` owns
//! the in-process types and knows nothing about encoding; this crate owns the
//! wire layout (the orphan rule forbids implementing the store's codec for
//! another crate's types, and the split also keeps the wire format explicit).
//!
//! Decoding is hostile-input safe in the same way as the rest of the
//! protocol: lengths validate against the bytes actually available, stage and
//! event-kind codes outside the known range fail with a typed
//! [`CodecError`], and span chains must carry exactly one duration per stage.
//! Within those checks conversion back to the `ksp-obs` types is lossless, so
//! a remote scrape renders byte-identically to a local
//! [`render_prometheus`](ksp_obs::render_prometheus) call.

use ksp_obs::{
    Counter, EventKind, FlightDump, Gauge, HistogramSnapshot, ObsEvent, ObsSnapshot, PublishStage,
    PublishStageSnapshot, SpanChain, Stage, StageSnapshot,
};
use ksp_store::{CodecError, Reader, StoreCodec, Writer};

fn encode_str(s: &str, w: &mut Writer) {
    w.put_u64(s.len() as u64);
    w.put_bytes(s.as_bytes());
}

fn decode_string(r: &mut Reader<'_>) -> Result<String, CodecError> {
    let len = r.get_count(1)?;
    let bytes = r.get_bytes(len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| CodecError::InvalidValue("string payload is not valid UTF-8"))
}

/// A latency histogram snapshot as carried on the wire (mirrors
/// [`HistogramSnapshot`]; bucket boundaries are implied by `ksp-obs`'s fixed
/// log₂-microsecond scale, so only the occupancy vector travels).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireHistogram {
    /// Per-bucket occupancy, log₂-microsecond scale, oldest bucket first.
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values, microseconds.
    pub total_micros: u64,
    /// Largest recorded value, microseconds.
    pub max_micros: u64,
}

impl From<&HistogramSnapshot> for WireHistogram {
    fn from(h: &HistogramSnapshot) -> Self {
        WireHistogram {
            buckets: h.buckets.clone(),
            count: h.count,
            total_micros: h.total_micros,
            max_micros: h.max_micros,
        }
    }
}

impl WireHistogram {
    /// Converts back into the `ksp-obs` snapshot type.
    pub fn into_snapshot(self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets,
            count: self.count,
            total_micros: self.total_micros,
            max_micros: self.max_micros,
        }
    }
}

impl StoreCodec for WireHistogram {
    fn encode(&self, w: &mut Writer) {
        self.buckets.encode(w);
        w.put_u64(self.count);
        w.put_u64(self.total_micros);
        w.put_u64(self.max_micros);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WireHistogram {
            buckets: Vec::decode(r)?,
            count: r.get_u64()?,
            total_micros: r.get_u64()?,
            max_micros: r.get_u64()?,
        })
    }
}

/// One request stage's histogram, tagged with the stage's index code
/// (see [`Stage::index`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStageHistogram {
    /// The stage's index code; must name a known [`Stage`] to decode.
    pub stage: u8,
    /// The stage's latency histogram.
    pub histogram: WireHistogram,
}

impl From<&StageSnapshot> for WireStageHistogram {
    fn from(s: &StageSnapshot) -> Self {
        WireStageHistogram {
            stage: s.stage.index() as u8,
            histogram: WireHistogram::from(&s.histogram),
        }
    }
}

impl WireStageHistogram {
    /// Validates the stage code and converts back into the `ksp-obs` type.
    pub fn into_snapshot(self) -> Result<StageSnapshot, CodecError> {
        let stage = Stage::from_index(self.stage as usize)
            .ok_or(CodecError::InvalidValue("stage code out of range"))?;
        Ok(StageSnapshot { stage, histogram: self.histogram.into_snapshot() })
    }
}

impl StoreCodec for WireStageHistogram {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.stage);
        self.histogram.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WireStageHistogram { stage: r.get_u8()?, histogram: WireHistogram::decode(r)? })
    }
}

/// One write-path stage's histogram, tagged with the stage's index code
/// (see [`PublishStage::index`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePublishStageHistogram {
    /// The stage's index code; must name a known [`PublishStage`] to decode.
    pub stage: u8,
    /// The stage's latency histogram.
    pub histogram: WireHistogram,
}

impl From<&PublishStageSnapshot> for WirePublishStageHistogram {
    fn from(s: &PublishStageSnapshot) -> Self {
        WirePublishStageHistogram {
            stage: s.stage.index() as u8,
            histogram: WireHistogram::from(&s.histogram),
        }
    }
}

impl WirePublishStageHistogram {
    /// Validates the stage code and converts back into the `ksp-obs` type.
    pub fn into_snapshot(self) -> Result<PublishStageSnapshot, CodecError> {
        let stage = PublishStage::from_index(self.stage as usize)
            .ok_or(CodecError::InvalidValue("publish stage code out of range"))?;
        Ok(PublishStageSnapshot { stage, histogram: self.histogram.into_snapshot() })
    }
}

impl StoreCodec for WirePublishStageHistogram {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.stage);
        self.histogram.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WirePublishStageHistogram { stage: r.get_u8()?, histogram: WireHistogram::decode(r)? })
    }
}

/// One flight-recorder event as carried on the wire (mirrors [`ObsEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireObsEvent {
    /// Microseconds since the recorder started.
    pub at_micros: u64,
    /// The event-kind code; must name a known [`EventKind`] to decode.
    pub kind: u8,
    /// First payload word (meaning depends on the kind).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
}

impl From<&ObsEvent> for WireObsEvent {
    fn from(e: &ObsEvent) -> Self {
        WireObsEvent { at_micros: e.at_micros, kind: e.kind as u8, a: e.a, b: e.b, c: e.c }
    }
}

impl WireObsEvent {
    /// Validates the kind code and converts back into the `ksp-obs` type.
    pub fn into_event(self) -> Result<ObsEvent, CodecError> {
        let kind = EventKind::from_code(self.kind)
            .ok_or(CodecError::InvalidValue("event kind code out of range"))?;
        Ok(ObsEvent { at_micros: self.at_micros, kind, a: self.a, b: self.b, c: self.c })
    }
}

impl StoreCodec for WireObsEvent {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.at_micros);
        w.put_u8(self.kind);
        w.put_u64(self.a);
        w.put_u64(self.b);
        w.put_u64(self.c);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WireObsEvent {
            at_micros: r.get_u64()?,
            kind: r.get_u8()?,
            a: r.get_u64()?,
            b: r.get_u64()?,
            c: r.get_u64()?,
        })
    }
}

/// A finished request's per-stage durations (mirrors [`SpanChain`]). Exactly
/// one duration per stage, in [`Stage::ALL`] order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpanChain {
    /// Stage durations in microseconds, [`Stage::ALL`] order.
    pub stage_micros: Vec<u64>,
    /// Whether the request was answered by a thief worker.
    pub stolen: bool,
}

impl From<&SpanChain> for WireSpanChain {
    fn from(c: &SpanChain) -> Self {
        WireSpanChain { stage_micros: c.micros.to_vec(), stolen: c.stolen }
    }
}

impl WireSpanChain {
    /// Validates the stage count and converts back into the `ksp-obs` type.
    pub fn into_chain(self) -> Result<SpanChain, CodecError> {
        let micros: [u64; Stage::COUNT] =
            self.stage_micros.as_slice().try_into().map_err(|_| {
                CodecError::InvalidValue("span chain must carry one value per stage")
            })?;
        Ok(SpanChain { micros, stolen: self.stolen })
    }
}

impl StoreCodec for WireSpanChain {
    fn encode(&self, w: &mut Writer) {
        self.stage_micros.encode(w);
        self.stolen.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WireSpanChain { stage_micros: Vec::decode(r)?, stolen: bool::decode(r)? })
    }
}

/// A flight-recorder dump as carried on the wire (mirrors [`FlightDump`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFlightDump {
    /// When the dump was taken, microseconds since the recorder started.
    pub at_micros: u64,
    /// The anomaly that triggered the dump.
    pub cause: WireObsEvent,
    /// The offending request's span chain, when the anomaly was per-request.
    pub span: Option<WireSpanChain>,
    /// The ring contents at dump time, oldest first.
    pub events: Vec<WireObsEvent>,
    /// The trace id of the request that triggered the dump (zero when
    /// untraced).
    pub trace_id: u64,
}

impl From<&FlightDump> for WireFlightDump {
    fn from(d: &FlightDump) -> Self {
        WireFlightDump {
            at_micros: d.at_micros,
            cause: WireObsEvent::from(&d.cause),
            span: d.span.as_ref().map(WireSpanChain::from),
            events: d.events.iter().map(WireObsEvent::from).collect(),
            trace_id: d.trace_id,
        }
    }
}

impl WireFlightDump {
    /// Validates every carried code and converts back into the `ksp-obs`
    /// type.
    pub fn into_dump(self) -> Result<FlightDump, CodecError> {
        Ok(FlightDump {
            at_micros: self.at_micros,
            cause: self.cause.into_event()?,
            span: self.span.map(WireSpanChain::into_chain).transpose()?,
            events: self
                .events
                .into_iter()
                .map(WireObsEvent::into_event)
                .collect::<Result<_, _>>()?,
            trace_id: self.trace_id,
        })
    }
}

impl StoreCodec for WireFlightDump {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.at_micros);
        self.cause.encode(w);
        match &self.span {
            Some(span) => {
                w.put_u8(1);
                span.encode(w);
            }
            None => w.put_u8(0),
        }
        self.events.encode(w);
        w.put_u64(self.trace_id);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WireFlightDump {
            at_micros: r.get_u64()?,
            cause: WireObsEvent::decode(r)?,
            span: match r.get_u8()? {
                0 => None,
                1 => Some(WireSpanChain::decode(r)?),
                tag => return Err(CodecError::InvalidTag { what: "Option<WireSpanChain>", tag }),
            },
            events: Vec::decode(r)?,
            trace_id: r.get_u64()?,
        })
    }
}

/// A named monotonic counter as carried on the wire (mirrors [`Counter`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCounter {
    /// Metric family name.
    pub name: String,
    /// Pre-rendered label pairs (`key="value"`), empty for none.
    pub labels: String,
    /// The running total.
    pub value: u64,
}

impl StoreCodec for WireCounter {
    fn encode(&self, w: &mut Writer) {
        encode_str(&self.name, w);
        encode_str(&self.labels, w);
        w.put_u64(self.value);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WireCounter { name: decode_string(r)?, labels: decode_string(r)?, value: r.get_u64()? })
    }
}

/// A named point-in-time gauge as carried on the wire (mirrors [`Gauge`]).
/// The value travels as raw IEEE-754 bits, so it survives bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct WireGauge {
    /// Metric family name.
    pub name: String,
    /// Pre-rendered label pairs, empty for none.
    pub labels: String,
    /// The instantaneous value.
    pub value: f64,
}

impl StoreCodec for WireGauge {
    fn encode(&self, w: &mut Writer) {
        encode_str(&self.name, w);
        encode_str(&self.labels, w);
        w.put_f64(self.value);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WireGauge { name: decode_string(r)?, labels: decode_string(r)?, value: r.get_f64()? })
    }
}

/// The full observability snapshot as carried on the wire (mirrors
/// [`ObsSnapshot`]): everything a scraper needs to render the per-stage
/// breakdown, the counters/gauges and the latest flight dump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireObsSnapshot {
    /// Per-stage latency histograms.
    pub stages: Vec<WireStageHistogram>,
    /// The end-to-end latency histogram the stages telescope to.
    pub end_to_end: WireHistogram,
    /// Monotonic counters.
    pub counters: Vec<WireCounter>,
    /// Point-in-time gauges.
    pub gauges: Vec<WireGauge>,
    /// The latest flight-recorder dump, when an anomaly has triggered one.
    pub dump: Option<WireFlightDump>,
    /// Per-write-path-stage latency histograms.
    pub publish_stages: Vec<WirePublishStageHistogram>,
    /// The end-to-end publish histogram the write-path stages telescope to.
    pub publish_end_to_end: WireHistogram,
}

impl From<&ObsSnapshot> for WireObsSnapshot {
    fn from(s: &ObsSnapshot) -> Self {
        WireObsSnapshot {
            stages: s.stages.iter().map(WireStageHistogram::from).collect(),
            end_to_end: WireHistogram::from(&s.end_to_end),
            counters: s
                .counters
                .iter()
                .map(|c| WireCounter {
                    name: c.name.clone(),
                    labels: c.labels.clone(),
                    value: c.value,
                })
                .collect(),
            gauges: s
                .gauges
                .iter()
                .map(|g| WireGauge {
                    name: g.name.clone(),
                    labels: g.labels.clone(),
                    value: g.value,
                })
                .collect(),
            dump: s.dump.as_ref().map(WireFlightDump::from),
            publish_stages: s.publish_stages.iter().map(WirePublishStageHistogram::from).collect(),
            publish_end_to_end: WireHistogram::from(&s.publish_end_to_end),
        }
    }
}

impl WireObsSnapshot {
    /// Validates every carried code and converts back into the `ksp-obs`
    /// snapshot, ready for [`ksp_obs::render_prometheus`].
    pub fn into_snapshot(self) -> Result<ObsSnapshot, CodecError> {
        Ok(ObsSnapshot {
            stages: self
                .stages
                .into_iter()
                .map(WireStageHistogram::into_snapshot)
                .collect::<Result<_, _>>()?,
            end_to_end: self.end_to_end.into_snapshot(),
            publish_stages: self
                .publish_stages
                .into_iter()
                .map(WirePublishStageHistogram::into_snapshot)
                .collect::<Result<_, _>>()?,
            publish_end_to_end: self.publish_end_to_end.into_snapshot(),
            counters: self
                .counters
                .into_iter()
                .map(|c| Counter { name: c.name, labels: c.labels, value: c.value })
                .collect(),
            gauges: self
                .gauges
                .into_iter()
                .map(|g| Gauge { name: g.name, labels: g.labels, value: g.value })
                .collect(),
            dump: self.dump.map(WireFlightDump::into_dump).transpose()?,
        })
    }
}

impl StoreCodec for WireObsSnapshot {
    fn encode(&self, w: &mut Writer) {
        self.stages.encode(w);
        self.end_to_end.encode(w);
        self.counters.encode(w);
        self.gauges.encode(w);
        match &self.dump {
            Some(dump) => {
                w.put_u8(1);
                dump.encode(w);
            }
            None => w.put_u8(0),
        }
        self.publish_stages.encode(w);
        self.publish_end_to_end.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WireObsSnapshot {
            stages: Vec::decode(r)?,
            end_to_end: WireHistogram::decode(r)?,
            counters: Vec::decode(r)?,
            gauges: Vec::decode(r)?,
            dump: match r.get_u8()? {
                0 => None,
                1 => Some(WireFlightDump::decode(r)?),
                tag => return Err(CodecError::InvalidTag { what: "Option<WireFlightDump>", tag }),
            },
            publish_stages: Vec::decode(r)?,
            publish_end_to_end: WireHistogram::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> ObsSnapshot {
        let hist = |seed: u64| {
            let mut buckets = vec![0u64; ksp_obs::BUCKETS];
            buckets[3] = seed;
            buckets[10] = seed + 1;
            HistogramSnapshot {
                buckets,
                count: 2 * seed + 1,
                total_micros: 100 * seed,
                max_micros: 90 * seed,
            }
        };
        ObsSnapshot {
            stages: Stage::ALL
                .iter()
                .enumerate()
                .map(|(i, &stage)| StageSnapshot { stage, histogram: hist(i as u64 + 1) })
                .collect(),
            end_to_end: hist(40),
            publish_stages: PublishStage::ALL
                .iter()
                .enumerate()
                .map(|(i, &stage)| PublishStageSnapshot { stage, histogram: hist(i as u64 + 20) })
                .collect(),
            publish_end_to_end: hist(60),
            counters: vec![
                Counter {
                    name: "ksp_requests_completed_total".into(),
                    labels: String::new(),
                    value: 17,
                },
                Counter { name: "ksp_steals_total".into(), labels: "shard=\"1\"".into(), value: 3 },
            ],
            gauges: vec![Gauge {
                name: "ksp_epoch_age_seconds".into(),
                labels: String::new(),
                value: 0.25,
            }],
            dump: Some(FlightDump {
                at_micros: 12345,
                cause: ObsEvent {
                    at_micros: 12345,
                    kind: EventKind::SloBreach,
                    a: 9000,
                    b: 10,
                    c: 0,
                },
                span: Some(SpanChain { micros: [1, 2, 0, 3, 4, 5, 6], stolen: false }),
                events: vec![
                    ObsEvent { at_micros: 1, kind: EventKind::EpochPublished, a: 1, b: 4, c: 900 },
                    ObsEvent { at_micros: 2, kind: EventKind::Steal, a: 0, b: 1, c: 8 },
                ],
                trace_id: 0xBEEF_0007,
            }),
        }
    }

    #[test]
    fn obs_snapshots_round_trip_losslessly() {
        let snapshot = sample_snapshot();
        let wire = WireObsSnapshot::from(&snapshot);
        let decoded = WireObsSnapshot::from_bytes(&wire.to_bytes()).unwrap();
        assert_eq!(decoded, wire);
        let back = decoded.into_snapshot().unwrap();
        assert_eq!(back.stages, snapshot.stages);
        assert_eq!(back.end_to_end, snapshot.end_to_end);
        assert_eq!(back.counters, snapshot.counters);
        assert_eq!(back.gauges, snapshot.gauges);
        assert_eq!(back.dump, snapshot.dump);
        assert_eq!(back.publish_stages, snapshot.publish_stages);
        assert_eq!(back.publish_end_to_end, snapshot.publish_end_to_end);
        // The remote render matches the local one byte for byte.
        assert_eq!(ksp_obs::render_prometheus(&back), ksp_obs::render_prometheus(&snapshot));
    }

    #[test]
    fn flight_dumps_carry_their_trace_id_over_the_wire() {
        let wire = WireObsSnapshot::from(&sample_snapshot());
        let dump = wire.dump.as_ref().expect("the sample carries a dump");
        assert_eq!(dump.trace_id, 0xBEEF_0007);
        let decoded = WireFlightDump::from_bytes(&dump.to_bytes()).unwrap();
        assert_eq!(decoded.into_dump().unwrap().trace_id, 0xBEEF_0007);
        let back = WireObsSnapshot::from_bytes(&wire.to_bytes()).unwrap().into_snapshot().unwrap();
        assert_eq!(back.dump.unwrap().trace_id, 0xBEEF_0007);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let wire = WireObsSnapshot::default();
        let decoded = WireObsSnapshot::from_bytes(&wire.to_bytes()).unwrap();
        assert_eq!(decoded, wire);
        assert!(decoded.into_snapshot().unwrap().dump.is_none());
    }

    #[test]
    fn hostile_codes_fail_typed() {
        // An unknown stage code survives decode (it is just a u8 on the wire)
        // but refuses conversion into the typed snapshot.
        let bad_stage = WireStageHistogram { stage: 200, histogram: WireHistogram::default() };
        let decoded = WireStageHistogram::from_bytes(&bad_stage.to_bytes()).unwrap();
        assert!(decoded.into_snapshot().is_err());

        let bad_publish =
            WirePublishStageHistogram { stage: 200, histogram: WireHistogram::default() };
        let decoded = WirePublishStageHistogram::from_bytes(&bad_publish.to_bytes()).unwrap();
        assert!(decoded.into_snapshot().is_err());

        let bad_kind = WireObsEvent { at_micros: 0, kind: 99, a: 0, b: 0, c: 0 };
        assert!(WireObsEvent::from_bytes(&bad_kind.to_bytes()).unwrap().into_event().is_err());

        let short_chain = WireSpanChain { stage_micros: vec![1, 2, 3], stolen: false };
        assert!(WireSpanChain::from_bytes(&short_chain.to_bytes()).unwrap().into_chain().is_err());

        // A dump option tag outside {0, 1} is rejected at decode time.
        let mut w = Writer::new();
        let snapshot = WireObsSnapshot::default();
        snapshot.stages.encode(&mut w);
        snapshot.end_to_end.encode(&mut w);
        snapshot.counters.encode(&mut w);
        snapshot.gauges.encode(&mut w);
        w.put_u8(7);
        assert!(matches!(
            WireObsSnapshot::from_bytes(&w.into_bytes()),
            Err(CodecError::InvalidTag { what: "Option<WireFlightDump>", tag: 7 })
        ));
    }

    #[test]
    fn truncated_snapshots_fail_typed() {
        // No strict prefix of a populated snapshot decodes, wherever the cut
        // falls: inside a histogram, a string, the dump or the publish stages.
        let bytes = WireObsSnapshot::from(&sample_snapshot()).to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                WireObsSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix of {} bytes must not decode",
                bytes.len()
            );
        }
    }
}
