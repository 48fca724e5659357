//! [`StoreCodec`] implementations for the `ksp-obs` observability snapshot,
//! the payload of the wire `ObsSnapshot` response.
//!
//! Histograms carry only their bucket occupancy (the log₂-microsecond bucket
//! bounds are fixed by `ksp-obs`), stages and event kinds travel as their
//! `u8` codes, and gauge values as raw IEEE-754 bits. Decoding is
//! hostile-input safe: an unknown or retired stage or event-kind code, and a
//! span chain without exactly one value per stage, fail with a typed
//! [`CodecError`]. Whatever decodes renders exactly as the sender's snapshot
//! does.

use crate::codec::{encode_slice, Reader, StoreCodec, Writer};
use crate::error::CodecError;
use ksp_obs::{
    Counter, EventKind, FlightDump, Gauge, HistogramSnapshot, ObsEvent, ObsSnapshot, SpanChain,
    StageSet, StageSnapshot,
};

impl StoreCodec for HistogramSnapshot {
    fn encode(&self, w: &mut Writer) {
        self.buckets.encode(w);
        w.put_u64(self.count);
        w.put_u64(self.total_micros);
        w.put_u64(self.max_micros);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(HistogramSnapshot {
            buckets: Vec::decode(r)?,
            count: r.get_u64()?,
            total_micros: r.get_u64()?,
            max_micros: r.get_u64()?,
        })
    }
}

impl<S: StageSet> StoreCodec for StageSnapshot<S> {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.stage.index() as u8);
        self.histogram.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let stage = S::from_index(r.get_u8()? as usize)
            .ok_or(CodecError::InvalidValue("stage code out of range"))?;
        Ok(StageSnapshot { stage, histogram: HistogramSnapshot::decode(r)? })
    }
}

impl StoreCodec for ObsEvent {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.at_micros);
        w.put_u8(self.kind as u8);
        w.put_u64(self.a);
        w.put_u64(self.b);
        w.put_u64(self.c);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let at_micros = r.get_u64()?;
        let kind = EventKind::from_code(r.get_u8()?)
            .ok_or(CodecError::InvalidValue("event kind code out of range"))?;
        Ok(ObsEvent { at_micros, kind, a: r.get_u64()?, b: r.get_u64()?, c: r.get_u64()? })
    }
}

/// Stage durations as a length-prefixed list in [`StageSet::ALL`] order, then
/// the branched flag.
impl<S: StageSet> StoreCodec for SpanChain<S> {
    fn encode(&self, w: &mut Writer) {
        encode_slice(self.micros.as_ref(), w);
        self.branched.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let micros: Vec<u64> = Vec::decode(r)?;
        if micros.len() != S::COUNT {
            return Err(CodecError::InvalidValue("span chain must carry one value per stage"));
        }
        Ok(SpanChain { micros: S::per_stage(|s| micros[s.index()]), branched: bool::decode(r)? })
    }
}

impl StoreCodec for FlightDump {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.at_micros);
        self.cause.encode(w);
        self.span.encode(w);
        self.events.encode(w);
        w.put_u64(self.trace_id);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(FlightDump {
            at_micros: r.get_u64()?,
            cause: ObsEvent::decode(r)?,
            span: Option::decode(r)?,
            events: Vec::decode(r)?,
            trace_id: r.get_u64()?,
        })
    }
}

impl StoreCodec for Counter {
    fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
        self.labels.encode(w);
        w.put_u64(self.value);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Counter { name: String::decode(r)?, labels: String::decode(r)?, value: r.get_u64()? })
    }
}

impl StoreCodec for Gauge {
    fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
        self.labels.encode(w);
        w.put_f64(self.value);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Gauge { name: String::decode(r)?, labels: String::decode(r)?, value: r.get_f64()? })
    }
}

impl StoreCodec for ObsSnapshot {
    fn encode(&self, w: &mut Writer) {
        self.stages.encode(w);
        self.end_to_end.encode(w);
        self.counters.encode(w);
        self.gauges.encode(w);
        self.dump.encode(w);
        self.publish_stages.encode(w);
        self.publish_end_to_end.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ObsSnapshot {
            stages: Vec::decode(r)?,
            end_to_end: HistogramSnapshot::decode(r)?,
            counters: Vec::decode(r)?,
            gauges: Vec::decode(r)?,
            dump: Option::decode(r)?,
            publish_stages: Vec::decode(r)?,
            publish_end_to_end: HistogramSnapshot::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::crc32;
    use ksp_obs::{PublishStage, Stage};

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
                .map(|(i, &stage)| StageSnapshot { stage, histogram: hist(i as u64 + 20) })
                .collect(),
            publish_end_to_end: hist(60),
            counters: vec![
                Counter {
                    name: "ksp_requests_completed_total".into(),
                    labels: String::new(),
                    value: 17,
                },
                Counter {
                    name: "ksp_admission_rejected_total".into(),
                    labels: "reason=\"queue_full\"".into(),
                    value: 3,
                },
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
                span: Some(SpanChain { micros: [1, 2, 3, 4, 5, 6], branched: false }),
                events: vec![
                    ObsEvent { at_micros: 1, kind: EventKind::EpochPublished, a: 1, b: 4, c: 900 },
                    ObsEvent { at_micros: 2, kind: EventKind::Rejection, a: 0, b: 1, c: 8 },
                ],
                trace_id: 0xBEEF_0007,
            }),
        }
    }

    #[test]
    fn obs_snapshots_round_trip_losslessly() {
        let snapshot = sample_snapshot();
        let back = ObsSnapshot::from_bytes(&snapshot.to_bytes()).unwrap();
        assert_eq!(back, snapshot);
        // The remote render matches the local one byte for byte.
        assert_eq!(ksp_obs::render_prometheus(&back), ksp_obs::render_prometheus(&snapshot));
    }

    #[test]
    fn encoding_matches_the_pinned_bytes() {
        // The layout is part of the wire protocol: changing any byte of it
        // means bumping the protocol version and re-pinning these.
        let bytes = sample_snapshot().to_bytes();
        assert_eq!(bytes.len(), 5675);
        assert_eq!(crc32(&bytes), 0x301e_b55d);
    }

    #[test]
    fn flight_dumps_carry_their_trace_id_over_the_wire() {
        let snapshot = sample_snapshot();
        let dump = snapshot.dump.as_ref().expect("the sample carries a dump");
        assert_eq!(FlightDump::from_bytes(&dump.to_bytes()).unwrap().trace_id, 0xBEEF_0007);
        let back = ObsSnapshot::from_bytes(&snapshot.to_bytes()).unwrap();
        assert_eq!(back.dump.unwrap().trace_id, 0xBEEF_0007);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let empty = ObsSnapshot::default();
        let decoded = ObsSnapshot::from_bytes(&empty.to_bytes()).unwrap();
        assert_eq!(decoded, empty);
        assert!(decoded.dump.is_none());
    }

    /// Encodes `value`, overwrites the byte at `at` with `code`, and decodes.
    fn decode_with<T: StoreCodec>(value: &T, at: usize, code: u8) -> Result<T, CodecError> {
        let mut bytes = value.to_bytes();
        bytes[at] = code;
        T::from_bytes(&bytes)
    }

    #[test]
    fn hostile_codes_fail_typed() {
        let histogram = HistogramSnapshot::default();
        let stage = StageSnapshot { stage: Stage::Engine, histogram: histogram.clone() };
        assert!(matches!(decode_with(&stage, 0, 200), Err(CodecError::InvalidValue(_))));
        let publish = StageSnapshot { stage: PublishStage::Fsync, histogram };
        assert!(matches!(decode_with(&publish, 0, 200), Err(CodecError::InvalidValue(_))));
        let event = ObsEvent { at_micros: 0, kind: EventKind::Rejection, a: 0, b: 0, c: 0 };
        assert!(matches!(decode_with(&event, 8, 99), Err(CodecError::InvalidValue(_))));
        // Code 4 is retired: it decodes to no kind, although 3 and 5 do.
        assert!(matches!(decode_with(&event, 8, 4), Err(CodecError::InvalidValue(_))));

        // A read-path chain carries exactly six stages: three, or the seven
        // of a protocol that still had a steal stage, fail typed.
        for len in [3u64, 7] {
            let mut w = Writer::new();
            (1..=len).collect::<Vec<u64>>().encode(&mut w);
            false.encode(&mut w);
            assert!(matches!(
                SpanChain::<Stage>::from_bytes(&w.into_bytes()),
                Err(CodecError::InvalidValue(_))
            ));
        }

        // A dump option tag outside {0, 1} is rejected.
        let mut w = Writer::new();
        let snapshot = ObsSnapshot::default();
        snapshot.stages.encode(&mut w);
        snapshot.end_to_end.encode(&mut w);
        snapshot.counters.encode(&mut w);
        snapshot.gauges.encode(&mut w);
        w.put_u8(7);
        assert!(matches!(
            ObsSnapshot::from_bytes(&w.into_bytes()),
            Err(CodecError::InvalidTag { what: "Option", tag: 7 })
        ));
    }

    #[test]
    fn truncated_snapshots_fail_typed() {
        // No strict prefix of a populated snapshot decodes, wherever the cut
        // falls: inside a histogram, a string, the dump or the publish stages.
        let bytes = sample_snapshot().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                ObsSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix of {} bytes must not decode",
                bytes.len()
            );
        }
    }
}
