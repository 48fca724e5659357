//! Prometheus text exposition format rendering for [`ObsSnapshot`].
//!
//! The output follows the text-based exposition format version 0.0.4:
//! `# TYPE` comments, cumulative `_bucket{le=...}` histogram series with an
//! explicit `+Inf` bucket, `_sum` in seconds, `_count`, and one sample per
//! line. Latency histograms keep this crate's log₂-microsecond buckets,
//! converted to seconds for the `le` bounds.

use crate::histogram::bucket_upper_micros;
use crate::snapshot::{ObsSnapshot, StageSnapshot};
use crate::stage::StageSet;
use crate::HistogramSnapshot;
use std::fmt::Write;

/// The metric family per-stage histograms are rendered under, with a
/// `stage="..."` label per stage.
pub const STAGE_FAMILY: &str = "ksp_stage_duration_seconds";

/// The metric family of the end-to-end latency histogram.
pub const E2E_FAMILY: &str = "ksp_request_duration_seconds";

/// The metric family per-write-path-stage publish histograms are rendered
/// under, with a `stage="..."` label per publish stage.
pub const PUBLISH_STAGE_FAMILY: &str = "ksp_publish_stage_duration_seconds";

/// The metric family of the end-to-end epoch-publish histogram.
pub const PUBLISH_E2E_FAMILY: &str = "ksp_publish_duration_seconds";

/// Renders a snapshot in Prometheus text exposition format.
pub fn render_prometheus(snapshot: &ObsSnapshot) -> String {
    let mut out = String::with_capacity(16 * 1024);

    let mut last_family = "";
    for c in &snapshot.counters {
        if c.name != last_family {
            let _ = writeln!(out, "# TYPE {} counter", c.name);
            last_family = &c.name;
        }
        let _ = writeln!(out, "{}{} {}", c.name, braced(&c.labels), c.value);
    }
    let mut last_family = "";
    for g in &snapshot.gauges {
        if g.name != last_family {
            let _ = writeln!(out, "# TYPE {} gauge", g.name);
            last_family = &g.name;
        }
        let _ = writeln!(out, "{}{} {}", g.name, braced(&g.labels), fmt_f64(g.value));
    }

    let (stages, e2e) = (&snapshot.stages, &snapshot.end_to_end);
    render_stage_family(&mut out, STAGE_FAMILY, stages, E2E_FAMILY, e2e);
    let (stages, e2e) = (&snapshot.publish_stages, &snapshot.publish_end_to_end);
    render_stage_family(&mut out, PUBLISH_STAGE_FAMILY, stages, PUBLISH_E2E_FAMILY, e2e);

    out
}

/// Renders one histogram per stage under `family`, labelled `stage="..."`,
/// then the end-to-end histogram they telescope to under `e2e_family`.
fn render_stage_family<S: StageSet>(
    out: &mut String,
    family: &str,
    stages: &[StageSnapshot<S>],
    e2e_family: &str,
    e2e: &HistogramSnapshot,
) {
    let _ = writeln!(out, "# TYPE {family} histogram");
    for s in stages {
        let label = format!("stage=\"{}\"", s.stage.name());
        render_histogram(out, family, &label, &s.histogram);
    }
    let _ = writeln!(out, "# TYPE {e2e_family} histogram");
    render_histogram(out, e2e_family, "", e2e);
}

/// Renders one histogram's `_bucket`/`_sum`/`_count` series. Buckets above
/// the largest non-empty one are elided (they would repeat the same
/// cumulative count the `+Inf` bucket already carries). Cumulative counts
/// saturate: a snapshot decoded from a peer may carry any bucket values.
fn render_histogram(out: &mut String, family: &str, labels: &str, h: &HistogramSnapshot) {
    let last_used = h.buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
    let mut cumulative = 0u64;
    for (i, count) in h.buckets.iter().take(last_used).enumerate() {
        cumulative = cumulative.saturating_add(*count);
        let le = bucket_upper_micros(i) as f64 / 1e6;
        let _ = writeln!(
            out,
            "{family}_bucket{} {cumulative}",
            braced(&join(labels, &format!("le=\"{}\"", fmt_f64(le))))
        );
    }
    let _ = writeln!(out, "{family}_bucket{} {}", braced(&join(labels, "le=\"+Inf\"")), h.count);
    let _ =
        writeln!(out, "{family}_sum{} {}", braced(labels), fmt_f64(h.total_micros as f64 / 1e6));
    let _ = writeln!(out, "{family}_count{} {}", braced(labels), h.count);
}

fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

fn join(a: &str, b: &str) -> String {
    if a.is_empty() {
        b.to_string()
    } else {
        format!("{a},{b}")
    }
}

/// Prometheus floats: decimal, no exponent surprises for the magnitudes we
/// emit, trailing zeros trimmed.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v:.9}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publish::PublishStage;
    use crate::snapshot::{Counter, Gauge};
    use crate::span::{SpanChain, StageHistograms};
    use crate::Stage;

    fn sample_snapshot() -> ObsSnapshot {
        let stages = StageHistograms::<Stage>::default();
        stages.record_chain(&SpanChain { micros: [1, 5, 0, 2, 900, 40, 1], branched: false });
        stages.record_chain(&SpanChain { micros: [2, 0, 9, 1, 0, 0, 1], branched: true });
        let e2e = crate::LatencyHistogram::default();
        e2e.record_micros(949);
        e2e.record_micros(13);
        let publish = StageHistograms::<PublishStage>::default();
        publish.record_chain(&SpanChain { micros: [40, 10, 200, 3, 8, 0, 2], branched: false });
        let publish_e2e = crate::LatencyHistogram::default();
        publish_e2e.record_micros(263);
        ObsSnapshot {
            stages: stages.snapshot(),
            end_to_end: e2e.snapshot(),
            publish_stages: publish.snapshot(),
            publish_end_to_end: publish_e2e.snapshot(),
            counters: vec![
                Counter {
                    name: "ksp_requests_completed_total".into(),
                    labels: String::new(),
                    value: 2,
                },
                Counter { name: "ksp_steals_total".into(), labels: "shard=\"1\"".into(), value: 1 },
            ],
            gauges: vec![Gauge {
                name: "ksp_epoch_age_seconds".into(),
                labels: String::new(),
                value: 0.125,
            }],
            dump: None,
        }
    }

    #[test]
    fn renders_every_family_and_stage() {
        let text = render_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE ksp_requests_completed_total counter"));
        assert!(text.contains("ksp_requests_completed_total 2"));
        assert!(text.contains("ksp_steals_total{shard=\"1\"} 1"));
        assert!(text.contains("# TYPE ksp_epoch_age_seconds gauge"));
        assert!(text.contains("ksp_epoch_age_seconds 0.125"));
        assert!(text.contains("# TYPE ksp_stage_duration_seconds histogram"));
        for stage in Stage::ALL {
            assert!(
                text.contains(&format!("stage=\"{}\"", stage.name())),
                "missing stage family for {}",
                stage.name()
            );
        }
        assert!(text.contains("ksp_request_duration_seconds_count 2"));
        assert!(text.contains("# TYPE ksp_publish_stage_duration_seconds histogram"));
        for stage in PublishStage::ALL {
            assert!(
                text.contains(&format!(
                    "ksp_publish_stage_duration_seconds_count{{stage=\"{}\"}} 1",
                    stage.name()
                )),
                "missing publish stage family for {}",
                stage.name()
            );
        }
        assert!(text.contains("ksp_publish_duration_seconds_count 1"));
    }

    /// CRC-32 (IEEE), enough to pin a rendered text without a dependency.
    fn crc32(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn exposition_text_matches_the_pinned_render() {
        // Every byte a scraper reads: family order, label order, bucket
        // elision and number formatting. Changing any of it means re-pinning.
        let text = render_prometheus(&sample_snapshot());
        assert_eq!((text.len(), crc32(text.as_bytes())), (8227, 0xc68b_6040), "{text}");
    }

    #[test]
    fn overflowing_bucket_counts_render_saturated() {
        // Bucket counts whose sum overflows a u64, as a hostile peer can send.
        let h = HistogramSnapshot {
            buckets: vec![u64::MAX, u64::MAX],
            count: u64::MAX,
            total_micros: 0,
            max_micros: 0,
        };
        let text = render_prometheus(&ObsSnapshot { end_to_end: h, ..ObsSnapshot::default() });
        let max = format!("ksp_request_duration_seconds_bucket{{le=\"0.000004\"}} {}", u64::MAX);
        assert!(text.contains(&max), "the second bucket saturates:\n{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_inf() {
        let text = render_prometheus(&sample_snapshot());
        // The end-to-end histogram holds observations at 13 µs and 949 µs:
        // the +Inf bucket must report both.
        let inf = text
            .lines()
            .find(|l| l.starts_with("ksp_request_duration_seconds_bucket{le=\"+Inf\"}"))
            .expect("+Inf bucket");
        assert!(inf.ends_with(" 2"), "cumulative +Inf bucket: {inf}");
        // Sum is in seconds.
        let sum = text
            .lines()
            .find(|l| l.starts_with("ksp_request_duration_seconds_sum"))
            .expect("sum line");
        assert!(sum.ends_with("0.000962"), "sum in seconds: {sum}");
    }
}
