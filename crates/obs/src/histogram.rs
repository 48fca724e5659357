//! The lock-free log₂ latency histogram shared by the end-to-end and
//! per-stage metrics, plus its plain-data snapshot form.
//!
//! This is the histogram `ksp-serve` has recorded end-to-end latency into
//! since PR 2, moved here so per-stage aggregation, wire exposition and the
//! text renderer can all speak the same bucket layout.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets: bucket `i` covers `[2^i, 2^(i+1))` microseconds,
/// with the last bucket open-ended. 40 buckets cover ~1 µs to ~9 minutes.
pub const BUCKETS: usize = 40;

/// Upper bound, in microseconds, of bucket `i` (the last bucket is open-ended
/// and reported via the histogram's max instead).
pub fn bucket_upper_micros(i: usize) -> u64 {
    1u64 << (i + 1).min(63)
}

/// A lock-free log₂-bucketed latency histogram over microseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0u64; BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            total_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        self.record_micros(micros);
    }

    /// Records one observation already measured in microseconds.
    pub fn record_micros(&self, micros: u64) {
        let bucket = (64 - micros.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing the `q`-quantile observation
    /// (`q` in `[0, 1]`), or zero when empty. Log-bucketing bounds the error to
    /// a factor of two, which is plenty for p50/p95/p99 reporting.
    pub fn quantile(&self, q: f64) -> Duration {
        let count = self.count();
        if count == 0 {
            return Duration::ZERO;
        }
        let rank = ((count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Duration::from_micros(bucket_upper_micros(i));
            }
        }
        Duration::from_micros(self.max_micros.load(Ordering::Relaxed))
    }

    /// Mean observed latency.
    pub fn mean(&self) -> Duration {
        let count = self.count();
        if count == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.total_micros.load(Ordering::Relaxed) / count)
    }

    /// Largest observed latency.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_micros.load(Ordering::Relaxed))
    }

    /// Copies the live counters into a plain-data snapshot. Buckets are read
    /// individually (not atomically as a set), so a snapshot taken under
    /// concurrent recording can be off by in-flight observations — fine for
    /// monitoring, which is the only consumer.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            total_micros: self.total_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data form of a [`LatencyHistogram`]: what goes over the wire and
/// into the text exposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; bucket `i` covers `[2^i, 2^(i+1))` µs.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, microseconds.
    pub total_micros: u64,
    /// Largest observation, microseconds.
    pub max_micros: u64,
}

impl HistogramSnapshot {
    /// Same quantile estimate as [`LatencyHistogram::quantile`]. The running
    /// count saturates, so a snapshot decoded from a peer with overflowing
    /// bucket counts cannot panic here.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*bucket);
            if seen >= rank {
                return Duration::from_micros(bucket_upper_micros(i));
            }
        }
        Duration::from_micros(self.max_micros)
    }

    /// Mean observation.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.total_micros / self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_orders_quantiles() {
        let h = LatencyHistogram::default();
        for micros in [10u64, 20, 40, 80, 160, 320, 640, 1280, 2560, 100_000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 10);
        assert!(h.quantile(0.5) <= h.quantile(0.95));
        assert!(h.quantile(0.95) <= h.quantile(0.99));
        assert!(h.quantile(0.99) >= Duration::from_micros(100_000 / 2));
        assert!(h.mean() >= Duration::from_micros(10));
        assert!(h.max() >= Duration::from_micros(100_000));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn quantiles_of_overflowing_bucket_counts_saturate() {
        // Bucket counts whose sum overflows a u64, as a hostile peer can send:
        // the rank of q = 1 lies past the first bucket.
        let h = HistogramSnapshot {
            buckets: vec![u64::MAX - 1, 2],
            count: u64::MAX,
            total_micros: 0,
            max_micros: 0,
        };
        assert_eq!(h.quantile(1.0), Duration::from_micros(bucket_upper_micros(1)));
    }

    #[test]
    fn snapshot_mirrors_the_live_histogram() {
        let h = LatencyHistogram::default();
        for micros in [3u64, 17, 900, 40_000] {
            h.record(Duration::from_micros(micros));
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets.len(), BUCKETS);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.total_micros, 3 + 17 + 900 + 40_000);
        assert_eq!(snap.max_micros, 40_000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(snap.quantile(q), h.quantile(q));
        }
        assert_eq!(snap.mean(), h.mean());
    }
}
