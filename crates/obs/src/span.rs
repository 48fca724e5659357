//! Span chains and their per-stage aggregation, for any [`StageSet`].
//!
//! A [`StageSpan`] rides with one request or one epoch publish and is stamped
//! at each stage boundary with microseconds since one monotonic origin.
//! [`StageSpan::finish`] turns the cumulative stamps into per-stage durations
//! by differencing, so the durations *telescope*: their sum is exactly the
//! final stamp, which the service also records as the end-to-end latency.
//! Per-stage histogram totals therefore sum to the end-to-end histogram
//! total to the microsecond.
//!
//! A disabled span has no origin: every mark is one branch, no clock
//! reads, no allocation.

use crate::histogram::LatencyHistogram;
use crate::snapshot::StageSnapshot;
use crate::stage::StageSet;
use std::time::{Duration, Instant};

/// The stage clock of one request or publish. Create one with
/// [`StageSpan::begin_at`], mark the end of each stage as the work moves on,
/// and [`finish`](StageSpan::finish) to get the [`SpanChain`].
///
/// A stage whose end is never marked clamps to the previous boundary and
/// reads as zero-width (the home queue of a stolen request, the checkpoint
/// stages of an epoch without a checkpoint). The last stage ends at
/// `finish`.
#[derive(Debug, Clone, Copy)]
pub struct StageSpan<S: StageSet> {
    /// The instant stamps count from; `None` for a disabled span.
    origin: Option<Instant>,
    /// Per stage, the microseconds since `origin` at which it ended; zero
    /// while unmarked.
    ends: S::PerStage<u64>,
    /// Whether [`StageSet::BRANCH`] was marked.
    branched: bool,
}

fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

impl<S: StageSet> StageSpan<S> {
    /// A span that records nothing; every mark is a single branch.
    pub fn disabled() -> Self {
        StageSpan { origin: None, ends: S::per_stage(|_| 0), branched: false }
    }

    /// Starts a span whose stamps are measured from `origin`: pass the same
    /// instant used for the end-to-end latency so the stage durations
    /// telescope to it.
    pub fn begin_at(origin: Instant, enabled: bool) -> Self {
        StageSpan { origin: enabled.then_some(origin), ..Self::disabled() }
    }

    /// Whether this span is recording.
    pub fn is_enabled(&self) -> bool {
        self.origin.is_some()
    }

    /// Marks the end of `stage`.
    pub fn mark(&mut self, stage: S) {
        self.mark_with_tail(stage, Duration::ZERO);
    }

    /// Marks the end of `stage`, whose last `tail` was measured as work of
    /// the stage after it (the survival sweep closing an engine run, the
    /// fsync closing a log append): `tail` moves into that stage, so `stage`
    /// must not be the last. A `tail` longer than the stage is clamped to it.
    pub fn mark_with_tail(&mut self, stage: S, tail: Duration) {
        if let Some(origin) = self.origin {
            let now = micros(origin.elapsed());
            let ends = self.ends.as_mut();
            let i = stage.index();
            ends[i] = now.saturating_sub(micros(tail));
            if !tail.is_zero() {
                ends[i + 1] = now;
            }
            self.branched |= stage == S::BRANCH;
        }
    }

    /// Takes the final stamp and converts the stamps into per-stage
    /// durations. Returns the chain plus the end-to-end duration
    /// (`== chain.total_micros()`), or `None` for a disabled span.
    pub fn finish(&self) -> Option<(SpanChain<S>, Duration)> {
        let end = micros(self.origin?.elapsed());
        let mut micros = S::per_stage(|_| 0);
        // Clamp each boundary to be monotone, then difference: the sum of
        // the differences telescopes to `end` exactly.
        let mut start = 0;
        let last = S::COUNT - 1;
        for (i, (width, &mark)) in micros.as_mut().iter_mut().zip(self.ends.as_ref()).enumerate() {
            let stop = if i == last { end } else { mark.clamp(start, end) };
            *width = stop - start;
            start = stop;
        }
        Some((SpanChain { micros, branched: self.branched }, Duration::from_micros(end)))
    }
}

/// A finished span's per-stage durations, in microseconds, indexed by
/// [`StageSet::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanChain<S: StageSet> {
    /// Duration of each stage, microseconds.
    pub micros: S::PerStage<u64>,
    /// Whether the span marked [`StageSet::BRANCH`]: the request was served
    /// by a thief worker, the publish produced a checkpoint image.
    pub branched: bool,
}

impl<S: StageSet> SpanChain<S> {
    /// Total duration across all stages: the end-to-end latency in
    /// microseconds.
    pub fn total_micros(&self) -> u64 {
        self.micros.as_ref().iter().sum()
    }

    /// Duration of one stage.
    pub fn stage(&self, stage: S) -> Duration {
        Duration::from_micros(self.micros.as_ref()[stage.index()])
    }

    /// The stage this chain did not pass through, which histograms leave
    /// unrecorded (see [`StageSet::REPLACED_BY_BRANCH`]).
    fn skipped(&self) -> Option<S> {
        let replaced = S::REPLACED_BY_BRANCH?;
        Some(if self.branched { replaced } else { S::BRANCH })
    }
}

/// One [`LatencyHistogram`] per stage; the aggregation target of finished
/// span chains.
#[derive(Debug)]
pub struct StageHistograms<S: StageSet> {
    hists: S::PerStage<LatencyHistogram>,
}

impl<S: StageSet> Default for StageHistograms<S> {
    fn default() -> Self {
        StageHistograms { hists: S::per_stage(|_| LatencyHistogram::default()) }
    }
}

impl<S: StageSet> StageHistograms<S> {
    /// Folds one finished chain in. Every stage is recorded, zero-width
    /// stages too, except the one the chain did not pass through (see
    /// [`StageSet::REPLACED_BY_BRANCH`]).
    pub fn record_chain(&self, chain: &SpanChain<S>) {
        let skipped = chain.skipped();
        for &stage in S::ALL.as_ref() {
            if Some(stage) != skipped {
                self.stage(stage).record_micros(chain.micros.as_ref()[stage.index()]);
            }
        }
    }

    /// The live histogram of one stage.
    pub fn stage(&self, stage: S) -> &LatencyHistogram {
        &self.hists.as_ref()[stage.index()]
    }

    /// Snapshots every stage histogram, in [`StageSet::ALL`] order.
    pub fn snapshot(&self) -> Vec<StageSnapshot<S>> {
        S::ALL
            .as_ref()
            .iter()
            .map(|&stage| StageSnapshot { stage, histogram: self.stage(stage).snapshot() })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stage;

    #[test]
    fn disabled_span_is_inert() {
        let mut span = StageSpan::<Stage>::disabled();
        assert!(!span.is_enabled());
        span.mark(Stage::Admission);
        span.mark(Stage::Queue);
        span.mark(Stage::Cache);
        span.mark_with_tail(Stage::Engine, Duration::from_micros(5));
        assert!(span.finish().is_none());
    }

    #[test]
    fn chain_telescopes_to_the_end_to_end_latency() {
        let origin = Instant::now();
        let mut span = StageSpan::begin_at(origin, true);
        span.mark(Stage::Admission);
        std::thread::sleep(Duration::from_millis(2));
        span.mark(Stage::Queue);
        span.mark(Stage::Cache);
        std::thread::sleep(Duration::from_millis(1));
        span.mark_with_tail(Stage::Engine, Duration::from_micros(200));
        let (chain, total) = span.finish().expect("enabled span finishes");
        assert_eq!(chain.total_micros(), total.as_micros() as u64);
        assert!(chain.stage(Stage::Queue) >= Duration::from_millis(2));
        assert_eq!(chain.micros[Stage::Steal.index()], 0);
        assert_eq!(chain.stage(Stage::TraceSweep), Duration::from_micros(200));
        assert!(chain.stage(Stage::Engine) >= Duration::from_micros(800));
    }

    #[test]
    fn stolen_wait_lands_in_the_steal_stage() {
        let origin = Instant::now();
        let mut span = StageSpan::begin_at(origin, true);
        span.mark(Stage::Admission);
        std::thread::sleep(Duration::from_millis(1));
        span.mark(Stage::Steal);
        span.mark(Stage::Cache);
        span.mark_with_tail(Stage::Engine, Duration::ZERO);
        let (chain, _) = span.finish().unwrap();
        assert!(chain.branched);
        assert_eq!(chain.micros[Stage::Queue.index()], 0);
        assert!(chain.stage(Stage::Steal) >= Duration::from_millis(1));
    }

    #[test]
    fn stage_histograms_partition_queue_and_steal_counts() {
        let hists = StageHistograms::<Stage>::default();
        let stolen = SpanChain::<Stage> { micros: [1, 0, 7, 2, 100, 10, 1], branched: true };
        let queued = SpanChain::<Stage> { micros: [1, 5, 0, 2, 100, 10, 1], branched: false };
        hists.record_chain(&stolen);
        hists.record_chain(&queued);
        hists.record_chain(&queued);
        assert_eq!(hists.stage(Stage::Admission).count(), 3);
        assert_eq!(hists.stage(Stage::Queue).count(), 2);
        assert_eq!(hists.stage(Stage::Steal).count(), 1);
        let snap = hists.snapshot();
        assert_eq!(snap.len(), Stage::COUNT);
        let total: u64 = snap.iter().map(|s| s.histogram.total_micros).sum();
        assert_eq!(total, stolen.total_micros() + 2 * queued.total_micros());
    }
}
