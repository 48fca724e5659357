//! Write-path pipeline spans: where an epoch publish spends its lifetime.
//!
//! A [`PublishSpan`] is the write-path sibling of
//! [`RequestSpan`](crate::RequestSpan): it rides through
//! `QueryService::apply_batch` (and, for checkpoint epochs, into the
//! background checkpointer), is stamped at each stage boundary with
//! cumulative microseconds from one monotonic origin, and telescopes into a
//! [`PublishChain`] whose per-stage durations sum *exactly* to the recorded
//! end-to-end publish latency. Per-stage publish histogram totals therefore
//! sum to the end-to-end publish histogram total to the microsecond — the
//! same attribution guarantee the read path has had since the request-span
//! work, now extended to the paper's central cost: epoch maintenance.
//!
//! A disabled span is `None` inside: every mark is one branch, no clock
//! reads, no allocation.

use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use std::time::{Duration, Instant};

/// One stage of an epoch publish inside the query service.
///
/// The stages partition the interval from the start of `apply_batch` to the
/// end of the publish (for checkpoint epochs: to the checkpoint commit in the
/// background checkpointer), in this order:
///
/// 1. [`StageIndex`](PublishStage::StageIndex) — staging the batch against
///    the master graph and COW index (`with_batch` + `apply_batch`), up to
///    the dirty set being known.
/// 2. [`WalAppend`](PublishStage::WalAppend) — encoding and appending the
///    batch record to the delta log, excluding the fsync. Zero for an
///    in-memory service.
/// 3. [`Fsync`](PublishStage::Fsync) — the `sync_data` making the record
///    durable. Zero for an in-memory service or a non-`Always` sync policy.
/// 4. [`Swap`](PublishStage::Swap) — publishing the epoch snapshot pointer
///    and updating the masters.
/// 5. [`Retention`](PublishStage::Retention) — sweeping every shard cache
///    against the batch's dirty set (or clearing it wholesale).
/// 6. [`CheckpointEncode`](PublishStage::CheckpointEncode) — encoding the
///    checkpoint image off the publish path, including the hand-off wait to
///    the background checkpointer. Zero for non-checkpoint epochs.
/// 7. [`CheckpointCommit`](PublishStage::CheckpointCommit) — staging and
///    committing the image (write-temp, fsync, rename), plus the final
///    accounting tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PublishStage {
    /// Staging the batch against the master graph + COW index.
    StageIndex,
    /// Delta-log record encode + append, excluding the fsync.
    WalAppend,
    /// The fsync making the appended record durable.
    Fsync,
    /// Epoch-snapshot pointer swap + masters update.
    Swap,
    /// Per-shard cache retention sweep (or wholesale clear).
    Retention,
    /// Checkpoint image encoding (including checkpointer hand-off wait).
    CheckpointEncode,
    /// Checkpoint image stage + commit, plus the accounting tail.
    CheckpointCommit,
}

impl PublishStage {
    /// Number of publish stages.
    pub const COUNT: usize = 7;

    /// All stages in pipeline order.
    pub const ALL: [PublishStage; PublishStage::COUNT] = [
        PublishStage::StageIndex,
        PublishStage::WalAppend,
        PublishStage::Fsync,
        PublishStage::Swap,
        PublishStage::Retention,
        PublishStage::CheckpointEncode,
        PublishStage::CheckpointCommit,
    ];

    /// Stable metric-label name of this stage.
    pub fn name(self) -> &'static str {
        match self {
            PublishStage::StageIndex => "stage_index",
            PublishStage::WalAppend => "wal_append",
            PublishStage::Fsync => "fsync",
            PublishStage::Swap => "swap",
            PublishStage::Retention => "retention",
            PublishStage::CheckpointEncode => "checkpoint_encode",
            PublishStage::CheckpointCommit => "checkpoint_commit",
        }
    }

    /// Dense index of this stage in [`PublishStage::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`PublishStage::index`]; `None` for out-of-range values.
    pub fn from_index(index: usize) -> Option<PublishStage> {
        PublishStage::ALL.get(index).copied()
    }
}

/// Live stamp state of an enabled publish span. Stamps are cumulative
/// microseconds since `origin`.
#[derive(Debug, Clone, Copy)]
struct PublishState {
    origin: Instant,
    staged: u64,
    logged: u64,
    fsync_micros: u64,
    swapped: u64,
    retained: u64,
    encoded: u64,
    checkpointed: bool,
}

/// The per-publish stage clock. Create one per `apply_batch` call with
/// [`PublishSpan::begin_at`]; mark stage boundaries as the epoch moves
/// through the write path; [`finish`](PublishSpan::finish) yields the
/// [`PublishChain`].
///
/// For checkpoint epochs the span travels into the background checkpointer
/// with the job and finishes there, so the encode/commit stages cover the
/// real off-path work; an unmarked boundary clamps to the previous one and
/// the stage reads as zero-width (the non-checkpoint, in-memory case).
#[derive(Debug, Clone, Copy)]
pub struct PublishSpan {
    inner: Option<PublishState>,
}

impl PublishSpan {
    /// A span that records nothing; every mark is a single branch.
    pub fn disabled() -> PublishSpan {
        PublishSpan { inner: None }
    }

    /// Starts a span whose stamps are measured from `origin` — pass the same
    /// instant used for the publish's end-to-end latency so the stage
    /// durations telescope to it.
    pub fn begin_at(origin: Instant, enabled: bool) -> PublishSpan {
        PublishSpan {
            inner: enabled.then_some(PublishState {
                origin,
                staged: 0,
                logged: 0,
                fsync_micros: 0,
                swapped: 0,
                retained: 0,
                encoded: 0,
                checkpointed: false,
            }),
        }
    }

    /// Whether this span is recording.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn stamp(origin: Instant) -> u64 {
        origin.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Marks the end of index staging: the new graph/index pair and the dirty
    /// set are known.
    pub fn mark_staged(&mut self) {
        if let Some(s) = &mut self.inner {
            s.staged = Self::stamp(s.origin);
        }
    }

    /// Marks the end of the delta-log append; `fsync` is the portion the
    /// append spent in `sync_data` (zero when the record was not synced).
    pub fn mark_logged(&mut self, fsync: Duration) {
        if let Some(s) = &mut self.inner {
            s.logged = Self::stamp(s.origin);
            s.fsync_micros = fsync.as_micros().min(u64::MAX as u128) as u64;
        }
    }

    /// Marks the epoch-snapshot pointer swap.
    pub fn mark_swapped(&mut self) {
        if let Some(s) = &mut self.inner {
            s.swapped = Self::stamp(s.origin);
        }
    }

    /// Marks the end of the cache-retention sweep.
    pub fn mark_retained(&mut self) {
        if let Some(s) = &mut self.inner {
            s.retained = Self::stamp(s.origin);
        }
    }

    /// Marks the end of checkpoint-image encoding (checkpoint epochs only);
    /// also flags the chain as checkpointed.
    pub fn mark_encoded(&mut self) {
        if let Some(s) = &mut self.inner {
            s.encoded = Self::stamp(s.origin);
            s.checkpointed = true;
        }
    }

    /// Takes the final stamp and converts the chain into per-stage durations.
    /// Returns the chain plus the end-to-end duration (`== chain.total()`),
    /// or `None` for a disabled span.
    pub fn finish(&self) -> Option<(PublishChain, Duration)> {
        let s = self.inner.as_ref()?;
        let end = Self::stamp(s.origin);
        // Clamp each boundary to be monotone, then difference. The sum of
        // differences telescopes to `end` exactly; unmarked boundaries (0)
        // clamp to the previous one and read as zero-width stages.
        let staged = s.staged.min(end);
        let logged = s.logged.clamp(staged, end);
        let swapped = s.swapped.clamp(logged, end);
        let retained = s.retained.clamp(swapped, end);
        let encoded = s.encoded.clamp(retained, end);
        let mut micros = [0u64; PublishStage::COUNT];
        micros[PublishStage::StageIndex.index()] = staged;
        let log = logged - staged;
        let fsync = s.fsync_micros.min(log);
        micros[PublishStage::WalAppend.index()] = log - fsync;
        micros[PublishStage::Fsync.index()] = fsync;
        micros[PublishStage::Swap.index()] = swapped - logged;
        micros[PublishStage::Retention.index()] = retained - swapped;
        micros[PublishStage::CheckpointEncode.index()] = encoded - retained;
        micros[PublishStage::CheckpointCommit.index()] = end - encoded;
        Some((PublishChain { micros, checkpointed: s.checkpointed }, Duration::from_micros(end)))
    }
}

/// A finished publish's per-stage durations, in microseconds, indexed by
/// [`PublishStage::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishChain {
    /// Duration of each stage, microseconds.
    pub micros: [u64; PublishStage::COUNT],
    /// Whether this publish produced a checkpoint image.
    pub checkpointed: bool,
}

impl PublishChain {
    /// Total duration across all stages — the publish's end-to-end latency in
    /// microseconds.
    pub fn total_micros(&self) -> u64 {
        self.micros.iter().sum()
    }

    /// Duration of one stage.
    pub fn stage(&self, stage: PublishStage) -> Duration {
        Duration::from_micros(self.micros[stage.index()])
    }
}

/// One [`LatencyHistogram`] per publish stage; the aggregation target of
/// finished publish chains.
#[derive(Debug, Default)]
pub struct PublishStageHistograms {
    hists: [LatencyHistogram; PublishStage::COUNT],
}

impl PublishStageHistograms {
    /// Creates empty per-stage histograms.
    pub fn new() -> Self {
        PublishStageHistograms::default()
    }

    /// Folds one finished chain in. Every stage is recorded (zero-width
    /// stages too), so every stage count equals the publish count and the
    /// stage totals sum to the end-to-end total.
    pub fn record_chain(&self, chain: &PublishChain) {
        for stage in PublishStage::ALL {
            self.hists[stage.index()].record_micros(chain.micros[stage.index()]);
        }
    }

    /// The live histogram of one stage.
    pub fn stage(&self, stage: PublishStage) -> &LatencyHistogram {
        &self.hists[stage.index()]
    }

    /// Snapshots every stage histogram, in [`PublishStage::ALL`] order.
    pub fn snapshot(&self) -> Vec<(PublishStage, HistogramSnapshot)> {
        PublishStage::ALL.iter().map(|&s| (s, self.hists[s.index()].snapshot())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_round_trip_and_names_are_unique() {
        let mut names = std::collections::HashSet::new();
        for (i, stage) in PublishStage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert_eq!(PublishStage::from_index(i), Some(*stage));
            assert!(names.insert(stage.name()));
        }
        assert_eq!(PublishStage::from_index(PublishStage::COUNT), None);
    }

    #[test]
    fn disabled_span_is_inert() {
        let mut span = PublishSpan::disabled();
        assert!(!span.is_enabled());
        span.mark_staged();
        span.mark_logged(Duration::from_micros(5));
        span.mark_swapped();
        span.mark_retained();
        span.mark_encoded();
        assert!(span.finish().is_none());
    }

    #[test]
    fn chain_telescopes_to_the_end_to_end_publish_latency() {
        let origin = Instant::now();
        let mut span = PublishSpan::begin_at(origin, true);
        std::thread::sleep(Duration::from_millis(2));
        span.mark_staged();
        std::thread::sleep(Duration::from_millis(1));
        span.mark_logged(Duration::from_micros(300));
        span.mark_swapped();
        span.mark_retained();
        let (chain, total) = span.finish().expect("enabled span finishes");
        assert_eq!(chain.total_micros(), total.as_micros() as u64);
        assert!(!chain.checkpointed);
        assert!(chain.stage(PublishStage::StageIndex) >= Duration::from_millis(2));
        assert_eq!(chain.stage(PublishStage::Fsync), Duration::from_micros(300));
        assert!(chain.stage(PublishStage::WalAppend) >= Duration::from_micros(700));
        // Unmarked checkpoint stages read zero-width; the accounting tail
        // between the retention mark and finish lands in CheckpointCommit.
        assert_eq!(chain.micros[PublishStage::CheckpointEncode.index()], 0);
    }

    #[test]
    fn checkpoint_marks_attribute_the_off_path_work() {
        let origin = Instant::now();
        let mut span = PublishSpan::begin_at(origin, true);
        span.mark_staged();
        span.mark_logged(Duration::ZERO);
        span.mark_swapped();
        span.mark_retained();
        std::thread::sleep(Duration::from_millis(2));
        span.mark_encoded();
        std::thread::sleep(Duration::from_millis(1));
        let (chain, total) = span.finish().unwrap();
        assert!(chain.checkpointed);
        assert_eq!(chain.total_micros(), total.as_micros() as u64);
        assert!(chain.stage(PublishStage::CheckpointEncode) >= Duration::from_millis(2));
        assert!(chain.stage(PublishStage::CheckpointCommit) >= Duration::from_millis(1));
    }

    #[test]
    fn fsync_never_exceeds_the_log_interval_and_totals_still_telescope() {
        let origin = Instant::now();
        let mut span = PublishSpan::begin_at(origin, true);
        span.mark_staged();
        // A hostile fsync duration larger than the whole logged interval is
        // clamped into it; the telescoping sum is preserved.
        span.mark_logged(Duration::from_secs(3600));
        span.mark_swapped();
        span.mark_retained();
        let (chain, total) = span.finish().unwrap();
        assert_eq!(chain.total_micros(), total.as_micros() as u64);
    }

    #[test]
    fn publish_histograms_record_every_stage_per_chain() {
        let hists = PublishStageHistograms::new();
        let chain = PublishChain { micros: [5, 3, 2, 1, 4, 0, 1], checkpointed: false };
        hists.record_chain(&chain);
        hists.record_chain(&chain);
        for stage in PublishStage::ALL {
            assert_eq!(hists.stage(stage).count(), 2);
        }
        let snap = hists.snapshot();
        assert_eq!(snap.len(), PublishStage::COUNT);
        let total: u64 = snap.iter().map(|(_, h)| h.total_micros).sum();
        assert_eq!(total, 2 * chain.total_micros());
    }
}
