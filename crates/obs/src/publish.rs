//! The write-path stage taxonomy: where an epoch publish spends its
//! lifetime.
//!
//! A [`StageSpan<PublishStage>`](crate::StageSpan) rides through
//! `QueryService::apply_batch` (and, for checkpoint epochs, into the
//! background checkpointer) and telescopes into a chain whose per-stage
//! durations sum *exactly* to the recorded end-to-end publish latency, the
//! same attribution the read path has, applied to the paper's central cost:
//! epoch maintenance.

use crate::stage::StageSet;

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

impl StageSet for PublishStage {
    type PerStage<T> = [T; 7];
    const COUNT: usize = 7;
    const ALL: [PublishStage; 7] = [
        PublishStage::StageIndex,
        PublishStage::WalAppend,
        PublishStage::Fsync,
        PublishStage::Swap,
        PublishStage::Retention,
        PublishStage::CheckpointEncode,
        PublishStage::CheckpointCommit,
    ];
    const BRANCH: Option<PublishStage> = Some(PublishStage::CheckpointEncode);

    fn name(self) -> &'static str {
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

    fn index(self) -> usize {
        self as usize
    }

    fn per_stage<T>(f: impl FnMut(PublishStage) -> T) -> [T; 7] {
        PublishStage::ALL.map(f)
    }

    fn in_snapshot(snapshot: &crate::ObsSnapshot) -> &[crate::StageSnapshot<PublishStage>] {
        &snapshot.publish_stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanChain, StageHistograms, StageSpan};
    use std::time::{Duration, Instant};

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
        let mut span = StageSpan::<PublishStage>::disabled();
        assert!(!span.is_enabled());
        span.mark(PublishStage::StageIndex);
        span.mark_with_tail(PublishStage::WalAppend, Duration::from_micros(5));
        span.mark(PublishStage::Swap);
        span.mark(PublishStage::Retention);
        span.mark(PublishStage::CheckpointEncode);
        assert!(span.finish().is_none());
    }

    #[test]
    fn chain_telescopes_to_the_end_to_end_publish_latency() {
        let origin = Instant::now();
        let mut span = StageSpan::begin_at(origin, true);
        std::thread::sleep(Duration::from_millis(2));
        span.mark(PublishStage::StageIndex);
        std::thread::sleep(Duration::from_millis(1));
        span.mark_with_tail(PublishStage::WalAppend, Duration::from_micros(300));
        span.mark(PublishStage::Swap);
        span.mark(PublishStage::Retention);
        let (chain, total) = span.finish().expect("enabled span finishes");
        assert_eq!(chain.total_micros(), total.as_micros() as u64);
        assert!(!chain.branched);
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
        let mut span = StageSpan::begin_at(origin, true);
        span.mark(PublishStage::StageIndex);
        span.mark_with_tail(PublishStage::WalAppend, Duration::ZERO);
        span.mark(PublishStage::Swap);
        span.mark(PublishStage::Retention);
        std::thread::sleep(Duration::from_millis(2));
        span.mark(PublishStage::CheckpointEncode);
        std::thread::sleep(Duration::from_millis(1));
        let (chain, total) = span.finish().unwrap();
        assert!(chain.branched);
        assert_eq!(chain.total_micros(), total.as_micros() as u64);
        assert!(chain.stage(PublishStage::CheckpointEncode) >= Duration::from_millis(2));
        assert!(chain.stage(PublishStage::CheckpointCommit) >= Duration::from_millis(1));
    }

    #[test]
    fn fsync_never_exceeds_the_log_interval_and_totals_still_telescope() {
        let origin = Instant::now();
        let mut span = StageSpan::begin_at(origin, true);
        span.mark(PublishStage::StageIndex);
        // A hostile fsync duration larger than the whole logged interval is
        // clamped into it; the telescoping sum is preserved.
        span.mark_with_tail(PublishStage::WalAppend, Duration::from_secs(3600));
        span.mark(PublishStage::Swap);
        span.mark(PublishStage::Retention);
        let (chain, total) = span.finish().unwrap();
        assert_eq!(chain.total_micros(), total.as_micros() as u64);
    }

    #[test]
    fn publish_histograms_record_every_stage_per_chain() {
        let hists = StageHistograms::<PublishStage>::default();
        let chain = SpanChain::<PublishStage> { micros: [5, 3, 2, 1, 4, 0, 1], branched: false };
        hists.record_chain(&chain);
        hists.record_chain(&chain);
        for stage in PublishStage::ALL {
            assert_eq!(hists.stage(stage).count(), 2);
        }
        let snap = hists.snapshot();
        assert_eq!(snap.len(), PublishStage::COUNT);
        let total: u64 = snap.iter().map(|s| s.histogram.total_micros).sum();
        assert_eq!(total, 2 * chain.total_micros());
    }
}
