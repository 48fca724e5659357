//! The publish pipeline: staging and publishing an epoch, cache retention,
//! the stall triggers, and the background checkpointer.

use super::{Observability, PublishError, QueryService};
use crate::epoch::EpochSnapshot;
use crate::metrics::ServiceMetrics;
use ksp_core::dtlp::DtlpIndex;
use ksp_graph::{DynamicGraph, SubgraphSet, UpdateBatch};
use ksp_obs::{EventKind, PublishStage, StageSpan};
use ksp_store::checkpoint::stage_checkpoint;
use ksp_store::{AppendTimings, StorageIo, Store};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// An epoch publish slower than this triggers a flight dump.
const PUBLISH_STALL: Duration = Duration::from_millis(250);

/// A delta-log append (record encode + write, excluding the fsync) slower
/// than this triggers a flight dump.
const WAL_APPEND_STALL: Duration = Duration::from_millis(50);

/// A delta-log fsync slower than this triggers a flight dump.
const FSYNC_STALL: Duration = Duration::from_millis(100);

/// One background-checkpoint request: `Arc`'d snapshots of a just-published
/// epoch, encoded off the publish path.
pub(super) struct CheckpointJob {
    epoch: u64,
    graph: Arc<DynamicGraph>,
    index: Arc<DtlpIndex>,
    /// The publish span of the epoch that requested this checkpoint: it rides
    /// into the checkpointer so the checkpoint encode/commit stages land in
    /// the same telescoped chain as the synchronous write-path stages (the
    /// channel wait is absorbed into `checkpoint_encode`).
    span: StageSpan<PublishStage>,
}

impl QueryService {
    /// Applies one weight-update batch and publishes the next epoch.
    ///
    /// Updates are serialised through the master copies; queries in flight keep
    /// reading their already-loaded epochs and are never blocked by this call
    /// (beyond the final pointer swap). Returns the epoch id the batch
    /// produced, so callers can correlate answers (`QueryResponse::epoch`) and
    /// log records with the batch that caused them.
    ///
    /// The update is staged on copy-on-write forks and committed only when
    /// both the graph and the index accepted the whole batch: a failing batch
    /// (e.g. an out-of-range edge id) leaves the masters — and therefore every
    /// future epoch — exactly as they were. Staging copies weights, never
    /// structure: the graph fork copies its weight table and shares its
    /// topology; the index fork unshares only the subgraph indexes the batch
    /// routes updates into, each copying its bounding-path distances, pair
    /// bounds and subgraph edge records while sharing its path shape and
    /// subgraph shape, and the skeleton copies its weights while sharing its
    /// topology (everything
    /// else stays pointer-shared across epochs). For a persistent service
    /// the batch is additionally appended to the delta log (fsync-on-commit)
    /// *before* the epoch becomes visible: an epoch a reader can observe is
    /// always an epoch recovery can reproduce.
    pub fn apply_batch(&self, batch: &UpdateBatch) -> Result<u64, PublishError> {
        // Fast-fail while degraded: the log is known-broken, so staging a
        // fork just to throw it away would waste the write path's budget.
        if self.degraded.is_degraded() {
            return Err(PublishError::Degraded(self.degraded.reason()));
        }
        let publish_started = Instant::now();
        // The publish span shares `publish_started` as its origin, so the
        // per-stage durations telescope to exactly the end-to-end publish
        // latency recorded into `metrics.publish_latency`.
        let mut span = StageSpan::begin_at(publish_started, self.obs.config.enabled);
        let mut masters = self.masters.lock().unwrap_or_else(PoisonError::into_inner);
        let prev_epoch = masters.graph.version();
        let next_graph = Arc::new(masters.graph.with_batch(batch)?);
        let mut staged_index = (*masters.index).clone();
        let maintenance = staged_index.apply_batch(batch)?;
        let dirty_set: SubgraphSet = maintenance.dirty_subgraphs.iter().copied().collect();
        let next_index = Arc::new(staged_index);
        let epoch = next_graph.version();
        span.mark(PublishStage::StageIndex);
        // Durability before visibility: a batch that cannot be logged
        // publishes nothing.
        let mut append_timings = AppendTimings::default();
        if let Some(p) = &self.persistence {
            match p.store.lock().unwrap_or_else(PoisonError::into_inner).log_batch(epoch, batch) {
                Ok(timings) => append_timings = timings,
                Err(e) => {
                    // The append failed, so this epoch never becomes visible;
                    // flip into read-only degraded mode and hand the failed
                    // batch's caller the typed error. The staged forks are
                    // simply dropped — the masters are untouched.
                    drop(masters);
                    return Err(self.enter_degraded(epoch, &e, p));
                }
            }
        }
        span.mark_with_tail(PublishStage::WalAppend, append_timings.fsync);
        // The published snapshot and the masters share one (graph, index)
        // `Arc` pair; the only extra handles taken here are for a checkpoint
        // job, when this epoch needs one.
        let checkpoint_job = self.persistence.as_ref().and_then(|p| {
            p.store_config.is_checkpoint_epoch(epoch).then(|| CheckpointJob {
                epoch,
                graph: Arc::clone(&next_graph),
                index: Arc::clone(&next_index),
                span: StageSpan::disabled(),
            })
        });
        // Publish before releasing the masters lock so epochs appear in order.
        self.epoch.publish(EpochSnapshot::new(
            epoch,
            Arc::clone(&next_graph),
            Arc::clone(&next_index),
        ));
        masters.graph = next_graph;
        masters.index = next_index;
        span.mark(PublishStage::Swap);
        // Selective invalidation: drop only the entries whose trace the batch
        // dirtied; re-stamp the rest to the new epoch. Running under the
        // masters lock keeps publishes (and therefore retention passes)
        // strictly ordered, which the one-epoch-lag rule of
        // `retain_for_publish` relies on.
        let mut retained = 0u64;
        let mut evicted = 0u64;
        for cache in &self.pool.caches {
            let outcome = cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .retain_for_publish(prev_epoch, epoch, &dirty_set);
            retained += outcome.retained as u64;
            evicted += outcome.evicted as u64;
        }
        span.mark(PublishStage::Retention);
        drop(masters);
        use std::sync::atomic::Ordering::Relaxed;
        self.metrics.cache_retained.fetch_add(retained, Relaxed);
        self.metrics.cache_evicted.fetch_add(evicted, Relaxed);
        self.metrics.epochs_published.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.metrics.note_publish();
        let publish_time = publish_started.elapsed();
        let publish_micros = publish_time.as_micros().min(u64::MAX as u128) as u64;
        self.obs.record(EventKind::EpochPublished, epoch, dirty_set.len() as u64, publish_micros);
        self.obs.record(EventKind::CacheRetention, epoch, retained, evicted);
        if publish_time > PUBLISH_STALL {
            self.obs.trigger(EventKind::PublishStall, epoch, publish_micros, 0, None);
        }
        let micros = |d: Duration| d.as_micros().min(u64::MAX as u128) as u64;
        if append_timings.write > WAL_APPEND_STALL {
            self.obs.trigger(
                EventKind::WalAppendStall,
                epoch,
                micros(append_timings.write),
                micros(WAL_APPEND_STALL),
                None,
            );
        }
        if append_timings.fsync > FSYNC_STALL {
            self.obs.trigger(
                EventKind::FsyncStall,
                epoch,
                micros(append_timings.fsync),
                micros(FSYNC_STALL),
                None,
            );
        }
        match checkpoint_job {
            Some(mut job) => {
                // The span rides into the checkpointer, which finishes it
                // after the commit; from here on the channel wait counts
                // toward the checkpoint_encode stage.
                job.span = span;
                // A full or closed channel only delays the checkpoint; the
                // log still holds every batch.
                match &self.persistence.as_ref().expect("job implies store").jobs {
                    Some(jobs) => {
                        if let Err(mpsc::SendError(job)) = jobs.send(job) {
                            finish_publish_span(&self.metrics, &job.span);
                        }
                    }
                    None => finish_publish_span(&self.metrics, &job.span),
                }
            }
            // No checkpoint this epoch: the write path ends here, with the
            // checkpoint stages telescoping to (near-)zero width.
            None => finish_publish_span(&self.metrics, &span),
        }
        Ok(epoch)
    }

    /// Synchronously checkpoints the current epoch into the store. Returns
    /// `Ok(None)` for an in-memory service, `Ok(Some(epoch))` after a
    /// successful checkpoint. Useful at controlled shutdown so the next
    /// [`QueryService::open`] replays an empty log.
    pub fn checkpoint_now(&self) -> Result<Option<u64>, PublishError> {
        let Some(p) = &self.persistence else { return Ok(None) };
        let (epoch, graph, index) = {
            let masters = self.masters.lock().unwrap_or_else(PoisonError::into_inner);
            (masters.graph.version(), masters.graph.clone(), masters.index.clone())
        };
        // Encode and stage (write + fsync) without the store lock — the slow
        // halves must not stall concurrent publishes — then commit under it.
        let checkpoint_started = Instant::now();
        let encoded = Store::encode_checkpoint(epoch, &graph, &index);
        let staged = stage_checkpoint(&p.dir, &encoded, &p.io)?;
        p.store.lock().unwrap_or_else(PoisonError::into_inner).commit_staged_checkpoint(staged)?;
        self.obs.record(
            EventKind::CheckpointCommitted,
            epoch,
            1,
            checkpoint_started.elapsed().as_micros().min(u64::MAX as u128) as u64,
        );
        Ok(Some(epoch))
    }
}

/// Drains checkpoint jobs, always encoding only the newest pending epoch
/// (checkpoints are whole-pair images, so an older queued job is simply
/// superseded). The two slow halves — encoding the image and writing/fsyncing
/// it to a temp file — run without any lock; the store is held only for the
/// rename-and-prune commit, so epoch publishes never wait on checkpoint I/O.
pub(super) fn checkpointer_main(
    store: &Mutex<Store>,
    store_dir: &std::path::Path,
    io: &Arc<dyn StorageIo>,
    jobs: &mpsc::Receiver<CheckpointJob>,
    obs: &Observability,
    metrics: &ServiceMetrics,
) {
    /// First retry delay after a failed stage/commit.
    const RETRY_BASE: Duration = Duration::from_millis(10);
    /// Retry-delay ceiling: a persistently broken checkpoint path is probed a
    /// couple of times per second, cheap next to the image it would write.
    const RETRY_CAP: Duration = Duration::from_secs(2);

    // A job whose image failed to stage or commit is carried into the next
    // iteration and retried with capped exponential backoff: a transient
    // storage fault only delays the checkpoint (the log still holds every
    // batch), and a newer job arriving during the backoff supersedes the
    // failed one.
    let mut carry: Option<CheckpointJob> = None;
    let mut backoff = RETRY_BASE;
    let mut quarantine_seq = 0u64;
    // Jobs are sent outside the masters lock, so queue order is not epoch
    // order: pick the max epoch, not the last queued. A superseded job's
    // publish span is finished here — its epoch was published, so its chain
    // still records (with the checkpoint stages covering only the wait before
    // coalescing).
    let merge = |best: CheckpointJob, next: CheckpointJob| {
        if next.epoch > best.epoch {
            finish_publish_span(metrics, &best.span);
            next
        } else {
            finish_publish_span(metrics, &next.span);
            best
        }
    };
    loop {
        let first = match carry.take() {
            // Retrying: wait out the backoff, absorbing a newer job if one
            // arrives during it. Channel shutdown abandons the retry — the
            // log covers the un-imaged epochs.
            Some(prev) => match jobs.recv_timeout(backoff) {
                Ok(next) => merge(prev, next),
                Err(mpsc::RecvTimeoutError::Timeout) => prev,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            },
            None => match jobs.recv() {
                Ok(first) => first,
                Err(_) => break,
            },
        };
        let mut job = jobs.try_iter().fold(first, &merge);

        let checkpoint_started = Instant::now();
        let encoded = Store::encode_checkpoint(job.epoch, &job.graph, &job.index);
        job.span.mark(PublishStage::CheckpointEncode);
        let result = stage_checkpoint(store_dir, &encoded, io).and_then(|staged| {
            store.lock().unwrap_or_else(PoisonError::into_inner).commit_staged_checkpoint(staged)
        });
        // The epoch was published either way, so the publish span always
        // finishes: exactly one publish chain records per published epoch,
        // which is what lets the per-stage totals telescope to the end-to-end
        // publish histogram. (A retry of the same epoch carries a disabled
        // span, so finishing here stays once-per-epoch.)
        finish_publish_span(metrics, &job.span);
        match result {
            Ok(()) => {
                backoff = RETRY_BASE;
                obs.record(
                    EventKind::CheckpointCommitted,
                    job.epoch,
                    1,
                    checkpoint_started.elapsed().as_micros().min(u64::MAX as u128) as u64,
                );
            }
            Err(e) => {
                // The log still holds every batch, so a failed checkpoint only
                // costs recovery time. Quarantine the image bytes for
                // post-mortem (best-effort) and retry after a backoff without
                // stalling publishes.
                obs.record(EventKind::CheckpointFailed, job.epoch, 1, 0);
                eprintln!("ksp-serve: background checkpoint at epoch {} failed: {e}", job.epoch);
                quarantine_seq += 1;
                if let Err(qe) = quarantine_image(store_dir, &encoded, quarantine_seq) {
                    eprintln!(
                        "ksp-serve: could not quarantine failed image for epoch {}: {qe}",
                        job.epoch
                    );
                }
                job.span = StageSpan::disabled();
                carry = Some(job);
                backoff = (backoff * 2).min(RETRY_CAP);
            }
        }
    }
}

/// Preserves the bytes of a checkpoint image whose staging or commit failed
/// under `<store>/quarantine/image-<epoch>-<seq>.bad`, for post-mortem
/// inspection. Best-effort: a quarantine failure loses only the artefact,
/// never the retry. The subdirectory is invisible to recovery — the store's
/// scanners match file-name prefixes in the store root only.
fn quarantine_image(
    store_dir: &std::path::Path,
    encoded: &ksp_store::EncodedCheckpoint,
    seq: u64,
) -> std::io::Result<()> {
    let dir = store_dir.join("quarantine");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("image-{:020}-{seq}.bad", encoded.epoch)), encoded.bytes())
}

/// Finishes one epoch's publish span and records its telescoped chain into
/// the write-path histograms. Called exactly once per published epoch —
/// synchronously for non-checkpoint epochs, from the checkpointer (after the
/// image commit, or at coalesce time for superseded jobs) otherwise.
fn finish_publish_span(metrics: &ServiceMetrics, span: &StageSpan<PublishStage>) {
    if let Some((chain, total)) = span.finish() {
        metrics.publish_stages.record_chain(&chain);
        metrics.publish_latency.record_micros(chain.total_micros());
        debug_assert_eq!(total.as_micros().min(u64::MAX as u128) as u64, chain.total_micros());
    }
}
