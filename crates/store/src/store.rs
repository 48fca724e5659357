//! The store: a directory holding checkpoints and the epoch delta log.
//!
//! Lifecycle:
//!
//! * [`Store::create`] initialises a directory with a checkpoint of the
//!   starting `(graph, index)` pair and an empty log positioned after it.
//! * [`Store::log_batch`] appends one published batch per epoch,
//!   fsync-on-commit, so every acknowledged publish survives a crash.
//! * [`Store::checkpoint`] (or the encode/commit split used by background
//!   checkpointers) captures the current pair, rotates the log, and prunes
//!   segments the new checkpoint made redundant — the log stays bounded.
//! * [`Store::recover`] loads the newest *valid* checkpoint (corrupt ones are
//!   skipped, newest first), replays the log records after it, truncates any
//!   torn tail, and returns a ready `(graph, index, epoch)` triple.
//! * [`Store::verify`] recomputes every CRC and reports file-level health
//!   without modifying anything — the operator's integrity check.

use crate::checkpoint::{
    encode_checkpoint, list_checkpoints, promote_checkpoint, read_checkpoint, stage_checkpoint,
    sweep_stale_tmp_files, write_checkpoint, EncodedCheckpoint, StagedCheckpoint,
};
use crate::error::StoreError;
use crate::io::{default_io, StorageIo};
use crate::wal::{
    list_segments, remove_headerless_tail_segment, remove_zero_length_segments, scan_segment,
    AppendTimings, DeltaLog, SyncPolicy,
};
use ksp_core::dtlp::DtlpIndex;
use ksp_graph::{DynamicGraph, UpdateBatch};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Tunables of a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Take a checkpoint every this many epochs (0 disables automatic
    /// checkpointing; the log then grows until [`Store::checkpoint`] is called
    /// explicitly). Consulted by callers via [`StoreConfig::is_checkpoint_epoch`];
    /// the store itself never checkpoints spontaneously.
    pub checkpoint_interval: u64,
    /// Rotate the log to a fresh segment after this many records.
    pub segment_max_records: u64,
    /// How many of the newest checkpoints to keep after each commit (minimum
    /// 1). More than one gives [`Store::recover`] an older checkpoint to fall
    /// back to if the newest turns out corrupt; without retention the
    /// directory would grow by one full checkpoint per interval forever.
    pub retain_checkpoints: u32,
    /// Whether appends fsync before returning.
    pub sync: SyncPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            checkpoint_interval: 32,
            segment_max_records: 1024,
            retain_checkpoints: 2,
            sync: SyncPolicy::Always,
        }
    }
}

impl StoreConfig {
    /// Whether a service publishing `epoch` should trigger a checkpoint.
    pub fn is_checkpoint_epoch(&self, epoch: u64) -> bool {
        self.checkpoint_interval > 0 && epoch > 0 && epoch.is_multiple_of(self.checkpoint_interval)
    }
}

/// The file set a replication follower fetches to bootstrap past a pruned
/// log window: produced by [`Store::snapshot_manifest`], transferred chunk by
/// chunk via [`Store::read_image_chunk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotManifest {
    /// The epoch the manifest's checkpoint recovers to.
    pub snapshot_epoch: u64,
    /// `(bare file name, total length in bytes)` of each file to fetch: the
    /// newest committed checkpoint.
    pub files: Vec<(String, u64)>,
}

/// Whether `name` is the bare file name of a checkpoint — the only files
/// [`Store::read_image_chunk`] serves.
fn is_image_file_name(name: &str) -> bool {
    name.strip_prefix("checkpoint-")
        .and_then(|rest| rest.strip_suffix(".ckpt"))
        .is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
}

/// One manifest row for the image file at `path`.
fn manifest_entry(path: &Path) -> Result<(String, u64), StoreError> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| StoreError::corrupt(path, "image file has no utf-8 name"))?
        .to_string();
    let len = fs::metadata(path)
        .map_err(|e| StoreError::io(format!("inspecting {}", path.display()), e))?
        .len();
    Ok((name, len))
}

/// What [`Store::recover`] went through to produce its state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint recovery started from.
    pub checkpoint_epoch: u64,
    /// Always 0: checkpoints are the only image kind, so recovery applies
    /// no incremental images. Kept only because the benchmark ledger's
    /// traced row `store.recover.partial_images` still reads it.
    pub partial_images_applied: usize,
    /// Number of logged batches replayed on top of the checkpoint.
    pub batches_replayed: usize,
    /// Bytes of torn log tail dropped (0 for a clean shutdown).
    pub torn_bytes_dropped: u64,
    /// Corrupt checkpoint files that were skipped while searching for a valid
    /// one (newest first).
    pub corrupt_checkpoints_skipped: usize,
    /// Zero-length segment files removed (a crash between a segment file's
    /// creation and its header write leaves one; it can hold no records).
    pub empty_segments_skipped: u64,
    /// Wall time recovery took, lock acquisition to ready-to-append.
    pub duration: std::time::Duration,
}

impl RecoveryReport {
    /// The recovery trajectory as ordered `(step-name, step-code, value)`
    /// triples, in the order recovery performed them — the shape event
    /// streams (e.g. the observability flight recorder) consume. The step
    /// codes are stable: 0 checkpoint loaded (value = epoch), 2 batches
    /// replayed, 3 torn bytes dropped, 4 corrupt checkpoints skipped, 6 empty
    /// segment files skipped. Code 1 is retired and never reused; code 5 is
    /// reserved by the serving layer for its recovery-completed marker.
    pub fn steps(&self) -> Vec<(&'static str, u64, u64)> {
        vec![
            ("checkpoint_loaded", 0, self.checkpoint_epoch),
            ("batches_replayed", 2, self.batches_replayed as u64),
            ("torn_bytes_dropped", 3, self.torn_bytes_dropped),
            ("corrupt_checkpoints_skipped", 4, self.corrupt_checkpoints_skipped as u64),
            ("empty_segments_skipped", 6, self.empty_segments_skipped),
        ]
    }
}

/// The state [`Store::recover`] hands back: exactly what the live service held
/// at the recovered epoch.
#[derive(Debug)]
pub struct Recovered {
    /// The road network at the recovered epoch.
    pub graph: DynamicGraph,
    /// The DTLP index maintained to that epoch.
    pub index: DtlpIndex,
    /// The recovered epoch (== `graph.version()`).
    pub epoch: u64,
    /// How recovery got there.
    pub report: RecoveryReport,
}

/// Per-file outcome of [`Store::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCheck {
    /// The file that was checked.
    pub path: PathBuf,
    /// `Ok` for a clean file, otherwise what is wrong with it.
    pub status: Result<String, String>,
}

/// The integrity report of [`Store::verify`].
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// One entry per checkpoint and segment file examined.
    pub files: Vec<FileCheck>,
    /// Number of valid checkpoints.
    pub valid_checkpoints: usize,
    /// Number of corrupt checkpoints.
    pub corrupt_checkpoints: usize,
    /// Total intact log records across all segments.
    pub intact_records: u64,
    /// Total torn/corrupt bytes found in segment tails.
    pub torn_bytes: u64,
    /// Whether the store can recover: at least one valid checkpoint and no
    /// damage other than a single torn tail in the newest segment.
    pub recoverable: bool,
}

impl VerifyReport {
    /// Renders the report as operator-readable lines.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for check in &self.files {
            match &check.status {
                Ok(detail) => {
                    let _ = writeln!(out, "ok      {}  {detail}", check.path.display());
                }
                Err(detail) => {
                    let _ = writeln!(out, "DAMAGED {}  {detail}", check.path.display());
                }
            }
        }
        let _ = writeln!(
            out,
            "{} valid / {} corrupt checkpoint(s), {} intact log record(s), {} torn byte(s): {}",
            self.valid_checkpoints,
            self.corrupt_checkpoints,
            self.intact_records,
            self.torn_bytes,
            if self.recoverable { "RECOVERABLE" } else { "NOT RECOVERABLE" }
        );
        out
    }
}

/// Exclusive ownership of a store directory, backed by a pid-stamped
/// `store.lock` file. Two processes appending to the same log or sweeping
/// each other's staged checkpoints would corrupt the store; the lock makes
/// the second opener fail loudly instead. A lock left by a crashed process
/// (its pid no longer alive) is reclaimed automatically, so the lock never
/// blocks the crash recovery it exists to protect.
#[derive(Debug)]
struct DirLock {
    path: PathBuf,
}

impl DirLock {
    const FILE_NAME: &'static str = "store.lock";

    fn acquire(dir: &Path) -> Result<DirLock, StoreError> {
        let path = dir.join(Self::FILE_NAME);
        let pid = std::process::id();
        // Publish the pid atomically: write it to a private file, then
        // hard-link that file to the lock name. Linking fails if the lock
        // exists, and a visible lock always carries its holder's pid — no
        // window where a concurrent opener reads an empty lock and
        // misclassifies a live holder as stale.
        let tmp = dir.join(format!("{}.claim-{pid}", Self::FILE_NAME));
        fs::write(&tmp, pid.to_string())
            .map_err(|e| StoreError::io(format!("writing lock claim {}", tmp.display()), e))?;
        // Two attempts: the second runs after a stale lock was cleared.
        let result = (|| {
            for _ in 0..2 {
                match fs::hard_link(&tmp, &path) {
                    Ok(()) => return Ok(DirLock { path: path.clone() }),
                    Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                        let holder = fs::read_to_string(&path)
                            .ok()
                            .and_then(|s| s.trim().parse::<u32>().ok());
                        // Our own pid is alive too: a same-process lock means
                        // another live Store instance holds this directory.
                        if let Some(pid) = holder {
                            if Self::process_alive(pid) {
                                return Err(StoreError::corrupt(
                                    &path,
                                    format!("store is locked by running process {pid}"),
                                ));
                            }
                        }
                        // Dead (or unparseable, hence foreign/corrupt)
                        // holder: reclaim and retry once.
                        fs::remove_file(&path).map_err(|e| {
                            StoreError::io(format!("clearing stale lock {}", path.display()), e)
                        })?;
                    }
                    Err(e) => {
                        return Err(StoreError::io(format!("creating lock {}", path.display()), e))
                    }
                }
            }
            Err(StoreError::corrupt(&path, "could not acquire store lock"))
        })();
        let _ = fs::remove_file(&tmp);
        result
    }

    #[cfg(target_os = "linux")]
    fn process_alive(pid: u32) -> bool {
        fs::metadata(format!("/proc/{pid}")).is_ok()
    }

    #[cfg(not(target_os = "linux"))]
    fn process_alive(_pid: u32) -> bool {
        // No cheap liveness probe: err on the safe side and treat the
        // holder as alive (a stale lock then needs manual removal).
        true
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// A durable checkpoint + delta-log store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    log: DeltaLog,
    /// Epoch of the newest on-disk checkpoint (drives pruning).
    last_checkpoint_epoch: u64,
    /// The I/O backend content writes/fsyncs go through (real files by
    /// default; a fault injector under test).
    io: Arc<dyn StorageIo>,
    /// Held for the store's lifetime; released (deleted) on drop.
    _lock: DirLock,
}

impl Store {
    /// Initialises `dir` (created if missing) with a checkpoint of the given
    /// pair at `epoch` and an empty log expecting `epoch + 1` next.
    ///
    /// Fails if the directory already contains a store (use [`Store::recover`]
    /// for that) — silently overwriting an existing store would defeat its
    /// purpose.
    pub fn create(
        dir: &Path,
        config: StoreConfig,
        epoch: u64,
        graph: &DynamicGraph,
        index: &DtlpIndex,
    ) -> Result<Store, StoreError> {
        Self::create_with_io(dir, config, epoch, graph, index, default_io())
    }

    /// [`Store::create`] with an explicit I/O backend (fault injection).
    pub fn create_with_io(
        dir: &Path,
        config: StoreConfig,
        epoch: u64,
        graph: &DynamicGraph,
        index: &DtlpIndex,
        io: Arc<dyn StorageIo>,
    ) -> Result<Store, StoreError> {
        fs::create_dir_all(dir)
            .map_err(|e| StoreError::io(format!("creating {}", dir.display()), e))?;
        let lock = DirLock::acquire(dir)?;
        if Store::exists(dir)? {
            return Err(StoreError::corrupt(dir, "directory already contains a store"));
        }
        sweep_stale_tmp_files(dir)?;
        write_checkpoint(dir, &encode_checkpoint(epoch, graph, index), &io)?;
        let log = DeltaLog::create_with_io(
            dir,
            epoch + 1,
            config.sync,
            config.segment_max_records,
            Arc::clone(&io),
        )?;
        Ok(Store {
            dir: dir.to_path_buf(),
            config,
            log,
            last_checkpoint_epoch: epoch,
            io,
            _lock: lock,
        })
    }

    /// Whether `dir` contains (at least the beginnings of) a store.
    pub fn exists(dir: &Path) -> Result<bool, StoreError> {
        if !dir.is_dir() {
            return Ok(false);
        }
        Ok(!list_checkpoints(dir)?.is_empty() || !list_segments(dir)?.is_empty())
    }

    /// Recovers the newest consistent state from `dir`: loads the newest valid
    /// checkpoint, replays every logged batch after it (truncating a torn
    /// tail), and returns the store ready to append the next epoch.
    pub fn recover(dir: &Path, config: StoreConfig) -> Result<(Store, Recovered), StoreError> {
        Self::recover_with_io(dir, config, default_io())
    }

    /// [`Store::recover`] with an explicit I/O backend (fault injection).
    pub fn recover_with_io(
        dir: &Path,
        config: StoreConfig,
        io: Arc<dyn StorageIo>,
    ) -> Result<(Store, Recovered), StoreError> {
        // Exclusive ownership first: a second live opener must fail here,
        // before any repair below can disturb the owner's in-flight state.
        let recovery_started = std::time::Instant::now();
        let lock = DirLock::acquire(dir)?;
        // Clean up three crash windows before looking at anything else:
        // staged checkpoint temp files, a segment file created but never
        // given a header (zero length — it can hold no records, but scanned
        // it would poison the chain walk), and a rotation that died before
        // its segment header became durable.
        sweep_stale_tmp_files(dir)?;
        let empty_segments_skipped = remove_zero_length_segments(dir)?;
        let headerless_bytes = remove_headerless_tail_segment(dir)?;
        let mut checkpoints = list_checkpoints(dir)?;
        if checkpoints.is_empty() {
            return Err(StoreError::NoCheckpoint { dir: dir.to_path_buf() });
        }
        // Newest first; skip (but count) corrupt checkpoints.
        checkpoints.reverse();
        let mut corrupt_skipped = 0;
        let mut loaded = None;
        for (epoch, path) in &checkpoints {
            match read_checkpoint(path) {
                // The epoch header is outside CRC coverage, so a name/header
                // mismatch is corruption like any other: skip to the next
                // candidate instead of aborting (the retained older
                // checkpoint exists for exactly this case).
                Ok(checkpoint) if checkpoint.epoch != *epoch => corrupt_skipped += 1,
                Ok(checkpoint) => {
                    loaded = Some(checkpoint);
                    break;
                }
                Err(StoreError::Io { context, source }) => {
                    return Err(StoreError::Io { context, source });
                }
                Err(_) => corrupt_skipped += 1,
            }
        }
        let Some(checkpoint) = loaded else {
            return Err(StoreError::NoCheckpoint { dir: dir.to_path_buf() });
        };

        let mut graph = checkpoint.graph;
        let mut index = checkpoint.index;
        let checkpoint_epoch = checkpoint.epoch;

        let (log, records, torn_bytes) = if list_segments(dir)?.is_empty() {
            // A store that crashed between its first checkpoint and the log
            // creation; start a fresh log after the checkpoint.
            let log = DeltaLog::create_with_io(
                dir,
                checkpoint_epoch + 1,
                config.sync,
                config.segment_max_records,
                Arc::clone(&io),
            )?;
            (log, Vec::new(), 0)
        } else {
            DeltaLog::open_dir_with_io(
                dir,
                config.sync,
                config.segment_max_records,
                Arc::clone(&io),
            )?
        };

        let mut batches_replayed = 0;
        for record in &records {
            if record.epoch <= checkpoint_epoch {
                continue; // covered by the checkpoint; kept only until pruning
            }
            if record.epoch != graph.version() + 1 {
                return Err(StoreError::corrupt(
                    dir,
                    format!(
                        "log record for epoch {} cannot extend recovered epoch {}",
                        record.epoch,
                        graph.version()
                    ),
                ));
            }
            graph.apply_batch(&record.batch).map_err(|e| {
                StoreError::corrupt(dir, format!("replaying epoch {}: {e}", record.epoch))
            })?;
            index.apply_batch(&record.batch).map_err(|e| {
                StoreError::corrupt(
                    dir,
                    format!("replaying epoch {} into index: {e}", record.epoch),
                )
            })?;
            batches_replayed += 1;
        }
        let epoch = graph.version();
        // The log must resume exactly where the recovered state ends; a gap
        // means acknowledged batches are missing (e.g. the checkpoint they
        // relied on was lost after its log records were pruned). Failing
        // closed here beats a "successful" recovery that silently dropped
        // durable epochs and can never log another batch.
        if log.next_epoch() != epoch + 1 {
            return Err(StoreError::corrupt(
                dir,
                format!(
                    "log resumes at epoch {} but recovered state ends at epoch {epoch}; \
                     acknowledged batches are missing",
                    log.next_epoch()
                ),
            ));
        }
        let report = RecoveryReport {
            checkpoint_epoch,
            partial_images_applied: 0,
            batches_replayed,
            torn_bytes_dropped: torn_bytes + headerless_bytes,
            corrupt_checkpoints_skipped: corrupt_skipped,
            empty_segments_skipped,
            duration: recovery_started.elapsed(),
        };
        let store = Store {
            dir: dir.to_path_buf(),
            config,
            log,
            last_checkpoint_epoch: checkpoint_epoch,
            io,
            _lock: lock,
        };
        Ok((store, Recovered { graph, index, epoch, report }))
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Epoch of the newest committed checkpoint.
    pub fn last_checkpoint_epoch(&self) -> u64 {
        self.last_checkpoint_epoch
    }

    /// The epoch the next logged batch must carry.
    pub fn next_epoch(&self) -> u64 {
        self.log.next_epoch()
    }

    /// Appends one published batch to the delta log (durable on return under
    /// the default sync policy). `epoch` must be exactly one past the last
    /// logged epoch — the same contract the epoch publish path follows.
    /// Returns the append's write/fsync split ([`AppendTimings`]) so the
    /// publish path can attribute the durability cost stage by stage.
    pub fn log_batch(
        &mut self,
        epoch: u64,
        batch: &UpdateBatch,
    ) -> Result<AppendTimings, StoreError> {
        self.log.append(epoch, batch)
    }

    /// Probes whether the delta log can accept appends again after a
    /// failure: re-attempts the rewind of an impaired segment and exercises
    /// an fsync on the active segment. The degraded-mode recovery hook — a
    /// serving layer that flipped read-only on a failed [`Store::log_batch`]
    /// calls this on a backoff schedule and resumes writes once it succeeds.
    pub fn probe_log(&mut self) -> Result<(), StoreError> {
        self.log.probe()
    }

    /// The I/O backend this store was opened with, for sharing with
    /// out-of-lock staging ([`crate::checkpoint::stage_checkpoint`]).
    pub fn io_handle(&self) -> Arc<dyn StorageIo> {
        Arc::clone(&self.io)
    }

    /// The oldest epoch the delta log can still replay — the lower edge of
    /// the log-shipping window. A replication request for anything older must
    /// be answered with a snapshot fallback ([`Store::snapshot_manifest`]).
    pub fn oldest_retained_epoch(&self) -> u64 {
        self.log.oldest_retained_epoch()
    }

    /// Reads the logged records with epoch `>= from_epoch` (CRC-revalidated,
    /// contiguity-checked), bounded by `max_records` and an estimated
    /// `max_bytes` — the leader half of log shipping. See
    /// [`DeltaLog::read_from`] for the window contract.
    pub fn read_log_from(
        &self,
        from_epoch: u64,
        max_records: usize,
        max_bytes: u64,
    ) -> Result<Vec<crate::wal::LogRecord>, StoreError> {
        self.log.read_from(from_epoch, max_records, max_bytes)
    }

    /// The file set a follower needs to bootstrap when its replay lag exceeds
    /// the retained log window: the newest committed checkpoint. Shipping
    /// resumes from the epoch after it, which the pruning policy (bounded by
    /// the oldest retained checkpoint) keeps in the log window.
    pub fn snapshot_manifest(&self) -> Result<SnapshotManifest, StoreError> {
        let checkpoints = list_checkpoints(&self.dir)?;
        let Some((epoch, path)) = checkpoints
            .iter()
            .rev()
            .find(|(epoch, _)| *epoch == self.last_checkpoint_epoch)
            .or(checkpoints.last())
        else {
            return Err(StoreError::NoCheckpoint { dir: self.dir.clone() });
        };
        Ok(SnapshotManifest { snapshot_epoch: *epoch, files: vec![manifest_entry(path)?] })
    }

    /// Reads up to `max_len` bytes at `offset` of one checkpoint file, by its
    /// bare manifest name — the transfer half of the snapshot fallback.
    /// Returns the file's total length and the bytes read (empty at or past
    /// end of file). Only checkpoint names are served, with no path
    /// components, so a hostile peer cannot read anything else out of (or
    /// outside) the store directory.
    pub fn read_image_chunk(
        &self,
        name: &str,
        offset: u64,
        max_len: u64,
    ) -> Result<(u64, Vec<u8>), StoreError> {
        if !is_image_file_name(name) {
            return Err(StoreError::corrupt(
                &self.dir,
                format!("refusing to serve non-image file {name:?}"),
            ));
        }
        let path = self.dir.join(name);
        let mut file = fs::File::open(&path)
            .map_err(|e| StoreError::io(format!("opening {}", path.display()), e))?;
        let total_len = file
            .metadata()
            .map_err(|e| StoreError::io(format!("inspecting {}", path.display()), e))?
            .len();
        if offset >= total_len {
            return Ok((total_len, Vec::new()));
        }
        use std::io::{Read as _, Seek as _, SeekFrom};
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| StoreError::io(format!("seeking {}", path.display()), e))?;
        let want = max_len.min(total_len - offset) as usize;
        let mut bytes = vec![0u8; want];
        file.read_exact(&mut bytes)
            .map_err(|e| StoreError::io(format!("reading {}", path.display()), e))?;
        Ok((total_len, bytes))
    }

    /// Encodes a checkpoint image off to the side. Static so a background
    /// checkpointer can run it from `Arc`'d snapshots without holding the
    /// store lock; commit the result with [`Store::commit_checkpoint`].
    pub fn encode_checkpoint(
        epoch: u64,
        graph: &DynamicGraph,
        index: &DtlpIndex,
    ) -> EncodedCheckpoint {
        encode_checkpoint(epoch, graph, index)
    }

    /// Commits a checkpoint staged by [`crate::checkpoint::stage_checkpoint`]
    /// (the slow half, which touches no store state and so runs without the
    /// store lock): renames it into place, rotates the log,
    /// drops checkpoints beyond the retention count and prunes segments no
    /// *retained* checkpoint needs. The fast half of a commit (rename + a few
    /// directory operations); safe to run under the store lock.
    ///
    /// Log pruning is bounded by the **oldest retained** checkpoint: if the
    /// newest turns out corrupt, recovery falls back to an older one plus log
    /// replay and still finds every record — no acknowledged epoch is ever
    /// unreachable.
    pub fn commit_staged_checkpoint(&mut self, staged: StagedCheckpoint) -> Result<(), StoreError> {
        let epoch = staged.epoch;
        promote_checkpoint(&self.dir, staged)?;
        self.last_checkpoint_epoch = self.last_checkpoint_epoch.max(epoch);
        self.log.rotate()?;
        self.prune_checkpoints()?;
        if let Some(&(oldest_retained, _)) = list_checkpoints(&self.dir)?.first() {
            self.log.prune_up_to(oldest_retained)?;
        }
        Ok(())
    }

    /// Commits an encoded checkpoint (stage + commit in one call).
    pub fn commit_checkpoint(&mut self, encoded: &EncodedCheckpoint) -> Result<(), StoreError> {
        let staged = stage_checkpoint(&self.dir, encoded, &self.io)?;
        self.commit_staged_checkpoint(staged)
    }

    /// Deletes all but the newest [`StoreConfig::retain_checkpoints`]
    /// checkpoint files.
    fn prune_checkpoints(&self) -> Result<usize, StoreError> {
        let mut checkpoints = list_checkpoints(&self.dir)?;
        let retain = (self.config.retain_checkpoints.max(1)) as usize;
        if checkpoints.len() <= retain {
            return Ok(0);
        }
        let keep_from = checkpoints.len() - retain;
        let mut removed = 0;
        for (_, path) in checkpoints.drain(..keep_from) {
            fs::remove_file(&path)
                .map_err(|e| StoreError::io(format!("deleting {}", path.display()), e))?;
            removed += 1;
        }
        crate::checkpoint::sync_dir(&self.dir)?;
        Ok(removed)
    }

    /// Synchronously checkpoints the given pair at `epoch`.
    pub fn checkpoint(
        &mut self,
        epoch: u64,
        graph: &DynamicGraph,
        index: &DtlpIndex,
    ) -> Result<(), StoreError> {
        self.commit_checkpoint(&Self::encode_checkpoint(epoch, graph, index))
    }

    /// Checks the integrity of every checkpoint and log segment in `dir`
    /// without modifying anything.
    pub fn verify(dir: &Path) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport::default();
        let mut newest_valid_checkpoint: Option<u64> = None;
        for (epoch, path) in list_checkpoints(dir)? {
            match read_checkpoint(&path) {
                // Mirror recovery: a header/name epoch mismatch makes the
                // file unusable even though its payload CRC holds.
                Ok(c) if c.epoch != epoch => {
                    report.corrupt_checkpoints += 1;
                    report.files.push(FileCheck {
                        path,
                        status: Err(format!(
                            "checkpoint says epoch {} but file name says {epoch}",
                            c.epoch
                        )),
                    });
                }
                Ok(c) => {
                    report.valid_checkpoints += 1;
                    newest_valid_checkpoint =
                        Some(newest_valid_checkpoint.map_or(epoch, |e| e.max(epoch)));
                    report.files.push(FileCheck {
                        path,
                        status: Ok(format!(
                            "checkpoint epoch {epoch}: {} vertices, {} edges, {} subgraphs",
                            c.graph.num_vertices(),
                            c.graph.num_edges(),
                            c.index.num_subgraphs()
                        )),
                    });
                }
                Err(e) => {
                    report.corrupt_checkpoints += 1;
                    report.files.push(FileCheck { path, status: Err(e.to_string()) });
                }
            }
        }
        let segments = list_segments(dir)?;
        let mut fatal_damage = false;
        let mut record_epochs: Vec<u64> = Vec::new();
        for (i, (start, path)) in segments.iter().enumerate() {
            let is_last = i == segments.len() - 1;
            match scan_segment(path) {
                Ok(scan) => {
                    report.intact_records += scan.records.len() as u64;
                    report.torn_bytes += scan.torn_bytes;
                    if scan.torn_bytes > 0 && !is_last {
                        fatal_damage = true;
                    }
                    record_epochs.extend(scan.records.iter().map(|r| r.epoch));
                    let status = match &scan.tear {
                        None => Ok(format!(
                            "segment from epoch {start}: {} record(s)",
                            scan.records.len()
                        )),
                        Some(tear) => Err(format!(
                            "{} intact record(s), then {} torn byte(s) ({tear})",
                            scan.records.len(),
                            scan.torn_bytes
                        )),
                    };
                    report.files.push(FileCheck { path: path.clone(), status });
                }
                Err(e) => {
                    // Recovery can repair exactly one unparseable shape: a
                    // tail segment whose header never became durable (a
                    // crashed rotation). Any other unparseable segment fails
                    // recovery, and the verdict must say so.
                    let repairable =
                        is_last && crate::wal::segment_is_headerless_remnant(path).unwrap_or(false);
                    fatal_damage = fatal_damage || !repairable;
                    let status = if repairable {
                        Err(format!("{e} (headerless rotation remnant; recovery removes it)"))
                    } else if is_last {
                        Err(e.to_string())
                    } else {
                        Err(format!("{e} (not the tail segment)"))
                    };
                    report.files.push(FileCheck { path: path.clone(), status });
                }
            }
        }
        // The verdict must agree with what Store::recover would do: the
        // record epochs must be gap-free, and the replay chain must connect
        // the newest valid checkpoint to the log tip (a lost middle segment
        // or a lost checkpoint breaks recovery even when every surviving
        // file is individually pristine).
        let contiguous = record_epochs.windows(2).all(|w| w[1] == w[0] + 1);
        let chain_connects = match (newest_valid_checkpoint, record_epochs.first()) {
            (Some(checkpoint), Some(&first)) => first <= checkpoint + 1,
            (Some(_), None) => true,
            (None, _) => false,
        };
        report.recoverable = chain_connects && contiguous && !fatal_damage;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::StoreCodec;
    use ksp_core::dtlp::DtlpConfig;
    use ksp_graph::{EdgeId, GraphBuilder, Weight, WeightUpdate};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ksp-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn pair() -> (DynamicGraph, DtlpIndex) {
        let mut b = GraphBuilder::undirected(10);
        for v in 0..9u32 {
            b.edge(v, v + 1, 1 + v % 3);
        }
        b.edge(0, 9, 5).edge(2, 7, 4).edge(1, 8, 6);
        let graph = b.build().unwrap();
        let index = DtlpIndex::build(&graph, DtlpConfig::new(4, 2)).unwrap();
        (graph, index)
    }

    fn batch(seed: u32, num_edges: u32) -> UpdateBatch {
        UpdateBatch::new(vec![WeightUpdate::new(
            EdgeId(seed % num_edges),
            Weight::new(1.0 + seed as f64 * 0.25),
        )])
    }

    #[test]
    fn recover_skips_zero_length_segment_files() {
        let dir = temp_dir("zerolen");
        let (mut graph, mut index) = pair();
        let m = graph.num_edges() as u32;
        // One record per segment so several segment files exist.
        let config = StoreConfig {
            checkpoint_interval: 0,
            segment_max_records: 1,
            ..StoreConfig::default()
        };
        let mut store = Store::create(&dir, config, 0, &graph, &index).unwrap();
        for seed in 1..=3u32 {
            let b = batch(seed, m);
            let epoch = graph.apply_batch(&b).unwrap();
            index.apply_batch(&b).unwrap();
            store.log_batch(epoch, &b).unwrap();
        }
        drop(store);
        // Rotation-per-record leaves segments starting at 1, 2, 3 and an
        // empty active segment starting at 4. Simulate a crash between
        // segment-file creation and the header write twice over: truncate
        // segment 4 to zero length *and* add a zero-length segment 5, so one
        // empty file sits mid-list and one is the tail. Before the fix, the
        // mid-list one made the chain walk fail as corrupt.
        let seg4 = dir.join(crate::wal::segment_file_name(4));
        fs::OpenOptions::new().write(true).open(&seg4).unwrap().set_len(0).unwrap();
        fs::write(dir.join(crate::wal::segment_file_name(5)), b"").unwrap();
        let (store, recovered) = Store::recover(&dir, config).unwrap();
        assert_eq!(recovered.epoch, 3, "every logged epoch survives");
        assert_eq!(recovered.report.empty_segments_skipped, 2);
        assert!(
            recovered.report.steps().iter().any(|&(name, code, value)| {
                name == "empty_segments_skipped" && code == 6 && value == 2
            }),
            "the skip is a logged recovery step: {:?}",
            recovered.report.steps()
        );
        assert!(!seg4.exists());
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every checkpoint image, the initial one included, is written through
    /// the store's own backend, so a fault plan numbers and can fail it.
    #[test]
    fn checkpoint_images_are_written_through_the_stores_io() {
        use crate::io::FaultyIo;
        use ksp_fault::{FaultAction, FaultPlan, FaultPoint, Schedule};
        let failing_first_image = || {
            let plan = FaultPlan::new(3);
            plan.arm(FaultPoint::CheckpointWrite, Schedule::Nth(1), FaultAction::Fail);
            let io: Arc<dyn StorageIo> = Arc::new(FaultyIo::new(plan.clone()));
            (plan, io)
        };
        let dir = temp_dir("image-io");
        let (graph, index) = pair();
        let config = StoreConfig { sync: SyncPolicy::Never, ..StoreConfig::default() };

        let (plan, io) = failing_first_image();
        assert!(Store::create_with_io(&dir, config, 0, &graph, &index, io).is_err());
        assert_eq!(plan.ops_at(FaultPoint::CheckpointWrite), 1);
        let _ = fs::remove_dir_all(&dir);

        drop(Store::create(&dir, config, 0, &graph, &index).unwrap());
        let (plan, io) = failing_first_image();
        let (mut store, _) = Store::recover_with_io(&dir, config, io).unwrap();
        assert!(store.checkpoint(0, &graph, &index).is_err());
        assert_eq!(plan.ops_at(FaultPoint::CheckpointWrite), 1);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_manifest_and_chunks_transfer_the_image_set() {
        let dir = temp_dir("manifest");
        let (mut graph, mut index) = pair();
        let m = graph.num_edges() as u32;
        let config = StoreConfig { checkpoint_interval: 0, ..StoreConfig::default() };
        let mut store = Store::create(&dir, config, 0, &graph, &index).unwrap();
        // Epochs 1..=2 under a checkpoint, 3 logged only.
        for seed in 1..=3u32 {
            let b = batch(seed, m);
            let epoch = graph.apply_batch(&b).unwrap();
            index.apply_batch(&b).unwrap();
            store.log_batch(epoch, &b).unwrap();
            if epoch == 2 {
                store.checkpoint(epoch, &graph, &index).unwrap();
            }
        }
        let manifest = store.snapshot_manifest().unwrap();
        assert_eq!(manifest.snapshot_epoch, 2);
        assert_eq!(manifest.files.len(), 1, "the newest checkpoint only: {:?}", manifest.files);
        assert!(manifest.files[0].0.starts_with("checkpoint-"));

        // Every manifest file transfers chunk by chunk to identical bytes.
        for (name, len) in &manifest.files {
            let mut fetched = Vec::new();
            loop {
                let (total, bytes) = store.read_image_chunk(name, fetched.len() as u64, 7).unwrap();
                assert_eq!(total, *len);
                if bytes.is_empty() {
                    break;
                }
                fetched.extend(bytes);
            }
            assert_eq!(fetched, fs::read(dir.join(name)).unwrap());
        }

        // Only bare checkpoint names are served: traversal, foreign files and
        // an incremental image left by an older store all fail.
        let stray_partial = "partial-00000000000000000002.pckpt";
        fs::write(dir.join(stray_partial), b"KSPPART1").unwrap();
        for hostile in [
            "../secret",
            "wal-00000000000000000001.log",
            "LOCK",
            "checkpoint-x.ckpt",
            stray_partial,
            "",
        ] {
            assert!(store.read_image_chunk(hostile, 0, 16).is_err(), "{hostile:?} must be refused");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_log_recover_round_trip() {
        let dir = temp_dir("roundtrip");
        let (mut graph, mut index) = pair();
        let m = graph.num_edges() as u32;
        let mut store = Store::create(&dir, StoreConfig::default(), 0, &graph, &index).unwrap();
        for seed in 1..=4u32 {
            let b = batch(seed, m);
            let epoch = graph.apply_batch(&b).unwrap();
            index.apply_batch(&b).unwrap();
            store.log_batch(epoch, &b).unwrap();
        }
        drop(store);

        let (_store, recovered) = Store::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovered.epoch, 4);
        assert_eq!(recovered.report.checkpoint_epoch, 0);
        assert_eq!(recovered.report.batches_replayed, 4);
        assert_eq!(recovered.report.torn_bytes_dropped, 0);
        assert_eq!(recovered.graph.to_bytes(), graph.to_bytes());
        assert_eq!(recovered.index.to_bytes(), index.to_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_bounds_replay_and_prunes_segments() {
        let dir = temp_dir("bounded");
        let (mut graph, mut index) = pair();
        let m = graph.num_edges() as u32;
        let config = StoreConfig {
            checkpoint_interval: 3,
            segment_max_records: 2,
            sync: SyncPolicy::Never,
            ..StoreConfig::default()
        };
        let mut store = Store::create(&dir, config, 0, &graph, &index).unwrap();
        for seed in 1..=7u32 {
            let b = batch(seed, m);
            let epoch = graph.apply_batch(&b).unwrap();
            index.apply_batch(&b).unwrap();
            store.log_batch(epoch, &b).unwrap();
            if config.is_checkpoint_epoch(epoch) {
                store.checkpoint(epoch, &graph, &index).unwrap();
            }
        }
        drop(store);
        let (_store, recovered) = Store::recover(&dir, config).unwrap();
        assert_eq!(recovered.epoch, 7);
        // Checkpoints at 3 and 6: recovery starts at 6 and replays only 7.
        assert_eq!(recovered.report.checkpoint_epoch, 6);
        assert_eq!(recovered.report.batches_replayed, 1);
        assert_eq!(recovered.graph.to_bytes(), graph.to_bytes());
        assert_eq!(recovered.index.to_bytes(), index.to_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older_plus_log() {
        let dir = temp_dir("fallback");
        let (mut graph, mut index) = pair();
        let m = graph.num_edges() as u32;
        let config = StoreConfig {
            checkpoint_interval: 0,
            segment_max_records: 64,
            sync: SyncPolicy::Never,
            ..StoreConfig::default()
        };
        let mut store = Store::create(&dir, config, 0, &graph, &index).unwrap();
        for seed in 1..=3u32 {
            let b = batch(seed, m);
            let epoch = graph.apply_batch(&b).unwrap();
            index.apply_batch(&b).unwrap();
            store.log_batch(epoch, &b).unwrap();
        }
        // Write a checkpoint at 3, but do NOT let it prune (interval 0 +
        // manual write_checkpoint keeps the log intact), then corrupt it.
        let encoded = Store::encode_checkpoint(3, &graph, &index);
        let path = write_checkpoint(&dir, &encoded, &default_io()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        drop(store);

        let (_store, recovered) = Store::recover(&dir, config).unwrap();
        assert_eq!(recovered.report.corrupt_checkpoints_skipped, 1);
        assert_eq!(recovered.report.checkpoint_epoch, 0);
        assert_eq!(recovered.epoch, 3, "log replay compensates for the lost checkpoint");
        assert_eq!(recovered.graph.to_bytes(), graph.to_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_reports_clean_and_damaged_stores() {
        let dir = temp_dir("verify");
        let (mut graph, mut index) = pair();
        let m = graph.num_edges() as u32;
        let config = StoreConfig { sync: SyncPolicy::Never, ..StoreConfig::default() };
        let mut store = Store::create(&dir, config, 0, &graph, &index).unwrap();
        for seed in 1..=3u32 {
            let b = batch(seed, m);
            let epoch = graph.apply_batch(&b).unwrap();
            index.apply_batch(&b).unwrap();
            store.log_batch(epoch, &b).unwrap();
        }
        drop(store);

        let clean = Store::verify(&dir).unwrap();
        assert!(clean.recoverable);
        assert_eq!(clean.valid_checkpoints, 1);
        assert_eq!(clean.intact_records, 3);
        assert_eq!(clean.torn_bytes, 0);

        // Tear the log tail: still recoverable, but reported.
        let (_, seg) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&seg).unwrap().len();
        fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 2).unwrap();
        let torn = Store::verify(&dir).unwrap();
        assert!(torn.recoverable);
        assert!(torn.torn_bytes > 0);
        assert_eq!(torn.intact_records, 2);
        assert!(torn.render().contains("DAMAGED"));

        // Corrupt the only checkpoint: no longer recoverable.
        let (_, ckpt) = list_checkpoints(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&ckpt).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&ckpt, &bytes).unwrap();
        let broken = Store::verify(&dir).unwrap();
        assert!(!broken.recoverable);
        assert_eq!(broken.corrupt_checkpoints, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retained_fallback_checkpoint_can_still_replay_to_tip() {
        // Checkpoints at 3 and 6 (both retained), then the newest rots:
        // recovery must fall back to 3 AND still reach epoch 7, which
        // requires that log pruning spared every record after epoch 3.
        let dir = temp_dir("fallback-tip");
        let (mut graph, mut index) = pair();
        let m = graph.num_edges() as u32;
        let config = StoreConfig {
            checkpoint_interval: 3,
            segment_max_records: 2,
            retain_checkpoints: 2,
            sync: SyncPolicy::Never,
        };
        let mut store = Store::create(&dir, config, 0, &graph, &index).unwrap();
        for seed in 1..=7u32 {
            let b = batch(seed, m);
            let epoch = graph.apply_batch(&b).unwrap();
            index.apply_batch(&b).unwrap();
            store.log_batch(epoch, &b).unwrap();
            if config.is_checkpoint_epoch(epoch) {
                store.checkpoint(epoch, &graph, &index).unwrap();
            }
        }
        drop(store);
        let (_, newest) = list_checkpoints(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&newest, &bytes).unwrap();

        let (_store, recovered) = Store::recover(&dir, config).unwrap();
        assert_eq!(recovered.report.corrupt_checkpoints_skipped, 1);
        assert_eq!(recovered.report.checkpoint_epoch, 3);
        assert_eq!(recovered.report.batches_replayed, 4);
        assert_eq!(recovered.epoch, 7, "no acknowledged epoch may be lost");
        assert_eq!(recovered.graph.to_bytes(), graph.to_bytes());
        assert_eq!(recovered.index.to_bytes(), index.to_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_epoch_header_is_skipped_like_any_corruption() {
        // The epoch header sits outside CRC coverage (bytes 12..20); a flip
        // there must demote the checkpoint to "corrupt, skipped", not abort
        // recovery while a healthy older checkpoint exists.
        let dir = temp_dir("epoch-flip");
        let (mut graph, mut index) = pair();
        let m = graph.num_edges() as u32;
        let config = StoreConfig {
            checkpoint_interval: 0,
            retain_checkpoints: 2,
            sync: SyncPolicy::Never,
            ..StoreConfig::default()
        };
        let mut store = Store::create(&dir, config, 0, &graph, &index).unwrap();
        for seed in 1..=2u32 {
            let b = batch(seed, m);
            let epoch = graph.apply_batch(&b).unwrap();
            index.apply_batch(&b).unwrap();
            store.log_batch(epoch, &b).unwrap();
        }
        store.checkpoint(2, &graph, &index).unwrap();
        drop(store);
        let (_, newest) = list_checkpoints(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        bytes[12] ^= 0xFF; // low byte of the epoch field
        fs::write(&newest, &bytes).unwrap();

        let (_store, recovered) = Store::recover(&dir, config).unwrap();
        assert_eq!(recovered.report.corrupt_checkpoints_skipped, 1);
        assert_eq!(recovered.report.checkpoint_epoch, 0);
        assert_eq!(recovered.epoch, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_length_field_reports_corruption_not_panic() {
        use crate::codec::Writer;
        let dir = temp_dir("huge-len");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(crate::checkpoint::checkpoint_file_name(1));
        let mut w = Writer::new();
        w.put_bytes(&crate::checkpoint::CHECKPOINT_MAGIC);
        w.put_u32(crate::checkpoint::CHECKPOINT_VERSION);
        w.put_u64(1); // epoch
        w.put_u64(u64::MAX); // absurd payload length
        w.put_bytes(&[0; 32]);
        fs::write(&path, w.into_bytes()).unwrap();
        assert!(matches!(
            crate::checkpoint::read_checkpoint(&path),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_retention_bounds_the_directory() {
        let dir = temp_dir("retention");
        let (mut graph, mut index) = pair();
        let m = graph.num_edges() as u32;
        let config = StoreConfig {
            checkpoint_interval: 1,
            retain_checkpoints: 2,
            sync: SyncPolicy::Never,
            ..StoreConfig::default()
        };
        let mut store = Store::create(&dir, config, 0, &graph, &index).unwrap();
        for seed in 1..=5u32 {
            let b = batch(seed, m);
            let epoch = graph.apply_batch(&b).unwrap();
            index.apply_batch(&b).unwrap();
            store.log_batch(epoch, &b).unwrap();
            store.checkpoint(epoch, &graph, &index).unwrap();
        }
        drop(store);
        // Only the 2 newest checkpoints survive; recovery uses the newest.
        let epochs: Vec<u64> =
            list_checkpoints(&dir).unwrap().into_iter().map(|(e, _)| e).collect();
        assert_eq!(epochs, vec![4, 5]);
        let (_store, recovered) = Store::recover(&dir, config).unwrap();
        assert_eq!(recovered.report.checkpoint_epoch, 5);
        assert_eq!(recovered.epoch, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn headerless_rotation_remnant_and_stale_tmps_are_cleaned_on_recover() {
        let dir = temp_dir("remnants");
        let (mut graph, mut index) = pair();
        let m = graph.num_edges() as u32;
        let config = StoreConfig { sync: SyncPolicy::Never, ..StoreConfig::default() };
        let mut store = Store::create(&dir, config, 0, &graph, &index).unwrap();
        for seed in 1..=2u32 {
            let b = batch(seed, m);
            let epoch = graph.apply_batch(&b).unwrap();
            index.apply_batch(&b).unwrap();
            store.log_batch(epoch, &b).unwrap();
        }
        drop(store);
        // Simulate the two crash windows: a rotation that died before its
        // segment header was durable, and a checkpoint stage that died
        // mid-write.
        fs::write(dir.join(crate::wal::segment_file_name(3)), b"KSP").unwrap();
        fs::write(dir.join("checkpoint-00000000000000000002.tmp7"), b"half-written image").unwrap();

        let (_store, recovered) = Store::recover(&dir, config).unwrap();
        assert_eq!(recovered.epoch, 2, "the remnant segment holds no records");
        assert!(recovered.report.torn_bytes_dropped > 0);
        let leftovers: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("tmp") || n == "wal-00000000000000000003.log")
            .collect();
        assert!(leftovers.is_empty(), "remnants must be swept: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_header_tail_remnant_is_repairable_and_verify_agrees() {
        let dir = temp_dir("garbage-header");
        let (mut graph, mut index) = pair();
        let m = graph.num_edges() as u32;
        let config = StoreConfig { sync: SyncPolicy::Never, ..StoreConfig::default() };
        let mut store = Store::create(&dir, config, 0, &graph, &index).unwrap();
        let b = batch(1, m);
        let epoch = graph.apply_batch(&b).unwrap();
        index.apply_batch(&b).unwrap();
        store.log_batch(epoch, &b).unwrap();
        drop(store);
        // A rotation that crashed mid-header-persist: exactly header-sized,
        // but the magic never made it to disk.
        fs::write(dir.join(crate::wal::segment_file_name(2)), [0u8; 12]).unwrap();

        let report = Store::verify(&dir).unwrap();
        assert!(report.recoverable, "a headerless remnant is repairable:\n{}", report.render());
        let (_store, recovered) = Store::recover(&dir, config).unwrap();
        assert_eq!(recovered.epoch, 1);

        // By contrast, garbage magic on a *populated* segment is real
        // corruption: verify and recover must both fail it.
        drop(_store);
        let (_, seg) = list_segments(&dir).unwrap().remove(0);
        let mut bytes = fs::read(&seg).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        assert!(!Store::verify(&dir).unwrap().recoverable);
        assert!(Store::recover(&dir, config).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_flags_a_missing_middle_segment_as_unrecoverable() {
        let dir = temp_dir("gap-verify");
        let (mut graph, mut index) = pair();
        let m = graph.num_edges() as u32;
        let config = StoreConfig {
            checkpoint_interval: 0,
            segment_max_records: 2,
            sync: SyncPolicy::Never,
            ..StoreConfig::default()
        };
        let mut store = Store::create(&dir, config, 0, &graph, &index).unwrap();
        for seed in 1..=6u32 {
            let b = batch(seed, m);
            let epoch = graph.apply_batch(&b).unwrap();
            index.apply_batch(&b).unwrap();
            store.log_batch(epoch, &b).unwrap();
        }
        drop(store);
        assert!(Store::verify(&dir).unwrap().recoverable);
        // Lose the middle segment: every surviving file is pristine, but the
        // epoch chain has a hole — verify must agree with recover.
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3);
        fs::remove_file(&segments[1].1).unwrap();
        let report = Store::verify(&dir).unwrap();
        assert!(!report.recoverable, "a lost middle segment cannot be recoverable");
        assert!(Store::recover(&dir, config).is_err(), "recover must agree with verify");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_opener_is_rejected_while_the_store_is_held() {
        let dir = temp_dir("dirlock");
        let (graph, index) = pair();
        let config = StoreConfig { sync: SyncPolicy::Never, ..StoreConfig::default() };
        let store = Store::create(&dir, config, 0, &graph, &index).unwrap();
        // Same process counts as the holder being alive.
        let err = Store::recover(&dir, config).unwrap_err();
        assert!(err.to_string().contains("locked by running process"), "got: {err}");
        drop(store);
        // Dropping the store releases the lock; recovery now proceeds.
        let (_store, recovered) = Store::recover(&dir, config).unwrap();
        assert_eq!(recovered.epoch, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_reclaimed() {
        let dir = temp_dir("stalelock");
        let (graph, index) = pair();
        let config = StoreConfig { sync: SyncPolicy::Never, ..StoreConfig::default() };
        drop(Store::create(&dir, config, 0, &graph, &index).unwrap());
        // Plant a lock naming a pid that cannot be alive.
        fs::write(dir.join("store.lock"), "4194304999").unwrap();
        let (_store, recovered) = Store::recover(&dir, config).unwrap();
        assert_eq!(recovered.epoch, 0, "a dead holder must not block recovery");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_partial_image_from_an_older_store_is_ignored() {
        // Stores written before checkpoints became the only image kind may
        // hold incremental `partial-*.pckpt` images. The log is pruned only
        // against checkpoints, so recovery ignores such a file and replays
        // every logged epoch after the checkpoint instead.
        let dir = temp_dir("stray-partial");
        let (mut graph, mut index) = pair();
        let m = graph.num_edges() as u32;
        let config = StoreConfig {
            checkpoint_interval: 0,
            sync: SyncPolicy::Never,
            ..StoreConfig::default()
        };
        let mut store = Store::create(&dir, config, 0, &graph, &index).unwrap();
        for seed in 1..=3u32 {
            let b = batch(seed, m);
            let epoch = graph.apply_batch(&b).unwrap();
            index.apply_batch(&b).unwrap();
            store.log_batch(epoch, &b).unwrap();
        }
        drop(store);
        let stray = dir.join("partial-00000000000000000002.pckpt");
        fs::write(&stray, b"KSPPART1 any body at all").unwrap();

        assert!(Store::verify(&dir).unwrap().recoverable);
        let (_store, recovered) = Store::recover(&dir, config).unwrap();
        assert_eq!(recovered.epoch, 3, "recovery reaches the log tip");
        assert_eq!(recovered.report.checkpoint_epoch, 0);
        assert_eq!(recovered.report.batches_replayed, 3);
        assert_eq!(recovered.graph.to_bytes(), graph.to_bytes());
        assert_eq!(recovered.index.to_bytes(), index.to_bytes());
        assert!(stray.exists(), "the stray image is left untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_to_overwrite_an_existing_store() {
        let dir = temp_dir("no-overwrite");
        let (graph, index) = pair();
        let _store = Store::create(&dir, StoreConfig::default(), 0, &graph, &index).unwrap();
        assert!(Store::exists(&dir).unwrap());
        assert!(matches!(
            Store::create(&dir, StoreConfig::default(), 0, &graph, &index),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
