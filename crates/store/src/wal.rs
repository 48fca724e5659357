//! The append-only epoch delta log.
//!
//! Every published update batch becomes one record in the active log segment;
//! replaying the records after the newest checkpoint reproduces the exact
//! epoch sequence the live service went through. Segment files are named
//! `wal-<start-epoch>.log` (epoch zero-padded to 20 digits) and hold the
//! records for a contiguous epoch range; the log rotates to a fresh segment
//! after a bounded number of records and at every checkpoint commit, so
//! segments made wholly redundant by a checkpoint can be deleted.
//!
//! Segment layout (integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "KSPWAL01"
//! 8       4     format version (currently 1)
//! 12      ...   records, back to back
//! ```
//!
//! Record layout:
//!
//! ```text
//! 0       4     payload length in bytes
//! 4       4     CRC-32 of the payload
//! 8       n     payload: epoch (u64) then UpdateBatch (StoreCodec encoding)
//! ```
//!
//! Commit is append + `fsync` (under [`SyncPolicy::Always`], the default):
//! when [`DeltaLog::append`] returns, the batch survives power loss. A crash
//! mid-append leaves a *torn tail* — a record whose length, CRC or payload is
//! incomplete. Recovery detects the tear, truncates the segment back to the
//! last intact record, and continues; only the unacknowledged tail is lost.

use crate::codec::{crc32, Reader, StoreCodec, Writer};
use crate::error::StoreError;
use crate::io::{default_io, IoClass, StorageIo};
use ksp_graph::UpdateBatch;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes identifying a log segment.
pub const SEGMENT_MAGIC: [u8; 8] = *b"KSPWAL01";
/// Current segment format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Size of the segment header in bytes.
pub const SEGMENT_HEADER_LEN: u64 = 12;
/// Size of a record header (length + CRC) in bytes.
pub const RECORD_HEADER_LEN: usize = 8;

/// How one [`DeltaLog::append`] spent its time, split at the durability
/// boundary: record encode + `write_all` vs the `sync_data` that makes the
/// record survive power loss. The write path's per-step timing hook — the
/// serving layer feeds these into its publish-stage histograms and stall
/// triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppendTimings {
    /// Time spent writing the record into the active segment.
    pub write: std::time::Duration,
    /// Time spent in `sync_data`; zero under [`SyncPolicy::Never`].
    pub fsync: std::time::Duration,
}

/// When the log flushes appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every appended record: a returned append is durable.
    #[default]
    Always,
    /// Never `fsync` explicitly; durability is whatever the OS provides.
    /// For tests and benchmarks that measure codec/replay cost, not the disk.
    Never,
}

/// The file name of the segment whose first record is `start_epoch`.
pub fn segment_file_name(start_epoch: u64) -> String {
    format!("wal-{start_epoch:020}.log")
}

/// Lists the log segments in `dir` as `(start_epoch, path)`, ascending.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut found = Vec::new();
    let entries =
        fs::read_dir(dir).map_err(|e| StoreError::io(format!("listing {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(format!("listing {}", dir.display()), e))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let Some(start) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((start, path));
    }
    found.sort_unstable_by_key(|&(start, _)| start);
    Ok(found)
}

/// Removes the newest segment file if a crash during creation/rotation left
/// it without a complete header. Such a remnant (shorter than
/// [`SEGMENT_HEADER_LEN`]) cannot contain any record, so deleting it loses
/// nothing — but leaving it would make every future open fail on an
/// unparseable segment. Returns the number of remnant bytes removed.
pub fn remove_headerless_tail_segment(dir: &Path) -> Result<u64, StoreError> {
    let segments = list_segments(dir)?;
    let Some((_, path)) = segments.last() else { return Ok(0) };
    if !segment_is_headerless_remnant(path)? {
        return Ok(0);
    }
    let len = fs::metadata(path)
        .map_err(|e| StoreError::io(format!("inspecting segment {}", path.display()), e))?
        .len();
    fs::remove_file(path)
        .map_err(|e| StoreError::io(format!("deleting remnant {}", path.display()), e))?;
    crate::checkpoint::sync_dir(dir)?;
    Ok(len.max(1))
}

/// Whether a segment file is a crash remnant with no durable header: shorter
/// than the header, or exactly header-sized with invalid magic/version
/// (a partially persisted header write). Anything longer holds (or held)
/// records behind a once-durable header, so damage there is real corruption,
/// never safely deletable.
pub fn segment_is_headerless_remnant(path: &Path) -> Result<bool, StoreError> {
    let len = fs::metadata(path)
        .map_err(|e| StoreError::io(format!("inspecting segment {}", path.display()), e))?
        .len();
    if len < SEGMENT_HEADER_LEN {
        return Ok(true);
    }
    if len > SEGMENT_HEADER_LEN {
        return Ok(false);
    }
    let bytes = fs::read(path)
        .map_err(|e| StoreError::io(format!("reading segment {}", path.display()), e))?;
    let valid = bytes[..8] == SEGMENT_MAGIC
        && u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) == SEGMENT_VERSION;
    Ok(!valid)
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// The epoch the batch produced when it was published.
    pub epoch: u64,
    /// The published batch.
    pub batch: UpdateBatch,
}

/// The outcome of scanning one segment.
#[derive(Debug, Default)]
pub struct SegmentScan {
    /// The intact records, in append order.
    pub records: Vec<LogRecord>,
    /// Byte offset just past the last intact record (= valid file length).
    pub valid_len: u64,
    /// Bytes of torn tail after the last intact record (0 when clean).
    pub torn_bytes: u64,
    /// Human-readable description of the tear, when there is one.
    pub tear: Option<String>,
}

/// Reads and validates every record of the segment at `path`.
///
/// A malformed record ends the scan: everything before it is returned as
/// intact, everything from its first byte on is reported as the torn tail.
/// The file is not modified; callers decide whether to truncate
/// ([`DeltaLog::open_dir`]) or merely report ([`crate::store::Store::verify`]).
pub fn scan_segment(path: &Path) -> Result<SegmentScan, StoreError> {
    let bytes = fs::read(path)
        .map_err(|e| StoreError::io(format!("reading segment {}", path.display()), e))?;
    if bytes.len() < SEGMENT_HEADER_LEN as usize {
        return Err(StoreError::corrupt(path, "file shorter than segment header"));
    }
    if bytes[..8] != SEGMENT_MAGIC {
        return Err(StoreError::corrupt(path, "bad magic (not a log segment)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SEGMENT_VERSION {
        return Err(StoreError::corrupt(path, format!("unsupported segment version {version}")));
    }

    let mut scan = SegmentScan { valid_len: SEGMENT_HEADER_LEN, ..SegmentScan::default() };
    let mut pos = SEGMENT_HEADER_LEN as usize;
    while pos < bytes.len() {
        let tear = |detail: &str| Some(format!("record at offset {pos}: {detail}"));
        if bytes.len() - pos < RECORD_HEADER_LEN {
            scan.tear = tear("header torn");
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let payload_start = pos + RECORD_HEADER_LEN;
        if bytes.len() - payload_start < len {
            scan.tear = tear("payload torn");
            break;
        }
        let payload = &bytes[payload_start..payload_start + len];
        if crc32(payload) != stored_crc {
            scan.tear = tear("CRC mismatch");
            break;
        }
        let mut r = Reader::new(payload);
        let record = (|| -> Result<LogRecord, crate::error::CodecError> {
            let epoch = r.get_u64()?;
            let batch = UpdateBatch::decode(&mut r)?;
            if !r.is_exhausted() {
                return Err(crate::error::CodecError::InvalidValue("trailing record bytes"));
            }
            Ok(LogRecord { epoch, batch })
        })();
        match record {
            Ok(record) => {
                scan.records.push(record);
                pos = payload_start + len;
                scan.valid_len = pos as u64;
            }
            Err(e) => {
                // The CRC matched but the payload does not decode: this is not
                // a torn append but real corruption (or a format bug) — still
                // treated as ending the segment, with the detail preserved.
                scan.tear = tear(&format!("payload decode failed: {e}"));
                break;
            }
        }
    }
    scan.torn_bytes = bytes.len() as u64 - scan.valid_len;
    Ok(scan)
}

/// The writable epoch delta log of one store directory.
#[derive(Debug)]
pub struct DeltaLog {
    dir: PathBuf,
    /// Existing segments, ascending by start epoch; the last is active.
    segments: Vec<(u64, PathBuf)>,
    active: fs::File,
    records_in_active: u64,
    /// Length of the active segment up to its last *complete* record. A
    /// failed append rewinds the file to this offset, so partial record bytes
    /// never linger in front of later appends.
    active_len: u64,
    /// The epoch the next appended batch must carry.
    next_epoch: u64,
    sync: SyncPolicy,
    max_records_per_segment: u64,
    /// Set when a failed append could not be rewound: the segment may hold
    /// garbage at its tail, so further appends are refused (fail closed).
    impaired: Option<String>,
    /// The I/O backend every content write/fsync goes through (real files by
    /// default; a fault injector under test).
    io: Arc<dyn StorageIo>,
}

impl DeltaLog {
    /// Creates a fresh log in `dir` whose first record will carry
    /// `next_epoch`. Fails if any segment already exists.
    pub fn create(
        dir: &Path,
        next_epoch: u64,
        sync: SyncPolicy,
        max_records_per_segment: u64,
    ) -> Result<Self, StoreError> {
        Self::create_with_io(dir, next_epoch, sync, max_records_per_segment, default_io())
    }

    /// [`DeltaLog::create`] with an explicit I/O backend (fault injection).
    pub fn create_with_io(
        dir: &Path,
        next_epoch: u64,
        sync: SyncPolicy,
        max_records_per_segment: u64,
        io: Arc<dyn StorageIo>,
    ) -> Result<Self, StoreError> {
        if !list_segments(dir)?.is_empty() {
            return Err(StoreError::corrupt(
                dir,
                "refusing to create a log over existing segments",
            ));
        }
        let mut log = DeltaLog {
            dir: dir.to_path_buf(),
            segments: Vec::new(),
            active: new_segment_file(dir, next_epoch, &io)?,
            records_in_active: 0,
            active_len: SEGMENT_HEADER_LEN,
            next_epoch,
            sync,
            max_records_per_segment: max_records_per_segment.max(1),
            impaired: None,
            io,
        };
        log.segments.push((next_epoch, dir.join(segment_file_name(next_epoch))));
        Ok(log)
    }

    /// Opens the log in `dir` for appending after recovery, truncating any
    /// torn tail off the final segment. Returns the log plus the records of
    /// every segment (in epoch order) and the number of torn bytes dropped.
    pub fn open_dir(
        dir: &Path,
        sync: SyncPolicy,
        max_records_per_segment: u64,
    ) -> Result<(Self, Vec<LogRecord>, u64), StoreError> {
        Self::open_dir_with_io(dir, sync, max_records_per_segment, default_io())
    }

    /// [`DeltaLog::open_dir`] with an explicit I/O backend (fault injection).
    pub fn open_dir_with_io(
        dir: &Path,
        sync: SyncPolicy,
        max_records_per_segment: u64,
        io: Arc<dyn StorageIo>,
    ) -> Result<(Self, Vec<LogRecord>, u64), StoreError> {
        let segments = list_segments(dir)?;
        if segments.is_empty() {
            return Err(StoreError::corrupt(dir, "no log segments to open"));
        }
        let mut all_records = Vec::new();
        let mut torn_bytes_total = 0u64;
        let mut last_valid_len = SEGMENT_HEADER_LEN;
        for (i, (start, path)) in segments.iter().enumerate() {
            let scan = scan_segment(path)?;
            let is_last = i == segments.len() - 1;
            if is_last {
                last_valid_len = scan.valid_len;
            }
            if scan.torn_bytes > 0 {
                if !is_last {
                    // A tear anywhere but the newest segment is not a crashed
                    // append — later records were acknowledged after it.
                    return Err(StoreError::corrupt(
                        path,
                        format!(
                            "non-tail segment damaged ({}); refusing recovery",
                            scan.tear.as_deref().unwrap_or("unknown tear")
                        ),
                    ));
                }
                let file = fs::OpenOptions::new().write(true).open(path).map_err(|e| {
                    StoreError::io(format!("opening {} for truncation", path.display()), e)
                })?;
                file.set_len(scan.valid_len).map_err(|e| {
                    StoreError::io(format!("truncating torn tail of {}", path.display()), e)
                })?;
                file.sync_all().map_err(|e| {
                    StoreError::io(format!("fsyncing truncated {}", path.display()), e)
                })?;
                torn_bytes_total += scan.torn_bytes;
            }
            if let Some(first) = scan.records.first() {
                if first.epoch != *start {
                    return Err(StoreError::corrupt(
                        path,
                        format!(
                            "first record epoch {} disagrees with segment name (expected {start})",
                            first.epoch
                        ),
                    ));
                }
            }
            all_records.extend(scan.records);
        }
        for pair in all_records.windows(2) {
            if pair[1].epoch != pair[0].epoch + 1 {
                return Err(StoreError::corrupt(
                    dir,
                    format!("epoch gap in log: {} then {}", pair[0].epoch, pair[1].epoch),
                ));
            }
        }
        let (last_start, last_path) = segments.last().expect("non-empty").clone();
        let next_epoch = all_records.last().map(|r| r.epoch + 1).unwrap_or(last_start);
        let records_in_active = all_records.iter().filter(|r| r.epoch >= last_start).count() as u64;
        // Append mode: every write lands at EOF, so no explicit seek is
        // needed and a rewind via set_len repositions future writes too.
        let active = fs::OpenOptions::new().append(true).open(&last_path).map_err(|e| {
            StoreError::io(format!("opening {} for append", last_path.display()), e)
        })?;
        let log = DeltaLog {
            dir: dir.to_path_buf(),
            segments,
            active,
            records_in_active,
            active_len: last_valid_len,
            next_epoch,
            sync,
            max_records_per_segment: max_records_per_segment.max(1),
            impaired: None,
            io,
        };
        Ok((log, all_records, torn_bytes_total))
    }

    /// The epoch the next appended batch must carry.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Number of segment files currently on disk.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The oldest epoch the log can still replay — the start epoch of the
    /// oldest retained segment. Equals [`DeltaLog::next_epoch`] when the log
    /// holds no records at all (a single empty active segment): the retained
    /// window `[oldest_retained_epoch, next_epoch)` is then empty.
    pub fn oldest_retained_epoch(&self) -> u64 {
        self.segments.first().map(|&(start, _)| start).unwrap_or(self.next_epoch)
    }

    /// Reads the intact records with epoch `>= from_epoch`, in epoch order,
    /// stopping after `max_records` records or once the summed *estimated*
    /// record payload sizes exceed `max_bytes` (at least one record is always
    /// returned when any qualifies) — the log-shipping read path.
    ///
    /// `from_epoch` must be inside the retained window: at least
    /// [`DeltaLog::oldest_retained_epoch`] (older epochs may be pruned — the
    /// caller answers those with a snapshot fallback instead) and at most
    /// [`DeltaLog::next_epoch`] (the future cannot be shipped). Records are
    /// re-validated against their CRCs as they are read, and the returned run
    /// is checked contiguous from `from_epoch`, so a shipped record can never
    /// be torn, corrupt, out of order or skipped.
    pub fn read_from(
        &self,
        from_epoch: u64,
        max_records: usize,
        max_bytes: u64,
    ) -> Result<Vec<LogRecord>, StoreError> {
        if from_epoch < self.oldest_retained_epoch() {
            return Err(StoreError::corrupt(
                &self.dir,
                format!(
                    "epoch {from_epoch} predates the retained log window (oldest retained {})",
                    self.oldest_retained_epoch()
                ),
            ));
        }
        if from_epoch > self.next_epoch {
            return Err(StoreError::corrupt(
                &self.dir,
                format!("epoch {from_epoch} is beyond the log head ({})", self.next_epoch),
            ));
        }
        let mut out: Vec<LogRecord> = Vec::new();
        let mut bytes = 0u64;
        for (i, (_start, path)) in self.segments.iter().enumerate() {
            // Skip segments wholly below the request: a segment's range ends
            // where its successor starts.
            if let Some(&(next_start, _)) = self.segments.get(i + 1) {
                if next_start <= from_epoch {
                    continue;
                }
            }
            for record in scan_segment(path)?.records {
                if record.epoch < from_epoch {
                    continue;
                }
                let expected = from_epoch + out.len() as u64;
                if record.epoch != expected {
                    return Err(StoreError::corrupt(
                        path,
                        format!("expected epoch {expected} next, found {}", record.epoch),
                    ));
                }
                // The same estimate the append path sizes its buffer with;
                // bounding on it keeps a shipped batch safely under the
                // frame payload limit without re-encoding every record.
                bytes += 16 + record.batch.len() as u64 * 12;
                out.push(record);
                if out.len() >= max_records.max(1) || bytes >= max_bytes.max(1) {
                    return Ok(out);
                }
            }
        }
        Ok(out)
    }

    /// Appends one published batch. Durable when this returns (under
    /// [`SyncPolicy::Always`]). Returns how long the append spent writing vs
    /// syncing — the write path's per-step timing hook ([`AppendTimings`]).
    ///
    /// A failed write or fsync rewinds the segment to its last complete
    /// record before the error is returned, so a *retried* append (or the
    /// epochs after it) never lands behind partial bytes — which recovery
    /// would treat as a torn tail and silently truncate together with every
    /// acknowledged record after it. If the rewind itself fails, the log
    /// marks itself impaired and refuses further appends: better a loudly
    /// failing publish path than a log that quietly eats durable epochs.
    pub fn append(&mut self, epoch: u64, batch: &UpdateBatch) -> Result<AppendTimings, StoreError> {
        if let Some(reason) = &self.impaired {
            return Err(StoreError::corrupt(
                &self.dir,
                format!("log refused append after unrecoverable write failure: {reason}"),
            ));
        }
        if epoch != self.next_epoch {
            return Err(StoreError::EpochOutOfOrder { epoch, expected: self.next_epoch });
        }
        let mut payload = Writer::with_capacity(16 + batch.len() * 12);
        payload.put_u64(epoch);
        batch.encode(&mut payload);
        let payload = payload.into_bytes();
        let mut record = Writer::with_capacity(payload.len() + RECORD_HEADER_LEN);
        record.put_u32(payload.len() as u32);
        record.put_u32(crc32(&payload));
        record.put_bytes(&payload);
        let record = record.into_bytes();

        let write_started = std::time::Instant::now();
        let mut timings = AppendTimings::default();
        let io = Arc::clone(&self.io);
        let write_result =
            io.write_all(IoClass::WalRecord, &mut self.active, &record).and_then(|()| {
                timings.write = write_started.elapsed();
                if self.sync == SyncPolicy::Always {
                    let sync_started = std::time::Instant::now();
                    let synced = io.sync_data(IoClass::WalRecord, &self.active);
                    timings.fsync = sync_started.elapsed();
                    synced
                } else {
                    Ok(())
                }
            });
        if let Err(e) = write_result {
            // Drop whatever part of the record reached the file; the segment
            // ends at its previous complete record again (writes are in
            // append mode, so the next write lands at the truncated end).
            let rewind =
                self.active.set_len(self.active_len).and_then(|()| self.active.sync_data());
            if let Err(rewind_err) = rewind {
                self.impaired = Some(format!(
                    "append failed ({e}) and rewind to offset {} failed ({rewind_err})",
                    self.active_len
                ));
            }
            return Err(StoreError::io("appending log record", e));
        }
        self.active_len += record.len() as u64;
        self.next_epoch = epoch + 1;
        self.records_in_active += 1;
        if self.records_in_active >= self.max_records_per_segment {
            // The record above is already durable and the epoch advanced, so
            // a rotation failure must NOT fail this append — the caller
            // would abandon an epoch that recovery will replay, and every
            // retry would be rejected as out of order. Rotation is only a
            // bounding optimisation; a failed one leaves the counters
            // untouched, so the next append simply tries again.
            let _ = self.rotate();
        }
        Ok(timings)
    }

    /// Starts a fresh segment; subsequent appends land there. Idempotent when
    /// the active segment is still empty.
    pub fn rotate(&mut self) -> Result<(), StoreError> {
        if self.records_in_active == 0 {
            return Ok(());
        }
        self.io
            .sync_all(IoClass::WalRecord, &self.active)
            .map_err(|e| StoreError::io("fsyncing rotated segment", e))?;
        self.active = new_segment_file(&self.dir, self.next_epoch, &self.io)?;
        self.segments.push((self.next_epoch, self.dir.join(segment_file_name(self.next_epoch))));
        self.records_in_active = 0;
        self.active_len = SEGMENT_HEADER_LEN;
        Ok(())
    }

    /// Deletes every segment whose records are all covered by a checkpoint at
    /// `epoch` (i.e. whose entire epoch range is ≤ `epoch`). The active
    /// segment is never deleted. Returns how many segments were removed.
    pub fn prune_up_to(&mut self, epoch: u64) -> Result<usize, StoreError> {
        let mut removed = 0;
        // A segment's range ends where the next segment starts; only segments
        // with a successor are candidates, so the active one survives.
        while self.segments.len() > 1 {
            let next_start = self.segments[1].0;
            if next_start == 0 || next_start - 1 > epoch {
                break;
            }
            let (_, path) = self.segments.remove(0);
            fs::remove_file(&path)
                .map_err(|e| StoreError::io(format!("deleting {}", path.display()), e))?;
            removed += 1;
        }
        if removed > 0 {
            crate::checkpoint::sync_dir(&self.dir)?;
        }
        Ok(removed)
    }

    /// Probes whether the log can accept appends again: re-attempts the
    /// rewind of an impaired segment, then exercises an fsync on the active
    /// segment through the I/O backend. Success clears the impaired state —
    /// the degraded-mode recovery hook the serving layer's background probe
    /// calls. The fsync goes through the (possibly fault-injecting) backend,
    /// so a still-armed fault keeps the probe failing deterministically.
    pub fn probe(&mut self) -> Result<(), StoreError> {
        if self.impaired.is_some() {
            self.active
                .set_len(self.active_len)
                .and_then(|()| self.active.sync_data())
                .map_err(|e| StoreError::io("rewinding impaired segment", e))?;
            self.impaired = None;
        }
        self.io
            .sync_data(IoClass::WalRecord, &self.active)
            .map_err(|e| StoreError::io("probing log segment", e))
    }
}

/// Deletes zero-length segment files anywhere in `dir`. A crash between a
/// segment file's creation and its header write leaves a zero-length file;
/// such a file can hold no records (losing nothing by removal), but left in
/// place it makes every later open fail on an unparseable segment. Record
/// epoch contiguity is verified independently by [`DeltaLog::open_dir`], so
/// removal in the middle of the list is safe too. Returns how many files
/// were removed.
pub fn remove_zero_length_segments(dir: &Path) -> Result<u64, StoreError> {
    let mut removed = 0;
    for (_, path) in list_segments(dir)? {
        let len = fs::metadata(&path)
            .map_err(|e| StoreError::io(format!("inspecting segment {}", path.display()), e))?
            .len();
        if len == 0 {
            fs::remove_file(&path)
                .map_err(|e| StoreError::io(format!("deleting empty {}", path.display()), e))?;
            removed += 1;
        }
    }
    if removed > 0 {
        crate::checkpoint::sync_dir(dir)?;
    }
    Ok(removed)
}

/// Creates a new segment file with its header written and synced. Opened in
/// append mode: every write lands at the current end of file, which is what
/// lets a failed append rewind with `set_len` alone.
fn new_segment_file(
    dir: &Path,
    start_epoch: u64,
    io: &Arc<dyn StorageIo>,
) -> Result<fs::File, StoreError> {
    let path = dir.join(segment_file_name(start_epoch));
    let mut file = fs::OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(&path)
        .map_err(|e| StoreError::io(format!("creating segment {}", path.display()), e))?;
    let mut header = Writer::with_capacity(SEGMENT_HEADER_LEN as usize);
    header.put_bytes(&SEGMENT_MAGIC);
    header.put_u32(SEGMENT_VERSION);
    let written = io
        .write_all(IoClass::WalHeader, &mut file, &header.into_bytes())
        .map_err(|e| StoreError::io(format!("writing header of {}", path.display()), e))
        .and_then(|()| {
            io.sync_all(IoClass::WalHeader, &file)
                .map_err(|e| StoreError::io(format!("fsyncing new segment {}", path.display()), e))
        })
        .and_then(|()| crate::checkpoint::sync_dir(dir));
    if let Err(e) = written {
        // Never leave a headerless file behind: a later, retried rotation
        // uses a different epoch name, which would strand this remnant
        // mid-list where recovery cannot repair it.
        let _ = fs::remove_file(&path);
        return Err(e);
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_graph::{EdgeId, Weight, WeightUpdate};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ksp-wal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch(seed: u32) -> UpdateBatch {
        UpdateBatch::new(vec![
            WeightUpdate::new(EdgeId(seed), Weight::new(seed as f64 + 0.5)),
            WeightUpdate::new(EdgeId(seed + 1), Weight::new(2.0 * seed as f64 + 1.0)),
        ])
    }

    #[test]
    fn append_and_reopen_replays_every_record() {
        let dir = temp_dir("replay");
        let mut log = DeltaLog::create(&dir, 1, SyncPolicy::Always, 1024).unwrap();
        for epoch in 1..=5u64 {
            log.append(epoch, &batch(epoch as u32)).unwrap();
        }
        drop(log);
        let (log, records, torn) = DeltaLog::open_dir(&dir, SyncPolicy::Always, 1024).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(records.len(), 5);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.epoch, i as u64 + 1);
            assert_eq!(record.batch, batch(record.epoch as u32));
        }
        assert_eq!(log.next_epoch(), 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_epochs_are_rejected() {
        let dir = temp_dir("order");
        let mut log = DeltaLog::create(&dir, 1, SyncPolicy::Never, 1024).unwrap();
        log.append(1, &batch(1)).unwrap();
        assert!(matches!(
            log.append(3, &batch(3)),
            Err(StoreError::EpochOutOfOrder { epoch: 3, expected: 2 })
        ));
        assert!(matches!(log.append(1, &batch(1)), Err(StoreError::EpochOutOfOrder { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_only_the_tail_is_lost() {
        let dir = temp_dir("torn");
        let mut log = DeltaLog::create(&dir, 1, SyncPolicy::Always, 1024).unwrap();
        for epoch in 1..=4u64 {
            log.append(epoch, &batch(epoch as u32)).unwrap();
        }
        drop(log);
        // Tear the last record: chop 3 bytes off the segment.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        let file = fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let (log, records, torn) = DeltaLog::open_dir(&dir, SyncPolicy::Always, 1024).unwrap();
        assert!(torn > 0);
        assert_eq!(records.len(), 3, "only the torn final record is dropped");
        assert_eq!(log.next_epoch(), 4, "the log re-appends at the dropped epoch");
        drop(log);
        // After truncation the segment scans clean.
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.records.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_middle_record_fails_closed() {
        let dir = temp_dir("midcorrupt");
        let mut log = DeltaLog::create(&dir, 1, SyncPolicy::Always, 2).unwrap();
        for epoch in 1..=4u64 {
            log.append(epoch, &batch(epoch as u32)).unwrap();
        }
        drop(log);
        // Two segments exist (rotation every 2 records). Corrupt the first.
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 2);
        let first = &segments[0].1;
        let mut bytes = fs::read(first).unwrap();
        let mid = bytes.len() - 4;
        bytes[mid] ^= 0xFF;
        fs::write(first, &bytes).unwrap();
        assert!(matches!(
            DeltaLog::open_dir(&dir, SyncPolicy::Always, 2),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_from_serves_the_retained_window_across_rotations() {
        let dir = temp_dir("readfrom");
        let mut log = DeltaLog::create(&dir, 1, SyncPolicy::Never, 2).unwrap();
        for epoch in 1..=7u64 {
            log.append(epoch, &batch(epoch as u32)).unwrap();
        }
        assert_eq!(log.oldest_retained_epoch(), 1);
        // A read spanning several segment boundaries is contiguous.
        let records = log.read_from(2, 100, u64::MAX).unwrap();
        let epochs: Vec<u64> = records.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![2, 3, 4, 5, 6, 7]);
        // The record cap truncates, never skips.
        let records = log.read_from(3, 2, u64::MAX).unwrap();
        assert_eq!(records.iter().map(|r| r.epoch).collect::<Vec<_>>(), vec![3, 4]);
        // A tiny byte budget still returns at least one record.
        let records = log.read_from(3, 100, 1).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].epoch, 3);
        // Reading at the head is an empty (caught-up) run; beyond it errors.
        assert!(log.read_from(8, 100, u64::MAX).unwrap().is_empty());
        assert!(log.read_from(9, 100, u64::MAX).is_err());
        // Pruning moves the window's lower edge; below it errors (the
        // shipping layer answers that case with a snapshot fallback).
        log.prune_up_to(4).unwrap();
        assert_eq!(log.oldest_retained_epoch(), 5);
        assert!(log.read_from(2, 100, u64::MAX).is_err());
        let records = log.read_from(5, 100, u64::MAX).unwrap();
        assert_eq!(records.iter().map(|r| r.epoch).collect::<Vec<_>>(), vec![5, 6, 7]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_pruning_bound_the_log() {
        let dir = temp_dir("prune");
        let mut log = DeltaLog::create(&dir, 1, SyncPolicy::Never, 2).unwrap();
        for epoch in 1..=7u64 {
            log.append(epoch, &batch(epoch as u32)).unwrap();
        }
        // 7 records at 2 per segment: segments start at 1, 3, 5, 7.
        assert_eq!(log.num_segments(), 4);
        // A checkpoint at epoch 4 covers segments [1,2] and [3,4] only.
        let removed = log.prune_up_to(4).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        // Replay after pruning still yields the uncovered epochs.
        drop(log);
        let (_, records, _) = DeltaLog::open_dir(&dir, SyncPolicy::Never, 2).unwrap();
        let epochs: Vec<u64> = records.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![5, 6, 7]);
        let _ = fs::remove_dir_all(&dir);
    }
}
