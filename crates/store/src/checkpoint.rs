//! Checkpoint image files: full `(graph, index)` snapshots and incremental
//! (partial) images covering only the subgraphs dirtied since a base image.
//!
//! Full image layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "KSPCKPT1"
//! 8       4     format version (currently 2)
//! 12      8     epoch the pair is exact for
//! 20      8     payload length in bytes
//! 28      n     payload: DynamicGraph then DtlpIndex (StoreCodec encoding)
//! 28+n    4     CRC-32 of the payload
//! ```
//!
//! Partial image layout:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "KSPPART1"
//! 8       4     format version (currently 2)
//! 12      8     epoch the image advances the chain to
//! 20      8     base epoch: the image (full or partial) this one extends
//! 28      8     payload length in bytes
//! 36      n     payload: graph version, then count + dirty SubgraphIndexes
//! 36+n    4     CRC-32 of the payload
//! ```
//!
//! A partial image is *self-sufficient relative to its base*: because every
//! edge belongs to exactly one subgraph, the dirty subgraph images carry the
//! exact current weight of every edge that changed since the base, so recovery
//! patches the graph from them and slots the subgraph indexes into the index
//! recovered so far — no delta-log replay across the covered epochs. A broken
//! chain (corrupt or base-mismatched partial) is never fatal: the delta log is
//! pruned only against retained *full* checkpoints, so replay can always take
//! over where the chain stops.
//!
//! Images are written atomically: encode to `<name>.tmp`, `fsync` the
//! file, rename over the final name, `fsync` the directory. A crash mid-write
//! leaves either the previous image set untouched or a stray `.tmp` that
//! recovery ignores; it can never leave a half-written image under the real
//! name. File names embed the epoch zero-padded to 20 digits so lexicographic
//! order equals epoch order.

use crate::codec::{crc32, Reader, StoreCodec, Writer};
use crate::error::StoreError;
use ksp_core::dtlp::{DtlpIndex, SubgraphIndex};
use ksp_graph::DynamicGraph;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes identifying a (full) checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"KSPCKPT1";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 2;
/// Extension of completed (full) checkpoint files.
pub const CHECKPOINT_EXT: &str = "ckpt";
/// Magic bytes identifying a partial (incremental) image file.
pub const PARTIAL_MAGIC: [u8; 8] = *b"KSPPART1";
/// Current partial image format version.
pub const PARTIAL_VERSION: u32 = 2;
/// Extension of completed partial image files.
pub const PARTIAL_EXT: &str = "pckpt";

/// What an encoded/staged image is: a whole-pair snapshot or an incremental
/// image extending the image at `base_epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageKind {
    /// A self-contained `(graph, index)` snapshot.
    Full,
    /// Dirty subgraphs only, to be applied on top of the image at `base_epoch`.
    Partial {
        /// Epoch of the image this one extends.
        base_epoch: u64,
    },
}

/// A decoded checkpoint: the state the service runs from after recovery.
#[derive(Debug)]
pub struct Checkpoint {
    /// The epoch the pair is exact for.
    pub epoch: u64,
    /// The road network at that epoch.
    pub graph: DynamicGraph,
    /// The DTLP index maintained to exactly that epoch's weights.
    pub index: DtlpIndex,
}

/// A fully encoded checkpoint file image, ready to be committed to disk.
///
/// Encoding is the expensive part (it walks the whole graph and index), so it
/// is separated from [`write_checkpoint`]: a background checkpointer encodes
/// from `Arc`'d snapshots without holding any store lock, then commits the
/// bytes under the lock.
#[derive(Debug)]
pub struct EncodedCheckpoint {
    /// The epoch the image captures.
    pub epoch: u64,
    /// Full snapshot or incremental image.
    pub kind: ImageKind,
    bytes: Vec<u8>,
}

impl EncodedCheckpoint {
    /// Size of the encoded file image in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the image is empty (it never is; for clippy's benefit).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The encoded file image, exactly as it would be written to disk. Lets
    /// a caller preserve (quarantine) an image whose staging or commit
    /// failed, for post-mortem inspection.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Encodes a (full) checkpoint file image for `(graph, index)` at `epoch`.
pub fn encode_checkpoint(epoch: u64, graph: &DynamicGraph, index: &DtlpIndex) -> EncodedCheckpoint {
    let mut payload = Writer::with_capacity(64 * 1024);
    graph.encode(&mut payload);
    index.encode(&mut payload);
    let payload = payload.into_bytes();

    let mut file = Writer::with_capacity(payload.len() + 32);
    file.put_bytes(&CHECKPOINT_MAGIC);
    file.put_u32(CHECKPOINT_VERSION);
    file.put_u64(epoch);
    file.put_u64(payload.len() as u64);
    file.put_bytes(&payload);
    file.put_u32(crc32(&payload));
    EncodedCheckpoint { epoch, kind: ImageKind::Full, bytes: file.into_bytes() }
}

/// Encodes a partial image at `epoch` extending the image at `base_epoch`,
/// containing the per-subgraph indexes named by `dirty` (ids referencing
/// subgraphs the index does not have are ignored). The image cost is
/// proportional to the dirty set, not the index.
pub fn encode_partial_checkpoint(
    epoch: u64,
    base_epoch: u64,
    graph: &DynamicGraph,
    index: &DtlpIndex,
    dirty: &[ksp_graph::SubgraphId],
) -> EncodedCheckpoint {
    let mut ids: Vec<ksp_graph::SubgraphId> =
        dirty.iter().copied().filter(|id| id.index() < index.num_subgraphs()).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut payload = Writer::with_capacity(16 * 1024);
    payload.put_u64(graph.version());
    payload.put_u64(ids.len() as u64);
    for id in ids {
        index.subgraph_index(id).encode(&mut payload);
    }
    let payload = payload.into_bytes();

    let mut file = Writer::with_capacity(payload.len() + 40);
    file.put_bytes(&PARTIAL_MAGIC);
    file.put_u32(PARTIAL_VERSION);
    file.put_u64(epoch);
    file.put_u64(base_epoch);
    file.put_u64(payload.len() as u64);
    file.put_bytes(&payload);
    file.put_u32(crc32(&payload));
    EncodedCheckpoint { epoch, kind: ImageKind::Partial { base_epoch }, bytes: file.into_bytes() }
}

/// A decoded partial image.
#[derive(Debug)]
pub struct PartialCheckpoint {
    /// The epoch the image advances the chain to.
    pub epoch: u64,
    /// The image this one extends; applying it to any other state is invalid.
    pub base_epoch: u64,
    /// The graph version at `epoch` (the value recovery fast-forwards to).
    pub graph_version: u64,
    /// The dirty per-subgraph indexes, exactly as they were live at `epoch`.
    pub subgraph_indexes: Vec<Arc<SubgraphIndex>>,
}

/// The file name of the (full) checkpoint for `epoch`.
pub fn checkpoint_file_name(epoch: u64) -> String {
    format!("checkpoint-{epoch:020}.{CHECKPOINT_EXT}")
}

/// The file name of the partial image for `epoch`.
pub fn partial_file_name(epoch: u64) -> String {
    format!("partial-{epoch:020}.{PARTIAL_EXT}")
}

/// A checkpoint whose bytes are written and fsynced to a temp file but not
/// yet visible under the final name.
///
/// Staging is the slow half of a checkpoint commit (it writes and fsyncs the
/// whole image); [`promote_checkpoint`] is the fast half (rename + directory
/// fsync). A background checkpointer stages without any lock and takes the
/// store lock only to promote, so epoch publishes never wait on checkpoint
/// I/O.
#[derive(Debug)]
pub struct StagedCheckpoint {
    /// The epoch the staged image captures.
    pub epoch: u64,
    /// Full snapshot or incremental image (with its base epoch).
    pub kind: ImageKind,
    tmp_path: PathBuf,
    final_path: PathBuf,
}

impl StagedCheckpoint {
    /// Removes the staged temp file without committing it. Used when the
    /// store rejects the image at commit time (e.g. a partial whose base is
    /// no longer the newest image).
    pub fn discard(self) {
        let _ = fs::remove_file(&self.tmp_path);
    }
}

/// Writes an encoded checkpoint to a temp file in `dir` and fsyncs it.
///
/// The temp name carries a process-wide unique suffix: a background
/// checkpointer staging epoch E and a synchronous `checkpoint_now` at the
/// same epoch must never interleave writes into one file.
pub fn stage_checkpoint(
    dir: &Path,
    encoded: &EncodedCheckpoint,
) -> Result<StagedCheckpoint, StoreError> {
    stage_checkpoint_with_io(dir, encoded, &crate::io::default_io())
}

/// [`stage_checkpoint`] with an explicit I/O backend (fault injection).
pub fn stage_checkpoint_with_io(
    dir: &Path,
    encoded: &EncodedCheckpoint,
    io: &std::sync::Arc<dyn crate::io::StorageIo>,
) -> Result<StagedCheckpoint, StoreError> {
    static STAGE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = STAGE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let final_path = dir.join(match encoded.kind {
        ImageKind::Full => checkpoint_file_name(encoded.epoch),
        ImageKind::Partial { .. } => partial_file_name(encoded.epoch),
    });
    let tmp_path = final_path.with_extension(format!("tmp{seq}"));
    let staged = (|| {
        let mut file = fs::File::create(&tmp_path)
            .map_err(|e| StoreError::io(format!("creating {}", tmp_path.display()), e))?;
        io.write_all(crate::io::IoClass::CheckpointImage, &mut file, &encoded.bytes)
            .map_err(|e| StoreError::io(format!("writing {}", tmp_path.display()), e))?;
        io.sync_all(crate::io::IoClass::CheckpointImage, &file)
            .map_err(|e| StoreError::io(format!("fsyncing {}", tmp_path.display()), e))?;
        Ok(())
    })();
    if let Err(e) = staged {
        // Do not leak a (possibly huge) partial image — especially on ENOSPC,
        // where the leak would keep the disk full.
        let _ = fs::remove_file(&tmp_path);
        return Err(e);
    }
    Ok(StagedCheckpoint { epoch: encoded.epoch, kind: encoded.kind, tmp_path, final_path })
}

/// Renames a staged checkpoint into place and fsyncs the directory.
pub fn promote_checkpoint(dir: &Path, staged: StagedCheckpoint) -> Result<PathBuf, StoreError> {
    if let Err(e) = fs::rename(&staged.tmp_path, &staged.final_path) {
        let _ = fs::remove_file(&staged.tmp_path);
        return Err(StoreError::io(
            format!("renaming {} into place", staged.tmp_path.display()),
            e,
        ));
    }
    sync_dir(dir)?;
    Ok(staged.final_path)
}

/// Deletes stray `checkpoint-*.tmp*` / `partial-*.tmp*` files left by a crash
/// mid-stage. Returns how many were removed. Called on store create/recover;
/// staged files from the *running* process are never older than those calls.
pub(crate) fn sweep_stale_tmp_files(dir: &Path) -> Result<usize, StoreError> {
    let mut removed = 0;
    let entries =
        fs::read_dir(dir).map_err(|e| StoreError::io(format!("listing {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(format!("listing {}", dir.display()), e))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let is_stale_tmp = (name.starts_with("checkpoint-") || name.starts_with("partial-"))
            && path.extension().and_then(|e| e.to_str()).is_some_and(|ext| ext.starts_with("tmp"));
        if is_stale_tmp {
            fs::remove_file(&path)
                .map_err(|e| StoreError::io(format!("deleting stale {}", path.display()), e))?;
            removed += 1;
        }
    }
    if removed > 0 {
        sync_dir(dir)?;
    }
    Ok(removed)
}

/// Atomically writes an encoded checkpoint into `dir`, returning its path.
pub fn write_checkpoint(dir: &Path, encoded: &EncodedCheckpoint) -> Result<PathBuf, StoreError> {
    let staged = stage_checkpoint(dir, encoded)?;
    promote_checkpoint(dir, staged)
}

/// Validates and decodes the checkpoint at `path`.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, StoreError> {
    let bytes = fs::read(path)
        .map_err(|e| StoreError::io(format!("reading checkpoint {}", path.display()), e))?;
    let mut r = Reader::new(&bytes);
    let magic =
        r.get_bytes(8).map_err(|_| StoreError::corrupt(path, "file shorter than header"))?;
    if magic != CHECKPOINT_MAGIC {
        return Err(StoreError::corrupt(path, "bad magic (not a checkpoint file)"));
    }
    let version = r.get_u32().map_err(|_| StoreError::corrupt(path, "file shorter than header"))?;
    if version != CHECKPOINT_VERSION {
        return Err(StoreError::corrupt(path, format!("unsupported format version {version}")));
    }
    let epoch = r.get_u64().map_err(|_| StoreError::corrupt(path, "file shorter than header"))?;
    let payload_len =
        r.get_u64().map_err(|_| StoreError::corrupt(path, "file shorter than header"))?;
    // Checked arithmetic: a corrupt length field must report corruption, not
    // overflow.
    if payload_len.saturating_add(4) != r.remaining() as u64 {
        return Err(StoreError::corrupt(
            path,
            format!(
                "payload length {payload_len} disagrees with file size ({} bytes after header)",
                r.remaining()
            ),
        ));
    }
    let payload_len = payload_len as usize;
    let payload = &bytes[bytes.len() - payload_len - 4..bytes.len() - 4];
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let actual_crc = crc32(payload);
    if stored_crc != actual_crc {
        return Err(StoreError::corrupt(
            path,
            format!(
                "payload CRC mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            ),
        ));
    }
    let mut payload_reader = Reader::new(payload);
    let graph = DynamicGraph::decode(&mut payload_reader)
        .map_err(|e| StoreError::corrupt(path, format!("graph decode: {e}")))?;
    let index = DtlpIndex::decode(&mut payload_reader)
        .map_err(|e| StoreError::corrupt(path, format!("index decode: {e}")))?;
    if !payload_reader.is_exhausted() {
        return Err(StoreError::corrupt(path, "trailing bytes after index"));
    }
    Ok(Checkpoint { epoch, graph, index })
}

/// Validates and decodes the partial image at `path`.
pub fn read_partial_checkpoint(path: &Path) -> Result<PartialCheckpoint, StoreError> {
    let bytes = fs::read(path)
        .map_err(|e| StoreError::io(format!("reading partial image {}", path.display()), e))?;
    let mut r = Reader::new(&bytes);
    let magic =
        r.get_bytes(8).map_err(|_| StoreError::corrupt(path, "file shorter than header"))?;
    if magic != PARTIAL_MAGIC {
        return Err(StoreError::corrupt(path, "bad magic (not a partial image)"));
    }
    let version = r.get_u32().map_err(|_| StoreError::corrupt(path, "file shorter than header"))?;
    if version != PARTIAL_VERSION {
        return Err(StoreError::corrupt(path, format!("unsupported format version {version}")));
    }
    let epoch = r.get_u64().map_err(|_| StoreError::corrupt(path, "file shorter than header"))?;
    let base_epoch =
        r.get_u64().map_err(|_| StoreError::corrupt(path, "file shorter than header"))?;
    let payload_len =
        r.get_u64().map_err(|_| StoreError::corrupt(path, "file shorter than header"))?;
    if payload_len.saturating_add(4) != r.remaining() as u64 {
        return Err(StoreError::corrupt(
            path,
            format!(
                "payload length {payload_len} disagrees with file size ({} bytes after header)",
                r.remaining()
            ),
        ));
    }
    if epoch <= base_epoch {
        return Err(StoreError::corrupt(
            path,
            format!("partial image at epoch {epoch} cannot extend base epoch {base_epoch}"),
        ));
    }
    let payload_len = payload_len as usize;
    let payload = &bytes[bytes.len() - payload_len - 4..bytes.len() - 4];
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let actual_crc = crc32(payload);
    if stored_crc != actual_crc {
        return Err(StoreError::corrupt(
            path,
            format!(
                "payload CRC mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            ),
        ));
    }
    let mut payload_reader = Reader::new(payload);
    let graph_version = payload_reader
        .get_u64()
        .map_err(|e| StoreError::corrupt(path, format!("graph version: {e}")))?;
    let subgraph_indexes = Vec::<Arc<SubgraphIndex>>::decode(&mut payload_reader)
        .map_err(|e| StoreError::corrupt(path, format!("subgraph index decode: {e}")))?;
    if !payload_reader.is_exhausted() {
        return Err(StoreError::corrupt(path, "trailing bytes after subgraph indexes"));
    }
    Ok(PartialCheckpoint { epoch, base_epoch, graph_version, subgraph_indexes })
}

fn list_by_name(dir: &Path, prefix: &str, ext: &str) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut found = Vec::new();
    let entries =
        fs::read_dir(dir).map_err(|e| StoreError::io(format!("listing {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(format!("listing {}", dir.display()), e))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let Some(epoch) = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(&format!(".{ext}")))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((epoch, path));
    }
    found.sort_unstable_by_key(|&(epoch, _)| epoch);
    Ok(found)
}

/// Lists the (full) checkpoints in `dir` as `(epoch, path)`, ascending by
/// epoch. Files that merely *look* like checkpoints are included; validity is
/// only established by [`read_checkpoint`].
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    list_by_name(dir, "checkpoint-", CHECKPOINT_EXT)
}

/// Lists the partial images in `dir` as `(epoch, path)`, ascending by epoch.
/// Validity (and chain membership) is only established by
/// [`read_partial_checkpoint`] against a recovered base.
pub fn list_partials(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    list_by_name(dir, "partial-", PARTIAL_EXT)
}

/// Fsyncs a directory so a just-renamed file survives a crash.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    let handle = fs::File::open(dir)
        .map_err(|e| StoreError::io(format!("opening directory {}", dir.display()), e))?;
    handle
        .sync_all()
        .map_err(|e| StoreError::io(format!("fsyncing directory {}", dir.display()), e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_core::dtlp::DtlpConfig;
    use ksp_graph::GraphBuilder;

    fn sample_pair() -> (DynamicGraph, DtlpIndex) {
        let mut b = GraphBuilder::undirected(9);
        for (u, v, w) in [
            (0, 1, 2),
            (1, 2, 1),
            (2, 3, 3),
            (3, 4, 1),
            (4, 5, 2),
            (5, 6, 1),
            (6, 7, 2),
            (7, 8, 1),
            (0, 8, 9),
        ] {
            b.edge(u, v, w);
        }
        let graph = b.build().unwrap();
        let index = DtlpIndex::build(&graph, DtlpConfig::new(4, 2)).unwrap();
        (graph, index)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ksp-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpoint_write_read_round_trip() {
        let dir = temp_dir("ckpt-roundtrip");
        let (graph, index) = sample_pair();
        let encoded = encode_checkpoint(0, &graph, &index);
        let path = write_checkpoint(&dir, &encoded).unwrap();
        let restored = read_checkpoint(&path).unwrap();
        assert_eq!(restored.epoch, 0);
        assert_eq!(restored.graph.to_bytes(), graph.to_bytes());
        assert_eq!(restored.index.to_bytes(), index.to_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_bit_fails_crc() {
        let dir = temp_dir("ckpt-crc");
        let (graph, index) = sample_pair();
        let path = write_checkpoint(&dir, &encode_checkpoint(3, &graph, &index)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "got {err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_checkpoint_is_corrupt_not_panic() {
        let dir = temp_dir("ckpt-trunc");
        let (graph, index) = sample_pair();
        let path = write_checkpoint(&dir, &encode_checkpoint(1, &graph, &index)).unwrap();
        let bytes = fs::read(&path).unwrap();
        for keep in [0, 5, 20, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&path, &bytes[..keep]).unwrap();
            assert!(matches!(read_checkpoint(&path), Err(StoreError::Corrupt { .. })));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_image_round_trip_carries_only_the_dirty_subgraphs() {
        let dir = temp_dir("partial-roundtrip");
        let (mut graph, index) = sample_pair();
        let mut index = index;
        // Dirty one subgraph.
        let edge = ksp_graph::EdgeId(0);
        let owner = index.owner_of_edge(edge);
        let batch = ksp_graph::UpdateBatch::new(vec![ksp_graph::WeightUpdate::new(
            edge,
            ksp_graph::Weight::new(3.75),
        )]);
        graph.apply_batch(&batch).unwrap();
        index.apply_batch(&batch).unwrap();

        let full = encode_checkpoint(1, &graph, &index);
        let partial = encode_partial_checkpoint(1, 0, &graph, &index, &[owner, owner]);
        assert!(partial.len() < full.len(), "a one-subgraph image must be smaller than a full one");

        let path = write_checkpoint(&dir, &partial).unwrap();
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), partial_file_name(1));
        let decoded = read_partial_checkpoint(&path).unwrap();
        assert_eq!(decoded.epoch, 1);
        assert_eq!(decoded.base_epoch, 0);
        assert_eq!(decoded.graph_version, graph.version());
        // Deduplicated: the repeated owner id yields one subgraph image.
        assert_eq!(decoded.subgraph_indexes.len(), 1);
        assert_eq!(decoded.subgraph_indexes[0].id(), owner);
        assert_eq!(decoded.subgraph_indexes[0].to_bytes(), index.subgraph_index(owner).to_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_inverted_partial_images_are_rejected() {
        let dir = temp_dir("partial-corrupt");
        let (graph, index) = sample_pair();
        let encoded = encode_partial_checkpoint(2, 1, &graph, &index, &[ksp_graph::SubgraphId(0)]);
        let path = write_checkpoint(&dir, &encoded).unwrap();
        let bytes = fs::read(&path).unwrap();
        // A flipped payload bit fails the CRC.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x20;
        fs::write(&path, &flipped).unwrap();
        assert!(matches!(read_partial_checkpoint(&path), Err(StoreError::Corrupt { .. })));
        // Truncations are corruption, not panics.
        for keep in [0, 7, 20, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&path, &bytes[..keep]).unwrap();
            assert!(matches!(read_partial_checkpoint(&path), Err(StoreError::Corrupt { .. })));
        }
        // An image whose epoch does not exceed its base can never chain.
        let inverted = encode_partial_checkpoint(1, 1, &graph, &index, &[]);
        let path = write_checkpoint(&dir, &inverted).unwrap();
        assert!(matches!(read_partial_checkpoint(&path), Err(StoreError::Corrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn images_of_another_format_version_are_refused_not_decoded() {
        // Version 1 images carried a storage-backend tag and an enumeration cap
        // this encoding no longer has. An otherwise valid image (its CRC covers the
        // payload only) with version 1 in the header must be refused by the version
        // check, never handed to the decoder.
        let dir = temp_dir("ckpt-version");
        let (graph, index) = sample_pair();
        let images = [
            encode_checkpoint(4, &graph, &index),
            encode_partial_checkpoint(5, 4, &graph, &index, &[ksp_graph::SubgraphId(0)]),
        ];
        for encoded in &images {
            let path = write_checkpoint(&dir, encoded).unwrap();
            let mut bytes = fs::read(&path).unwrap();
            bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            let refused = match encoded.kind {
                ImageKind::Full => read_checkpoint(&path).err(),
                ImageKind::Partial { .. } => read_partial_checkpoint(&path).err(),
            };
            assert!(
                matches!(&refused, Some(StoreError::Corrupt { .. })),
                "a version-1 {:?} image was not refused as corrupt: {refused:?}",
                encoded.kind
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn listing_orders_by_epoch_and_ignores_strays() {
        let dir = temp_dir("ckpt-list");
        let (graph, index) = sample_pair();
        for epoch in [7u64, 2, 11] {
            write_checkpoint(&dir, &encode_checkpoint(epoch, &graph, &index)).unwrap();
        }
        fs::write(dir.join("checkpoint-garbage.ckpt"), b"x").unwrap();
        fs::write(dir.join("notes.txt"), b"y").unwrap();
        fs::write(dir.join("checkpoint-00000000000000000005.tmp"), b"half").unwrap();
        let listed = list_checkpoints(&dir).unwrap();
        let epochs: Vec<u64> = listed.iter().map(|&(e, _)| e).collect();
        assert_eq!(epochs, vec![2, 7, 11]);
        let _ = fs::remove_dir_all(&dir);
    }
}
