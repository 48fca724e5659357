//! `ksp-store`: durable checkpoints + an epoch delta log with crash recovery
//! for the KSP-DG graph and DTLP index.
//!
//! The serving subsystem (`ksp-serve`) publishes immutable epochs: apply a
//! weight-update batch, get a new `(DynamicGraph, DtlpIndex)` pair. Without
//! this crate that design is memory-only — every process start pays a full
//! `DtlpIndex::build` and a crash loses every applied batch. `ksp-store`
//! makes the epoch sequence durable with the classic log-structured split:
//!
//! * [`codec`] — a versioned, checksummed binary codec ([`StoreCodec`]) that
//!   serialises the graph and the index *exactly*: floats travel as raw
//!   IEEE-754 bits, and only primary state is persisted (bounding paths with
//!   their accumulated distances, subgraph weights, ownership tables) while
//!   derived structures (the EP-Index, unit-weight multisets, the
//!   skeleton graph) are rebuilt deterministically on load.
//!   [`graph_codec`], [`index_codec`] and [`obs_codec`] implement it for the
//!   `ksp-graph`, `ksp-core` and `ksp-obs` types; the last is the payload of
//!   the wire `ObsSnapshot` response.
//! * [`checkpoint`] — atomic whole-pair snapshots (`checkpoint-<epoch>.ckpt`),
//!   the only image kind: write-temp, fsync, rename, fsync-dir; a CRC-32
//!   footer rejects half-written or bit-rotted files.
//! * [`wal`] — the append-only epoch delta log (`wal-<start>.log`): one
//!   length-prefixed, CRC-guarded record per published batch, fsync-on-commit,
//!   segment rotation, and torn-tail truncation on recovery.
//! * [`store`] — [`Store`] ties them together: `create` → `log_batch` per
//!   publish → periodic image commits (rotating and pruning the log) →
//!   [`Store::recover`], which loads the newest valid checkpoint, replays the
//!   records after it and hands back the exact state the service held. The
//!   log is pruned only against the oldest retained checkpoint, so falling
//!   back past a damaged newest checkpoint still replays to the tip.
//!   [`Store::verify`] is the read-only integrity check for operators.
//!
//! Recovery is *bit-exact*: the DTLP maintenance path applies floating-point
//! deltas incrementally, so the store persists those accumulated values
//! rather than recomputing them, and a recovered service answers every
//! `(source, target, k)` query byte-identically to the service that crashed.
//!
//! # Example
//!
//! ```
//! use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
//! use ksp_graph::{EdgeId, GraphBuilder, UpdateBatch, Weight, WeightUpdate};
//! use ksp_store::{Store, StoreConfig};
//!
//! let dir = std::env::temp_dir().join(format!("ksp-store-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! let mut b = GraphBuilder::undirected(6);
//! b.edge(0, 1, 2).edge(1, 2, 1).edge(2, 3, 2).edge(3, 4, 1).edge(4, 5, 2).edge(0, 5, 4);
//! let mut graph = b.build().unwrap();
//! let mut index = DtlpIndex::build(&graph, DtlpConfig::new(3, 2)).unwrap();
//!
//! // Initialise the store, publish two durable epochs, "crash" (drop).
//! let mut store = Store::create(&dir, StoreConfig::default(), 0, &graph, &index).unwrap();
//! for w in [5.0, 0.5] {
//!     let batch = UpdateBatch::new(vec![WeightUpdate::new(EdgeId(0), Weight::new(w))]);
//!     let epoch = graph.apply_batch(&batch).unwrap();
//!     index.apply_batch(&batch).unwrap();
//!     store.log_batch(epoch, &batch).unwrap();
//! }
//! drop(store);
//!
//! // Cold start: checkpoint + replay instead of a full index rebuild.
//! let (_store, recovered) = Store::recover(&dir, StoreConfig::default()).unwrap();
//! assert_eq!(recovered.epoch, 2);
//! assert_eq!(recovered.graph.weight(EdgeId(0)), Weight::new(0.5));
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod graph_codec;
pub mod index_codec;
pub mod io;
pub mod obs_codec;
pub mod store;
pub mod wal;

pub use checkpoint::{Checkpoint, EncodedCheckpoint};
pub use codec::{crc32, Reader, StoreCodec, Writer};
pub use error::{CodecError, StoreError};
pub use io::{apply_crash_damage, default_io, FaultyIo, IoClass, RealIo, StorageIo};
pub use store::{Recovered, RecoveryReport, SnapshotManifest, Store, StoreConfig, VerifyReport};
pub use wal::{AppendTimings, DeltaLog, LogRecord, SyncPolicy};
