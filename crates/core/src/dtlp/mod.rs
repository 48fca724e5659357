//! The Distributed Two-Level Path (DTLP) index — Sections 3 and 4 of the paper.
//!
//! Level one ([`subgraph_index`]) lives with each subgraph (on its owning worker in the
//! distributed deployment): the bounding paths between boundary-vertex pairs, the
//! unit-weight multiset used to compute bound distances, and the EP-Index
//! ([`ep_index`]) that maps an edge to the bounding paths passing through it so that
//! weight updates touch only what they must. Section 4's MFP-tree compression of the
//! EP-Index is reported as a size ([`DtlpIndex::mfp_level1_memory_bytes`]), not kept
//! as a second store.
//!
//! Level two ([`skeleton`]) is the skeleton graph `Gλ` over all boundary vertices; its
//! edge weights are *minimum lower bound distances* and it is small enough to be
//! replicated to every worker.
//!
//! [`index`] ties both levels together behind [`DtlpIndex`].

pub mod bounding;
pub mod ep_index;
pub mod index;
mod mfp;
pub mod skeleton;
pub mod subgraph_index;
pub mod target_row;
pub mod unit_weights;

pub use bounding::{BoundingPath, BoundingPathSet, PairPaths};
pub use ep_index::EpIndex;
pub use index::{BuildStats, DtlpConfig, DtlpIndex, MaintenanceStats};
pub use skeleton::{Hop, LabelledView, OverlayView, ReversedOverlay, SkeletonGraph};
pub use subgraph_index::{LowerBoundChange, SubgraphIndex};
pub use target_row::{TargetDistances, TargetRow};
pub use unit_weights::UnitWeightMultiset;
