//! The Distributed Two-Level Path (DTLP) index — Sections 3 and 4 of the paper.
//!
//! Level one ([`subgraph_index`]) lives with each subgraph (on its owning worker in the
//! distributed deployment): the bounding paths between boundary-vertex pairs, the
//! unit-weight multiset used to compute bound distances, and the EP-Index
//! ([`ep_index`]) that maps an edge to the bounding paths passing through it so that
//! weight updates touch only what they must. Section 4's MFP-tree compression of the
//! EP-Index is not kept: the experiments of Figures 15–18 build it from
//! [`EpIndex::edge_paths`] to report its size.
//!
//! Level two ([`skeleton`]) is the skeleton graph `Gλ` over all boundary vertices; its
//! edge weights are *minimum lower bound distances* and it is small enough to be
//! replicated to every worker.
//!
//! [`index`] ties both levels together behind [`DtlpIndex`]. What queries learn from
//! one set of weights (partial paths per subgraph, distances per target) is kept
//! in memos with one lifetime rule, stated in `dtlp::memo`.

pub mod bounding;
pub mod ep_index;
pub mod index;
pub(crate) mod memo;
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
