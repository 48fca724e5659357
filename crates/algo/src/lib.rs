//! Path-algorithm substrate for the KSP-DG system.
//!
//! Everything in this crate operates on the [`ksp_graph::GraphView`] abstraction, so
//! the same implementations run on the full graph, on partitioned subgraphs and on the
//! DTLP skeleton graph:
//!
//! * [`path`] — the simple-path representation shared across the system, including the
//!   loop-free concatenation used when joining partial paths (Algorithm 4, line 9).
//! * [`dijkstra`] — binary-heap Dijkstra on a caller-owned, generation-stamped dense
//!   [`SearchArena`]: point-to-point, single-source, a bounded sweep, and the
//!   banned-vertex/edge spur search inside Yen's algorithm. Every search in this crate
//!   runs on an arena.
//! * [`yen`] — Yen's k-shortest-simple-paths algorithm \[27\], exposed both as a lazy
//!   enumerator (used by KSP-DG for partial paths inside subgraphs) and as a
//!   convenience function.
//! * [`findksp`] — FindKSP \[21\]: deviation-based KSP guided by a shortest path tree
//!   rooted at the destination, so spur searches are goal-directed. It is the FindKSP
//!   baseline over a whole graph and KSP-DG's lazy enumerator of reference paths over
//!   the skeleton overlay.
//! * [`vfrag`] — enumeration of paths by *virtual-fragment count* (fewest-vfrag paths),
//!   the primitive DTLP uses to select bounding paths (Section 3.4).

#![warn(missing_docs)]

pub mod dijkstra;
pub mod findksp;
pub mod path;
pub mod vfrag;
pub mod yen;

pub use dijkstra::{dijkstra_path, SearchArena};
pub use findksp::{find_ksp, FindKsp, Transpose};
pub use path::Path;
pub use vfrag::{fewest_vfrag_paths, VfragView};
pub use yen::{yen_ksp, KspEnumerator};
