//! Path-algorithm substrate for the KSP-DG system.
//!
//! Everything in this crate operates on the [`ksp_graph::GraphView`] abstraction, so
//! the same implementations run on the full graph, on partitioned subgraphs and on the
//! DTLP skeleton graph:
//!
//! * [`path`] — the simple-path representation shared across the system, including the
//!   loop-free concatenation used when joining partial paths (Algorithm 4, line 9).
//! * [`dijkstra`] — Dijkstra and A* on a caller-owned, generation-stamped dense
//!   [`SearchArena`] with an indexed 4-ary heap (decrease-key, no stale entries):
//!   point-to-point, single-source (at once or resumed on demand), a bounded sweep,
//!   and the banned-vertex/edge spur search inside Yen's algorithm. Every search in
//!   this crate runs on an arena.
//! * [`yen`] — Yen's k-shortest-simple-paths algorithm \[27\], exposed both as a lazy
//!   enumerator (used for DTLP's fewest-vfrag bounding paths) and as the Yen
//!   baseline function.
//! * [`findksp`] — FindKSP \[21\]: deviation-based KSP guided by a shortest path tree
//!   rooted at the destination, built on demand or given by the caller, so spur
//!   searches are goal-directed.
//!   It is the FindKSP baseline over a whole graph and KSP-DG's lazy enumerator of
//!   reference paths over the skeleton overlay and of partial paths inside subgraphs.
//! * [`vfrag`] — enumeration of paths by *virtual-fragment count* (fewest-vfrag paths),
//!   the primitive DTLP uses to select bounding paths (Section 3.4).

#![warn(missing_docs)]

pub mod dijkstra;
pub mod findksp;
pub mod path;
pub mod vfrag;
pub mod yen;

pub use dijkstra::{dijkstra_path, SearchArena};
pub use findksp::{find_ksp, FindKsp, Heuristic, Identity, Projection, ReverseSearch};
pub use path::Path;
pub use vfrag::{fewest_vfrag_paths, VfragView};
pub use yen::{yen_ksp, KspEnumerator};
