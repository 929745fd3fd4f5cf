//! Directed-graph substrate for the WDM robust-routing workspace.
//!
//! Everything in the paper reduces to computations on directed weighted
//! (multi-)graphs: the WDM network itself, the auxiliary graphs `G'`, `G_c`
//! and `G_rc` of §3.3/§4, and the layered wavelength graph of the Liang–Shen
//! semilightpath algorithm. This crate provides the shared machinery:
//!
//! * [`DiGraph`] — an adjacency-list directed multigraph with dense integer
//!   ids ([`NodeId`], [`EdgeId`]) and typed node/edge payloads;
//! * shortest paths: [`dijkstra`](dijkstra::dijkstra) (generic over the
//!   heap engine), [`bellman_ford`](bellman_ford::bellman_ford);
//! * [`suurballe`] — Suurballe's minimum-cost pair of edge-disjoint paths
//!   (1974), the core subroutine of the paper's `Find_Two_Paths`;
//! * [`arena`] — the same Suurballe over a CSR-flattened [`FlatView`] with
//!   reusable buffers (the routing hot path; `suurballe` is its oracle);
//! * [`johnson`] — Johnson's all-pairs shortest paths (topology stats,
//!   cross-validation oracle);
//! * [`ksp`] — Yen's k-shortest loopless paths (baseline policies);
//! * [`mincostflow`] — successive-shortest-path min-cost flow, used as an
//!   independent exactness oracle for the disjoint-pair computations;
//! * [`traverse`] — BFS/DFS, reachability, Tarjan SCC, topological sort;
//! * [`topology`] — WAN topology generators (NSFNET, ARPANET-like, rings,
//!   grids/tori, Waxman and Erdős–Rényi random graphs, trap/hardness
//!   gadget families);
//! * [`dot`] — Graphviz export for documentation and debugging.

pub mod arena;
pub mod bellman_ford;
pub mod dijkstra;
pub mod dot;
mod graph;
mod ids;
pub mod johnson;
pub mod ksp;
pub mod mincostflow;
mod path;
pub mod suurballe;
pub mod topology;
pub mod traverse;

pub use arena::{FlatView, IntWeights, Potentials, SearchArena};
pub use graph::DiGraph;
pub use ids::{EdgeId, NodeId};
pub use path::Path;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::bellman_ford::bellman_ford;
    pub use crate::dijkstra::{dijkstra, dijkstra_filtered, ShortestPathTree};
    pub use crate::ksp::yen_k_shortest;
    pub use crate::suurballe::{edge_disjoint_pair, node_disjoint_pair, DisjointPair};
    pub use crate::{DiGraph, EdgeId, NodeId, Path};
}
