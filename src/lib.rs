//! # wdm-robust-routing
//!
//! Façade crate for the reproduction of **Weifa Liang, "Robust Routing in
//! Wide-Area WDM Networks", IPPS 2001**: establishing a primary semilightpath
//! plus an edge-disjoint backup for dynamic connection requests in a
//! wavelength-routed WDM wide-area network, minimising route cost (§3) and,
//! jointly, the network load (§4).
//!
//! This crate re-exports the workspace members so downstream users can depend
//! on a single crate:
//!
//! * [`graph`] — directed-graph substrate: adjacency-list graphs,
//!   Dijkstra, Bellman–Ford, Yen's k-shortest-paths, Suurballe's
//!   disjoint-pair algorithm (allocating and CSR-flattened), min-cost flow,
//!   and WAN topology generators.
//! * [`heap`] — priority queues (indexed d-ary, bucket).
//! * [`ilp`] — a small dense-simplex LP solver with 0/1 branch-and-bound,
//!   used by the paper's exact integer-programming formulation.
//! * [`core`] — the paper itself: the WDM network model, semilightpaths,
//!   auxiliary graphs `G'`/`G_c`/`G_rc`, the §3.3 two-approximation, the §4.1
//!   MinCog load minimiser, the §4.2 joint optimiser, exact solvers, and
//!   baselines.
//! * [`sim`] — a discrete-event dynamic-traffic simulator with failure
//!   injection and reconfiguration accounting.
//!
//! ## Quickstart
//!
//! ```
//! use wdm_robust_routing::prelude::*;
//!
//! // A 14-node NSFNET backbone with 8 wavelengths per fibre.
//! let net = NetworkBuilder::nsfnet(8).build();
//! let state = ResidualState::fresh(&net);
//!
//! let mut finder = RobustRouteFinder::new(&net);
//! let route = finder
//!     .find(&state, NodeId(0), NodeId(12))
//!     .expect("NSFNET is 2-edge-connected");
//!
//! assert!(route.is_edge_disjoint());
//! println!("primary cost {:.2}, backup cost {:.2}", route.primary.cost, route.backup.cost);
//! ```
//!
//! See `examples/` for dynamic provisioning, failure recovery and
//! load-balancing walkthroughs, and `EXPERIMENTS.md` for the paper-artifact
//! reproduction results.

pub use wdm_core as core;
pub use wdm_graph as graph;
pub use wdm_heap as heap;
pub use wdm_ilp as ilp;
pub use wdm_sim as sim;

/// One-stop imports for applications.
pub mod prelude {
    pub use wdm_core::prelude::*;
    pub use wdm_graph::{DiGraph, EdgeId, NodeId};
    pub use wdm_sim::prelude::*;
}
