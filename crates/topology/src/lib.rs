//! # taqos-topology — network topologies for the QOS-enabled shared region
//!
//! Topology construction and analysis for the TAQOS reproduction of
//! *"Topology-aware Quality-of-Service Support in Highly Integrated Chip
//! Multiprocessors"*:
//!
//! * [`column`](mod@column) — the five shared-region column topologies (mesh x1/x2/x4,
//!   MECS, and the paper's new Destination Partitioned Subnets), emitted as
//!   [`taqos_netsim::spec::NetworkSpec`]s with the router parameters of
//!   Table 1;
//! * [`geometry`] — per-topology router geometry (crossbar dimensions, buffer
//!   capacities, flow-table sizes, input-wire sharing) that drives the area
//!   and energy models;
//! * [`properties`] — closed-form bisection bandwidth, zero-load latency and
//!   average hop counts;
//! * [`grid`] — chip-level primitives (8x8 concentrated grid, XY
//!   dimension-order routing, MECS single-hop reachability, convex-region
//!   checks) used by the chip-level architecture in `taqos-core`;
//! * [`mesh2d`] — the plain two-dimensional XY mesh;
//! * [`chip`] — the hybrid chip fabric: the 2-D mesh plus per-row MECS
//!   express channels into the QOS-protected shared columns;
//! * [`reroute`] — fault-aware route recomputation: detours routing tables
//!   around permanently dead links and routers and fails requesters over to
//!   surviving sibling memory controllers.
//!
//! ## Example
//!
//! ```rust
//! use taqos_topology::column::{ColumnConfig, ColumnTopology};
//! use taqos_topology::properties::bisection_bandwidth_bytes;
//!
//! let config = ColumnConfig::paper();
//! let spec = ColumnTopology::Dps.build(&config);
//! assert_eq!(spec.routers.len(), 8);
//! assert_eq!(spec.sources.len(), 64);
//!
//! // MECS, DPS and mesh x4 have equal bisection bandwidth.
//! assert_eq!(
//!     bisection_bandwidth_bytes(ColumnTopology::Dps, &config),
//!     bisection_bandwidth_bytes(ColumnTopology::MeshX4, &config),
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chip;
pub mod column;
pub mod geometry;
pub mod grid;
pub mod mesh2d;
pub mod properties;
pub mod reroute;
