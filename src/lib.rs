//! # taqos — topology-aware quality-of-service for chip multiprocessors
//!
//! Umbrella crate of the TAQOS project, a from-scratch Rust reproduction of
//! *"Topology-aware Quality-of-Service Support in Highly Integrated Chip
//! Multiprocessors"* (Grot, Keckler, Mutlu — WIOSCA 2010). It re-exports the
//! component crates and hosts the runnable examples and the cross-crate
//! integration tests.
//!
//! | Crate | Contents |
//! |---|---|
//! | [`netsim`]   | cycle-level NoC simulation substrate (flits, VCs, virtual cut-through, routers, preemption, statistics) |
//! | [`qos`]      | Preemptive Virtual Clock, ideal per-flow queuing, fairness mathematics |
//! | [`topology`] | mesh x1/x2/x4, MECS and DPS column topologies; chip-level grid primitives |
//! | [`traffic`]  | uniform random, tornado, hotspot and adversarial workloads |
//! | [`power`]    | 32 nm area and energy models (buffers, crossbar, flow state) |
//! | [`telemetry`] | deterministic observability: integer latency histograms, per-frame time series, flit-level trace export |
//! | [`core`]     | the paper's architecture: shared-region simulation, domains, OS support, experiments |
//!
//! ## Quick start
//!
//! ```rust
//! use taqos::core::shared_region::SharedRegionSim;
//! use taqos::netsim::sim::{run_open_loop, OpenLoopConfig};
//! use taqos::netsim::NodeId;
//! use taqos::topology::column::ColumnTopology;
//! use taqos::traffic::injection::PacketSizeMix;
//! use taqos::traffic::workloads::hotspot;
//!
//! // Simulate the paper's new DPS topology under hotspot traffic with PVC.
//! let sim = SharedRegionSim::new(ColumnTopology::Dps);
//! let generators = hotspot(sim.column(), 0.03, PacketSizeMix::paper(), NodeId(0), 1);
//! let network = sim.build(Box::new(sim.default_policy()), generators)?;
//! let stats = run_open_loop(network, OpenLoopConfig::quick());
//! assert!(stats.delivered_packets > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use taqos_core as core;
pub use taqos_netsim as netsim;
pub use taqos_power as power;
pub use taqos_qos as qos;
pub use taqos_telemetry as telemetry;
pub use taqos_topology as topology;
pub use taqos_traffic as traffic;
