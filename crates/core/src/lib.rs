//! # taqos-core — topology-aware quality-of-service for chip multiprocessors
//!
//! This crate assembles the paper's contribution from the TAQOS substrate
//! crates:
//!
//! * [`shared_region`] — the QOS-enabled shared-region (column) simulation:
//!   any of the five column topologies (mesh x1/x2/x4, MECS, DPS) combined
//!   with any QOS policy (Preemptive Virtual Clock, ideal per-flow queuing,
//!   no QOS) and any traffic workload;
//! * [`chip`] — the chip-level architecture: shared-resource columns with
//!   single-hop MECS access, convex application/VM domains, inter-domain
//!   routing through protected columns, and the operating-system services
//!   (friendly co-scheduling, domain allocation, rate programming);
//! * [`chip_sim`] — the chip-scale *simulation*: the hybrid 2-D-mesh +
//!   MECS-express fabric with the QOS overlay confined to the shared
//!   columns, run on the same cycle engine as the column experiments;
//!   `ChipSim::build` takes per-node traffic generators,
//!   `ChipSim::build_closed_loop` a closed-loop request/reply spec;
//! * [`experiment`] — the experiments reproducing every table and figure of
//!   the paper's evaluation (area, latency/throughput, fairness, preemption
//!   behaviour, slowdown, energy).
//!
//! ## Quick start
//!
//! The facades only build a network; it runs through one of netsim's two
//! drivers, [`run_open_loop`] (warm-up, measurement window, drain) or
//! [`run_closed`] (a fixed workload run to completion).
//!
//! [`run_open_loop`]: taqos_netsim::sim::run_open_loop
//! [`run_closed`]: taqos_netsim::sim::run_closed
//!
//! ```rust
//! use taqos_core::shared_region::SharedRegionSim;
//! use taqos_netsim::sim::{run_open_loop, OpenLoopConfig};
//! use taqos_topology::column::ColumnTopology;
//! use taqos_traffic::injection::PacketSizeMix;
//! use taqos_traffic::workloads::uniform_random;
//!
//! // Simulate the DPS shared region under uniform-random traffic with PVC.
//! let sim = SharedRegionSim::new(ColumnTopology::Dps);
//! let generators = uniform_random(sim.column(), 0.05, PacketSizeMix::paper(), 7);
//! let network = sim.build(Box::new(sim.default_policy()), generators)?;
//! let stats = run_open_loop(network, OpenLoopConfig::quick());
//! assert!(stats.delivered_packets > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chip;
pub mod chip_sim;
pub mod experiment;
pub mod shared_region;
