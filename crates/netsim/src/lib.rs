//! # taqos-netsim — cycle-level network-on-chip simulation substrate
//!
//! This crate is the simulation substrate of the TAQOS project, a
//! reproduction of *"Topology-aware Quality-of-Service Support in Highly
//! Integrated Chip Multiprocessors"* (Grot, Keckler, Mutlu — WIOSCA 2010).
//! It provides a configurable, deterministic, cycle-stepped model of an
//! on-chip network:
//!
//! * packets and flits with request/reply classes ([`packet`]),
//! * virtual channels, credit-based **virtual cut-through** flow control,
//!   crossbar port sharing and router pipelines ([`network`]),
//! * traffic sources with retransmission windows and ejection sinks,
//! * closed-loop request/reply traffic with per-node memory-level-
//!   parallelism windows, priority-ordered controller reply ports, and an
//!   optional DRAM service-time model at the controllers — address-
//!   interleaved banks, row-buffer hit/miss latencies, bounded request
//!   queues with NACK or stall backpressure ([`closed_loop`]),
//! * a pluggable quality-of-service policy interface ([`qos`]) used by the
//!   Preemptive Virtual Clock implementation in `taqos-qos`,
//! * statistics for latency, throughput, fairness and preemption behaviour
//!   ([`stats`]),
//! * simulation drivers for open-loop (load sweep) and closed (fixed
//!   workload) experiments ([`sim`]).
//!
//! The network structure (mesh, MECS, DPS, replicated channels, shared
//! crossbar ports, point-to-multipoint channels) is described by a
//! [`spec::NetworkSpec`] built by the `taqos-topology` crate; one generic
//! router engine executes every topology.
//!
//! ## Example
//!
//! ```rust
//! use taqos_netsim::network::Network;
//! use taqos_netsim::packet::{IdleGenerator, PacketGenerator};
//! use taqos_netsim::qos::FifoPolicy;
//! use taqos_netsim::sim::{run_open_loop, OpenLoopConfig};
//! use taqos_netsim::spec::{
//!     InputPortSpec, NetworkSpec, OutputPortSpec, RouteTable, RouterSpec, SinkSpec, SourceSpec,
//!     TargetEndpoint, TargetSpec, VcConfig,
//! };
//! use taqos_netsim::{Direction, FlowId, InPortId, NodeId, OutPortId, SimConfig};
//!
//! // A two-node chain: node 0's terminal sends to node 1's sink.
//! let r0 = RouterSpec {
//!     node: NodeId(0),
//!     inputs: vec![InputPortSpec::injection("term", VcConfig::new(1, 4), 0)],
//!     outputs: vec![OutputPortSpec::network(
//!         "south",
//!         Direction::South,
//!         0,
//!         vec![TargetSpec::single(
//!             TargetEndpoint::Router { router: 1, in_port: InPortId(0) },
//!             1,
//!         )],
//!     )],
//!     route_table: RouteTable::from_iter([(NodeId(1), [OutPortId(0)])]),
//!     va_latency: 1,
//!     xt_latency: 1,
//! };
//! let r1 = RouterSpec {
//!     node: NodeId(1),
//!     inputs: vec![InputPortSpec::network(
//!         "north", NodeId(0), Direction::South, 0, VcConfig::new(2, 4), 0,
//!     )],
//!     outputs: vec![OutputPortSpec::ejection("eject", 0, 0)],
//!     route_table: RouteTable::from_iter([(NodeId(1), [OutPortId(0)])]),
//!     va_latency: 1,
//!     xt_latency: 1,
//! };
//! let spec = NetworkSpec {
//!     name: "chain".into(),
//!     routers: vec![r0, r1],
//!     sources: vec![SourceSpec {
//!         flow: FlowId(0),
//!         node: NodeId(0),
//!         router: 0,
//!         in_port: InPortId(0),
//!         name: "n0.term".into(),
//!         window: 8,
//!     }],
//!     sinks: vec![SinkSpec { node: NodeId(1), name: "n1.sink".into(), slots: 2 }],
//!     flit_bytes: 16,
//! };
//! spec.validate()?;
//!
//! let generators: Vec<Box<dyn PacketGenerator>> = vec![Box::new(IdleGenerator)];
//! let network = Network::new(spec, Box::new(FifoPolicy::new()), generators, SimConfig::default())?;
//! let stats = run_open_loop(network, OpenLoopConfig::quick());
//! assert_eq!(stats.delivered_packets, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod closed_loop;
pub mod config;
pub mod error;
mod event;
pub mod fault;
mod ids;
pub mod network;
pub mod packet;
mod port;
pub mod qos;
mod router;
pub mod sim;
mod sink;
mod source;
pub mod spec;
pub mod stats;
mod vc;

pub use config::{SimConfig, TelemetryConfig};
pub use ids::{Cycle, Direction, FlowId, InPortId, NodeId, OutPortId, PacketId, VcId};
pub use taqos_telemetry::{
    ChromeTraceSink, FrameSeries, FrameSnapshot, Hist64, JsonlSink, SharedMemorySink, TraceEvent,
    TraceSink,
};
