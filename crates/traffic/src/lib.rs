//! # taqos-traffic — synthetic traffic generation
//!
//! Stochastic traffic generators and ready-made workloads for evaluating the
//! QOS-enabled shared region:
//!
//! * [`injection`] — Bernoulli injection processes and the request/reply
//!   packet-size mix (1- and 4-flit packets on 16-byte links);
//! * [`generators`] — per-injector packet generators combining an injection
//!   process with a destination pattern and an optional packet budget;
//! * [`workloads`] — the paper's workloads assembled for a whole column:
//!   uniform random, tornado, hotspot, and the two adversarial preemption
//!   workloads, plus their offered-demand vectors for max-min fairness
//!   analysis.
//!
//! All generators are seeded explicitly and fully deterministic.
//!
//! ## Example
//!
//! ```rust
//! use taqos_topology::column::ColumnConfig;
//! use taqos_traffic::injection::PacketSizeMix;
//! use taqos_traffic::workloads::uniform_random;
//!
//! let config = ColumnConfig::paper();
//! let generators = uniform_random(&config, 0.10, PacketSizeMix::paper(), 42);
//! assert_eq!(generators.len(), 64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod generators;
pub mod injection;
pub mod patterns;
pub mod workloads;
