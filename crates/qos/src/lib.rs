//! # taqos-qos — quality-of-service policies for on-chip networks
//!
//! Quality-of-service mechanisms used inside the QOS-protected shared region
//! of the topology-aware CMP architecture:
//!
//! * [`pvc`] — **Preemptive Virtual Clock** (PVC), the paper's QOS scheme:
//!   frame-based rate-scaled prioritisation, reserved (non-preemptable)
//!   quotas, and preemption of lower-priority packets to resolve priority
//!   inversion, with source-window retransmission over an ACK network.
//! * [`per_flow`] — the ideal **per-flow-queued** reference used as the
//!   preemption-free baseline when measuring slowdown (Figure 6).
//! * [`rates`] — per-flow service-rate allocations programmed by the
//!   operating system / hypervisor.
//! * [`scoped`] — the node-scoped overlay confining any policy's hardware to
//!   a set of protected routers (the shared columns of the chip).
//! * [`fairness`] — max-min fair shares, Jain's index, and deviation
//!   summaries used to evaluate fairness (Table 2, Figure 6).
//!
//! All policies implement [`taqos_netsim::qos::QosPolicy`] and plug into the
//! generic router engine of `taqos-netsim`.
//!
//! ## Example
//!
//! ```rust
//! use taqos_netsim::FlowId;
//! use taqos_netsim::qos::QosPolicy;
//! use taqos_qos::fairness::max_min_fair_shares;
//! use taqos_qos::pvc::PvcPolicy;
//!
//! // The paper's configuration: 50K-cycle frames, equal rates for 64 flows.
//! let pvc = PvcPolicy::equal_rates(64);
//! assert_eq!(pvc.reserved_quota(FlowId(0)), Some(781));
//!
//! // Max-min fair shares of a single bottleneck among unequal demands.
//! let shares = max_min_fair_shares(&[0.05, 0.20, 0.20], 0.30);
//! assert!((shares[0] - 0.05).abs() < 1e-12);
//! assert!((shares[1] - 0.125).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fairness;
pub mod per_flow;
pub mod pvc;
pub mod rates;
pub mod scoped;
