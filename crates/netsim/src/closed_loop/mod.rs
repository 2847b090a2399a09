//! Closed-loop request/reply traffic with per-node memory-level-parallelism
//! (MLP) windows.
//!
//! Open-loop generators inject at a configured rate regardless of network
//! state, which models load/latency curves but not real memory traffic: a
//! core can only have a bounded number of cache misses outstanding, so its
//! injection rate is *self-limited* by the round-trip time of its requests.
//! This module closes the loop:
//!
//! * a **requester** flow owns an MLP window (`mlp` outstanding requests);
//!   whenever the window has room it issues a short request packet to its
//!   memory controller node;
//! * the **memory controller** answers every delivered request with a
//!   cache-line reply streamed back from its own injection port;
//! * a delivered reply credits the requester's window, triggering the next
//!   request — accepted throughput and round-trip latency fall out of the
//!   [`crate::stats::NetStats`] round-trip counters.
//!
//! Replies travel on the **requester's flow**: at QOS routers the reply
//! inherits the requester's priority and bandwidth accounting (the reply is
//! the requester's traffic on the return path), and the controller's reply
//! port picks the pending reply of the highest-priority flow rather than
//! serving head-of-line — the controller sits inside the QOS-protected
//! region, so its injection port is a QOS arbitration point like any other.
//! Mechanically the reply is injected, windowed and retransmitted by the
//! controller's source ([`crate::packet::Packet::origin_source`]).
//!
//! The behaviour lives in two components that own no fabric state: the
//! requester (phase schedule, MLP window, deadlines, retries, reply
//! matching) and the memory controller (admission, bounded queue, stall
//! lane, banks, virtual clocks, scheduling). [`crate::network::Network`] is
//! their client; its module header says how it applies what they report.

mod controller;
mod dram;
mod replies;
mod requester;

pub use dram::{
    requester_line, DramBackpressure, DramConfig, DramScheduler, PagePolicy, DRAM_REGION_LINES,
};
pub use requester::{
    BurstTrain, PhaseChange, PhaseSchedule, PhasedWorkload, RequesterSpec, RetryPolicy,
};

pub(crate) use controller::{McEffect, McRequest, Offer};
pub(crate) use replies::PendingReplies;

use crate::error::{SimError, SpecError};
use crate::ids::{Cycle, FlowId, NodeId, VcId};
use crate::packet::Packet;
use crate::spec::NetworkSpec;
use crate::stats::NetStats;
use controller::MemoryController;
use requester::Requester;
use serde::{Deserialize, Serialize};

/// Integer scale of the rate weights and of bank-time charges before they
/// are divided by a flow's weight, so virtual clocks keep resolution for
/// weight ratios up to this factor.
pub(crate) const VCLOCK_SCALE: u64 = 1024;

/// Integer rate weight of a relative service rate: `rate × 1024` rounded,
/// floored at 1 so relative order survives for arbitrarily small rates. The
/// one formula behind `RateAllocation::priority_weights` in `taqos-qos` and
/// a mid-run reprogramming of the controllers' weights.
pub fn rate_weight(rate: f64) -> u64 {
    ((rate * VCLOCK_SCALE as f64).round() as u64).max(1)
}

/// Whether a configured delay whose worst case is `delay × growth` can be
/// added to the clock without wrapping: the worst case must stay within half
/// the cycle range, which no run's clock can leave (it would take 2^63
/// steps).
fn delay_fits(delay: Cycle, growth: u64) -> bool {
    delay
        .checked_mul(growth)
        .is_some_and(|worst| worst <= Cycle::MAX / 2)
}

/// Closed-loop configuration of a network: at most one requester per flow,
/// and optionally a DRAM service-time model at every memory controller.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClosedLoopSpec {
    /// Requester behaviour per flow, indexed by flow identifier.
    pub requesters: Vec<Option<RequesterSpec>>,
    /// DRAM service-time model applied at every controller. `None` keeps the
    /// pre-DRAM behaviour: controllers answer each delivered request
    /// instantly (zero service time, unbounded acceptance).
    pub dram: Option<DramConfig>,
    /// Per-flow service-rate weights used by the priority-aware DRAM
    /// schedulers, indexed by flow — the same relative rates the fabric's
    /// virtual-clock policy is programmed with (see
    /// `RateAllocation::priority_weights` in `taqos-qos`). Empty means
    /// equal weights for every flow.
    pub flow_weights: Vec<u64>,
    /// Per-request deadline/retry behaviour applied to every requester.
    /// `None` keeps the pre-retry behaviour: requests wait forever.
    pub retry: Option<RetryPolicy>,
    /// Dynamic traffic: per-flow phase schedules changing the effective MLP
    /// window at fixed cycles. Empty (the default) keeps every requester's
    /// static window.
    pub phases: PhasedWorkload,
}

impl ClosedLoopSpec {
    /// Creates a spec with no requesters for a network of `num_flows` flows.
    pub fn new(num_flows: usize) -> Self {
        ClosedLoopSpec {
            requesters: vec![None; num_flows],
            dram: None,
            flow_weights: Vec::new(),
            retry: None,
            phases: PhasedWorkload::default(),
        }
    }

    /// Registers a requester for `flow`.
    pub fn with_requester(mut self, flow: FlowId, spec: RequesterSpec) -> Self {
        // taqos-lint: allow(panic-index) -- build-time builder; an out-of-range flow is a caller bug worth a panic
        self.requesters[flow.index()] = Some(spec);
        self
    }

    /// Installs a DRAM service-time model at every memory controller.
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = Some(dram);
        self
    }

    /// Programs the per-flow rate weights the priority-aware DRAM
    /// schedulers scale their virtual clocks by (one weight per flow; all
    /// weights must be positive).
    pub fn with_flow_weights(mut self, weights: Vec<u64>) -> Self {
        self.flow_weights = weights;
        self
    }

    /// Applies a deadline/retry policy to every requester.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Installs a dynamic (phased) workload: per-flow schedules of effective
    /// MLP-window changes.
    #[must_use]
    pub fn with_phases(mut self, phases: PhasedWorkload) -> Self {
        self.phases = phases;
        self
    }

    /// Number of flows with a requester attached.
    pub fn active_requesters(&self) -> usize {
        self.requesters.iter().flatten().count()
    }

    /// Validates the spec against a network specification.
    ///
    /// # Errors
    ///
    /// Returns an error if the requester list length does not match the flow
    /// count, a window or packet length is zero, or a referenced memory
    /// controller node has no source (to inject replies) or no sink.
    pub fn validate(&self, spec: &NetworkSpec) -> Result<(), SimError> {
        if let Some(dram) = &self.dram {
            dram.validate()?;
        }
        if let Some(retry) = &self.retry {
            retry.validate()?;
        }
        if self.requesters.len() != spec.num_flows() {
            return Err(SimError::Spec(SpecError::new(format!(
                "closed-loop spec covers {} flows but the network has {}",
                self.requesters.len(),
                spec.num_flows()
            ))));
        }
        if !self.flow_weights.is_empty() {
            if self.flow_weights.len() != spec.num_flows() {
                return Err(SimError::Spec(SpecError::new(format!(
                    "flow weights cover {} flows but the network has {}",
                    self.flow_weights.len(),
                    spec.num_flows()
                ))));
            }
            if self.flow_weights.contains(&0) {
                return Err(SimError::Spec(SpecError::new(
                    "flow weights must be positive",
                )));
            }
        }
        if !self.phases.schedules.is_empty() {
            if self.phases.schedules.len() != self.requesters.len() {
                return Err(SimError::Spec(SpecError::new(format!(
                    "phase schedules cover {} flows but the network has {}",
                    self.phases.schedules.len(),
                    spec.num_flows()
                ))));
            }
            for (flow, schedule) in self.phases.schedules.iter().enumerate() {
                if schedule.is_empty() {
                    continue;
                }
                // taqos-lint: allow(panic-index) -- schedules.len() == num_flows == requesters.len(), checked just above
                if self.requesters[flow].is_none() {
                    return Err(SimError::Spec(SpecError::new(format!(
                        "flow {flow}: a phase schedule needs a requester to act on"
                    ))));
                }
                // A burst train is increasing by construction, however long.
                if let PhaseSchedule::Explicit(changes) = schedule {
                    // taqos-lint: allow(panic-index) -- windows(2) yields exactly-two-element slices
                    if !changes.windows(2).all(|w| w[0].at < w[1].at) {
                        return Err(SimError::Spec(SpecError::new(format!(
                            "flow {flow}: phase changes must be strictly increasing in cycle"
                        ))));
                    }
                }
            }
        }
        for (flow, requester) in self.requesters.iter().enumerate() {
            let Some(requester) = requester else { continue };
            if requester.mlp == 0 || requester.request_len == 0 || requester.reply_len == 0 {
                return Err(SimError::Spec(SpecError::new(format!(
                    "flow {flow}: MLP window and packet lengths must be non-zero"
                ))));
            }
            if let Some(0) = requester.total {
                return Err(SimError::Spec(SpecError::new(format!(
                    "flow {flow}: a bounded requester needs a non-zero total"
                ))));
            }
            if !spec.sources.iter().any(|s| s.node == requester.mc) {
                return Err(SimError::Spec(SpecError::new(format!(
                    "flow {flow}: memory controller node {} has no source to inject replies",
                    requester.mc
                ))));
            }
            if !spec.sinks.iter().any(|s| s.node == requester.mc) {
                return Err(SimError::Spec(SpecError::new(format!(
                    "flow {flow}: memory controller node {} has no sink",
                    requester.mc
                ))));
            }
        }
        Ok(())
    }
}

/// What the closed loop does with a request-class packet delivered at a
/// sink.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arrival {
    /// Not a requester's request at that flow's own controller: ordinary
    /// traffic, delivered as without a closed loop.
    Ordinary,
    /// An instant (DRAM-less) controller answers this request at once.
    Answered(McRequest),
    /// A DRAM-backed controller ruled on the request. Unless rejected it is
    /// in the controller's pipeline: pump the controller. `deferred` says
    /// the delivery (and its ACK) is recorded when bank service starts, not
    /// now.
    Offered {
        /// The controller's verdict.
        offer: Offer,
        /// Whether admitted requests are delivered at service start.
        deferred: bool,
    },
}

/// Runtime state of the closed loop, owned by the network: the requester of
/// each flow, the controller of each node, and the replies waiting at the
/// controllers' reply ports.
#[derive(Debug)]
pub(crate) struct ClosedLoopState {
    /// Per-flow requester, indexed by flow identifier.
    requesters: Vec<Option<Requester>>,
    /// Replies waiting at the controllers' reply ports. They wait here (not
    /// in the source's FIFO queue) so the controller can inject the
    /// highest-priority flow's reply first.
    pub(crate) replies: PendingReplies,
    /// For each node: the source index that injects that node's replies,
    /// if the node hosts a source (the lowest-indexed one).
    reply_ports: Vec<Option<usize>>,
    /// Per-node DRAM-backed controller, instantiated at install time for
    /// exactly the nodes some requester names as its controller. All `None`
    /// without a DRAM model: controllers then answer instantly.
    controllers: Vec<Option<MemoryController>>,
}

impl ClosedLoopState {
    /// Consumes the spec: schedules and weights move into the components
    /// instead of being copied next to a spec the caller then drops.
    pub(crate) fn new(spec: ClosedLoopSpec, net: &NetworkSpec) -> Self {
        // Node identifiers are labels: size the per-node tables to cover the
        // largest id any source or sink declares, not just the router count.
        let ports = net.sources.iter().map(|s| s.node);
        let num_nodes = ports
            .chain(net.sinks.iter().map(|s| s.node))
            .map(|node| node.index() + 1)
            .max()
            .unwrap_or(0)
            .max(net.routers.len());
        let mut reply_ports: Vec<Option<usize>> = vec![None; num_nodes];
        for (si, source) in net.sources.iter().enumerate() {
            if let Some(port @ None) = reply_ports.get_mut(source.node.index()) {
                *port = Some(si);
            }
        }
        let num_flows = spec.requesters.len();
        let weights = if spec.flow_weights.is_empty() {
            vec![1; num_flows]
        } else {
            spec.flow_weights
        };
        let mut controllers: Vec<Option<MemoryController>> = (0..num_nodes).map(|_| None).collect();
        if let Some(dram) = spec.dram {
            for requester in spec.requesters.iter().flatten() {
                if let Some(mc @ None) = controllers.get_mut(requester.mc.index()) {
                    *mc = Some(MemoryController::new(requester.mc, dram, weights.clone()));
                }
            }
        }
        // An empty workload has no schedule for any flow.
        let mut schedules = spec.phases.schedules.into_iter();
        let requesters = spec.requesters.iter().enumerate().map(|(flow, r)| {
            let schedule = schedules.next().unwrap_or_default();
            r.map(|r| {
                Requester::new(
                    FlowId(flow as u16),
                    r,
                    schedule,
                    spec.retry,
                    spec.dram.is_some(),
                )
            })
        });
        ClosedLoopState {
            requesters: requesters.collect(),
            replies: PendingReplies::new(num_flows, net.sources.len()),
            reply_ports,
            controllers,
        }
    }

    /// The requester of `flow`, if it has one.
    // taqos-lint: hot
    pub(crate) fn requester_mut(&mut self, flow: FlowId) -> Option<&mut Requester> {
        self.requesters.get_mut(flow.index())?.as_mut()
    }

    /// The DRAM-backed controller at `node`, if there is one.
    // taqos-lint: hot
    pub(crate) fn controller_mut(&mut self, node: usize) -> Option<&mut MemoryController> {
        self.controllers.get_mut(node)?.as_mut()
    }

    /// Every requester's flow index and memory controller node.
    pub(crate) fn requester_controllers(&self) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        let requesters = self.requesters.iter().enumerate();
        requesters.filter_map(|(flow, r)| Some((flow, r.as_ref()?.controller())))
    }

    /// Source index injecting the replies of the controller at `node`.
    pub(crate) fn reply_port(&self, node: NodeId) -> Option<usize> {
        *self.reply_ports.get(node.index())?
    }

    /// Requests still holding a window slot, per flow (0 without a
    /// requester).
    pub(crate) fn requests_in_flight(&self) -> impl Iterator<Item = u64> + '_ {
        let outstanding = |r: &Requester| r.outstanding() as u64;
        self.requesters
            .iter()
            .map(move |r| r.as_ref().map_or(0, outstanding))
    }

    /// Whether every requester has spent its budget and seen all replies,
    /// and every controller is drained. An unbounded requester never
    /// completes — bound such runs in time with the open-loop driver phases
    /// instead of `run_closed`.
    pub(crate) fn is_complete(&self) -> bool {
        self.requesters.iter().flatten().all(Requester::is_complete)
            && self
                .controllers
                .iter()
                .flatten()
                .all(MemoryController::is_drained)
    }

    /// Flushes every controller's virtual clocks (called at frame rollover,
    /// mirroring the fabric's bandwidth-counter flush).
    pub(crate) fn flush_vclocks(&mut self) {
        for mc in self.controllers.iter_mut().flatten() {
            mc.flush_vclocks();
        }
    }

    /// Reprograms every controller's per-flow rate weights from new relative
    /// rates. The engine calls this only at frame rollover (together with
    /// the vclock flush).
    pub(crate) fn reprogram_weights(&mut self, rates: &[f64]) {
        for mc in self.controllers.iter_mut().flatten() {
            mc.set_weights(rates.iter().copied().map(rate_weight));
        }
    }

    /// A request-class `packet` was delivered into slot `slot` of `sink` at
    /// `node`. Only a requester flow's request arriving at that flow's own
    /// controller is answered: at once by an instant controller, through
    /// [`MemoryController::offer`] by a DRAM-backed one.
    // taqos-lint: hot
    pub(crate) fn request_arrived(
        &mut self,
        now: Cycle,
        node: NodeId,
        packet: &Packet,
        sink: usize,
        slot: VcId,
        stats: &mut NetStats,
    ) -> Arrival {
        let Some(reply_len) = self
            .requester_mut(packet.flow)
            .and_then(|r| r.answered_at(node))
        else {
            return Arrival::Ordinary;
        };
        let request = McRequest {
            flow: packet.flow,
            requester: packet.src,
            // A retried request carries the logical birth of its original
            // send: round trips are anchored there, so retry latency shows
            // up in the measured round-trip time. Fresh requests anchor at
            // their packet birth.
            birth: packet.request_birth.unwrap_or(packet.birth),
            reply_len,
            // A requester under a DRAM model stamps a line on every request.
            line: packet.dram_line.unwrap_or_default(),
            arrived: now,
            packet: packet.id,
            hops: packet.column_hops(),
            len_flits: packet.len_flits,
            req_seq: packet.req_seq,
        };
        let Some(mc) = self.controller_mut(node.index()) else {
            return Arrival::Answered(request);
        };
        debug_assert!(packet.dram_line.is_some(), "DRAM requests carry a line");
        Arrival::Offered {
            offer: mc.offer(request, sink, slot, stats),
            deferred: mc.defers_delivery(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_registers_requesters() {
        let spec = ClosedLoopSpec::new(4)
            .with_requester(FlowId(1), RequesterSpec::paper(NodeId(3), 8))
            .with_requester(FlowId(2), RequesterSpec::paper(NodeId(3), 8));
        assert_eq!(spec.active_requesters(), 2);
        assert!(spec.requesters[0].is_none());
        assert_eq!(spec.requesters[1].unwrap().mlp, 8);
    }
}
