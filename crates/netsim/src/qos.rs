//! Quality-of-service policy interface.
//!
//! Routers delegate all QOS decisions — packet prioritisation at virtual
//! channel allocation, preemption victim selection, per-flow bandwidth
//! accounting, and frame management — to a [`QosPolicy`]. The substrate ships
//! a trivial [`FifoPolicy`] (locally fair round-robin with no guarantees);
//! Preemptive Virtual Clock and the ideal per-flow-queued reference live in
//! the `taqos-qos` crate.

use crate::ids::{Cycle, FlowId, PacketId};
use crate::spec::RouterSpec;

/// How far above 1 the rates of a programme may sum and still be accepted:
/// rates are fractions of link bandwidth, and normalising weights by their
/// sum rounds to a total a few ulps off 1 in either direction. Anything
/// further above 1 oversubscribes the link.
pub const RATE_SUM_TOLERANCE: f64 = 1e-9;

/// Per-router QOS state and decision logic.
///
/// One instance exists per router; it owns whatever per-flow state the policy
/// requires (bandwidth counters for Preemptive Virtual Clock).
pub trait RouterQos: Send {
    /// Priority of a flow for arbitration. Lower values win. Policies without
    /// prioritisation return a constant; ties are broken round-robin by the
    /// arbiter.
    ///
    /// **Stability contract:** the value returned for a flow must only
    /// change as a result of [`Self::on_packet_forwarded`] for *that flow*
    /// or [`Self::on_frame_rollover`]. The simulator's default (optimized)
    /// engine memoises priorities between those two events and skips
    /// re-arbitration of blocked outputs whose inputs did not change;
    /// a policy whose priorities move at other times (e.g. with simulated
    /// time, or across flows on a forward) must be run with
    /// [`crate::config::EngineKind::Reference`], which re-queries every
    /// cycle.
    fn priority(&self, flow: FlowId) -> u64;

    /// Called when a packet of `flow` with `flits` flits wins arbitration and
    /// is forwarded through this router.
    fn on_packet_forwarded(&mut self, flow: FlowId, flits: u32);

    /// Called at every frame boundary (bandwidth counters are flushed).
    fn on_frame_rollover(&mut self);

    /// Selects a preemption victim.
    ///
    /// `contender` is the flow of the packet that detected priority inversion
    /// (it holds a higher dynamic priority but cannot obtain a buffer);
    /// `candidates` lists packets currently resident in the contended input
    /// port, as `(packet, flow, reserved)` tuples. Reserved (rate-compliant)
    /// packets are never preempted. Returns the packet to discard, or `None`
    /// if no candidate has strictly lower priority than the contender.
    fn select_victim(
        &self,
        contender: FlowId,
        candidates: &[(PacketId, FlowId, bool)],
    ) -> Option<PacketId>;

    /// Variant of [`Self::select_victim`] where the caller supplies each
    /// candidate's current priority (the value [`Self::priority`] would
    /// return) as the fourth tuple element, plus the contender's. The
    /// simulator's optimized engine memoises priorities per router and calls
    /// this to spare policies from recomputing them on every probe, so it
    /// must not allocate: it runs on every probe under saturation. It must
    /// pick the same victim as `select_victim` (engine equivalence).
    fn select_victim_prioritized(
        &self,
        contender: FlowId,
        contender_priority: u64,
        candidates: &[(PacketId, FlowId, bool, u64)],
    ) -> Option<PacketId>;

    /// Replaces the policy's per-flow relative service rates (one positive
    /// value per flow) with a new programme. The engine calls this **only at
    /// a frame rollover**, immediately before [`Self::on_frame_rollover`], so
    /// the priority stability contract is preserved: priorities move at a
    /// rollover either way. Stateless policies ignore it.
    fn reprogram_rates(&mut self, rates: &[f64]) {
        let _ = rates;
    }
}

/// A quality-of-service policy, i.e. a factory for per-router QOS state plus
/// the network-wide knobs of the scheme.
pub trait QosPolicy: Send {
    /// Short policy name used in reports (`"pvc"`, `"per-flow"`, `"fifo"`).
    fn name(&self) -> &str;

    /// Creates the per-router state for a router described by `spec`, given
    /// the total number of flows in the network.
    fn router_qos(&self, spec: &RouterSpec, num_flows: usize) -> Box<dyn RouterQos>;

    /// Frame length in cycles, if the policy uses frames.
    fn frame_len(&self) -> Option<Cycle> {
        None
    }

    /// Whether routers may resolve priority inversion by preempting buffered
    /// packets.
    fn preemption_enabled(&self) -> bool {
        false
    }

    /// Number of flits a flow may inject per frame as non-preemptable,
    /// rate-compliant (reserved) traffic; `None` disables the reservation
    /// mechanism.
    fn reserved_quota(&self, flow: FlowId) -> Option<u64> {
        let _ = flow;
        None
    }

    /// Ideal per-flow-queued policies report `true`: downstream buffer space
    /// is never a constraint (each flow conceptually owns a private queue),
    /// only link bandwidth limits progress. Used as the preemption-free
    /// reference in slowdown measurements.
    fn unlimited_buffering(&self) -> bool {
        false
    }

    /// Replaces the network-wide per-flow rate programme (one positive value
    /// per flow), so subsequent [`Self::reserved_quota`] answers reflect the
    /// new rates. Applied by the engine only at frame rollovers; policies
    /// without rates ignore it.
    fn reprogram_rates(&mut self, rates: &[f64]) {
        let _ = rates;
    }
}

/// Per-router state of the [`FifoPolicy`]: no state at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoRouterQos;

impl RouterQos for FifoRouterQos {
    fn priority(&self, _flow: FlowId) -> u64 {
        0
    }

    fn on_packet_forwarded(&mut self, _flow: FlowId, _flits: u32) {}

    fn on_frame_rollover(&mut self) {}

    fn select_victim(
        &self,
        _contender: FlowId,
        _candidates: &[(PacketId, FlowId, bool)],
    ) -> Option<PacketId> {
        None
    }

    fn select_victim_prioritized(
        &self,
        _contender: FlowId,
        _contender_priority: u64,
        _candidates: &[(PacketId, FlowId, bool, u64)],
    ) -> Option<PacketId> {
        None
    }
}

/// Baseline policy without QOS support: round-robin arbitration, no flow
/// state, no preemption, no reservations.
///
/// This models the routers outside the QOS-protected shared region and serves
/// as the "no QOS" comparison point in fairness demonstrations.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoPolicy;

impl FifoPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        FifoPolicy
    }
}

impl QosPolicy for FifoPolicy {
    fn name(&self) -> &str {
        "fifo"
    }

    fn router_qos(&self, _spec: &RouterSpec, _num_flows: usize) -> Box<dyn RouterQos> {
        Box::new(FifoRouterQos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::spec::{InputPortSpec, OutputPortSpec, RouteTable, RouterSpec, VcConfig};

    fn dummy_router_spec() -> RouterSpec {
        RouterSpec {
            node: NodeId(0),
            inputs: vec![InputPortSpec::injection("i", VcConfig::new(1, 4), 0)],
            outputs: vec![OutputPortSpec::ejection("e", 0, 0)],
            route_table: RouteTable::default(),
            va_latency: 1,
            xt_latency: 1,
        }
    }

    #[test]
    fn fifo_policy_has_no_guarantees() {
        let policy = FifoPolicy::new();
        assert_eq!(policy.name(), "fifo");
        assert!(policy.frame_len().is_none());
        assert!(!policy.preemption_enabled());
        assert!(policy.reserved_quota(FlowId(0)).is_none());
        assert!(!policy.unlimited_buffering());
    }

    #[test]
    fn fifo_router_state_is_constant_priority() {
        let policy = FifoPolicy::new();
        let mut qos = policy.router_qos(&dummy_router_spec(), 4);
        assert_eq!(qos.priority(FlowId(0)), qos.priority(FlowId(3)));
        qos.on_packet_forwarded(FlowId(0), 4);
        qos.on_frame_rollover();
        assert_eq!(qos.priority(FlowId(0)), 0);
        assert!(qos
            .select_victim(FlowId(0), &[(PacketId(1), FlowId(1), false)])
            .is_none());
    }

    #[test]
    fn policy_trait_is_object_safe() {
        let policy: Box<dyn QosPolicy> = Box::new(FifoPolicy::new());
        assert_eq!(policy.name(), "fifo");
    }
}
