//! Node-scoped QOS: a policy overlay that confines QOS hardware to a set of
//! routers.
//!
//! The topology-aware architecture's central cost argument is that QOS
//! support (flow-state tables, preemption logic, reserved virtual channels)
//! is needed **only inside the shared-resource columns**; every other router
//! of the chip stays QOS-free. [`ScopedQosPolicy`] expresses exactly that on
//! the simulator side: it wraps an inner policy (normally
//! [`crate::pvc::PvcPolicy`]) and instantiates the inner per-router state
//! only for routers whose node is in the QOS set — all other routers get the
//! stateless round-robin behaviour of an unprotected router.
//!
//! Network-wide knobs (frame length, reserved injection quotas, preemption
//! enablement) delegate to the inner policy: sources and frame rollovers are
//! chip-global in the paper too, while preemption can only ever trigger at a
//! QOS router because unprotected routers never select a victim.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use taqos_netsim::qos::{FifoRouterQos, QosPolicy, RouterQos};
use taqos_netsim::spec::RouterSpec;
use taqos_netsim::{Cycle, FlowId, NodeId};

/// A QOS policy applied only at a set of protected routers; every other
/// router behaves like a QOS-free round-robin router.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScopedQosPolicy<P> {
    inner: P,
    qos_nodes: BTreeSet<NodeId>,
    name: String,
}

impl<P: QosPolicy> ScopedQosPolicy<P> {
    /// Wraps `inner`, enabling it only at the routers in `qos_nodes`.
    pub fn new(inner: P, qos_nodes: BTreeSet<NodeId>) -> Self {
        let name = format!("{}@columns", inner.name());
        ScopedQosPolicy {
            inner,
            qos_nodes,
            name,
        }
    }
}

impl<P: QosPolicy> QosPolicy for ScopedQosPolicy<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn router_qos(&self, spec: &RouterSpec, num_flows: usize) -> Box<dyn RouterQos> {
        if self.qos_nodes.contains(&spec.node) {
            self.inner.router_qos(spec, num_flows)
        } else {
            Box::new(FifoRouterQos)
        }
    }

    fn frame_len(&self) -> Option<Cycle> {
        self.inner.frame_len()
    }

    fn preemption_enabled(&self) -> bool {
        self.inner.preemption_enabled()
    }

    fn reserved_quota(&self, flow: FlowId) -> Option<u64> {
        self.inner.reserved_quota(flow)
    }

    fn unlimited_buffering(&self) -> bool {
        self.inner.unlimited_buffering()
    }

    fn reprogram_rates(&mut self, rates: &[f64]) {
        self.inner.reprogram_rates(rates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pvc::PvcPolicy;
    use taqos_netsim::spec::{InputPortSpec, OutputPortSpec, RouteTable, VcConfig};
    use taqos_netsim::PacketId;

    fn router_spec(node: u16) -> RouterSpec {
        RouterSpec {
            node: NodeId(node),
            inputs: vec![InputPortSpec::injection("i", VcConfig::new(1, 4), 0)],
            outputs: vec![OutputPortSpec::ejection("e", 0, 0)],
            route_table: RouteTable::default(),
            va_latency: 1,
            xt_latency: 1,
        }
    }

    fn scoped() -> ScopedQosPolicy<PvcPolicy> {
        ScopedQosPolicy::new(
            PvcPolicy::equal_rates(4),
            [NodeId(1), NodeId(3)].into_iter().collect(),
        )
    }

    #[test]
    fn network_wide_knobs_delegate_to_the_inner_policy() {
        let policy = scoped();
        assert_eq!(policy.name(), "pvc@columns");
        assert_eq!(policy.frame_len(), Some(50_000));
        assert!(policy.preemption_enabled());
        assert!(policy.reserved_quota(FlowId(0)).is_some());
        assert!(!policy.unlimited_buffering());
        assert!(policy.qos_nodes.contains(&NodeId(1)));
        assert!(!policy.qos_nodes.contains(&NodeId(0)));
        assert_eq!(policy.qos_nodes.len(), 2);
        assert_eq!(policy.inner.name(), "pvc");
    }

    #[test]
    fn protected_routers_track_flow_state_and_others_do_not() {
        let policy = scoped();
        let mut protected = policy.router_qos(&router_spec(1), 4);
        let mut plain = policy.router_qos(&router_spec(0), 4);
        protected.on_packet_forwarded(FlowId(0), 8);
        plain.on_packet_forwarded(FlowId(0), 8);
        // The PVC router's priority moved; the FIFO router's is constant.
        assert!(protected.priority(FlowId(0)) > protected.priority(FlowId(1)));
        assert_eq!(plain.priority(FlowId(0)), plain.priority(FlowId(1)));
    }

    #[test]
    fn unprotected_routers_never_select_a_preemption_victim() {
        let policy = scoped();
        let mut plain = policy.router_qos(&router_spec(2), 4);
        plain.on_packet_forwarded(FlowId(1), 100);
        let candidates = vec![(PacketId(1), FlowId(1), false)];
        assert_eq!(plain.select_victim(FlowId(0), &candidates), None);
    }
}
