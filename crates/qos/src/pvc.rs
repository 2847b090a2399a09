//! Preemptive Virtual Clock (PVC).
//!
//! PVC is the quality-of-service mechanism adopted by the paper for the
//! QOS-enabled shared region (originally proposed by Grot, Keckler and Mutlu
//! at MICRO 2009). It provides fairness and rate guarantees without per-flow
//! queuing:
//!
//! * every router tracks each flow's **bandwidth consumption**, scaled by the
//!   flow's assigned rate of service, to obtain packet priorities (evolved
//!   from the Virtual Clock scheme);
//! * bandwidth counters are flushed every **frame** (50 K cycles in the
//!   paper), bounding the influence of past behaviour and setting the
//!   granularity of guarantees;
//! * because buffers are not partitioned per flow, a low-priority packet can
//!   block a higher-priority one (**priority inversion**); PVC resolves this
//!   by **preempting** (discarding) the lower-priority packet, which is then
//!   retransmitted by its source using a per-source window and a dedicated
//!   ACK network;
//! * the first *N* flits a flow sends in a frame — where *N* is derived from
//!   the flow's rate and the frame length — are **non-preemptable**
//!   (the reserved quota), which throttles preemptions for rate-compliant
//!   traffic; one virtual channel per network port is likewise reserved for
//!   such traffic.

use crate::rates::RateAllocation;
use serde::{Deserialize, Serialize};
use taqos_netsim::qos::{QosPolicy, RouterQos};
use taqos_netsim::spec::RouterSpec;
use taqos_netsim::{Cycle, FlowId, PacketId};

/// Scaling factor applied to bandwidth counters before dividing by the rate,
/// so priorities remain integers with sufficient resolution.
const PRIORITY_SCALE: f64 = 1024.0;

/// Configuration of the Preemptive Virtual Clock policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PvcConfig {
    /// Frame length in cycles between bandwidth-counter flushes.
    pub frame_len: Cycle,
    /// Whether preemption (priority-inversion resolution by discarding) is
    /// enabled. Disabling it turns PVC into a plain virtual-clock prioritiser
    /// and is used for ablation studies.
    pub preemption: bool,
    /// Fraction of each flow's per-frame fair share that is sent as
    /// non-preemptable (reserved) traffic. `1.0` reproduces the paper's
    /// configuration; `0.0` disables the reservation mechanism.
    pub reserved_fraction: f64,
}

impl Default for PvcConfig {
    fn default() -> Self {
        PvcConfig {
            frame_len: 50_000,
            preemption: true,
            reserved_fraction: 1.0,
        }
    }
}

impl PvcConfig {
    /// The paper's configuration: 50 K-cycle frames, preemption enabled,
    /// full reserved quota.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A configuration with preemption disabled (ablation).
    pub fn without_preemption() -> Self {
        PvcConfig {
            preemption: false,
            ..Self::default()
        }
    }
}

/// The Preemptive Virtual Clock QOS policy.
#[derive(Debug, Clone)]
pub struct PvcPolicy {
    config: PvcConfig,
    rates: RateAllocation,
}

impl PvcPolicy {
    /// Creates a PVC policy with the given configuration and per-flow rates.
    pub fn new(config: PvcConfig, rates: RateAllocation) -> Self {
        PvcPolicy { config, rates }
    }

    /// Creates the paper's configuration with equal rates for `num_flows`
    /// flows.
    pub fn equal_rates(num_flows: usize) -> Self {
        PvcPolicy::new(PvcConfig::paper(), RateAllocation::equal(num_flows))
    }

    /// The policy configuration.
    pub fn config(&self) -> &PvcConfig {
        &self.config
    }

    /// The per-flow rate allocation.
    pub fn rates(&self) -> &RateAllocation {
        &self.rates
    }
}

impl QosPolicy for PvcPolicy {
    fn name(&self) -> &str {
        "pvc"
    }

    fn router_qos(&self, _spec: &RouterSpec, num_flows: usize) -> Box<dyn RouterQos> {
        Box::new(PvcRouterQos::new(self.rates.clone(), num_flows))
    }

    fn frame_len(&self) -> Option<Cycle> {
        Some(self.config.frame_len)
    }

    fn preemption_enabled(&self) -> bool {
        self.config.preemption
    }

    fn reserved_quota(&self, flow: FlowId) -> Option<u64> {
        if self.config.reserved_fraction <= 0.0 {
            return None;
        }
        Some(
            self.rates
                .reserved_quota(flow, self.config.frame_len, self.config.reserved_fraction),
        )
    }

    fn reprogram_rates(&mut self, rates: &[f64]) {
        // The engine validated the rates when they were scheduled (finite,
        // positive, one per flow), so the asserting constructor cannot fire.
        self.rates = RateAllocation::from_rates(rates.to_vec());
    }
}

/// Per-router PVC state: one bandwidth counter per flow.
#[derive(Debug, Clone)]
pub struct PvcRouterQos {
    rates: RateAllocation,
    consumed_flits: Vec<u64>,
}

impl PvcRouterQos {
    /// Creates per-router state for `num_flows` flows.
    pub fn new(rates: RateAllocation, num_flows: usize) -> Self {
        PvcRouterQos {
            rates,
            consumed_flits: vec![0; num_flows],
        }
    }

    /// Bandwidth consumed by `flow` since the last frame flush, in flits.
    pub fn consumed(&self, flow: FlowId) -> u64 {
        self.consumed_flits.get(flow.index()).copied().unwrap_or(0)
    }
}

impl RouterQos for PvcRouterQos {
    fn priority(&self, flow: FlowId) -> u64 {
        let consumed = self.consumed(flow) as f64;
        let rate = self.rates.rate(flow);
        (consumed * PRIORITY_SCALE / rate).round() as u64
    }

    fn on_packet_forwarded(&mut self, flow: FlowId, flits: u32) {
        if let Some(counter) = self.consumed_flits.get_mut(flow.index()) {
            *counter += u64::from(flits);
        }
    }

    fn on_frame_rollover(&mut self) {
        for counter in &mut self.consumed_flits {
            *counter = 0;
        }
    }

    fn reprogram_rates(&mut self, rates: &[f64]) {
        // Only ever called at a frame rollover (immediately before the
        // counter flush), so priorities never move mid-frame.
        self.rates = RateAllocation::from_rates(rates.to_vec());
    }

    fn select_victim(
        &self,
        contender: FlowId,
        candidates: &[(PacketId, FlowId, bool)],
    ) -> Option<PacketId> {
        let contender_priority = self.priority(contender);
        candidates
            .iter()
            .filter(|(_, flow, reserved)| !reserved && *flow != contender)
            .map(|&(packet, flow, _)| (packet, self.priority(flow)))
            .filter(|&(_, priority)| priority > contender_priority)
            .max_by_key(|&(packet, priority)| (priority, packet))
            .map(|(packet, _)| packet)
    }

    fn select_victim_prioritized(
        &self,
        contender: FlowId,
        contender_priority: u64,
        candidates: &[(PacketId, FlowId, bool, u64)],
    ) -> Option<PacketId> {
        // Same decision as `select_victim`, with the priority computations
        // hoisted to the caller (PVC's choice is a pure function of them).
        candidates
            .iter()
            .filter(|(_, flow, reserved, _)| !reserved && *flow != contender)
            .filter(|&&(_, _, _, priority)| priority > contender_priority)
            .max_by_key(|&&(packet, _, _, priority)| (priority, packet))
            .map(|&(packet, _, _, _)| packet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_spec() -> RouterSpec {
        use taqos_netsim::spec::{InputPortSpec, OutputPortSpec, RouteTable, VcConfig};
        use taqos_netsim::NodeId;
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
    fn paper_configuration_matches_table_1() {
        let policy = PvcPolicy::equal_rates(64);
        assert_eq!(policy.name(), "pvc");
        assert_eq!(policy.frame_len(), Some(50_000));
        assert!(policy.preemption_enabled());
        // 1/64 of the 50 000-cycle frame.
        assert_eq!(policy.reserved_quota(FlowId(0)), Some(781));
    }

    #[test]
    fn priority_grows_with_consumption_and_shrinks_with_rate() {
        let rates = RateAllocation::from_rates(vec![0.25, 0.75]);
        let mut qos = PvcRouterQos::new(rates, 2);
        assert_eq!(qos.priority(FlowId(0)), 0);
        qos.on_packet_forwarded(FlowId(0), 4);
        qos.on_packet_forwarded(FlowId(1), 4);
        // Same consumption, higher rate => lower (better) priority value.
        assert!(qos.priority(FlowId(1)) < qos.priority(FlowId(0)));
        assert_eq!(qos.consumed(FlowId(0)), 4);
    }

    #[test]
    fn frame_rollover_clears_counters() {
        let mut qos = PvcRouterQos::new(RateAllocation::equal(2), 2);
        qos.on_packet_forwarded(FlowId(0), 100);
        assert!(qos.priority(FlowId(0)) > 0);
        qos.on_frame_rollover();
        assert_eq!(qos.priority(FlowId(0)), 0);
    }

    #[test]
    fn victim_selection_prefers_most_overserved_flow() {
        let mut qos = PvcRouterQos::new(RateAllocation::equal(4), 4);
        qos.on_packet_forwarded(FlowId(1), 10);
        qos.on_packet_forwarded(FlowId(2), 50);
        qos.on_packet_forwarded(FlowId(3), 30);
        let candidates = vec![
            (PacketId(1), FlowId(1), false),
            (PacketId(2), FlowId(2), false),
            (PacketId(3), FlowId(3), false),
        ];
        // Contender flow 0 has consumed nothing: everyone is preemptable,
        // and the most over-served flow (2) is picked.
        assert_eq!(qos.select_victim(FlowId(0), &candidates), Some(PacketId(2)));
    }

    #[test]
    fn reserved_packets_are_never_preempted() {
        let mut qos = PvcRouterQos::new(RateAllocation::equal(2), 2);
        qos.on_packet_forwarded(FlowId(1), 100);
        let candidates = vec![(PacketId(1), FlowId(1), true)];
        assert_eq!(qos.select_victim(FlowId(0), &candidates), None);
    }

    #[test]
    fn no_victim_when_contender_is_not_higher_priority() {
        let mut qos = PvcRouterQos::new(RateAllocation::equal(2), 2);
        qos.on_packet_forwarded(FlowId(0), 100);
        qos.on_packet_forwarded(FlowId(1), 10);
        // Contender 0 is more over-served than candidate 1: no inversion.
        let candidates = vec![(PacketId(1), FlowId(1), false)];
        assert_eq!(qos.select_victim(FlowId(0), &candidates), None);
    }

    #[test]
    fn contender_never_preempts_itself() {
        let mut qos = PvcRouterQos::new(RateAllocation::equal(2), 2);
        qos.on_packet_forwarded(FlowId(0), 100);
        let candidates = vec![(PacketId(1), FlowId(0), false)];
        assert_eq!(qos.select_victim(FlowId(0), &candidates), None);
    }

    #[test]
    fn disabled_reservation_reports_no_quota() {
        let config = PvcConfig {
            reserved_fraction: 0.0,
            ..PvcConfig::paper()
        };
        let policy = PvcPolicy::new(config, RateAllocation::equal(4));
        assert_eq!(policy.reserved_quota(FlowId(0)), None);
    }

    #[test]
    fn ablation_config_disables_preemption() {
        let policy = PvcPolicy::new(PvcConfig::without_preemption(), RateAllocation::equal(4));
        assert!(!policy.preemption_enabled());
        // Router state is still created normally.
        let qos = policy.router_qos(&dummy_spec(), 4);
        assert_eq!(qos.priority(FlowId(0)), 0);
    }
}
