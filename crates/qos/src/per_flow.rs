//! Ideal per-flow-queued reference policy.
//!
//! Classic network QOS schemes (Virtual Clock, Weighted Fair Queueing,
//! Rotating Combined Queueing) isolate flows by giving each its own queue at
//! every router, which makes preemption unnecessary but carries buffer and
//! scheduling costs that are unattractive on chip. The paper uses
//! *preemption-free execution in the same topology with per-flow queuing* as
//! the reference point when quantifying the slowdown caused by PVC's
//! preemptions (Figure 6).
//!
//! This module models that reference: buffer space is never a constraint
//! (each flow conceptually owns a private queue of unbounded depth), packets
//! are scheduled by the same rate-scaled virtual-clock priority as PVC, and
//! preemption never occurs. Only link bandwidth and router pipeline latency
//! limit progress, so a workload's completion time under this policy is the
//! preemption-free baseline.

use crate::pvc::PvcRouterQos;
use crate::rates::RateAllocation;
use serde::{Deserialize, Serialize};
use taqos_netsim::qos::{QosPolicy, RouterQos};
use taqos_netsim::spec::RouterSpec;
use taqos_netsim::Cycle;

/// Configuration of the ideal per-flow-queued policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerFlowConfig {
    /// Frame length in cycles between bandwidth-counter flushes (kept equal
    /// to PVC's frame so priorities evolve identically).
    pub(crate) frame_len: Cycle,
}

impl Default for PerFlowConfig {
    fn default() -> Self {
        PerFlowConfig { frame_len: 50_000 }
    }
}

/// Ideal per-flow-queued QOS policy (preemption-free reference).
#[derive(Debug, Clone)]
pub struct PerFlowQueuedPolicy {
    config: PerFlowConfig,
    rates: RateAllocation,
}

impl PerFlowQueuedPolicy {
    /// Creates the policy with the given configuration and rates.
    pub(crate) fn new(config: PerFlowConfig, rates: RateAllocation) -> Self {
        PerFlowQueuedPolicy { config, rates }
    }

    /// Creates the policy with equal rates for `num_flows` flows and the
    /// default frame length.
    pub fn equal_rates(num_flows: usize) -> Self {
        PerFlowQueuedPolicy::new(PerFlowConfig::default(), RateAllocation::equal(num_flows))
    }
}

impl QosPolicy for PerFlowQueuedPolicy {
    fn name(&self) -> &str {
        "per-flow"
    }

    fn router_qos(&self, _spec: &RouterSpec, num_flows: usize) -> Box<dyn RouterQos> {
        // Same prioritisation as PVC; preemption is disabled at the policy
        // level, so the victim-selection path is never exercised.
        Box::new(PvcRouterQos::new(self.rates.clone(), num_flows))
    }

    fn frame_len(&self) -> Option<Cycle> {
        Some(self.config.frame_len)
    }

    fn preemption_enabled(&self) -> bool {
        false
    }

    fn unlimited_buffering(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taqos_netsim::FlowId;

    #[test]
    fn policy_is_preemption_free_with_unlimited_buffering() {
        let policy = PerFlowQueuedPolicy::equal_rates(8);
        assert_eq!(policy.name(), "per-flow");
        assert!(!policy.preemption_enabled());
        assert!(policy.unlimited_buffering());
        assert_eq!(policy.frame_len(), Some(50_000));
        assert!(policy.reserved_quota(FlowId(0)).is_none());
        assert_eq!(policy.rates.len(), 8);
    }
}
