//! Adversarial preemption experiments (Figures 5 and 6).
//!
//! Both workloads are built on the hotspot pattern but activate only a subset
//! of injectors so that the reserved (rate-compliant) quota is exhausted
//! early in each frame and preemptions occur:
//!
//! * **Workload 1** — only the terminal injector of each node sends towards
//!   the hotspot, with equal priorities but widely different offered rates
//!   (5–20 %, averaging ≈14 % against a fair share of 12.5 %).
//! * **Workload 2** — all eight injectors of the node farthest from the
//!   hotspot plus one injector of the adjacent node send towards the hotspot,
//!   pressuring a single downstream MECS port and the destination output
//!   port.
//!
//! For each topology the experiment reports the fraction of packets that
//! experienced a preemption and the fraction of hop traversals wasted
//! (Figure 5), the slowdown relative to preemption-free execution with ideal
//! per-flow queuing, and the deviation of per-flow throughput from the
//! max-min fair expectation (Figure 6).

use crate::shared_region::SharedRegionSim;
use serde::{Deserialize, Serialize};
use taqos_netsim::error::SimError;
use taqos_netsim::sim::run_closed;
use taqos_netsim::{Cycle, NodeId};
use taqos_qos::fairness::{max_min_fair_shares, DeviationSummary};
use taqos_qos::per_flow::PerFlowQueuedPolicy;
use taqos_qos::pvc::PvcPolicy;
use taqos_topology::column::{ColumnConfig, ColumnTopology};
use taqos_traffic::injection::PacketSizeMix;
use taqos_traffic::workloads::{self, GeneratorSet, WORKLOAD1_RATES};

/// Which adversarial workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdversarialWorkload {
    /// Terminal injectors of all eight nodes, rates 5–20 %.
    Workload1,
    /// All injectors of the farthest node plus one at the adjacent node.
    Workload2,
}

impl AdversarialWorkload {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            AdversarialWorkload::Workload1 => "workload1",
            AdversarialWorkload::Workload2 => "workload2",
        }
    }
}

/// Configuration of the adversarial experiments.
#[derive(Debug, Clone)]
pub struct AdversarialConfig {
    /// Column configuration.
    pub column: ColumnConfig,
    /// Hotspot node (node 0 in the paper).
    pub hotspot: NodeId,
    /// Number of cycles' worth of traffic each active source offers (its
    /// packet budget is `rate * budget_cycles` flits).
    pub budget_cycles: u64,
    /// Packet size mix.
    pub mix: PacketSizeMix,
    /// Offered rate of each active injector in Workload 2.
    pub workload2_rate: f64,
    /// Simulation gives up after this many cycles.
    pub max_cycles: Cycle,
    /// Random seed.
    pub seed: u64,
}

impl Default for AdversarialConfig {
    fn default() -> Self {
        AdversarialConfig {
            column: ColumnConfig::paper(),
            hotspot: NodeId(0),
            budget_cycles: 30_000,
            mix: PacketSizeMix::paper(),
            workload2_rate: 0.14,
            max_cycles: 2_000_000,
            seed: 0xADF,
        }
    }
}

impl AdversarialConfig {
    /// A shorter configuration for tests and smoke runs.
    pub fn quick() -> Self {
        AdversarialConfig {
            budget_cycles: 6_000,
            max_cycles: 400_000,
            ..Self::default()
        }
    }

    fn generators(&self, workload: AdversarialWorkload) -> GeneratorSet {
        match workload {
            AdversarialWorkload::Workload1 => workloads::workload1(
                &self.column,
                &WORKLOAD1_RATES,
                self.mix,
                self.hotspot,
                self.budget_cycles,
                self.seed,
            ),
            AdversarialWorkload::Workload2 => workloads::workload2(
                &self.column,
                self.workload2_rate,
                self.mix,
                self.hotspot,
                self.budget_cycles,
                self.seed,
            ),
        }
    }

    fn demands(&self, workload: AdversarialWorkload) -> Vec<f64> {
        match workload {
            AdversarialWorkload::Workload1 => {
                workloads::workload1_demands(&self.column, &WORKLOAD1_RATES)
            }
            AdversarialWorkload::Workload2 => {
                workloads::workload2_demands(&self.column, self.workload2_rate, self.hotspot)
            }
        }
    }
}

/// Result of one adversarial run (one bar group of Figures 5 and 6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PreemptionImpact {
    /// Topology under test.
    pub topology: ColumnTopology,
    /// Fraction of packets that experienced a preemption.
    pub preempted_packet_fraction: f64,
    /// Fraction of hop traversals wasted by preemptions.
    pub wasted_hop_fraction: f64,
    /// Completion time under Preemptive Virtual Clock, in cycles.
    pub completion_cycles: u64,
    /// Completion time under preemption-free per-flow queuing, in cycles.
    pub baseline_completion_cycles: u64,
    /// Slowdown of PVC relative to the preemption-free baseline
    /// (`completion / baseline - 1`).
    pub slowdown: f64,
    /// Average signed relative deviation of per-flow throughput from the
    /// max-min fair expectation, over the active flows.
    pub avg_deviation: f64,
    /// Most negative per-flow deviation.
    pub min_deviation: f64,
    /// Most positive per-flow deviation.
    pub max_deviation: f64,
}

/// Runs one adversarial experiment for one topology.
///
/// # Errors
///
/// Returns an error if either the PVC run or the per-flow-queued baseline
/// fails to complete within the configured cycle budget.
pub fn preemption_impact(
    topology: ColumnTopology,
    workload: AdversarialWorkload,
    config: &AdversarialConfig,
) -> Result<PreemptionImpact, SimError> {
    let sim = SharedRegionSim::new(topology).with_column(config.column);
    let num_flows = config.column.num_flows();

    let window = Some((0, config.budget_cycles));
    // Preemptive Virtual Clock run.
    let pvc = sim.build(
        Box::new(PvcPolicy::equal_rates(num_flows)),
        config.generators(workload),
    )?;
    let pvc_stats = run_closed(pvc, window, config.max_cycles)?;
    // Preemption-free reference: same workload, ideal per-flow queuing.
    let baseline = sim.build(
        Box::new(PerFlowQueuedPolicy::equal_rates(num_flows)),
        config.generators(workload),
    )?;
    let baseline_stats = run_closed(baseline, window, config.max_cycles)?;

    let completion = pvc_stats.completion_cycle.unwrap_or(pvc_stats.cycles);
    let baseline_completion = baseline_stats
        .completion_cycle
        .unwrap_or(baseline_stats.cycles);
    let slowdown = if baseline_completion > 0 {
        completion as f64 / baseline_completion as f64 - 1.0
    } else {
        0.0
    };

    // Throughput deviation from the max-min fair expectation, measured over
    // the saturated window (the first `budget_cycles` cycles) and restricted
    // to the active flows. The contended capacity is taken from what the
    // preemption-free ideal actually delivers over the same window (ejection
    // pipelining makes it slightly less than one flit per cycle), so the
    // deviations isolate PVC's allocation quality from the ejection port's
    // utilisation.
    let demands = config.demands(workload);
    let window = config.budget_cycles as f64;
    let capacity = baseline_stats.measured_flits_per_flow().iter().sum::<u64>() as f64 / window;
    let shares = max_min_fair_shares(&demands, capacity.max(f64::MIN_POSITIVE));
    let measured = pvc_stats.measured_flits_per_flow();
    let mut observed = Vec::new();
    let mut expected = Vec::new();
    for (flow, &demand) in demands.iter().enumerate() {
        if demand > 0.0 {
            observed.push(measured[flow] as f64 / window);
            expected.push(shares[flow]);
        }
    }
    let deviation =
        DeviationSummary::from_observations(&observed, &expected).unwrap_or(DeviationSummary {
            average: 0.0,
            min: 0.0,
            max: 0.0,
        });

    Ok(PreemptionImpact {
        topology,
        preempted_packet_fraction: pvc_stats.preempted_packet_fraction(),
        wasted_hop_fraction: pvc_stats.wasted_hop_fraction(),
        completion_cycles: completion,
        baseline_completion_cycles: baseline_completion,
        slowdown,
        avg_deviation: deviation.average,
        min_deviation: deviation.min,
        max_deviation: deviation.max,
    })
}

/// Runs one adversarial workload across every topology (one whole figure).
///
/// # Errors
///
/// Returns the first simulation error encountered.
pub fn preemption_figure(
    workload: AdversarialWorkload,
    config: &AdversarialConfig,
) -> Result<Vec<PreemptionImpact>, SimError> {
    let results = crate::experiment::parallel_map(ColumnTopology::all().to_vec(), |topology| {
        preemption_impact(topology, workload, config)
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload1_completes_and_reports_consistent_metrics() {
        let config = AdversarialConfig::quick();
        let impact = preemption_impact(
            ColumnTopology::MeshX1,
            AdversarialWorkload::Workload1,
            &config,
        )
        .expect("workload completes");
        assert!(impact.completion_cycles > 0);
        assert!(impact.baseline_completion_cycles > 0);
        // The preemption-free baseline can never be slower than PVC by
        // construction of the metric.
        assert!(impact.slowdown > -0.5);
        assert!(impact.preempted_packet_fraction >= 0.0);
        assert!(impact.preempted_packet_fraction < 1.0);
        assert!(impact.wasted_hop_fraction <= impact.preempted_packet_fraction + 0.2);
    }

    #[test]
    fn workload1_triggers_preemptions_under_contention() {
        // With only eight active sources the reserved quota is exhausted
        // early in the frame and preemptions must occur on the baseline mesh.
        let config = AdversarialConfig::quick();
        let impact = preemption_impact(
            ColumnTopology::MeshX1,
            AdversarialWorkload::Workload1,
            &config,
        )
        .expect("workload completes");
        assert!(
            impact.preempted_packet_fraction > 0.0,
            "expected preemptions, got none"
        );
    }

    #[test]
    fn deviation_is_small_under_pvc() {
        let config = AdversarialConfig::quick();
        let impact =
            preemption_impact(ColumnTopology::Dps, AdversarialWorkload::Workload1, &config)
                .expect("workload completes");
        assert!(
            impact.avg_deviation.abs() < 0.25,
            "average deviation {} too large",
            impact.avg_deviation
        );
        assert!(impact.min_deviation <= impact.avg_deviation);
        assert!(impact.max_deviation >= impact.avg_deviation);
    }

    #[test]
    fn workload_names_are_stable() {
        assert_eq!(AdversarialWorkload::Workload1.name(), "workload1");
        assert_eq!(AdversarialWorkload::Workload2.name(), "workload2");
    }
}
