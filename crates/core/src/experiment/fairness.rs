//! Hotspot fairness experiment (Table 2).
//!
//! The terminal of node 0 acts as a hotspot to which every injector of the
//! column (including the injectors of node 0 itself) streams traffic. Without
//! QOS support, sources close to the hotspot grab a disproportionate share of
//! the ejection bandwidth and distant sources starve; with Preemptive Virtual
//! Clock every flow receives nearly its fair share. The experiment reports
//! the per-flow delivered throughput statistics of Table 2 (mean, minimum,
//! maximum, standard deviation) plus Jain's fairness index.

use crate::experiment::with_fixed_drain;
use crate::shared_region::SharedRegionSim;
use serde::{Deserialize, Serialize};
use taqos_netsim::qos::{FifoPolicy, QosPolicy};
use taqos_netsim::sim::run_open_loop;
use taqos_netsim::stats::ThroughputSummary;
use taqos_netsim::{Cycle, NodeId};
use taqos_qos::fairness::jain_index;
use taqos_qos::pvc::PvcPolicy;
use taqos_topology::column::{ColumnConfig, ColumnTopology};
use taqos_traffic::injection::PacketSizeMix;
use taqos_traffic::workloads;

/// QOS configuration under test in the fairness experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FairnessPolicy {
    /// Preemptive Virtual Clock with equal rates (the paper's configuration).
    Pvc,
    /// No QOS support: locally fair round-robin arbitration.
    NoQos,
}

/// Configuration of the hotspot fairness experiment.
#[derive(Debug, Clone)]
pub struct FairnessConfig {
    /// Column configuration.
    pub column: ColumnConfig,
    /// Node acting as the hotspot (node 0 in the paper).
    pub hotspot: NodeId,
    /// Offered rate per injector in flits per cycle. The paper drives the
    /// hotspot far into saturation; any rate well above `1/num_flows`
    /// saturates the single ejection port.
    pub rate: f64,
    /// Packet size mix.
    pub mix: PacketSizeMix,
    /// Warm-up cycles before measurement.
    pub warmup: Cycle,
    /// Measurement window in cycles (one PVC frame, 50 K cycles, in the
    /// paper).
    pub measure: Cycle,
    /// Random seed.
    pub seed: u64,
}

impl Default for FairnessConfig {
    fn default() -> Self {
        FairnessConfig {
            column: ColumnConfig::paper(),
            hotspot: NodeId(0),
            rate: 0.05,
            mix: PacketSizeMix::paper(),
            warmup: 10_000,
            measure: 50_000,
            seed: 0xFA1,
        }
    }
}

impl FairnessConfig {
    /// A shorter configuration for tests and smoke runs.
    pub fn quick() -> Self {
        FairnessConfig {
            warmup: 1_000,
            measure: 8_000,
            ..Self::default()
        }
    }
}

/// Result of the hotspot fairness experiment for one topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FairnessResult {
    /// Topology under test.
    pub topology: ColumnTopology,
    /// Flits delivered per flow during the measurement window.
    pub flits_per_flow: Vec<u64>,
    /// Mean, minimum, maximum and standard deviation of `flits_per_flow`.
    pub summary: ThroughputSummary,
    /// Jain's fairness index of the per-flow throughput.
    pub jain: f64,
}

impl FairnessResult {
    /// Minimum as a percentage of the mean (Table 2 format).
    pub fn min_pct_of_mean(&self) -> f64 {
        self.summary.min_pct_of_mean()
    }
}

/// Runs the hotspot fairness experiment for one topology.
pub fn hotspot_fairness(
    topology: ColumnTopology,
    policy: FairnessPolicy,
    config: &FairnessConfig,
) -> FairnessResult {
    let sim = SharedRegionSim::new(topology).with_column(config.column);
    let generators = workloads::hotspot(
        &config.column,
        config.rate,
        config.mix,
        config.hotspot,
        config.seed,
    );
    let boxed: Box<dyn QosPolicy> = match policy {
        FairnessPolicy::Pvc => Box::new(PvcPolicy::equal_rates(config.column.num_flows())),
        FairnessPolicy::NoQos => Box::new(FifoPolicy::new()),
    };
    let network = sim
        .build(boxed, generators)
        .expect("generated column configurations are always valid");
    let stats = run_open_loop(network, with_fixed_drain(config.warmup, config.measure));

    let flits_per_flow = stats.measured_flits_per_flow();
    let values: Vec<f64> = flits_per_flow.iter().map(|&v| v as f64).collect();
    FairnessResult {
        topology,
        summary: ThroughputSummary::from_observations(&flits_per_flow).unwrap_or_default(),
        jain: jain_index(&values),
        flits_per_flow,
    }
}

/// Runs the fairness experiment for every topology under PVC (the rows of
/// Table 2).
pub fn table2(config: &FairnessConfig) -> Vec<FairnessResult> {
    crate::experiment::parallel_map(ColumnTopology::all().to_vec(), |topology| {
        hotspot_fairness(topology, FairnessPolicy::Pvc, config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pvc_keeps_flows_close_to_the_mean_on_the_hotspot() {
        let config = FairnessConfig::quick();
        let result = hotspot_fairness(ColumnTopology::MeshX1, FairnessPolicy::Pvc, &config);
        assert_eq!(result.flits_per_flow.len(), 64);
        let summary = result.summary;
        assert!(summary.mean > 0.0, "hotspot must deliver traffic");
        // Every flow delivers something and fairness is high.
        assert!(summary.min > 0.0, "no flow should starve under PVC");
        assert!(result.jain > 0.9, "Jain index {}", result.jain);
        let deviation = (100.0 - summary.min_pct_of_mean()).max(summary.max_pct_of_mean() - 100.0);
        assert!(deviation < 35.0, "max deviation {deviation}%");
    }

    #[test]
    fn pvc_is_fairer_than_no_qos() {
        let config = FairnessConfig::quick();
        let pvc = hotspot_fairness(ColumnTopology::MeshX1, FairnessPolicy::Pvc, &config);
        let fifo = hotspot_fairness(ColumnTopology::MeshX1, FairnessPolicy::NoQos, &config);
        assert!(
            pvc.jain > fifo.jain,
            "PVC Jain {} should exceed no-QOS Jain {}",
            pvc.jain,
            fifo.jain
        );
        assert!(pvc.summary.std_dev_pct_of_mean() < fifo.summary.std_dev_pct_of_mean());
    }
}
