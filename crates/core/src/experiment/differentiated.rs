//! Differentiated service (service-level agreements).
//!
//! The motivation of the paper — server consolidation and cloud computing —
//! requires not just fairness but *differentiated* guarantees: a premium
//! tenant with a larger service-level agreement should receive a
//! proportionally larger share of the contended shared resources. Preemptive
//! Virtual Clock provides this by scaling each flow's bandwidth consumption
//! by its assigned rate, and the operating system programs those rates from
//! the tenants' weights.
//!
//! This experiment drives the shared column with hotspot traffic from a set
//! of tenants with different weights and measures how closely the delivered
//! bandwidth tracks the programmed proportions.

use crate::experiment::{share_error, with_fixed_drain};
use crate::shared_region::SharedRegionSim;
use serde::{Deserialize, Serialize};
use taqos_netsim::sim::run_open_loop;
use taqos_netsim::{Cycle, NodeId};
use taqos_qos::pvc::{PvcConfig, PvcPolicy};
use taqos_qos::rates::RateAllocation;
use taqos_topology::column::{ColumnConfig, ColumnTopology};
use taqos_traffic::injection::PacketSizeMix;
use taqos_traffic::workloads;

/// Configuration of the differentiated-service experiment.
#[derive(Debug, Clone)]
pub struct SlaConfig {
    /// Column configuration.
    pub column: ColumnConfig,
    /// Service weight of each node's flows (one entry per node); delivered
    /// bandwidth should be proportional to these.
    pub node_weights: Vec<u32>,
    /// Hotspot node receiving all traffic.
    pub hotspot: NodeId,
    /// Offered rate per injector (well above any fair share, so the weights
    /// are the binding constraint).
    pub rate: f64,
    /// Warm-up cycles.
    pub warmup: Cycle,
    /// Measurement window in cycles.
    pub measure: Cycle,
    /// Random seed.
    pub seed: u64,
}

impl Default for SlaConfig {
    fn default() -> Self {
        SlaConfig {
            column: ColumnConfig::paper(),
            // Two premium rows, two standard rows, four best-effort rows.
            node_weights: vec![8, 8, 4, 4, 1, 1, 1, 1],
            hotspot: NodeId(0),
            rate: 0.05,
            warmup: 5_000,
            measure: 30_000,
            seed: 0x51A,
        }
    }
}

impl SlaConfig {
    /// A shorter configuration for tests and smoke runs.
    pub fn quick() -> Self {
        SlaConfig {
            warmup: 1_000,
            measure: 8_000,
            ..Self::default()
        }
    }

    /// Per-flow rate allocation implied by the node weights (every injector
    /// of a node shares the node's weight equally).
    ///
    /// # Panics
    ///
    /// Panics if the weight count does not match the column or a weight is
    /// zero — a zero service weight would make the share-error ratio
    /// (`(actual - expected) / expected`) divide by zero downstream.
    pub fn rate_allocation(&self) -> RateAllocation {
        assert_eq!(
            self.node_weights.len(),
            self.column.nodes,
            "one weight per column node required"
        );
        assert!(
            self.node_weights.iter().all(|&w| w > 0),
            "service weights must be positive"
        );
        let injectors = self.column.injectors_per_node();
        let total: f64 = self
            .node_weights
            .iter()
            .map(|&w| f64::from(w) * injectors as f64)
            .sum();
        let mut rates = vec![0.0; self.column.num_flows()];
        for node in 0..self.column.nodes {
            for injector in 0..injectors {
                rates[self.column.flow_of(node, injector).index()] =
                    f64::from(self.node_weights[node]) / total;
            }
        }
        RateAllocation::from_rates(rates)
    }
}

/// Result of the differentiated-service experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlaResult {
    /// Topology under test.
    pub topology: ColumnTopology,
    /// Flits delivered per node (all of the node's injectors combined)
    /// during the measurement window.
    pub delivered_per_node: Vec<u64>,
    /// Node weights the rates were programmed from.
    pub node_weights: Vec<u32>,
    /// Worst relative error between the delivered share and the programmed
    /// share, across nodes.
    pub worst_share_error: f64,
}

impl SlaResult {
    /// Delivered bandwidth share of each node (fractions summing to 1).
    pub fn delivered_shares(&self) -> Vec<f64> {
        share_error(&self.delivered_per_node, &self.programmed_shares()).0
    }

    /// Programmed (expected) bandwidth share of each node.
    pub fn programmed_shares(&self) -> Vec<f64> {
        weight_shares(&self.node_weights)
    }
}

/// Each node's share of the total weight.
fn weight_shares(node_weights: &[u32]) -> Vec<f64> {
    let total: f64 = node_weights.iter().map(|&w| f64::from(w)).sum();
    node_weights.iter().map(|&w| f64::from(w) / total).collect()
}

/// Runs the differentiated-service experiment on one topology.
pub fn sla_experiment(topology: ColumnTopology, config: &SlaConfig) -> SlaResult {
    let rates = config.rate_allocation();
    let sim = SharedRegionSim::new(topology).with_column(config.column);
    let policy = PvcPolicy::new(PvcConfig::paper(), rates);
    let generators = workloads::hotspot(
        &config.column,
        config.rate,
        PacketSizeMix::paper(),
        config.hotspot,
        config.seed,
    );
    let network = sim
        .build(Box::new(policy), generators)
        .expect("SLA experiment builds");
    let stats = run_open_loop(network, with_fixed_drain(config.warmup, config.measure));

    let per_flow = stats.measured_flits_per_flow();
    let delivered_per_node: Vec<u64> = (0..config.column.nodes)
        .map(|node| {
            (0..config.column.injectors_per_node())
                .map(|inj| per_flow[config.column.flow_of(node, inj).index()])
                .sum()
        })
        .collect();

    let (_, worst_share_error) =
        share_error(&delivered_per_node, &weight_shares(&config.node_weights));
    SlaResult {
        topology,
        delivered_per_node,
        node_weights: config.node_weights.clone(),
        worst_share_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivered_bandwidth_tracks_programmed_weights() {
        let config = SlaConfig::quick();
        let result = sla_experiment(ColumnTopology::Dps, &config);
        assert_eq!(result.delivered_per_node.len(), 8);
        // Premium nodes (weight 8) must clearly out-receive best-effort
        // nodes (weight 1).
        let premium = result.delivered_per_node[0] as f64;
        let best_effort = result.delivered_per_node[7] as f64;
        assert!(
            premium > 3.0 * best_effort,
            "premium {premium} vs best-effort {best_effort}"
        );
        // And the proportions should be close to the programmed 8:4:1 split.
        assert!(
            result.worst_share_error < 0.35,
            "worst share error {:.2}",
            result.worst_share_error
        );
        let shares = result.delivered_shares();
        let programmed = result.programmed_shares();
        assert_eq!(shares.len(), programmed.len());
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rate_allocation_is_proportional_to_weights() {
        let config = SlaConfig::default();
        let rates = config.rate_allocation();
        let premium = rates.rate(config.column.flow_of(0, 0));
        let best_effort = rates.rate(config.column.flow_of(7, 0));
        assert!((premium / best_effort - 8.0).abs() < 1e-9);
        let sum: f64 = rates.rates().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
