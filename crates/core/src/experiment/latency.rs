//! Load/latency sweeps on synthetic traffic (Figure 4).
//!
//! Every injector of the column offers traffic at a configured rate; the
//! sweep reports average packet latency and accepted throughput per topology
//! and load point, for the uniform-random and tornado patterns.

use crate::experiment::parallel_map;
use crate::shared_region::SharedRegionSim;
use serde::{Deserialize, Serialize};
use taqos_netsim::sim::{run_open_loop, OpenLoopConfig};
use taqos_qos::pvc::PvcPolicy;
use taqos_topology::column::{ColumnConfig, ColumnTopology};
use taqos_traffic::injection::PacketSizeMix;
use taqos_traffic::workloads;

/// Synthetic traffic pattern of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepPattern {
    /// Benign uniform-random traffic (Figure 4a).
    UniformRandom,
    /// Tornado traffic: destination half-way across the dimension
    /// (Figure 4b).
    Tornado,
}

impl SweepPattern {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SweepPattern::UniformRandom => "uniform_random",
            SweepPattern::Tornado => "tornado",
        }
    }
}

/// Configuration of a load/latency sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Column configuration.
    pub column: ColumnConfig,
    /// Warm-up / measurement / drain phases of each point.
    pub open_loop: OpenLoopConfig,
    /// Packet size mix (even request/reply mix in the paper).
    pub mix: PacketSizeMix,
    /// Base random seed.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            column: ColumnConfig::paper(),
            open_loop: OpenLoopConfig::default(),
            mix: PacketSizeMix::paper(),
            seed: 0xC01,
        }
    }
}

impl SweepConfig {
    /// A shorter configuration for tests and smoke runs.
    pub fn quick() -> Self {
        SweepConfig {
            open_loop: OpenLoopConfig::quick(),
            ..Self::default()
        }
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyPoint {
    /// Topology of this point.
    pub topology: ColumnTopology,
    /// Offered injection rate, flits per cycle per injector.
    pub injection_rate: f64,
    /// Average packet latency over the measurement window, in cycles.
    pub avg_latency: f64,
    /// Accepted throughput over the measurement window, flits per cycle
    /// aggregated over the whole column.
    pub accepted_flits_per_cycle: f64,
    /// Fraction of packets that experienced a preemption.
    pub preempted_packet_fraction: f64,
    /// Fraction of hop traversals wasted by preemptions.
    pub wasted_hop_fraction: f64,
}

/// The paper's load points: 1 % to 15 % injection rate per injector.
pub fn paper_rates() -> Vec<f64> {
    (1..=15).map(|p| f64::from(p) / 100.0).collect()
}

/// Runs one point of the sweep.
pub fn latency_point(
    topology: ColumnTopology,
    pattern: SweepPattern,
    rate: f64,
    config: &SweepConfig,
) -> LatencyPoint {
    let sim = SharedRegionSim::new(topology).with_column(config.column);
    let generators = match pattern {
        SweepPattern::UniformRandom => {
            workloads::uniform_random(&config.column, rate, config.mix, config.seed)
        }
        SweepPattern::Tornado => workloads::tornado(&config.column, rate, config.mix, config.seed),
    };
    let policy = Box::new(PvcPolicy::equal_rates(config.column.num_flows()));
    let network = sim
        .build(policy, generators)
        .expect("generated column configurations are always valid");
    let stats = run_open_loop(network, config.open_loop);
    LatencyPoint {
        topology,
        injection_rate: rate,
        avg_latency: stats.avg_latency(),
        accepted_flits_per_cycle: stats.accepted_throughput(),
        preempted_packet_fraction: stats.preempted_packet_fraction(),
        wasted_hop_fraction: stats.wasted_hop_fraction(),
    }
}

/// Runs the full sweep: every topology at every rate, in parallel.
pub fn latency_sweep(
    pattern: SweepPattern,
    topologies: &[ColumnTopology],
    rates: &[f64],
    config: &SweepConfig,
) -> Vec<LatencyPoint> {
    let points: Vec<(ColumnTopology, f64)> = topologies
        .iter()
        .flat_map(|&t| rates.iter().map(move |&r| (t, r)))
        .collect();
    parallel_map(points, |(topology, rate)| {
        latency_point(topology, pattern, rate, config)
    })
}

/// Estimates the saturation throughput of a topology under a pattern: the
/// highest offered load whose average latency stays below `latency_cap`
/// cycles. Used for the saturation comparisons quoted in §5.2.
pub fn saturation_rate(points: &[LatencyPoint], latency_cap: f64) -> f64 {
    let mut best = 0.0;
    for p in points {
        if p.avg_latency > 0.0 && p.avg_latency <= latency_cap && p.injection_rate > best {
            best = p.injection_rate;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            open_loop: OpenLoopConfig {
                warmup: 300,
                measure: 1_500,
                drain: 300,
            },
            ..SweepConfig::default()
        }
    }

    #[test]
    fn paper_rates_span_one_to_fifteen_percent() {
        let rates = paper_rates();
        assert_eq!(rates.len(), 15);
        assert!((rates[0] - 0.01).abs() < 1e-12);
        assert!((rates[14] - 0.15).abs() < 1e-12);
    }

    #[test]
    fn low_load_latency_tracks_zero_load_ordering() {
        // At 2% load the networks are uncongested; MECS and DPS must beat the
        // baseline mesh on uniform-random traffic, as in Figure 4(a).
        let config = tiny_config();
        let mesh = latency_point(
            ColumnTopology::MeshX1,
            SweepPattern::UniformRandom,
            0.02,
            &config,
        );
        let dps = latency_point(
            ColumnTopology::Dps,
            SweepPattern::UniformRandom,
            0.02,
            &config,
        );
        assert!(mesh.avg_latency > 0.0);
        assert!(dps.avg_latency > 0.0);
        assert!(
            dps.avg_latency < mesh.avg_latency,
            "DPS {} should be faster than mesh {}",
            dps.avg_latency,
            mesh.avg_latency
        );
    }

    #[test]
    fn sweep_covers_all_requested_points() {
        let config = tiny_config();
        let topologies = [ColumnTopology::MeshX1, ColumnTopology::Dps];
        let rates = [0.01, 0.03];
        let points = latency_sweep(SweepPattern::Tornado, &topologies, &rates, &config);
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].topology, ColumnTopology::MeshX1);
        assert!((points[0].injection_rate - 0.01).abs() < 1e-12);
        assert_eq!(points[3].topology, ColumnTopology::Dps);
    }

    #[test]
    fn saturation_rate_picks_highest_uncongested_point() {
        let mk = |rate, lat| LatencyPoint {
            topology: ColumnTopology::MeshX1,
            injection_rate: rate,
            avg_latency: lat,
            accepted_flits_per_cycle: rate,
            preempted_packet_fraction: 0.0,
            wasted_hop_fraction: 0.0,
        };
        let points = vec![
            mk(0.01, 12.0),
            mk(0.05, 20.0),
            mk(0.08, 90.0),
            mk(0.1, 400.0),
        ];
        assert!((saturation_rate(&points, 60.0) - 0.05).abs() < 1e-12);
    }
}
