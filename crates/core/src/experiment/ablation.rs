//! Ablation studies of the design choices called out in DESIGN.md.
//!
//! These go beyond the paper's figures and quantify how much each mechanism
//! contributes:
//!
//! * the PVC **frame length** (granularity of guarantees vs responsiveness),
//! * the **reserved quota** (non-preemptable rate-compliant traffic), which
//!   the paper credits with throttling preemptions in the hotspot experiment,
//! * **preemption itself** (PVC degenerates to plain virtual-clock
//!   prioritisation without it),
//! * the **virtual-channel provisioning** of the column ports (Table 1's VC
//!   counts).

use crate::shared_region::SharedRegionSim;
use serde::{Deserialize, Serialize};
use taqos_netsim::error::SimError;
use taqos_netsim::network::Network;
use taqos_netsim::sim::{run_closed, run_open_loop, OpenLoopConfig};
use taqos_netsim::{Cycle, NodeId, SimConfig};
use taqos_qos::pvc::{PvcConfig, PvcPolicy};
use taqos_qos::rates::RateAllocation;
use taqos_topology::column::{ColumnConfig, ColumnTopology, TopologyParams};
use taqos_traffic::injection::PacketSizeMix;
use taqos_traffic::workloads;

/// One row of the frame-length ablation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FrameAblationPoint {
    /// PVC frame length in cycles.
    pub frame_len: Cycle,
    /// Largest per-flow deviation from the mean hotspot throughput, percent.
    pub max_deviation_pct: f64,
    /// Fraction of packets preempted.
    pub preempted_packet_fraction: f64,
}

/// Sweeps the PVC frame length on the hotspot workload and reports fairness
/// and preemption behaviour per frame length.
pub fn frame_length_sweep(
    topology: ColumnTopology,
    frame_lengths: &[Cycle],
    column: &ColumnConfig,
    measure: Cycle,
    seed: u64,
) -> Vec<FrameAblationPoint> {
    // Frame lengths are independent simulation points: shard them across
    // threads.
    crate::experiment::parallel_map(frame_lengths.to_vec(), |frame_len| {
        let sim = SharedRegionSim::new(topology).with_column(*column);
        let policy = PvcPolicy::new(
            PvcConfig {
                frame_len,
                ..PvcConfig::paper()
            },
            RateAllocation::equal(column.num_flows()),
        );
        let generators = workloads::hotspot(column, 0.05, PacketSizeMix::paper(), NodeId(0), seed);
        let network = sim
            .build(Box::new(policy), generators)
            .expect("hotspot ablation builds");
        let stats = run_open_loop(
            network,
            OpenLoopConfig {
                warmup: measure / 8,
                measure,
                drain: 1_000,
            },
        );
        let per_flow = stats.measured_flits_per_flow();
        let mean = per_flow.iter().sum::<u64>() as f64 / per_flow.len().max(1) as f64;
        let max_dev = per_flow
            .iter()
            .map(|&f| ((f as f64 - mean) / mean.max(1.0)).abs())
            .fold(0.0, f64::max);
        FrameAblationPoint {
            frame_len,
            max_deviation_pct: max_dev * 100.0,
            preempted_packet_fraction: stats.preempted_packet_fraction(),
        }
    })
}

/// Result of the reserved-quota / preemption ablation on Workload 1.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QuotaAblation {
    /// Preempted-packet fraction with the full reserved quota (the paper's
    /// configuration).
    pub with_quota: f64,
    /// Preempted-packet fraction with the reservation mechanism disabled.
    pub without_quota: f64,
    /// Preempted-packet fraction with preemption disabled entirely (always
    /// zero; recorded for completeness).
    pub without_preemption: f64,
    /// Completion time with the full configuration, cycles.
    pub completion_with_quota: u64,
    /// Completion time without the reserved quota, cycles.
    pub completion_without_quota: u64,
}

/// Runs Workload 1 with (a) the paper's PVC, (b) PVC without reserved quota,
/// and (c) PVC without preemption, and compares preemption incidence.
///
/// # Errors
///
/// Returns an error if any variant fails to complete.
pub fn reserved_quota_ablation(
    topology: ColumnTopology,
    column: &ColumnConfig,
    budget_cycles: u64,
    seed: u64,
) -> Result<QuotaAblation, SimError> {
    let run = |config: PvcConfig| -> Result<(f64, u64), SimError> {
        let sim = SharedRegionSim::new(topology).with_column(*column);
        let policy = PvcPolicy::new(config, RateAllocation::equal(column.num_flows()));
        let generators = workloads::workload1(
            column,
            &workloads::WORKLOAD1_RATES,
            PacketSizeMix::paper(),
            NodeId(0),
            budget_cycles,
            seed,
        );
        let network = sim.build(Box::new(policy), generators)?;
        let stats = run_closed(network, Some((0, budget_cycles)), 2_000_000)?;
        Ok((
            stats.preempted_packet_fraction(),
            stats.completion_cycle.unwrap_or(stats.cycles),
        ))
    };
    // The three PVC variants are independent simulations: run them across
    // threads and surface the first error, if any.
    let configs = vec![
        PvcConfig::paper(),
        PvcConfig {
            reserved_fraction: 0.0,
            ..PvcConfig::paper()
        },
        PvcConfig::without_preemption(),
    ];
    let mut results = crate::experiment::parallel_map(configs, run).into_iter();
    let (with_quota, completion_with_quota) = results.next().expect("three variants")?;
    let (without_quota, completion_without_quota) = results.next().expect("three variants")?;
    let (without_preemption, _) = results.next().expect("three variants")?;
    Ok(QuotaAblation {
        with_quota,
        without_quota,
        without_preemption,
        completion_with_quota,
        completion_without_quota,
    })
}

/// One row of the VC-provisioning ablation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VcAblationPoint {
    /// Virtual channels per column network port.
    pub network_vcs: u8,
    /// Average packet latency at the probed load, cycles.
    pub avg_latency: f64,
    /// Accepted throughput, flits per cycle.
    pub accepted_flits_per_cycle: f64,
}

/// Sweeps the number of virtual channels per column network port at a fixed
/// uniform-random load.
pub fn vc_count_sweep(
    topology: ColumnTopology,
    vc_counts: &[u8],
    column: &ColumnConfig,
    rate: f64,
    open_loop: OpenLoopConfig,
    seed: u64,
) -> Vec<VcAblationPoint> {
    // Each VC provisioning is an independent simulation point: shard them
    // across threads.
    crate::experiment::parallel_map(vc_counts.to_vec(), |network_vcs| {
        let params = TopologyParams {
            network_vcs,
            ..topology.params()
        };
        let spec = topology.build_with_params(column, &params);
        let generators = workloads::uniform_random(column, rate, PacketSizeMix::paper(), seed);
        let policy = Box::new(PvcPolicy::equal_rates(column.num_flows()));
        let network = Network::new(spec, policy, generators, SimConfig::default())
            .expect("ablation configuration is valid");
        let stats = run_open_loop(network, open_loop);
        VcAblationPoint {
            network_vcs,
            avg_latency: stats.avg_latency(),
            accepted_flits_per_cycle: stats.accepted_throughput(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_quota_throttles_preemptions() {
        let column = ColumnConfig::paper();
        let ablation =
            reserved_quota_ablation(ColumnTopology::MeshX1, &column, 4_000, 5).expect("runs");
        // Without the reserved quota every packet is fair game, so preemption
        // incidence can only grow (or stay equal).
        assert!(ablation.without_quota >= ablation.with_quota);
        assert_eq!(ablation.without_preemption, 0.0);
        assert!(ablation.completion_with_quota > 0);
        assert!(ablation.completion_without_quota > 0);
    }

    #[test]
    fn more_vcs_do_not_hurt_latency() {
        let column = ColumnConfig::paper();
        let points = vc_count_sweep(
            ColumnTopology::MeshX1,
            &[2, 6],
            &column,
            0.04,
            OpenLoopConfig {
                warmup: 500,
                measure: 3_000,
                drain: 500,
            },
            3,
        );
        assert_eq!(points.len(), 2);
        assert!(points[1].avg_latency <= points[0].avg_latency + 2.0);
        assert!(points[0].accepted_flits_per_cycle > 0.0);
    }

    #[test]
    fn frame_sweep_reports_one_point_per_frame() {
        let column = ColumnConfig::paper();
        let points = frame_length_sweep(ColumnTopology::Dps, &[2_000, 10_000], &column, 4_000, 7);
        assert_eq!(points.len(), 2);
        for p in points {
            assert!(p.max_deviation_pct >= 0.0);
            assert!(p.preempted_packet_fraction >= 0.0);
        }
    }
}
