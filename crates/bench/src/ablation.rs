//! Ablation studies beyond the paper's figures, on DPS: PVC frame length,
//! the reserved (non-preemptable) quota, preemption itself, and
//! virtual-channel provisioning.

use std::fmt::{self, Write};

use taqos_core::experiment::ablation::{
    frame_length_sweep, reserved_quota_ablation, vc_count_sweep,
};
use taqos_netsim::sim::OpenLoopConfig;
use taqos_topology::column::{ColumnConfig, ColumnTopology};

use crate::{rule, Profile};

pub(crate) fn render(out: &mut String, profile: Profile) -> fmt::Result {
    let topology = ColumnTopology::Dps;
    let column = ColumnConfig::paper();
    let (measure, budget) = profile.pick((6_000, 6_000), (50_000, 30_000));

    writeln!(
        out,
        "Ablation studies on {} (paper configuration otherwise)",
        topology.name()
    )?;
    writeln!(out)?;

    // 1. PVC frame length.
    writeln!(out, "PVC frame length (hotspot traffic):")?;
    writeln!(out, "{}", rule(60))?;
    writeln!(
        out,
        "{:<14} {:>22} {:>18}",
        "frame cycles", "max deviation %", "preempted %"
    )?;
    let frames = profile.pick(
        vec![1_000, 10_000, 50_000],
        vec![1_000, 5_000, 10_000, 50_000, 200_000],
    );
    for point in frame_length_sweep(topology, &frames, &column, measure, 0xF0) {
        writeln!(
            out,
            "{:<14} {:>22.2} {:>18.3}",
            point.frame_len,
            point.max_deviation_pct,
            point.preempted_packet_fraction * 100.0
        )?;
    }
    writeln!(out)?;

    // 2. Reserved quota and preemption.
    writeln!(
        out,
        "Reserved quota and preemption (adversarial Workload 1):"
    )?;
    writeln!(out, "{}", rule(60))?;
    match reserved_quota_ablation(topology, &column, budget, 0xF1) {
        Ok(ablation) => {
            writeln!(
                out,
                "  preempted packets with reserved quota    : {:>7.2}%",
                ablation.with_quota * 100.0
            )?;
            writeln!(
                out,
                "  preempted packets without reserved quota : {:>7.2}%",
                ablation.without_quota * 100.0
            )?;
            writeln!(
                out,
                "  preempted packets without preemption     : {:>7.2}%",
                ablation.without_preemption * 100.0
            )?;
            writeln!(
                out,
                "  completion with / without quota          : {} / {} cycles",
                ablation.completion_with_quota, ablation.completion_without_quota
            )?;
        }
        Err(e) => writeln!(out, "  ablation failed: {e}")?,
    }
    writeln!(out)?;

    // 3. Virtual-channel provisioning.
    writeln!(out, "Column-port virtual channels (uniform random at 8%):")?;
    writeln!(out, "{}", rule(60))?;
    writeln!(
        out,
        "{:<14} {:>18} {:>22}",
        "VCs per port", "avg latency", "accepted flits/cycle"
    )?;
    let counts = [2u8, 4, 6, 10, 14];
    let open_loop = profile.pick(
        OpenLoopConfig {
            warmup: 1_000,
            measure: 5_000,
            drain: 1_000,
        },
        OpenLoopConfig::default(),
    );
    for point in vc_count_sweep(topology, &counts, &column, 0.08, open_loop, 0xF2) {
        writeln!(
            out,
            "{:<14} {:>18.1} {:>22.2}",
            point.network_vcs, point.avg_latency, point.accepted_flits_per_cycle
        )?;
    }
    Ok(())
}
