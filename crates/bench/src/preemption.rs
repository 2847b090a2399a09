//! Figures 5 and 6 for one of the two adversarial workloads: the fraction
//! of packets that experience a preemption and of hop traversals wasted
//! (Figure 5), and the slowdown relative to preemption-free per-flow
//! queuing with the deviation from the max-min-fair expected throughput
//! (Figure 6).

use std::fmt::{self, Write};

use taqos_core::experiment::preemption::{
    preemption_figure, AdversarialConfig, AdversarialWorkload, PreemptionImpact,
};

use crate::{rule, Profile};

fn run(profile: Profile, workload: AdversarialWorkload) -> Vec<PreemptionImpact> {
    let config = profile.pick(AdversarialConfig::quick(), AdversarialConfig::default());
    preemption_figure(workload, &config).expect("adversarial workloads complete")
}

/// The paper's panel letter of a workload.
fn panel(workload: AdversarialWorkload) -> &'static str {
    match workload {
        AdversarialWorkload::Workload1 => "(a)",
        AdversarialWorkload::Workload2 => "(b)",
    }
}

pub(crate) fn fig5(
    out: &mut String,
    profile: Profile,
    workload: AdversarialWorkload,
) -> fmt::Result {
    let results = run(profile, workload);

    writeln!(
        out,
        "Figure 5{}: preemption behaviour under {}",
        panel(workload),
        workload.name()
    )?;
    writeln!(out, "{}", rule(64))?;
    writeln!(
        out,
        "{:<10} {:>20} {:>20}",
        "topology", "preempted packets %", "replayed hops %"
    )?;
    writeln!(out, "{}", rule(64))?;
    for result in &results {
        writeln!(
            out,
            "{:<10} {:>20.2} {:>20.2}",
            result.topology.name(),
            result.preempted_packet_fraction * 100.0,
            result.wasted_hop_fraction * 100.0,
        )?;
    }
    writeln!(out, "{}", rule(64))
}

pub(crate) fn fig6(
    out: &mut String,
    profile: Profile,
    workload: AdversarialWorkload,
) -> fmt::Result {
    let results = run(profile, workload);

    writeln!(
        out,
        "Figure 6{}: slowdown due to preemptions and deviation from expected throughput ({})",
        panel(workload),
        workload.name()
    )?;
    writeln!(out, "{}", rule(92))?;
    writeln!(
        out,
        "{:<10} {:>14} {:>16} {:>16} {:>16} {:>14}",
        "topology",
        "slowdown %",
        "avg deviation %",
        "min deviation %",
        "max deviation %",
        "completion"
    )?;
    writeln!(out, "{}", rule(92))?;
    for result in &results {
        writeln!(
            out,
            "{:<10} {:>14.2} {:>16.2} {:>16.2} {:>16.2} {:>14}",
            result.topology.name(),
            result.slowdown * 100.0,
            result.avg_deviation * 100.0,
            result.min_deviation * 100.0,
            result.max_deviation * 100.0,
            result.completion_cycles,
        )?;
    }
    writeln!(out, "{}", rule(92))?;
    writeln!(
        out,
        "slowdown is measured against preemption-free execution in the same topology"
    )?;
    writeln!(
        out,
        "with ideal per-flow queuing; deviations are per-source extremes across the"
    )?;
    writeln!(out, "active flows relative to their max-min fair share.")
}
