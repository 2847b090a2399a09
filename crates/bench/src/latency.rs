//! Figure 4: average packet latency versus offered load on uniform-random
//! (a) and tornado (b) traffic, for all five topologies, at the paper's
//! 1–15 % load points. The packet discard (preemption) rate at the highest
//! load follows the table: the saturation discard figures quoted in
//! Section 5.2 of the paper.

use std::fmt::{self, Write};

use taqos_core::experiment::latency::{latency_sweep, paper_rates, SweepConfig, SweepPattern};
use taqos_netsim::sim::OpenLoopConfig;
use taqos_topology::column::ColumnTopology;

use crate::{rule, Profile};

pub(crate) fn render(out: &mut String, profile: Profile, pattern: SweepPattern) -> fmt::Result {
    let mut config = SweepConfig::default();
    if profile == Profile::Quick {
        config.open_loop = OpenLoopConfig {
            warmup: 2_000,
            measure: 10_000,
            drain: 3_000,
        };
    }
    let rates = paper_rates();
    let topologies = ColumnTopology::all();
    let points = latency_sweep(pattern, &topologies, &rates, &config);

    writeln!(
        out,
        "Figure 4{}: average packet latency (cycles) vs injection rate, {} traffic",
        match pattern {
            SweepPattern::UniformRandom => "(a)",
            SweepPattern::Tornado => "(b)",
        },
        pattern.name()
    )?;
    writeln!(out, "{}", rule(80))?;
    write!(out, "{:<10}", "rate")?;
    for topology in topologies {
        write!(out, "{:>14}", topology.name())?;
    }
    writeln!(out)?;
    writeln!(out, "{}", rule(80))?;
    for &rate in &rates {
        write!(out, "{:<10}", format!("{:.0}%", rate * 100.0))?;
        for topology in topologies {
            let point = points
                .iter()
                .find(|p| p.topology == topology && (p.injection_rate - rate).abs() < 1e-9)
                .expect("point simulated");
            write!(out, "{:>14.1}", point.avg_latency)?;
        }
        writeln!(out)?;
    }
    writeln!(out, "{}", rule(80))?;

    let highest = |topology| {
        points
            .iter()
            .rfind(|p| p.topology == topology)
            .expect("points exist")
    };
    writeln!(
        out,
        "Accepted throughput at the highest load (flits/cycle, whole column):"
    )?;
    for topology in topologies {
        writeln!(
            out,
            "  {:<10} {:>8.2}",
            topology.name(),
            highest(topology).accepted_flits_per_cycle
        )?;
    }
    writeln!(out, "Packet discard (preemption) rate at the highest load:")?;
    for topology in topologies {
        writeln!(
            out,
            "  {:<10} {:>7.2} %",
            topology.name(),
            highest(topology).preempted_packet_fraction * 100.0
        )?;
    }
    Ok(())
}
