//! Table 2: relative per-flow throughput under hotspot traffic with
//! Preemptive Virtual Clock, for all five topologies, followed by the same
//! experiment without QOS support: the locality-driven unfairness PVC
//! eliminates.

use std::fmt::{self, Write};

use taqos_core::experiment::fairness::{
    hotspot_fairness, table2, FairnessConfig, FairnessPolicy, FairnessResult,
};
use taqos_topology::column::ColumnTopology;

use crate::{rule, Profile};

fn render_rows(out: &mut String, rows: &[FairnessResult]) -> fmt::Result {
    writeln!(out, "{}", rule(96))?;
    writeln!(
        out,
        "{:<10} {:>10} {:>22} {:>22} {:>20} {:>8}",
        "topology", "mean", "min (% of mean)", "max (% of mean)", "std dev (% mean)", "Jain"
    )?;
    writeln!(out, "{}", rule(96))?;
    for row in rows {
        writeln!(
            out,
            "{:<10} {:>10.0} {:>12.0} ({:>6.1}%) {:>12.0} ({:>6.1}%) {:>10.1} ({:>5.1}%) {:>8.4}",
            row.topology.name(),
            row.summary.mean,
            row.summary.min,
            row.summary.min_pct_of_mean(),
            row.summary.max,
            row.summary.max_pct_of_mean(),
            row.summary.std_dev,
            row.summary.std_dev_pct_of_mean(),
            row.jain,
        )?;
    }
    writeln!(out, "{}", rule(96))
}

pub(crate) fn render(out: &mut String, profile: Profile) -> fmt::Result {
    let config = profile.pick(FairnessConfig::quick(), FairnessConfig::default());

    writeln!(
        out,
        "Table 2: Relative throughput of flows under hotspot traffic (flits per flow, PVC)"
    )?;
    render_rows(out, &table2(&config))?;

    writeln!(out)?;
    writeln!(
        out,
        "Reference without QOS support (round-robin arbitration):"
    )?;
    let rows: Vec<FairnessResult> = ColumnTopology::all()
        .into_iter()
        .map(|t| hotspot_fairness(t, FairnessPolicy::NoQos, &config))
        .collect();
    render_rows(out, &rows)
}
