//! Differentiated service: drives the shared column with hotspot traffic
//! from tenants of different service weights and reports how closely the
//! delivered bandwidth tracks the programmed proportions
//! (`taqos_core::experiment::differentiated::sla_experiment`).

use std::fmt::{self, Write};

use taqos_core::experiment::differentiated::{sla_experiment, SlaConfig};
use taqos_topology::column::ColumnTopology;

use crate::{rule, Profile};

pub(crate) fn render(out: &mut String, profile: Profile) -> fmt::Result {
    let config = profile.pick(SlaConfig::quick(), SlaConfig::default());
    writeln!(
        out,
        "differentiated service: weights {:?}, hotspot node {}, rate {}",
        config.node_weights, config.hotspot, config.rate
    )?;
    writeln!(out, "{}", rule(72))?;
    writeln!(
        out,
        "{:<10} {:>22} {:>22} {:>14}",
        "topology", "programmed shares", "delivered shares", "worst error"
    )?;
    writeln!(out, "{}", rule(72))?;
    let fmt = |shares: Vec<f64>| {
        shares
            .iter()
            .map(|s| format!("{:.2}", s))
            .collect::<Vec<_>>()
            .join(" ")
    };
    for topology in ColumnTopology::all() {
        let result = sla_experiment(topology, &config);
        writeln!(
            out,
            "{:<10} {:>22} {:>22} {:>13.1}%",
            topology.name(),
            fmt(result.programmed_shares()),
            fmt(result.delivered_shares()),
            100.0 * result.worst_share_error,
        )?;
    }
    writeln!(out, "{}", rule(72))
}
