//! Figures 3 and 7: router area overhead by component, and router energy
//! per flit by hop type and component, both analytical.

use std::fmt::{self, Write};

use taqos_core::experiment::energy_area::{area_report, energy_report};
use taqos_topology::column::{ColumnConfig, ColumnTopology};

use crate::rule;

pub(crate) fn fig3(out: &mut String) -> fmt::Result {
    let config = ColumnConfig::paper();
    let report = area_report(&config);

    writeln!(out, "Figure 3: Router area overhead (mm^2, 32 nm)")?;
    writeln!(out, "{}", rule(86))?;
    writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>12} {:>12} {:>12}",
        "topology", "row buffers*", "col buffers", "crossbar", "flow state", "total"
    )?;
    writeln!(out, "{}", rule(86))?;
    for entry in &report.entries {
        let a = entry.area;
        writeln!(
            out,
            "{:<10} {:>14.4} {:>14.4} {:>12.4} {:>12.4} {:>12.4}",
            entry.topology.name(),
            a.row_buffers_mm2,
            a.column_buffers_mm2,
            a.crossbar_mm2,
            a.flow_state_mm2,
            a.total_mm2(),
        )?;
    }
    writeln!(out, "{}", rule(86))?;
    writeln!(
        out,
        "* row-input buffer capacity is identical across all topologies (the dotted"
    )?;
    writeln!(out, "  line of the paper's figure).")
}

pub(crate) fn fig7(out: &mut String) -> fmt::Result {
    let config = ColumnConfig::paper();
    let report = energy_report(&config);

    writeln!(out, "Figure 7: Router energy per flit (pJ, 32 nm / 0.9 V)")?;
    writeln!(out, "{}", rule(78))?;
    writeln!(
        out,
        "{:<10} {:<14} {:>12} {:>12} {:>12} {:>12}",
        "topology", "hop type", "buffers", "crossbar", "flow table", "total"
    )?;
    writeln!(out, "{}", rule(78))?;
    for entry in &report.entries {
        for (category, energy) in &entry.per_category {
            writeln!(
                out,
                "{:<10} {:<14} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
                entry.topology.name(),
                category.label(),
                energy.buffers_pj,
                energy.crossbar_pj,
                energy.flow_table_pj,
                energy.total_pj(),
            )?;
        }
        writeln!(out, "{}", rule(78))?;
    }

    // Headline comparisons quoted in the paper's text.
    let three_hop = |topology: ColumnTopology| {
        report
            .three_hop_total(topology)
            .expect("every topology is in the report")
    };
    let dps = three_hop(ColumnTopology::Dps);
    let mesh_x1 = three_hop(ColumnTopology::MeshX1);
    let mesh_x4 = three_hop(ColumnTopology::MeshX4);
    let mecs = three_hop(ColumnTopology::Mecs);
    writeln!(
        out,
        "3-hop route: DPS saves {:>6.1} % vs mesh_x1, {:>6.1} % vs mesh_x4; MECS/DPS ratio {:>5.2}",
        100.0 * (1.0 - dps / mesh_x1),
        100.0 * (1.0 - dps / mesh_x4),
        mecs / dps,
    )
}
