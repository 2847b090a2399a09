//! Table 1: the simulated shared-region configurations.

use std::fmt::{self, Write};

use taqos_topology::column::{ColumnConfig, ColumnTopology};
use taqos_topology::properties::bisection_bandwidth_bytes;

use crate::rule;

pub(crate) fn render(out: &mut String) -> fmt::Result {
    let config = ColumnConfig::paper();
    writeln!(out, "Table 1: Shared region topology details")?;
    writeln!(out, "{}", rule(78))?;
    writeln!(
        out,
        "Network        : {} nodes (one column), {}-byte links, 1-cycle wire delay,",
        config.nodes, config.flit_bytes
    )?;
    writeln!(
        out,
        "                 DOR routing, virtual cut-through flow control"
    )?;
    writeln!(
        out,
        "QOS            : Preemptive Virtual Clock (50K-cycle frame)"
    )?;
    writeln!(
        out,
        "Benchmarks     : hotspot, uniform random, tornado; 1- and 4-flit packets"
    )?;
    writeln!(
        out,
        "Injectors      : {} per node ({} terminal + {} row inputs), {} flows total",
        config.injectors_per_node(),
        1,
        config.row_inputs_east + config.row_inputs_west,
        config.num_flows()
    )?;
    writeln!(out, "{}", rule(78))?;
    writeln!(
        out,
        "{:<10} {:>8} {:>10} {:>12} {:>14} {:>16}",
        "topology", "VCs/port", "flits/VC", "VA latency", "pipeline", "bisection B/cyc"
    )?;
    writeln!(out, "{}", rule(78))?;
    for topology in ColumnTopology::all() {
        let p = topology.params();
        let pipeline = match topology {
            ColumnTopology::Mecs => "VA-l,VA-g,XT",
            ColumnTopology::Dps => "VA,XT (+1c mid)",
            _ => "VA,XT",
        };
        writeln!(
            out,
            "{:<10} {:>8} {:>10} {:>12} {:>14} {:>16}",
            topology.name(),
            p.network_vcs,
            p.vc_depth_flits,
            p.va_latency,
            pipeline,
            bisection_bandwidth_bytes(topology, &config)
        )?;
    }
    writeln!(out, "{}", rule(78))?;
    writeln!(
        out,
        "common         : 1 injection VC, 2 ejection VCs, 1 reserved VC per network port"
    )
}
