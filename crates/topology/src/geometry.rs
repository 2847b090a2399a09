//! Router geometry: the structural quantities that drive area and energy.
//!
//! The power model (`taqos-power`) needs, per topology, the crossbar
//! dimensions, buffer capacities, flow-state table sizes, and the degree of
//! crossbar input sharing (which determines the length of the input wires
//! feeding the switch — the dominant term of MECS switch energy). These are
//! derived from the generated [`NetworkSpec`]s so that the area/energy
//! figures always reflect exactly the simulated configuration.

use crate::column::{ColumnConfig, ColumnTopology};
use serde::{Deserialize, Serialize};
use taqos_netsim::spec::{InputKind, NetworkSpec};

/// Virtual channels provisioned on each row input in the full chip (row
/// channels are MECS channels and are buffered like MECS column ports). This
/// buffering is identical across the evaluated column topologies and appears
/// as the constant "row input" component of Figure 3.
pub(crate) const ROW_INPUT_VCS: u32 = 14;
/// Flits per row-input virtual channel.
pub(crate) const ROW_INPUT_VC_DEPTH: u32 = 4;

/// Structural quantities of one (average) router of a column topology.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterGeometry {
    /// Crossbar input ports (injection groups plus column input groups).
    pub xbar_inputs: f64,
    /// Crossbar output ports (ejection, column outputs, and the east/west
    /// outputs that carry replies back out of the column).
    pub xbar_outputs: f64,
    /// Column (network) input buffer capacity in flits.
    pub column_buffer_flits: f64,
    /// Row-input and terminal buffer capacity in flits (identical across
    /// topologies).
    pub row_buffer_flits: f64,
    /// Flow-state table entries (bandwidth counters) per router.
    pub flow_table_entries: f64,
    /// Largest number of input ports multiplexed onto one crossbar input
    /// port; proxies the length of the wires feeding the crossbar.
    pub max_ports_per_xbar_input: f64,
    /// Channel (flit) width in bits.
    pub flit_bits: u32,
}

/// Number of outputs leaving the column sideways (east, west) that exist in
/// the full chip but are not exercised by the column simulation; they still
/// occupy crossbar ports and are included in the crossbar dimensions.
const SIDE_OUTPUTS: f64 = 2.0;

/// Derives the average router geometry of a column topology.
pub fn router_geometry(topology: ColumnTopology, config: &ColumnConfig) -> RouterGeometry {
    let spec = topology.build(config);
    geometry_from_spec(topology, config, &spec)
}

/// Derives the average router geometry from an already-built specification.
pub(crate) fn geometry_from_spec(
    topology: ColumnTopology,
    config: &ColumnConfig,
    spec: &NetworkSpec,
) -> RouterGeometry {
    let n = spec.routers.len() as f64;
    let mut xbar_inputs = 0.0;
    let mut xbar_outputs = 0.0;
    let mut column_buffer_flits = 0.0;
    let mut flow_table_entries = 0.0;
    let mut max_sharing: usize = 1;

    for router in &spec.routers {
        xbar_inputs += router.xbar_input_groups() as f64;
        xbar_outputs += router.xbar_output_ports() as f64 + SIDE_OUTPUTS;
        column_buffer_flits += router
            .inputs
            .iter()
            .filter(|p| matches!(p.kind, InputKind::Network { .. }))
            .map(|p| f64::from(p.vcs.capacity_flits()))
            .sum::<f64>();
        // Flow state: one bandwidth counter per flow; DPS source routers keep
        // utilisation per output port (one table per subnet output).
        let tables = match topology {
            ColumnTopology::Dps => router.xbar_output_ports() as f64,
            _ => 1.0,
        };
        flow_table_entries += spec.num_flows() as f64 * tables;
        // Crossbar input sharing: count non-pass-through ports per group.
        let mut per_group: std::collections::BTreeMap<u8, usize> =
            std::collections::BTreeMap::new();
        for port in router.inputs.iter().filter(|p| !p.passthrough) {
            *per_group.entry(port.xbar_group).or_insert(0) += 1;
        }
        if let Some(&m) = per_group.values().max() {
            max_sharing = max_sharing.max(m);
        }
    }

    let row_buffer_flits = (config.row_inputs_east + config.row_inputs_west) as f64
        * f64::from(ROW_INPUT_VCS * ROW_INPUT_VC_DEPTH)
        + f64::from(config.injection_vcs) * 4.0;

    RouterGeometry {
        xbar_inputs: xbar_inputs / n,
        xbar_outputs: xbar_outputs / n,
        column_buffer_flits: column_buffer_flits / n,
        row_buffer_flits,
        flow_table_entries: flow_table_entries / n,
        max_ports_per_xbar_input: max_sharing as f64,
        flit_bits: spec.flit_bytes * 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(t: ColumnTopology) -> RouterGeometry {
        router_geometry(t, &ColumnConfig::paper())
    }

    #[test]
    fn crossbar_dimensions_match_paper_description() {
        // The paper quotes 5x5 for mesh x1 and 11x11 for mesh x4 (middle
        // routers); averages over the column are slightly lower because edge
        // routers lack one neighbour.
        let x1 = geo(ColumnTopology::MeshX1);
        assert!(x1.xbar_inputs > 4.0 && x1.xbar_inputs <= 5.0);
        assert!(x1.xbar_outputs > 4.0 && x1.xbar_outputs <= 5.0);

        let x4 = geo(ColumnTopology::MeshX4);
        assert!(x4.xbar_inputs > 9.5 && x4.xbar_inputs <= 11.0);
        assert!(x4.xbar_outputs > 9.5 && x4.xbar_outputs <= 11.0);

        let mecs = geo(ColumnTopology::Mecs);
        assert!(mecs.xbar_inputs <= 5.0);
        assert!(mecs.xbar_outputs <= 5.0);

        let dps = geo(ColumnTopology::Dps);
        assert!(dps.xbar_inputs <= 5.0);
        assert!(dps.xbar_outputs > 9.0 && dps.xbar_outputs <= 10.0);
    }

    #[test]
    fn mecs_has_the_largest_column_buffers() {
        let x1 = geo(ColumnTopology::MeshX1).column_buffer_flits;
        let x4 = geo(ColumnTopology::MeshX4).column_buffer_flits;
        let mecs = geo(ColumnTopology::Mecs).column_buffer_flits;
        let dps = geo(ColumnTopology::Dps).column_buffer_flits;
        assert!(mecs > x4);
        assert!(mecs > dps);
        assert!(dps > x1);
        assert!(x4 > x1);
    }

    #[test]
    fn row_buffers_are_identical_across_topologies() {
        let row: Vec<f64> = ColumnTopology::all()
            .iter()
            .map(|&t| geo(t).row_buffer_flits)
            .collect();
        for r in &row {
            assert_eq!(*r, row[0]);
        }
        // 7 row inputs x 14 VCs x 4 flits + 1 terminal VC x 4 flits.
        assert_eq!(row[0], 7.0 * 56.0 + 4.0);
    }

    #[test]
    fn mecs_shares_the_most_input_ports_per_crossbar_port() {
        let mecs = geo(ColumnTopology::Mecs);
        let x1 = geo(ColumnTopology::MeshX1);
        assert!(mecs.max_ports_per_xbar_input > x1.max_ports_per_xbar_input);
        assert_eq!(mecs.max_ports_per_xbar_input, 7.0);
    }

    #[test]
    fn dps_flow_tables_scale_with_outputs() {
        let dps = geo(ColumnTopology::Dps);
        let mesh = geo(ColumnTopology::MeshX1);
        assert!(dps.flow_table_entries > mesh.flow_table_entries);
        assert_eq!(mesh.flow_table_entries, 64.0);
    }
}
