//! Router area model (Figure 3).
//!
//! The area of a shared-region router is decomposed into the three components
//! the paper reports: input buffers (SRAM), the crossbar switch fabric, and
//! the per-flow state tables of Preemptive Virtual Clock. The structural
//! inputs come from [`taqos_topology::geometry::RouterGeometry`], so the area
//! always reflects the exact simulated configuration (VC counts, port counts,
//! crossbar sharing).

use crate::model::TechnologyParams;
use serde::{Deserialize, Serialize};
use taqos_topology::column::{ColumnConfig, ColumnTopology};
use taqos_topology::geometry::{router_geometry, RouterGeometry};

/// Area of one router broken down by component, in mm².
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterArea {
    /// Input buffer area attributable to column (network) ports.
    pub column_buffers_mm2: f64,
    /// Input buffer area attributable to row inputs and the terminal port
    /// (identical across topologies — the dotted line of Figure 3).
    pub row_buffers_mm2: f64,
    /// Crossbar switch fabric area.
    pub crossbar_mm2: f64,
    /// Flow-state table area.
    pub flow_state_mm2: f64,
}

impl RouterArea {
    /// Total input-buffer area (row plus column).
    pub(crate) fn buffers_mm2(&self) -> f64 {
        self.column_buffers_mm2 + self.row_buffers_mm2
    }

    /// Total router area overhead.
    pub fn total_mm2(&self) -> f64 {
        self.buffers_mm2() + self.crossbar_mm2 + self.flow_state_mm2
    }
}

/// Analytical router area model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaModel {
    tech: TechnologyParams,
}

impl AreaModel {
    /// Creates the model for a technology node.
    pub(crate) fn new(tech: TechnologyParams) -> Self {
        AreaModel { tech }
    }

    /// The 32 nm model used throughout the evaluation.
    pub fn nm32() -> Self {
        AreaModel::new(TechnologyParams::nm32())
    }

    /// The technology parameters of this model.
    pub fn technology(&self) -> &TechnologyParams {
        &self.tech
    }

    /// Area of a router with the given geometry.
    pub(crate) fn router_area(&self, geometry: &RouterGeometry) -> RouterArea {
        let bit = self.tech.sram_mm2_per_bit;
        let flit_bits = f64::from(geometry.flit_bits);
        RouterArea {
            column_buffers_mm2: geometry.column_buffer_flits * flit_bits * bit,
            row_buffers_mm2: geometry.row_buffer_flits * flit_bits * bit,
            crossbar_mm2: geometry.xbar_inputs
                * geometry.xbar_outputs
                * self.tech.xbar_mm2_per_crosspoint,
            flow_state_mm2: geometry.flow_table_entries * self.tech.flow_entry_bits * bit,
        }
    }

    /// Area of the average router of a column topology (one bar of Figure 3).
    pub fn topology_area(&self, topology: ColumnTopology, config: &ColumnConfig) -> RouterArea {
        self.router_area(&router_geometry(topology, config))
    }

    /// Areas of all five topologies, in the order of
    /// [`ColumnTopology::all`].
    pub fn all_topologies(&self, config: &ColumnConfig) -> Vec<(ColumnTopology, RouterArea)> {
        ColumnTopology::all()
            .into_iter()
            .map(|t| (t, self.topology_area(t, config)))
            .collect()
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::nm32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn areas() -> Vec<(ColumnTopology, RouterArea)> {
        AreaModel::nm32().all_topologies(&ColumnConfig::paper())
    }

    fn total(t: ColumnTopology) -> f64 {
        areas()
            .into_iter()
            .find(|(topo, _)| *topo == t)
            .map(|(_, a)| a.total_mm2())
            .expect("topology present")
    }

    #[test]
    fn mesh_x1_is_smallest_and_mesh_x4_is_largest() {
        let all = areas();
        let x1 = total(ColumnTopology::MeshX1);
        let x4 = total(ColumnTopology::MeshX4);
        for (t, area) in &all {
            if *t != ColumnTopology::MeshX1 {
                assert!(area.total_mm2() > x1, "{t} should exceed mesh_x1");
            }
            if *t != ColumnTopology::MeshX4 {
                assert!(area.total_mm2() < x4, "{t} should be below mesh_x4");
            }
        }
    }

    #[test]
    fn mesh_x4_is_crossbar_dominated_and_mecs_is_buffer_dominated() {
        let model = AreaModel::nm32();
        let config = ColumnConfig::paper();
        let x4 = model.topology_area(ColumnTopology::MeshX4, &config);
        assert!(x4.crossbar_mm2 > x4.column_buffers_mm2);
        let mecs = model.topology_area(ColumnTopology::Mecs, &config);
        assert!(mecs.column_buffers_mm2 > mecs.crossbar_mm2);
        // MECS has the largest buffer footprint of all topologies.
        for (t, area) in model.all_topologies(&config) {
            if t != ColumnTopology::Mecs {
                assert!(area.column_buffers_mm2 < mecs.column_buffers_mm2);
            }
        }
    }

    #[test]
    fn dps_is_comparable_to_mecs() {
        let dps = total(ColumnTopology::Dps);
        let mecs = total(ColumnTopology::Mecs);
        let ratio = dps / mecs;
        assert!(
            (0.7..=1.3).contains(&ratio),
            "DPS/MECS area ratio {ratio} outside the comparable range"
        );
    }

    #[test]
    fn row_buffer_component_is_identical_across_topologies() {
        let all = areas();
        let reference = all[0].1.row_buffers_mm2;
        for (_, area) in &all {
            assert!((area.row_buffers_mm2 - reference).abs() < 1e-12);
        }
    }

    #[test]
    fn flow_state_is_a_minor_contributor() {
        for (t, area) in areas() {
            assert!(
                area.flow_state_mm2 < 0.25 * area.total_mm2(),
                "{t}: flow state should not dominate router area"
            );
        }
    }

    #[test]
    fn totals_are_in_a_plausible_32nm_range() {
        for (t, area) in areas() {
            let total = area.total_mm2();
            assert!(
                (0.02..0.5).contains(&total),
                "{t}: router area {total} mm2 outside the plausible range"
            );
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        let model = AreaModel::nm32();
        let area = model.topology_area(ColumnTopology::Dps, &ColumnConfig::paper());
        let sum = area.column_buffers_mm2
            + area.row_buffers_mm2
            + area.crossbar_mm2
            + area.flow_state_mm2;
        assert!((sum - area.total_mm2()).abs() < 1e-15);
    }
}
