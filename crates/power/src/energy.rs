//! Router energy model (Figure 7) and simulation-driven energy accounting.
//!
//! The paper derives the energy a flit spends at each network hop from the
//! input-buffer accesses, the crossbar traversal, and the flow-state queries
//! and updates, and breaks the cost down by hop type (source, intermediate,
//! destination) because the three differ:
//!
//! * source hops read the small injection buffers,
//! * intermediate hops read the large network-port buffers (and, in DPS, skip
//!   the crossbar and the flow table entirely — a 2:1 mux suffices),
//! * destination hops read network-port buffers and eject through the
//!   crossbar,
//! * MECS has no intermediate hops at all but pays for long crossbar input
//!   wires at source and destination.

use crate::model::TechnologyParams;
use serde::{Deserialize, Serialize};
use taqos_topology::column::{ColumnConfig, ColumnTopology};
use taqos_topology::geometry::{router_geometry, RouterGeometry};

/// Kind of network hop, from the perspective of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HopKind {
    /// The source router (injection-port read, switch, flow table).
    Source,
    /// An intermediate router between source and destination.
    Intermediate,
    /// The destination router (ejection through the crossbar).
    Destination,
}

/// Per-flit energy at one hop, broken down by router component, in pJ.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HopEnergy {
    /// Input-buffer write and read energy.
    pub buffers_pj: f64,
    /// Crossbar (or pass-through mux) traversal energy.
    pub crossbar_pj: f64,
    /// Flow-state query and update energy.
    pub flow_table_pj: f64,
}

impl HopEnergy {
    /// Total energy of the hop.
    pub fn total_pj(&self) -> f64 {
        self.buffers_pj + self.crossbar_pj + self.flow_table_pj
    }

    /// Component-wise sum of two hop energies.
    pub(crate) fn plus(&self, other: &HopEnergy) -> HopEnergy {
        HopEnergy {
            buffers_pj: self.buffers_pj + other.buffers_pj,
            crossbar_pj: self.crossbar_pj + other.crossbar_pj,
            flow_table_pj: self.flow_table_pj + other.flow_table_pj,
        }
    }

    /// Component-wise scaling.
    pub(crate) fn scaled(&self, factor: f64) -> HopEnergy {
        HopEnergy {
            buffers_pj: self.buffers_pj * factor,
            crossbar_pj: self.crossbar_pj * factor,
            flow_table_pj: self.flow_table_pj * factor,
        }
    }
}

/// Analytical router energy model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    tech: TechnologyParams,
}

impl EnergyModel {
    /// Creates the model for a technology node.
    pub(crate) fn new(tech: TechnologyParams) -> Self {
        EnergyModel { tech }
    }

    /// The 32 nm model used throughout the evaluation.
    pub fn nm32() -> Self {
        EnergyModel::new(TechnologyParams::nm32())
    }

    fn buffer_access_pj(&self, port_capacity_bits: f64) -> f64 {
        self.tech.buffer_access_base_pj + self.tech.buffer_access_per_bit_pj * port_capacity_bits
    }

    fn crossbar_pj(&self, geometry: &RouterGeometry) -> f64 {
        self.tech.xbar_base_pj
            + self.tech.xbar_per_port_pj * (geometry.xbar_inputs + geometry.xbar_outputs) / 2.0
            + self.tech.xbar_input_wire_pj * geometry.max_ports_per_xbar_input
    }

    fn flow_table_pj(&self, geometry: &RouterGeometry) -> f64 {
        let entries = geometry.flow_table_entries.max(2.0);
        // One query plus one update per packet; amortised per flit assuming
        // the mean packet length of the request/reply mix (2.5 flits).
        2.0 * self.tech.flow_access_per_log2_entry_pj * entries.log2() / 2.5
    }

    /// Per-flit energy of one hop of `kind` in the given topology.
    pub fn hop_energy(
        &self,
        topology: ColumnTopology,
        config: &ColumnConfig,
        kind: HopKind,
    ) -> HopEnergy {
        let geometry = router_geometry(topology, config);
        let params = topology.params();
        let network_port_bits = f64::from(params.network_vcs)
            * f64::from(params.vc_depth_flits)
            * f64::from(geometry.flit_bits);
        let injection_port_bits =
            f64::from(config.injection_vcs) * 4.0 * f64::from(geometry.flit_bits);
        let xbar = self.crossbar_pj(&geometry);
        let flow = self.flow_table_pj(&geometry);
        match kind {
            HopKind::Source => HopEnergy {
                buffers_pj: 2.0 * self.buffer_access_pj(injection_port_bits),
                crossbar_pj: xbar,
                flow_table_pj: flow,
            },
            HopKind::Intermediate => match topology {
                // MECS channels bypass intermediate routers entirely.
                ColumnTopology::Mecs => HopEnergy::default(),
                // DPS intermediate hops buffer the flit but use a 2:1 mux and
                // no flow state.
                ColumnTopology::Dps => HopEnergy {
                    buffers_pj: 2.0 * self.buffer_access_pj(network_port_bits),
                    crossbar_pj: self.tech.passthrough_mux_pj,
                    flow_table_pj: 0.0,
                },
                _ => HopEnergy {
                    buffers_pj: 2.0 * self.buffer_access_pj(network_port_bits),
                    crossbar_pj: xbar,
                    flow_table_pj: flow,
                },
            },
            HopKind::Destination => HopEnergy {
                buffers_pj: 2.0 * self.buffer_access_pj(network_port_bits),
                crossbar_pj: xbar,
                flow_table_pj: flow,
            },
        }
    }

    /// Per-flit router energy of a complete route spanning `hops` nodes
    /// (source router, any intermediate routers, destination router).
    ///
    /// A 3-hop route is roughly the average communication distance of uniform
    /// random traffic in the 8-node column and is the summary the paper
    /// reports in Figure 7.
    pub fn route_energy(
        &self,
        topology: ColumnTopology,
        config: &ColumnConfig,
        hops: u32,
    ) -> HopEnergy {
        let src = self.hop_energy(topology, config, HopKind::Source);
        if hops == 0 {
            // Local delivery: the source router doubles as the destination.
            return src;
        }
        let dst = self.hop_energy(topology, config, HopKind::Destination);
        let intermediate_count = match topology {
            ColumnTopology::Mecs => 0,
            _ => hops.saturating_sub(1),
        };
        let int = self
            .hop_energy(topology, config, HopKind::Intermediate)
            .scaled(f64::from(intermediate_count));
        src.plus(&int).plus(&dst)
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::nm32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel::nm32()
    }

    fn cfg() -> ColumnConfig {
        ColumnConfig::paper()
    }

    fn route3(t: ColumnTopology) -> f64 {
        model().route_energy(t, &cfg(), 3).total_pj()
    }

    #[test]
    fn meshes_are_least_efficient_on_three_hop_routes() {
        let x1 = route3(ColumnTopology::MeshX1);
        let x4 = route3(ColumnTopology::MeshX4);
        let mecs = route3(ColumnTopology::Mecs);
        let dps = route3(ColumnTopology::Dps);
        assert!(dps < x1, "DPS {dps} should beat mesh x1 {x1}");
        assert!(dps < x4, "DPS {dps} should beat mesh x4 {x4}");
        assert!(mecs < x1);
        assert!(mecs < x4);
        // DPS saves a substantial fraction versus the meshes (paper: 17% over
        // mesh x1 and 33% over mesh x4).
        assert!(dps / x1 < 0.92);
        assert!(dps / x4 < 0.80);
        // MECS and DPS are nearly identical at this distance.
        let ratio = mecs / dps;
        assert!((0.8..=1.2).contains(&ratio), "MECS/DPS ratio {ratio}");
    }

    #[test]
    fn mecs_has_the_most_expensive_switch_but_no_intermediate_hops() {
        let m = model();
        let mecs_src = m.hop_energy(ColumnTopology::Mecs, &cfg(), HopKind::Source);
        for t in [
            ColumnTopology::MeshX1,
            ColumnTopology::MeshX2,
            ColumnTopology::MeshX4,
            ColumnTopology::Dps,
        ] {
            let other = m.hop_energy(t, &cfg(), HopKind::Source);
            assert!(
                mecs_src.crossbar_pj > other.crossbar_pj,
                "MECS switch energy should exceed {t}"
            );
        }
        let mecs_int = m.hop_energy(ColumnTopology::Mecs, &cfg(), HopKind::Intermediate);
        assert_eq!(mecs_int.total_pj(), 0.0);
    }

    #[test]
    fn dps_intermediate_hops_are_much_cheaper_than_mesh_ones() {
        let m = model();
        let dps = m.hop_energy(ColumnTopology::Dps, &cfg(), HopKind::Intermediate);
        let mesh = m.hop_energy(ColumnTopology::MeshX1, &cfg(), HopKind::Intermediate);
        assert!(dps.total_pj() < 0.6 * mesh.total_pj());
        assert_eq!(dps.flow_table_pj, 0.0);
        assert!(dps.crossbar_pj < mesh.crossbar_pj);
    }

    #[test]
    fn longer_routes_favour_mecs_and_short_routes_favour_dps() {
        let m = model();
        let mecs_1 = m.route_energy(ColumnTopology::Mecs, &cfg(), 1).total_pj();
        let dps_1 = m.route_energy(ColumnTopology::Dps, &cfg(), 1).total_pj();
        assert!(dps_1 < mecs_1, "one hop: DPS {dps_1} vs MECS {mecs_1}");
        let mecs_7 = m.route_energy(ColumnTopology::Mecs, &cfg(), 7).total_pj();
        let dps_7 = m.route_energy(ColumnTopology::Dps, &cfg(), 7).total_pj();
        assert!(mecs_7 < dps_7, "seven hops: MECS {mecs_7} vs DPS {dps_7}");
    }

    #[test]
    fn local_routes_cost_one_router_traversal() {
        let m = model();
        let local = m.route_energy(ColumnTopology::MeshX1, &cfg(), 0);
        let src = m.hop_energy(ColumnTopology::MeshX1, &cfg(), HopKind::Source);
        assert_eq!(local, src);
    }

    #[test]
    fn hop_energy_breakdown_sums_to_total() {
        let e = model().hop_energy(ColumnTopology::Dps, &cfg(), HopKind::Destination);
        assert!((e.buffers_pj + e.crossbar_pj + e.flow_table_pj - e.total_pj()).abs() < 1e-12);
        let doubled = e.plus(&e);
        assert!((doubled.total_pj() - 2.0 * e.total_pj()).abs() < 1e-12);
        assert!((e.scaled(0.5).total_pj() - 0.5 * e.total_pj()).abs() < 1e-12);
    }

    #[test]
    fn absolute_values_are_in_a_plausible_picojoule_range() {
        for t in ColumnTopology::all() {
            for kind in [HopKind::Source, HopKind::Destination] {
                let e = model().hop_energy(t, &cfg(), kind).total_pj();
                assert!((1.0..50.0).contains(&e), "{t}: hop energy {e} pJ");
            }
        }
    }
}
