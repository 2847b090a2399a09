//! Router area (Figure 3) and router energy (Figure 7) reports.
//!
//! Both figures are analytical: they depend only on the topology geometry and
//! the 32 nm technology parameters, not on a simulation run. The functions
//! here assemble the per-topology, per-component breakdowns in the exact
//! shape the paper plots them; the `taqos-bench` paper programs print them
//! as tables.

use serde::{Deserialize, Serialize};
use taqos_power::area::{AreaModel, RouterArea};
use taqos_power::energy::{EnergyModel, HopEnergy, HopKind};
use taqos_topology::column::{ColumnConfig, ColumnTopology};

/// Router area of every topology (the bars of Figure 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AreaReport {
    /// Per-topology area breakdowns, in the paper's presentation order.
    pub entries: Vec<AreaEntry>,
}

/// One bar of Figure 3.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AreaEntry {
    /// Topology.
    pub topology: ColumnTopology,
    /// Component breakdown.
    pub area: RouterArea,
}

/// Builds the Figure 3 report.
pub fn area_report(config: &ColumnConfig) -> AreaReport {
    let model = AreaModel::nm32();
    AreaReport {
        entries: model
            .all_topologies(config)
            .into_iter()
            .map(|(topology, area)| AreaEntry { topology, area })
            .collect(),
    }
}

/// The hop categories of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnergyCategory {
    /// Source router traversal.
    Source,
    /// Intermediate router traversal.
    Intermediate,
    /// Destination router traversal.
    Destination,
    /// A complete 3-hop route (the average uniform-random distance).
    ThreeHops,
}

impl EnergyCategory {
    /// All categories in the paper's order.
    pub(crate) fn all() -> [EnergyCategory; 4] {
        [
            EnergyCategory::Source,
            EnergyCategory::Intermediate,
            EnergyCategory::Destination,
            EnergyCategory::ThreeHops,
        ]
    }

    /// Label used in the printed table.
    pub fn label(self) -> &'static str {
        match self {
            EnergyCategory::Source => "src",
            EnergyCategory::Intermediate => "intermediate",
            EnergyCategory::Destination => "dest",
            EnergyCategory::ThreeHops => "3 hops",
        }
    }
}

/// One group of bars of Figure 7 (one topology).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyEntry {
    /// Topology.
    pub topology: ColumnTopology,
    /// Energy per category, in the order of `EnergyCategory::all`.
    pub per_category: Vec<(EnergyCategory, HopEnergy)>,
}

/// Router energy of every topology by hop category (Figure 7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Per-topology entries.
    pub entries: Vec<EnergyEntry>,
}

/// Builds the Figure 7 report.
pub fn energy_report(config: &ColumnConfig) -> EnergyReport {
    let model = EnergyModel::nm32();
    let entries = ColumnTopology::all()
        .into_iter()
        .map(|topology| {
            let per_category = EnergyCategory::all()
                .into_iter()
                .map(|category| {
                    let energy = match category {
                        EnergyCategory::Source => {
                            model.hop_energy(topology, config, HopKind::Source)
                        }
                        EnergyCategory::Intermediate => {
                            model.hop_energy(topology, config, HopKind::Intermediate)
                        }
                        EnergyCategory::Destination => {
                            model.hop_energy(topology, config, HopKind::Destination)
                        }
                        EnergyCategory::ThreeHops => model.route_energy(topology, config, 3),
                    };
                    (category, energy)
                })
                .collect();
            EnergyEntry {
                topology,
                per_category,
            }
        })
        .collect();
    EnergyReport { entries }
}

impl EnergyReport {
    /// Total 3-hop route energy of a topology, in pJ.
    pub fn three_hop_total(&self, topology: ColumnTopology) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.topology == topology)
            .and_then(|e| {
                e.per_category
                    .iter()
                    .find(|(c, _)| *c == EnergyCategory::ThreeHops)
                    .map(|(_, energy)| energy.total_pj())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_report_covers_every_topology() {
        let report = area_report(&ColumnConfig::paper());
        assert_eq!(report.entries.len(), 5);
        let total_mm2 = |topology| {
            let entry = report.entries.iter().find(|e| e.topology == topology);
            entry.unwrap().area.total_mm2()
        };
        let x1 = total_mm2(ColumnTopology::MeshX1);
        let x4 = total_mm2(ColumnTopology::MeshX4);
        assert!(x1 < x4);
    }

    #[test]
    fn energy_report_covers_every_topology_and_category() {
        let report = energy_report(&ColumnConfig::paper());
        assert_eq!(report.entries.len(), 5);
        for entry in &report.entries {
            assert_eq!(entry.per_category.len(), 4);
        }
        let dps = report.three_hop_total(ColumnTopology::Dps).unwrap();
        let x1 = report.three_hop_total(ColumnTopology::MeshX1).unwrap();
        assert!(dps < x1, "DPS should be more efficient on 3-hop routes");
    }

    #[test]
    fn category_labels_are_stable() {
        assert_eq!(EnergyCategory::Source.label(), "src");
        assert_eq!(EnergyCategory::ThreeHops.label(), "3 hops");
        assert_eq!(EnergyCategory::all().len(), 4);
    }
}
