//! # taqos-power — area and energy models for shared-region routers
//!
//! Analytical substitutes for the ORION 2.0 and CACTI 6.0 models used in the
//! paper, calibrated for a 32 nm / 0.9 V process:
//!
//! * [`model`] — technology parameters and calibrated per-event constants;
//! * [`area`] — router area broken down into input buffers, crossbar, and
//!   flow-state tables (Figure 3);
//! * [`energy`] — per-flit router energy by hop type (source, intermediate,
//!   destination) and per complete route (Figure 7), plus simulation-driven
//!   energy from event counters.
//!
//! ## Example
//!
//! ```rust
//! use taqos_power::area::AreaModel;
//! use taqos_power::energy::EnergyModel;
//! use taqos_topology::column::{ColumnConfig, ColumnTopology};
//!
//! let config = ColumnConfig::paper();
//! let area = AreaModel::nm32().topology_area(ColumnTopology::Dps, &config);
//! assert!(area.total_mm2() > 0.0);
//!
//! let energy = EnergyModel::nm32().route_energy(ColumnTopology::Dps, &config, 3);
//! assert!(energy.total_pj() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod energy;
pub mod model;
