//! Technology parameters of the analytical area and energy models.
//!
//! The paper evaluates a 32 nm process at 0.9 V using ORION 2.0 (router power
//! and area) and CACTI 6.0 (small SRAM arrays). Neither tool is available as
//! a reusable library, so this crate substitutes calibrated analytical models
//! with the same structural drivers: SRAM bit counts for buffers and flow
//! state, crossbar port counts and widths for the switch, and the degree of
//! input-port sharing for the long wires that feed a MECS crossbar. The
//! constants below are calibrated so that absolute values land in a plausible
//! range for 32 nm and, more importantly, so that the *relative* ordering and
//! ratios across topologies reproduce Figures 3 and 7.

use serde::{Deserialize, Serialize};

/// Process/voltage parameters and calibrated per-event constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TechnologyParams {
    /// Feature size in nanometres (32 in the paper).
    pub(crate) feature_nm: f64,
    /// Supply voltage in volts (0.9 in the paper).
    pub(crate) vdd: f64,

    /// SRAM area per bit, including periphery of small arrays, in mm².
    pub sram_mm2_per_bit: f64,
    /// Crossbar area per crosspoint (one input port crossing one output
    /// port at full channel width), in mm².
    pub(crate) xbar_mm2_per_crosspoint: f64,
    /// Bits of flow state per table entry (bandwidth counter plus rate
    /// register).
    pub flow_entry_bits: f64,

    /// Fixed energy of one buffer access (read or write of one flit), pJ.
    pub(crate) buffer_access_base_pj: f64,
    /// Additional buffer access energy per bit of port capacity, pJ.
    pub(crate) buffer_access_per_bit_pj: f64,
    /// Fixed energy of one crossbar flit traversal, pJ.
    pub(crate) xbar_base_pj: f64,
    /// Crossbar traversal energy per (input + output) port, pJ.
    pub(crate) xbar_per_port_pj: f64,
    /// Crossbar traversal energy per input port multiplexed onto the same
    /// crossbar input (long input wires of MECS routers), pJ.
    pub(crate) xbar_input_wire_pj: f64,
    /// Energy of a 2:1 pass-through multiplexer traversal (DPS intermediate
    /// hop), pJ.
    pub(crate) passthrough_mux_pj: f64,
    /// Energy of one flow-state table access (query or update), pJ, per
    /// log2(entries).
    pub(crate) flow_access_per_log2_entry_pj: f64,
    /// Link energy per flit per router-to-router span, pJ.
    pub(crate) link_per_span_pj: f64,
}

impl TechnologyParams {
    /// The calibrated 32 nm / 0.9 V parameters used for every figure.
    pub(crate) fn nm32() -> Self {
        TechnologyParams {
            feature_nm: 32.0,
            vdd: 0.9,
            sram_mm2_per_bit: 0.8e-6,
            xbar_mm2_per_crosspoint: 6.5e-4,
            flow_entry_bits: 24.0,
            buffer_access_base_pj: 1.0,
            buffer_access_per_bit_pj: 0.0006,
            xbar_base_pj: 0.6,
            xbar_per_port_pj: 0.18,
            xbar_input_wire_pj: 0.5,
            passthrough_mux_pj: 0.3,
            flow_access_per_log2_entry_pj: 0.08,
            link_per_span_pj: 1.2,
        }
    }
}

impl Default for TechnologyParams {
    fn default() -> Self {
        Self::nm32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_process() {
        let t = TechnologyParams::default();
        assert_eq!(t.feature_nm, 32.0);
        assert_eq!(t.vdd, 0.9);
        assert!(t.sram_mm2_per_bit > 0.0);
    }
}
