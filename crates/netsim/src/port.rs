//! Runtime state of router ports, credits, and in-progress transfers.

use crate::config::SimConfig;
use crate::event::Event;
use crate::ids::{Cycle, FlowId, InPortId, PacketId, VcId};
use crate::spec::{InputPortSpec, OutputPortSpec, TargetEndpoint};
use crate::vc::VcState;

/// Runtime state of one input port: its virtual channels.
#[derive(Debug, Clone)]
pub struct InputPortState {
    /// Virtual channels of the port. The last `reserved` VCs (per the spec)
    /// are flagged as reserved for rate-compliant traffic.
    pub vcs: Vec<VcState>,
    /// Feeder of this port (set when the network is built): the upstream
    /// output port or source that holds credits for this port's VCs.
    pub feeder: Option<Feeder>,
    /// Number of occupied VCs whose route has not been computed yet. A head
    /// flit arrival increments this; the routing phase decrements it when it
    /// assigns the route. Ports (and routers) with no unrouted heads are
    /// skipped by the routing phase entirely.
    pub unrouted: usize,
}

/// Upstream entity that holds credits for an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feeder {
    /// Output port `out_port` (target index `target_idx`) of router `router`.
    RouterOutput {
        /// Upstream router index.
        router: usize,
        /// Output port at the upstream router.
        out_port: usize,
        /// Which target of that output port feeds this input port.
        target_idx: usize,
    },
    /// Source (injector) `source`.
    Source {
        /// Index of the source in the network.
        source: usize,
    },
}

impl InputPortState {
    /// Creates runtime state for an input port from its specification.
    pub fn from_spec(spec: &InputPortSpec) -> Self {
        let count = spec.vcs.count as usize;
        let reserved = spec.vcs.reserved as usize;
        let vcs = (0..count)
            .map(|i| VcState::new(i >= count - reserved))
            .collect();
        InputPortState {
            vcs,
            feeder: None,
            unrouted: 0,
        }
    }

    /// Packets fully resident (and idle) in this port, as preemption victim
    /// candidates: `(vc, packet)` pairs.
    pub fn resident_idle_packets(&self) -> Vec<(VcId, PacketId)> {
        self.vcs
            .iter()
            .enumerate()
            .filter(|(_, vc)| vc.is_resident_idle())
            .filter_map(|(i, vc)| vc.packet().map(|p| (VcId(i as u16), p)))
            .collect()
    }

    /// Number of occupied VCs.
    pub fn occupied_vcs(&self) -> usize {
        self.vcs.iter().filter(|vc| !vc.is_free()).count()
    }
}

/// Credit state for one target (drop-off point) of an output port.
///
/// The output port holds the authoritative free-VC lists of the downstream
/// input port it feeds; credits are consumed when a transfer is granted and
/// returned (after the credit wire delay) when the downstream VC is released.
#[derive(Debug, Clone)]
pub struct TargetCreditState {
    /// Free non-reserved VCs at the downstream input port.
    pub free_normal: Vec<VcId>,
    /// Free reserved VCs at the downstream input port.
    pub free_reserved: Vec<VcId>,
    /// When `true`, buffer space is never a constraint (ideal per-flow
    /// queuing): claiming with empty free lists manufactures a new VC id.
    pub unlimited: bool,
    /// Next VC id to manufacture in unlimited mode.
    next_dynamic: u16,
}

impl TargetCreditState {
    /// Creates credit state for a downstream port with `normal` non-reserved
    /// and `reserved` reserved VCs.
    pub fn new(normal: u8, reserved: u8, unlimited: bool) -> Self {
        let free_normal = (0..u16::from(normal)).map(VcId).collect();
        let free_reserved = (u16::from(normal)..u16::from(normal) + u16::from(reserved))
            .map(VcId)
            .collect();
        TargetCreditState {
            free_normal,
            free_reserved,
            unlimited,
            next_dynamic: u16::from(normal) + u16::from(reserved),
        }
    }

    /// Whether a packet (reserved or not) could claim a VC right now.
    pub fn has_credit(&self, packet_reserved: bool) -> bool {
        if self.unlimited {
            return true;
        }
        if packet_reserved {
            !self.free_normal.is_empty() || !self.free_reserved.is_empty()
        } else {
            !self.free_normal.is_empty()
        }
    }

    /// Claims a VC for a packet, returning the VC and whether it is one of
    /// the reserved VCs. Non-reserved packets may only use normal VCs;
    /// reserved (rate-compliant) packets prefer normal VCs and fall back to
    /// the reserved VC. In unlimited mode (ideal per-flow queuing) a fresh VC
    /// is manufactured when the free lists are exhausted; the downstream port
    /// grows its VC vector on demand.
    pub fn claim(&mut self, packet_reserved: bool) -> Option<(VcId, bool)> {
        if let Some(vc) = self.free_normal.pop() {
            return Some((vc, false));
        }
        if packet_reserved {
            if let Some(vc) = self.free_reserved.pop() {
                return Some((vc, true));
            }
        }
        if self.unlimited {
            let id = self.next_dynamic;
            self.next_dynamic = self.next_dynamic.saturating_add(1);
            return Some((VcId(id), false));
        }
        None
    }

    /// Returns a credit for `vc` (the downstream VC was released).
    pub fn refund(&mut self, vc: VcId, was_reserved_vc: bool) {
        if was_reserved_vc {
            self.free_reserved.push(vc);
        } else {
            self.free_normal.push(vc);
        }
    }

    /// Total free credits currently available.
    pub fn free_count(&self) -> usize {
        self.free_normal.len() + self.free_reserved.len()
    }
}

/// An in-progress packet transfer from an input VC through an output port to
/// a downstream VC (or sink slot).
#[derive(Debug, Clone)]
pub struct Transfer {
    /// Packet being transferred.
    pub packet: PacketId,
    /// Flow of the packet.
    pub flow: FlowId,
    /// Packet length in flits.
    pub len: u8,
    /// Input port the packet is read from.
    pub from_port: InPortId,
    /// VC at the input port.
    pub from_vc: VcId,
    /// Which target of the output port receives the packet.
    pub target_idx: usize,
    /// Endpoint of that target (cached from the spec).
    pub endpoint: TargetEndpoint,
    /// Downstream VC (or sink slot) claimed for the packet.
    pub to_vc: VcId,
    /// Whether the claimed downstream VC is a reserved VC.
    pub to_vc_reserved: bool,
    /// Number of flits already launched onto the wire.
    pub flits_launched: u8,
    /// Earliest cycle the first flit may be launched (grant cycle plus the
    /// router pipeline latency).
    pub launch_start: Cycle,
    /// Wire delay from the output port to the endpoint.
    pub wire_delay: u32,
    /// Whether this transfer bypasses the crossbar (DPS intermediate hop).
    pub passthrough: bool,
    /// Maturation event template for this packet's non-head flits, built once
    /// at grant time; each body flit schedules a copy of it instead of
    /// re-deriving destination fields per flit.
    pub body_event: Event,
}

impl Transfer {
    /// Whether all flits have been launched.
    pub fn is_complete(&self) -> bool {
        self.flits_launched >= self.len
    }
}

/// Runtime state of one output port (a physical channel).
#[derive(Debug, Clone)]
pub struct OutputPortState {
    /// Granted transfers waiting to launch or currently launching, in grant
    /// order. The head transfer launches its flits first; a short queue lets
    /// back-to-back packets use the channel without pipeline bubbles.
    pub granted: Vec<Transfer>,
    /// Cycle at which the channel may next launch a flit.
    pub link_free_at: Cycle,
    /// Round-robin cursor for arbitration tie-breaking.
    pub rr_cursor: usize,
    /// Per-target credit state.
    pub targets: Vec<TargetCreditState>,
    /// Cumulative flits launched through this port (utilisation statistics).
    pub flits_launched_total: u64,
}

impl OutputPortState {
    /// Creates runtime state for an output port. Credit state is filled in by
    /// the network constructor, which knows the downstream ports.
    pub fn from_spec(spec: &OutputPortSpec) -> Self {
        OutputPortState {
            granted: Vec::new(),
            link_free_at: 0,
            rr_cursor: 0,
            targets: Vec::with_capacity(spec.targets.len()),
            flits_launched_total: 0,
        }
    }

    /// Whether the port can accept another granted transfer (the grant queue
    /// is bounded to keep priority decisions timely).
    pub fn can_grant(&self) -> bool {
        self.granted.len() < SimConfig::GRANT_QUEUE_DEPTH
    }

    /// Flits that remain to be launched across all granted transfers.
    pub fn backlog_flits(&self) -> u32 {
        self.granted
            .iter()
            .map(|t| u32::from(t.len - t.flits_launched))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Direction, NodeId};
    use crate::spec::{InputPortSpec, OutputPortSpec, TargetSpec, VcConfig};

    #[test]
    fn input_port_state_reserved_vcs_are_last() {
        let spec = InputPortSpec::network(
            "in",
            NodeId(0),
            Direction::South,
            0,
            VcConfig::with_reserved(4, 4, 1),
            0,
        );
        let state = InputPortState::from_spec(&spec);
        assert_eq!(state.vcs.len(), 4);
        assert!(!state.vcs[0].reserved_vc());
        assert!(!state.vcs[2].reserved_vc());
        assert!(state.vcs[3].reserved_vc());
        assert_eq!(state.occupied_vcs(), 0);
    }

    #[test]
    fn resident_packets_are_reported() {
        let spec = InputPortSpec::injection("in", VcConfig::new(2, 4), 0);
        let mut state = InputPortState::from_spec(&spec);
        state.vcs[1].accept_head(PacketId(9), 1);
        let resident = state.resident_idle_packets();
        assert_eq!(resident, vec![(VcId(1), PacketId(9))]);
        assert_eq!(state.occupied_vcs(), 1);
    }

    #[test]
    fn credits_respect_reservation_rules() {
        let mut credits = TargetCreditState::new(2, 1, false);
        assert_eq!(credits.free_count(), 3);
        assert!(credits.has_credit(false));
        // Non-reserved packets drain the two normal VCs only.
        let (a, a_res) = credits.claim(false).unwrap();
        let (b, _) = credits.claim(false).unwrap();
        assert_ne!(a, b);
        assert!(!a_res);
        assert!(!credits.has_credit(false));
        assert!(credits.claim(false).is_none());
        // A reserved packet can still claim the reserved VC.
        assert!(credits.has_credit(true));
        let (c, c_res) = credits.claim(true).unwrap();
        assert_eq!(c, VcId(2));
        assert!(c_res);
        assert!(!credits.has_credit(true));
        // Refunds restore availability.
        credits.refund(a, false);
        credits.refund(c, true);
        assert!(credits.has_credit(false));
        assert!(credits.has_credit(true));
        assert_eq!(credits.free_count(), 2);
    }

    #[test]
    fn unlimited_credits_never_run_out() {
        let mut credits = TargetCreditState::new(1, 0, true);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(credits.has_credit(false));
            let (vc, reserved) = credits.claim(false).unwrap();
            assert!(!reserved);
            assert!(seen.insert(vc), "dynamic VCs must be unique while claimed");
        }
    }

    #[test]
    fn unlimited_credits_reuse_refunded_vcs() {
        let mut credits = TargetCreditState::new(1, 0, true);
        let (a, _) = credits.claim(false).unwrap();
        credits.refund(a, false);
        let (b, _) = credits.claim(false).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn output_port_grant_queue_limits() {
        let spec = OutputPortSpec::network(
            "out",
            Direction::South,
            0,
            vec![TargetSpec::single(TargetEndpoint::Sink { sink: 0 }, 1)],
        );
        let state = OutputPortState::from_spec(&spec);
        assert!(state.can_grant());
        assert_eq!(state.backlog_flits(), 0);
    }
}
