//! Runtime state of a virtual channel, packed into a 16-byte record.

use crate::ids::{OutPortId, PacketId};

/// `packet` value of an unoccupied VC.
const NO_PACKET: u64 = u64::MAX;
/// `route` value of a VC whose occupant has no computed route.
const NO_ROUTE: u16 = u16::MAX;
/// Flag bit: the VC is reserved for rate-compliant traffic.
const FLAG_RESERVED_VC: u8 = 1 << 0;
/// Flag bit: the occupying packet owns a granted transfer out of this VC.
const FLAG_GRANTED: u8 = 1 << 1;

/// Runtime state of one virtual channel of an input port.
///
/// With virtual cut-through flow control a VC holds at most one packet at a
/// time; the VC is claimed by the upstream sender (through a credit), filled
/// flit by flit as flits mature after the wire delay, and released once the
/// packet has been completely forwarded onwards (or discarded by preemption).
///
/// The record is packed to 16 bytes (sentinel-encoded options, flag bits
/// instead of `bool`s) so the routing, arbitration and launch passes scan
/// dense cache lines: four VCs per line instead of one and a half with the
/// naive `Option`-field layout.
#[derive(Debug, Clone)]
pub(crate) struct VcState {
    /// Packet currently occupying the VC ([`NO_PACKET`] when free).
    packet: u64,
    /// Output port selected for the occupant ([`NO_ROUTE`] before routing).
    route: u16,
    /// Length in flits of the occupying packet.
    pub(crate) len: u8,
    /// Number of flits of the packet that have arrived (matured) in the VC.
    pub(crate) flits_arrived: u8,
    /// Number of flits already forwarded out of the VC.
    pub(crate) flits_sent: u8,
    /// [`FLAG_RESERVED_VC`] | [`FLAG_GRANTED`].
    flags: u8,
}

impl VcState {
    /// Creates an empty VC.
    pub(crate) fn new(reserved_vc: bool) -> Self {
        VcState {
            packet: NO_PACKET,
            route: NO_ROUTE,
            len: 0,
            flits_arrived: 0,
            flits_sent: 0,
            flags: if reserved_vc { FLAG_RESERVED_VC } else { 0 },
        }
    }

    /// Packet currently occupying the VC (set when its head flit arrives).
    #[inline]
    pub(crate) fn packet(&self) -> Option<PacketId> {
        (self.packet != NO_PACKET).then_some(PacketId(self.packet))
    }

    /// Output port selected for the occupying packet (route computation).
    #[inline]
    pub(crate) fn route(&self) -> Option<OutPortId> {
        (self.route != NO_ROUTE).then_some(OutPortId(self.route as usize))
    }

    /// Records the computed route of the occupying packet. Output port
    /// indices fit the packed field with room to spare:
    /// [`crate::spec::NetworkSpec::validate`] caps a router at 64 outputs.
    #[inline]
    pub(crate) fn set_route(&mut self, out: OutPortId) {
        self.route = out.0 as u16;
    }

    /// Whether this VC is reserved for rate-compliant traffic.
    #[inline]
    pub(crate) fn reserved_vc(&self) -> bool {
        self.flags & FLAG_RESERVED_VC != 0
    }

    /// Whether the packet currently owns a granted transfer out of this VC.
    #[inline]
    pub(crate) fn granted(&self) -> bool {
        self.flags & FLAG_GRANTED != 0
    }

    /// Marks the occupying packet as holding a granted transfer.
    #[inline]
    pub(crate) fn set_granted(&mut self) {
        self.flags |= FLAG_GRANTED;
    }

    /// Whether the complete packet has arrived and nothing has been forwarded
    /// or granted yet — the state in which a packet is eligible as a
    /// preemption victim.
    #[inline]
    pub(crate) fn is_resident_idle(&self) -> bool {
        self.packet != NO_PACKET
            && self.flits_arrived == self.len
            && self.flits_sent == 0
            && !self.granted()
    }

    /// Whether the head flit has matured and the packet has not yet been
    /// granted an output (the state in which it requests VC allocation).
    #[inline]
    pub(crate) fn wants_allocation(&self) -> bool {
        self.packet != NO_PACKET && self.flits_arrived > 0 && !self.granted()
    }

    /// Number of matured flits not yet forwarded.
    #[inline]
    pub(crate) fn sendable_flits(&self) -> u8 {
        self.flits_arrived.saturating_sub(self.flits_sent)
    }

    /// Registers the head flit of `packet` occupying this VC.
    ///
    /// # Panics
    ///
    /// Panics if the VC is already occupied by a different packet.
    pub(crate) fn accept_head(&mut self, packet: PacketId, len: u8) {
        assert!(
            self.packet == NO_PACKET,
            "VC accepting a head flit while occupied"
        );
        debug_assert_ne!(
            packet.0, NO_PACKET,
            "packet id collides with the free sentinel"
        );
        self.packet = packet.0;
        self.len = len;
        self.flits_arrived = 1;
        self.flits_sent = 0;
        self.route = NO_ROUTE;
        self.flags &= FLAG_RESERVED_VC;
    }

    /// Registers the arrival of a non-head flit.
    ///
    /// # Panics
    ///
    /// Panics if the flit does not belong to the occupying packet or would
    /// exceed the packet length.
    pub(crate) fn accept_body(&mut self, packet: PacketId) {
        assert_eq!(self.packet, packet.0, "body flit for wrong packet");
        assert!(
            self.flits_arrived < self.len,
            "more flits arrived than packet length"
        );
        self.flits_arrived += 1;
    }

    /// Resets the VC to the free state and returns the packet it held.
    pub(crate) fn release(&mut self) -> Option<PacketId> {
        let packet = self.packet();
        self.packet = NO_PACKET;
        self.len = 0;
        self.flits_arrived = 0;
        self.flits_sent = 0;
        self.route = NO_ROUTE;
        self.flags &= FLAG_RESERVED_VC;
        packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_records_are_packed() {
        assert!(
            std::mem::size_of::<VcState>() <= 16,
            "VcState grew past 16 bytes: {}",
            std::mem::size_of::<VcState>()
        );
    }

    #[test]
    fn lifecycle_of_a_packet_through_a_vc() {
        let mut vc = VcState::new(false);
        assert_eq!(vc.packet(), None);
        assert!(!vc.wants_allocation());

        vc.accept_head(PacketId(1), 2);
        assert!(vc.packet().is_some());
        assert!(vc.wants_allocation());
        assert!(!vc.is_resident_idle());
        assert_eq!(vc.sendable_flits(), 1);
        assert_eq!(vc.packet(), Some(PacketId(1)));
        assert_eq!(vc.route(), None);

        vc.accept_body(PacketId(1));
        assert!(vc.is_resident_idle());
        assert_eq!(vc.sendable_flits(), 2);

        vc.set_route(OutPortId(3));
        assert_eq!(vc.route(), Some(OutPortId(3)));

        vc.set_granted();
        assert!(!vc.is_resident_idle());
        vc.flits_sent = 2;
        assert_eq!(vc.sendable_flits(), 0);

        let released = vc.release();
        assert_eq!(released, Some(PacketId(1)));
        assert_eq!(vc.packet(), None);
        assert!(!vc.granted());
        assert_eq!(vc.route(), None);
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn cannot_accept_head_while_occupied() {
        let mut vc = VcState::new(false);
        vc.accept_head(PacketId(1), 1);
        vc.accept_head(PacketId(2), 1);
    }

    #[test]
    #[should_panic(expected = "wrong packet")]
    fn body_flit_must_match_packet() {
        let mut vc = VcState::new(false);
        vc.accept_head(PacketId(1), 4);
        vc.accept_body(PacketId(2));
    }

    #[test]
    fn reserved_flag_is_preserved() {
        let mut vc = VcState::new(true);
        assert!(vc.reserved_vc());
        vc.accept_head(PacketId(7), 1);
        vc.set_granted();
        vc.release();
        assert!(vc.reserved_vc(), "release must keep the reserved flag");
        let vc = VcState::new(false);
        assert!(!vc.reserved_vc());
    }
}
