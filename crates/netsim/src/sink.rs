//! Runtime state of ejection sinks (terminals of shared resources).
//!
//! A sink models the terminal at a node of the shared region — for example a
//! memory controller port. It exposes a small number of ejection slots
//! (ejection VCs); a slot is occupied while a packet streams in and is freed
//! the cycle its tail flit arrives, at which point the packet counts as
//! delivered.

use crate::ids::{NodeId, PacketId, VcId};
use crate::spec::SinkSpec;

/// One ejection slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct SinkSlot {
    /// Packet currently streaming into the slot.
    pub(crate) packet: Option<PacketId>,
    /// Flits of the packet that have arrived.
    pub(crate) flits_arrived: u8,
}

/// Runtime state of one sink.
#[derive(Debug, Clone)]
pub(crate) struct SinkState {
    /// Node whose terminal this sink models.
    pub(crate) node: NodeId,
    /// Ejection slots.
    pub(crate) slots: Vec<SinkSlot>,
    /// Total packets delivered to this sink.
    pub(crate) delivered_packets: u64,
    /// Total flits delivered to this sink.
    pub(crate) delivered_flits: u64,
}

impl SinkState {
    /// Creates runtime state for a sink from its specification.
    pub(crate) fn from_spec(spec: &SinkSpec) -> Self {
        SinkState {
            node: spec.node,
            slots: vec![SinkSlot::default(); spec.slots as usize],
            delivered_packets: 0,
            delivered_flits: 0,
        }
    }

    /// Registers a head flit arriving at `slot` for `packet`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already occupied by another packet.
    pub(crate) fn accept_head(&mut self, slot: VcId, packet: PacketId) {
        let s = &mut self.slots[slot.index()];
        assert!(s.packet.is_none(), "sink slot already occupied");
        s.packet = Some(packet);
        s.flits_arrived = 1;
    }

    /// Registers a body flit arriving at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the flit does not belong to the packet occupying the slot.
    pub(crate) fn accept_body(&mut self, slot: VcId, packet: PacketId) {
        let s = &mut self.slots[slot.index()];
        assert_eq!(s.packet, Some(packet), "sink body flit for wrong packet");
        s.flits_arrived += 1;
    }

    /// Completes delivery of the packet in `slot`, freeing the slot and
    /// updating delivery counters. Returns the delivered packet.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub(crate) fn complete(&mut self, slot: VcId) -> PacketId {
        let s = &mut self.slots[slot.index()];
        let packet = s.packet.take().expect("completing an empty sink slot");
        self.delivered_packets += 1;
        self.delivered_flits += u64::from(s.flits_arrived);
        s.flits_arrived = 0;
        packet
    }

    /// Packet currently occupying `slot`, if any (without completing it).
    pub(crate) fn occupant(&self, slot: VcId) -> Option<PacketId> {
        self.slots[slot.index()].packet
    }

    /// Discards the packet in `slot`, freeing the slot **without** counting
    /// a delivery. Two DRAM-backed controller paths use this: a request
    /// rejected (NACKed) at a full queue, where the flits arrived
    /// physically but the request was not consumed; and a request admitted
    /// under a priority-aware scheduler, where delivery is deferred to the
    /// start of bank service and recorded in the run statistics only (the
    /// sink's own counters never see it — see
    /// [`crate::network::Network::delivered_flits`]). Returns the discarded
    /// packet.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub(crate) fn discard(&mut self, slot: VcId) -> PacketId {
        let s = &mut self.slots[slot.index()];
        let packet = s.packet.take().expect("discarding an empty sink slot");
        s.flits_arrived = 0;
        packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SinkSpec {
        SinkSpec {
            node: NodeId(0),
            name: "n0.mc".to_string(),
            slots: 2,
        }
    }

    fn occupied(sink: &SinkState) -> usize {
        sink.slots.iter().filter(|s| s.packet.is_some()).count()
    }

    #[test]
    fn delivery_through_a_slot() {
        let mut sink = SinkState::from_spec(&spec());
        assert_eq!(sink.slots.len(), 2);
        assert_eq!(occupied(&sink), 0);

        sink.accept_head(VcId(0), PacketId(7));
        sink.accept_body(VcId(0), PacketId(7));
        assert_eq!(occupied(&sink), 1);

        let delivered = sink.complete(VcId(0));
        assert_eq!(delivered, PacketId(7));
        assert_eq!(sink.delivered_packets, 1);
        assert_eq!(sink.delivered_flits, 2);
        assert_eq!(occupied(&sink), 0);
    }

    #[test]
    fn two_slots_are_independent() {
        let mut sink = SinkState::from_spec(&spec());
        sink.accept_head(VcId(0), PacketId(1));
        sink.accept_head(VcId(1), PacketId(2));
        assert_eq!(occupied(&sink), 2);
        sink.complete(VcId(1));
        assert_eq!(occupied(&sink), 1);
        assert_eq!(sink.delivered_packets, 1);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn head_into_occupied_slot_panics() {
        let mut sink = SinkState::from_spec(&spec());
        sink.accept_head(VcId(0), PacketId(1));
        sink.accept_head(VcId(0), PacketId(2));
    }
}
