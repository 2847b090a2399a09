//! Packets, packet classes, and the traffic-generation interface.
//!
//! The simulator models traffic at packet granularity with explicit flit
//! counts. Virtual cut-through flow control transfers whole packets once a
//! virtual channel has been acquired, so individual flits are represented by
//! counters rather than separate objects.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::ids::{Cycle, FlowId, NodeId, PacketId};
use serde::{Deserialize, Serialize};
#[expect(
    clippy::disallowed_types,
    reason = "seed-faithful reference backend; keyed access only, never iterated"
)]
use std::collections::HashMap;

/// Traffic class of a packet.
///
/// The paper's evaluation uses two packet sizes corresponding to request and
/// reply traffic; input buffers are not specialised by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketClass {
    /// Short (single-flit) request, e.g. a read request travelling to a
    /// memory controller.
    Request,
    /// Long (multi-flit) reply, e.g. a cache line returning from a memory
    /// controller.
    Reply,
}

impl PacketClass {
    /// Default packet length in flits for this class with 16-byte links.
    pub fn default_len_flits(self) -> u8 {
        match self {
            PacketClass::Request => 1,
            PacketClass::Reply => 4,
        }
    }
}

/// A packet travelling through the simulated network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique identifier within one simulation run.
    pub(crate) id: PacketId,
    /// Flow (injector) this packet belongs to.
    pub(crate) flow: FlowId,
    /// Source node (the router at which the packet is injected).
    pub(crate) src: NodeId,
    /// Destination node (the router whose terminal consumes the packet).
    pub(crate) dst: NodeId,
    /// Packet length in flits (1..=4 in the paper's configuration).
    pub(crate) len_flits: u8,
    /// Traffic class.
    pub(crate) class: PacketClass,
    /// Cycle at which the packet was generated at the source queue.
    pub(crate) birth: Cycle,
    /// Cycle at which the packet's head flit first entered the network
    /// (injection virtual channel), if it has been injected.
    pub(crate) injected_at: Option<Cycle>,
    /// Whether the packet was sent within its flow's reserved (rate-compliant)
    /// quota for the current frame; reserved packets are never preempted and
    /// may use the reserved virtual channel at each network port.
    pub(crate) reserved: bool,
    /// Number of times this packet has been retransmitted after a preemption.
    pub(crate) retransmissions: u32,
    /// For closed-loop reply packets: the cycle the matching request was
    /// generated at its source, so the round trip can be measured at reply
    /// delivery. `None` for every other packet.
    pub(crate) request_birth: Option<Cycle>,
    /// Source (injector) index that physically injected this packet when it
    /// differs from the flow's own source. Closed-loop replies travel on the
    /// *requester's* flow for QOS and accounting purposes but are injected,
    /// windowed and retransmitted by the memory controller's source; ACK and
    /// NACK messages must route there. `None` means "the flow's source".
    pub(crate) origin_source: Option<u32>,
    /// For closed-loop request packets under a DRAM-backed controller model:
    /// the cache-line address (in line units) the request reads, used by the
    /// controller to derive the bank and row (see
    /// [`crate::closed_loop::DramConfig`]). `None` for every other packet.
    pub(crate) dram_line: Option<u64>,
    /// Logical request sequence number for closed-loop retry matching: a
    /// requester under a [`crate::closed_loop::RetryPolicy`] stamps each
    /// request with its sequence number, the controller copies it onto the
    /// reply, and the requester uses it to pair a reply with the in-flight
    /// (or deferred-for-retry) request it answers. `None` when the retry
    /// layer is disabled.
    pub(crate) req_seq: Option<u64>,
    /// Number of times this packet has been dropped by an injected fault
    /// (dead link, dead router, corrupted flit, controller outage) and
    /// NACKed back for retransmission. Once it exceeds the fault plan's
    /// retransmit budget the packet is abandoned instead of retried.
    pub(crate) fault_drops: u32,
}

impl Packet {
    /// Creates a new packet. The packet starts un-injected and non-reserved.
    pub(crate) fn new(
        id: PacketId,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        len_flits: u8,
        class: PacketClass,
        birth: Cycle,
    ) -> Self {
        Packet {
            id,
            flow,
            src,
            dst,
            len_flits,
            class,
            birth,
            injected_at: None,
            reserved: false,
            retransmissions: 0,
            request_birth: None,
            origin_source: None,
            dram_line: None,
            req_seq: None,
            fault_drops: 0,
        }
    }

    /// Hop distance of this packet's route along a one-dimensional column.
    pub(crate) fn column_hops(&self) -> u32 {
        self.src.column_distance(self.dst)
    }
}

/// A packet requested by a traffic generator, before it is assigned an
/// identifier and bound to a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneratedPacket {
    /// Destination node of the packet.
    pub dst: NodeId,
    /// Packet length in flits.
    pub len_flits: u8,
    /// Traffic class of the packet.
    pub class: PacketClass,
}

/// Source-side traffic generator.
///
/// One generator is attached to every injector (source) in the network. The
/// network polls it once per cycle; a generator may produce at most one
/// packet per cycle (the injection port bandwidth is one flit per cycle, so
/// higher generation rates would only grow the source queue).
///
/// Implementations live in the `taqos-traffic` crate; the trait is defined
/// here so the simulator substrate has no dependency on traffic generation.
pub trait PacketGenerator: Send {
    /// Called once per cycle. Returns a packet description if the source
    /// produces a packet this cycle.
    ///
    /// May also be called after the generator is exhausted; implementations
    /// must then return `None` without side effects (in particular without
    /// consuming entropy), so the simulator can use a single call per cycle
    /// for both generation and idle detection.
    fn generate(&mut self, now: Cycle) -> Option<GeneratedPacket>;

    /// Returns `true` once the generator will never produce another packet.
    ///
    /// Open-loop (rate-driven) generators never become exhausted; fixed
    /// workloads (a budget of packets per source) report exhaustion so the
    /// simulation driver can detect completion.
    fn exhausted(&self) -> bool {
        false
    }
}

/// A generator that never produces traffic. Useful for idle injectors.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleGenerator;

impl PacketGenerator for IdleGenerator {
    fn generate(&mut self, _now: Cycle) -> Option<GeneratedPacket> {
        None
    }

    fn exhausted(&self) -> bool {
        true
    }
}

/// Central store of all live packets in a simulation.
///
/// Virtual channels and transfers reference packets by [`PacketId`]; the
/// store owns the packet metadata so that delivery, preemption and
/// retransmission can update a single authoritative copy.
///
/// Two backends exist (selected by [`crate::config::EngineKind`]):
///
/// * **Slab** (default): a generational arena. A [`PacketId`] encodes the
///   slab slot in its low 32 bits and a *globally monotonic* allocation
///   sequence number in its high 32 bits, so lookups are a bounds-checked
///   array index plus an identifier compare — no hashing on the simulator's
///   hottest path. Freed slots are recycled LIFO; the sequence number makes
///   stale identifiers (e.g. a late ACK for a recycled slot) detectable
///   instead of aliasing. Because the sequence dominates the comparison
///   order, `PacketId` ordering still reflects packet age exactly as the
///   reference backend's sequential identifiers do — QOS tie-breaks such as
///   "preempt the newest packet of the lowest-priority flow" behave
///   identically under both backends.
/// * **Map**: the original `HashMap<PacketId, Packet>` keyed by a sequential
///   counter, kept as the reference engine's store: the slab's oracle.
#[derive(Debug)]
pub(crate) struct PacketStore {
    backend: Backend,
}

#[derive(Debug)]
enum Backend {
    Slab {
        slots: Vec<Slot>,
        /// Dense mirror of the hot packet fields, parallel to `slots` (see
        /// [`HotPacket`]). The routing and arbitration passes read only
        /// destination, flow, length and reserved status per buffered head;
        /// mirroring them into 12-byte records means those scans touch a
        /// fifth of a cache line per packet instead of the full `Packet`
        /// (which spans more than two lines).
        hot: Vec<HotRec>,
        /// Free slot indices, recycled LIFO.
        free: Vec<u32>,
        live: usize,
        /// Allocation sequence, embedded in the high identifier bits so
        /// identifier order equals allocation order.
        next_seq: u32,
    },
    Map {
        #[expect(
            clippy::disallowed_types,
            reason = "seed-faithful reference backend; keyed access only, never iterated"
        )]
        packets: HashMap<PacketId, Packet>,
        next_id: u64,
    },
}

/// Hot fields of a live packet, read on the per-cycle routing/arbitration
/// paths. Returned by value from [`PacketStore::hot`]; the full [`Packet`]
/// stays authoritative for everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HotPacket {
    /// Destination node.
    pub(crate) dst: NodeId,
    /// Flow the packet belongs to.
    pub(crate) flow: FlowId,
    /// Packet length in flits.
    pub(crate) len_flits: u8,
    /// Whether the packet was sent within its flow's reserved quota.
    pub(crate) reserved: bool,
}

/// Packed storage of one [`HotPacket`] plus the slot generation that
/// validates it (stale or freed slots carry [`HOT_FREE`]).
#[derive(Debug, Clone, Copy)]
struct HotRec {
    /// Generation (high identifier bits) of the occupant, [`HOT_FREE`] when
    /// the slot is empty.
    seq: u32,
    dst: u16,
    flow: u16,
    len_flits: u8,
    reserved: u8,
}

/// `seq` sentinel of an empty hot record. The allocation path refuses to
/// hand out this generation (one allocation before the sequence-exhaustion
/// panic it would hit anyway), so the sentinel never collides with a live
/// identifier.
const HOT_FREE: u32 = u32::MAX;

const HOT_EMPTY: HotRec = HotRec {
    seq: HOT_FREE,
    dst: 0,
    flow: 0,
    len_flits: 0,
    reserved: 0,
};

impl HotRec {
    fn of(seq: u32, packet: &Packet) -> Self {
        HotRec {
            seq,
            dst: packet.dst.0,
            flow: packet.flow.0,
            len_flits: packet.len_flits,
            reserved: u8::from(packet.reserved),
        }
    }

    fn view(&self) -> HotPacket {
        HotPacket {
            dst: NodeId(self.dst),
            flow: FlowId(self.flow),
            len_flits: self.len_flits,
            reserved: self.reserved != 0,
        }
    }
}

#[derive(Debug)]
struct Slot {
    /// Full identifier of the current (or most recent) occupant; compared
    /// on lookup to reject stale identifiers after slot recycling.
    current: PacketId,
    packet: Option<Packet>,
}

const SLOT_BITS: u32 = 32;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

fn slab_id(slot: u32, seq: u32) -> PacketId {
    PacketId((u64::from(seq) << SLOT_BITS) | u64::from(slot))
}

fn slab_slot(id: PacketId) -> usize {
    (id.0 & SLOT_MASK) as usize
}

impl Default for PacketStore {
    fn default() -> Self {
        PacketStore::new()
    }
}

impl PacketStore {
    /// Creates an empty slab-backed store.
    pub(crate) fn new() -> Self {
        PacketStore {
            backend: Backend::Slab {
                slots: Vec::new(),
                hot: Vec::new(),
                free: Vec::new(),
                live: 0,
                next_seq: 0,
            },
        }
    }

    /// Creates an empty store backed by the reference `HashMap`.
    pub(crate) fn new_reference() -> Self {
        PacketStore {
            backend: Backend::Map {
                #[expect(
                    clippy::disallowed_types,
                    reason = "seed-faithful reference backend; keyed access only, never iterated"
                )]
                packets: HashMap::new(),
                next_id: 0,
            },
        }
    }

    /// Creates the store matching an engine selection.
    pub(crate) fn for_engine(engine: crate::config::EngineKind) -> Self {
        if engine.is_reference() {
            PacketStore::new_reference()
        } else {
            PacketStore::new()
        }
    }

    /// Allocates an identifier and inserts the packet built for it, returning
    /// the identifier. The closure receives the identifier so the packet can
    /// carry it in its `id` field.
    pub(crate) fn insert_with(&mut self, build: impl FnOnce(PacketId) -> Packet) -> PacketId {
        match &mut self.backend {
            Backend::Slab {
                slots,
                hot,
                free,
                live,
                next_seq,
            } => {
                *live += 1;
                let seq = *next_seq;
                assert!(
                    seq != HOT_FREE,
                    "packet allocation sequence exhausted (2^32 packets)"
                );
                // The assert keeps `seq` below `u32::MAX`, so this cannot wrap.
                *next_seq = seq + 1;
                if let Some(slot_idx) = free.pop() {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "the free list only holds indices of existing slots"
                    )]
                    let slot = &mut slots[slot_idx as usize];
                    let id = slab_id(slot_idx, seq);
                    debug_assert!(slot.packet.is_none(), "free list held an occupied slot");
                    slot.current = id;
                    let packet = build(id);
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "the free list only holds indices of existing slots and hot mirrors slots 1:1"
                    )]
                    {
                        hot[slot_idx as usize] = HotRec::of(seq, &packet);
                    }
                    slot.packet = Some(packet);
                    id
                } else {
                    #[expect(
                        clippy::expect_used,
                        reason = "a slot is pushed only by an allocation, and the assert above caps allocations below u32::MAX, so slots.len() fits in u32"
                    )]
                    let slot_idx = u32::try_from(slots.len()).expect("slab exceeds 2^32 slots");
                    let id = slab_id(slot_idx, seq);
                    let packet = build(id);
                    hot.push(HotRec::of(seq, &packet));
                    slots.push(Slot {
                        current: id,
                        packet: Some(packet),
                    });
                    id
                }
            }
            Backend::Map { packets, next_id } => {
                let id = PacketId(*next_id);
                *next_id += 1;
                let prev = packets.insert(id, build(id));
                assert!(prev.is_none(), "duplicate packet id inserted");
                id
            }
        }
    }

    /// Looks up a packet by identifier. Returns `None` for identifiers whose
    /// packet has been removed, including recycled slab slots (the generation
    /// check rejects stale identifiers).
    pub(crate) fn get(&self, id: PacketId) -> Option<&Packet> {
        match &self.backend {
            Backend::Slab { slots, .. } => {
                let slot = slots.get(slab_slot(id))?;
                if slot.current != id {
                    return None;
                }
                slot.packet.as_ref()
            }
            Backend::Map { packets, .. } => packets.get(&id),
        }
    }

    /// Looks up the hot fields of a live packet (destination, flow, length,
    /// reserved status) by identifier. On the slab backend this reads the
    /// dense 12-byte mirror instead of the full packet — the routing,
    /// arbitration and preemption scans use it so their per-head lookups
    /// stay within a fraction of a cache line.
    ///
    /// The mirror is maintained by `insert_with`/`remove`/[`set_reserved`]
    /// (`dst`, `flow` and `len_flits` are immutable after creation;
    /// `reserved` may only be changed through [`set_reserved`]).
    ///
    /// [`set_reserved`]: PacketStore::set_reserved
    #[inline]
    pub(crate) fn hot(&self, id: PacketId) -> Option<HotPacket> {
        match &self.backend {
            Backend::Slab { hot, .. } => {
                let rec = hot.get(slab_slot(id))?;
                if rec.seq != (id.0 >> SLOT_BITS) as u32 {
                    return None;
                }
                debug_assert_eq!(
                    Some(rec.view()),
                    self.get(id).map(|p| HotPacket {
                        dst: p.dst,
                        flow: p.flow,
                        len_flits: p.len_flits,
                        reserved: p.reserved,
                    }),
                    "hot mirror out of sync with packet {id:?}"
                );
                Some(rec.view())
            }
            Backend::Map { packets, .. } => packets.get(&id).map(|p| HotPacket {
                dst: p.dst,
                flow: p.flow,
                len_flits: p.len_flits,
                reserved: p.reserved,
            }),
        }
    }

    /// Sets a live packet's reserved (rate-compliant) status, keeping the
    /// hot mirror in sync. The only hot field that changes after creation;
    /// callers must use this instead of writing through [`get_mut`].
    ///
    /// # Panics
    ///
    /// Panics if the packet is not live.
    ///
    /// [`get_mut`]: PacketStore::get_mut
    pub(crate) fn set_reserved(&mut self, id: PacketId, reserved: bool) {
        match &mut self.backend {
            Backend::Slab { slots, hot, .. } => {
                let slot_idx = slab_slot(id);
                #[expect(
                    clippy::expect_used,
                    reason = "reserved status is only stamped on live queued packets"
                )]
                let packet = slots
                    .get_mut(slot_idx)
                    .filter(|slot| slot.current == id)
                    .and_then(|slot| slot.packet.as_mut())
                    .expect("reserved status set on a dead packet");
                packet.reserved = reserved;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "slot_idx was bounds-checked against slots above and hot mirrors slots 1:1"
                )]
                {
                    hot[slot_idx].reserved = u8::from(reserved);
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "reserved status is only stamped on live queued packets"
            )]
            Backend::Map { packets, .. } => {
                packets
                    .get_mut(&id)
                    .expect("reserved status set on a dead packet")
                    .reserved = reserved;
            }
        }
    }

    /// Looks up a packet mutably by identifier.
    ///
    /// The hot fields (`dst`, `flow`, `len_flits`, `reserved`) must not be
    /// mutated through the returned reference — the slab backend mirrors
    /// them into a dense side array (see [`PacketStore::hot`]); `reserved`
    /// changes go through [`PacketStore::set_reserved`], the rest are
    /// immutable after creation.
    pub(crate) fn get_mut(&mut self, id: PacketId) -> Option<&mut Packet> {
        match &mut self.backend {
            Backend::Slab { slots, .. } => {
                let slot = slots.get_mut(slab_slot(id))?;
                if slot.current != id {
                    return None;
                }
                slot.packet.as_mut()
            }
            Backend::Map { packets, .. } => packets.get_mut(&id),
        }
    }

    /// Removes a packet from the store (on final delivery or discard).
    ///
    /// Out of line on purpose: crate-private, it would otherwise be inlined
    /// into `Network::step`'s delivery path, growing the per-cycle entry
    /// point by 1.2 KB.
    #[inline(never)]
    pub(crate) fn remove(&mut self, id: PacketId) -> Option<Packet> {
        match &mut self.backend {
            Backend::Slab {
                slots,
                hot,
                free,
                live,
                ..
            } => {
                let slot_idx = slab_slot(id);
                let slot = slots.get_mut(slot_idx)?;
                if slot.current != id {
                    return None;
                }
                let packet = slot.packet.take()?;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "slot_idx was bounds-checked against slots above and hot mirrors slots 1:1"
                )]
                {
                    hot[slot_idx] = HOT_EMPTY;
                }
                free.push(slot_idx as u32);
                *live -= 1;
                Some(packet)
            }
            Backend::Map { packets, .. } => packets.remove(&id),
        }
    }

    /// Number of live packets currently tracked.
    pub(crate) fn len(&self) -> usize {
        match &self.backend {
            Backend::Slab { live, .. } => *live,
            Backend::Map { packets, .. } => packets.len(),
        }
    }

    /// Whether the store holds no live packets.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet(id: u64) -> Packet {
        Packet::new(
            PacketId(id),
            FlowId(1),
            NodeId(0),
            NodeId(5),
            4,
            PacketClass::Reply,
            10,
        )
    }

    #[test]
    fn packet_class_lengths_match_paper() {
        assert_eq!(PacketClass::Request.default_len_flits(), 1);
        assert_eq!(PacketClass::Reply.default_len_flits(), 4);
    }

    #[test]
    fn packet_hops_along_column() {
        let p = sample_packet(0);
        assert_eq!(p.column_hops(), 5);
    }

    fn packet_for(id: PacketId) -> Packet {
        Packet::new(
            id,
            FlowId(1),
            NodeId(0),
            NodeId(5),
            4,
            PacketClass::Reply,
            10,
        )
    }

    #[test]
    fn store_allocates_unique_ids() {
        for mut store in [PacketStore::new(), PacketStore::new_reference()] {
            let a = store.insert_with(packet_for);
            let b = store.insert_with(packet_for);
            assert_ne!(a, b);
            assert_eq!(store.len(), 2);
        }
    }

    #[test]
    fn store_insert_get_remove_roundtrip() {
        for mut store in [PacketStore::new(), PacketStore::new_reference()] {
            let id = store.insert_with(packet_for);
            assert_eq!(store.len(), 1);
            assert!(!store.is_empty());
            assert_eq!(store.get(id).unwrap().id, id);
            store.get_mut(id).unwrap().retransmissions = 2;
            assert_eq!(store.get(id).unwrap().retransmissions, 2);
            let removed = store.remove(id).unwrap();
            assert_eq!(removed.retransmissions, 2);
            assert!(store.is_empty());
            assert!(store.get(id).is_none());
            assert!(store.remove(id).is_none());
        }
    }

    #[test]
    fn slab_recycles_slots_with_fresh_generations() {
        let mut store = PacketStore::new();
        let a = store.insert_with(packet_for);
        store.remove(a).unwrap();
        let b = store.insert_with(packet_for);
        // Same slot, different generation: the identifiers must differ and
        // the stale identifier must not alias the new occupant.
        assert_ne!(a, b);
        assert!(store.get(a).is_none());
        assert_eq!(store.get(b).unwrap().id, b);
        let Backend::Slab { slots, .. } = &store.backend else {
            panic!("PacketStore::new uses the slab backend");
        };
        assert_eq!(slots.len(), 1, "slot should be recycled");
    }

    #[test]
    fn slab_interleaved_churn_keeps_ids_distinct() {
        let mut store = PacketStore::new();
        let mut live = Vec::new();
        for round in 0..50u64 {
            let id = store.insert_with(packet_for);
            live.push(id);
            if round % 3 == 0 {
                let victim = live.swap_remove((round as usize * 7) % live.len());
                assert!(store.remove(victim).is_some());
            }
        }
        assert_eq!(store.len(), live.len());
        for id in &live {
            assert_eq!(store.get(*id).unwrap().id, *id);
        }
    }

    #[test]
    fn slab_ids_order_by_allocation_age() {
        // QOS tie-breaks compare PacketIds as a proxy for packet age; the
        // slab must preserve that ordering even across slot recycling.
        let mut store = PacketStore::new();
        let a = store.insert_with(packet_for);
        store.remove(a).unwrap();
        let b = store.insert_with(packet_for); // same slot, later allocation
        let c = store.insert_with(packet_for);
        assert!(a < b, "recycled slot must yield a newer id");
        assert!(b < c, "ids must be monotone in allocation order");
    }

    #[test]
    fn hot_records_stay_packed() {
        assert!(
            std::mem::size_of::<HotRec>() <= 12,
            "HotRec grew past 12 bytes: {}",
            std::mem::size_of::<HotRec>()
        );
    }

    #[test]
    fn hot_view_tracks_packet_lifetime() {
        for mut store in [PacketStore::new(), PacketStore::new_reference()] {
            let id = store.insert_with(packet_for);
            let hot = store.hot(id).unwrap();
            assert_eq!(hot.dst, NodeId(5));
            assert_eq!(hot.flow, FlowId(1));
            assert_eq!(hot.len_flits, 4);
            assert!(!hot.reserved);
            store.set_reserved(id, true);
            assert!(store.hot(id).unwrap().reserved);
            assert!(store.get(id).unwrap().reserved, "full packet must agree");
            store.remove(id).unwrap();
            assert!(store.hot(id).is_none(), "dead ids must not alias hot data");
        }
    }

    #[test]
    fn hot_view_rejects_stale_generations() {
        let mut store = PacketStore::new();
        let a = store.insert_with(packet_for);
        store.set_reserved(a, true);
        store.remove(a).unwrap();
        let b = store.insert_with(packet_for); // recycles a's slot
        assert!(store.hot(a).is_none());
        assert!(
            !store.hot(b).unwrap().reserved,
            "recycled slot must not inherit the old occupant's hot fields"
        );
    }

    #[test]
    fn for_engine_picks_backend() {
        use crate::config::EngineKind;
        let slab = PacketStore::for_engine(EngineKind::Optimized);
        let map = PacketStore::for_engine(EngineKind::Reference);
        assert!(slab.is_empty() && map.is_empty());
    }

    #[test]
    fn idle_generator_generates_nothing() {
        let mut idle = IdleGenerator;
        assert!(idle.generate(0).is_none());
        assert!(idle.exhausted());
    }
}
