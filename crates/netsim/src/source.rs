//! Runtime state of traffic sources (injectors).
//!
//! A source models one injector of the shared region: either the terminal
//! port of a node or one of the row inputs that carry traffic from the rest
//! of the chip into the QOS-protected column. Each source owns a traffic
//! generator, a source queue, an outstanding-packet window used for
//! retransmission after preemption, and the credits of the injection virtual
//! channel(s) it feeds.

use crate::ids::{Cycle, FlowId, NodeId, PacketId, VcId};
use crate::packet::PacketGenerator;
use crate::spec::SourceSpec;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// An injection transfer in progress: the source streams the packet's flits
/// into the claimed injection VC at one flit per cycle.
#[derive(Debug, Clone)]
pub(crate) struct InjectionTransfer {
    /// Packet being injected.
    pub(crate) packet: PacketId,
    /// Packet length in flits.
    pub(crate) len: u8,
    /// Claimed injection VC.
    pub(crate) vc: VcId,
    /// Flits already pushed into the VC.
    pub(crate) flits_sent: u8,
}

/// Small-set membership container for a source's outstanding packets.
#[derive(Debug, Clone, Default)]
pub(crate) struct Window {
    packets: Vec<PacketId>,
}

impl Window {
    /// Adds a packet to the window.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the packet is already present.
    pub(crate) fn insert(&mut self, packet: PacketId) {
        debug_assert!(!self.contains(packet), "packet already in window");
        self.packets.push(packet);
    }

    /// Removes a packet if present; order is not preserved (membership only).
    pub(crate) fn remove(&mut self, packet: PacketId) {
        if let Some(pos) = self.packets.iter().position(|&p| p == packet) {
            self.packets.swap_remove(pos);
        }
    }

    /// Whether the packet is outstanding.
    pub(crate) fn contains(&self, packet: PacketId) -> bool {
        self.packets.contains(&packet)
    }

    /// Number of outstanding packets.
    pub(crate) fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether no packets are outstanding.
    pub(crate) fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }
}

/// Runtime state of one source.
pub(crate) struct SourceState {
    /// Flow identifier of this source.
    pub(crate) flow: FlowId,
    /// Node this source belongs to.
    pub(crate) node: NodeId,
    /// Router the source injects into.
    pub(crate) router: usize,
    /// Injection input port at that router.
    pub(crate) in_port: crate::ids::InPortId,
    /// Human-readable name.
    pub(crate) name: String,
    /// Traffic generator producing this source's packets.
    pub(crate) generator: Box<dyn PacketGenerator>,
    /// Packets generated but not yet injected. Retransmissions are pushed to
    /// the front so they precede newly generated packets.
    pub(crate) queue: VecDeque<PacketId>,
    /// Outstanding (injected but not yet acknowledged) packets. A plain
    /// vector: the window is small (bounded by `window_limit`) and only
    /// membership is needed, so a linear scan beats hashing every ACK.
    pub(crate) window: Window,
    /// Maximum number of outstanding packets.
    pub(crate) window_limit: usize,
    /// Free injection VCs (credits) at the injection port.
    pub(crate) free_vcs: Vec<VcId>,
    /// Injection transfer currently streaming flits into the router.
    pub(crate) active: Option<InjectionTransfer>,
    /// Flits injected under the reserved (rate-compliant) quota during the
    /// current frame.
    pub(crate) reserved_used_this_frame: u64,
    /// Total packets generated.
    pub(crate) generated_packets: u64,
    /// Total flits generated.
    pub(crate) generated_flits: u64,
    /// Total packets injected (first transmission only).
    pub(crate) injected_packets: u64,
    /// Total retransmissions performed.
    pub(crate) retransmitted_packets: u64,
}

impl SourceState {
    /// Creates runtime state for a source from its specification, attaching
    /// the given traffic generator and the number of injection VCs it feeds.
    pub(crate) fn new(
        spec: &SourceSpec,
        generator: Box<dyn PacketGenerator>,
        injection_vcs: u8,
    ) -> Self {
        SourceState {
            flow: spec.flow,
            node: spec.node,
            router: spec.router,
            in_port: spec.in_port,
            name: spec.name.clone(),
            generator,
            queue: VecDeque::new(),
            window: Window::default(),
            window_limit: spec.window,
            free_vcs: (0..u16::from(injection_vcs)).map(VcId).collect(),
            active: None,
            reserved_used_this_frame: 0,
            generated_packets: 0,
            generated_flits: 0,
            injected_packets: 0,
            retransmitted_packets: 0,
        }
    }

    /// Whether an injection could start this cycle if a packet were at hand:
    /// nothing is streaming, the outstanding window has room and an injection
    /// VC is free.
    pub(crate) fn can_inject(&self) -> bool {
        self.active.is_none() && self.window.len() < self.window_limit && !self.free_vcs.is_empty()
    }

    /// Whether the source can start injecting another packet right now.
    pub(crate) fn can_start_injection(&self) -> bool {
        !self.queue.is_empty() && self.can_inject()
    }

    /// Whether the source has no remaining work: generator exhausted, queue
    /// empty, nothing outstanding, and no active injection.
    pub(crate) fn is_drained(&self) -> bool {
        self.generator.exhausted()
            && self.queue.is_empty()
            && self.window.is_empty()
            && self.active.is_none()
    }

    /// Whether the injection side of the source phase has nothing to do until
    /// an event changes this source: no flit is streaming and no packet —
    /// queued, or (`pending_reply`) waiting at this source's controller reply
    /// port — can start injecting. Outstanding window packets need no
    /// per-cycle work; they move only on an ACK or NACK event. The
    /// generation side (generator, requester window, timers) is the
    /// caller's half of the sleep predicate.
    pub(crate) fn is_dormant(&self, pending_reply: bool) -> bool {
        self.active.is_none() && !((pending_reply || !self.queue.is_empty()) && self.can_inject())
    }

    /// Records a newly generated packet in the source queue.
    pub(crate) fn enqueue_generated(&mut self, packet: PacketId, len_flits: u8) {
        self.queue.push_back(packet);
        self.generated_packets += 1;
        self.generated_flits += u64::from(len_flits);
    }

    /// Handles a positive acknowledgement: the packet left the window.
    pub(crate) fn acknowledge(&mut self, packet: PacketId) {
        self.window.remove(packet);
    }

    /// Handles a negative acknowledgement: the packet is queued again (at the
    /// front) for retransmission.
    pub(crate) fn retransmit(&mut self, packet: PacketId) {
        self.window.remove(packet);
        self.queue.push_front(packet);
        self.retransmitted_packets += 1;
    }

    /// Resets the per-frame reserved-quota usage.
    pub(crate) fn on_frame_rollover(&mut self) {
        self.reserved_used_this_frame = 0;
    }
}

impl std::fmt::Debug for SourceState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceState")
            .field("flow", &self.flow)
            .field("node", &self.node)
            .field("router", &self.router)
            .field("name", &self.name)
            .field("queue_len", &self.queue.len())
            .field("window", &self.window.len())
            .field("window_limit", &self.window_limit)
            .field("free_vcs", &self.free_vcs.len())
            .field("active", &self.active)
            .finish()
    }
}

/// Wake-up timers of sleeping sources (optimized engine): at most one armed
/// timer per source, the earliest cycle at which a time threshold of its
/// requester (phase change, request deadline, retry backoff) makes a visit
/// necessary. A min-heap with lazy invalidation: an entry fires only if it
/// still matches the source's armed cycle, so re-arming earlier leaves a
/// stale entry behind instead of searching the heap. A timer that fires
/// early (its source was woken, moved on and slept again behind a later
/// threshold) costs one no-op visit, after which the source re-arms.
#[derive(Debug, Clone, Default)]
pub(crate) struct WakeTimers {
    /// Armed wake cycle per source ([`Self::NEVER`] = none).
    armed: Vec<Cycle>,
    /// `(cycle, source)` entries, earliest first.
    heap: BinaryHeap<Reverse<(Cycle, u32)>>,
}

impl WakeTimers {
    /// "No timer": later than every reachable cycle.
    pub(crate) const NEVER: Cycle = Cycle::MAX;

    pub(crate) fn new(num_sources: usize) -> Self {
        WakeTimers {
            armed: vec![Self::NEVER; num_sources],
            heap: BinaryHeap::new(),
        }
    }

    /// Ensures `source` is woken no later than cycle `at`.
    pub(crate) fn arm(&mut self, source: usize, at: Cycle) {
        // Armed is sized to the source count and callers pass live source indices.
        let armed = &mut self.armed[source];
        if at < *armed {
            *armed = at;
            self.heap.push(Reverse((at, source as u32)));
        }
    }

    /// Removes and returns one source whose timer is due by `now`.
    pub(crate) fn pop_due(&mut self, now: Cycle) -> Option<usize> {
        while let Some(&Reverse((at, source))) = self.heap.peek() {
            if at > now {
                break;
            }
            self.heap.pop();
            // Heap entries are only ever pushed by arm(), with in-range sources.
            let armed = &mut self.armed[source as usize];
            if *armed == at {
                *armed = Self::NEVER;
                return Some(source as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::InPortId;
    use crate::packet::{IdleGenerator, Packet, PacketClass};

    fn spec() -> SourceSpec {
        SourceSpec {
            flow: FlowId(3),
            node: NodeId(2),
            router: 2,
            in_port: InPortId(0),
            name: "n2.term".to_string(),
            window: 2,
        }
    }

    fn packet(id: u64) -> Packet {
        Packet::new(
            PacketId(id),
            FlowId(3),
            NodeId(2),
            NodeId(0),
            1,
            PacketClass::Request,
            0,
        )
    }

    #[test]
    fn new_source_is_idle_and_drained_with_idle_generator() {
        let s = SourceState::new(&spec(), Box::new(IdleGenerator), 1);
        assert!(!s.can_start_injection());
        assert!(s.is_drained());
        assert_eq!(s.free_vcs.len(), 1);
    }

    #[test]
    fn injection_requires_queue_window_and_credit() {
        let mut s = SourceState::new(&spec(), Box::new(IdleGenerator), 1);
        let p = packet(0);
        s.enqueue_generated(p.id, p.len_flits);
        assert!(s.can_start_injection());
        assert_eq!(s.generated_packets, 1);
        assert_eq!(s.generated_flits, 1);

        // Window full blocks injection.
        s.window.insert(PacketId(10));
        s.window.insert(PacketId(11));
        assert!(!s.can_start_injection());
        s.window.packets.clear();

        // No free VC blocks injection.
        let vc = s.free_vcs.pop().unwrap();
        assert!(!s.can_start_injection());
        s.free_vcs.push(vc);
        assert!(s.can_start_injection());
    }

    #[test]
    fn nack_requeues_at_front() {
        let mut s = SourceState::new(&spec(), Box::new(IdleGenerator), 1);
        s.enqueue_generated(packet(1).id, 1);
        s.enqueue_generated(packet(2).id, 1);
        s.window.insert(PacketId(0));
        s.retransmit(PacketId(0));
        assert_eq!(s.queue.front(), Some(&PacketId(0)));
        assert_eq!(s.retransmitted_packets, 1);
        assert!(s.window.is_empty());
    }

    #[test]
    fn ack_clears_window() {
        let mut s = SourceState::new(&spec(), Box::new(IdleGenerator), 1);
        s.window.insert(PacketId(5));
        s.acknowledge(PacketId(5));
        assert!(s.window.is_empty());
    }

    #[test]
    fn frame_rollover_resets_reserved_usage() {
        let mut s = SourceState::new(&spec(), Box::new(IdleGenerator), 1);
        s.reserved_used_this_frame = 40;
        s.on_frame_rollover();
        assert_eq!(s.reserved_used_this_frame, 0);
    }
}
