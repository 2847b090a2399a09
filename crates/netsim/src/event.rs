//! Timed event queue used for flit deliveries, credit returns, ACK/NACK
//! messages, and preemption probes.
//!
//! Almost all delays in the simulated network are small constants (wire
//! delays, credit return latency, ACK network latency), so the default queue
//! is a fixed-horizon **timing wheel**: scheduling and draining an event is a
//! vector push/take on the slot for its due cycle, with no per-event
//! comparisons. Events due at the very next drain — the dominant case — take
//! a flat fast lane that reuses one contiguous buffer every cycle. Events
//! beyond the wheel horizon — rare long ACK delays on very tall networks —
//! spill into a binary-heap overflow lane and are merged back when they
//! mature, so ordering is exactly that of a single heap keyed by
//! `(due, seq)`: deterministic FIFO per cycle.
//!
//! Constructing the queue with a zero horizon ([`EventQueue::with_horizon`])
//! degenerates to the original pure binary-heap implementation, which the
//! reference engine uses: the wheel's oracle.

use crate::config::EngineKind;
use crate::ids::{Cycle, FlowId, PacketId, VcId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled for a future cycle.
///
/// The variants are deliberately narrow: router/sink/source indices are
/// `u32`, port and target indices `u16`, and fields the event application
/// never reads (a flit's flow, a router flit's tail flag) are not carried at
/// all. Head and body flit maturation are separate variants, so the per-flit
/// payload of a multi-flit packet is a 24-byte copy of a template built once
/// per transfer (see `Transfer::body_event`) rather than a re-assembled wide
/// record — the event queue stores millions of these under saturation, and
/// the wheel-slot traffic is the dominant common cost of both engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A head flit matures at a router input VC, claiming it for `packet`.
    HeadToRouter {
        /// Destination router index.
        router: u32,
        /// Destination input port.
        in_port: u16,
        /// Destination VC.
        vc: VcId,
        /// Packet length in flits.
        len: u8,
        /// Packet the flit belongs to.
        packet: PacketId,
    },
    /// A body (or tail) flit matures at a router input VC.
    BodyToRouter {
        /// Destination router index.
        router: u32,
        /// Destination input port.
        in_port: u16,
        /// Destination VC.
        vc: VcId,
        /// Packet the flit belongs to.
        packet: PacketId,
    },
    /// A flit matures at an ejection sink slot.
    FlitToSink {
        /// Destination sink index.
        sink: u32,
        /// Destination slot.
        slot: VcId,
        /// Whether this is the head flit.
        is_head: bool,
        /// Whether this is the tail flit.
        is_tail: bool,
        /// Packet the flit belongs to.
        packet: PacketId,
    },
    /// A credit (freed VC) returns to an upstream router output port.
    CreditToRouter {
        /// Upstream router index.
        router: u32,
        /// Output port at the upstream router.
        out_port: u16,
        /// Target index within the output port.
        target_idx: u16,
        /// Freed VC.
        vc: VcId,
        /// Whether the freed VC was a reserved VC.
        reserved_vc: bool,
    },
    /// A credit (freed injection VC) returns to a source.
    CreditToSource {
        /// Source index.
        source: u32,
        /// Freed injection VC.
        vc: VcId,
    },
    /// Positive acknowledgement: the packet was delivered.
    Ack {
        /// Source index.
        source: u32,
        /// Delivered packet.
        packet: PacketId,
    },
    /// Negative acknowledgement: the packet was discarded by a preemption and
    /// must be retransmitted.
    Nack {
        /// Source index.
        source: u32,
        /// Discarded packet.
        packet: PacketId,
    },
    /// A preemption probe: an upstream packet with higher dynamic priority is
    /// blocked and asks the router holding the contended buffers to discard a
    /// lower-priority resident packet.
    PreemptionProbe {
        /// Router holding the contended input port.
        router: u32,
        /// Contended input port.
        in_port: u16,
        /// Flow of the blocked (contending) packet.
        contender: FlowId,
    },
    /// A DRAM bank finishes servicing a closed-loop request: the reply is
    /// released to the controller's reply port and the freed bank pulls the
    /// next waiting request from the controller's queue.
    DramComplete {
        /// Node index of the memory controller.
        mc: u32,
        /// Bank that completed, within the controller's bank set.
        bank: u16,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct TimedEvent {
    due: Cycle,
    seq: u64,
    event: Event,
}

impl Ord for TimedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: the BinaryHeap is a max-heap but we want the
        // earliest event first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for TimedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Default wheel horizon in cycles. Must be a power of two. Covers every
/// constant delay the simulator schedules (wire spans, credit returns, ACK
/// latencies for columns up to ~250 hops); longer delays take the overflow
/// heap, which is correct but slower.
const DEFAULT_HORIZON: usize = 256;

/// Deterministic future-event queue: timing wheel plus heap overflow lane,
/// with a flat fast lane for next-cycle events.
///
/// Wheel slots store bare events, not `(seq, event)` pairs: the sequence
/// number is only needed where entries of *different* stores can collide on
/// one due cycle, and the stores are totally ordered there by construction.
/// An overflow entry due at cycle `c` was scheduled while
/// `floor <= c - horizon`; a wheel entry due at `c` while
/// `c - horizon < floor < c`; a lane entry while `floor == c`. The floor is
/// monotone and the sequence counter increases with every call, so for any
/// shared due cycle every overflow entry precedes every wheel entry, which
/// precedes every lane entry — the drain below replays exactly the
/// `(due, seq)` order of a single heap without storing `seq` outside the
/// overflow heap.
#[derive(Debug)]
pub struct EventQueue {
    /// Wheel horizon (power of two), or 0 for the pure-heap reference queue.
    horizon: usize,
    /// One slot per cycle in the window `(floor, floor + horizon)`; each slot
    /// holds events in scheduling order, all due exactly at that cycle.
    wheel: Vec<Vec<Event>>,
    /// Events due at exactly `floor`, i.e. at the very next drain — the
    /// dominant case (unit wire delays, credit returns, probes). One reused
    /// contiguous buffer that stays cache-hot instead of ring-walking a
    /// different wheel slot every cycle.
    lane: Vec<Event>,
    /// Events scheduled beyond the wheel horizon, ordered by `(due, seq)`.
    overflow: BinaryHeap<TimedEvent>,
    /// Next scheduling sequence number (FIFO tie-breaker in the overflow).
    seq: u64,
    /// Total events currently scheduled (wheel + lane + overflow).
    pending: usize,
    /// Events currently in wheel slots (subset of `pending`).
    wheel_pending: usize,
    /// Earliest cycle that has not been drained yet.
    floor: Cycle,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::with_horizon(DEFAULT_HORIZON)
    }
}

impl EventQueue {
    /// Creates an empty queue with the default wheel horizon.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue with the given wheel horizon. A horizon of 0
    /// disables the wheel entirely: every event goes through the binary heap,
    /// reproducing the original queue.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is neither 0 nor a power of two.
    pub fn with_horizon(horizon: usize) -> Self {
        assert!(
            horizon == 0 || horizon.is_power_of_two(),
            "wheel horizon must be 0 or a power of two, got {horizon}"
        );
        EventQueue {
            horizon,
            wheel: (0..horizon).map(|_| Vec::new()).collect(),
            lane: Vec::new(),
            overflow: BinaryHeap::new(),
            seq: 0,
            pending: 0,
            wheel_pending: 0,
            floor: 0,
        }
    }

    /// Creates the queue matching an engine selection.
    pub fn for_engine(engine: EngineKind) -> Self {
        if engine.is_reference() {
            EventQueue::with_horizon(0)
        } else {
            EventQueue::new()
        }
    }

    /// Schedules `event` to fire at cycle `due`. Cycles already drained are
    /// clamped forward: the event fires at the next drain, matching the
    /// behaviour of the original heap queue (which could never pop an event
    /// before the drain following its scheduling).
    pub fn schedule(&mut self, due: Cycle, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.pending += 1;
        let due = due.max(self.floor);
        if self.horizon == 0 {
            self.overflow.push(TimedEvent { due, seq, event });
        } else if due == self.floor {
            self.lane.push(event);
        } else if due < self.floor + self.horizon as Cycle {
            self.wheel[(due as usize) & (self.horizon - 1)].push(event);
            self.wheel_pending += 1;
        } else {
            self.overflow.push(TimedEvent { due, seq, event });
        }
    }

    /// Pops all events due at or before `now`, in `(due, seq)` order —
    /// deterministic FIFO per cycle — appending them to `out`.
    ///
    /// The caller supplies the output buffer so steady-state draining does
    /// not allocate.
    pub fn drain_due_into(&mut self, now: Cycle, out: &mut Vec<Event>) {
        if now < self.floor {
            return;
        }
        if self.pending == 0 {
            self.floor = now + 1;
            return;
        }
        if self.horizon == 0 {
            while let Some(head) = self.overflow.peek() {
                if head.due > now {
                    break;
                }
                out.push(self.overflow.pop().expect("peeked event exists").event);
                self.pending -= 1;
            }
            self.floor = now + 1;
            return;
        }
        // Hot path: every pending event sits in the flat lane, due exactly at
        // the current floor. Hand the whole buffer over without copying.
        if self.wheel_pending == 0 && self.overflow.is_empty() {
            self.pending -= self.lane.len();
            if out.is_empty() {
                std::mem::swap(out, &mut self.lane);
            } else {
                out.append(&mut self.lane);
            }
            self.floor = now + 1;
            return;
        }
        let mask = self.horizon - 1;
        // Wheel slots only cover cycles in `[floor, floor + horizon)`.
        let window_end = now.min(self.floor + self.horizon as Cycle - 1);
        let mut cycle = self.floor;
        // Visit each undrained in-window cycle up to `now`. Per cycle the
        // `(due, seq)` order is overflow entries, then the wheel slot, then
        // (at the floor cycle) the flat lane — see the struct-level ordering
        // argument.
        while cycle <= window_end {
            while let Some(head) = self.overflow.peek() {
                if head.due > cycle {
                    break;
                }
                out.push(self.overflow.pop().expect("peeked event exists").event);
                self.pending -= 1;
            }
            let slot_idx = (cycle as usize) & mask;
            let slot_len = self.wheel[slot_idx].len();
            if slot_len > 0 {
                self.wheel_pending -= slot_len;
                self.pending -= slot_len;
                // Drain in place so the slot keeps its capacity and
                // steady-state scheduling never reallocates; `append` would
                // move the slot's buffer out and leave an empty Vec behind.
                #[allow(clippy::extend_with_drain)]
                out.extend(self.wheel[slot_idx].drain(..));
            }
            if cycle == self.floor && !self.lane.is_empty() {
                // Next-cycle events of the previous step: due at the old
                // floor, scheduled after every wheel entry of that cycle.
                self.pending -= self.lane.len();
                out.append(&mut self.lane);
            }
            if self.wheel_pending == 0 {
                break;
            }
            cycle += 1;
        }
        // Anything left in overflow and due by `now` fires after the window:
        // the wheel holds nothing beyond `window_end`, so plain heap order
        // (due, seq) is already the correct global order.
        while let Some(head) = self.overflow.peek() {
            if head.due > now {
                break;
            }
            out.push(self.overflow.pop().expect("peeked event exists").event);
            self.pending -= 1;
        }
        self.floor = now + 1;
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// The cycle of the earliest scheduled event, if any. O(horizon); used
    /// for diagnostics and tests, not on the hot path.
    pub fn next_due(&self) -> Option<Cycle> {
        let mut earliest: Option<Cycle> = self.overflow.peek().map(|e| e.due);
        if self.horizon != 0 {
            if !self.lane.is_empty() {
                let floor = self.floor;
                earliest = Some(earliest.map_or(floor, |e| e.min(floor)));
            }
            let mask = self.horizon - 1;
            for cycle in self.floor..self.floor + self.horizon as Cycle {
                if !self.wheel[(cycle as usize) & mask].is_empty() {
                    earliest = Some(earliest.map_or(cycle, |e| e.min(cycle)));
                    break;
                }
            }
        }
        earliest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EventQueue {
        /// Pops all events due at or before `now`, in scheduling order.
        pub(crate) fn drain_due(&mut self, now: Cycle) -> Vec<Event> {
            let mut due = Vec::new();
            self.drain_due_into(now, &mut due);
            due
        }
    }

    fn ack(source: usize) -> Event {
        Event::Ack {
            source: source as u32,
            packet: PacketId(source as u64),
        }
    }

    #[test]
    fn events_are_narrow() {
        // The queue stores millions of events; regressing the size of the
        // widest variant is a real throughput regression.
        assert!(std::mem::size_of::<Event>() <= 24);
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(10, ack(0));
        q.schedule(5, ack(1));
        q.schedule(7, ack(2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_due(), Some(5));

        let due = q.drain_due(7);
        assert_eq!(due, vec![ack(1), ack(2)]);
        assert_eq!(q.len(), 1);

        let due = q.drain_due(20);
        assert_eq!(due, vec![ack(0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn same_cycle_events_preserve_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(3, ack(i));
        }
        let due = q.drain_due(3);
        let expected: Vec<Event> = (0..10).map(ack).collect();
        assert_eq!(due, expected);
    }

    #[test]
    fn nothing_due_before_time() {
        let mut q = EventQueue::new();
        q.schedule(100, ack(0));
        assert!(q.drain_due(99).is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn wheel_and_heap_queues_agree_on_order() {
        // Drive both queue flavours through an adversarial schedule (in- and
        // out-of-window delays, same-cycle collisions, interleaved drains)
        // and demand identical drain sequences.
        let mut lcg = 12345u64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut wheel = EventQueue::with_horizon(8);
        let mut heap = EventQueue::with_horizon(0);
        let mut now = 0;
        for i in 0..2_000u64 {
            let delay = match next() % 5 {
                0 => 1,
                1 => 2,
                2 => 4,
                3 => 7,
                // Far beyond the 8-cycle horizon: exercises the overflow
                // lane and its merge-back.
                _ => 9 + next() % 30,
            };
            wheel.schedule(now + delay, ack(i as usize));
            heap.schedule(now + delay, ack(i as usize));
            if next() % 3 == 0 {
                now += 1 + next() % 3;
                assert_eq!(
                    wheel.drain_due(now),
                    heap.drain_due(now),
                    "diverged at {now}"
                );
            }
        }
        now += 64;
        assert_eq!(wheel.drain_due(now), heap.drain_due(now));
        assert!(wheel.is_empty());
        assert!(heap.is_empty());
    }

    #[test]
    fn overflow_events_merge_in_scheduling_order() {
        let mut q = EventQueue::with_horizon(4);
        // seq 0: far event (overflow lane), due 10.
        q.schedule(10, ack(0));
        q.drain_due(7); // window is now [8, 12): due 10 stays in overflow.
                        // seq 1: near event, same due cycle, lands in the wheel.
        q.schedule(10, ack(1));
        // The overflow event was scheduled first and must fire first.
        assert_eq!(q.drain_due(10), vec![ack(0), ack(1)]);
    }

    #[test]
    fn next_cycle_lane_fires_after_earlier_wheel_entries() {
        let mut q = EventQueue::with_horizon(8);
        // seq 0: scheduled two cycles ahead, lands in the wheel slot for 2.
        q.schedule(2, ack(0));
        q.drain_due(1); // floor is now 2
                        // seq 1: due at the floor, takes the flat lane.
        q.schedule(2, ack(1));
        // Wheel entry first (scheduled earlier), lane entry second.
        assert_eq!(q.next_due(), Some(2));
        assert_eq!(q.drain_due(2), vec![ack(0), ack(1)]);
        assert!(q.is_empty());
    }

    #[test]
    fn stale_due_cycles_fire_at_next_drain() {
        let mut q = EventQueue::new();
        q.drain_due(50);
        q.schedule(10, ack(0)); // already in the past: clamped forward
        assert_eq!(q.next_due(), Some(51));
        assert_eq!(q.drain_due(51), vec![ack(0)]);
    }

    #[test]
    fn drain_into_reuses_buffer_without_reallocating() {
        let mut q = EventQueue::new();
        let mut buf = Vec::with_capacity(16);
        for round in 0..100u64 {
            for i in 0..8 {
                q.schedule(round + 1, ack(i));
            }
            buf.clear();
            q.drain_due_into(round + 1, &mut buf);
            assert_eq!(buf.len(), 8);
            // The fast lane hands its buffer to the caller by swap, so the
            // capacity may alternate between the two warmed buffers — but
            // steady-state draining must never allocate a bigger one.
            assert!(
                buf.capacity() <= 16,
                "steady-state drain must not grow: capacity {}",
                buf.capacity()
            );
        }
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_horizon_is_rejected() {
        EventQueue::with_horizon(12);
    }
}
