//! The memory-controller component: a bounded request queue and a stall
//! lane in front of address-interleaved DRAM banks, with rate-scaled virtual
//! clocks ordering requests under the priority-aware schedulers.
//!
//! [`MemoryController`] is driven by three calls — [`MemoryController::offer`]
//! for an arriving request, [`MemoryController::pump`] after every arrival
//! and completion, [`MemoryController::complete`] when a bank finishes — and
//! reports what the fabric must do about it as an [`Offer`] verdict and a
//! stream of [`McEffect`]s, in the order they must be applied. It owns no
//! fabric state; statistics and trace events go to the recorders passed in.
//! Deterministic and shared by both engines.

use super::dram::{DramBackpressure, DramConfig, DramScheduler, PagePolicy};
use super::VCLOCK_SCALE;
use crate::ids::{Cycle, FlowId, NodeId, PacketId, VcId};
use crate::stats::NetStats;
use std::collections::VecDeque;
use taqos_telemetry::{TraceEvent, TraceHook};

/// One request at its memory controller: queued, stalled or in service in a
/// DRAM pipeline, or answered at once by an instant controller. Carries
/// everything needed to build the reply, which travels on the requester's
/// flow. Under [`DramScheduler::Fcfs`] the request *packet* is acknowledged
/// and freed at acceptance; under the priority-aware schedulers it stays
/// live (and unacknowledged, and undelivered in the statistics) until bank
/// service starts, so an eviction can NACK it back for a fabric retry —
/// `packet`, `hops` and `len_flits` exist for that deferred bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct McRequest {
    /// Requester flow the reply rides on.
    pub(crate) flow: FlowId,
    /// Requester node the reply is sent to.
    pub(crate) requester: NodeId,
    /// Birth cycle of the request (of its first send, across retries): the
    /// round-trip anchor the reply carries.
    pub(crate) birth: Cycle,
    /// Reply length in flits.
    pub(crate) reply_len: u8,
    /// Cache-line address of the read (unused by an instant controller).
    pub(crate) line: u64,
    /// Cycle the request arrived at the controller.
    pub(crate) arrived: Cycle,
    /// The request packet (still live under priority-aware schedulers).
    pub(crate) packet: PacketId,
    /// Hop count of the request's fabric traversal (delivery statistics and
    /// ACK/NACK latency under deferred delivery).
    pub(crate) hops: u32,
    /// Request packet length in flits (delivery statistics under deferred
    /// delivery).
    pub(crate) len_flits: u8,
    /// Logical sequence number of the request, copied onto the reply so the
    /// requester's retry layer can match it. `None` without a retry policy.
    pub(crate) req_seq: Option<u64>,
}

/// The controller's verdict on an offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Offer {
    /// Admitted to the bounded request queue.
    Accepted,
    /// Queue full under a priority-aware scheduler, and the arrival strictly
    /// outranks the lowest-priority queued request: that victim was evicted
    /// (NACK its still-live packet back to its source for a fabric retry)
    /// and the arrival admitted in its place.
    Evicted(McRequest),
    /// Queue full, Stall backpressure: parked in the stall lane, withholding
    /// its ejection-slot credit until [`McEffect::SlotReleased`].
    Stalled,
    /// Queue full, Nack backpressure: bounced. The delivery must not be
    /// recorded; the packet is NACKed back and retransmitted.
    Rejected,
}

/// What a [`MemoryController::pump`] step asks of the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum McEffect {
    /// Bank service started: schedule the bank's completion `latency` cycles
    /// from now. Under a priority-aware scheduler the request counts as
    /// delivered only now: `ack` is the request whose still-live packet is
    /// to be acknowledged.
    ServiceStarted {
        /// The bank now busy.
        bank: u16,
        /// Service latency in cycles.
        latency: Cycle,
        /// Deferred delivery: the request to acknowledge.
        ack: Option<McRequest>,
    },
    /// A stall-lane arrival moved into the request queue: return the
    /// ejection-slot credit it withheld.
    SlotReleased {
        /// Sink whose slot was withheld.
        sink: usize,
        /// The withheld slot.
        slot: VcId,
    },
}

/// A request held in the stall lane: its ejection-slot credit is withheld
/// until the request queue has room.
#[derive(Debug, Clone, Copy)]
struct Stalled {
    request: McRequest,
    sink: usize,
    slot: VcId,
}

/// One DRAM bank: a busy-until timeline plus the open-row register.
#[derive(Debug, Clone, Default)]
struct Bank {
    /// Cycle at which the in-service request completes. Scheduling idles on
    /// `in_service` alone; this timeline cross-checks that the completion
    /// event fires exactly when promised (debug assertion).
    busy_until: Cycle,
    /// Currently open row, if any access happened yet.
    open_row: Option<u64>,
    /// Request being serviced, if the bank is busy.
    in_service: Option<McRequest>,
}

/// Runtime DRAM state of one memory controller.
#[derive(Debug)]
pub(crate) struct MemoryController {
    /// Node hosting the controller (trace events name it).
    node: u64,
    config: DramConfig,
    /// Requests waiting for a bank, in arrival order (bounded by
    /// [`DramConfig::queue_depth`]).
    queue: VecDeque<McRequest>,
    banks: Vec<Bank>,
    /// Requests admitted past a full queue under Stall backpressure; each
    /// entry withholds its ejection-slot credit until it moves to `queue`.
    stalled: VecDeque<Stalled>,
    /// Per-flow rate-scaled virtual clock: bank time consumed at this
    /// controller scaled by the flow's rate weight. Lower is higher
    /// priority; flushed at frame rollover like the fabric's bandwidth
    /// counters. Only the priority-aware schedulers read or advance it.
    vclock: Vec<u64>,
    /// Per-flow rate weights, one per flow like `vclock`.
    weights: Vec<u64>,
    /// Sum of `weights` (the overdue threshold normaliser).
    total_weight: u64,
}

impl MemoryController {
    /// A drained controller at `node` serving flows of the given positive
    /// rate weights (one per flow of the network).
    pub(crate) fn new(node: NodeId, config: DramConfig, weights: Vec<u64>) -> Self {
        MemoryController {
            node: u64::from(node.0),
            config,
            queue: VecDeque::new(),
            banks: vec![Bank::default(); config.banks],
            stalled: VecDeque::new(),
            vclock: vec![0; weights.len()],
            total_weight: weights.iter().sum::<u64>().max(1),
            weights,
        }
    }

    /// Reprograms the per-flow rate weights. The engine calls this only at
    /// frame rollover (together with [`Self::flush_vclocks`]), so mid-frame
    /// virtual clocks never mix two rate programmes.
    pub(crate) fn set_weights(&mut self, weights: impl Iterator<Item = u64>) {
        self.weights.clear();
        self.weights.extend(weights);
        self.total_weight = self.weights.iter().sum::<u64>().max(1);
    }

    /// Flushes the virtual clocks (frame rollover, mirroring the fabric's
    /// bandwidth-counter flush).
    pub(crate) fn flush_vclocks(&mut self) {
        self.vclock.fill(0);
    }

    /// Whether the controller holds no queued, stalled or in-service work.
    pub(crate) fn is_drained(&self) -> bool {
        self.queue.is_empty()
            && self.stalled.is_empty()
            && self.banks.iter().all(|b| b.in_service.is_none())
    }

    /// Whether admitted requests are recorded delivered (and acknowledged)
    /// only when their bank service starts: the priority-aware schedulers
    /// keep the packet live at its source so an eviction can still NACK it.
    pub(crate) fn defers_delivery(&self) -> bool {
        self.config.scheduler.is_priority_aware()
    }

    /// Admission control for a request arriving in slot `slot` of `sink`:
    /// queue it while the bounded queue has room; past that, park it in the
    /// stall lane (Stall — nothing to evict, under any scheduler) or bounce
    /// a request (Nack): the lowest-priority queued one if the scheduler is
    /// priority-aware and the arrival strictly outranks it, else the
    /// arrival itself.
    pub(crate) fn offer(
        &mut self,
        request: McRequest,
        sink: usize,
        slot: VcId,
        stats: &mut NetStats,
    ) -> Offer {
        if self.queue.len() < self.config.queue_depth {
            self.enqueue(request, stats);
            return Offer::Accepted;
        }
        if self.config.backpressure == DramBackpressure::Stall {
            self.stalled.push_back(Stalled {
                request,
                sink,
                slot,
            });
            stats.record_dram_stall();
            return Offer::Stalled;
        }
        let victim = self
            .defers_delivery()
            .then(|| self.eviction_victim(request.flow))
            .flatten()
            .and_then(|idx| self.queue.remove(idx));
        match victim {
            Some(victim) => {
                self.enqueue(request, stats);
                stats.record_dram_eviction(victim.flow);
                Offer::Evicted(victim)
            }
            None => {
                stats.record_dram_rejection(request.flow);
                Offer::Rejected
            }
        }
    }

    fn enqueue(&mut self, request: McRequest, stats: &mut NetStats) {
        self.queue.push_back(request);
        stats.record_dram_occupancy(self.queue.len());
    }

    /// Drives the pipeline to a fixed point: every idle bank pulls its next
    /// request per the configured [`DramScheduler`] (arrival order for FCFS
    /// and priority admission, row-hit-first with the priority-weighted age
    /// cap for FR-FCFS), and stall-lane arrivals are admitted FIFO while the
    /// bounded queue has room. Each step is reported as it happens.
    pub(crate) fn pump(
        &mut self,
        now: Cycle,
        stats: &mut NetStats,
        trace: &mut TraceHook,
        mut report: impl FnMut(McEffect),
    ) {
        loop {
            let mut progressed = false;
            match self.config.scheduler {
                // Arrival-order bank scheduling: start every startable
                // request, scanning the queue front to back (a younger
                // request may bypass to a different, idle bank).
                DramScheduler::Fcfs | DramScheduler::PriorityAdmission => {
                    let mut i = 0;
                    while let Some(&request) = self.queue.get(i) {
                        let bank = self.config.bank_of(request.line);
                        if self.bank_is_idle(bank) {
                            self.queue.remove(i);
                            report(self.start_service(bank, request, now, stats, trace));
                            progressed = true;
                        } else {
                            i += 1;
                        }
                    }
                }
                // Row-hit-first: each idle bank picks per the FR-FCFS rules.
                DramScheduler::FrFcfs => {
                    for bank in 0..self.banks.len() {
                        let pick = self
                            .bank_is_idle(bank)
                            .then(|| self.frfcfs_pick(bank, now))
                            .flatten()
                            .and_then(|idx| self.queue.remove(idx));
                        if let Some(request) = pick {
                            report(self.start_service(bank, request, now, stats, trace));
                            progressed = true;
                        }
                    }
                }
            }
            while self.queue.len() < self.config.queue_depth {
                let Some(stalled) = self.stalled.pop_front() else {
                    break;
                };
                self.enqueue(stalled.request, stats);
                report(McEffect::SlotReleased {
                    sink: stalled.sink,
                    slot: stalled.slot,
                });
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Bank `bank` finished: frees it and returns the serviced request, now
    /// owed its reply, or `None` if the bank was idle (a completion fires
    /// exactly once per service start, so that is a caller bug). Follow with
    /// [`Self::pump`] to pull waiting work onto the freed bank.
    pub(crate) fn complete(&mut self, bank: usize, now: Cycle) -> Option<McRequest> {
        let bank = self.banks.get_mut(bank)?;
        debug_assert!(bank.in_service.is_none() || bank.busy_until == now);
        bank.in_service.take()
    }

    fn bank_is_idle(&self, bank: usize) -> bool {
        self.banks.get(bank).is_some_and(|b| b.in_service.is_none())
    }

    /// Starts bank service of `request`: charges the page-policy latency
    /// against the bank timeline and records the service. Under a
    /// priority-aware scheduler it also advances the flow's virtual clock
    /// and records the deferred delivery. Shared by every scheduler flavour
    /// so the bank-timeline semantics cannot drift between them.
    fn start_service(
        &mut self,
        bank_idx: usize,
        request: McRequest,
        now: Cycle,
        stats: &mut NetStats,
        trace: &mut TraceHook,
    ) -> McEffect {
        let row = self.config.row_of(request.line);
        #[expect(
            clippy::indexing_slicing,
            reason = "callers pass a bank they just found idle through banks.get()"
        )]
        let bank = &mut self.banks[bank_idx];
        let (hit, latency) = self.config.service_outcome(bank.open_row, row);
        bank.busy_until = now + latency;
        bank.open_row = self.config.row_after_service(row);
        bank.in_service = Some(request);
        stats.record_dram_service(request.flow, hit, request.arrived, now, latency);
        let (flow, mc) = (u64::from(request.flow.0), self.node);
        trace.emit(|| TraceEvent::DramService {
            cycle: now,
            flow,
            mc,
            bank: bank_idx as u64,
            latency,
            row_hit: hit,
        });
        let deferred = self.defers_delivery();
        if deferred {
            self.charge(request.flow, latency);
            stats.record_delivery(
                request.flow,
                request.len_flits,
                request.hops,
                request.birth,
                now,
            );
            trace.emit(|| TraceEvent::Deliver {
                cycle: now,
                flow,
                packet: request.packet.0,
                birth: request.birth,
            });
        }
        McEffect::ServiceStarted {
            bank: bank_idx as u16,
            latency,
            ack: deferred.then_some(request),
        }
    }

    /// Rate weight of `flow` (1 for a flow outside the programme).
    fn weight(&self, flow: FlowId) -> u64 {
        self.weights.get(flow.index()).copied().unwrap_or(1)
    }

    /// Virtual clock of `flow`.
    #[expect(
        clippy::indexing_slicing,
        reason = "vclock is sized to the flow count and request flows are validated against it"
    )]
    fn clock(&self, flow: FlowId) -> u64 {
        self.vclock[flow.index()]
    }

    /// Charges `flow`'s virtual clock for `latency` cycles of bank time,
    /// scaled by its rate weight.
    #[expect(
        clippy::indexing_slicing,
        reason = "vclock is sized to the flow count and request flows are validated against it"
    )]
    fn charge(&mut self, flow: FlowId, latency: Cycle) {
        let charge = latency * VCLOCK_SCALE / self.weight(flow).max(1);
        self.vclock[flow.index()] += charge;
    }

    /// Queue index of the request the priority-admission overflow rule
    /// evicts for an arrival of `arrival_flow`: the queued request with the
    /// worst (largest) virtual clock — the youngest among equals, so
    /// seniority is preserved — provided the arrival **strictly** outranks
    /// it. `None` when no queued request ranks strictly below the arrival
    /// (the arrival is then bounced as a plain overflow).
    fn eviction_victim(&self, arrival_flow: FlowId) -> Option<usize> {
        let arrival_clock = self.clock(arrival_flow);
        let mut worst: Option<(usize, u64)> = None;
        for (idx, request) in self.queue.iter().enumerate() {
            let clock = self.clock(request.flow);
            if worst.is_none_or(|(_, w)| clock >= w) {
                worst = Some((idx, clock));
            }
        }
        worst.and_then(|(idx, clock)| (clock > arrival_clock).then_some(idx))
    }

    /// Queue index of the request an idle `bank` services next under
    /// FR-FCFS: the oldest overdue request (priority-weighted age cap) if
    /// any, else the best open-row hit, else the best remaining request —
    /// "best" ordering by (virtual clock, arrival cycle, queue position).
    /// `None` when no queued request maps to `bank`.
    fn frfcfs_pick(&self, bank: usize, now: Cycle) -> Option<usize> {
        let dram = &self.config;
        let flows = self.weights.len().max(1) as u64;
        let open_row = self.banks.get(bank)?.open_row;
        // (class, vclock, arrived) lexicographic minimum, where class 0 is
        // overdue (compared by age only: vclock field pinned to 0), class 1
        // an open-row hit and class 2 the rest. Scanning in queue order
        // makes the final tiebreak the queue position.
        let mut best: Option<(usize, (u8, u64, Cycle))> = None;
        for (idx, request) in self.queue.iter().enumerate() {
            if dram.bank_of(request.line) != bank {
                continue;
            }
            let age = now.saturating_sub(request.arrived);
            let weight = self.weight(request.flow);
            let key = if dram.is_overdue(age, weight, self.total_weight, flows) {
                (0, 0, request.arrived)
            } else {
                let row = dram.row_of(request.line);
                let hit = dram.page_policy == PagePolicy::Open && open_row == Some(row);
                let class = if hit { 1 } else { 2 };
                (class, self.clock(request.flow), request.arrived)
            };
            if best.is_none_or(|(_, k)| key < k) {
                best = Some((idx, key));
            }
        }
        best.map(|(idx, _)| idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(flow: u16, line: u64, arrived: Cycle) -> McRequest {
        McRequest {
            flow: FlowId(flow),
            requester: NodeId(3),
            birth: 5,
            reply_len: 4,
            line,
            arrived,
            // Tests tell requests apart by packet id: the arrival cycle.
            packet: PacketId(arrived),
            hops: 2,
            len_flits: 1,
            req_seq: None,
        }
    }

    /// What a driven controller reported, in order.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Offer(Offer),
        Effect(McEffect),
        /// Flow of the reply a completion released.
        Reply(u16),
    }

    /// Drives a controller the way the network does: every offer and every
    /// completion is followed by a pump, and everything reported is logged.
    struct Driver {
        mc: MemoryController,
        stats: NetStats,
        log: Vec<Seen>,
    }

    impl Driver {
        fn new(config: DramConfig, flows: usize) -> Self {
            Driver {
                mc: MemoryController::new(NodeId(1), config, vec![1; flows]),
                stats: NetStats::new(flows),
                log: Vec::new(),
            }
        }

        fn pump(&mut self, now: Cycle) {
            let log = &mut self.log;
            self.mc
                .pump(now, &mut self.stats, &mut TraceHook::Off, |e| {
                    log.push(Seen::Effect(e))
                });
        }

        /// Offers `request` (arriving in slot `request.arrived` of sink 7).
        fn offer(&mut self, request: McRequest) {
            let slot = VcId(request.arrived as u16);
            let offer = self.mc.offer(request, 7, slot, &mut self.stats);
            self.log.push(Seen::Offer(offer));
            if offer != Offer::Rejected {
                self.pump(request.arrived);
            }
        }

        fn complete(&mut self, bank: usize, now: Cycle) {
            let served = self.mc.complete(bank, now).expect("bank was busy");
            self.log.push(Seen::Reply(served.flow.0));
            self.pump(now);
        }

        fn take_log(&mut self) -> Vec<Seen> {
            std::mem::take(&mut self.log)
        }
    }

    fn started(bank: u16, latency: Cycle, ack: Option<McRequest>) -> Seen {
        Seen::Effect(McEffect::ServiceStarted { bank, latency, ack })
    }

    fn released(slot: u16) -> Seen {
        Seen::Effect(McEffect::SlotReleased {
            sink: 7,
            slot: VcId(slot),
        })
    }

    /// Queue fills → Stall parks arrivals and withholds exactly their slots
    /// → each bank completion admits the stall lane FIFO and releases
    /// exactly those slots, after the service start that made the room.
    #[test]
    fn stall_lane_withholds_and_releases_exactly_its_own_slots_in_fifo_order() {
        let config = DramConfig::paper()
            .with_banks(1)
            .with_queue_depth(2)
            .with_latencies(10, 30)
            .with_backpressure(DramBackpressure::Stall);
        let mut d = Driver::new(config, 1);
        assert!(d.mc.is_drained());
        // One bank, one row: request 1 starts at once, 2 and 3 fill the
        // queue, 4 and 5 stall. No slot is released while the bank is busy.
        for arrived in 1..=5 {
            d.offer(request(0, arrived, arrived));
        }
        let accepted = Seen::Offer(Offer::Accepted);
        let stalled = Seen::Offer(Offer::Stalled);
        assert_eq!(
            d.take_log(),
            [
                accepted,
                started(0, 30, None),
                Seen::Offer(Offer::Accepted),
                Seen::Offer(Offer::Accepted),
                stalled,
                Seen::Offer(Offer::Stalled),
            ]
        );
        // Each completion starts the oldest queued request (a row hit now),
        // which frees one queue slot, which admits one stalled arrival.
        let table: [(Cycle, Vec<Seen>); 5] = [
            (31, vec![Seen::Reply(0), started(0, 10, None), released(4)]),
            (41, vec![Seen::Reply(0), started(0, 10, None), released(5)]),
            (51, vec![Seen::Reply(0), started(0, 10, None)]),
            (61, vec![Seen::Reply(0), started(0, 10, None)]),
            (71, vec![Seen::Reply(0)]),
        ];
        for (now, expected) in table {
            d.complete(0, now);
            assert_eq!(d.take_log(), expected, "completion at {now}");
        }
        assert!(d.mc.is_drained());
        assert!(d.mc.complete(0, 72).is_none(), "an idle bank has no reply");
        assert_eq!(d.stats.dram.stalled_requests, 2);
        assert_eq!(d.stats.dram.max_queue_occupancy, 2);
        assert_eq!(d.stats.dram.serviced_requests, 5);
    }

    /// Under Nack with a priority-aware scheduler a full queue evicts the
    /// queued request with the worst virtual clock — the youngest among
    /// equals — iff the arrival strictly outranks it, and the victim is
    /// reported before the arrival's own service can start.
    #[test]
    fn priority_admission_evicts_the_worst_clock_youngest_before_serving_the_arrival() {
        // Two banks, one line per row: even lines map to bank 0, odd to 1.
        let config = DramConfig::paper()
            .with_banks(2)
            .with_lines_per_row(1)
            .with_queue_depth(3)
            .with_latencies(10, 30)
            .with_scheduler(DramScheduler::PriorityAdmission);
        let mut d = Driver::new(config, 4);
        // Request 1 occupies bank 0; its delivery is deferred to this
        // service start, so its packet is acknowledged only now.
        d.offer(request(0, 0, 1));
        assert_eq!(
            d.take_log(),
            [
                Seen::Offer(Offer::Accepted),
                started(0, 30, Some(request(0, 0, 1)))
            ]
        );
        d.mc.vclock = vec![10, 50, 50, 5];
        // Requests 2-4 (flows 1, 2, 0) wait for bank 0 and fill the queue.
        for (flow, arrived) in [(1, 2), (2, 3), (0, 4)] {
            d.offer(request(flow, 0, arrived));
        }
        d.take_log();
        // Flow 3 (clock 5) arrives for idle bank 1: flows 1 and 2 tie for
        // the worst clock, the younger (request 3) is evicted, and only then
        // does the arrival start service.
        d.offer(request(3, 1, 5));
        // Flow 2 refills the queue; flow 1 (clock 50) then does not strictly
        // outrank the worst (50) and is bounced; flow 0 (clock 10) does.
        d.offer(request(2, 0, 6));
        d.offer(request(1, 0, 7));
        d.offer(request(0, 0, 8));
        assert_eq!(
            d.take_log(),
            [
                Seen::Offer(Offer::Evicted(request(2, 0, 3))),
                started(1, 30, Some(request(3, 1, 5))),
                Seen::Offer(Offer::Accepted),
                Seen::Offer(Offer::Rejected),
                Seen::Offer(Offer::Evicted(request(2, 0, 6))),
            ]
        );
        assert_eq!(d.stats.dram.evicted_requests, 2);
        assert_eq!(d.stats.dram.rejected_requests, 1);
        // FCFS never evicts: the same overflow bounces the arrival.
        let mut fcfs = Driver::new(config.with_scheduler(DramScheduler::Fcfs), 4);
        for arrived in 1..=5 {
            fcfs.offer(request(3, 0, arrived));
        }
        assert_eq!(fcfs.log.last(), Some(&Seen::Offer(Offer::Rejected)));
    }

    #[test]
    fn frfcfs_prefers_row_hits_then_priority_then_arrival() {
        let dram = DramConfig::paper().with_banks(1).with_lines_per_row(2);
        let mut mc = MemoryController::new(NodeId(0), dram, vec![1; 3]);
        // Bank 0 has row 1 open (lines 2-3). Queue: a row miss (line 0,
        // row 0) ahead of a row hit (line 2, row 1).
        mc.banks[0].open_row = Some(1);
        mc.queue.push_back(request(0, 0, 10));
        mc.queue.push_back(request(1, 2, 11));
        // Row-hit reorder: the younger hit is serviced first.
        assert_eq!(mc.frfcfs_pick(0, 20), Some(1));
        // Priority tiebreak: two misses, the lower virtual clock wins even
        // though it arrived later.
        mc.queue.clear();
        mc.vclock = vec![40, 10, 10];
        mc.queue.push_back(request(0, 0, 10));
        mc.queue.push_back(request(1, 4, 12));
        assert_eq!(mc.frfcfs_pick(0, 20), Some(1));
        // Equal clocks: arrival order decides.
        mc.queue.push_back(request(2, 6, 11));
        assert_eq!(mc.frfcfs_pick(0, 20), Some(2));
        // No queued request for the bank.
        mc.queue.clear();
        assert_eq!(mc.frfcfs_pick(0, 20), None);
    }

    #[test]
    fn frfcfs_age_cap_overrides_row_locality() {
        let dram = DramConfig::paper()
            .with_banks(1)
            .with_lines_per_row(2)
            .with_age_cap(50);
        let mut mc = MemoryController::new(NodeId(0), dram, vec![1; 2]);
        mc.banks[0].open_row = Some(1);
        // An old miss (arrived 0) queued behind a stream of hits.
        mc.queue.push_back(request(0, 0, 0));
        mc.queue.push_back(request(1, 2, 40));
        // Below the cap the hit still wins...
        assert_eq!(mc.frfcfs_pick(0, 49), Some(1));
        // ...at the cap the overdue miss must be serviced first.
        assert_eq!(mc.frfcfs_pick(0, 50), Some(0));
        // Two overdue requests: the older one goes first regardless of
        // priority.
        mc.queue.push_back(request(1, 4, 1));
        mc.vclock = vec![100, 0];
        assert_eq!(mc.frfcfs_pick(0, 500), Some(0));
    }

    #[test]
    fn vclock_charges_scale_with_rate_weight_and_flush() {
        let mut mc = MemoryController::new(NodeId(0), DramConfig::paper(), vec![16, 64]);
        assert_eq!(mc.total_weight, 80);
        mc.charge(FlowId(0), 48);
        mc.charge(FlowId(1), 48);
        // Same bank time, four times the rate: a quarter of the clock.
        assert_eq!(mc.vclock, [48 * VCLOCK_SCALE / 16, 48 * VCLOCK_SCALE / 64]);
        mc.flush_vclocks();
        assert_eq!(mc.vclock, [0, 0], "frame rollover flushes the clocks");
        mc.set_weights([0.25, 0.75].into_iter().map(super::super::rate_weight));
        assert_eq!(
            (mc.weights.as_slice(), mc.total_weight),
            (&[256, 768][..], 1024)
        );
    }
}
