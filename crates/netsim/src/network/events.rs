//! Phase 2: delivery of matured events — flit arrivals, credit returns,
//! ACK/NACK messages, preemption probes, DRAM bank completions — with
//! delivery at a sink, the closed-loop and DRAM hand-offs and the ACK network.
//! Nothing here depends on the engine.

use super::{mark_router, Network};
use crate::closed_loop::{Arrival, McEffect, McRequest, Offer};
use crate::event::{Event, EventQueue};
use crate::ids::{Cycle, FlowId, NodeId, PacketId, VcId};
use crate::packet::{Packet, PacketClass};
use crate::vc::VcState;
use crate::SimConfig;
use taqos_telemetry::TraceEvent;

/// Schedules the return of a sink's ejection-slot credit to the output port
/// feeding it. Shared by normal delivery, DRAM rejection, and the stall
/// lane's deferred release, so the credit semantics cannot drift apart.
fn release_sink_credit(
    events: &mut EventQueue,
    sink_feeders: &[Option<(usize, usize, usize)>],
    now: Cycle,
    sink: usize,
    slot: VcId,
) {
    #[expect(
        clippy::indexing_slicing,
        reason = "sink_feeders has one entry per sink, and callers pass a sink named by a delivery event or by its controller's slot release"
    )]
    if let Some((router, out_port, target_idx)) = sink_feeders[sink] {
        events.schedule(
            now + SimConfig::CREDIT_DELAY,
            Event::CreditToRouter {
                router: router as u32,
                out_port: out_port as u16,
                target_idx: target_idx as u16,
                vc: slot,
                reserved_vc: false,
            },
        );
    }
}

impl Network {
    pub(super) fn phase_events(&mut self) {
        // The drained events are collected into a reusable buffer so the
        // steady-state event phase performs no heap allocation.
        let mut scratch = std::mem::take(&mut self.event_scratch);
        scratch.clear();
        self.events.drain_due_into(self.now, &mut scratch);
        for event in scratch.drain(..) {
            self.apply_event(event);
        }
        self.event_scratch = scratch;
    }

    fn apply_event(&mut self, event: Event) {
        match event {
            Event::HeadToRouter {
                router,
                in_port,
                vc,
                len,
                packet,
            } => {
                let router = router as usize;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "flit events name a target endpoint router that validate() range-checked"
                )]
                let router_state = &mut self.routers[router];
                #[expect(
                    clippy::indexing_slicing,
                    reason = "flit events name a target endpoint port that validate() range-checked"
                )]
                let port = &mut router_state.inputs[in_port as usize];
                if port.vcs.len() <= vc.index() {
                    // VC counts are fully provisioned from the spec at
                    // construction; only ideal per-flow queuing manufactures
                    // VC ids beyond that count.
                    assert!(
                        self.unlimited,
                        "flit addressed VC {} beyond the {} provisioned at router {router} port {in_port}",
                        vc.index(),
                        port.vcs.len(),
                    );
                    port.vcs.resize_with(vc.index() + 1, || VcState::new(false));
                }
                router_state.accept_head(in_port as usize, vc.index(), packet, len);
                mark_router(&mut self.routing_work, router);
                mark_router(&mut self.alloc_work, router);
            }
            Event::BodyToRouter {
                router,
                in_port,
                vc,
                packet,
            } => {
                // Body flits always follow their head into an already-claimed
                // (and, under unlimited buffering, already-grown) VC.
                #[expect(
                    clippy::indexing_slicing,
                    reason = "flit events name a target endpoint router and port that validate() range-checked"
                )]
                let port = &mut self.routers[router as usize].inputs[in_port as usize];
                debug_assert!(vc.index() < port.vcs.len());
                #[expect(
                    clippy::indexing_slicing,
                    reason = "a body flit follows its head into the VC the head claimed, which exists (grown on the head's arrival under unlimited buffering)"
                )]
                port.vcs[vc.index()].accept_body(packet);
            }
            Event::FlitToSink {
                sink,
                slot,
                is_head,
                is_tail,
                packet,
            } => {
                let sink = sink as usize;
                if is_head {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "delivery events name a sink endpoint that validate() range-checked"
                    )]
                    self.sinks[sink].accept_head(slot, packet);
                } else {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "delivery events name a sink endpoint that validate() range-checked"
                    )]
                    self.sinks[sink].accept_body(slot, packet);
                }
                if is_tail {
                    self.complete_delivery(sink, slot);
                }
            }
            Event::CreditToRouter {
                router,
                out_port,
                target_idx,
                vc,
                reserved_vc,
            } => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "credits return to the feeder recorded at construction from a live router"
                )]
                let router_state = &mut self.routers[router as usize];
                #[expect(
                    clippy::indexing_slicing,
                    reason = "the feeder's output port and target index were recorded at construction from this router's spec, which its state mirrors"
                )]
                router_state.outputs[out_port as usize].targets[target_idx as usize]
                    .refund(vc, reserved_vc);
                router_state.mark_output_dirty(out_port as usize);
            }
            Event::CreditToSource { source, vc } => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "source-bound events name a source index: a feeder recorded from the spec's source list, or an ACK source (see ack_source)"
                )]
                self.sources[source as usize].free_vcs.push(vc);
                self.wake_source(source as usize);
            }
            Event::Ack { source, packet } => {
                // A packet left the system (delivered, or abandoned by the
                // fault layer): that is forward progress for the watchdog.
                self.last_progress = self.now;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "source-bound events name a source index: a feeder recorded from the spec's source list, or an ACK source (see ack_source)"
                )]
                self.sources[source as usize].acknowledge(packet);
                self.wake_source(source as usize);
                self.packets.remove(packet);
            }
            Event::Nack { source, packet } => {
                if let Some(pkt) = self.packets.get_mut(packet) {
                    pkt.retransmissions += 1;
                    let (cycle, flow) = (self.now, pkt.flow);
                    self.trace.emit(|| TraceEvent::Nack {
                        cycle,
                        flow: u64::from(flow.0),
                        packet: packet.0,
                    });
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "source-bound events name a source index: a feeder recorded from the spec's source list, or an ACK source (see ack_source)"
                )]
                self.sources[source as usize].retransmit(packet);
                self.wake_source(source as usize);
            }
            Event::PreemptionProbe {
                router,
                in_port,
                contender,
            } => {
                self.handle_preemption_probe(router as usize, in_port as usize, contender);
            }
            Event::DramComplete { mc, bank } => {
                self.handle_dram_complete(mc as usize, bank as usize);
            }
        }
    }

    fn complete_delivery(&mut self, sink: usize, slot: VcId) {
        // Peek at the occupant first: a controller may reject the packet,
        // and a rejected request must not touch the sink's delivery
        // counters (`SinkState::discard` vs `SinkState::complete` below).
        #[expect(
            clippy::indexing_slicing,
            clippy::expect_used,
            reason = "delivery events name a sink endpoint that validate() range-checked, and fire only for occupied sink slots"
        )]
        let packet_id = self.sinks[sink]
            .occupant(slot)
            .expect("completing an empty sink slot");
        #[expect(
            clippy::expect_used,
            reason = "sink slots only ever hold live packet ids"
        )]
        let packet = self
            .packets
            .get(packet_id)
            .expect("delivered packet must be live")
            // A packet is plain scalars: the clone is a flat copy, nothing
            // is allocated.
            .clone();
        let (flow, hops, class) = (packet.flow, packet.column_hops(), packet.class);
        #[expect(
            clippy::indexing_slicing,
            reason = "the delivery event names a live sink (its occupant was just read)"
        )]
        let node = self.sinks[sink].node;
        // A controller outage bounces request-class packets at the dark
        // node: the delivery is not recorded and the packet is NACKed back
        // to its source (or abandoned once the fault retransmit budget is
        // spent), exactly like a DRAM-queue rejection.
        if class == PacketClass::Request && self.fault.as_ref().is_some_and(|f| f.mc_dark(node)) {
            #[expect(
                clippy::indexing_slicing,
                reason = "delivery events name a sink endpoint that validate() range-checked"
            )]
            self.sinks[sink].discard(slot);
            self.stats.fault.mc_outage_rejections += 1;
            release_sink_credit(&mut self.events, &self.sink_feeders, self.now, sink, slot);
            self.fault_bounce(packet_id, packet.dst);
            return;
        }
        // A requester's request reaching its own controller is answered by
        // the closed loop; everything else is ordinary traffic.
        let arrival = match &mut self.closed_loop {
            Some(cl) if class == PacketClass::Request => {
                cl.request_arrived(self.now, node, &packet, sink, slot, &mut self.stats)
            }
            _ => Arrival::Ordinary,
        };
        // A full controller queue under Nack backpressure bounces the
        // request: it does *not* count as delivered, and a NACK over the ACK
        // network has its source (closed-loop requests are always injected
        // by their own flow's source) retransmit it over the fabric.
        let offer = match arrival {
            Arrival::Offered { offer, .. } => Some(offer),
            _ => None,
        };
        if offer == Some(Offer::Rejected) {
            #[expect(
                clippy::indexing_slicing,
                reason = "delivery events name a sink endpoint that validate() range-checked"
            )]
            self.sinks[sink].discard(slot);
            // The flits did occupy the sink slot: free its credit as usual.
            release_sink_credit(&mut self.events, &self.sink_feeders, self.now, sink, slot);
            self.nack(flow, None, packet_id, hops);
            return;
        }
        // Priority-aware schedulers defer a request's delivery (and its ACK)
        // to the start of its bank service: the packet stays live at its
        // source so a later eviction can NACK it for a fabric retry.
        let deferred = matches!(arrival, Arrival::Offered { deferred: true, .. });
        if deferred {
            #[expect(
                clippy::indexing_slicing,
                reason = "delivery events name a sink endpoint that validate() range-checked"
            )]
            self.sinks[sink].discard(slot);
        } else {
            #[expect(
                clippy::indexing_slicing,
                reason = "delivery events name a sink endpoint that validate() range-checked"
            )]
            let completed = self.sinks[sink].complete(slot);
            debug_assert_eq!(completed, packet_id);
            self.stats
                .record_delivery(flow, packet.len_flits, hops, packet.birth, self.now);
            let (cycle, birth) = (self.now, packet.birth);
            self.trace.emit(|| TraceEvent::Deliver {
                cycle,
                flow: u64::from(flow.0),
                packet: packet_id.0,
                birth,
            });
        }
        match arrival {
            Arrival::Ordinary => self.on_reply_delivery(&packet),
            Arrival::Answered(request) => self.release_reply(node, &request),
            Arrival::Offered { .. } => {
                if let Some(Offer::Evicted(victim)) = offer {
                    self.nack(victim.flow, None, victim.packet, victim.hops);
                }
                self.dram_pump(node.index());
            }
        }
        // Free the sink slot credit at the feeding ejection port — unless
        // the controller's stall lane withholds it until its queue has room
        // (`McEffect::SlotReleased`).
        if offer != Some(Offer::Stalled) {
            release_sink_credit(&mut self.events, &self.sink_feeders, self.now, sink, slot);
        }
        if deferred {
            // The ACK fires when the request enters bank service.
            return;
        }
        // Acknowledge delivery over the ACK network.
        let source = self.ack_source(flow, packet.origin_source);
        self.events.schedule(
            self.now + SimConfig::ack_latency(hops),
            Event::Ack {
                source,
                packet: packet_id,
            },
        );
    }

    /// The source an ACK or NACK for a packet of `flow` goes to: the one that
    /// physically injected it. A packet generated at its own flow's source
    /// carries no explicit origin; a closed-loop reply names the memory
    /// controller's source, not the requester flow's.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "flow ids are validated dense against flow_to_source at construction"
    )]
    fn ack_source(&self, flow: FlowId, origin_source: Option<u32>) -> u32 {
        origin_source.unwrap_or_else(|| self.flow_to_source[flow.index()] as u32)
    }

    /// Sends a packet dropped by the fault layer — at a dead or corrupting
    /// link, or at a dark controller — back to its source from node `at`: a
    /// NACK schedules a fabric retransmission, unless the packet has already
    /// burned through the fault plan's retransmit budget, in which case it
    /// is abandoned — acknowledged and removed without ever counting as
    /// delivered. Abandonment guarantees NACK loops against permanently dead
    /// hardware terminate instead of livelocking.
    pub(super) fn fault_bounce(&mut self, packet_id: PacketId, at: NodeId) {
        #[expect(
            clippy::expect_used,
            reason = "fault_bounce is only reached from fault-plan drop handling"
        )]
        let budget = self
            .fault
            .as_ref()
            .expect("fault_bounce requires an installed fault plan")
            .retransmit_budget();
        #[expect(
            clippy::expect_used,
            reason = "dropped packets are in flight, and NACKed ones stay live until acked or abandoned"
        )]
        let packet = self
            .packets
            .get_mut(packet_id)
            .expect("bounced packet must be live");
        packet.fault_drops += 1;
        let abandoned = packet.fault_drops > budget;
        let (flow, origin_source) = (packet.flow, packet.origin_source);
        let due = self.now + SimConfig::ack_latency(packet.src.column_distance(at));
        let source = self.ack_source(flow, origin_source);
        let packet = packet_id;
        if abandoned {
            self.stats.fault.abandoned_packets += 1;
            self.events.schedule(due, Event::Ack { source, packet });
        } else {
            self.events.schedule(due, Event::Nack { source, packet });
        }
    }

    /// NACKs `packet` of `flow`, discarded `hops` from its source, over the
    /// ACK network: the source that injected it (`origin`, see
    /// [`Self::ack_source`]) retransmits it over the fabric. Serves the
    /// closed-loop requests a controller bounces or evicts — always injected
    /// by their own flow's source — and the victims of preemption.
    pub(super) fn nack(&mut self, flow: FlowId, origin: Option<u32>, packet: PacketId, hops: u32) {
        let source = self.ack_source(flow, origin);
        let due = self.now + SimConfig::ack_latency(hops);
        self.events.schedule(due, Event::Nack { source, packet });
    }

    /// A closed-loop reply (marked by the request birth it carries; plain
    /// reply-class traffic passes through untouched) arriving back at its
    /// requester credits the MLP window and records the round trip.
    fn on_reply_delivery(&mut self, packet: &Packet) {
        let (Some(cl), PacketClass::Reply, Some(request_birth)) =
            (&mut self.closed_loop, packet.class, packet.request_birth)
        else {
            return;
        };
        if let Some(requester) = cl.requester_mut(packet.flow) {
            requester.on_reply(packet.req_seq, request_birth, self.now, &mut self.stats);
        }
        // The reply may have reopened the requester's MLP window.
        #[expect(
            clippy::indexing_slicing,
            reason = "flow ids are validated dense against flow_to_source at construction"
        )]
        self.wake_source(self.flow_to_source[packet.flow.index()]);
    }

    /// Creates the reply to `request` at controller `mc_node` and queues it
    /// at the controller's reply port. The reply travels on the requester's
    /// flow (QOS priority and per-flow accounting) but is injected and
    /// retransmitted by the controller's source; it carries the request's
    /// birth so the round trip can be measured at delivery.
    fn release_reply(&mut self, mc_node: NodeId, request: &McRequest) {
        let Some(cl) = &mut self.closed_loop else {
            return;
        };
        let Some(port) = cl.reply_port(mc_node) else {
            debug_assert!(false, "validated: every controller node has a source");
            return;
        };
        let now = self.now;
        let reply_id = self.packets.insert_with(|id| {
            let (dst, len) = (request.requester, request.reply_len);
            let mut reply =
                Packet::new(id, request.flow, mc_node, dst, len, PacketClass::Reply, now);
            reply.request_birth = Some(request.birth);
            reply.origin_source = Some(port as u32);
            reply.req_seq = request.req_seq;
            reply
        });
        cl.replies.push(port, request.flow, reply_id);
        #[expect(
            clippy::indexing_slicing,
            reason = "reply ports are source indices recorded from the spec's source list"
        )]
        let source = &mut self.sources[port];
        source.generated_packets += 1;
        source.generated_flits += u64::from(request.reply_len);
        self.wake_source(port);
    }

    /// A DRAM bank completed: release the reply of the serviced request and
    /// let the controller pull waiting work onto its freed bank.
    fn handle_dram_complete(&mut self, mc_node: usize, bank: usize) {
        let cl = self.closed_loop.as_mut();
        let mc = cl.and_then(|cl| cl.controller_mut(mc_node));
        let served = mc.and_then(|mc| mc.complete(bank, self.now));
        debug_assert!(served.is_some(), "completion event for an idle bank");
        if let Some(request) = served {
            self.release_reply(NodeId(mc_node as u16), &request);
            self.dram_pump(mc_node);
        }
    }

    /// Drives the controller at `mc_node` to a fixed point and applies the
    /// effects it reports, in order, to the event queue, the ACK network and
    /// the sink credits. Called after every arrival and every bank
    /// completion.
    fn dram_pump(&mut self, mc_node: usize) {
        let now = self.now;
        let cl = self.closed_loop.as_mut();
        let Some(mc) = cl.and_then(|cl| cl.controller_mut(mc_node)) else {
            return;
        };
        let (stats, trace) = (&mut self.stats, &mut self.trace);
        mc.pump(now, stats, trace, |effect| match effect {
            McEffect::ServiceStarted { bank, latency, ack } => {
                // Entering bank service is forward progress for the
                // watchdog: a run bottlenecked on DRAM can legitimately go
                // many cycles between fabric deliveries.
                self.last_progress = now;
                if let Some(request) = ack {
                    #[expect(clippy::indexing_slicing, reason = "flow ids are validated dense against flow_to_source at construction")]
                    let source = self.flow_to_source[request.flow.index()] as u32;
                    let packet = request.packet;
                    let due = now + SimConfig::ack_latency(request.hops);
                    self.events.schedule(due, Event::Ack { source, packet });
                }
                let mc = mc_node as u32;
                self.events
                    .schedule(now + latency, Event::DramComplete { mc, bank });
            }
            McEffect::SlotReleased { sink, slot } => {
                release_sink_credit(&mut self.events, &self.sink_feeders, now, sink, slot);
            }
        });
    }
}
