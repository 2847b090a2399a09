//! Phase 3: traffic generation and injection at one source. Which sources
//! are visited, how a reply port picks its reply and whether a source may
//! sleep afterwards are the engine's business (`engine.rs`).

use super::{mark_router, Network};
use crate::closed_loop::PendingReplies;
use crate::ids::{FlowId, PacketId};
use crate::packet::Packet;
use crate::qos::RouterQos;
use crate::router::RouterState;
use crate::source::InjectionTransfer;
use taqos_telemetry::TraceEvent;

impl Network {
    /// Visits source `si` for this cycle: generate (or pull a reply), start
    /// an injection, stream one flit.
    ///
    /// `pick_reply(replies, port, router, qos, scanned)` removes and returns
    /// the reply waiting at reply port `port` whose flow has the best
    /// priority at the port's router (earliest arrival among equals),
    /// counting every priority it reads in `scanned`.
    #[inline]
    pub(super) fn visit_source(
        &mut self,
        si: usize,
        pick_reply: impl FnOnce(
            &mut PendingReplies,
            usize,
            &mut RouterState,
            &dyn RouterQos,
            &mut u64,
        ) -> Option<(PacketId, FlowId)>,
    ) {
        let now = self.now;
        let Network {
            sources,
            routers,
            packets,
            stats,
            policy,
            qos,
            closed_loop,
            last_progress,
            trace,
            routing_work,
            alloc_work,
            profile,
            ..
        } = self;
        #[expect(
            clippy::indexing_slicing,
            reason = "the drivers pass live source indices: every one, or the set bits of source_work"
        )]
        let source = &mut sources[si];
        // 1. Traffic generation — one generator call per cycle. An
        // exhausted generator returns `None` without consuming entropy
        // (the `PacketGenerator` contract), and a source that also has
        // nothing queued or streaming has no per-cycle work at all
        // (outstanding-window packets only need event handling).
        // A closed-loop requester flow issues from its MLP window instead
        // of polling a generator.
        let mut request = None;
        let requester = closed_loop
            .as_mut()
            .and_then(|cl| cl.requester_mut(source.flow));
        let generated = match requester {
            Some(requester) => {
                request = requester.visit(now, stats, trace, last_progress);
                request.map(|r| r.packet)
            }
            None => source.generator.generate(now),
        };
        if let Some(gen) = generated {
            // Generating a packet is forward progress for the watchdog.
            *last_progress = now;
            // `origin_source` stays `None` here: a packet generated at
            // its own flow's source routes ACK/NACK via `flow_to_source`;
            // only controller-injected replies carry an explicit origin.
            let (flow, node) = (source.flow, source.node);
            let id = packets.insert_with(|id| {
                let mut packet =
                    Packet::new(id, flow, node, gen.dst, gen.len_flits, gen.class, now);
                if let Some(request) = request {
                    packet.dram_line = request.line;
                    packet.req_seq = request.seq;
                    packet.request_birth = request.birth;
                }
                packet
            });
            source.enqueue_generated(id, gen.len_flits);
        } else if let Some(cl) = closed_loop.as_mut().filter(|cl| cl.replies.has_pending(si)) {
            // Controller reply port: when the source queue is free, pull
            // the pending reply of the highest-priority flow into it —
            // the controller is a QOS arbitration point, so the reply
            // order follows flow priority, not head-of-line arrival.
            // NACKed replies re-queued at the front drain first.
            if source.queue.is_empty() && source.can_inject() {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "sources are validated to reference live routers, and qos is built 1:1 with them"
                )]
                let (router, router_qos) = (&mut routers[source.router], &*qos[source.router]);
                let scanned = &mut profile.reply_candidates_scanned;
                if let Some((reply, _)) =
                    pick_reply(&mut cl.replies, si, router, router_qos, scanned)
                {
                    source.queue.push_back(reply);
                }
            }
        }

        // 2. Start a new injection if possible.
        if source.can_start_injection() {
            #[expect(
                clippy::expect_used,
                reason = "can_start_injection checked the queue is non-empty"
            )]
            let packet_id = source.queue.pop_front().expect("queue checked non-empty");
            #[expect(
                clippy::expect_used,
                reason = "can_start_injection checked a free VC is available"
            )]
            let vc = source.free_vcs.pop().expect("credit checked available");
            let quota = policy.reserved_quota(source.flow);
            let len = {
                #[expect(
                    clippy::expect_used,
                    reason = "queued ids are removed before their packets are freed"
                )]
                let packet = packets
                    .get_mut(packet_id)
                    .expect("queued packet must be live");
                if packet.injected_at.is_none() {
                    packet.injected_at = Some(now);
                    source.injected_packets += 1;
                    let (flow, node) = (packet.flow, source.node);
                    trace.emit(|| TraceEvent::Inject {
                        cycle: now,
                        flow: u64::from(flow.0),
                        packet: packet_id.0,
                        node: u64::from(node.0),
                    });
                }
                packet.len_flits
            };
            let reserved = match quota {
                Some(q) if source.reserved_used_this_frame + u64::from(len) <= q => {
                    source.reserved_used_this_frame += u64::from(len);
                    true
                }
                _ => false,
            };
            packets.set_reserved(packet_id, reserved);
            source.window.insert(packet_id);
            source.active = Some(InjectionTransfer {
                packet: packet_id,
                len,
                vc,
                flits_sent: 0,
            });
        }

        // 3. Stream one flit of the active injection into the router.
        if let Some(transfer) = &mut source.active {
            #[expect(
                clippy::indexing_slicing,
                reason = "sources are validated to reference live routers"
            )]
            let router = &mut routers[source.router];
            let (in_port, vc) = (source.in_port.0, transfer.vc.index());
            if transfer.flits_sent == 0 {
                router.accept_head(in_port, vc, transfer.packet, transfer.len);
                mark_router(routing_work, source.router);
                mark_router(alloc_work, source.router);
            } else {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "validate() range-checked the source's injection port, and vc was claimed from the credits of that port's VCs"
                )]
                router.inputs[in_port].vcs[vc].accept_body(transfer.packet);
            }
            transfer.flits_sent += 1;
            stats.energy.buffer_writes += 1;
            if transfer.flits_sent >= transfer.len {
                source.active = None;
            }
        }
    }
}
