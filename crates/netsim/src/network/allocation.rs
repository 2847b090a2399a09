//! Phase 5: virtual-channel allocation at one output port. Which outputs are
//! decided, where their request list comes from and where a flow's priority
//! is read are the engine's business (`engine.rs`).

use super::Network;
use crate::event::Event;
use crate::ids::{Cycle, FlowId, InPortId, VcId};
use crate::port::Transfer;
use crate::qos::RouterQos;
use crate::router::{ArbRequest, RouterState};
use crate::spec::TargetEndpoint;
use taqos_telemetry::TraceEvent;

/// How one output's arbitration ended.
pub(super) enum Verdict {
    /// The request at this index of the list won and holds a grant now.
    Granted(usize),
    /// Every request is blocked on buffer space. Carries the preemption
    /// probe scheduled on behalf of the most deserving one, if any.
    Blocked(Option<Event>),
}

impl Network {
    /// Arbitrates output `oi` of router `ri` among `requests` (non-empty, in
    /// `(in_port, vc)` order), reading each flow's priority through
    /// `priority_of`: grants the request of best priority that has a downstream
    /// buffer, ties broken round-robin from the output's
    /// cursor; or, when every request is blocked and `preemption` is on,
    /// probes the target of the best blocked one for a lower-priority victim.
    #[inline]
    pub(super) fn arbitrate_output(
        &mut self,
        ri: usize,
        oi: usize,
        requests: &[ArbRequest],
        preemption: bool,
        mut priority_of: impl FnMut(&mut RouterState, &dyn RouterQos, FlowId) -> u64,
    ) -> Verdict {
        self.profile.outputs_arbitrated += 1;
        #[expect(
            clippy::indexing_slicing,
            reason = "the drivers pass a live router index; spec.routers, routers and qos are built 1:1"
        )]
        let (rspec, router, qos) = (
            &self.spec.routers[ri],
            &mut self.routers[ri],
            &mut self.qos[ri],
        );
        let n = requests.len();
        // Round-robin distance from the cursor. Equivalent to
        // `(idx + n - rr % n) % n`, with the per-request modulo
        // replaced by a conditional subtract (idx and rr_mod are both
        // below n, so the sum is below 2n).
        #[expect(
            clippy::indexing_slicing,
            reason = "the drivers pass one of this router's outputs, and its states mirror the spec's outputs"
        )]
        let rr_mod = router.outputs[oi].rr_cursor % n.max(1);
        // `blocked` mirrors `filter(!has_credit).min_by_key(priority)`:
        // the first blocked request of minimal priority.
        let mut winner: Option<(usize, &ArbRequest)> = None;
        let mut winner_key = (u64::MAX, usize::MAX);
        let mut blocked: Option<&ArbRequest> = None;
        let mut blocked_priority = u64::MAX;
        for (idx, req) in requests.iter().enumerate() {
            // Priority and credit are read at the decision: grants at earlier
            // outputs this cycle are already visible.
            let priority = priority_of(router, &**qos, req.flow);
            #[expect(
                clippy::indexing_slicing,
                reason = "oi is one of this router's outputs, and target_idx was recorded from that output's target list, which its state mirrors"
            )]
            let target = &router.outputs[oi].targets[req.target_idx as usize];
            if target.has_credit(req.reserved) {
                let distance = idx + n - rr_mod;
                let distance = if distance >= n {
                    distance - n
                } else {
                    distance
                };
                if (priority, distance) < winner_key {
                    winner_key = (priority, distance);
                    winner = Some((idx, req));
                }
            } else if blocked.is_none() || priority < blocked_priority {
                blocked = Some(req);
                blocked_priority = priority;
            }
        }

        let Some((widx, req)) = winner else {
            // Everyone is blocked on buffer space: probe the most deserving
            // blocked request's target for a lower-priority victim (priority
            // inversion resolution).
            let mut probe = None;
            if let (true, Some(req)) = (preemption, blocked) {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "oi is one of this router's outputs, and target_idx was recorded from that output's target list"
                )]
                let target = &rspec.outputs[oi].targets[req.target_idx as usize];
                if let TargetEndpoint::Router { router, in_port } = target.endpoint {
                    let event = Event::PreemptionProbe {
                        router: router as u32,
                        in_port: in_port.0 as u16,
                        contender: req.flow,
                    };
                    self.events.schedule(self.now + 1, event);
                    probe = Some(event);
                }
            }
            return Verdict::Blocked(probe);
        };

        // Grant the winner: claim the downstream VC, queue the transfer and
        // move the round-robin cursor past it.
        #[expect(
            clippy::indexing_slicing,
            reason = "the drivers pass one of this router's outputs, and its states mirror the spec's outputs"
        )]
        let out_state = &mut router.outputs[oi];
        #[expect(
            clippy::indexing_slicing,
            clippy::expect_used,
            reason = "target_idx was recorded from this output's target list, and winners are picked among the requests that have credit"
        )]
        let (to_vc, to_vc_reserved) = out_state.targets[req.target_idx as usize]
            .claim(req.reserved)
            .expect("credit was checked");
        #[expect(
            clippy::indexing_slicing,
            reason = "oi is one of this router's outputs, and target_idx was recorded from that output's target list"
        )]
        let target = &rspec.outputs[oi].targets[req.target_idx as usize];
        let router_latency = if req.passthrough {
            1
        } else {
            rspec.pipeline_latency()
        };
        let launch_start = self.now + Cycle::from(router_latency);
        // The head of an empty queue leaves the pipeline on `launch_start`; a
        // transfer queued behind another is woken when that one retires.
        if out_state.granted.is_empty() {
            self.launch_ring.arm(launch_start, ri, oi);
        }
        // Per-packet flit-maturation template: every non-head
        // flit of this transfer schedules a copy of this event.
        let body_event = match target.endpoint {
            TargetEndpoint::Router { router, in_port } => Event::BodyToRouter {
                router: router as u32,
                in_port: in_port.0 as u16,
                vc: to_vc,
                packet: req.packet,
            },
            TargetEndpoint::Sink { sink } => Event::FlitToSink {
                sink: sink as u32,
                slot: to_vc,
                is_head: false,
                is_tail: false,
                packet: req.packet,
            },
        };
        out_state.granted.push(Transfer {
            packet: req.packet,
            flow: req.flow,
            len: req.len,
            from_port: InPortId(req.in_port as usize),
            from_vc: VcId(req.vc),
            target_idx: req.target_idx as usize,
            endpoint: target.endpoint,
            to_vc,
            to_vc_reserved,
            flits_launched: 0,
            launch_start,
            wire_delay: target.wire_delay,
            passthrough: req.passthrough,
            body_event,
        });
        out_state.rr_cursor = widx + 1;
        let (grant_cycle, grant_flow, grant_packet) = (self.now, req.flow, req.packet);
        self.trace.emit(|| TraceEvent::Grant {
            cycle: grant_cycle,
            flow: u64::from(grant_flow.0),
            packet: grant_packet.0,
            router: ri as u64,
            out_port: oi as u64,
        });
        #[expect(
            clippy::indexing_slicing,
            reason = "request coordinates were recorded from an enumeration of these vectors"
        )]
        router.inputs[req.in_port as usize].vcs[req.vc as usize].set_granted();
        // Flow-state bookkeeping. Pass-through merge points (DPS
        // intermediate hops) arbitrate with the same rate-scaled priorities
        // as everywhere else: in hardware the priority travels with the
        // packet (PVC's priority reuse), so they skip the energy cost of the
        // query/update but still account the bandwidth, which keeps
        // preemption decisions meaningful.
        qos.on_packet_forwarded(req.flow, u32::from(req.len));
        if !req.passthrough {
            self.stats.energy.flow_table_queries += 1;
            self.stats.energy.flow_table_updates += 1;
        }
        Verdict::Granted(widx)
    }
}
