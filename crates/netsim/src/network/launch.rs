//! Phase 6: flit launch from one output port, the fault layer's interception
//! of a head launch, and the release of an input VC (shared with preemption).
//! Which outputs are visited is the engine's business (`engine.rs`).

use super::Network;
use crate::config::SimConfig;
use crate::event::Event;
use crate::ids::{Cycle, VcId};
use crate::port::Feeder;
use crate::spec::TargetEndpoint;

impl Network {
    /// Launches the next flit of the head transfer granted at output `oi` of
    /// router `ri`, if the link, the pipeline, the crossbar and the buffered
    /// flits allow. `xbar_used` is the bitmask of the router's crossbar input
    /// groups already used this cycle; `faults_on` says whether any fault of
    /// the installed plan is active, hoisted by the drivers so the
    /// interception below is only entered when one is.
    // taqos-lint: hot
    #[inline]
    pub(super) fn launch_output(
        &mut self,
        ri: usize,
        oi: usize,
        xbar_used: &mut u64,
        faults_on: bool,
    ) {
        let now = self.now;
        let router = &mut self.routers[ri];
        let out_state = &mut router.outputs[oi];
        let Some(transfer) = out_state.granted.first_mut() else {
            return;
        };
        if out_state.link_free_at > now || transfer.launch_start > now {
            return;
        }
        let from_port = transfer.from_port.0;
        let from_vc = transfer.from_vc.index();
        let passthrough = transfer.passthrough;
        // taqos-lint: allow(panic-index) -- xbar_groups is built 1:1 with the router's input ports
        let group = router.xbar_groups[from_port];
        if !passthrough && (*xbar_used >> group) & 1 == 1 {
            return;
        }
        let vc = &mut router.inputs[from_port].vcs[from_vc];
        if vc.sendable_flits() == 0 {
            return;
        }

        // Injected faults intercept whole packets at head launch: a dead
        // output link, a dead router at either end of it, or a corrupted
        // head flit kills the transfer before anything reaches the wire. The
        // drop has whole-packet (virtual cut-through) granularity and fires
        // only once every flit is buffered at this router, so no body flit
        // is ever in flight towards a VC released here; a hard fault simply
        // holds the head until the packet is fully resident. The claimed
        // resources are released exactly as a completed transfer's would be,
        // and the packet is bounced back to its source.
        if let Some(fault) = self.fault.as_ref().filter(|_| faults_on) {
            if transfer.flits_launched == 0 {
                let dest_router_dead = match transfer.endpoint {
                    TargetEndpoint::Router { router, .. } => fault.router_dead(router),
                    TargetEndpoint::Sink { .. } => false,
                };
                let router_dead = fault.router_dead(ri) || dest_router_dead;
                let hard = router_dead || fault.link_dead(ri, oi);
                let resident = vc.flits_arrived >= transfer.len;
                if hard && !resident {
                    return;
                }
                let corrupt =
                    !hard && resident && fault.corrupts(now, ri, oi, transfer.flow.index() as u64);
                if hard || corrupt {
                    if corrupt {
                        self.stats.fault.corruption_drops += 1;
                    } else if router_dead {
                        self.stats.fault.router_drops += 1;
                    } else {
                        self.stats.fault.link_drops += 1;
                    }
                    // No flit will ever consume the downstream VC claimed at
                    // grant time: refund its credit here.
                    out_state.targets[transfer.target_idx]
                        .refund(transfer.to_vc, transfer.to_vc_reserved);
                    let (packet, at) = (transfer.packet, router.node);
                    self.retire_head_transfer(ri, oi);
                    self.release_input_vc(ri, from_port, from_vc);
                    self.fault_bounce(packet, at);
                    return;
                }
            }
        }

        // Launch one flit.
        let flit_idx = transfer.flits_launched;
        let is_head = flit_idx == 0;
        let is_tail = flit_idx + 1 == transfer.len;
        transfer.flits_launched += 1;
        out_state.link_free_at = now + 1;
        out_state.flits_launched_total += 1;
        vc.flits_sent += 1;

        self.stats.energy.buffer_reads += 1;
        self.stats.energy.link_flit_hops += u64::from(transfer.wire_delay);
        if !passthrough {
            *xbar_used |= 1 << group;
            self.stats.energy.xbar_flits += 1;
        }

        let due = now + Cycle::from(transfer.wire_delay);
        let event = match transfer.endpoint {
            TargetEndpoint::Router { router, in_port } => {
                if is_head {
                    Event::HeadToRouter {
                        router: router as u32,
                        in_port: in_port.0 as u16,
                        vc: transfer.to_vc,
                        len: transfer.len,
                        packet: transfer.packet,
                    }
                } else {
                    // Body and tail flits replay the per-packet
                    // template built at grant time.
                    transfer.body_event
                }
            }
            TargetEndpoint::Sink { sink } => {
                if is_head || is_tail {
                    Event::FlitToSink {
                        sink: sink as u32,
                        slot: transfer.to_vc,
                        is_head,
                        is_tail,
                        packet: transfer.packet,
                    }
                } else {
                    transfer.body_event
                }
            }
        };
        let complete = transfer.is_complete();
        self.events.schedule(due, event);

        // Transfer complete: free the upstream VC and return its
        // credit to whoever feeds it.
        if complete {
            self.retire_head_transfer(ri, oi);
            self.release_input_vc(ri, from_port, from_vc);
        }
    }

    /// Removes the head transfer of output `oi` of router `ri` from its
    /// grant queue (it completed, or a fault dropped it). The queue shrank:
    /// `can_grant` may flip, so the output's arbitration decision is stale.
    // taqos-lint: hot
    #[inline]
    fn retire_head_transfer(&mut self, ri: usize, oi: usize) {
        let router = &mut self.routers[ri];
        let granted = &mut router.outputs[oi].granted;
        granted.remove(0);
        if granted.is_empty() {
            router.granted_mask &= !(1 << oi);
        }
        router.mark_output_dirty(oi);
    }

    /// Frees VC `vc` of input port `in_port` at router `ri` — its packet was
    /// forwarded completely, dropped by a fault, or preempted — and returns
    /// the credit to whoever feeds the port: the upstream router's output,
    /// or the injecting source.
    // taqos-lint: hot
    #[inline]
    pub(super) fn release_input_vc(&mut self, ri: usize, in_port: usize, vc: usize) {
        let router = &mut self.routers[ri];
        let port = &mut router.inputs[in_port];
        let vc_state = &mut port.vcs[vc];
        let reserved_vc = vc_state.reserved_vc();
        vc_state.release();
        router.active_vcs -= 1;
        let vc = VcId(vc as u16);
        let credit = match port.feeder {
            Some(Feeder::RouterOutput {
                router,
                out_port,
                target_idx,
            }) => Event::CreditToRouter {
                router: router as u32,
                out_port: out_port as u16,
                target_idx: target_idx as u16,
                vc,
                reserved_vc,
            },
            Some(Feeder::Source { source }) => Event::CreditToSource {
                source: source as u32,
                vc,
            },
            None => return,
        };
        self.events
            .schedule(self.now + SimConfig::CREDIT_DELAY, credit);
    }
}
