//! Phase 6: flit launch from one output port, the fault layer's interception
//! of a head launch, and the release of an input VC (shared with preemption);
//! plus the launch ring that wakes an output when its head transfer leaves
//! the router pipeline. Which outputs are visited is the engine's business
//! (`engine.rs`).

use super::{mark_router, Network};
use crate::config::SimConfig;
use crate::event::Event;
use crate::ids::{Cycle, VcId};
use crate::port::Feeder;
use crate::spec::{NetworkSpec, RouterSpec, TargetEndpoint};

/// Outputs whose head transfer is still in the router pipeline, bucketed by
/// the cycle it may launch (`Transfer::launch_start`): one slot per cycle of
/// a power-of-two window longer than the spec's largest pipeline latency, so
/// a slot never holds two different cycles. A slot is laid out like the
/// engine's activity masks, a word of due outputs per router plus a bit per
/// router that has any, so the ring is sized once at construction and never
/// allocates. An output is armed at most once, and only while its
/// `launch_ready` bit is clear.
#[derive(Debug)]
pub(super) struct LaunchRing {
    /// Slot-major: the outputs due at each router (bit `oi`).
    outputs: Vec<u64>,
    /// Slot-major: the routers with an output due, 64 routers a word.
    routers: Vec<u64>,
    /// Routers of the network.
    num_routers: usize,
    /// Number of slots minus one.
    mask: usize,
}

impl LaunchRing {
    /// A ring for `spec`, whose routers' latencies `validate` has bounded by
    /// [`RouterSpec::MAX_PIPELINE_LATENCY`]. A pass-through hop takes one
    /// cycle, so the window covers at least that.
    pub(super) fn for_spec(spec: &NetworkSpec) -> Self {
        let latency = spec.routers.iter().map(RouterSpec::pipeline_latency);
        let longest = latency.max().unwrap_or(0).max(1) as usize;
        let slots = (longest + 1).next_power_of_two();
        let num_routers = spec.routers.len();
        LaunchRing {
            outputs: vec![0; slots * num_routers],
            routers: vec![0; slots * num_routers.div_ceil(64)],
            num_routers,
            mask: slots - 1,
        }
    }

    /// The due-output words and the router mask of cycle `at`'s slot.
    #[inline]
    fn slot(&mut self, at: Cycle) -> (&mut [u64], &mut [u64]) {
        let (n, slot) = (self.num_routers, at as usize & self.mask);
        let blocks = n.div_ceil(64);
        (
            #[expect(
                clippy::indexing_slicing,
                reason = "slot is masked below the slot count, and each slot holds n words"
            )]
            &mut self.outputs[slot * n..][..n],
            #[expect(
                clippy::indexing_slicing,
                reason = "likewise, each slot holds one word per 64 routers"
            )]
            &mut self.routers[slot * blocks..][..blocks],
        )
    }

    /// Wakes output `oi` of router `ri` on cycle `at`, which lies within the
    /// window: at most the largest pipeline latency ahead. Armed by a grant
    /// into an empty queue and by [`Network::retire_head_transfer`].
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "ri is a live router index, and a slot holds a word per router"
    )]
    pub(super) fn arm(&mut self, at: Cycle, ri: usize, oi: usize) {
        let (outputs, routers) = self.slot(at);
        outputs[ri] |= 1 << oi;
        mark_router(routers, ri);
    }
}

impl Network {
    /// Marks every output whose head transfer may launch from this cycle on
    /// ready, and its router as launch work. Both launch drivers call it
    /// first, so the ring stays drained whichever engine runs.
    pub(super) fn drain_launch_ring(&mut self) {
        let (outputs, routers) = self.launch_ring.slot(self.now);
        for (block, (due, work)) in routers.iter_mut().zip(&mut self.launch_work).enumerate() {
            let mut bits = std::mem::take(due);
            *work |= bits;
            while bits != 0 {
                let ri = block << 6 | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "ri is a set bit of the slot's router mask, so below the router count"
                )]
                {
                    self.routers[ri].launch_ready |= std::mem::take(&mut outputs[ri]);
                }
            }
        }
    }

    /// Launches the next flit of the head transfer granted at output `oi` of
    /// router `ri`, if the link, the pipeline, the crossbar and the buffered
    /// flits allow. `xbar_used` is the bitmask of the router's crossbar input
    /// groups already used this cycle; `faults_on` says whether any fault of
    /// the installed plan is active, hoisted by the drivers so the
    /// interception below is only entered when one is.
    #[inline]
    pub(super) fn launch_output(
        &mut self,
        ri: usize,
        oi: usize,
        xbar_used: &mut u64,
        faults_on: bool,
    ) {
        self.profile.launch_visits += 1;
        let now = self.now;
        #[expect(
            clippy::indexing_slicing,
            reason = "the drivers pass a live router index: a range over the routers, or a set bit of launch_work"
        )]
        let router = &mut self.routers[ri];
        #[expect(
            clippy::indexing_slicing,
            reason = "the drivers pass one of this router's outputs: a range over them, or a set bit of launch_ready, which the ring marks only for granted outputs"
        )]
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
        #[expect(
            clippy::indexing_slicing,
            reason = "xbar_groups is built 1:1 with the router's input ports"
        )]
        let group = router.xbar_groups[from_port];
        if !passthrough && (*xbar_used >> group) & 1 == 1 {
            return;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "from_port and from_vc were recorded at grant from an enumeration of this router's input VCs"
        )]
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
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "target_idx was recorded at grant from this output's target list, which its state mirrors"
                    )]
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

        self.profile.flits_launched += 1;
        if !passthrough {
            *xbar_used |= 1 << group;
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
    /// grant queue (it completed, or a fault dropped it). The output stays
    /// launch-ready if the next transfer can launch by the next cycle (this
    /// output is visited once a cycle); otherwise it leaves the ready mask,
    /// and the ring wakes it on the next transfer's `launch_start`. The queue
    /// shrank: `can_grant` may flip, so the output's arbitration decision is
    /// stale.
    #[inline]
    fn retire_head_transfer(&mut self, ri: usize, oi: usize) {
        #[expect(
            clippy::indexing_slicing,
            reason = "launch_output passes its own live router index"
        )]
        let router = &mut self.routers[ri];
        #[expect(
            clippy::indexing_slicing,
            reason = "launch_output passes its own output index, one of this router's outputs"
        )]
        let granted = &mut router.outputs[oi].granted;
        granted.remove(0);
        match granted.first().map(|next| next.launch_start) {
            Some(start) if start <= self.now + 1 => {}
            next => {
                router.launch_ready &= !(1 << oi);
                if let Some(start) = next {
                    self.launch_ring.arm(start, ri, oi);
                }
            }
        }
        router.mark_output_dirty(oi);
    }

    /// Frees VC `vc` of input port `in_port` at router `ri` — its packet was
    /// forwarded completely, dropped by a fault, or preempted — and returns
    /// the credit to whoever feeds the port: the upstream router's output,
    /// or the injecting source.
    #[inline]
    pub(super) fn release_input_vc(&mut self, ri: usize, in_port: usize, vc: usize) {
        #[expect(
            clippy::indexing_slicing,
            reason = "callers pass a live router index: the launching router or the probed one"
        )]
        let router = &mut self.routers[ri];
        #[expect(
            clippy::indexing_slicing,
            reason = "callers pass one of this router's input ports: a granted transfer's source port or the probed port"
        )]
        let port = &mut router.inputs[in_port];
        #[expect(
            clippy::indexing_slicing,
            reason = "callers pass a VC of that port: a granted transfer's source VC or the flushed victim's position in it"
        )]
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
