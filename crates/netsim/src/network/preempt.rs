//! The preemption probe: a blocked packet asks the router holding the
//! contended buffers to discard a lower-priority resident packet. How the
//! policy is asked to choose the victim is the engine's business
//! (`engine.rs`).

use super::Network;
use crate::ids::{OutPortId, PacketId};
use taqos_telemetry::TraceEvent;

impl Network {
    /// Gathers the packets resident and idle at input port `in_port` of
    /// `router` — the victim candidates — into `probe_scratch` (reused: under
    /// saturation a probe fires for every blocked output every cycle), and
    /// returns whether there are any.
    pub(super) fn gather_victim_candidates(&mut self, router: usize, in_port: usize) -> bool {
        self.probe_scratch.clear();
        #[expect(
            clippy::indexing_slicing,
            reason = "probe events name a target endpoint router and input port that validate() range-checked"
        )]
        let vcs = &self.routers[router].inputs[in_port].vcs;
        for vc in vcs {
            if vc.is_resident_idle() {
                #[expect(clippy::expect_used, reason = "is_resident_idle implies an occupant")]
                let pid = vc.packet().expect("resident VC has a packet");
                if let Some(packet) = self.packets.hot(pid) {
                    self.probe_scratch.push((pid, packet.flow, packet.reserved));
                }
            }
        }
        !self.probe_scratch.is_empty()
    }

    /// Discards `victim`, resident at input port `in_port` of `router`: its
    /// VC is released and the credit returned upstream so the contender can
    /// claim it, and the injecting source is NACKed over the ACK network to
    /// retransmit. Returns the VC the victim held and the output it had been
    /// routed to (if the routing phase had reached it), or `None` if the
    /// victim is no longer resident and idle there.
    pub(super) fn flush_victim(
        &mut self,
        router: usize,
        in_port: usize,
        victim: PacketId,
    ) -> Option<(usize, Option<OutPortId>)> {
        #[expect(
            clippy::indexing_slicing,
            reason = "probe events name a target endpoint router and input port that validate() range-checked"
        )]
        let router_state = &mut self.routers[router];
        #[expect(
            clippy::indexing_slicing,
            reason = "probe events name a target endpoint router and input port that validate() range-checked"
        )]
        let port = &mut router_state.inputs[in_port];
        let vc = port
            .vcs
            .iter()
            .position(|vc| vc.packet() == Some(victim) && vc.is_resident_idle())?;
        // A victim can be flushed in the event phase of the same cycle its
        // head arrived, i.e. before the routing phase ran; its entry then
        // leaves the unrouted list (whose order the routing driver restores
        // by sorting).
        #[expect(
            clippy::indexing_slicing,
            reason = "vc was just produced by position() over this vector"
        )]
        let route = port.vcs[vc].route();
        if route.is_none() {
            let heads = &mut router_state.unrouted_heads;
            let head = (in_port as u16, vc as u16);
            if let Some(pos) = heads.iter().position(|&h| h == head) {
                heads.swap_remove(pos);
            }
        }
        let node = router_state.node;

        // As in delivery, only scalar fields of the victim are needed.
        #[expect(
            clippy::expect_used,
            reason = "preemption victims are chosen from live residents"
        )]
        let packet = self
            .packets
            .get(victim)
            .expect("victim packet must be live");
        let (flow, origin_source) = (packet.flow, packet.origin_source);
        let wasted_hops = packet.src.column_distance(node);
        self.stats.record_preemption(flow, wasted_hops);
        let cycle = self.now;
        self.trace.emit(|| TraceEvent::Preempt {
            cycle,
            flow: u64::from(flow.0),
            packet: victim.0,
            router: router as u64,
        });

        self.release_input_vc(router, in_port, vc);
        // NACK the injecting source; it will retransmit.
        self.nack(flow, origin_source, victim, wasted_hops);
        Some((vc, route))
    }
}
