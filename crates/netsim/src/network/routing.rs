//! Phase 4: route computation for one buffered head. Which VCs are visited
//! and what a freshly routed head is filed into are the engine's business
//! (`engine.rs`).

use super::{mark_router, Network};
use crate::ids::{OutPortId, PacketId};
use crate::packet::HotPacket;
use crate::router::compute_route;

impl Network {
    /// Assigns an output to the packet in VC `vi` of input port `pi` of router
    /// `ri`, if its head arrived since the last routing pass, and returns the
    /// output, the packet and its hot fields.
    // taqos-lint: hot
    #[inline]
    pub(super) fn route_head(
        &mut self,
        ri: usize,
        pi: usize,
        vi: usize,
    ) -> Option<(OutPortId, PacketId, HotPacket)> {
        let (rspec, router) = (&self.spec.routers[ri], &mut self.routers[ri]);
        let vc = &router.inputs[pi].vcs[vi];
        let (Some(id), None) = (vc.packet(), vc.route()) else {
            return None;
        };
        if vc.flits_arrived == 0 {
            return None;
        }
        let packet = self
            .packets
            .hot(id)
            // taqos-lint: allow(panic-path) -- VC occupancy and packet lifetime are updated together
            .expect("buffered packet must be live");
        let cursor = &mut router.route_rr_cursor;
        // taqos-lint: allow(panic-index) -- the router's input states mirror the spec's input ports, and pi just indexed the states
        let out = compute_route(rspec, &rspec.inputs[pi], packet.dst, cursor);
        let port = &mut router.inputs[pi];
        port.vcs[vi].set_route(out);
        port.unrouted -= 1;
        router.unrouted_vcs -= 1;
        // A routed head is allocation work (the allocation phase unmarks
        // routers with nothing pending).
        mark_router(&mut self.alloc_work, ri);
        Some((out, id, packet))
    }
}
