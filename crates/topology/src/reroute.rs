//! Fault-aware route recomputation.
//!
//! Given a built [`NetworkSpec`] and a set of *permanent* hard faults (dead
//! directed links and dead routers), [`reroute_around_faults`] rewrites the
//! routing tables so surviving traffic detours around the failures: for each
//! destination it runs a backward breadth-first search from the routers that
//! can eject to that destination, over only the live edges whose target
//! covers the destination, and re-points every reachable router at a
//! shortest live next hop.
//!
//! Three properties matter for the robustness experiments:
//!
//! * **Fault-free no-op** — on a healthy fabric every original route is
//!   already a shortest path over the live graph, so the original candidate
//!   ports are kept verbatim and the spec is bit-identical to the unrouted
//!   build. Installing the reroute pass unconditionally costs nothing.
//! * **Coverage-aware** — MECS express channels are point-to-multipoint; an
//!   output port is only considered for a destination the port's target
//!   coverage actually reaches (mirroring the engine's target resolution),
//!   so a detour never steers a packet onto a channel that cannot drop it
//!   off.
//! * **Honest unreachability** — destinations cut off by the fault set keep
//!   their original routes and are reported in the summary; the fault layer
//!   then drops and accounts that traffic (abandoned after the retransmit
//!   budget) instead of the route pass silently black-holing it.
//!
//! Detour routes are shortest-path but no longer dimension-ordered, so they
//! can in principle form adaptive-routing cycles; the engine's progress
//! watchdog converts any resulting deadlock into a structured error rather
//! than a hang. Input ports with a `fixed_route` (DPS pass-through segments)
//! bypass routing tables entirely and are out of scope for this pass.

use std::collections::{BTreeSet, VecDeque};
use taqos_netsim::ids::NodeId;
use taqos_netsim::spec::{NetworkSpec, TargetEndpoint};

/// Outcome of a [`reroute_around_faults`] pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RerouteSummary {
    /// Routing-table entries whose candidate ports changed.
    pub rerouted_entries: usize,
    /// `(router index, destination)` pairs for which no live path exists;
    /// their original routes were kept and the fault layer will drop the
    /// traffic.
    pub unreachable: Vec<(usize, NodeId)>,
}

impl RerouteSummary {
    /// Whether the pass changed nothing and cut off nothing — the guaranteed
    /// outcome on a fault-free fabric.
    pub fn is_noop(&self) -> bool {
        self.rerouted_entries == 0 && self.unreachable.is_empty()
    }
}

/// Whether output port `out` of a router may carry a packet destined to
/// `dst`, mirroring the engine's target resolution: a single target with
/// empty coverage reaches everything; otherwise some target must cover
/// `dst` explicitly.
fn port_covers(outputs: &taqos_netsim::spec::OutputPortSpec, dst: NodeId) -> Option<usize> {
    if outputs.targets.len() == 1 && outputs.targets[0].covers.is_empty() {
        return Some(0);
    }
    outputs.targets.iter().position(|t| t.covers.contains(&dst))
}

/// Rewrites `spec`'s routing tables to detour around the given permanent
/// hard faults (`dead_links` as `(router, out_port)` pairs, `dead_routers`
/// as router indices), typically obtained from
/// `FaultPlan::permanent_hard_faults`. Returns a summary of how much
/// changed; with no faults the pass is a guaranteed no-op.
pub fn reroute_around_faults(
    spec: &mut NetworkSpec,
    dead_links: &[(usize, usize)],
    dead_routers: &[usize],
) -> RerouteSummary {
    let n = spec.routers.len();
    let mut router_dead = vec![false; n];
    for &r in dead_routers {
        if let Some(flag) = router_dead.get_mut(r) {
            *flag = true;
        }
    }
    let mut link_dead: Vec<Vec<bool>> = spec
        .routers
        .iter()
        .map(|r| vec![false; r.outputs.len()])
        .collect();
    for &(r, o) in dead_links {
        if let Some(flag) = link_dead.get_mut(r).and_then(|p| p.get_mut(o)) {
            *flag = true;
        }
    }

    let destinations: BTreeSet<NodeId> = spec
        .routers
        .iter()
        .flat_map(|r| r.route_table.keys())
        .collect();

    let mut summary = RerouteSummary::default();
    for &dst in &destinations {
        // Distance (in router hops) to a live router that can eject to dst.
        const UNREACHED: u32 = u32::MAX;
        let mut dist = vec![UNREACHED; n];
        // Reverse adjacency restricted to edges usable for dst: for each
        // live downstream router, the live (router, port) pairs reaching it.
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut queue = VecDeque::new();
        for (ri, router) in spec.routers.iter().enumerate() {
            if router_dead[ri] {
                continue;
            }
            for (oi, out) in router.outputs.iter().enumerate() {
                if link_dead[ri][oi] {
                    continue;
                }
                let Some(ti) = port_covers(out, dst) else {
                    continue;
                };
                match out.targets[ti].endpoint {
                    TargetEndpoint::Sink { sink } => {
                        if spec.sinks[sink].node == dst && dist[ri] != 0 {
                            dist[ri] = 0;
                            queue.push_back(ri);
                        }
                    }
                    TargetEndpoint::Router { router: next, .. } => {
                        if !router_dead[next] {
                            rev[next].push(ri);
                        }
                    }
                }
            }
        }
        while let Some(r) = queue.pop_front() {
            let d = dist[r] + 1;
            for &up in &rev[r] {
                if dist[up] > d {
                    dist[up] = d;
                    queue.push_back(up);
                }
            }
        }

        for ri in 0..n {
            if router_dead[ri] || dist[ri] == 0 {
                continue;
            }
            let Some(entry) = spec.routers[ri].route_table.get(dst) else {
                continue;
            };
            if dist[ri] == UNREACHED {
                summary.unreachable.push((ri, dst));
                continue;
            }
            // Every live out port whose next hop lies on a shortest path.
            let candidates: Vec<taqos_netsim::ids::OutPortId> = spec.routers[ri]
                .outputs
                .iter()
                .enumerate()
                .filter(|&(oi, _)| !link_dead[ri][oi])
                .filter_map(|(oi, out)| {
                    let ti = port_covers(out, dst)?;
                    match out.targets[ti].endpoint {
                        TargetEndpoint::Router { router: next, .. }
                            if !router_dead[next] && dist[next] == dist[ri] - 1 =>
                        {
                            Some(taqos_netsim::ids::OutPortId(oi))
                        }
                        _ => None,
                    }
                })
                .collect();
            debug_assert!(!candidates.is_empty(), "finite distance implies a next hop");
            // Keep the original candidate ports that are still shortest
            // (preserving replication and round-robin order — and making the
            // whole pass a no-op on a healthy fabric); otherwise detour.
            let kept: Vec<_> = entry.clone().filter(|p| candidates.contains(p)).collect();
            let new_entry = if kept.is_empty() { candidates } else { kept };
            if !entry.eq(new_entry.iter().copied()) {
                spec.routers[ri].route_table.insert(dst, &new_entry);
                summary.rerouted_entries += 1;
            }
        }
    }
    summary
}

/// Picks a surviving sibling controller for each requester whose assigned
/// controller node is permanently dark: returns the live controller node
/// (drawn from `controllers`, skipping every node in `dark`) closest to
/// `preferred` by index distance, or `None` when every controller is dark.
pub fn failover_controller(
    preferred: NodeId,
    controllers: &[NodeId],
    dark: &[NodeId],
) -> Option<NodeId> {
    if !dark.contains(&preferred) {
        return Some(preferred);
    }
    controllers
        .iter()
        .copied()
        .filter(|c| !dark.contains(c))
        .min_by_key(|c| (c.index().abs_diff(preferred.index()), c.index()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh2d::Mesh2dConfig;
    use taqos_netsim::ids::OutPortId;

    #[test]
    fn fault_free_reroute_is_a_noop() {
        let mut spec = Mesh2dConfig::paper_8x8().build();
        let original = spec.clone();
        let summary = reroute_around_faults(&mut spec, &[], &[]);
        assert!(summary.is_noop());
        assert_eq!(spec, original, "no faults must leave the spec untouched");
        // Table by table, port by port.
        for (router, before) in spec.routers.iter().zip(&original.routers) {
            let routes = |r: &taqos_netsim::spec::RouterSpec| -> Vec<_> {
                let table = r.route_table.iter();
                table
                    .map(|(dst, ports)| (dst, ports.collect::<Vec<_>>()))
                    .collect()
            };
            assert_eq!(routes(router).len(), 64);
            assert_eq!(routes(router), routes(before));
        }
    }

    /// Index of the output port of `spec.routers[router]` sending in `dir`.
    fn network_out(spec: &NetworkSpec, router: usize, dir: taqos_netsim::ids::Direction) -> usize {
        spec.routers[router]
            .outputs
            .iter()
            .position(|o| {
                matches!(o.kind, taqos_netsim::spec::OutputKind::Network { dir: d, .. } if d == dir)
            })
            .expect("port exists")
    }

    #[test]
    fn dead_link_detours_and_keeps_spec_valid() {
        let config = Mesh2dConfig::paper_8x8();
        let mut spec = config.build();
        // Kill the eastbound link out of node (0,0): routes from router 0
        // to every node east of it must detour (south first).
        let east = network_out(&spec, 0, taqos_netsim::ids::Direction::East);
        let original_entry = spec.routers[0]
            .route_table
            .get(config.node_at(7, 0))
            .expect("mesh routes everywhere");
        assert!(original_entry.eq([OutPortId(east)]));
        let summary = reroute_around_faults(&mut spec, &[(0, east)], &[]);
        assert!(summary.rerouted_entries > 0);
        assert!(summary.unreachable.is_empty(), "mesh stays connected");
        let detour: Vec<_> = spec.routers[0]
            .route_table
            .get(config.node_at(7, 0))
            .expect("entry survives")
            .collect();
        assert!(
            !detour.contains(&OutPortId(east)),
            "detour must avoid the dead link, got {detour:?}"
        );
        spec.validate()
            .expect("rerouted spec stays structurally valid");
    }

    #[test]
    fn dead_router_reroutes_neighbours_and_reports_cut_off_destination() {
        let config = Mesh2dConfig::paper_8x8();
        let mut spec = config.build();
        // Kill the router at (3,3); its own node becomes unreachable, and
        // XY paths through it must bend around.
        let dead = config.node_at(3, 3).index();
        let summary = reroute_around_faults(&mut spec, &[], &[dead]);
        assert!(summary.rerouted_entries > 0);
        let dead_node = config.node_at(3, 3);
        assert!(
            summary.unreachable.iter().any(|&(_, d)| d == dead_node),
            "the dead router's own terminal is cut off"
        );
        assert!(
            summary
                .unreachable
                .iter()
                .all(|&(ri, d)| ri == dead || d == dead_node),
            "only the dead node itself may be unreachable on a mesh: {:?}",
            summary.unreachable
        );
        spec.validate()
            .expect("rerouted spec stays structurally valid");
    }

    #[test]
    fn multidrop_express_channels_respect_coverage() {
        let config = crate::chip::ChipConfig::paper_8x8();
        let mut chip = config.build();
        let original = chip.spec.clone();
        let summary = reroute_around_faults(&mut chip.spec, &[], &[]);
        assert!(summary.is_noop(), "healthy chip fabric must be untouched");
        assert_eq!(chip.spec, original);
    }

    #[test]
    fn failover_prefers_live_sibling() {
        let controllers = [NodeId(4), NodeId(12), NodeId(20)];
        assert_eq!(
            failover_controller(NodeId(4), &controllers, &[]),
            Some(NodeId(4))
        );
        assert_eq!(
            failover_controller(NodeId(4), &controllers, &[NodeId(4)]),
            Some(NodeId(12))
        );
        assert_eq!(
            failover_controller(NodeId(12), &controllers, &[NodeId(12), NodeId(4)]),
            Some(NodeId(20))
        );
        assert_eq!(
            failover_controller(
                NodeId(4),
                &controllers,
                &[NodeId(4), NodeId(12), NodeId(20)]
            ),
            None
        );
    }
}
