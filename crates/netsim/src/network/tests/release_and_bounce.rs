#![cfg(test)]
//! The helpers every release and every fault bounce go through: one credit
//! per freed input VC, to whoever feeds the port; one NACK-or-abandon rule,
//! wherever the fault layer drops the packet.

use super::*;
use crate::fault::{FaultEvent, FaultKind};

/// The chain with `kind` failing permanently from the first cycle.
fn faulted_chain(kind: FaultKind, budget: u32) -> Network {
    let plan = FaultPlan::new(7)
        .with_event(FaultEvent::permanent(0, kind))
        .with_retransmit_budget(budget);
    build_chain(1, 1, 1)
        .with_fault_plan(plan)
        .expect("the plan names the chain's own routers and nodes")
}

fn step_until(net: &mut Network, what: &str, done: impl Fn(&Network) -> bool) {
    for _ in 0..200 {
        net.step();
        if done(net) {
            return;
        }
    }
    panic!("{what} never happened");
}

/// Runs the fabric phases by hand until the event phase has just delivered a
/// head into input port 0 of `router` — resident, idle and not yet routed,
/// the state a preemption probe finds its victims in — and returns it.
fn step_to_resident_head(net: &mut Network, router: usize) -> PacketId {
    for _ in 0..200 {
        net.now += 1;
        net.phase_events();
        if router == 0 {
            // The chain's source streams straight into router 0.
            net.sources_optimized();
        }
        if let Some(vc) = net.routers[router].inputs[0]
            .vcs
            .iter()
            .find(|vc| vc.is_resident_idle())
        {
            return vc.packet().expect("resident VC has a packet");
        }
        if router != 0 {
            net.sources_optimized();
        }
        net.routing_optimized();
        net.allocation_optimized();
        net.launch_optimized();
    }
    panic!("no head became resident at router {router}");
}

/// Every credit return scheduled and not yet delivered (drains the queue:
/// the network is spent afterwards).
fn pending_credits(net: &mut Network) -> Vec<Event> {
    let horizon = net.now + 1_000;
    let mut due = net.events.drain_due(horizon);
    due.retain(|e| {
        matches!(
            e,
            Event::CreditToRouter { .. } | Event::CreditToSource { .. }
        )
    });
    due
}

/// Router 0's input is fed by the chain's source, router 1's by output 0 of
/// router 0: whichever way a VC there is freed — its transfer completed, a
/// fault dropped the packet at launch, a preemption flushed it — exactly one
/// credit goes back, to that feeder.
#[test]
fn every_release_returns_exactly_one_credit_to_the_feeder_of_the_port() {
    let launched =
        |r: usize| move |net: &Network| net.routers[r].outputs[0].flits_launched_total == 1;
    let link_dropped = |net: &Network| net.stats.fault.link_drops == 1;
    let link_down = |router| FaultKind::LinkDown {
        router,
        out_port: 0,
    };
    for router in [0, 1] {
        let mut completed = build_chain(1, 1, 1);
        step_until(&mut completed, "the transfer", launched(router));

        let mut dropped = faulted_chain(link_down(router), 8);
        step_until(&mut dropped, "the fault drop", link_dropped);
        // The downstream buffer claimed at grant time is refunded on the
        // spot, not through the credit network.
        let out = &dropped.routers[router].outputs[0];
        assert!(out.granted.is_empty());
        assert_eq!(out.targets[0].free_count(), 2, "router {router}");

        let mut preempted = build_chain(1, 1, 1);
        let victim = step_to_resident_head(&mut preempted, router);
        let flushed = preempted.flush_victim(router, 0, victim);
        assert!(matches!(flushed, Some((_, None))), "{flushed:?}");
        assert_eq!(preempted.stats.preemption_events, 1);
        let state = &preempted.routers[router];
        assert_eq!((state.active_vcs, state.unrouted_vcs), (0, 0));
        assert_eq!(state.inputs[0].unrouted, 0);

        for (how, net) in [
            ("completed", &mut completed),
            ("dropped", &mut dropped),
            ("preempted", &mut preempted),
        ] {
            let freed = &net.routers[router].inputs[0];
            assert!(freed.vcs.iter().all(|vc| vc.is_free()), "{how} at {router}");
            let credits = pending_credits(net);
            let to_feeder = match credits.as_slice() {
                [Event::CreditToSource { source: 0, .. }] => router == 0,
                [Event::CreditToRouter {
                    router: 0,
                    out_port: 0,
                    target_idx: 0,
                    reserved_vc: false,
                    ..
                }] => router == 1,
                _ => false,
            };
            assert!(to_feeder, "{how} at router {router}: {credits:?}");
        }
    }
}

/// A packet the fault layer drops once too often is abandoned the same way
/// wherever the last drop happens: at a dead link in the launch phase, or at
/// a dark controller on delivery. Both sites are one hop from the source, so
/// the abandoning ACK takes the same time home.
#[test]
fn launch_drops_and_outage_bounces_are_abandoned_identically() {
    let at_launch = FaultKind::LinkDown {
        router: 1,
        out_port: 0,
    };
    let at_controller = FaultKind::McOutage { node: NodeId(1) };
    let timeline = |kind: FaultKind| {
        // A budget of one: the first drop is NACKed and retransmitted, the
        // second abandons the packet.
        let mut net = faulted_chain(kind, 1);
        step_until(&mut net, "the first bounce", |net| {
            net.sources[0].retransmitted_packets == 1
        });
        assert_eq!(net.stats.fault.abandoned_packets, 0);
        step_until(&mut net, "the abandonment", |net| {
            net.stats.fault.abandoned_packets == 1
        });
        let abandoned_at = net.now();
        assert_eq!(net.live_packets(), 1, "abandoned, not yet acknowledged");
        step_until(&mut net, "the abandoning ACK", |net| {
            net.live_packets() == 0
        });
        let acked_in = net.now() - abandoned_at;
        assert!(net.is_quiescent());
        let stats = net.into_stats();
        assert_eq!(stats.fault.abandoned_packets, 1);
        assert_eq!(
            stats.delivered_packets, 0,
            "an abandoned packet is not delivered"
        );
        assert_eq!(stats.flows[0].retransmissions, 1);
        (
            acked_in,
            stats.fault.link_drops,
            stats.fault.mc_outage_rejections,
        )
    };
    let hop = SimConfig::ack_latency(1);
    assert_eq!(timeline(at_launch), (hop, 2, 0));
    assert_eq!(timeline(at_controller), (hop, 0, 2));
}
