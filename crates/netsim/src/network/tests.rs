#![cfg(test)]
//! Unit tests of [`Network`]: small hand-built fabrics (a two-router chain,
//! a multidrop channel, a bidirectional pair for the closed loop) stepped
//! cycle by cycle, on one engine or on both in lock-step.

mod release_and_bounce;

use super::*;
use crate::ids::{Direction, InPortId, NodeId, OutPortId, VcId};
use crate::packet::{GeneratedPacket, PacketGenerator};
use crate::qos::FifoPolicy;
use crate::spec::{
    InputPortSpec, OutputPortSpec, RouteTable, RouterSpec, SinkSpec, SourceSpec, TargetSpec,
    VcConfig,
};

/// Generator producing a fixed number of single-flit packets, one every
/// `gap` cycles.
struct BurstGenerator {
    dst: NodeId,
    remaining: u32,
    gap: u64,
    len: u8,
}

impl PacketGenerator for BurstGenerator {
    fn generate(&mut self, now: Cycle) -> Option<GeneratedPacket> {
        if self.remaining == 0 || !now.is_multiple_of(self.gap) {
            return None;
        }
        self.remaining -= 1;
        Some(GeneratedPacket {
            dst: self.dst,
            len_flits: self.len,
            class: crate::packet::PacketClass::Request,
        })
    }

    fn exhausted(&self) -> bool {
        self.remaining == 0
    }
}

/// Two-router chain: source at node 0 sends to the sink at node 1.
fn chain_spec_with(injection_vcs: u8) -> NetworkSpec {
    let r0 = RouterSpec {
        node: NodeId(0),
        inputs: vec![InputPortSpec::injection(
            "term",
            VcConfig::new(injection_vcs, 4),
            0,
        )],
        outputs: vec![OutputPortSpec::network(
            "south",
            Direction::South,
            0,
            vec![TargetSpec::single(
                TargetEndpoint::Router {
                    router: 1,
                    in_port: InPortId(0),
                },
                1,
            )],
        )],
        route_table: RouteTable::from_iter([(NodeId(1), [OutPortId(0)])]),
        va_latency: 1,
        xt_latency: 1,
    };
    let r1 = RouterSpec {
        node: NodeId(1),
        inputs: vec![InputPortSpec::network(
            "north",
            NodeId(0),
            Direction::South,
            0,
            VcConfig::new(2, 4),
            0,
        )],
        outputs: vec![OutputPortSpec::ejection("eject", 0, 0)],
        route_table: RouteTable::from_iter([(NodeId(1), [OutPortId(0)])]),
        va_latency: 1,
        xt_latency: 1,
    };
    NetworkSpec {
        name: "chain".to_string(),
        routers: vec![r0, r1],
        sources: vec![SourceSpec {
            flow: FlowId(0),
            node: NodeId(0),
            router: 0,
            in_port: InPortId(0),
            name: "n0.term".to_string(),
            window: 8,
        }],
        sinks: vec![SinkSpec {
            node: NodeId(1),
            name: "n1.sink".to_string(),
            slots: 2,
        }],
        flit_bytes: 16,
    }
}

/// Flits delivered to the sinks so far, summed over every sink.
fn sink_delivered_flits(net: &Network) -> u64 {
    net.sinks.iter().map(|s| s.delivered_flits).sum()
}

fn chain_spec() -> NetworkSpec {
    chain_spec_with(1)
}

fn build_chain(count: u32, gap: u64, len: u8) -> Network {
    build_chain_with(chain_spec(), count, gap, len)
}

fn build_chain_with(spec: NetworkSpec, count: u32, gap: u64, len: u8) -> Network {
    let generators: Vec<Box<dyn PacketGenerator>> = vec![Box::new(BurstGenerator {
        dst: NodeId(1),
        remaining: count,
        gap,
        len,
    })];
    Network::new(
        spec,
        Box::new(FifoPolicy::new()),
        generators,
        SimConfig::default(),
    )
    .expect("chain network builds")
}

#[test]
fn single_packet_is_delivered_with_expected_latency() {
    let mut net = build_chain(1, 1, 1);
    for _ in 0..100 {
        net.step();
        if net.is_quiescent() {
            break;
        }
    }
    assert!(net.is_quiescent(), "packet should be delivered and acked");
    let stats = net.into_stats();
    assert_eq!(stats.delivered_packets, 1);
    assert_eq!(stats.delivered_flits, 1);
    assert_eq!(stats.latency_samples, 1);
    // Birth -> injection (1 cycle) -> router 0 pipeline (2) -> wire (1)
    // -> router 1 pipeline (2) -> ejection. The exact constant is not the
    // point; it must be small and deterministic.
    assert!(stats.avg_latency() >= 5.0);
    assert!(
        stats.avg_latency() <= 12.0,
        "latency {}",
        stats.avg_latency()
    );
    assert_eq!(stats.useful_hops, 1);
    assert_eq!(stats.preemption_events, 0);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut net = build_chain(50, 3, 2);
        for _ in 0..2_000 {
            net.step();
            if net.is_quiescent() {
                break;
            }
        }
        let stats = net.into_stats();
        (stats.delivered_packets, stats.latency_sum, stats.cycles)
    };
    assert_eq!(run(), run());
}

#[test]
fn all_packets_of_a_burst_are_delivered() {
    let mut net = build_chain(200, 1, 1);
    for _ in 0..5_000 {
        net.step();
        if net.is_quiescent() {
            break;
        }
    }
    assert!(net.is_quiescent(), "burst should drain");
    let stats = net.into_stats();
    assert_eq!(stats.delivered_packets, 200);
    assert_eq!(stats.generated_packets, 200);
    assert_eq!(stats.flows[0].delivered_packets, 200);
}

#[test]
fn multi_flit_packets_account_all_flits() {
    let mut net = build_chain(10, 5, 4);
    for _ in 0..2_000 {
        net.step();
        if net.is_quiescent() {
            break;
        }
    }
    assert!(net.is_quiescent());
    let stats = net.into_stats();
    assert_eq!(stats.delivered_packets, 10);
    assert_eq!(stats.delivered_flits, 40);
    // Every flit is written once at the injection port, once at the
    // downstream router; read twice (once per launch).
    assert_eq!(stats.energy.buffer_writes, 80);
    assert_eq!(stats.energy.buffer_reads, 80);
    assert_eq!(stats.energy.xbar_flits, 80);
}

/// Three-router spec where router 0 drives a MECS-style multidrop channel
/// whose two targets are routers 1 and 2 (wire delays 1 and 2); each
/// downstream router ejects into its own sink.
fn multidrop_spec() -> NetworkSpec {
    let vcs = VcConfig::new(4, 4);
    let downstream = |node: u16| RouterSpec {
        node: NodeId(node),
        inputs: vec![InputPortSpec::network(
            "from_n0",
            NodeId(0),
            Direction::South,
            0,
            vcs,
            0,
        )],
        outputs: vec![OutputPortSpec::ejection("eject", (node - 1) as usize, 0)],
        route_table: RouteTable::from_iter([(NodeId(node), [OutPortId(0)])]),
        va_latency: 2,
        xt_latency: 1,
    };
    let r0 = RouterSpec {
        node: NodeId(0),
        inputs: vec![InputPortSpec::injection("term", VcConfig::new(2, 4), 0)],
        outputs: vec![OutputPortSpec::network(
            "mecs_south",
            Direction::South,
            0,
            vec![
                TargetSpec::covering(
                    TargetEndpoint::Router {
                        router: 1,
                        in_port: InPortId(0),
                    },
                    1,
                    vec![NodeId(1)],
                ),
                TargetSpec::covering(
                    TargetEndpoint::Router {
                        router: 2,
                        in_port: InPortId(0),
                    },
                    2,
                    vec![NodeId(2)],
                ),
            ],
        )],
        route_table: RouteTable::from_iter([
            (NodeId(1), [OutPortId(0)]),
            (NodeId(2), [OutPortId(0)]),
        ]),
        va_latency: 2,
        xt_latency: 1,
    };
    NetworkSpec {
        name: "multidrop".to_string(),
        routers: vec![r0, downstream(1), downstream(2)],
        sources: vec![SourceSpec {
            flow: FlowId(0),
            node: NodeId(0),
            router: 0,
            in_port: InPortId(0),
            name: "n0.term".to_string(),
            window: 8,
        }],
        sinks: vec![
            SinkSpec {
                node: NodeId(1),
                name: "n1.sink".to_string(),
                slots: 2,
            },
            SinkSpec {
                node: NodeId(2),
                name: "n2.sink".to_string(),
                slots: 2,
            },
        ],
        flit_bytes: 16,
    }
}

/// Generator alternating between two fixed destinations.
struct AlternatingGenerator {
    destinations: Vec<NodeId>,
    remaining: u32,
    next: usize,
}

impl PacketGenerator for AlternatingGenerator {
    fn generate(&mut self, _now: Cycle) -> Option<GeneratedPacket> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let dst = self.destinations[self.next % self.destinations.len()];
        self.next += 1;
        Some(GeneratedPacket {
            dst,
            len_flits: 1,
            class: crate::packet::PacketClass::Request,
        })
    }

    fn exhausted(&self) -> bool {
        self.remaining == 0
    }
}

#[test]
fn multidrop_channels_deliver_to_the_right_drop_off_point() {
    // A MECS-style point-to-multipoint channel must steer each packet to
    // the target covering its destination, sharing one physical channel.
    let generators: Vec<Box<dyn PacketGenerator>> = vec![Box::new(AlternatingGenerator {
        destinations: vec![NodeId(1), NodeId(2)],
        remaining: 40,
        next: 0,
    })];
    let mut net = Network::new(
        multidrop_spec(),
        Box::new(FifoPolicy::new()),
        generators,
        SimConfig::default(),
    )
    .expect("multidrop network builds");
    for _ in 0..3_000 {
        net.step();
        if net.is_quiescent() {
            break;
        }
    }
    assert!(net.is_quiescent(), "all packets should be delivered");
    let stats = net.into_stats();
    assert_eq!(stats.delivered_packets, 40);
    // Both destinations received their half of the traffic: each packet
    // travelled exactly one hop (to node 1) or two hop-equivalents (to
    // node 2), so total useful hops are 20*1 + 20*2.
    assert_eq!(stats.useful_hops, 60);
    // The farther drop-off point pays the longer wire: total link
    // flit-hops are 20*1 + 20*2 as well.
    assert_eq!(stats.energy.link_flit_hops, 60);
}

#[test]
fn throughput_saturates_near_link_rate() {
    // Offered load far exceeds the single-channel capacity. With two
    // injection VCs and long packets the channel pipelines back-to-back
    // transfers, so accepted throughput must approach (and never exceed)
    // one flit per cycle.
    let mut net = build_chain_with(chain_spec_with(2), 10_000, 1, 4);
    net.run_for(3_000);
    let delivered = sink_delivered_flits(&net);
    assert!(delivered > 2_300, "delivered only {delivered} flits");
    assert!(delivered <= 3_000);
}

/// Two routers wired in both directions, a source and a sink at each
/// node: the smallest fabric on which a request/reply round trip runs.
fn bidirectional_spec() -> NetworkSpec {
    let vcs = VcConfig::new(4, 4);
    let router = |node: u16, peer: u16| RouterSpec {
        node: NodeId(node),
        inputs: vec![
            InputPortSpec::injection("term", VcConfig::new(2, 4), 0),
            InputPortSpec::network(
                "in",
                NodeId(peer),
                if node == 1 {
                    Direction::South
                } else {
                    Direction::North
                },
                0,
                vcs,
                1,
            ),
        ],
        outputs: vec![
            OutputPortSpec::network(
                "out",
                if node == 0 {
                    Direction::South
                } else {
                    Direction::North
                },
                0,
                vec![TargetSpec::single(
                    TargetEndpoint::Router {
                        router: peer as usize,
                        in_port: InPortId(1),
                    },
                    1,
                )],
            ),
            OutputPortSpec::ejection("eject", node as usize, 0),
        ],
        route_table: RouteTable::from_iter([
            (NodeId(peer), [OutPortId(0)]),
            (NodeId(node), [OutPortId(1)]),
        ]),
        va_latency: 1,
        xt_latency: 1,
    };
    let source = |node: u16| SourceSpec {
        flow: FlowId(node),
        node: NodeId(node),
        router: node as usize,
        in_port: InPortId(0),
        name: format!("n{node}.term"),
        window: 8,
    };
    let sink = |node: u16| SinkSpec {
        node: NodeId(node),
        name: format!("n{node}.sink"),
        slots: 2,
    };
    NetworkSpec {
        name: "bidi".to_string(),
        routers: vec![router(0, 1), router(1, 0)],
        sources: vec![source(0), source(1)],
        sinks: vec![sink(0), sink(1)],
        flit_bytes: 16,
    }
}

fn closed_loop_network(mlp: usize, total: Option<u64>) -> Network {
    let generators: Vec<Box<dyn PacketGenerator>> = vec![
        Box::new(crate::packet::IdleGenerator),
        Box::new(crate::packet::IdleGenerator),
    ];
    let mut requester = crate::closed_loop::RequesterSpec::paper(NodeId(1), mlp);
    requester.total = total;
    let spec = crate::closed_loop::ClosedLoopSpec::new(2).with_requester(FlowId(0), requester);
    Network::new(
        bidirectional_spec(),
        Box::new(FifoPolicy::new()),
        generators,
        SimConfig::default(),
    )
    .expect("bidirectional network builds")
    .with_closed_loop(spec)
    .expect("closed loop installs")
}

#[test]
fn closed_loop_round_trips_complete_and_conserve() {
    let mut net = closed_loop_network(2, Some(20));
    for _ in 0..5_000 {
        net.step();
        if net.is_quiescent() {
            break;
        }
    }
    assert!(net.is_quiescent(), "bounded closed loop should complete");
    let stats = net.into_stats();
    // 20 requests and 20 replies, all delivered.
    assert_eq!(stats.flows[0].issued_requests, 20);
    assert_eq!(stats.round_trips, 20);
    assert_eq!(stats.flows[0].round_trips, 20);
    assert_eq!(stats.delivered_packets, 40);
    // 20 single-flit requests + 20 four-flit replies.
    assert_eq!(stats.delivered_flits, 20 + 80);
    // Replies are generated at the controller's source but travel on the
    // requester's flow.
    assert_eq!(stats.flows[1].generated_packets, 20);
    assert_eq!(stats.flows[0].delivered_flits, 80 + 20);
    assert!(stats.avg_round_trip().expect("round trips measured") > 0.0);
    // The round trip covers both directions, so it exceeds the one-way
    // request latency.
    assert!(stats.avg_round_trip().unwrap() > stats.avg_latency());
}

#[test]
fn mlp_window_self_limits_throughput() {
    let run = |mlp: usize| {
        let mut net = closed_loop_network(mlp, None);
        net.run_for(2_000);
        net.into_stats().round_trips
    };
    let shallow = run(1);
    let deep = run(4);
    assert!(shallow > 0, "even MLP 1 makes progress");
    assert!(
        deep > shallow,
        "a deeper window must sustain more round trips ({deep} vs {shallow})"
    );
}

#[test]
fn closed_loop_rejects_mismatched_specs() {
    let generators: Vec<Box<dyn PacketGenerator>> = vec![
        Box::new(crate::packet::IdleGenerator),
        Box::new(crate::packet::IdleGenerator),
    ];
    let net = Network::new(
        bidirectional_spec(),
        Box::new(FifoPolicy::new()),
        generators,
        SimConfig::default(),
    )
    .expect("network builds");
    // Wrong flow count.
    assert!(net
        .with_closed_loop(crate::closed_loop::ClosedLoopSpec::new(1))
        .is_err());

    // A producing generator at the controller's source would starve the
    // reply port: rejected at install time.
    let generators: Vec<Box<dyn PacketGenerator>> = vec![
        Box::new(crate::packet::IdleGenerator),
        Box::new(BurstGenerator {
            dst: NodeId(0),
            remaining: 100,
            gap: 1,
            len: 1,
        }),
    ];
    let net = Network::new(
        bidirectional_spec(),
        Box::new(FifoPolicy::new()),
        generators,
        SimConfig::default(),
    )
    .expect("network builds");
    let spec = crate::closed_loop::ClosedLoopSpec::new(2).with_requester(
        FlowId(0),
        crate::closed_loop::RequesterSpec::paper(NodeId(1), 2),
    );
    assert!(net.with_closed_loop(spec).is_err());
}

fn closed_loop_dram_network(
    mlp: usize,
    total: Option<u64>,
    dram: crate::closed_loop::DramConfig,
) -> Network {
    let generators: Vec<Box<dyn PacketGenerator>> = vec![
        Box::new(crate::packet::IdleGenerator),
        Box::new(crate::packet::IdleGenerator),
    ];
    let mut requester = crate::closed_loop::RequesterSpec::paper(NodeId(1), mlp);
    requester.total = total;
    let spec = crate::closed_loop::ClosedLoopSpec::new(2)
        .with_requester(FlowId(0), requester)
        .with_dram(dram);
    Network::new(
        bidirectional_spec(),
        Box::new(FifoPolicy::new()),
        generators,
        SimConfig::default(),
    )
    .expect("bidirectional network builds")
    .with_closed_loop(spec)
    .expect("closed loop installs")
}

fn run_to_quiescence(net: &mut Network, max_cycles: u64) {
    for _ in 0..max_cycles {
        net.step();
        if net.is_quiescent() {
            return;
        }
    }
    panic!("closed loop did not complete within {max_cycles} cycles");
}

#[test]
fn dram_service_time_extends_the_round_trip_exactly() {
    // One uncontended request: the DRAM-backed round trip is the instant
    // controller's round trip plus exactly one row-miss service latency
    // (a cold bank's first access always misses).
    let mut plain = closed_loop_network(1, Some(1));
    run_to_quiescence(&mut plain, 1_000);
    let plain = plain.into_stats();

    let dram = crate::closed_loop::DramConfig::paper().with_latencies(18, 48);
    let mut backed = closed_loop_dram_network(1, Some(1), dram);
    run_to_quiescence(&mut backed, 1_000);
    let backed = backed.into_stats();

    assert_eq!(backed.dram.serviced_requests, 1);
    assert_eq!(backed.dram.row_misses, 1);
    assert_eq!(backed.dram.row_hits, 0);
    assert_eq!(backed.dram.bank_busy_cycles, 48);
    assert_eq!(
        backed.avg_round_trip().expect("round trip measured"),
        plain.avg_round_trip().expect("round trip measured") + 48.0,
    );
}

#[test]
fn row_buffer_hits_follow_the_open_row_deterministically() {
    // A single-bank controller with 4-line rows serving a strictly
    // sequential (MLP 1) stream of 8 lines: lines 0–3 share row 0 and
    // lines 4–7 share row 1, so exactly the two row openings miss.
    let dram = crate::closed_loop::DramConfig::paper()
        .with_banks(1)
        .with_lines_per_row(4);
    let mut net = closed_loop_dram_network(1, Some(8), dram);
    run_to_quiescence(&mut net, 5_000);
    let stats = net.into_stats();
    assert_eq!(stats.dram.serviced_requests, 8);
    assert_eq!(stats.dram.row_misses, 2);
    assert_eq!(stats.dram.row_hits, 6);
    assert_eq!(
        stats.dram.bank_busy_cycles,
        2 * dram.row_miss_latency + 6 * dram.row_hit_latency
    );
    assert_eq!(stats.dram.row_hit_rate(), Some(0.75));
    assert_eq!(stats.round_trips, 8);
}

#[test]
fn full_queue_nacks_retry_and_still_conserve_round_trips() {
    // A one-entry queue in front of one slow bank, hammered through a
    // deep window: overflow requests are NACKed and retransmitted, yet
    // every request completes exactly one round trip and is counted as
    // delivered exactly once.
    let dram = crate::closed_loop::DramConfig::paper()
        .with_banks(1)
        .with_queue_depth(1)
        .with_latencies(40, 80);
    let mut net = closed_loop_dram_network(8, Some(20), dram);
    run_to_quiescence(&mut net, 50_000);
    // The sink counters agree with the stats: rejected arrivals are
    // discarded, not delivered, so both count each packet exactly once.
    // 20 single-flit requests + 20 four-flit replies.
    assert_eq!(sink_delivered_flits(&net), 20 + 80);
    let stats = net.into_stats();
    assert!(
        stats.dram.rejected_requests > 0,
        "a 1-deep queue under MLP 8 must overflow"
    );
    assert_eq!(stats.flows[0].dram_rejections, stats.dram.rejected_requests);
    assert!(
        stats.flows[0].retransmissions >= stats.dram.rejected_requests,
        "every rejection forces a retransmission"
    );
    assert_eq!(stats.dram.stalled_requests, 0);
    assert_eq!(stats.round_trips, 20);
    assert_eq!(stats.dram.serviced_requests, 20);
    // 20 requests + 20 replies, each recorded delivered exactly once
    // (rejected arrivals are not deliveries).
    assert_eq!(stats.delivered_packets, 40);
    assert_eq!(stats.generated_packets, 40);
    assert!(stats.dram.max_queue_occupancy <= 1);
}

#[test]
fn stall_backpressure_holds_credits_instead_of_nacking() {
    let dram = crate::closed_loop::DramConfig::paper()
        .with_banks(1)
        .with_queue_depth(1)
        .with_latencies(40, 80)
        .with_backpressure(crate::closed_loop::DramBackpressure::Stall);
    let mut net = closed_loop_dram_network(8, Some(20), dram);
    run_to_quiescence(&mut net, 50_000);
    let stats = net.into_stats();
    assert!(
        stats.dram.stalled_requests > 0,
        "a 1-deep queue under MLP 8 must stall arrivals"
    );
    assert_eq!(stats.dram.rejected_requests, 0);
    assert_eq!(
        stats.flows[0].retransmissions, 0,
        "stalling must not generate retry traffic"
    );
    assert_eq!(stats.round_trips, 20);
    assert_eq!(stats.delivered_packets, 40);
    assert!(stats.dram.avg_queue_wait().expect("requests waited") > 0.0);
}

#[test]
fn closed_page_policy_pays_activate_plus_cas_on_every_access() {
    // The same 8-line sequential stream as the open-page test above:
    // under the closed-page policy nothing ever hits (the bank
    // auto-precharges), but every access costs only activate + CAS.
    let dram = crate::closed_loop::DramConfig::paper()
        .with_banks(1)
        .with_lines_per_row(4)
        .with_page_policy(crate::closed_loop::PagePolicy::Closed);
    let mut net = closed_loop_dram_network(1, Some(8), dram);
    run_to_quiescence(&mut net, 5_000);
    let stats = net.into_stats();
    assert_eq!(stats.dram.serviced_requests, 8);
    assert_eq!(stats.dram.row_hits, 0);
    assert_eq!(stats.dram.row_misses, 8);
    assert_eq!(stats.dram.row_hit_rate(), Some(0.0));
    assert_eq!(stats.dram.bank_busy_cycles, 8 * dram.closed_page_latency());
    assert_eq!(stats.round_trips, 8);
}

#[test]
fn priority_schedulers_preserve_uncontended_timing_and_conservation() {
    // A single uncontended flow: FR-FCFS has nothing to reorder and
    // priority admission nothing to evict (a flow never outranks
    // itself), so round-trip timing matches FCFS exactly even though
    // delivery is deferred to service start — and a saturated one-entry
    // queue degrades to pure overflow NACKs, conserving every round
    // trip.
    let fcfs = crate::closed_loop::DramConfig::paper();
    let mut baseline = closed_loop_dram_network(1, Some(4), fcfs);
    run_to_quiescence(&mut baseline, 5_000);
    let baseline = baseline.into_stats();
    for scheduler in [
        crate::closed_loop::DramScheduler::PriorityAdmission,
        crate::closed_loop::DramScheduler::FrFcfs,
    ] {
        let mut net = closed_loop_dram_network(1, Some(4), fcfs.with_scheduler(scheduler));
        run_to_quiescence(&mut net, 5_000);
        let stats = net.into_stats();
        assert_eq!(
            stats.avg_round_trip(),
            baseline.avg_round_trip(),
            "{scheduler:?} changed uncontended round trips"
        );
        assert_eq!(stats.round_trips, 4);
        assert_eq!(stats.delivered_packets, 8);
    }
    let saturating = fcfs
        .with_banks(1)
        .with_queue_depth(1)
        .with_latencies(40, 80)
        .with_scheduler(crate::closed_loop::DramScheduler::PriorityAdmission);
    let mut net = closed_loop_dram_network(8, Some(20), saturating);
    run_to_quiescence(&mut net, 50_000);
    let stats = net.into_stats();
    assert!(stats.dram.rejected_requests > 0, "queue must overflow");
    assert_eq!(
        stats.dram.evicted_requests, 0,
        "a flow must not evict its own requests"
    );
    assert_eq!(stats.round_trips, 20);
    // Deferred delivery still records each request exactly once.
    assert_eq!(stats.delivered_packets, 40);
    assert_eq!(stats.generated_packets, 40);
    assert!(
        stats.flows[0].retransmissions >= stats.dram.rejected_requests,
        "every overflow NACK forces a retransmission"
    );
}

#[test]
fn invalid_dram_config_is_rejected_at_install() {
    let generators: Vec<Box<dyn PacketGenerator>> = vec![
        Box::new(crate::packet::IdleGenerator),
        Box::new(crate::packet::IdleGenerator),
    ];
    let net = Network::new(
        bidirectional_spec(),
        Box::new(FifoPolicy::new()),
        generators,
        SimConfig::default(),
    )
    .expect("network builds");
    let spec = crate::closed_loop::ClosedLoopSpec::new(2)
        .with_requester(
            FlowId(0),
            crate::closed_loop::RequesterSpec::paper(NodeId(1), 2),
        )
        .with_dram(crate::closed_loop::DramConfig::paper().with_banks(0));
    assert!(net.with_closed_loop(spec).is_err());
}

#[test]
fn single_injection_vc_serialises_injection() {
    // With a single injection VC a short packet occupies the VC for the
    // full pipeline plus credit turnaround, limiting accepted throughput
    // to roughly one packet every three cycles.
    let mut net = build_chain(10_000, 1, 1);
    net.run_for(3_000);
    let delivered = sink_delivered_flits(&net);
    assert!(delivered > 800, "delivered only {delivered} flits");
    assert!(delivered < 1_500, "delivered {delivered} flits");
}

// ---- Sleeping sources: wake-exactness -------------------------------

/// FIFO arbitration with frames, so `schedule_reprogram` has a rollover
/// to land on.
struct FramedFifo(Cycle);

impl QosPolicy for FramedFifo {
    fn name(&self) -> &str {
        "framed-fifo"
    }

    fn router_qos(&self, _spec: &crate::spec::RouterSpec, _num_flows: usize) -> Box<dyn RouterQos> {
        Box::new(crate::qos::FifoRouterQos)
    }

    fn frame_len(&self) -> Option<Cycle> {
        Some(self.0)
    }
}

/// The bidirectional closed loop on both engines: flow 0 requests from
/// the controller at node 1.
fn engine_pair(
    frame_len: Option<Cycle>,
    spec: &crate::closed_loop::ClosedLoopSpec,
) -> (Network, Network) {
    let build = |engine| {
        let generators: Vec<Box<dyn PacketGenerator>> = vec![
            Box::new(crate::packet::IdleGenerator),
            Box::new(crate::packet::IdleGenerator),
        ];
        let policy: Box<dyn QosPolicy> = match frame_len {
            Some(len) => Box::new(FramedFifo(len)),
            None => Box::new(FifoPolicy::new()),
        };
        Network::new(
            bidirectional_spec(),
            policy,
            generators,
            SimConfig::default().with_engine(engine),
        )
        .expect("bidirectional network builds")
        .with_closed_loop(spec.clone())
        .expect("closed loop installs")
    };
    (
        build(crate::config::EngineKind::Optimized),
        build(crate::config::EngineKind::Reference),
    )
}

/// Steps both engines one cycle and holds the optimized engine to the
/// polling reference, counter for counter.
fn step_both(optimized: &mut Network, reference: &mut Network) {
    optimized.step();
    reference.step();
    assert_eq!(
        optimized.stats(),
        reference.stats(),
        "engines diverged at cycle {}",
        optimized.now()
    );
}

fn awake_sources(net: &Network) -> u32 {
    net.source_work.iter().map(|w| w.count_ones()).sum()
}

#[test]
fn requester_asleep_across_an_off_phase_issues_on_the_phase_change_cycle() {
    use crate::closed_loop::{
        ClosedLoopSpec, PhaseChange, PhaseSchedule, PhasedWorkload, RequesterSpec,
    };
    let phases = PhasedWorkload::new(2).with_schedule(
        FlowId(0),
        PhaseSchedule::new(vec![
            PhaseChange { at: 1, mlp: 0 },
            PhaseChange { at: 700, mlp: 1 },
        ]),
    );
    let spec = ClosedLoopSpec::new(2)
        .with_requester(FlowId(0), RequesterSpec::paper(NodeId(1), 1))
        .with_phases(phases);
    let (mut optimized, mut reference) = engine_pair(None, &spec);
    while optimized.now() < 699 {
        step_both(&mut optimized, &mut reference);
        assert_eq!(optimized.stats().flows[0].issued_requests, 0);
        assert_eq!(awake_sources(&optimized), 0, "cycle {}", optimized.now());
    }
    // Two sources, each visited once (cycle 1) before falling asleep.
    assert_eq!(optimized.engine_profile().sources_visited, 2);
    step_both(&mut optimized, &mut reference);
    assert_eq!(optimized.now(), 700);
    assert_eq!(optimized.stats().flows[0].issued_requests, 1);
    for _ in 0..200 {
        step_both(&mut optimized, &mut reference);
    }
    assert!(optimized.stats().round_trips > 0);
}

#[test]
fn retry_deadline_and_backoff_fire_on_their_exact_cycles_with_every_source_asleep() {
    use crate::closed_loop::{ClosedLoopSpec, DramConfig, RequesterSpec, RetryPolicy};
    // A cold bank takes 5000 cycles: no reply ever beats the deadline.
    let retry = RetryPolicy::new(100, 3).with_backoff(40);
    let spec = ClosedLoopSpec::new(2)
        .with_requester(FlowId(0), RequesterSpec::paper(NodeId(1), 1))
        .with_dram(DramConfig::paper().with_latencies(18, 5_000))
        .with_retry(retry);
    let (mut optimized, mut reference) = engine_pair(None, &spec);
    let timeouts = |net: &Network| net.stats().flows[0].request_timeouts;
    let retries = |net: &Network| net.stats().flows[0].request_retries;

    // The request is sent at cycle 1 and times out at 1 + deadline.
    while optimized.now() < 100 {
        step_both(&mut optimized, &mut reference);
        assert_eq!(timeouts(&optimized), 0);
        if optimized.now() >= 30 {
            assert_eq!(awake_sources(&optimized), 0, "cycle {}", optimized.now());
        }
    }
    step_both(&mut optimized, &mut reference);
    assert_eq!((optimized.now(), timeouts(&optimized)), (101, 1));

    // The retry leaves at exactly `ready`, the timeout cycle plus the
    // seeded backoff.
    let ready = 101 + retry.backoff_delay(FlowId(0), 0, 1);
    while optimized.now() < ready - 1 {
        step_both(&mut optimized, &mut reference);
        assert_eq!(retries(&optimized), 0);
        assert_eq!(awake_sources(&optimized), 0, "cycle {}", optimized.now());
    }
    step_both(&mut optimized, &mut reference);
    assert_eq!((optimized.now(), retries(&optimized)), (ready, 1));

    // Through the second and third timeouts, the abandonment and the
    // fresh request that follows it.
    while optimized.now() < 1_500 {
        step_both(&mut optimized, &mut reference);
    }
    let flow = &optimized.stats().flows[0];
    assert!(
        flow.abandoned_requests >= 1,
        "the budget of 3 sends ran out"
    );
    assert!(flow.issued_requests >= 2, "abandoning reopened the window");
    // Asleep between thresholds: a few dozen visits, not 2 x 1500.
    assert!(optimized.engine_profile().sources_visited < 150);
}

#[test]
fn a_reprogram_landing_wakes_every_sleeper() {
    use crate::closed_loop::{
        ClosedLoopSpec, PhaseChange, PhaseSchedule, PhasedWorkload, RequesterSpec,
    };
    let phases = PhasedWorkload::new(2).with_schedule(
        FlowId(0),
        PhaseSchedule::new(vec![PhaseChange { at: 1, mlp: 0 }]),
    );
    let spec = ClosedLoopSpec::new(2)
        .with_requester(FlowId(0), RequesterSpec::paper(NodeId(1), 1))
        .with_phases(phases);
    let (mut optimized, mut reference) = engine_pair(Some(100), &spec);
    for net in [&mut optimized, &mut reference] {
        net.schedule_reprogram(250, vec![0.5, 0.5])
            .expect("a valid programme is accepted");
    }
    while optimized.now() < 299 {
        step_both(&mut optimized, &mut reference);
    }
    assert_eq!(awake_sources(&optimized), 0);
    let before = optimized.engine_profile();
    // The programme scheduled for 250 lands at the rollover of cycle 300.
    step_both(&mut optimized, &mut reference);
    let after = optimized.engine_profile();
    assert_eq!(after.source_wakes - before.source_wakes, 2);
    assert_eq!(after.sources_visited - before.sources_visited, 2);
    // Nothing changed for them: both go straight back to sleep.
    assert_eq!(awake_sources(&optimized), 0);
}

#[test]
fn an_open_loop_source_never_sleeps_while_its_generator_is_live() {
    // Five packets, one every 50 cycles: idle 49 cycles of 50, yet polled
    // on every one of them (a skipped poll would shift an RNG stream).
    let mut net = build_chain(5, 50, 1);
    while !net.sources[0].generator.exhausted() {
        net.step();
        assert_eq!(net.engine_profile().sources_visited, net.now());
        let live = !net.sources[0].generator.exhausted();
        assert!(!live || awake_sources(&net) == 1, "cycle {}", net.now());
    }
    run_to_quiescence(&mut net, 200);
    // Exhausted and drained: now it sleeps, and stays asleep.
    let visited = net.engine_profile().sources_visited;
    net.run_for(200);
    assert_eq!(net.engine_profile().sources_visited, visited);
    assert_eq!(net.stats().delivered_packets, 5);
}

// ---- Routing and launch worklists: lock-step ----------------------------

/// `spec` on both engines, its one source sending `count` packets of `len`
/// flits to node 1, one every `gap` cycles.
fn chain_pair(spec: &NetworkSpec, count: u32, gap: u64, len: u8) -> (Network, Network) {
    let build = |engine| {
        let generators: Vec<Box<dyn PacketGenerator>> = vec![Box::new(BurstGenerator {
            dst: NodeId(1),
            remaining: count,
            gap,
            len,
        })];
        let config = SimConfig::default().with_engine(engine);
        Network::new(
            spec.clone(),
            Box::new(FifoPolicy::new()),
            generators,
            config,
        )
        .expect("chain network builds")
    };
    (
        build(crate::config::EngineKind::Optimized),
        build(crate::config::EngineKind::Reference),
    )
}

#[test]
fn a_queued_transfer_launches_on_its_own_launch_start_after_the_head_retires() {
    // A six-cycle pipeline at router 0 and packets two cycles apart: the
    // second grant queues behind the first and leaves the pipeline a cycle
    // after the first transfer's tail has launched, so the output sleeps in
    // between and the ring must wake it.
    let mut spec = chain_spec_with(2);
    spec.routers[0].va_latency = 5;
    let (mut optimized, mut reference) = chain_pair(&spec, 2, 2, 1);
    let launched = |net: &Network| net.routers[0].outputs[0].flits_launched_total;
    let (mut starts, mut launches) = (None, Vec::new());
    while optimized.now() < 100 {
        if let [head, next] = optimized.routers[0].outputs[0].granted.as_slice() {
            starts.get_or_insert((head.launch_start, next.launch_start));
        }
        let before = launched(&optimized);
        step_both(&mut optimized, &mut reference);
        let now = optimized.now();
        assert_eq!(launched(&optimized), launched(&reference), "cycle {now}");
        if launched(&optimized) > before {
            launches.push(now);
        }
    }
    let (head, next) = starts.expect("the second grant queues behind the first");
    assert!(next > head + 1, "launch starts {head} and {next}");
    assert_eq!(launches, [head, next]);
    assert_eq!(optimized.stats().delivered_packets, 2);
}

/// A router whose injection port has four VCs and whose two outputs are
/// replicated channels to node 1, so injected heads are spread over them by
/// the round-robin route cursor; node 1 ejects both channels into its sink.
fn replicated_channel_spec() -> NetworkSpec {
    let to_router_1 = |in_port| {
        vec![TargetSpec::single(
            TargetEndpoint::Router {
                router: 1,
                in_port: InPortId(in_port),
            },
            1,
        )]
    };
    let r0 = RouterSpec {
        node: NodeId(0),
        inputs: vec![InputPortSpec::injection("term", VcConfig::new(4, 4), 0)],
        outputs: vec![
            OutputPortSpec::network("east_ch0", Direction::East, 0, to_router_1(0)),
            OutputPortSpec::network("east_ch1", Direction::East, 1, to_router_1(1)),
        ],
        route_table: RouteTable::from_iter([(NodeId(1), [OutPortId(0), OutPortId(1)])]),
        va_latency: 1,
        xt_latency: 1,
    };
    let from_router_0 = |channel: u8| {
        let name = format!("west_ch{channel}");
        InputPortSpec::network(
            name,
            NodeId(0),
            Direction::East,
            channel,
            VcConfig::new(4, 4),
            channel,
        )
    };
    let r1 = RouterSpec {
        node: NodeId(1),
        inputs: vec![from_router_0(0), from_router_0(1)],
        outputs: vec![OutputPortSpec::ejection("eject", 0, 0)],
        route_table: RouteTable::from_iter([(NodeId(1), [OutPortId(0)])]),
        va_latency: 1,
        xt_latency: 1,
    };
    let mut spec = chain_spec();
    spec.name = "replicated".to_string();
    spec.routers = vec![r0, r1];
    spec
}

#[test]
fn heads_arriving_out_of_vc_order_take_the_reference_route_picks() {
    // Two heads reach the injection port of router 0 in one cycle, VC 3
    // first: the optimized engine lists them in arrival order, the reference
    // scan meets VC 1 first, and the round-robin cursor hands the two
    // channels out in visiting order.
    let build = |engine| {
        let generators: Vec<Box<dyn PacketGenerator>> =
            vec![Box::new(crate::packet::IdleGenerator)];
        let config = SimConfig::default().with_engine(engine);
        let mut net = Network::new(
            replicated_channel_spec(),
            Box::new(FifoPolicy::new()),
            generators,
            config,
        )
        .expect("replicated-channel network builds");
        net.sources[0].free_vcs.retain(|vc| ![1, 3].contains(&vc.0));
        for vc in [3, 1] {
            let packet = net.packets.insert_with(|id| {
                let class = crate::packet::PacketClass::Request;
                crate::packet::Packet::new(id, FlowId(0), NodeId(0), NodeId(1), 1, class, 0)
            });
            let head = Event::HeadToRouter {
                router: 0,
                in_port: 0,
                vc: VcId(vc),
                len: 1,
                packet,
            };
            net.events.schedule(1, head);
        }
        net
    };
    let mut optimized = build(crate::config::EngineKind::Optimized);
    let mut reference = build(crate::config::EngineKind::Reference);
    step_both(&mut optimized, &mut reference);
    let routes = |net: &Network| {
        let vcs = &net.routers[0].inputs[0].vcs;
        (vcs[1].route(), vcs[3].route())
    };
    assert_eq!(routes(&reference), (Some(OutPortId(0)), Some(OutPortId(1))));
    assert_eq!(routes(&optimized), routes(&reference));
    while !optimized.is_quiescent() {
        assert!(optimized.now() < 100, "the two packets never drained");
        step_both(&mut optimized, &mut reference);
    }
    assert_eq!(optimized.stats().delivered_packets, 2);
}
