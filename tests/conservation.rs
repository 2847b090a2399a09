//! Packet-conservation and determinism tests across topologies and policies.
//!
//! Whatever the topology, QOS policy, or workload, the simulator must neither
//! lose nor duplicate packets: every generated packet of a closed workload is
//! delivered exactly once (after any number of preemption-induced
//! retransmissions), and identical seeds give identical results.

use taqos::prelude::*;
use taqos::qos::per_flow::PerFlowQueuedPolicy;
use taqos::qos::pvc::PvcPolicy;
use taqos::traffic::workloads;

fn closed_run(
    topology: ColumnTopology,
    policy_kind: &str,
    budget_cycles: u64,
    seed: u64,
) -> NetStats {
    let column = ColumnConfig::paper();
    let sim = SharedRegionSim::new(topology).with_column(column);
    let generators = workloads::workload1(
        &column,
        &workloads::WORKLOAD1_RATES,
        PacketSizeMix::paper(),
        NodeId(0),
        budget_cycles,
        seed,
    );
    let policy: Box<dyn QosPolicy> = match policy_kind {
        "pvc" => Box::new(PvcPolicy::equal_rates(column.num_flows())),
        "per-flow" => Box::new(PerFlowQueuedPolicy::equal_rates(column.num_flows())),
        _ => Box::new(FifoPolicy::new()),
    };
    let network = sim.build(policy, generators).expect("column builds");
    run_closed(network, None, 500_000).expect("closed workload completes")
}

#[test]
fn every_generated_packet_is_delivered_exactly_once() {
    for topology in ColumnTopology::all() {
        for policy in ["pvc", "per-flow", "fifo"] {
            let stats = closed_run(topology, policy, 3_000, 11);
            assert_eq!(
                stats.generated_packets, stats.delivered_packets,
                "{topology}/{policy}: generated vs delivered mismatch"
            );
            for (flow, fs) in stats.flows.iter().enumerate() {
                assert_eq!(
                    fs.generated_packets, fs.delivered_packets,
                    "{topology}/{policy}: flow {flow} lost or duplicated packets"
                );
            }
        }
    }
}

/// A closed run's measurement window may reach past the end of the run: its
/// end saturates instead of overflowing, so a `Cycle::MAX` length starting
/// at cycle 1 (nothing is delivered at cycle 0) counts every delivery. The
/// rates divide by the window's nominal length, so the whole-run rate is
/// what `None` measures.
#[test]
fn an_overlong_closed_window_saturates_instead_of_overflowing() {
    let column = ColumnConfig::paper();
    let sim = SharedRegionSim::new(ColumnTopology::Dps).with_column(column);
    let run = |window| {
        let generators = workloads::workload1(
            &column,
            &workloads::WORKLOAD1_RATES,
            PacketSizeMix::paper(),
            NodeId(0),
            2_000,
            5,
        );
        let network = sim
            .build(Box::new(sim.default_policy()), generators)
            .expect("column builds");
        run_closed(network, window, 500_000).expect("workload completes")
    };
    let overlong = run(Some((1, Cycle::MAX)));
    assert_eq!(overlong.measure_end, Some(Cycle::MAX));
    let measured: u64 = overlong
        .flows
        .iter()
        .map(|f| f.measured_delivered_packets)
        .sum();
    assert!(overlong.delivered_packets > 0);
    assert_eq!(measured, overlong.delivered_packets);

    let whole = run(None);
    assert_eq!(whole.delivered_flits, overlong.delivered_flits);
    assert!(whole.accepted_throughput() > 0.0);
    assert_eq!(
        whole.accepted_throughput(),
        whole.delivered_flits as f64 / whole.cycles as f64
    );
}

#[test]
fn retransmissions_match_preemption_events() {
    // Every preemption forces exactly one retransmission of the victim.
    let stats = closed_run(ColumnTopology::MeshX2, "pvc", 4_000, 3);
    let retransmissions: u64 = stats.flows.iter().map(|f| f.retransmissions).sum();
    assert_eq!(
        retransmissions, stats.preemption_events,
        "each preemption event must be matched by one retransmission"
    );
}

#[test]
fn identical_seeds_give_identical_results() {
    let a = closed_run(ColumnTopology::Dps, "pvc", 3_000, 17);
    let b = closed_run(ColumnTopology::Dps, "pvc", 3_000, 17);
    assert_eq!(a.completion_cycle, b.completion_cycle);
    assert_eq!(a.delivered_flits, b.delivered_flits);
    assert_eq!(a.preemption_events, b.preemption_events);
    assert_eq!(a.latency_sum, b.latency_sum);
}

#[test]
fn different_seeds_change_the_schedule_but_not_the_totals() {
    let a = closed_run(ColumnTopology::Dps, "pvc", 3_000, 1);
    let b = closed_run(ColumnTopology::Dps, "pvc", 3_000, 2);
    // Same offered budgets, so the same amount of work is delivered...
    assert_eq!(a.generated_packets, a.delivered_packets);
    assert_eq!(b.generated_packets, b.delivered_packets);
    // ...but the stochastic arrival pattern differs.
    assert_ne!(
        (a.latency_sum, a.completion_cycle),
        (b.latency_sum, b.completion_cycle)
    );
}
