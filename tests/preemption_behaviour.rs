//! Cross-crate integration tests for the adversarial preemption experiments
//! (the qualitative shape of Figures 5 and 6).

use taqos::prelude::*;
use taqos_core::experiment::preemption::{
    preemption_impact, AdversarialConfig, AdversarialWorkload,
};

fn quick_config() -> AdversarialConfig {
    AdversarialConfig {
        budget_cycles: 5_000,
        max_cycles: 600_000,
        ..AdversarialConfig::default()
    }
}

#[test]
fn workload1_completes_on_every_topology() {
    let config = quick_config();
    for topology in ColumnTopology::all() {
        let impact = preemption_impact(topology, AdversarialWorkload::Workload1, &config)
            .unwrap_or_else(|e| panic!("{topology}: {e}"));
        assert!(impact.completion_cycles >= config.budget_cycles);
        assert!(impact.baseline_completion_cycles >= config.budget_cycles);
        assert!(
            impact.preempted_packet_fraction < 0.9,
            "{topology}: preemption fraction {:.2} implausibly high",
            impact.preempted_packet_fraction
        );
    }
}

#[test]
fn preemptions_occur_under_the_adversarial_workload_but_slowdown_stays_bounded() {
    let config = quick_config();
    let impact = preemption_impact(
        ColumnTopology::MeshX1,
        AdversarialWorkload::Workload1,
        &config,
    )
    .expect("completes");
    assert!(
        impact.preempted_packet_fraction > 0.0,
        "the adversarial workload must trigger preemptions on the baseline mesh"
    );
    // The paper reports slowdowns below 5%; allow a generous margin for the
    // shortened run but the workload must not collapse.
    assert!(
        impact.slowdown < 0.5,
        "slowdown {:.2} implausibly large",
        impact.slowdown
    );
}

#[test]
fn replayed_hops_do_not_exceed_preempted_packets_by_much() {
    // Preemptions happen close to the victims' sources, so the fraction of
    // wasted hop traversals is at most about the fraction of preempted
    // packets (they are equal for MECS, whose victims travelled their full
    // distance).
    let config = quick_config();
    for topology in [
        ColumnTopology::MeshX1,
        ColumnTopology::Mecs,
        ColumnTopology::Dps,
    ] {
        let impact = preemption_impact(topology, AdversarialWorkload::Workload1, &config)
            .expect("completes");
        assert!(
            impact.wasted_hop_fraction <= impact.preempted_packet_fraction + 0.05,
            "{topology}: wasted hops {:.3} vs preempted packets {:.3}",
            impact.wasted_hop_fraction,
            impact.preempted_packet_fraction
        );
    }
}

#[test]
fn workload2_pressures_the_far_node_and_still_completes() {
    let config = quick_config();
    for topology in [
        ColumnTopology::Mecs,
        ColumnTopology::Dps,
        ColumnTopology::MeshX2,
    ] {
        let impact = preemption_impact(topology, AdversarialWorkload::Workload2, &config)
            .unwrap_or_else(|e| panic!("{topology}: {e}"));
        assert!(impact.completion_cycles > 0);
        assert!(
            impact.avg_deviation.abs() < 0.5,
            "{topology}: average deviation {:.2} out of range",
            impact.avg_deviation
        );
    }
}

#[test]
fn per_flow_queuing_baseline_never_preempts() {
    // The slowdown baseline is preemption-free by construction; verify
    // indirectly by running the baseline policy standalone.
    use taqos::qos::per_flow::PerFlowQueuedPolicy;
    use taqos::traffic::workloads;

    let config = quick_config();
    let sim = SharedRegionSim::new(ColumnTopology::MeshX1).with_column(config.column);
    let generators = workloads::workload1(
        &config.column,
        &workloads::WORKLOAD1_RATES,
        config.mix,
        config.hotspot,
        config.budget_cycles,
        config.seed,
    );
    let policy = Box::new(PerFlowQueuedPolicy::equal_rates(config.column.num_flows()));
    let network = sim.build(policy, generators).expect("column builds");
    let stats = run_closed(network, None, config.max_cycles).expect("baseline completes");
    assert_eq!(stats.preemption_events, 0);
    assert_eq!(stats.wasted_hops, 0);
    assert_eq!(stats.generated_packets, stats.delivered_packets);
}
