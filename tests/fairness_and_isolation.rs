//! Cross-crate integration tests for hotspot fairness (Table 2) and the
//! performance-isolation claims of the architecture.

use taqos::core::experiment::fairness::{hotspot_fairness, FairnessConfig, FairnessPolicy};
use taqos::topology::column::ColumnTopology;

fn quick_config() -> FairnessConfig {
    FairnessConfig {
        warmup: 500,
        measure: 6_000,
        ..FairnessConfig::default()
    }
}

#[test]
fn every_topology_is_fair_under_pvc_on_the_hotspot() {
    let config = quick_config();
    for topology in ColumnTopology::all() {
        let result = hotspot_fairness(topology, FairnessPolicy::Pvc, &config);
        let summary = result.summary;
        assert!(summary.mean > 0.0, "{topology}: hotspot delivered nothing");
        assert!(summary.min > 0.0, "{topology}: some flow starved under PVC");
        assert!(
            result.jain > 0.85,
            "{topology}: Jain index {:.3} too low",
            result.jain
        );
        let deviation = (100.0 - summary.min_pct_of_mean()).max(summary.max_pct_of_mean() - 100.0);
        assert!(
            deviation < 40.0,
            "{topology}: worst deviation {deviation:.1}% from the mean"
        );
    }
}

#[test]
fn without_qos_distance_to_the_hotspot_determines_throughput() {
    // The classic parking-lot unfairness: under round-robin arbitration the
    // flows of nodes close to the hotspot receive far more bandwidth than the
    // distant ones. PVC removes the gap.
    let config = quick_config();
    let column = config.column;
    let fifo = hotspot_fairness(ColumnTopology::MeshX1, FairnessPolicy::NoQos, &config);
    let pvc = hotspot_fairness(ColumnTopology::MeshX1, FairnessPolicy::Pvc, &config);

    let near_flow = column.flow_of(1, 0).index();
    let far_flow = column.flow_of(7, 0).index();
    let fifo_near = fifo.flits_per_flow[near_flow] as f64;
    let fifo_far = fifo.flits_per_flow[far_flow] as f64;
    let pvc_near = pvc.flits_per_flow[near_flow] as f64;
    let pvc_far = pvc.flits_per_flow[far_flow] as f64;

    assert!(
        fifo_near > 2.0 * fifo_far.max(1.0),
        "without QOS the near flow ({fifo_near}) should dwarf the far flow ({fifo_far})"
    );
    let pvc_ratio = pvc_near / pvc_far.max(1.0);
    assert!(
        pvc_ratio < 1.6,
        "with PVC the near/far ratio should be close to 1, got {pvc_ratio:.2}"
    );
    assert!(pvc.jain > fifo.jain);
}

#[test]
fn mecs_buffering_gives_it_the_tightest_fairness() {
    // The paper observes that fairness correlates with buffer capacity: MECS
    // (by far the deepest buffers) has the smallest spread. We check the
    // weaker, robust form: MECS is never worse than the baseline mesh.
    let config = quick_config();
    let mecs = hotspot_fairness(ColumnTopology::Mecs, FairnessPolicy::Pvc, &config);
    let mesh = hotspot_fairness(ColumnTopology::MeshX1, FairnessPolicy::Pvc, &config);
    assert!(
        mecs.summary.std_dev_pct_of_mean() <= mesh.summary.std_dev_pct_of_mean() + 1.0,
        "MECS spread {:.2}% should not exceed mesh x1 spread {:.2}%",
        mecs.summary.std_dev_pct_of_mean(),
        mesh.summary.std_dev_pct_of_mean()
    );
}

#[test]
fn hotspot_ejection_port_is_the_bottleneck() {
    // Total delivered throughput is capped by the single terminal at the
    // hotspot (1 flit/cycle), regardless of topology bandwidth.
    let config = quick_config();
    for topology in [ColumnTopology::Mecs, ColumnTopology::MeshX4] {
        let result = hotspot_fairness(topology, FairnessPolicy::Pvc, &config);
        let total: f64 = result.flits_per_flow.iter().map(|&f| f as f64).sum();
        let per_cycle = total / config.measure as f64;
        assert!(
            per_cycle <= 1.05,
            "{topology}: delivered {per_cycle:.2} flits/cycle through a single terminal"
        );
        assert!(
            per_cycle > 0.5,
            "{topology}: the hotspot terminal should be well utilised, got {per_cycle:.2}"
        );
    }
}
