//! Cross-crate integration tests for the load/latency behaviour of the five
//! shared-region topologies (the qualitative shape of Figure 4).

use taqos::core::experiment::latency::{latency_point, SweepConfig, SweepPattern};
use taqos::netsim::sim::OpenLoopConfig;
use taqos::topology::column::ColumnTopology;
use taqos::topology::properties::{zero_load_latency_tornado, zero_load_latency_uniform};

fn quick_config() -> SweepConfig {
    SweepConfig {
        open_loop: OpenLoopConfig {
            warmup: 500,
            measure: 4_000,
            drain: 1_000,
        },
        ..SweepConfig::default()
    }
}

/// Latency of every topology at a given rate and pattern.
fn latencies_at(pattern: SweepPattern, rate: f64) -> Vec<(ColumnTopology, f64)> {
    let config = quick_config();
    ColumnTopology::all()
        .into_iter()
        .map(|t| (t, latency_point(t, pattern, rate, &config).avg_latency))
        .collect()
}

#[test]
fn at_low_load_mecs_and_dps_beat_every_mesh_on_uniform_traffic() {
    let results = latencies_at(SweepPattern::UniformRandom, 0.02);
    let get = |t: ColumnTopology| {
        results
            .iter()
            .find(|(topo, _)| *topo == t)
            .map(|(_, l)| *l)
            .expect("topology present")
    };
    for fast in [ColumnTopology::Mecs, ColumnTopology::Dps] {
        for mesh in [
            ColumnTopology::MeshX1,
            ColumnTopology::MeshX2,
            ColumnTopology::MeshX4,
        ] {
            assert!(
                get(fast) < get(mesh),
                "{fast} ({:.1}) should be faster than {mesh} ({:.1}) at low load",
                get(fast),
                get(mesh)
            );
        }
    }
}

#[test]
fn tornado_favours_mecs_over_dps_at_low_load() {
    // The tornado pattern travels four hops; the single-hop MECS channels
    // amortise their deeper pipeline over the longer distance.
    let results = latencies_at(SweepPattern::Tornado, 0.02);
    let mecs = results
        .iter()
        .find(|(t, _)| *t == ColumnTopology::Mecs)
        .unwrap()
        .1;
    let dps = results
        .iter()
        .find(|(t, _)| *t == ColumnTopology::Dps)
        .unwrap()
        .1;
    assert!(
        mecs <= dps + 0.5,
        "MECS ({mecs:.1}) should not trail DPS ({dps:.1}) on tornado traffic"
    );
}

#[test]
fn the_baseline_mesh_congests_before_the_high_bisection_topologies() {
    // At 8% injection per injector the offered load towards the column far
    // exceeds the baseline mesh's bisection bandwidth but remains within
    // reach of MECS / DPS / mesh x4; the baseline mesh must show clearly
    // higher latency.
    let config = quick_config();
    let mesh_x1 = latency_point(
        ColumnTopology::MeshX1,
        SweepPattern::UniformRandom,
        0.08,
        &config,
    );
    let dps = latency_point(
        ColumnTopology::Dps,
        SweepPattern::UniformRandom,
        0.08,
        &config,
    );
    let mecs = latency_point(
        ColumnTopology::Mecs,
        SweepPattern::UniformRandom,
        0.08,
        &config,
    );
    assert!(
        mesh_x1.avg_latency > 1.5 * dps.avg_latency,
        "mesh x1 ({:.1}) should be deep in congestion while DPS ({:.1}) is not",
        mesh_x1.avg_latency,
        dps.avg_latency
    );
    assert!(mesh_x1.avg_latency > 1.5 * mecs.avg_latency);
    // And the accepted throughput of the baseline mesh is correspondingly
    // lower than that of the high-bisection topologies.
    assert!(mesh_x1.accepted_flits_per_cycle < dps.accepted_flits_per_cycle);
}

#[test]
fn accepted_throughput_tracks_offered_load_before_saturation() {
    let config = quick_config();
    for topology in [
        ColumnTopology::Mecs,
        ColumnTopology::Dps,
        ColumnTopology::MeshX4,
    ] {
        let point = latency_point(topology, SweepPattern::UniformRandom, 0.03, &config);
        // 64 injectors x 0.03 flits/cycle ~ 1.9 flits/cycle offered.
        let offered = 64.0 * 0.03;
        assert!(
            point.accepted_flits_per_cycle > 0.8 * offered,
            "{topology}: accepted {:.2} vs offered {:.2}",
            point.accepted_flits_per_cycle,
            offered
        );
        assert!(point.accepted_flits_per_cycle < 1.2 * offered);
    }
}

#[test]
fn simulated_latency_is_bounded_below_by_the_analytic_zero_load_latency() {
    let config = quick_config();
    type ZeroLoadLatency = fn(ColumnTopology, usize) -> f64;
    let patterns: [(SweepPattern, ZeroLoadLatency); 2] = [
        (SweepPattern::UniformRandom, zero_load_latency_uniform),
        (SweepPattern::Tornado, zero_load_latency_tornado),
    ];
    for (pattern, zero_load_latency) in patterns {
        for topology in ColumnTopology::all() {
            let point = latency_point(topology, pattern, 0.01, &config);
            let analytic = zero_load_latency(topology, 8);
            // At 1% load queueing is negligible: the simulated average sits
            // a few cycles above the analytic zero-load value, the injection
            // serialisation of the request/reply mix.
            let offset = point.avg_latency - analytic;
            assert!(
                (2.0..=4.0).contains(&offset),
                "{pattern:?} on {topology}: simulated {:.2} is {offset:+.2} cycles \
                 off the analytic {analytic:.2}, outside [+2, +4]",
                point.avg_latency,
            );
        }
    }
}
