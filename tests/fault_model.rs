//! Integration tests of the fault model and the timeout/retry recovery
//! stack: a seeded property sweep over random chips, DRAM configurations and
//! fault mixes (transient and permanent link/router failures, flit
//! corruption, memory-controller outages) checking exact request
//! conservation and retry accounting on both engines; validation of every
//! user-reachable misconfiguration; the progress watchdog turning a wedged
//! fabric into a structured error instead of a spin; and the
//! graceful-degradation curve of the protected chip under accumulating
//! faults.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use taqos::prelude::*;
use taqos::traffic::workloads;
use taqos_core::experiment::chip_scale::{degradation_under_faults, DegradationConfig};
use taqos_netsim::closed_loop::{DramBackpressure, DramConfig, RetryPolicy};
use taqos_netsim::config::EngineKind;
use taqos_netsim::error::SimError;
use taqos_netsim::fault::{FaultEvent, FaultKind, FaultPlan};
use taqos_netsim::sim::run_closed;
use taqos_netsim::stats::NetStats;

/// One random round of the property sweep: a random small chip, a random
/// fault mix, optionally DRAM-backed controllers, and a bounded closed loop
/// with deadline/retry recovery, run to completion on the given engine.
fn faulted_round(rng_seed: u64, engine: EngineKind) -> (NetStats, u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
    let width = rng.gen_range(3usize..6);
    let height = rng.gen_range(2usize..5);
    let mlp = rng.gen_range(1usize..4);
    let total = rng.gen_range(6u64..14);
    let retry = RetryPolicy::new(rng.gen_range(200u64..600), rng.gen_range(2u32..5));

    let mut sim = ChipSim::multi_column(width as u16, height as u16, 1);
    if rng.gen_bool(0.4) {
        let dram = DramConfig::paper()
            .with_queue_depth(rng.gen_range(1usize..5))
            .with_backpressure(if rng.gen_bool(0.5) {
                DramBackpressure::Nack
            } else {
                DramBackpressure::Stall
            });
        sim = sim.with_dram(dram);
    }
    sim = sim.with_sim_config(SimConfig::default().with_engine(engine));

    // A random fault mix against the concrete fabric: every site index is
    // drawn from the actual spec so the plan always validates.
    let fabric = sim.build_spec();
    let routers = &fabric.spec.routers;
    let mut plan = FaultPlan::new(rng_seed ^ 0xFA11);
    for _ in 0..rng.gen_range(1usize..4) {
        let ri = rng.gen_range(0..routers.len());
        let oi = rng.gen_range(0..routers[ri].outputs.len());
        let start = rng.gen_range(0u64..2_000);
        plan = plan.with_event(if rng.gen_bool(0.5) {
            FaultEvent::transient(
                start,
                start + rng.gen_range(200u64..2_000),
                FaultKind::LinkDown {
                    router: ri,
                    out_port: oi,
                },
            )
        } else {
            FaultEvent::permanent(
                start,
                FaultKind::LinkDown {
                    router: ri,
                    out_port: oi,
                },
            )
        });
    }
    if rng.gen_bool(0.3) {
        let start = rng.gen_range(0u64..2_000);
        plan = plan.with_event(FaultEvent::transient(
            start,
            start + rng.gen_range(200u64..1_500),
            FaultKind::RouterDown {
                router: rng.gen_range(0..routers.len()),
            },
        ));
    }
    plan = plan.with_event(FaultEvent::permanent(
        0,
        FaultKind::CorruptFlits {
            probability_ppm: rng.gen_range(1_000u32..60_000),
        },
    ));
    if rng.gen_bool(0.5) {
        let controllers = sim.controller_nodes();
        let node = controllers[rng.gen_range(0..controllers.len())];
        let start = rng.gen_range(0u64..2_000);
        plan = plan.with_event(FaultEvent::transient(
            start,
            start + rng.gen_range(200u64..1_500),
            FaultKind::McOutage { node },
        ));
    }

    let sim = sim.with_fault_plan(plan);
    let mlp_plan = sim.nearest_mc_mlp_plan(mlp);
    let requesters = mlp_plan.iter().filter(|e| e.is_some()).count() as u64;
    assert!(requesters > 0, "round {rng_seed}: no requesters");
    let spec = workloads::mlp_closed_loop_bounded(&mlp_plan, total).with_retry(retry);
    let network = sim
        .build_closed_loop(sim.default_policy(), spec)
        .unwrap_or_else(|e| panic!("round {rng_seed}: faulted loop fails to build: {e:?}"));
    let stats = run_closed(network, None, 3_000_000)
        .unwrap_or_else(|e| panic!("round {rng_seed}: faulted loop stuck: {e:?}"));
    (stats, total * requesters)
}

/// Seeded property sweep: whatever the fault mix, chip shape, DRAM
/// backpressure flavour or retry policy, the closed loop conserves requests
/// *exactly* — every issued request ends as exactly one of a completed round
/// trip, an abandoned request, or a request still in flight at the horizon —
/// and the retry counters balance: on a drained run every recorded deadline
/// expiration was answered by exactly one re-issue.
#[test]
fn fault_sweeps_conserve_requests_and_balance_retry_counters() {
    for round in 0..8u64 {
        let (stats, issued_budget) = faulted_round(0xFA17_0000 + round, EngineKind::Optimized);
        let mut issued = 0u64;
        for (i, fs) in stats.flows.iter().enumerate() {
            assert_eq!(
                fs.issued_requests,
                fs.round_trips + fs.abandoned_requests + fs.requests_in_flight,
                "round {round}: flow {i} leaked a request"
            );
            issued += fs.issued_requests;
        }
        assert_eq!(issued, issued_budget, "round {round}: wrong issue volume");
        let in_flight: u64 = stats.flows.iter().map(|f| f.requests_in_flight).sum();
        if stats.completion_cycle.is_some() {
            assert_eq!(in_flight, 0, "round {round}: completed run left requests");
            let timeouts: u64 = stats.flows.iter().map(|f| f.request_timeouts).sum();
            let retries: u64 = stats.flows.iter().map(|f| f.request_retries).sum();
            assert_eq!(
                timeouts, retries,
                "round {round}: a deadline expiration was not matched by one re-issue"
            );
        }
        // Fault drops decompose exactly into their causes, and a packet can
        // only be abandoned by the fault layer after at least one drop.
        let f = &stats.fault;
        assert_eq!(
            f.total_drops(),
            f.link_drops + f.router_drops + f.corruption_drops,
            "round {round}: unclassified fault drop"
        );
        assert!(
            f.abandoned_packets <= f.total_drops(),
            "round {round}: abandoned packets without drops"
        );
    }
}

/// Determinism and engine equivalence under faults: every swept fault mix
/// produces bit-identical [`NetStats`] across two runs of the optimized
/// engine *and* across the optimized/reference engine pair — the corruption
/// draws and retry jitter hash engine-independent coordinates, so an
/// injected failure can never make the engines drift apart.
#[test]
fn fault_runs_are_deterministic_and_engine_equivalent() {
    for round in 0..4u64 {
        let seed = 0xFA17_1000 + round;
        let (a, _) = faulted_round(seed, EngineKind::Optimized);
        let (b, _) = faulted_round(seed, EngineKind::Optimized);
        assert_eq!(a, b, "round {seed}: optimized engine is nondeterministic");
        let (r, _) = faulted_round(seed, EngineKind::Reference);
        assert_eq!(a, r, "round {seed}: engines diverged under faults");
    }
}

/// Every user-reachable misconfiguration of the fault and retry layers is a
/// structured error, not a panic or a silent misbehaviour: empty fault
/// windows, out-of-range corruption probabilities, a zero retransmit budget,
/// zero retry deadlines and attempt budgets, plan references to components
/// the fabric lacks, and a zero MLP window.
#[test]
fn invalid_fault_and_retry_configurations_are_rejected() {
    // Empty (and inverted) fault windows.
    let empty = FaultPlan::new(1).with_event(FaultEvent::transient(
        5,
        5,
        FaultKind::RouterDown { router: 0 },
    ));
    assert!(empty.validate().is_err(), "empty window must be rejected");

    // Corruption probability outside 1..=1_000_000 ppm.
    for ppm in [0u32, 1_000_001] {
        let plan = FaultPlan::new(1).with_event(FaultEvent::permanent(
            0,
            FaultKind::CorruptFlits {
                probability_ppm: ppm,
            },
        ));
        assert!(plan.validate().is_err(), "{ppm} ppm must be rejected");
    }

    // A zero NACK-retransmit budget can never recover anything.
    assert!(FaultPlan::new(1)
        .with_retransmit_budget(0)
        .validate()
        .is_err());

    // Retry policies with no deadline or no attempts.
    assert!(RetryPolicy::new(0, 3).validate().is_err());
    assert!(RetryPolicy::new(100, 0).validate().is_err());

    // A structurally valid plan referencing a router the column fabric does
    // not have is rejected at build time, before any cycle runs.
    let sim =
        SharedRegionSim::new(ColumnTopology::MeshX1).with_fault_plan(FaultPlan::new(1).with_event(
            FaultEvent::permanent(0, FaultKind::RouterDown { router: 1_000 }),
        ));
    let generators = workloads::uniform_random(sim.column(), 0.02, PacketSizeMix::paper(), 1);
    assert!(
        sim.build(Box::new(sim.default_policy()), generators)
            .is_err(),
        "plan referencing a missing router must be rejected"
    );

    // A zero MLP window can never issue and is rejected up front.
    let chip = ChipSim::multi_column(4, 4, 1);
    let plan = chip.nearest_mc_mlp_plan(0);
    assert!(
        chip.build_closed_loop(chip.default_policy(), workloads::mlp_closed_loop(&plan))
            .is_err(),
        "zero MLP window must be rejected"
    );
}

/// Builds a 4×4 chip whose entire shared column is permanently dark, with no
/// retry layer: every request is dropped at launch until its fault
/// retransmit budget runs out, the abandoned window slots are never
/// reclaimed, and the fabric wedges with live packets parked forever.
fn wedged_chip(watchdog: Cycle) -> taqos_netsim::network::Network {
    let sim = ChipSim::multi_column(4, 4, 1)
        .with_sim_config(SimConfig::default().with_progress_watchdog(watchdog));
    let fabric = sim.build_spec();
    let config = sim.config();
    let mut plan = FaultPlan::new(7);
    for (ri, router) in fabric.spec.routers.iter().enumerate() {
        let (x, _) = config.coords(router.node);
        if config.shared_columns.contains(&(x as u16)) {
            plan = plan.with_event(FaultEvent::permanent(
                0,
                FaultKind::RouterDown { router: ri },
            ));
        }
    }
    let sim = sim.with_fault_plan(plan);
    let mlp_plan = sim.nearest_mc_mlp_plan(2);
    sim.build_closed_loop(
        sim.default_policy(),
        workloads::mlp_closed_loop_bounded(&mlp_plan, 4),
    )
    .expect("wedged chip still builds")
}

/// The progress watchdog converts "no forward progress for N cycles" into a
/// structured [`SimError::NoForwardProgress`] carrying the stall length and
/// the live-packet census — instead of spinning to the cycle cap. Disabling
/// the watchdog (threshold 0) restores the old spin-to-timeout behaviour,
/// which is exactly what the watchdog exists to prevent.
#[test]
fn wedged_fabric_errors_instead_of_spinning() {
    match run_closed(wedged_chip(2_000), None, 60_000) {
        Err(SimError::NoForwardProgress {
            cycles,
            stalled_for,
            ..
        }) => {
            assert!(stalled_for >= 2_000, "stall shorter than the threshold");
            assert!(cycles < 60_000, "watchdog fired after the cycle cap");
        }
        other => panic!("expected NoForwardProgress, got {other:?}"),
    }

    match run_closed(wedged_chip(0), None, 30_000) {
        Err(SimError::Timeout { .. }) => {}
        other => panic!("expected a spin to Timeout with the watchdog off, got {other:?}"),
    }
}

/// A sweep over no fault counts runs nothing and returns no points (it has
/// no baseline to compute ratios against).
#[test]
fn an_empty_fault_sweep_returns_no_points() {
    let config = DegradationConfig {
        fault_counts: Vec::new(),
        ..DegradationConfig::quick()
    };
    assert!(degradation_under_faults(&config).is_empty());
}

/// Graceful degradation under accumulating faults: with the full protection
/// stack (shared-column QOS, fault-aware reroute, deadline/retry recovery)
/// the victim's round-trip latency grows monotonically and stays within
/// 1.5× its fault-free bound across the swept fault counts, while the bare
/// fabric runs several times slower in absolute terms at every point. Fault
/// drops grow with the fault count; zero faults drop nothing.
#[test]
fn protected_victim_degrades_gracefully_under_faults() {
    let points = degradation_under_faults(&DegradationConfig::quick());
    assert_eq!(points.len(), 4);
    assert_eq!(points[0].faults, 0);
    assert_eq!(points[0].protected_fault_drops, 0, "fault-free run dropped");

    let mut previous = 0.0f64;
    for p in &points {
        let ratio = p
            .protected_vs_fault_free
            .expect("protected victim never starves");
        assert!(
            ratio <= 1.5,
            "{} faults: protected victim degraded {ratio:.3}x, past the graceful bound",
            p.faults
        );
        assert!(
            ratio >= previous - 0.02,
            "{} faults: degradation curve is not monotone ({ratio:.3} after {previous:.3})",
            p.faults
        );
        previous = ratio;

        // Graceful degradation must hold in the tail as well: the victim's
        // p99 round trip stays within a small multiple of its fault-free
        // tail at every fault count (log2-bucket upper-bound ratio, so the
        // constant is coarser than the 1.5x mean bound).
        let p99_ratio = p
            .protected_p99_vs_fault_free
            .expect("protected victim has a tail figure");
        assert!(
            p99_ratio <= 4.0,
            "{} faults: protected p99 degraded {p99_ratio:.3}x, past the graceful tail bound",
            p.faults
        );

        let protected_rt = p.protected.avg_round_trip.expect("protected completes");
        let unprotected_rt = p.unprotected.avg_round_trip.expect("unprotected completes");
        assert!(
            unprotected_rt >= 3.0 * protected_rt,
            "{} faults: bare fabric ({unprotected_rt:.1}) should run far behind the \
             protected stack ({protected_rt:.1})",
            p.faults
        );
    }
    let last = points.last().expect("sweep has points");
    assert!(last.protected_fault_drops > 0, "faults must cost something");
    assert!(
        last.protected_fault_drops > points[1].protected_fault_drops,
        "drops should grow with the fault count"
    );
}
