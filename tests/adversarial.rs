//! Integration tests of the adversarial & heterogeneous workload battery:
//! a seeded property sweep over random chips, random per-flow weight mixes,
//! random phase schedules (bursty hogs and trace-shaped changes) and random
//! mid-run rate reprogrammings, checking exact request conservation,
//! determinism and cross-engine equality; deterministic tests of the
//! transition path (rate changes land exactly at frame rollovers, migration
//! drains without losing or double-counting in-flight requests, frame-series
//! deltas straddling a phase change still sum to the aggregate counters);
//! and typed rejection of every bad rate programme.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use taqos::prelude::*;
use taqos::traffic::workloads;
use taqos_netsim::closed_loop::{PhaseChange, PhaseSchedule, PhasedWorkload};
use taqos_netsim::config::EngineKind;
use taqos_netsim::error::ReprogramError;
use taqos_netsim::sim::run_open_loop;
use taqos_netsim::stats::NetStats;
use taqos_qos::pvc::{PvcConfig, PvcPolicy};
use taqos_qos::rates::{RateAllocation, RateError};
use taqos_topology::grid::Coord;

/// One random round of the sweep: a random small chip, a random weight mix
/// programmed into short-frame PVC, random phase schedules over the
/// requesters (bursty on/off hogs and strictly-increasing trace changes),
/// an optional DRAM backend, and up to two mid-run rate reprogrammings.
fn adversarial_round(seed: u64, engine: EngineKind) -> NetStats {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let width = rng.gen_range(3usize..6);
    let height = rng.gen_range(2usize..5);
    let mlp = rng.gen_range(1usize..4);
    let frame_len = rng.gen_range(500u64..1_500);

    let mut sim = ChipSim::multi_column(width as u16, height as u16, 1);
    if rng.gen_bool(0.4) {
        sim = sim.with_dram(
            taqos_netsim::closed_loop::DramConfig::paper()
                .with_queue_depth(rng.gen_range(2usize..6)),
        );
    }
    let sim = sim.with_sim_config(SimConfig::default().with_engine(engine));
    let n = sim.config().num_nodes();

    let random_rates = |rng: &mut ChaCha8Rng| -> Vec<f64> {
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0f64..8.0)).collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    };
    let policy = ChipPolicy::ColumnPvc(PvcPolicy::new(
        PvcConfig {
            frame_len,
            ..PvcConfig::paper()
        },
        RateAllocation::from_rates(random_rates(&mut rng)),
    ));

    let plan = sim.nearest_mc_mlp_plan(mlp);
    let horizon = 6_000u64;
    let mut phases = PhasedWorkload::new(n);
    for (node, slot) in plan.iter().enumerate() {
        if slot.is_none() || !rng.gen_bool(0.35) {
            continue;
        }
        let flow = FlowId(node as u16);
        if rng.gen_bool(0.5) {
            phases = phases.with_schedule(
                flow,
                workloads::bursty_schedule(
                    flow,
                    rng.gen_range(2usize..6),
                    rng.gen_range(600u64..1_200),
                    rng.gen_range(200u64..500),
                    horizon,
                    seed ^ 0xB127,
                ),
            );
        } else {
            let mut at = rng.gen_range(200u64..1_000);
            let mut changes = Vec::new();
            for _ in 0..rng.gen_range(1usize..4) {
                changes.push(PhaseChange {
                    at,
                    mlp: rng.gen_range(0usize..5),
                });
                at += rng.gen_range(300u64..900);
            }
            phases = phases.with_schedule(flow, PhaseSchedule::new(changes));
        }
    }
    let spec = workloads::mlp_closed_loop(&plan).with_phases(phases);

    let mut network = sim
        .build_closed_loop(policy, spec)
        .unwrap_or_else(|e| panic!("round {seed}: build failed: {e:?}"));
    for _ in 0..rng.gen_range(0usize..3) {
        let at = rng.gen_range(500u64..5_000);
        network
            .schedule_reprogram(at, random_rates(&mut rng))
            .unwrap_or_else(|e| panic!("round {seed}: valid reprogram rejected: {e:?}"));
    }
    run_open_loop(
        network,
        OpenLoopConfig {
            warmup: 1_000,
            measure: 4_000,
            drain: 1_000,
        },
    )
}

/// Seeded property sweep: whatever the phase schedule, weight mix, DRAM
/// flavour or mid-run reprogramming, the closed loop conserves requests
/// *exactly* — every issued request ends as exactly one of a completed
/// round trip, an abandoned request, or a request still in flight at the
/// horizon — and the sweep as a whole makes real progress.
#[test]
fn phased_weighted_sweeps_conserve_requests() {
    let mut total_round_trips = 0u64;
    for round in 0..8u64 {
        let stats = adversarial_round(0xAD5A_0000 + round, EngineKind::Optimized);
        for (i, fs) in stats.flows.iter().enumerate() {
            assert_eq!(
                fs.issued_requests,
                fs.round_trips + fs.abandoned_requests + fs.requests_in_flight,
                "round {round}: flow {i} leaked a request"
            );
        }
        total_round_trips += stats.round_trips;
    }
    assert!(total_round_trips > 0, "sweep completed no round trips");
}

/// Determinism and engine equivalence under dynamic traffic: every swept
/// combination of phase schedules, weights and reprogrammings produces
/// bit-identical [`NetStats`] across two runs of the optimized engine *and*
/// across the optimized/reference engine pair — the phase and reprogram
/// machinery is shared data consulted by both engines, so dynamic workloads
/// can never make them drift apart.
#[test]
fn phased_runs_are_deterministic_and_engine_equivalent() {
    for round in 0..4u64 {
        let seed = 0xAD5A_1000 + round;
        let a = adversarial_round(seed, EngineKind::Optimized);
        let b = adversarial_round(seed, EngineKind::Optimized);
        assert_eq!(a, b, "round {seed}: optimized engine is nondeterministic");
        let r = adversarial_round(seed, EngineKind::Reference);
        assert_eq!(a, r, "round {seed}: engines diverged under dynamic traffic");
    }
}

/// Rate reprogramming lands exactly at the frame rollover (where the PVC
/// counters flush), never mid-frame: every schedule point inside the same
/// frame produces bit-identical statistics, and a point one cycle into the
/// next frame produces different ones.
#[test]
fn reprogramming_lands_exactly_at_frame_rollover() {
    let sim = ChipSim::multi_column(4, 4, 1);
    let n = sim.config().num_nodes();
    let frame = 1_000u64;
    let policy = || {
        ChipPolicy::ColumnPvc(PvcPolicy::new(
            PvcConfig {
                frame_len: frame,
                ..PvcConfig::paper()
            },
            RateAllocation::equal(n),
        ))
    };
    let plan = sim.nearest_mc_mlp_plan(3);
    let mut skew = vec![1.0f64; n];
    skew[0] = 60.0;
    let total: f64 = skew.iter().sum();
    let skewed = RateAllocation::from_rates(skew.into_iter().map(|r| r / total).collect());
    let run = |at: Cycle| {
        let mut network = sim
            .build_closed_loop(policy(), workloads::mlp_closed_loop(&plan))
            .expect("reprogrammed run builds");
        network
            .schedule_reprogram(at, skewed.rates().to_vec())
            .expect("reprogramme schedules");
        run_open_loop(
            network,
            OpenLoopConfig {
                warmup: 500,
                measure: 5_000,
                drain: 500,
            },
        )
    };
    // Cycles 1, 999 and 1000 all resolve to the rollover at cycle 1000.
    let at_frame_start = run(1);
    assert_eq!(
        at_frame_start,
        run(999),
        "two schedule points inside one frame must land identically"
    );
    assert_eq!(
        at_frame_start,
        run(frame),
        "a point on the boundary lands at that boundary's rollover"
    );
    // One cycle later resolves to the *next* rollover, a frame of the old
    // rates later — observably different.
    assert_ne!(
        at_frame_start,
        run(frame + 1),
        "a point past the boundary must land a full frame later"
    );
}

/// Migration (phase hand-over plus reprogramming at the same instant) never
/// drops or double-counts an in-flight request: the old site drains to zero
/// in flight, the new site starts issuing, conservation holds per flow, and
/// the whole transition is engine-equivalent.
#[test]
fn migration_never_drops_or_double_counts_in_flight_requests() {
    let run = |engine: EngineKind| {
        let sim = ChipSim::multi_column(4, 4, 1)
            .with_sim_config(SimConfig::default().with_engine(engine));
        let n = sim.config().num_nodes();
        let old_nodes = [Coord::new(0, 0), Coord::new(1, 0)];
        let new_nodes = [Coord::new(0, 3), Coord::new(1, 3)];
        let union: Vec<Coord> = old_nodes.iter().chain(new_nodes.iter()).copied().collect();
        let plan = sim.mlp_plan_for(&union, 3);
        let phases = sim.migration_phases(&old_nodes, &new_nodes, 2_500, 3);
        let mut skew = vec![1.0f64; n];
        for &c in &new_nodes {
            skew[sim.node_id(c).index()] = 4.0;
        }
        let total: f64 = skew.iter().sum();
        let rates = RateAllocation::from_rates(skew.into_iter().map(|r| r / total).collect());
        let policy = ChipPolicy::ColumnPvc(PvcPolicy::new(
            PvcConfig {
                frame_len: 1_000,
                ..PvcConfig::paper()
            },
            RateAllocation::equal(n),
        ));
        let mut network = sim
            .build_closed_loop(
                policy,
                workloads::mlp_closed_loop(&plan).with_phases(phases),
            )
            .expect("migration run builds");
        network
            .schedule_reprogram(2_500, rates.rates().to_vec())
            .expect("reprogramme schedules");
        let stats = run_open_loop(
            network,
            OpenLoopConfig {
                warmup: 1_000,
                measure: 4_000,
                drain: 1_000,
            },
        );
        (sim, stats)
    };
    let (sim, stats) = run(EngineKind::Optimized);
    for (i, fs) in stats.flows.iter().enumerate() {
        assert_eq!(
            fs.issued_requests,
            fs.round_trips + fs.abandoned_requests + fs.requests_in_flight,
            "flow {i} leaked a request through the migration"
        );
    }
    for &c in &[Coord::new(0, 0), Coord::new(1, 0)] {
        let fs = &stats.flows[sim.node_id(c).index()];
        assert!(fs.issued_requests > 0, "old site never ran");
        assert_eq!(
            fs.requests_in_flight, 0,
            "old site must drain its in-flight requests after the hand-over"
        );
        assert_eq!(
            fs.issued_requests,
            fs.round_trips + fs.abandoned_requests,
            "a drained site's requests all completed or were abandoned"
        );
    }
    for &c in &[Coord::new(0, 3), Coord::new(1, 3)] {
        let fs = &stats.flows[sim.node_id(c).index()];
        assert!(fs.issued_requests > 0, "new site never started");
    }
    let (_, reference) = run(EngineKind::Reference);
    assert_eq!(stats, reference, "migration diverged across engines");
}

/// Frame-series deltas straddling a phase change (and a rate reprogramming)
/// still sum to the aggregate counters: the samplers are driven by the same
/// shared counters the phases mutate, so no delta is lost or double-counted
/// at the transition.
#[test]
fn frame_series_deltas_straddling_a_phase_change_sum_to_aggregates() {
    const FRAME_LEN: u64 = 500;
    let sim = ChipSim::multi_column(4, 4, 1).with_sim_config(
        SimConfig::default().with_telemetry(TelemetryConfig::off().with_frames(FRAME_LEN)),
    );
    let n = sim.config().num_nodes();
    let plan = sim.nearest_mc_mlp_plan(2);
    // A phase change off a frame boundary, plus a reprogram near it.
    let mut phases = PhasedWorkload::new(n);
    phases = phases.with_schedule(
        FlowId(0),
        PhaseSchedule::new(vec![
            PhaseChange { at: 2_750, mlp: 0 },
            PhaseChange { at: 4_250, mlp: 4 },
        ]),
    );
    let policy = ChipPolicy::ColumnPvc(PvcPolicy::new(
        PvcConfig {
            frame_len: 1_000,
            ..PvcConfig::paper()
        },
        RateAllocation::equal(n),
    ));
    let mut network = sim
        .build_closed_loop(
            policy,
            workloads::mlp_closed_loop(&plan).with_phases(phases),
        )
        .expect("phased telemetry run builds");
    network
        .schedule_reprogram(2_500, RateAllocation::equal(n).rates().to_vec())
        .expect("reprogramme schedules");
    let stats = run_open_loop(
        network,
        OpenLoopConfig {
            warmup: 1_000,
            measure: 4_000,
            drain: 1_000,
        },
    );
    let series = stats.frames.as_ref().expect("frame series enabled");
    assert_eq!(series.dropped_frames, 0);
    assert_eq!(series.len(), (6_000 / FRAME_LEN) as usize);
    let mut round_trips = vec![0u64; n];
    let mut delivered = vec![0u64; n];
    for snap in &series.frames {
        for (f, flow) in snap.flows.iter().enumerate() {
            round_trips[f] += flow.round_trips;
            delivered[f] += flow.delivered_flits;
        }
    }
    for (f, fs) in stats.flows.iter().enumerate() {
        assert_eq!(
            round_trips[f], fs.round_trips,
            "flow {f}: round-trip deltas do not sum across the phase change"
        );
        assert_eq!(
            delivered[f], fs.delivered_flits,
            "flow {f}: delivered-flit deltas do not sum across the phase change"
        );
    }
    // The phased flow was observably off during its gap: some frame inside
    // (2750, 4250] must show zero issued round trips for flow 0 while the
    // run as a whole completed some.
    assert!(stats.flows[0].round_trips > 0, "phased flow never ran");
    let gap_frames = series
        .frames
        .iter()
        .filter(|s| s.cycle > 3_000 && s.cycle <= 4_250)
        .count();
    assert!(gap_frames > 0, "no frames sampled inside the off phase");
}

/// Inter-domain traffic routed through the shared columns keeps the engines
/// bit-identical: with the fabric flag on, cross-row node-to-node traffic
/// diverts through the nearest column (the architectural
/// `inter_domain_route`) and both engines agree on every counter.
#[test]
fn inter_domain_routing_keeps_engines_equal() {
    let run = |engine: EngineKind| {
        let base = ChipSim::multi_column(4, 4, 1);
        let config = base.config().clone().with_inter_domain_via_column();
        let sim = base
            .with_chip_config(config)
            .with_sim_config(SimConfig::default().with_engine(engine));
        let generators = workloads::uniform_random_terminals(
            sim.config().num_nodes(),
            0.04,
            PacketSizeMix::paper(),
            11,
        );
        let network = sim
            .build(sim.default_policy(), generators)
            .expect("inter-domain chip builds");
        run_open_loop(
            network,
            OpenLoopConfig {
                warmup: 500,
                measure: 3_000,
                drain: 500,
            },
        )
    };
    let optimized = run(EngineKind::Optimized);
    assert!(optimized.delivered_packets > 0, "no traffic delivered");
    let reference = run(EngineKind::Reference);
    assert_eq!(
        optimized, reference,
        "inter-domain routing diverged across engines"
    );
}

/// Every bad rate programme is a typed error, not a panic: empty,
/// non-positive and oversubscribed allocations at construction, and
/// engine-level reprogrammings that cover the wrong number of flows, are
/// malformed, sum above 1 or have no frame to anchor to.
#[test]
fn bad_rate_programmes_are_rejected_with_typed_errors() {
    assert_eq!(
        RateAllocation::try_from_rates(Vec::new()).unwrap_err(),
        RateError::Empty
    );
    match RateAllocation::try_from_rates(vec![0.5, -0.1]).unwrap_err() {
        RateError::NonPositiveRate { flow, .. } => assert_eq!(flow, 1),
        other => panic!("expected NonPositiveRate, got {other:?}"),
    }
    assert_eq!(
        RateAllocation::try_from_rates(vec![0.8, 0.8]).unwrap_err(),
        RateError::Oversubscribed { total: 1.6 }
    );

    // Engine-level: a reprogram must cover every flow with positive finite
    // rates and needs a frame-based policy to anchor to.
    let sim = ChipSim::multi_column(4, 4, 1);
    let plan = sim.nearest_mc_mlp_plan(2);
    let n = sim.config().num_nodes();
    let mut network = sim
        .build_closed_loop(sim.default_policy(), workloads::mlp_closed_loop(&plan))
        .expect("chip builds");
    assert_eq!(
        network.schedule_reprogram(100, vec![0.5; n - 1]),
        Err(SimError::Reprogram(ReprogramError::FlowCount {
            supplied: n - 1,
            flows: n
        }))
    );
    let mut rates = vec![0.5; n];
    rates[3] = 0.0;
    assert_eq!(
        network.schedule_reprogram(100, rates),
        Err(SimError::Reprogram(ReprogramError::NonPositiveRate {
            flow: 3,
            rate: 0.0
        }))
    );
    match network.schedule_reprogram(100, vec![f64::NAN; n]) {
        Err(SimError::Reprogram(ReprogramError::NonPositiveRate { flow, rate })) => {
            assert_eq!(flow, 0);
            assert!(rate.is_nan());
        }
        other => panic!("expected NonPositiveRate, got {other:?}"),
    }
    let mut oversubscribed = vec![0.1 / n as f64; n];
    oversubscribed[..2].copy_from_slice(&[0.8, 0.8]);
    match network.schedule_reprogram(100, oversubscribed) {
        Err(SimError::Reprogram(ReprogramError::Oversubscribed { total })) => {
            assert!(total > 1.6, "{total}");
        }
        other => panic!("expected Oversubscribed, got {other:?}"),
    }
    assert!(network
        .schedule_reprogram(100, vec![1.0 / n as f64; n])
        .is_ok());
    let mut no_frames = sim
        .build_closed_loop(ChipPolicy::NoQos, workloads::mlp_closed_loop(&plan))
        .expect("bare chip builds");
    assert_eq!(
        no_frames.schedule_reprogram(100, vec![1.0 / n as f64; n]),
        Err(SimError::Reprogram(ReprogramError::NoFrames)),
        "a frameless policy has no rollover to anchor a rate change to"
    );
}
