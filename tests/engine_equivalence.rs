//! Equivalence and determinism guarantees of the optimized hot-path engine.
//!
//! The optimized engine (generational slab packet store, timing-wheel event
//! queue, scratch-buffer arbitration, active-set tracking) must be
//! *cycle-for-cycle equivalent* to the reference engine that reproduces the
//! seed implementation's data structures (hash-map store, binary-heap queue,
//! full scans; like the optimized engine it makes only a handful of
//! allocations per 10 000 steady-state cycles, see `tests/footprint.rs`).
//! These tests compare entire
//! [`NetStats`] values with `==` — every counter, per-flow vector and
//! histogram must match exactly, on every topology family, with and without
//! preemption in play.

use taqos::prelude::*;
use taqos::traffic::workloads;
use taqos_netsim::config::EngineKind;
use taqos_netsim::network::{EngineProfile, Network};
use taqos_qos::pvc::PvcPolicy;
use taqos_topology::mesh2d::Mesh2dConfig;

fn open_loop_stats(topology: ColumnTopology, engine: EngineKind, seed: u64) -> NetStats {
    let sim =
        SharedRegionSim::new(topology).with_sim_config(SimConfig::default().with_engine(engine));
    let generators = workloads::uniform_random(sim.column(), 0.08, PacketSizeMix::paper(), seed);
    let network = sim
        .build(Box::new(sim.default_policy()), generators)
        .expect("column builds");
    run_open_loop(
        network,
        OpenLoopConfig {
            warmup: 500,
            measure: 3_000,
            drain: 1_000,
        },
    )
}

fn closed_stats(topology: ColumnTopology, engine: EngineKind, seed: u64) -> NetStats {
    let sim =
        SharedRegionSim::new(topology).with_sim_config(SimConfig::default().with_engine(engine));
    let generators = workloads::workload1(
        sim.column(),
        &workloads::WORKLOAD1_RATES,
        PacketSizeMix::paper(),
        NodeId(0),
        1_000,
        seed,
    );
    let network = sim
        .build(Box::new(sim.default_policy()), generators)
        .expect("column builds");
    run_closed(network, Some((0, 1_000)), 300_000).expect("closed workload completes")
}

/// The slab/wheel/scratch-buffer engine produces statistics identical to the
/// reference (seed-semantics) engine on an open-loop uniform-random run, for
/// all five column topologies (mesh x1/x2/x4, MECS, DPS).
#[test]
fn open_loop_stats_match_reference_engine() {
    for topology in ColumnTopology::all() {
        let optimized = open_loop_stats(topology, EngineKind::Optimized, 42);
        let reference = open_loop_stats(topology, EngineKind::Reference, 42);
        assert_eq!(optimized, reference, "engines diverged on {topology}");
        assert!(
            optimized.delivered_packets > 0,
            "{topology} delivered nothing"
        );
    }
}

/// Engine equivalence holds through closed adversarial workloads where PVC
/// preemption, NACKs and retransmissions are exercised.
#[test]
fn closed_preemption_stats_match_reference_engine() {
    for topology in [ColumnTopology::MeshX1, ColumnTopology::Dps] {
        let optimized = closed_stats(topology, EngineKind::Optimized, 7);
        let reference = closed_stats(topology, EngineKind::Reference, 7);
        assert_eq!(optimized, reference, "engines diverged on {topology}");
        assert_eq!(optimized.generated_packets, optimized.delivered_packets);
    }
}

/// Flit conservation: on a completed closed workload every generated flit is
/// delivered exactly once, per flow and in aggregate.
#[test]
fn closed_workloads_conserve_flits() {
    for engine in [EngineKind::Optimized, EngineKind::Reference] {
        let stats = closed_stats(ColumnTopology::Dps, engine, 3);
        assert_eq!(stats.generated_packets, stats.delivered_packets);
        let generated_flits: u64 = stats.flows.iter().map(|f| f.generated_flits).sum();
        assert_eq!(
            stats.delivered_flits, generated_flits,
            "{engine:?} lost flits"
        );
        for (i, flow) in stats.flows.iter().enumerate() {
            assert_eq!(
                flow.generated_flits, flow.delivered_flits,
                "flow {i} lost flits under {engine:?}"
            );
        }
        assert!(stats.completion_cycle.is_some());
    }
}

fn mesh2d_stats(engine: EngineKind, seed: u64) -> NetStats {
    let config = Mesh2dConfig::paper_8x8();
    let spec = config.build();
    let generators =
        workloads::uniform_random_terminals(config.num_nodes(), 0.08, PacketSizeMix::paper(), seed);
    let policy: Box<dyn QosPolicy> = Box::new(PvcPolicy::equal_rates(config.num_nodes()));
    let mut network = Network::new(
        spec,
        policy,
        generators,
        SimConfig::default().with_engine(engine),
    )
    .expect("mesh builds");
    network.run_for(3_000);
    network.into_stats()
}

/// Engine equivalence holds on the chip-scale two-dimensional 8×8 mesh.
#[test]
fn mesh2d_stats_match_reference_engine() {
    let optimized = mesh2d_stats(EngineKind::Optimized, 11);
    let reference = mesh2d_stats(EngineKind::Reference, 11);
    assert_eq!(optimized, reference, "engines diverged on the 8x8 mesh");
    assert!(optimized.delivered_packets > 0);
}

fn faulted_chip_stats(engine: EngineKind) -> NetStats {
    use taqos_core::experiment::chip_scale::chip_fault_bench_plan;
    use taqos_netsim::closed_loop::RetryPolicy;

    let sim = taqos_core::chip_sim::ChipSim::paper_default()
        .with_sim_config(SimConfig::default().with_engine(engine));
    let plan = chip_fault_bench_plan(&sim, 21);
    let sim = sim.with_fault_plan(plan);
    let mlp_plan = sim.nearest_mc_mlp_plan(4);
    let spec = workloads::mlp_closed_loop(&mlp_plan).with_retry(RetryPolicy::new(2_000, 4));
    let mut network = sim
        .build_closed_loop(sim.default_policy(), spec)
        .expect("faulted closed-loop chip builds");
    network.run_for(12_000);
    network.into_stats()
}

/// Engine equivalence holds on a failing fabric: dead links rerouted at
/// build time, flit corruption recovered through NACK-retransmit, a
/// transient controller outage, and the requesters' deadline/retry layer all
/// hash engine-independent coordinates, so the optimized and reference
/// engines agree counter-for-counter while actually dropping packets.
#[test]
fn faulted_chip_stats_match_reference_engine() {
    let optimized = faulted_chip_stats(EngineKind::Optimized);
    let reference = faulted_chip_stats(EngineKind::Reference);
    assert_eq!(optimized, reference, "engines diverged on the failing chip");
    assert!(optimized.round_trips > 0, "faulted chip starved outright");
    assert!(
        optimized.fault.total_drops() > 0,
        "the fault plan dropped nothing — the case exercises no recovery"
    );
}

/// A tiny xorshift64* generator for the property sweep below: the test needs
/// reproducible pseudo-random configuration picks, not statistical quality,
/// and deriving them locally keeps the test free of external RNG crates.
struct SweepRng(u64);

impl SweepRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn flag(&mut self) -> bool {
        self.pick(2) == 1
    }
}

/// One randomly drawn closed-loop chip configuration of the property sweep:
/// topology dimensions, MLP window, optional DRAM model (scheduler, page
/// policy, backpressure, geometry all drawn), optional retry layer, optional
/// fault plan, per-router pipeline latencies on odd fault-free cases, and a
/// per-case cycle budget. Returns the statistics and the longest router
/// pipeline latency of the case.
fn sweep_case_stats(case_seed: u64, engine: EngineKind) -> (NetStats, u32) {
    use taqos_core::chip_sim::ChipSim;
    use taqos_core::experiment::chip_scale::chip_fault_bench_plan;
    use taqos_netsim::closed_loop::{
        DramBackpressure, DramConfig, DramScheduler, PagePolicy, RetryPolicy,
    };

    let mut rng = SweepRng(case_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let (width, height, columns) =
        [(6, 6, 1), (8, 8, 1), (10, 8, 2), (12, 12, 2)][rng.pick(4) as usize];
    let faulted = (width, height, columns) == (8, 8, 1) && rng.flag();
    let mlp = [1, 2, 4][rng.pick(3) as usize];
    let with_dram = rng.flag();
    let with_retry = rng.flag();

    let mut sim = ChipSim::multi_column(width, height, columns)
        .with_sim_config(SimConfig::default().with_engine(engine));
    if with_dram {
        let dram = DramConfig::paper()
            .with_banks([2, 8][rng.pick(2) as usize])
            .with_queue_depth([4, 16][rng.pick(2) as usize])
            .with_lines_per_row([2, 64][rng.pick(2) as usize])
            .with_scheduler(
                [
                    DramScheduler::Fcfs,
                    DramScheduler::PriorityAdmission,
                    DramScheduler::FrFcfs,
                ][rng.pick(3) as usize],
            )
            .with_page_policy([PagePolicy::Open, PagePolicy::Closed][rng.pick(2) as usize])
            .with_backpressure(
                [DramBackpressure::Nack, DramBackpressure::Stall][rng.pick(2) as usize],
            )
            .with_age_cap([64, 256][rng.pick(2) as usize]);
        let provisioned = sim.topology_dram(dram);
        sim = sim.with_dram(provisioned);
    }
    if faulted {
        let plan = chip_fault_bench_plan(&sim, rng.next());
        sim = sim.with_fault_plan(plan);
    }
    let plan = sim.nearest_mc_mlp_plan(mlp);
    let mut spec = workloads::mlp_closed_loop(&plan);
    if with_retry {
        spec = spec.with_retry(RetryPolicy::new(2_000, 4));
    }
    let mut network = if case_seed % 2 == 1 && !faulted {
        // A stream of its own, so the draws above stay those of the case.
        let mut latencies = SweepRng(case_seed.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) | 1);
        build_with_drawn_latencies(&sim, spec, engine, &mut latencies)
    } else {
        sim.build_closed_loop(sim.default_policy(), spec)
            .expect("sweep chip builds")
    };
    network.run_for(3_000 + 500 * rng.pick(4));
    let routers = &network.spec().routers;
    let longest = routers.iter().map(|r| r.pipeline_latency()).max();
    (network.into_stats(), longest.unwrap_or(0))
}

/// `sim.build_closed_loop(sim.default_policy(), spec)` on a fault-free chip,
/// with every router's pipeline latency redrawn from 1..=12 and split at
/// random between VC allocation and crossbar traversal. Shipped routers take
/// 2-3 cycles, so a grant waits at most three of the launch ring's four
/// slots; here it waits up to 12 of 16, queued transfers leave the pipeline
/// long after the head retires, and every router has its own latency.
fn build_with_drawn_latencies(
    sim: &taqos_core::chip_sim::ChipSim,
    mut spec: taqos_netsim::closed_loop::ClosedLoopSpec,
    engine: EngineKind,
    rng: &mut SweepRng,
) -> Network {
    use taqos_qos::scoped::ScopedQosPolicy;

    let mut chip = sim.build_spec();
    for router in &mut chip.spec.routers {
        let latency = 1 + rng.pick(12) as u32;
        router.xt_latency = 1 + rng.pick(u64::from(latency)) as u32;
        router.va_latency = latency - router.xt_latency;
    }
    let nodes = chip.config.num_nodes();
    let pvc = PvcPolicy::equal_rates(nodes);
    spec.dram = sim.dram().copied();
    spec.flow_weights = pvc.rates().priority_weights();
    let policy = ScopedQosPolicy::new(pvc, chip.qos_nodes.clone());
    Network::new(
        chip.spec,
        Box::new(policy),
        workloads::idle_terminals(nodes),
        SimConfig::default().with_engine(engine),
    )
    .and_then(|network| network.with_closed_loop(spec))
    .expect("a chip with drawn latencies builds")
}

/// The sweep's unlimited-buffering configuration: ideal per-flow queuing on
/// a line of eight routers, every node but node 0 streaming to node 0
/// through a 64-packet window. Downstream buffers never run short, so the
/// ports behind the bottleneck grow VCs on demand. Frames sample router
/// occupancy every 100 cycles. Returns the spec with the statistics.
fn unlimited_line_stats(engine: EngineKind) -> (NetworkSpec, NetStats) {
    use taqos_qos::per_flow::PerFlowQueuedPolicy;

    let config = Mesh2dConfig {
        width: 8,
        height: 1,
        source_window: 64,
        ..Mesh2dConfig::default()
    };
    let plan: workloads::NodePlan = (0..8)
        .map(|node| (node > 0).then_some((0.5, NodeId(0))))
        .collect();
    let generators = workloads::per_node_fixed(&plan, PacketSizeMix::paper(), 5);
    let telemetry = TelemetryConfig::default().with_frames(100);
    let mut network = Network::new(
        config.build(),
        Box::new(PerFlowQueuedPolicy::equal_rates(8)),
        generators,
        SimConfig::default()
            .with_engine(engine)
            .with_telemetry(telemetry),
    )
    .expect("the line builds");
    network.run_for(3_000);
    (network.spec().clone(), network.into_stats())
}

/// Whether some sampled frame proves an input port held more than 64 VCs:
/// injection ports never grow (their source's credits are finite), so a
/// router holding more packets than its injection VCs plus 64 per network
/// input has a network input above 64.
fn a_port_grew_past_64_vcs(spec: &NetworkSpec, stats: &NetStats) -> bool {
    let frames = stats.frames.as_ref().expect("frames were sampled");
    let bounds: Vec<u64> = spec
        .routers
        .iter()
        .map(|router| {
            let bound = |port: &InputPortSpec| match port.kind {
                InputKind::Injection => u64::from(port.vcs.count),
                _ => 64,
            };
            router.inputs.iter().map(bound).sum()
        })
        .collect();
    frames.frames.iter().any(|frame| {
        let mut occupancy = frame.router_occupancy.iter().zip(&bounds);
        occupancy.any(|(&held, &bound)| held > bound)
    })
}

/// Property sweep: across a seeded family of random chip configurations —
/// topology dimensions and column counts, MLP windows, DRAM scheduler /
/// page-policy / backpressure / geometry draws, retry layers and fault
/// plans, router pipeline latencies — plus one unlimited-buffering
/// configuration, the optimized engine stays bit-identical to the reference
/// engine on the full `NetStats` value. This is the broad-spectrum guard
/// behind the targeted tests above: a hot-path layout change that breaks any
/// corner of the configuration space shows up here as a diverging case seed.
#[test]
fn seeded_property_sweep_matches_reference_engine() {
    let mut delivered_total = 0u64;
    let (mut dram_cases, mut long_pipeline_cases) = (0u32, 0u32);
    for case_seed in 0..12u64 {
        let (optimized, longest) = sweep_case_stats(case_seed, EngineKind::Optimized);
        let (reference, _) = sweep_case_stats(case_seed, EngineKind::Reference);
        assert_eq!(
            optimized, reference,
            "engines diverged on sweep case {case_seed}"
        );
        delivered_total += optimized.delivered_packets;
        if optimized.dram.serviced_requests > 0 {
            dram_cases += 1;
        }
        if longest > 3 {
            long_pipeline_cases += 1;
        }
    }
    assert!(
        long_pipeline_cases >= 2,
        "{long_pipeline_cases} cases drew router latencies beyond the shipped ones"
    );
    let (spec, optimized) = unlimited_line_stats(EngineKind::Optimized);
    let (_, reference) = unlimited_line_stats(EngineKind::Reference);
    assert_eq!(
        optimized, reference,
        "engines diverged on the unlimited line"
    );
    assert!(
        a_port_grew_past_64_vcs(&spec, &optimized),
        "no port of the unlimited line outgrew 64 VCs"
    );
    assert!(
        delivered_total > 0,
        "the sweep delivered nothing — every case degenerated"
    );
    assert!(
        dram_cases >= 2,
        "the sweep exercised {dram_cases} DRAM-backed cases — the draw is miswired"
    );
}

/// Determinism: the same seed produces bit-identical statistics across two
/// independent runs of the optimized engine (the timing wheel and active-set
/// bookkeeping introduce no iteration-order dependence).
#[test]
fn same_seed_runs_are_bit_identical() {
    for topology in [
        ColumnTopology::MeshX2,
        ColumnTopology::Mecs,
        ColumnTopology::Dps,
    ] {
        let a = open_loop_stats(topology, EngineKind::Optimized, 1234);
        let b = open_loop_stats(topology, EngineKind::Optimized, 1234);
        assert_eq!(a, b, "nondeterminism on {topology}");
        let c = open_loop_stats(topology, EngineKind::Optimized, 1235);
        assert_ne!(a, c, "different seeds should differ on {topology}");
    }
}

/// Pinned row-locality regression: the DRAM-backed chip workload streams
/// each requester's private region in row-major line order, so the row-hit
/// rate must be substantial — the bug this test pins down (fine-grained
/// `line % banks` interleaving) made row hits structurally impossible
/// (8 hits in 266k services at the bench scale) while every unit test still
/// passed. The exact [`DramStats`] counters are pinned on both engines so
/// any future drift in the address mapping, bank scheduling or service
/// accounting is caught, not just a wholesale collapse.
#[test]
fn dram_row_locality_stats_are_pinned_on_both_engines() {
    use taqos_core::chip_sim::ChipSim;
    use taqos_netsim::closed_loop::DramConfig;

    let mut pinned = Vec::new();
    for engine in [EngineKind::Optimized, EngineKind::Reference] {
        let sim =
            ChipSim::paper_default().with_sim_config(SimConfig::default().with_engine(engine));
        let provisioned = sim.topology_dram(DramConfig::paper());
        let sim = sim.with_dram(provisioned);
        let plan = sim.nearest_mc_mlp_plan(4);
        let mut network = sim
            .build_closed_loop(sim.default_policy(), workloads::mlp_closed_loop(&plan))
            .expect("DRAM-backed chip builds");
        network.run_for(8_000);
        let stats = network.into_stats();
        assert_eq!(
            stats.dram.serviced_requests, 16_064,
            "{engine:?}: DRAM service volume drifted"
        );
        assert_eq!(
            stats.dram.row_hits, 15_896,
            "{engine:?}: row-hit count drifted — the row-major address \
             mapping no longer keeps each stream on its open row"
        );
        assert_eq!(
            stats.dram.row_misses, 168,
            "{engine:?}: row-miss count drifted"
        );
        assert_eq!(
            stats.dram.bank_busy_cycles, 294_192,
            "{engine:?}: bank service time drifted"
        );
        assert_eq!(
            (
                stats.dram.rejected_requests,
                stats.dram.evicted_requests,
                stats.dram.stalled_requests,
            ),
            (0, 0, 0),
            "{engine:?}: the pinned workload never overflows its queues"
        );
        assert_eq!(
            (stats.dram.queue_wait_sum, stats.dram.max_queue_wait),
            (40_328, 48),
            "{engine:?}: queueing profile drifted"
        );
        pinned.push(stats.dram.clone());
    }
    assert_eq!(pinned[0], pinned[1], "engines diverged on DramStats");
}

/// One randomly drawn **idle-heavy** chip run: most requesters are phased
/// hogs that spend long stretches switched off, a few are MLP-1 victims, the
/// retry layer runs deadlines short enough to time live requests out, and a
/// rate programme lands mid-run. Nearly every source sleeps nearly all the
/// time, so the optimized engine's wake-ups (events and the three timers)
/// carry the run.
fn idle_heavy_case_stats(case_seed: u64, engine: EngineKind) -> NetStats {
    use taqos_core::chip_sim::ChipSim;
    use taqos_netsim::closed_loop::{DramConfig, RetryPolicy};

    let mut rng = SweepRng(case_seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1);
    let (width, height, columns) = [(6, 6, 1), (8, 8, 1), (10, 8, 2)][rng.pick(3) as usize];
    let mut sim = ChipSim::multi_column(width, height, columns)
        .with_sim_config(SimConfig::default().with_engine(engine));
    if rng.flag() {
        let dram = sim.topology_dram(DramConfig::paper());
        sim = sim.with_dram(dram);
    }
    let horizon = 6_000 + 1_000 * rng.pick(4);
    let hog_mlp = 2 + rng.pick(5) as usize;
    let mut plan = sim.nearest_mc_mlp_plan(hog_mlp);
    let mut hogs = Vec::new();
    for (node, slot) in plan.iter_mut().enumerate() {
        let Some((mlp, _)) = slot.as_mut() else {
            continue;
        };
        if rng.pick(8) == 0 {
            *mlp = 1;
        } else {
            hogs.push(FlowId(node as u16));
        }
    }
    let period = 1_500 + 500 * rng.pick(4);
    let on_len = 50 + rng.pick(250);
    let phases = workloads::bursty_hogs(
        plan.len(),
        &hogs,
        hog_mlp,
        period,
        on_len,
        horizon,
        rng.next(),
    );
    let retry = RetryPolicy::new(40 + rng.pick(200), 2 + rng.pick(3) as u32)
        .with_backoff(5 + rng.pick(60))
        .with_jitter_seed(rng.next());
    let spec = workloads::mlp_closed_loop(&plan)
        .with_phases(phases)
        .with_retry(retry);
    let mut network = sim
        .build_closed_loop(sim.default_policy(), spec)
        .expect("idle-heavy chip builds");
    let n = plan.len();
    let rates: Vec<f64> = (0..n).map(|_| (1 + rng.pick(8)) as f64).collect();
    let total: f64 = rates.iter().sum();
    network
        .schedule_reprogram(
            rng.pick(horizon / 2),
            rates.iter().map(|r| r / total).collect(),
        )
        .expect("a normalised positive programme is accepted");
    network.run_for(horizon);
    network.into_stats()
}

/// Idle-heavy property sweep: with almost every source asleep, the
/// optimized engine must still issue, time out, retry and abandon on
/// exactly the reference engine's cycles.
#[test]
fn idle_heavy_sweep_matches_reference_engine() {
    let (mut round_trips, mut timeouts, mut retries) = (0u64, 0u64, 0u64);
    for case_seed in 0..10u64 {
        let optimized = idle_heavy_case_stats(case_seed, EngineKind::Optimized);
        let reference = idle_heavy_case_stats(case_seed, EngineKind::Reference);
        assert_eq!(
            optimized, reference,
            "engines diverged on idle-heavy case {case_seed}"
        );
        round_trips += optimized.round_trips;
        for flow in &optimized.flows {
            timeouts += flow.request_timeouts;
            retries += flow.request_retries;
        }
    }
    assert!(round_trips > 0, "the sweep completed no round trip");
    assert!(
        timeouts > 0 && retries > 0,
        "the sweep never exercised the deadline ({timeouts}) and backoff ({retries}) timers"
    );
}

/// The benchmark's bursty all-to-one incast (63 attackers at MLP 6 bursting
/// 400 of every 1000 cycles, one MLP-1 victim) on the paper chip: mostly
/// idle, one hotspot.
fn incast_chip(engine: EngineKind, cycles: u64) -> Network {
    use taqos_core::chip_sim::ChipSim;
    use taqos_topology::grid::Coord;

    let sim = ChipSim::paper_default().with_sim_config(SimConfig::default().with_engine(engine));
    let (plan, hogs) = sim.incast_plan(Coord::new(0, 4));
    let phases = workloads::bursty_hogs(
        plan.len(),
        &hogs,
        ChipSim::INCAST_ATTACKER_MLP,
        1_000,
        400,
        cycles,
        1,
    );
    let spec = workloads::mlp_closed_loop(&plan).with_phases(phases);
    sim.build_closed_loop(sim.default_policy(), spec)
        .expect("incast chip builds")
}

/// The benchmark's open 8x8 mesh: PVC at every router, every terminal
/// injecting uniform-random traffic at 0.08 flits/cycle. Dense: every router
/// routes, arbitrates and launches most cycles.
fn open_mesh(engine: EngineKind) -> Network {
    let config = Mesh2dConfig::paper_8x8();
    let generators =
        workloads::uniform_random_terminals(config.num_nodes(), 0.08, PacketSizeMix::paper(), 1);
    Network::new(
        config.build(),
        Box::new(PvcPolicy::equal_rates(config.num_nodes())),
        generators,
        SimConfig::default().with_engine(engine),
    )
    .expect("mesh builds")
}

/// Pinned work counters on a sparse and a dense configuration (seed 1,
/// 20 000 cycles, both engines). The whole [`EngineProfile`] is compared
/// with `==`: a lost wake-up changes `NetStats` (caught by the equivalence
/// tests), but a reintroduced scan — or a refactor that visits, walks or
/// replays differently — changes only these counts. The inequalities state
/// the intent the exact numbers serve: the optimized engine's work stays
/// proportional to what happens, not to the size of the chip.
#[test]
fn incast_work_counters_stay_proportional_to_work() {
    const CYCLES: u64 = 20_000;
    // sources_visited, source_wakes, outputs_walked, outputs_arbitrated,
    // outputs_replayed, reply_candidates_scanned, heads_routed,
    // route_checks, launch_visits, flits_launched.
    let profile = |c: [u64; 10]| EngineProfile {
        sources_visited: c[0],
        source_wakes: c[1],
        outputs_walked: c[2],
        outputs_arbitrated: c[3],
        outputs_replayed: c[4],
        reply_candidates_scanned: c[5],
        heads_routed: c[6],
        route_checks: c[7],
        launch_visits: c[8],
        flits_launched: c[9],
    };
    struct Pin {
        name: &'static str,
        build: fn(EngineKind) -> Network,
        /// The most source visits the optimized engine may make, in percent
        /// of the reference engine's (every source, every cycle).
        max_visit_percent: u64,
        optimized: [u64; 10],
        reference: [u64; 10],
    }
    let pins = [
        Pin {
            name: "incast chip",
            build: |engine| incast_chip(engine, CYCLES),
            max_visit_percent: 10,
            optimized: [
                39_825, 17_204, 65_933, 58_364, 7_477, 269_189, 47_465, 47_465, 126_582, 126_582,
            ],
            reference: [
                1_280_000, 64, 6_880_000, 65_841, 0, 1_269_257, 47_465, 27_200_000, 6_880_000,
                126_582,
            ],
        },
        Pin {
            name: "open mesh",
            build: open_mesh,
            max_visit_percent: 20,
            optimized: [
                173_452, 107_354, 257_340, 257_003, 132, 0, 256_300, 256_300, 642_448, 640_038,
            ],
            reference: [
                1_280_000, 64, 5_760_000, 257_135, 0, 0, 256_300, 20_480_000, 5_760_000, 640_038,
            ],
        },
    ];
    for pin in pins {
        let (name, build) = (pin.name, pin.build);
        let profile_of = |engine: EngineKind| {
            let mut network = build(engine);
            let sources = network.spec().sources.len() as u64;
            network.run_for(CYCLES);
            (network.engine_profile(), sources)
        };
        let (optimized, sources) = profile_of(EngineKind::Optimized);
        let (reference, _) = profile_of(EngineKind::Reference);
        println!("{name}: optimized {optimized:?}\n{name}: reference {reference:?}");
        assert_eq!(optimized, profile(pin.optimized), "{name}, optimized");
        assert_eq!(reference, profile(pin.reference), "{name}, reference");

        // Every output the reference engine arbitrates, the optimized engine
        // either arbitrates or replays from its cached blocked verdict.
        assert_eq!(
            optimized.outputs_arbitrated + optimized.outputs_replayed,
            reference.outputs_arbitrated,
            "{name}: the engines decide different outputs"
        );
        assert_eq!(reference.sources_visited, sources * CYCLES);
        assert!(optimized.source_wakes <= optimized.sources_visited);
        assert!(
            // Walked = arbitrated + replayed + the few whose grant queue is full.
            optimized.outputs_walked
                <= optimized.outputs_arbitrated * 11 / 10 + optimized.outputs_replayed,
            "{name}: the allocation phase walks outputs it neither arbitrates nor replays: {optimized:?}"
        );
        assert!(
            optimized.reply_candidates_scanned * 2 <= reference.reply_candidates_scanned,
            "{name}: the reply pick scans replies, not flows: {} vs {}",
            optimized.reply_candidates_scanned,
            reference.reply_candidates_scanned
        );
        // Routing and launch do the same work on both engines; the
        // optimized engine checks exactly the heads it routes, and visits
        // an output only when a flit can go.
        assert_eq!(optimized.heads_routed, reference.heads_routed, "{name}");
        assert_eq!(optimized.flits_launched, reference.flits_launched, "{name}");
        assert_eq!(
            optimized.route_checks, optimized.heads_routed,
            "{name}: the routing phase checks VCs that hold no new head"
        );
        assert!(
            (optimized.launch_visits - optimized.flits_launched) * 100 <= optimized.flits_launched,
            "{name}: the launch phase polls outputs that cannot launch: {optimized:?}"
        );
        // Sources sleep: the idle closed loop between thresholds, the open
        // loop between its generators' firings.
        assert!(
            optimized.sources_visited * 100 <= sources * CYCLES * pin.max_visit_percent,
            "{name}: sources are being polled again: {} visits of {} source-cycles",
            optimized.sources_visited,
            sources * CYCLES
        );
    }
}
