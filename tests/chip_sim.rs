//! Cross-crate integration tests of the chip-scale simulation subsystem: the
//! hybrid 2-D-mesh + MECS-express fabric, the shared-column QOS overlay, and
//! the `ChipSim` facade.
//!
//! Covers the acceptance criteria of the subsystem: engine equivalence
//! (bit-identical `NetStats` between the optimized and reference engines) on
//! open-loop *and* closed-loop request/reply workloads, flit conservation on
//! closed chip workloads, the one-MECS-hop reachability property of the
//! built `NetworkSpec` (seeded ChaCha8 sweep over chip shapes), exhaustive
//! agreement between the fabric's routing tables and the architectural
//! `memory_access_route`/`memory_reply_route` rules, and agreement between
//! the architectural model's `qos_router_fraction` and the fabric's
//! per-router QOS flags.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use taqos::prelude::*;
use taqos::traffic::workloads;
use taqos_netsim::config::EngineKind;
use taqos_netsim::spec::{OutputKind, TargetEndpoint};

fn paper_chip_sim(engine: EngineKind) -> ChipSim {
    ChipSim::paper_default().with_sim_config(SimConfig::default().with_engine(engine))
}

/// A demanding mixed plan: every non-column node streams to its nearest
/// memory controller hard enough to saturate the column and trigger PVC
/// preemption at the protected routers.
fn saturating_plan(sim: &ChipSim, rate: f64) -> workloads::NodePlan {
    sim.nearest_mc_plan(rate)
}

fn open_loop_chip_stats(engine: EngineKind, rate: f64, seed: u64) -> NetStats {
    let sim = paper_chip_sim(engine);
    // All 56 non-column nodes flood one memory controller, and the reserved
    // quota is disabled so every buffered packet is fair game: the blocked
    // column saturates and PVC preempts at the protected routers.
    let mc = sim.node_id(taqos::topology::grid::Coord::new(4, 7));
    let plan: workloads::NodePlan = (0..sim.config().num_nodes())
        .map(|node| {
            let c = sim.coord(NodeId(node as u16));
            (!sim.chip().is_shared(c)).then_some((rate, mc))
        })
        .collect();
    let policy = ChipPolicy::ColumnPvc(PvcPolicy::new(
        PvcConfig {
            reserved_fraction: 0.0,
            ..PvcConfig::paper()
        },
        RateAllocation::equal(sim.config().num_nodes()),
    ));
    let generators = workloads::per_node_fixed(&plan, PacketSizeMix::paper(), seed);
    let network = sim.build(policy, generators).expect("chip builds");
    run_open_loop(
        network,
        OpenLoopConfig {
            warmup: 500,
            measure: 3_000,
            drain: 1_000,
        },
    )
}

fn closed_chip_stats(engine: EngineKind, seed: u64) -> NetStats {
    let sim = paper_chip_sim(engine);
    let plan = saturating_plan(&sim, 0.10);
    let generators = workloads::per_node_fixed_budget(&plan, PacketSizeMix::paper(), 1_500, seed);
    let network = sim
        .build(sim.default_policy(), generators)
        .expect("chip builds");
    run_closed(network, Some((200, 1_500)), 500_000).expect("closed chip workload completes")
}

/// The optimized engine produces statistics identical to the reference
/// engine on the hybrid chip fabric, with the scoped PVC overlay (and its
/// preemptions) in play.
#[test]
fn chip_open_loop_stats_match_reference_engine() {
    let optimized = open_loop_chip_stats(EngineKind::Optimized, 0.20, 42);
    let reference = open_loop_chip_stats(EngineKind::Reference, 0.20, 42);
    assert_eq!(optimized, reference, "engines diverged on the chip fabric");
    assert!(optimized.delivered_packets > 0, "chip delivered nothing");
    assert!(
        optimized.preemption_events > 0,
        "saturating the column should exercise preemption at the QOS routers"
    );
}

/// Engine equivalence holds through closed chip workloads where NACKs and
/// retransmissions are exercised, and the same seed is bit-identical across
/// runs of the optimized engine.
#[test]
fn chip_closed_stats_match_reference_engine_and_are_deterministic() {
    let optimized = closed_chip_stats(EngineKind::Optimized, 7);
    let reference = closed_chip_stats(EngineKind::Reference, 7);
    assert_eq!(optimized, reference, "engines diverged on the closed chip");
    let again = closed_chip_stats(EngineKind::Optimized, 7);
    assert_eq!(optimized, again, "nondeterminism on the chip fabric");
    let other_seed = closed_chip_stats(EngineKind::Optimized, 8);
    assert_ne!(optimized, other_seed, "different seeds should differ");
}

/// Flit conservation: on a completed closed chip workload every generated
/// flit is delivered exactly once, per flow and in aggregate, on both
/// engines.
#[test]
fn chip_closed_workloads_conserve_flits() {
    for engine in [EngineKind::Optimized, EngineKind::Reference] {
        let stats = closed_chip_stats(engine, 3);
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

/// One-MECS-hop reachability, as a property over random chip shapes: in
/// every built `NetworkSpec`, every node outside a shared column reaches
/// every shared-column destination through a single express (multidrop)
/// channel that drops off on the node's own row, with wire delay equal to
/// the row distance — i.e. one network hop into the QOS-protected column.
#[test]
fn every_node_reaches_a_shared_column_in_one_mecs_hop() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC41F_0001);
    for round in 0..24 {
        let width = rng.gen_range(2usize..10);
        let height = rng.gen_range(1usize..9);
        let num_columns = rng.gen_range(1usize..width.min(3) + 1);
        let mut shared: BTreeSet<u16> = BTreeSet::new();
        while shared.len() < num_columns {
            shared.insert(rng.gen_range(0..width) as u16);
        }
        // At least one node must lie outside the shared columns.
        if shared.len() == width {
            shared.remove(&(0u16));
        }
        let config = ChipConfig::with_size(width, height, shared.clone());
        let chip = config.build();
        assert_eq!(
            chip.qos_router_count(),
            shared.len() * height,
            "round {round}: QOS flags must cover exactly the shared columns"
        );

        for router in &chip.spec.routers {
            let (x, y) = config.coords(router.node);
            if config.is_shared_column(x) {
                continue;
            }
            for &c in &shared {
                for dy in 0..height {
                    let dst = config.node_at(usize::from(c), dy);
                    let out = router
                        .route_table
                        .get(dst)
                        .and_then(|mut p| p.next())
                        .unwrap();
                    let port = &router.outputs[out.0];
                    // The route uses an express channel, not a mesh link.
                    let OutputKind::Network { channel, .. } = port.kind else {
                        panic!("round {round}: route to {dst} ejects");
                    };
                    assert_eq!(channel, 1, "round {round}: mesh link used for {dst}");
                    // Its drop-off point for this destination is the column
                    // router on the sender's own row, one wire away by the
                    // row distance: a single network hop into the column.
                    let target = port
                        .targets
                        .iter()
                        .find(|t| t.covers.is_empty() || t.covers.contains(&dst))
                        .expect("a target covers the destination");
                    let TargetEndpoint::Router { router: drop, .. } = target.endpoint else {
                        panic!("round {round}: express target is not a router");
                    };
                    assert_eq!(
                        drop,
                        config.node_at(usize::from(c), y).index(),
                        "round {round}: drop-off leaves the sender's row"
                    );
                    assert_eq!(
                        target.wire_delay,
                        (i64::from(c) - x as i64).unsigned_abs() as u32,
                        "round {round}: wire delay is not the row distance"
                    );
                }
            }
        }
    }
}

/// Builds `plan`'s closed loop under the default overlay and runs it for
/// 500 + 3 000 + 500 cycles.
fn run_chip_loop(sim: &ChipSim, plan: &workloads::MlpPlan) -> NetStats {
    let network = sim
        .build_closed_loop(sim.default_policy(), workloads::mlp_closed_loop(plan))
        .expect("closed-loop chip builds");
    run_open_loop(
        network,
        OpenLoopConfig {
            warmup: 500,
            measure: 3_000,
            drain: 500,
        },
    )
}

fn closed_loop_chip_stats(engine: EngineKind, mlp: usize) -> NetStats {
    let sim = paper_chip_sim(engine);
    let plan = sim.nearest_mc_mlp_plan(mlp);
    run_chip_loop(&sim, &plan)
}

/// Engine equivalence extends to the closed loop: the request/reply round
/// trips, the controllers' priority-ordered reply ports and the MLP windows
/// produce bit-identical `NetStats` on both engines, deterministically.
#[test]
fn chip_closed_loop_stats_match_reference_engine() {
    let optimized = closed_loop_chip_stats(EngineKind::Optimized, 4);
    let reference = closed_loop_chip_stats(EngineKind::Reference, 4);
    assert_eq!(optimized, reference, "engines diverged on the closed loop");
    let again = closed_loop_chip_stats(EngineKind::Optimized, 4);
    assert_eq!(optimized, again, "closed loop is nondeterministic");
    assert!(optimized.round_trips > 0, "no round trips completed");
    assert!(optimized.avg_round_trip().expect("round trips measured") > 0.0);
    // A different MLP budget is a different workload.
    let other = closed_loop_chip_stats(EngineKind::Optimized, 2);
    assert_ne!(optimized, other, "MLP window should change the run");
}

/// A bounded closed loop conserves traffic exactly: every issued request is
/// answered by exactly one delivered reply, on both engines.
#[test]
fn bounded_closed_loop_conserves_round_trips() {
    for engine in [EngineKind::Optimized, EngineKind::Reference] {
        let sim = paper_chip_sim(engine);
        let plan = sim.nearest_mc_mlp_plan(2);
        let spec = workloads::mlp_closed_loop_bounded(&plan, 25);
        let network = sim
            .build_closed_loop(sim.default_policy(), spec)
            .expect("closed-loop network builds");
        let stats = taqos::netsim::sim::run_closed(network, None, 500_000)
            .expect("bounded closed loop completes");
        let requesters = plan.iter().filter(|e| e.is_some()).count() as u64;
        assert_eq!(
            stats.round_trips,
            25 * requesters,
            "{engine:?} lost replies"
        );
        for (node, entry) in plan.iter().enumerate() {
            let fs = &stats.flows[node];
            if entry.is_some() {
                assert_eq!(fs.issued_requests, 25, "node {node} under {engine:?}");
                assert_eq!(fs.round_trips, 25, "node {node} under {engine:?}");
            }
        }
        // Requests (1 flit) + replies (4 flits), all delivered exactly once.
        assert_eq!(stats.delivered_packets, 2 * 25 * requesters);
        assert_eq!(stats.delivered_flits, (1 + 4) * 25 * requesters);
        assert!(stats.completion_cycle.is_some());
    }
}

fn dram_closed_loop_chip_stats(
    engine: EngineKind,
    backpressure: taqos_netsim::closed_loop::DramBackpressure,
    scheduler: taqos_netsim::closed_loop::DramScheduler,
    page_policy: taqos_netsim::closed_loop::PagePolicy,
) -> NetStats {
    let sim = paper_chip_sim(engine);
    // A shallow queue under a deep window drives the controllers into
    // backpressure, so the equivalence check covers the NACK/stall/eviction
    // paths, the bank timelines and the reply-release machinery.
    let dram = sim
        .topology_dram(taqos_netsim::closed_loop::DramConfig::paper())
        .with_queue_depth(8)
        .with_backpressure(backpressure)
        .with_scheduler(scheduler)
        .with_page_policy(page_policy);
    let sim = sim.with_dram(dram);
    let plan = sim.nearest_mc_mlp_plan(8);
    run_chip_loop(&sim, &plan)
}

/// Engine equivalence extends to the DRAM-backed closed loop: bank
/// timelines, row-buffer hits, bounded-queue NACKs/stalls and
/// completion-released replies produce bit-identical `NetStats` on both
/// engines, deterministically, in both backpressure modes.
#[test]
fn chip_dram_closed_loop_stats_match_reference_engine() {
    use taqos_netsim::closed_loop::{DramBackpressure, DramConfig};
    let defaults = DramConfig::paper();
    for backpressure in [DramBackpressure::Nack, DramBackpressure::Stall] {
        let stats = |engine| {
            dram_closed_loop_chip_stats(
                engine,
                backpressure,
                defaults.scheduler,
                defaults.page_policy,
            )
        };
        let optimized = stats(EngineKind::Optimized);
        let reference = stats(EngineKind::Reference);
        assert_eq!(
            optimized, reference,
            "engines diverged on the DRAM-backed closed loop ({backpressure:?})"
        );
        let again = stats(EngineKind::Optimized);
        assert_eq!(
            optimized, again,
            "DRAM-backed closed loop is nondeterministic ({backpressure:?})"
        );
        assert!(optimized.round_trips > 0, "no round trips completed");
        assert!(optimized.dram.serviced_requests > 0, "no DRAM services");
        match backpressure {
            DramBackpressure::Nack => assert!(
                optimized.dram.rejected_requests > 0,
                "MLP 8 against an 8-deep queue must overflow"
            ),
            DramBackpressure::Stall => assert!(
                optimized.dram.stalled_requests > 0,
                "MLP 8 against an 8-deep queue must stall"
            ),
        }
    }
}

/// Engine equivalence across every scheduler × page-policy flavour of the
/// DRAM-backed closed loop: priority admission's eviction NACKs, FR-FCFS's
/// row-hit reordering and age cap, deferred service-start deliveries and
/// the closed-page timing all produce bit-identical `NetStats` (including
/// the new `DramStats` fields) on both engines.
#[test]
fn chip_dram_scheduler_flavours_match_reference_engine() {
    use taqos_netsim::closed_loop::{DramBackpressure, DramScheduler, PagePolicy};
    for (scheduler, page_policy) in [
        (DramScheduler::Fcfs, PagePolicy::Closed),
        (DramScheduler::PriorityAdmission, PagePolicy::Open),
        (DramScheduler::FrFcfs, PagePolicy::Open),
        (DramScheduler::FrFcfs, PagePolicy::Closed),
    ] {
        let stats = |engine| {
            dram_closed_loop_chip_stats(engine, DramBackpressure::Nack, scheduler, page_policy)
        };
        let optimized = stats(EngineKind::Optimized);
        let reference = stats(EngineKind::Reference);
        assert_eq!(
            optimized, reference,
            "engines diverged on {scheduler:?}/{page_policy:?}"
        );
        assert!(optimized.round_trips > 0, "no round trips completed");
        assert!(optimized.dram.serviced_requests > 0, "no DRAM services");
        if page_policy == PagePolicy::Closed {
            assert_eq!(optimized.dram.row_hits, 0, "closed page cannot hit");
        }
        if scheduler.is_priority_aware() {
            assert!(
                optimized.dram.rejected_requests + optimized.dram.evicted_requests > 0,
                "MLP 8 against an 8-deep queue must overflow or evict"
            );
        } else {
            assert_eq!(optimized.dram.evicted_requests, 0, "FCFS never evicts");
        }
    }
}

/// Regression against silent default drift: the default configuration
/// (FCFS scheduler, open-page policy) keeps reproducing the same controller
/// behaviour bit for bit on the exact run
/// `chip_dram_closed_loop_stats_match_reference_engine` performs under Nack
/// backpressure. The constants were re-captured after the row-locality
/// bugfix (`bank_of` moved from fine-grained `line % banks` interleaving —
/// which made row hits structurally impossible — to row-major
/// `(line / lines_per_row) % banks`): the same workload now services
/// roughly twice the requests with a 98.6% hit rate where the broken
/// mapping managed 6.5%, and round trips nearly double.
#[test]
fn fcfs_open_page_reproduces_the_pr4_stats_exactly() {
    use taqos_netsim::closed_loop::{DramBackpressure, DramConfig, DramScheduler, PagePolicy};
    let defaults = DramConfig::paper();
    assert_eq!(defaults.scheduler, DramScheduler::Fcfs);
    assert_eq!(defaults.page_policy, PagePolicy::Open);
    let stats = dram_closed_loop_chip_stats(
        EngineKind::Optimized,
        DramBackpressure::Nack,
        DramScheduler::Fcfs,
        PagePolicy::Open,
    );
    assert_eq!(stats.dram.serviced_requests, 8_296);
    assert_eq!(stats.dram.row_hits, 8_184);
    assert_eq!(stats.dram.row_misses, 112);
    assert_eq!(stats.dram.rejected_requests, 360);
    assert_eq!(stats.dram.evicted_requests, 0);
    assert_eq!(stats.dram.stalled_requests, 0);
    assert_eq!(stats.dram.queue_wait_sum, 34_488);
    assert_eq!(stats.dram.max_queue_wait, 86);
    assert_eq!(stats.dram.max_queue_occupancy, 8);
    assert_eq!(stats.dram.bank_busy_cycles, 152_688);
    assert_eq!(stats.round_trips, 7_864);
    assert_eq!(stats.rt_latency_sum, 1_496_456);
    assert_eq!(stats.rt_samples, 6_864);
    assert_eq!(stats.max_round_trip, 437);
    assert_eq!(stats.delivered_packets, 16_160);
    assert_eq!(stats.delivered_flits, 39_752);
    assert_eq!(stats.latency_sum, 1_384_904);
    assert_eq!(stats.latency_samples, 14_160);
}

/// Exhaustive (not sampled) agreement between the fabric's generated routing
/// tables and the architectural routing rules, for every (node, controller)
/// pair of the 8×8 paper chip: the request walk matches
/// `memory_access_route` (one MECS express hop into the column, then the
/// column) and the reply walk matches `memory_reply_route` (down the column
/// to the requester's row, then the mesh back out).
#[test]
fn fabric_routes_match_architectural_rules_for_every_pair() {
    let sim = ChipSim::paper_default();
    let chip = sim.build_spec();
    let config = &chip.config;

    // Follows the fabric's route tables hop by hop from `from` to `dst`,
    // returning the sequence of routers visited (multidrop express channels
    // jump straight to the drop-off point covering the destination).
    let walk = |from: NodeId, dst: NodeId| -> Vec<NodeId> {
        let mut visited = vec![from];
        let mut current = from.index();
        for _hop in 0..=chip.spec.routers.len() {
            let router = &chip.spec.routers[current];
            let out = router
                .route_table
                .get(dst)
                .and_then(|mut p| p.next())
                .unwrap();
            let port = &router.outputs[out.0];
            let target = port
                .targets
                .iter()
                .find(|t| t.covers.is_empty() || t.covers.contains(&dst))
                .expect("a target covers the destination");
            match target.endpoint {
                TargetEndpoint::Sink { sink } => {
                    assert_eq!(
                        chip.spec.sinks[sink].node, dst,
                        "walk from {from} ejected at the wrong node"
                    );
                    return visited;
                }
                TargetEndpoint::Router { router: next, .. } => {
                    current = next;
                    visited.push(NodeId(next as u16));
                }
            }
        }
        panic!("walk from {from} to {dst} did not terminate");
    };

    let mcs = chip.memory_controllers();
    assert_eq!(mcs.len(), 8);
    for node in 0..config.num_nodes() {
        let node = NodeId(node as u16);
        let from = sim.coord(node);
        for &mc_node in &mcs {
            let mc = sim.coord(mc_node);
            // Request direction: node → controller.
            let expected: Vec<NodeId> = sim
                .chip()
                .memory_access_route(from, mc)
                .expect("architectural request route exists")
                .into_iter()
                .map(|c| sim.node_id(c))
                .collect();
            assert_eq!(
                walk(node, mc_node),
                expected,
                "request route {from} -> {mc} diverges from memory_access_route"
            );
            // Reply direction: controller → node.
            let expected: Vec<NodeId> = sim
                .chip()
                .memory_reply_route(mc, from)
                .expect("architectural reply route exists")
                .into_iter()
                .map(|c| sim.node_id(c))
                .collect();
            assert_eq!(
                walk(mc_node, node),
                expected,
                "reply route {mc} -> {from} diverges from memory_reply_route"
            );
        }
    }
}

/// `NetworkSpec::validate` rejects routers wider than the engine's packed
/// state holds (64 outputs, 65 535 inputs). Every shipped builder stays far
/// inside that bound — the widest router anywhere has 9 outputs — so the
/// rejection cannot reach a workload this repository runs.
#[test]
fn every_shipped_builder_stays_within_the_router_port_bounds() {
    use taqos_topology::mesh2d::Mesh2dConfig;

    let mut specs: Vec<NetworkSpec> = ColumnTopology::all()
        .into_iter()
        .map(|topology| topology.build(&ColumnConfig::paper()))
        .collect();
    specs.push(Mesh2dConfig::paper_8x8().build());
    specs.push(ChipSim::paper_default().build_spec().spec);
    specs.push(ChipSim::multi_column(16, 16, 4).build_spec().spec);
    let mut widest = 0;
    for spec in &specs {
        spec.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        for router in &spec.routers {
            assert!(router.outputs.len() <= 64, "{} {}", spec.name, router.node);
            assert!(router.inputs.len() <= usize::from(u16::MAX));
            widest = widest.max(router.outputs.len());
        }
    }
    assert_eq!(widest, 9, "the widest shipped router moved");
}

/// The architectural chip model and the executable fabric agree on the QOS
/// cost: `TopologyAwareChip::qos_router_fraction` equals the fraction of
/// routers the spec flags as QOS routers, and the per-router flag count
/// matches column-count × height.
#[test]
fn qos_router_fraction_matches_the_spec_flags() {
    let sim = ChipSim::paper_default();
    let spec = sim.build_spec();
    assert_eq!(
        sim.chip().qos_router_fraction(),
        spec.qos_router_fraction(),
        "architectural model and fabric disagree on the QOS fraction"
    );
    let flags = spec.qos_flags();
    assert_eq!(flags.len(), spec.spec.routers.len());
    assert_eq!(
        flags.iter().filter(|&&f| f).count(),
        sim.chip().shared_columns().len() * usize::from(sim.chip().grid().height)
    );
    // And the flagged routers are exactly the ones whose x lies in a shared
    // column.
    for (router, flagged) in spec.spec.routers.iter().zip(&flags) {
        let coord = sim.coord(router.node);
        assert_eq!(*flagged, sim.chip().is_shared(coord));
    }
}

/// The isolation acceptance criterion end-to-end, on the closed loop: with
/// the overlay an MLP-deep hog saturating the controller cannot push a
/// shallow-MLP victim's round-trip latency far beyond its solo baseline,
/// while the same workload without the overlay multiplies it.
#[test]
fn shared_column_overlay_isolates_domains() {
    let result = chip_isolation(&ChipIsolationConfig::quick());
    // The interference-free baseline completes round trips.
    assert!(!result.solo.starved());
    assert!(result.solo.avg_round_trip.expect("solo completes") > 0.0);
    // The hog keeps the controller saturated (it completes far more round
    // trips than the victim even when the victim is protected).
    assert!(!result.protected_hog.starved());
    assert!(result.protected_hog.round_trips > 2 * result.protected.round_trips);
    // Protected: the victim's round-trip latency stays within ~2x of solo.
    let protected = result
        .protected_slowdown()
        .expect("protected victim must not starve");
    assert!(
        protected < 2.5,
        "protected slowdown {protected:.2} too large"
    );
    // The tail bound is the stronger claim: the hog cannot push even the
    // victim's 99th-percentile round trip far past its solo tail. (The
    // histogram percentile is a log2-bucket upper bound, so the ratio moves
    // in powers of two — the bound is correspondingly coarser than the mean.)
    let protected_p99 = result
        .protected_p99_slowdown()
        .expect("protected victim has a tail figure");
    assert!(
        protected_p99 <= 4.0,
        "protected p99 slowdown {protected_p99:.2} too large"
    );
    // Without the overlay the victim is starved outright or slowed down by a
    // large multiple of the protected figure — in the mean AND in the tail.
    match result.unprotected_slowdown() {
        None => assert!(
            result.unprotected.starved(),
            "ratio refused but not starved"
        ),
        Some(unprotected) => assert!(
            unprotected > 3.0 * protected,
            "no interference without the overlay ({unprotected:.2} vs {protected:.2})"
        ),
    }
    if let Some(unprotected_p99) = result.unprotected_p99_slowdown() {
        assert!(
            unprotected_p99 > 2.0 * protected_p99,
            "the unprotected tail should blow out past the protected bound \
             ({unprotected_p99:.2} vs {protected_p99:.2})"
        );
    }
}

/// Multi-column scaling: on a 16×16 chip, doubling the shared-column count
/// (more controller ports, shorter express hops) increases accepted
/// closed-loop throughput and reduces round-trip latency.
#[test]
fn multi_column_chips_scale_closed_loop_throughput() {
    let points = multi_column_scaling(&ColumnScalingConfig::quick());
    assert_eq!(points.len(), 3);
    for pair in points.windows(2) {
        assert!(pair[1].columns > pair[0].columns);
        assert!(
            pair[1].throughput > pair[0].throughput,
            "throughput should grow with the column count: {points:?}"
        );
        let (fewer, more) = (
            pair[0].avg_round_trip.expect("point completes"),
            pair[1].avg_round_trip.expect("point completes"),
        );
        assert!(
            more < fewer,
            "round-trip latency should shrink with more columns: {points:?}"
        );
    }
}
