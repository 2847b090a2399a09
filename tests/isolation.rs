//! The paper's isolation argument as exact oracles.
//!
//! With convex domains and dimension-order routing, traffic that stays
//! inside a domain shares no router, link or buffer with anything outside
//! it, so no QOS hardware is needed there. That implies two exact relations,
//! checked here on `ChipSim::paper_default()` (8x8 nodes, one shared column
//! at x = 4), with both domains placed by the chip's own allocator:
//!
//! * **non-interference:** domain A streams open loop to the point mirror
//!   of each node inside A. Whatever domain B does beside it (idle, light or
//!   saturating traffic inside B, a stream into the shared column, or a
//!   router or link of B failing, permanently or for a while), every
//!   counter of A's flows is `==` to the run with A alone on the chip;
//! * **confinement:** in the A-alone run, no router outside A ever holds a
//!   buffered packet, and no output of a router outside A ever launches a
//!   flit.
//!
//! Neither relation has a tolerance. A failure names shared state: a
//! tie-break on a global id, a global cursor, or a reroute that rewrote a
//! path it did not have to.

use taqos::core::chip_sim::ChipSim;
use taqos::netsim::config::EngineKind;
use taqos::netsim::fault::{FaultEvent, FaultKind, FaultPlan};
use taqos::netsim::sim::{run_open_loop, OpenLoopConfig};
use taqos::netsim::spec::OutputKind;
use taqos::netsim::stats::{FlowStats, NetStats};
use taqos::netsim::{Direction, SimConfig, TelemetryConfig};
use taqos::topology::grid::Coord;
use taqos::traffic::injection::PacketSizeMix;
use taqos::traffic::workloads::{per_node_fixed, NodePlan};

/// Offered load of every node of A, in flits/cycle.
const A_RATE: f64 = 0.06;
/// Phases of every run: bit-identity needs no long window.
const PHASES: OpenLoopConfig = OpenLoopConfig {
    warmup: 500,
    measure: 2_000,
    drain: 500,
};
/// Cycles during which the transient fault is active, inside the
/// measurement window.
const TRANSIENT: (u64, u64) = (1_000, 2_000);
/// Sampling cadence of the frame series the confinement check reads.
const FRAME_LEN: u64 = 500;
/// Seeds of the optimized-engine runs; the reference engine runs the first.
const SEEDS: [u64; 3] = [7, 8, 9];

/// A `width` x `height` rectangle of nodes whose top-left node is `origin`.
#[derive(Debug, Clone, Copy)]
struct Rect {
    origin: Coord,
    width: u16,
    height: u16,
}

impl Rect {
    const fn new(x: u16, y: u16, width: u16, height: u16) -> Self {
        Rect {
            origin: Coord { x, y },
            width,
            height,
        }
    }

    /// The point mirror of `c` through the rectangle's centre. With both
    /// sides even no node is its own mirror, and every XY route between a
    /// node and its mirror stays inside the rectangle.
    fn mirror(&self, c: Coord) -> Coord {
        Coord::new(
            2 * self.origin.x + self.width - 1 - c.x,
            2 * self.origin.y + self.height - 1 - c.y,
        )
    }
}

/// Where the two domains sit, and the routers and link of B that fail.
#[derive(Debug, Clone, Copy)]
struct Placement {
    a: Rect,
    b: Rect,
    router_down: Coord,
    transient_down: Coord,
    /// The node whose east mesh link fails.
    link_down: Coord,
}

/// A 4x4 west of the column and B the 3x8 east of it.
const ACROSS_THE_COLUMN: Placement = Placement {
    a: Rect::new(0, 0, 4, 4),
    b: Rect::new(5, 0, 3, 8),
    router_down: Coord { x: 6, y: 5 },
    transient_down: Coord { x: 6, y: 2 },
    link_down: Coord { x: 6, y: 3 },
};

/// A and B stacked west of the column: B's 4x4 directly north of A's.
const STACKED_WEST: Placement = Placement {
    a: Rect::new(0, 4, 4, 4),
    b: Rect::new(0, 0, 4, 4),
    router_down: Coord { x: 1, y: 1 },
    transient_down: Coord { x: 2, y: 1 },
    link_down: Coord { x: 1, y: 2 },
};

/// What B's nodes send.
#[derive(Debug, Clone, Copy)]
enum Traffic {
    Idle,
    /// Each node to its point mirror inside B, at this rate.
    Mirror(f64),
    /// Each node to the shared-column node on its own row, at this rate.
    ToColumn(f64),
}

/// What fails inside B.
#[derive(Debug, Clone, Copy)]
enum Fault {
    None,
    RouterDown,
    TransientRouterDown,
    LinkDown,
}

/// Every neighbour A must not notice.
const SCENARIOS: [(Traffic, Fault); 7] = [
    (Traffic::Idle, Fault::None),
    (Traffic::Mirror(0.05), Fault::None),
    (Traffic::Mirror(0.3), Fault::None),
    (Traffic::ToColumn(0.3), Fault::None),
    (Traffic::Mirror(0.3), Fault::RouterDown),
    (Traffic::Mirror(0.3), Fault::TransientRouterDown),
    (Traffic::Mirror(0.3), Fault::LinkDown),
];

/// One run of A, alone (`neighbour` = `None`) or beside B. Returns A's
/// flows' counters and the run's statistics.
fn run(
    placement: &Placement,
    neighbour: Option<(Traffic, Fault)>,
    seed: u64,
    engine: EngineKind,
) -> (Vec<FlowStats>, NetStats) {
    let config = SimConfig::default()
        .with_engine(engine)
        .with_telemetry(TelemetryConfig::off().with_frames(FRAME_LEN));
    let mut sim = ChipSim::paper_default().with_sim_config(config);
    let grid = *sim.chip().grid();
    let mut plan: NodePlan = vec![None; sim.config().num_nodes()];
    let a = placement.a;
    let a_id = sim
        .chip_mut()
        .allocate_domain("A", grid.rectangle(a.origin, a.width, a.height), 1)
        .expect("A is a convex rectangle off the column");
    for &c in &sim.chip().domain(a_id).expect("A exists").nodes {
        plan[sim.node_id(c).index()] = Some((A_RATE, sim.node_id(a.mirror(c))));
    }

    if let Some((traffic, fault)) = neighbour {
        let b = placement.b;
        let b_id = sim
            .chip_mut()
            .allocate_domain("B", grid.rectangle(b.origin, b.width, b.height), 1)
            .expect("B is a convex rectangle off the column and A");
        let column = *sim.chip().shared_columns().first().expect("one column");
        for &c in &sim.chip().domain(b_id).expect("B exists").nodes {
            let entry = match traffic {
                Traffic::Idle => None,
                Traffic::Mirror(rate) => Some((rate, sim.node_id(b.mirror(c)))),
                Traffic::ToColumn(rate) => Some((rate, sim.node_id(Coord::new(column, c.y)))),
            };
            plan[sim.node_id(c).index()] = entry;
        }
        let router = |c: Coord| sim.node_id(c).index();
        let event = match fault {
            Fault::None => None,
            Fault::RouterDown => Some(FaultEvent::permanent(
                0,
                FaultKind::RouterDown {
                    router: router(placement.router_down),
                },
            )),
            Fault::TransientRouterDown => Some(FaultEvent::transient(
                TRANSIENT.0,
                TRANSIENT.1,
                FaultKind::RouterDown {
                    router: router(placement.transient_down),
                },
            )),
            Fault::LinkDown => Some(FaultEvent::permanent(
                0,
                FaultKind::LinkDown {
                    router: router(placement.link_down),
                    out_port: east_mesh_output(&sim, placement.link_down),
                },
            )),
        };
        if let Some(event) = event {
            sim = sim.with_fault_plan(FaultPlan::new(seed).with_event(event));
        }
    }

    let generators = per_node_fixed(&plan, PacketSizeMix::paper(), seed);
    let network = sim
        .build(sim.default_policy(), generators)
        .expect("the chip builds");
    let stats = run_open_loop(network, PHASES);
    let flows = sim.domain_flows(a_id).expect("A exists");
    let a_flows = flows
        .iter()
        .map(|f| stats.flows[f.index()].clone())
        .collect();
    (a_flows, stats)
}

/// Output index of the east mesh link (channel 0) of the router at `c`.
fn east_mesh_output(sim: &ChipSim, c: Coord) -> usize {
    let fabric = sim.build_spec();
    let router = &fabric.spec.routers[sim.node_id(c).index()];
    assert_eq!(router.node, sim.node_id(c), "routers are in node order");
    let east = OutputKind::Network {
        dir: Direction::East,
        channel: 0,
    };
    router
        .outputs
        .iter()
        .position(|port| port.kind == east)
        .expect("an interior node has an east mesh link")
}

/// A's counters beside every neighbour of [`SCENARIOS`] equal A's counters
/// alone, for each seed.
fn assert_non_interference(placement: &Placement, seeds: &[u64], engine: EngineKind) {
    for &seed in seeds {
        let (alone, alone_stats) = run(placement, None, seed, engine);
        assert!(
            alone.iter().all(|flow| flow.delivered_flits > 0),
            "seed {seed}: every A flow delivers"
        );
        for scenario in SCENARIOS {
            let (beside, stats) = run(placement, Some(scenario), seed, engine);
            assert_eq!(
                alone, beside,
                "{engine:?} seed {seed}: A changed beside B {scenario:?}"
            );
            if !matches!(scenario.0, Traffic::Idle) {
                assert!(
                    stats.delivered_flits > alone_stats.delivered_flits,
                    "{engine:?} seed {seed}: B delivered nothing in {scenario:?}"
                );
            }
        }
    }
}

#[test]
fn a_domain_is_blind_to_its_neighbour_across_the_column() {
    assert_non_interference(&ACROSS_THE_COLUMN, &SEEDS, EngineKind::Optimized);
}

#[test]
fn a_domain_is_blind_to_its_neighbour_on_the_same_side() {
    assert_non_interference(&STACKED_WEST, &SEEDS, EngineKind::Optimized);
}

#[test]
fn non_interference_across_the_column_holds_on_the_reference_engine() {
    assert_non_interference(&ACROSS_THE_COLUMN, &SEEDS[..1], EngineKind::Reference);
}

#[test]
fn non_interference_on_the_same_side_holds_on_the_reference_engine() {
    assert_non_interference(&STACKED_WEST, &SEEDS[..1], EngineKind::Reference);
}

#[test]
fn a_lone_domain_touches_no_router_or_link_outside_it() {
    for placement in [ACROSS_THE_COLUMN, STACKED_WEST] {
        let (_, stats) = run(&placement, None, SEEDS[0], EngineKind::Optimized);
        let sim = ChipSim::paper_default();
        let fabric = sim.build_spec();
        let a = placement.a;
        let inside = |router: usize| {
            let c = sim.coord(fabric.spec.routers[router].node);
            (a.origin.x..a.origin.x + a.width).contains(&c.x)
                && (a.origin.y..a.origin.y + a.height).contains(&c.y)
        };
        // Links are flattened router-major, in each router's output order.
        let mut first_link = Vec::with_capacity(fabric.spec.routers.len());
        let mut links = 0;
        for router in &fabric.spec.routers {
            first_link.push(links);
            links += router.outputs.len();
        }
        let series = stats.frames.as_ref().expect("frames are on");
        assert_eq!(series.dropped_frames, 0);
        assert!(!series.is_empty());
        let mut launched_inside = 0;
        for frame in &series.frames {
            assert_eq!(frame.link_flits.len(), links);
            for (router, &held) in frame.router_occupancy.iter().enumerate() {
                let outputs = &frame.link_flits[first_link[router]..]
                    [..fabric.spec.routers[router].outputs.len()];
                if inside(router) {
                    launched_inside += outputs.iter().sum::<u64>();
                } else {
                    assert_eq!(
                        held, 0,
                        "frame {}: router {router} holds packets",
                        frame.frame
                    );
                    assert!(
                        outputs.iter().all(|&flits| flits == 0),
                        "frame {}: router {router} launched flits",
                        frame.frame
                    );
                }
            }
        }
        assert!(launched_inside > 0, "A's routers carried A's traffic");
    }
}
