//! Property-style tests of the simulator core: zero-load latency agreement
//! with the analytic model, spec validity for arbitrary column shapes, and
//! conservation under random single-source workloads.
//!
//! These were originally `proptest` properties; the workspace builds offline
//! without the proptest crate, so each property is now driven by a seeded
//! ChaCha8 sweep over the same input domains. Failures print the drawn inputs
//! so a case can be replayed by hand.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use taqos::core::shared_region::SharedRegionSim;
use taqos::netsim::packet::IdleGenerator;
use taqos::netsim::sim::run_closed;
use taqos::netsim::NodeId;
use taqos::topology::column::{ColumnConfig, ColumnTopology};
use taqos::topology::properties::zero_load_latency;
use taqos::traffic::generators::{DestinationPattern, SyntheticGenerator};
use taqos::traffic::injection::PacketSizeMix;
use taqos::traffic::workloads::GeneratorSet;

const TOPOLOGIES: [ColumnTopology; 5] = [
    ColumnTopology::MeshX1,
    ColumnTopology::MeshX2,
    ColumnTopology::MeshX4,
    ColumnTopology::Mecs,
    ColumnTopology::Dps,
];

fn any_topology(rng: &mut ChaCha8Rng) -> ColumnTopology {
    TOPOLOGIES[rng.gen_range(0..TOPOLOGIES.len())]
}

/// Sends one packet of `len` flits from the terminal of `src` to `dst` and
/// returns the measured latency.
fn single_packet_latency(topology: ColumnTopology, src: usize, dst: usize, len: u8) -> f64 {
    let column = ColumnConfig::paper();
    let sim = SharedRegionSim::new(topology).with_column(column);
    let mix = if len == 1 {
        PacketSizeMix::requests_only()
    } else {
        PacketSizeMix::replies_only()
    };
    let mut generators: GeneratorSet = Vec::new();
    for node in 0..column.nodes {
        for injector in 0..column.injectors_per_node() {
            if node == src && injector == 0 {
                generators.push(Box::new(SyntheticGenerator::with_budget(
                    4.0,
                    mix,
                    DestinationPattern::Fixed(NodeId(dst as u16)),
                    1,
                    9,
                )));
            } else {
                generators.push(Box::new(IdleGenerator));
            }
        }
    }
    let network = sim
        .build(Box::new(sim.default_policy()), generators)
        .expect("column builds");
    let stats = run_closed(network, None, 10_000).expect("single packet delivers");
    assert_eq!(stats.delivered_packets, 1);
    stats.avg_latency()
}

/// An uncontended packet's simulated latency matches the analytic zero-load
/// model up to the injection hand-off and tail serialisation.
#[test]
fn zero_load_latency_matches_analytic_model() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0001);
    for _ in 0..24 {
        let topology = any_topology(&mut rng);
        let src = rng.gen_range(0usize..8);
        let dst = rng.gen_range(0usize..8);
        let len: u8 = if rng.gen_bool(0.5) { 4 } else { 1 };
        let hops = (src as i32 - dst as i32).unsigned_abs();
        let measured = single_packet_latency(topology, src, dst, len);
        let analytic = f64::from(zero_load_latency(topology, hops)) + f64::from(len - 1);
        let offset = measured - analytic;
        assert!(
            (0.0..=3.0).contains(&offset),
            "{topology} {src}->{dst} len {len}: measured {measured}, analytic {analytic}"
        );
    }
}

/// Every column shape the builder accepts produces a structurally valid
/// specification with the expected source and sink counts.
#[test]
fn generated_column_specs_are_always_valid() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0002);
    for _ in 0..64 {
        let topology = any_topology(&mut rng);
        let nodes = rng.gen_range(2usize..10);
        let east = rng.gen_range(0usize..5);
        let west = rng.gen_range(0usize..4);
        let window = rng.gen_range(1usize..32);
        let config = ColumnConfig {
            nodes,
            row_inputs_east: east,
            row_inputs_west: west,
            source_window: window,
            ..ColumnConfig::paper()
        };
        let spec = topology.build(&config);
        assert!(
            spec.validate().is_ok(),
            "{topology} nodes={nodes} e={east} w={west}"
        );
        assert_eq!(spec.routers.len(), nodes);
        assert_eq!(spec.sources.len(), nodes * (1 + east + west));
        assert_eq!(spec.sinks.len(), nodes);
        // Every router can route to every destination node.
        for router in &spec.routers {
            for dest in 0..nodes {
                let dest = NodeId(dest as u16);
                let has_route = router.route_table.contains(dest)
                    || router.inputs.iter().any(|p| p.fixed_route.is_some());
                assert!(has_route, "router {} cannot reach {dest}", router.node);
            }
        }
    }
}

/// Zero-load latency is monotone in distance and DPS never loses to the mesh
/// at equal distance. The domain is small, so sweep it exhaustively.
#[test]
fn zero_load_latency_is_monotone() {
    for topology in TOPOLOGIES {
        for hops in 1u32..7 {
            assert!(
                zero_load_latency(topology, hops + 1) > zero_load_latency(topology, hops),
                "{topology} not monotone at {hops}"
            );
            assert!(
                zero_load_latency(ColumnTopology::Dps, hops)
                    <= zero_load_latency(ColumnTopology::MeshX1, hops)
            );
        }
    }
}

/// Closed single-destination workloads always deliver every packet, on every
/// topology, regardless of which node is the destination.
#[test]
fn closed_workloads_conserve_packets() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0003);
    for _ in 0..12 {
        let topology = any_topology(&mut rng);
        let hotspot = rng.gen_range(0usize..8);
        let seed = rng.gen_range(0u64..1000);
        let column = ColumnConfig::paper();
        let sim = SharedRegionSim::new(topology).with_column(column);
        let generators = taqos::traffic::workloads::workload1(
            &column,
            &taqos::traffic::workloads::WORKLOAD1_RATES,
            PacketSizeMix::paper(),
            NodeId(hotspot as u16),
            1_500,
            seed,
        );
        let network = sim
            .build(Box::new(sim.default_policy()), generators)
            .expect("column builds");
        let stats = run_closed(network, None, 300_000).expect("workload completes");
        assert_eq!(
            stats.generated_packets, stats.delivered_packets,
            "{topology} hotspot={hotspot} seed={seed}"
        );
        assert!(stats.completion_cycle.is_some());
    }
}
