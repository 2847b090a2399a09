//! Ready-made workloads for the shared-region column experiments.
//!
//! Each function returns one traffic generator per injector, in source order
//! (node-major, injector-minor — the order in which `taqos-topology` declares
//! the column's sources), ready to be passed to
//! [`taqos_netsim::network::Network::new`].

use crate::generators::{DestinationPattern, SyntheticGenerator};
use crate::injection::PacketSizeMix;
use taqos_netsim::closed_loop::{
    BurstTrain, ClosedLoopSpec, PhaseSchedule, PhasedWorkload, RequesterSpec,
};
use taqos_netsim::fault::splitmix64;
use taqos_netsim::packet::{IdleGenerator, PacketGenerator};
use taqos_netsim::{FlowId, NodeId};
use taqos_topology::column::ColumnConfig;

/// Injection rates (flits per cycle) of the eight terminal injectors in
/// adversarial Workload 1: equal priorities but widely different rates,
/// ranging from 5% to 20% of link bandwidth with an average around 14%,
/// guaranteeing contention at the hotspot whose fair share is 12.5% each.
pub const WORKLOAD1_RATES: [f64; 8] = [0.05, 0.08, 0.11, 0.14, 0.16, 0.18, 0.19, 0.20];

/// Per-injector generator list; boxed trait objects in source order.
pub type GeneratorSet = Vec<Box<dyn PacketGenerator>>;

fn seed_for(base_seed: u64, flow_index: usize) -> u64 {
    // Distinct, deterministic per-injector seeds.
    base_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(flow_index as u64)
}

/// Uniform-random traffic: every injector sends at `rate` flits/cycle to
/// destinations drawn uniformly among the other nodes of the column.
pub fn uniform_random(
    config: &ColumnConfig,
    rate: f64,
    mix: PacketSizeMix,
    seed: u64,
) -> GeneratorSet {
    let mut generators: GeneratorSet = Vec::with_capacity(config.num_flows());
    for node in 0..config.nodes {
        let dests: Vec<NodeId> = (0..config.nodes)
            .filter(|&d| d != node)
            .map(|d| NodeId(d as u16))
            .collect();
        for injector in 0..config.injectors_per_node() {
            let flow = config.flow_of(node, injector).index();
            generators.push(Box::new(SyntheticGenerator::open_loop(
                rate,
                mix,
                DestinationPattern::UniformRandom(dests.clone()),
                seed_for(seed, flow),
            )));
        }
    }
    generators
}

/// Uniform-random traffic for a network with one terminal injector per node
/// (e.g. the two-dimensional mesh built by `taqos_topology::mesh2d`): each of
/// the `nodes` injectors sends at `rate` flits/cycle to destinations drawn
/// uniformly among the other nodes.
pub fn uniform_random_terminals(
    nodes: usize,
    rate: f64,
    mix: PacketSizeMix,
    seed: u64,
) -> GeneratorSet {
    (0..nodes)
        .map(|node| {
            let dests: Vec<NodeId> = (0..nodes)
                .filter(|&d| d != node)
                .map(|d| NodeId(d as u16))
                .collect();
            Box::new(SyntheticGenerator::open_loop(
                rate,
                mix,
                DestinationPattern::UniformRandom(dests),
                seed_for(seed, node),
            )) as Box<dyn PacketGenerator>
        })
        .collect()
}

/// Tornado traffic: every injector at node `i` sends to node
/// `(i + n/2) mod n`, the challenge pattern for rings and meshes.
pub fn tornado(config: &ColumnConfig, rate: f64, mix: PacketSizeMix, seed: u64) -> GeneratorSet {
    permutation(
        config,
        crate::patterns::Permutation::Tornado,
        rate,
        mix,
        seed,
    )
}

/// Permutation traffic: every injector at node `i` sends to the node given by
/// the permutation (tornado, bit complement, bit reverse, shuffle,
/// neighbour, ...).
pub fn permutation(
    config: &ColumnConfig,
    pattern: crate::patterns::Permutation,
    rate: f64,
    mix: PacketSizeMix,
    seed: u64,
) -> GeneratorSet {
    let n = config.nodes;
    let mut generators: GeneratorSet = Vec::with_capacity(config.num_flows());
    for node in 0..n {
        let dst = pattern.destination(node, n);
        for injector in 0..config.injectors_per_node() {
            let flow = config.flow_of(node, injector).index();
            generators.push(Box::new(SyntheticGenerator::open_loop(
                rate,
                mix,
                DestinationPattern::Fixed(dst),
                seed_for(seed, flow),
            )));
        }
    }
    generators
}

/// Hotspot traffic: every injector (including the injectors of the hotspot
/// node itself) streams to the terminal of `hotspot`. Used for the fairness
/// experiment of Table 2.
pub fn hotspot(
    config: &ColumnConfig,
    rate: f64,
    mix: PacketSizeMix,
    hotspot: NodeId,
    seed: u64,
) -> GeneratorSet {
    let mut generators: GeneratorSet = Vec::with_capacity(config.num_flows());
    for node in 0..config.nodes {
        for injector in 0..config.injectors_per_node() {
            let flow = config.flow_of(node, injector).index();
            generators.push(Box::new(SyntheticGenerator::open_loop(
                rate,
                mix,
                DestinationPattern::Fixed(hotspot),
                seed_for(seed, flow),
            )));
        }
    }
    generators
}

/// Adversarial Workload 1: only the terminal injector of each node sends
/// towards the hotspot, at the widely different rates of [`WORKLOAD1_RATES`];
/// every source has a fixed packet budget so the workload has a completion
/// time (used for the slowdown measurement of Figure 6).
///
/// `budget_cycles` sets how much traffic each source offers: a source with
/// rate `r` sends `r * budget_cycles` flits worth of packets.
///
/// # Panics
///
/// Panics if `rates` does not provide one rate per node.
pub fn workload1(
    config: &ColumnConfig,
    rates: &[f64],
    mix: PacketSizeMix,
    hotspot: NodeId,
    budget_cycles: u64,
    seed: u64,
) -> GeneratorSet {
    assert_eq!(
        rates.len(),
        config.nodes,
        "workload 1 needs one rate per node"
    );
    let mut generators: GeneratorSet = Vec::with_capacity(config.num_flows());
    for (node, &rate) in rates.iter().enumerate().take(config.nodes) {
        for injector in 0..config.injectors_per_node() {
            let flow = config.flow_of(node, injector).index();
            if injector == 0 {
                let budget = packet_budget(rate, mix, budget_cycles);
                generators.push(Box::new(SyntheticGenerator::with_budget(
                    rate,
                    mix,
                    DestinationPattern::Fixed(hotspot),
                    budget,
                    seed_for(seed, flow),
                )));
            } else {
                generators.push(Box::new(IdleGenerator));
            }
        }
    }
    generators
}

/// Adversarial Workload 2: all eight injectors of the node farthest from the
/// hotspot plus one additional injector at the adjacent node send towards the
/// hotspot, pressuring a single downstream MECS port and the destination
/// output port.
pub fn workload2(
    config: &ColumnConfig,
    rate: f64,
    mix: PacketSizeMix,
    hotspot: NodeId,
    budget_cycles: u64,
    seed: u64,
) -> GeneratorSet {
    let far_node = if hotspot.index() == 0 {
        config.nodes - 1
    } else {
        0
    };
    let adjacent = if far_node > 0 { far_node - 1 } else { 1 };
    let budget = packet_budget(rate, mix, budget_cycles);
    let mut generators: GeneratorSet = Vec::with_capacity(config.num_flows());
    for node in 0..config.nodes {
        for injector in 0..config.injectors_per_node() {
            let flow = config.flow_of(node, injector).index();
            let active = node == far_node || (node == adjacent && injector == 0);
            if active {
                generators.push(Box::new(SyntheticGenerator::with_budget(
                    rate,
                    mix,
                    DestinationPattern::Fixed(hotspot),
                    budget,
                    seed_for(seed, flow),
                )));
            } else {
                generators.push(Box::new(IdleGenerator));
            }
        }
    }
    generators
}

/// Per-node traffic plan for chip-scale workloads: node `i` either stays
/// idle (`None`) or streams at the given rate (flits/cycle) to a fixed
/// destination — e.g. a domain node sending memory requests to its memory
/// controller in a shared column.
pub type NodePlan = Vec<Option<(f64, NodeId)>>;

/// Open-loop chip workload from a per-node plan: one generator per node, in
/// node order (the source order of the chip and mesh topologies).
pub fn per_node_fixed(plan: &NodePlan, mix: PacketSizeMix, seed: u64) -> GeneratorSet {
    plan.iter()
        .enumerate()
        .map(|(node, entry)| match entry {
            Some((rate, dst)) => Box::new(SyntheticGenerator::open_loop(
                *rate,
                mix,
                DestinationPattern::Fixed(*dst),
                seed_for(seed, node),
            )) as Box<dyn PacketGenerator>,
            None => Box::new(IdleGenerator) as Box<dyn PacketGenerator>,
        })
        .collect()
}

/// Closed chip workload from a per-node plan: each active node offers
/// `rate * budget_cycles` flits worth of packets, then stops, so the run has
/// a completion time.
pub fn per_node_fixed_budget(
    plan: &NodePlan,
    mix: PacketSizeMix,
    budget_cycles: u64,
    seed: u64,
) -> GeneratorSet {
    plan.iter()
        .enumerate()
        .map(|(node, entry)| match entry {
            Some((rate, dst)) => Box::new(SyntheticGenerator::with_budget(
                *rate,
                mix,
                DestinationPattern::Fixed(*dst),
                packet_budget(*rate, mix, budget_cycles),
                seed_for(seed, node),
            )) as Box<dyn PacketGenerator>,
            None => Box::new(IdleGenerator) as Box<dyn PacketGenerator>,
        })
        .collect()
}

/// Per-node closed-loop plan for chip-scale memory workloads: node `i`
/// either stays idle (`None`) or runs an MLP-limited request/reply loop
/// against a fixed memory controller — `(mlp, mc)` is the node's
/// outstanding-miss budget and its controller. The injection rate is not a
/// parameter: a closed-loop source is self-limited by its window and the
/// round-trip time.
pub type MlpPlan = Vec<Option<(usize, NodeId)>>;

/// Builds the closed-loop spec of an [`MlpPlan`] with the paper's packet mix
/// (single-flit requests, four-flit cache-line replies) and no request
/// budget, for networks with one terminal injector per node whose flow ids
/// equal node ids (the mesh and chip topologies).
pub fn mlp_closed_loop(plan: &MlpPlan) -> ClosedLoopSpec {
    plan.iter().enumerate().fold(
        ClosedLoopSpec::new(plan.len()),
        |spec, (node, entry)| match entry {
            Some((mlp, mc)) => {
                spec.with_requester(FlowId(node as u16), RequesterSpec::paper(*mc, *mlp))
            }
            None => spec,
        },
    )
}

/// Like [`mlp_closed_loop`], but every requester stops after `total`
/// requests, so the run has a completion time (for `run_closed`-style
/// drivers and flit-conservation checks).
pub fn mlp_closed_loop_bounded(plan: &MlpPlan, total: u64) -> ClosedLoopSpec {
    plan.iter().enumerate().fold(
        ClosedLoopSpec::new(plan.len()),
        |spec, (node, entry)| match entry {
            Some((mlp, mc)) => spec.with_requester(
                FlowId(node as u16),
                RequesterSpec::paper(*mc, *mlp).with_total(total),
            ),
            None => spec,
        },
    )
}

/// One idle generator per node, for closed-loop runs where every packet is
/// produced by the MLP loop (requests) or the controllers (replies) rather
/// than a stochastic generator.
pub fn idle_terminals(nodes: usize) -> GeneratorSet {
    (0..nodes)
        .map(|_| Box::new(IdleGenerator) as Box<dyn PacketGenerator>)
        .collect()
}

/// An entirely idle generator set (useful for tests and as a template).
pub fn idle(config: &ColumnConfig) -> GeneratorSet {
    (0..config.num_flows())
        .map(|_| Box::new(IdleGenerator) as Box<dyn PacketGenerator>)
        .collect()
}

/// Number of packets a source offers when sending `rate` flits per cycle for
/// `budget_cycles` cycles with the given size mix.
pub fn packet_budget(rate: f64, mix: PacketSizeMix, budget_cycles: u64) -> u64 {
    ((rate * budget_cycles as f64) / mix.mean_len_flits())
        .round()
        .max(1.0) as u64
}

/// A bursty on/off phase schedule for one flow: `burst_mlp`-deep bursts of
/// `on_len` cycles every `period` cycles, off (window 0) in between, no burst
/// starting at or after `horizon`. The burst offset within the period is a
/// seeded per-flow hash, so a population of hogs built from one seed attacks
/// out of phase. The flow starts *off* (unless its first burst begins at
/// cycle 0) — give the requester spec any non-zero static window; the
/// schedule overrides it from the first cycle.
///
/// What is stored is the closed form ([`BurstTrain`]: window, offset, period,
/// length, horizon), not one record per change, so the cost does not depend
/// on `horizon` and `Cycle::MAX` is a legal, endless train.
///
/// # Panics
///
/// Panics unless `0 < on_len < period`.
pub fn bursty_schedule(
    flow: FlowId,
    burst_mlp: usize,
    period: u64,
    on_len: u64,
    horizon: u64,
    seed: u64,
) -> PhaseSchedule {
    assert!(period > 0, "burst period must be non-zero");
    let offset = splitmix64(seed ^ ((flow.index() as u64) << 17)) % period;
    match BurstTrain::new(burst_mlp, offset, period, on_len, horizon) {
        Ok(train) => PhaseSchedule::Bursts(train),
        Err(e) => panic!("{e}"),
    }
}

/// A phased workload of bursty on/off hogs: every flow in `hogs` gets a
/// [`bursty_schedule`] with the shared period/length/seed (per-flow offsets
/// de-synchronise them); all other flows stay static.
pub fn bursty_hogs(
    num_flows: usize,
    hogs: &[FlowId],
    burst_mlp: usize,
    period: u64,
    on_len: u64,
    horizon: u64,
    seed: u64,
) -> PhasedWorkload {
    hogs.iter().fold(PhasedWorkload::new(num_flows), |w, &f| {
        w.with_schedule(
            f,
            bursty_schedule(f, burst_mlp, period, on_len, horizon, seed),
        )
    })
}

/// Demands (flits per cycle) offered by each flow of a generator set built by
/// [`workload1`]; used to compute the max-min fair reference allocation.
pub fn workload1_demands(config: &ColumnConfig, rates: &[f64]) -> Vec<f64> {
    let mut demands = vec![0.0; config.num_flows()];
    for node in 0..config.nodes {
        demands[config.flow_of(node, 0).index()] = rates[node];
    }
    demands
}

/// Demands (flits per cycle) offered by each flow of a generator set built by
/// [`workload2`].
pub fn workload2_demands(config: &ColumnConfig, rate: f64, hotspot: NodeId) -> Vec<f64> {
    let far_node = if hotspot.index() == 0 {
        config.nodes - 1
    } else {
        0
    };
    let adjacent = if far_node > 0 { far_node - 1 } else { 1 };
    let mut demands = vec![0.0; config.num_flows()];
    for injector in 0..config.injectors_per_node() {
        demands[config.flow_of(far_node, injector).index()] = rate;
    }
    demands[config.flow_of(adjacent, 0).index()] = rate;
    demands
}

#[cfg(test)]
mod tests {
    use super::*;
    use taqos_netsim::closed_loop::{DramConfig, PhaseChange};
    use taqos_netsim::Cycle;

    fn count_active(generators: &mut GeneratorSet, cycles: Cycle) -> Vec<u64> {
        generators
            .iter_mut()
            .map(|g| (0..cycles).filter(|&now| g.generate(now).is_some()).count() as u64)
            .collect()
    }

    /// The executable specification of [`bursty_schedule`]: the loop that
    /// used to materialise the schedule, one record per change up to the
    /// horizon. The closed form must equal it change for change.
    fn materialised_bursts(
        flow: FlowId,
        burst_mlp: usize,
        period: u64,
        on_len: u64,
        horizon: u64,
        seed: u64,
    ) -> Vec<PhaseChange> {
        let offset = splitmix64(seed ^ ((flow.index() as u64) << 17)) % period;
        let mut changes = Vec::new();
        if offset > 0 {
            changes.push(PhaseChange { at: 0, mlp: 0 });
        }
        let mut start = offset;
        while start < horizon {
            changes.push(PhaseChange {
                at: start,
                mlp: burst_mlp,
            });
            changes.push(PhaseChange {
                at: start + on_len,
                mlp: 0,
            });
            start += period;
        }
        changes
    }

    fn changes(schedule: &PhaseSchedule) -> Vec<PhaseChange> {
        schedule.iter().collect()
    }

    #[test]
    fn burst_trains_equal_the_materialising_model_change_for_change() {
        let mut draws = 0;
        let (mut offset_zero, mut empty, mut ragged) = (0, 0, 0);
        for draw in 0..4_000u64 {
            let r = |salt: u64| splitmix64(draw.wrapping_mul(0x9E37_79B9) ^ (salt << 56));
            let flow = FlowId((r(1) % 256) as u16);
            // Period 1 cannot hold a burst; small periods make offset 0 and
            // `horizon <= offset` common enough to be drawn.
            let period = 2 + r(2) % if draw % 2 == 0 { 6 } else { 400 };
            let on_len = 1 + r(3) % (period - 1);
            let horizon = r(4) % (6 * period);
            let (mlp, seed) = (1 + (r(5) % 16) as usize, r(6));
            let model = materialised_bursts(flow, mlp, period, on_len, horizon, seed);
            let train = bursty_schedule(flow, mlp, period, on_len, horizon, seed);
            assert_eq!(changes(&train), model, "draw {draw}");
            // Random access agrees with iteration, and ends where it ends.
            for (i, &want) in model.iter().enumerate().rev() {
                assert_eq!(train.change(i), Some(want), "draw {draw} change {i}");
            }
            assert_eq!(train.change(model.len()), None);
            assert_eq!(train.is_empty(), model.is_empty());
            let offset = splitmix64(seed ^ ((flow.index() as u64) << 17)) % period;
            draws += 1;
            offset_zero += u64::from(offset == 0);
            empty += u64::from(horizon <= offset);
            ragged += u64::from(horizon > offset && !(horizon - offset).is_multiple_of(period));
        }
        // The edge cases the model is there for were all exercised.
        assert!(
            offset_zero > 50 && empty > 50 && ragged > 1_000,
            "{draws} draws"
        );
    }

    #[test]
    fn bursty_schedules_are_deterministic_offset_and_strictly_increasing() {
        let a = bursty_schedule(FlowId(3), 8, 1_000, 250, 10_000, 42);
        let b = bursty_schedule(FlowId(3), 8, 1_000, 250, 10_000, 42);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(!a.is_empty());
        let a = changes(&a);
        assert!(a.windows(2).all(|w| w[0].at < w[1].at));
        // On/off changes alternate between the burst window and zero.
        assert!(a.iter().all(|c| c.mlp == 0 || c.mlp == 8));
        assert!(a.iter().any(|c| c.mlp == 8));
        // A different flow of the same seed bursts at a different offset.
        let other = bursty_schedule(FlowId(4), 8, 1_000, 250, 10_000, 42);
        assert_ne!(
            a.iter().find(|c| c.mlp == 8).map(|c| c.at),
            other.iter().find(|c| c.mlp == 8).map(|c| c.at),
        );
    }

    /// At the parent commit this test cannot finish: the schedule was
    /// materialised, 32 bytes per period, until the process died (and near
    /// the top of the range `start + on_len` overflowed).
    #[test]
    fn an_unbounded_bursty_schedule_costs_nothing_to_build() {
        let (period, on_len) = (1_000, 250);
        let endless = bursty_schedule(FlowId(3), 8, period, on_len, Cycle::MAX, 42);
        let bounded = bursty_schedule(FlowId(3), 8, period, on_len, 10_000, 42);
        assert_eq!(
            std::mem::size_of_val(&endless),
            std::mem::size_of::<PhaseSchedule>()
        );
        assert!(
            matches!(endless, PhaseSchedule::Bursts(_)),
            "no list behind it"
        );
        // The first changes are the bounded schedule's...
        let head = changes(&bounded);
        assert_eq!(endless.iter().take(head.len()).collect::<Vec<_>>(), head);
        // ...and the last burst is the last one whose start is representable:
        // on, then an off that saturates instead of wrapping, then nothing.
        let offset = head[1].at;
        let bursts = (Cycle::MAX - 1 - offset) / period + 1;
        let last = usize::try_from(2 * bursts).expect("64-bit usize");
        let start = offset + (bursts - 1) * period;
        assert_eq!(
            endless.change(last - 1),
            Some(PhaseChange { at: start, mlp: 8 })
        );
        let off = endless.change(last).expect("every burst ends");
        assert_eq!(off.mlp, 0);
        assert_eq!(off.at, start.saturating_add(on_len));
        assert!(off.at > start);
        assert_eq!(endless.change(last + 1), None);
        assert_eq!(endless.change(usize::MAX), None);

        // A whole population of endless hogs validates without walking them.
        let config = ColumnConfig::paper();
        let spec = taqos_topology::column::ColumnTopology::MeshX1.build(&config);
        let hogs = config.terminal_flows();
        let closed = hogs
            .iter()
            .fold(ClosedLoopSpec::new(config.num_flows()), |c, &f| {
                c.with_requester(f, RequesterSpec::paper(NodeId(0), 4))
            });
        let phases = bursty_hogs(config.num_flows(), &hogs, 8, period, on_len, Cycle::MAX, 7);
        closed
            .with_phases(phases)
            .validate(&spec)
            .expect("an endless train is a legal schedule");
    }

    #[test]
    fn bursty_hogs_touch_only_named_flows() {
        let hogs = bursty_hogs(8, &[FlowId(1), FlowId(5)], 4, 500, 100, 5_000, 7);
        assert_eq!(hogs.schedules.len(), 8);
        assert!(!hogs.schedules[1].is_empty());
        assert!(!hogs.schedules[5].is_empty());
        assert!(hogs.schedules[0].is_empty());
        assert!(!hogs.is_static());
    }

    #[test]
    fn all_workloads_cover_every_injector() {
        let config = ColumnConfig::paper();
        assert_eq!(
            uniform_random(&config, 0.1, PacketSizeMix::paper(), 1).len(),
            64
        );
        assert_eq!(tornado(&config, 0.1, PacketSizeMix::paper(), 1).len(), 64);
        assert_eq!(
            hotspot(&config, 0.1, PacketSizeMix::paper(), NodeId(0), 1).len(),
            64
        );
        assert_eq!(
            workload1(
                &config,
                &WORKLOAD1_RATES,
                PacketSizeMix::paper(),
                NodeId(0),
                10_000,
                1
            )
            .len(),
            64
        );
        assert_eq!(
            workload2(&config, 0.14, PacketSizeMix::paper(), NodeId(0), 10_000, 1).len(),
            64
        );
        assert_eq!(idle(&config).len(), 64);
    }

    #[test]
    fn workload1_activates_only_terminals() {
        let config = ColumnConfig::paper();
        let mut generators = workload1(
            &config,
            &WORKLOAD1_RATES,
            PacketSizeMix::requests_only(),
            NodeId(0),
            5_000,
            3,
        );
        let counts = count_active(&mut generators, 2_000);
        for node in 0..config.nodes {
            for injector in 0..config.injectors_per_node() {
                let flow = config.flow_of(node, injector).index();
                if injector == 0 {
                    assert!(counts[flow] > 0, "terminal of node {node} should send");
                } else {
                    assert_eq!(counts[flow], 0, "row injector {injector} of node {node}");
                }
            }
        }
    }

    #[test]
    fn workload2_activates_far_node_and_one_neighbour() {
        let config = ColumnConfig::paper();
        let mut generators = workload2(
            &config,
            0.5,
            PacketSizeMix::requests_only(),
            NodeId(0),
            5_000,
            3,
        );
        let counts = count_active(&mut generators, 2_000);
        let active: Vec<usize> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i)
            .collect();
        // All eight injectors of node 7 plus the terminal of node 6.
        assert_eq!(active.len(), 9);
        for injector in 0..8 {
            assert!(active.contains(&config.flow_of(7, injector).index()));
        }
        assert!(active.contains(&config.flow_of(6, 0).index()));
    }

    #[test]
    fn tornado_targets_opposite_half() {
        let config = ColumnConfig::paper();
        let mut generators = tornado(&config, 1.0, PacketSizeMix::requests_only(), 9);
        let g = &mut generators[config.flow_of(1, 0).index()];
        let mut found = None;
        for now in 0..100 {
            if let Some(p) = g.generate(now) {
                found = Some(p.dst);
                break;
            }
        }
        assert_eq!(found, Some(NodeId(5)));
    }

    #[test]
    fn uniform_random_excludes_self() {
        let config = ColumnConfig::paper();
        let mut generators = uniform_random(&config, 1.0, PacketSizeMix::requests_only(), 11);
        let node = 4;
        let g = &mut generators[config.flow_of(node, 2).index()];
        for now in 0..500 {
            if let Some(p) = g.generate(now) {
                assert_ne!(p.dst, NodeId(node as u16));
            }
        }
    }

    #[test]
    fn per_node_plans_activate_exactly_the_planned_nodes() {
        let plan: NodePlan = vec![Some((1.0, NodeId(9))), None, Some((1.0, NodeId(9))), None];
        let mut open = per_node_fixed(&plan, PacketSizeMix::requests_only(), 3);
        assert_eq!(open.len(), 4);
        let counts = count_active(&mut open, 500);
        assert!(counts[0] > 0 && counts[2] > 0);
        assert_eq!(counts[1], 0);
        assert_eq!(counts[3], 0);

        let mut closed = per_node_fixed_budget(&plan, PacketSizeMix::requests_only(), 100, 3);
        let counts = count_active(&mut closed, 5_000);
        assert_eq!(counts[0], 100, "budgeted generator stops at its budget");
        assert!(closed[0].exhausted());
        assert!(
            closed[1].exhausted(),
            "idle generators are always exhausted"
        );
    }

    #[test]
    fn mlp_plans_build_matching_closed_loop_specs() {
        let plan: MlpPlan = vec![Some((4, NodeId(2))), None, None, Some((16, NodeId(2)))];
        let spec = mlp_closed_loop(&plan);
        assert_eq!(spec.requesters.len(), 4);
        assert_eq!(spec.active_requesters(), 2);
        let r = spec.requesters[0].expect("node 0 is a requester");
        assert_eq!(r.mlp, 4);
        assert_eq!(r.mc, NodeId(2));
        assert_eq!(r.request_len, 1);
        assert_eq!(r.reply_len, 4);
        assert!(r.total.is_none());
        assert!(spec.requesters[1].is_none());

        let bounded = mlp_closed_loop_bounded(&plan, 250);
        assert_eq!(bounded.requesters[3].unwrap().total, Some(250));
        assert!(bounded.dram.is_none(), "no DRAM model unless requested");

        // A DRAM model rides along via the spec's builder.
        let dram = mlp_closed_loop(&plan).with_dram(DramConfig::paper().with_banks(4));
        assert_eq!(dram.dram.expect("DRAM model installed").banks, 4);
        assert_eq!(dram.active_requesters(), 2);

        let idle = idle_terminals(4);
        assert_eq!(idle.len(), 4);
        assert!(idle.iter().all(|g| g.exhausted()));
    }

    #[test]
    fn budgets_scale_with_rate_and_mix() {
        assert_eq!(
            packet_budget(0.1, PacketSizeMix::requests_only(), 10_000),
            1_000
        );
        assert_eq!(packet_budget(0.1, PacketSizeMix::paper(), 10_000), 400);
        assert_eq!(packet_budget(0.0001, PacketSizeMix::paper(), 100), 1);
    }

    #[test]
    fn demand_vectors_match_active_sources() {
        let config = ColumnConfig::paper();
        let d1 = workload1_demands(&config, &WORKLOAD1_RATES);
        assert_eq!(d1.iter().filter(|&&d| d > 0.0).count(), 8);
        assert!((d1.iter().sum::<f64>() - WORKLOAD1_RATES.iter().sum::<f64>()).abs() < 1e-12);

        let d2 = workload2_demands(&config, 0.14, NodeId(0));
        assert_eq!(d2.iter().filter(|&&d| d > 0.0).count(), 9);
    }

    #[test]
    fn workload1_average_rate_is_near_14_percent() {
        let avg: f64 = WORKLOAD1_RATES.iter().sum::<f64>() / WORKLOAD1_RATES.len() as f64;
        assert!(avg > 0.125 && avg < 0.15, "average {avg}");
    }
}
