//! Chip-scale simulation facade.
//!
//! [`ChipSim`] is the chip-level sibling of
//! [`crate::shared_region::SharedRegionSim`]: it bundles the architectural
//! chip model ([`TopologyAwareChip`] — shared columns, convex domains,
//! topology-aware routes) with the executable hybrid fabric of
//! [`taqos_topology::chip`] (2-D mesh + per-row MECS express channels +
//! shared-column QOS overlay) and builds ready-to-run
//! [`Network`] instances on the cycle engine.
//!
//! Flows are **domain-tagged**: every node owns one flow (its terminal
//! injector), and [`ChipSim::domain_flows`] maps an allocated domain to the
//! flows its nodes inject on, so per-domain latency and throughput fall
//! directly out of the per-flow statistics. Memory traffic follows exactly
//! the routes the architectural model prescribes in both directions —
//! requests take [`TopologyAwareChip::memory_access_route`] (one MECS
//! express hop along the source's own row into the shared column, then the
//! QOS-protected column to the memory controller), replies take
//! [`TopologyAwareChip::memory_reply_route`] (down the column to the
//! requester's row, then the mesh back out) — because the fabric's routing
//! tables are generated from the same topology-aware rules.
//!
//! Memory traffic can run **closed-loop**: [`ChipSim::build_closed_loop`]
//! gives every requester node an MLP window (outstanding-miss budget), the
//! controllers answer each delivered request with a cache-line reply, and
//! per-domain round-trip latency and accepted request throughput fall out of
//! the round-trip statistics.
//!
//! The facade only builds. A built network runs through one of netsim's two
//! drivers: [`taqos_netsim::sim::run_open_loop`] (warm-up, measurement
//! window, drain) or [`taqos_netsim::sim::run_closed`] (a fixed workload run
//! to completion). Mid-run rate changes are scheduled on the built network
//! with [`Network::schedule_reprogram`].
//!
//! Controllers can additionally be **DRAM-backed** ([`ChipSim::with_dram`]):
//! each column memory controller then owns a set of address-interleaved
//! banks with row-buffer hit/miss service latencies and a bounded request
//! queue whose backpressure NACKs or stalls overflowing requests — the reply
//! is released only when its bank completes. [`ChipSim::topology_dram`]
//! scales the bank count and queue depth to the requester population each
//! column controller serves.

use crate::chip::{ChipError, DomainId, TopologyAwareChip};
use crate::shared_region::build_with_faults;
use std::collections::{BTreeMap, BTreeSet};
use taqos_netsim::closed_loop::{
    ClosedLoopSpec, DramConfig, PhaseChange, PhaseSchedule, PhasedWorkload,
};
use taqos_netsim::error::SimError;
use taqos_netsim::fault::FaultPlan;
use taqos_netsim::network::Network;
use taqos_netsim::qos::{FifoPolicy, QosPolicy};
use taqos_netsim::{Cycle, FlowId, NodeId, SimConfig};
use taqos_qos::pvc::{PvcConfig, PvcPolicy};
use taqos_qos::rates::RateAllocation;
use taqos_qos::scoped::ScopedQosPolicy;
use taqos_topology::chip::{ChipConfig, ChipSpec};
use taqos_topology::grid::Coord;
use taqos_topology::reroute::failover_controller;
use taqos_traffic::workloads::{self, GeneratorSet, MlpPlan, NodePlan};

/// QOS configuration of a chip simulation.
#[derive(Debug, Clone)]
pub enum ChipPolicy {
    /// The paper's architecture: the given PVC policy confined to the
    /// shared-column routers; every other router stays QOS-free.
    ColumnPvc(PvcPolicy),
    /// No QOS anywhere — the comparison fabric used to demonstrate
    /// interference (reserved VCs are not provisioned either).
    NoQos,
}

/// A configured chip-scale simulation.
#[derive(Debug, Clone)]
pub struct ChipSim {
    chip: TopologyAwareChip,
    config: ChipConfig,
    sim: SimConfig,
    dram: Option<DramConfig>,
    fault: Option<FaultPlan>,
}

impl ChipSim {
    /// MLP window of each attacker of [`Self::incast_plan`].
    pub const INCAST_ATTACKER_MLP: usize = 6;
    /// MLP window of the victim of [`Self::incast_plan`].
    pub(crate) const INCAST_VICTIM_MLP: usize = 1;

    /// Creates a simulation of the given architectural chip, deriving the
    /// fabric dimensions and shared columns from it.
    pub fn new(chip: TopologyAwareChip) -> Self {
        let config = ChipConfig::with_size(
            usize::from(chip.grid().width),
            usize::from(chip.grid().height),
            chip.shared_columns().clone(),
        );
        ChipSim {
            chip,
            config,
            sim: SimConfig::default(),
            dram: None,
            fault: None,
        }
    }

    /// The paper's target system: a 256-tile CMP (8×8 grid) with one shared
    /// column in the middle of the die.
    pub fn paper_default() -> Self {
        ChipSim::new(TopologyAwareChip::paper_default())
    }

    /// A chip of the given dimensions with `columns` shared-resource columns
    /// spread evenly across the die (the multi-column scaling configuration
    /// of larger chips, e.g. 16×16 with 2–4 columns).
    ///
    /// # Panics
    ///
    /// Panics if `columns` is zero or exceeds the width.
    pub fn multi_column(width: u16, height: u16, columns: usize) -> Self {
        assert!(
            columns >= 1 && columns <= usize::from(width),
            "need between 1 and {width} shared columns"
        );
        let shared: BTreeSet<u16> = (0..columns)
            .map(|i| ((2 * i + 1) * usize::from(width) / (2 * columns)) as u16)
            .collect();
        let grid = taqos_topology::grid::ChipGrid::new(width, height, 4);
        ChipSim::new(TopologyAwareChip::new(grid, shared).expect("evenly spaced columns are valid"))
    }

    /// Uses custom fabric provisioning (the grid dimensions and shared
    /// columns must match the architectural chip).
    pub fn with_chip_config(mut self, config: ChipConfig) -> Self {
        assert_eq!(config.width, usize::from(self.chip.grid().width));
        assert_eq!(config.height, usize::from(self.chip.grid().height));
        assert_eq!(&config.shared_columns, self.chip.shared_columns());
        self.config = config;
        self
    }

    /// Uses custom simulation constants.
    pub fn with_sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Installs a DRAM service-time model at every memory controller of
    /// closed-loop networks built through [`Self::build_closed_loop`].
    /// Without it, controllers answer every request instantly.
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = Some(dram);
        self
    }

    /// The DRAM model applied to closed-loop runs, if any.
    pub fn dram(&self) -> Option<&DramConfig> {
        self.dram.as_ref()
    }

    /// Installs a fault plan on every network built by this simulation.
    /// Routing tables are recomputed around the plan's *permanent* link and
    /// router failures (XY with detours; see
    /// [`taqos_topology::reroute::reroute_around_faults`]), requester plans
    /// built by [`Self::nearest_mc_mlp_plan`] fail over to a surviving
    /// sibling controller when their preferred controller is permanently
    /// dark, and the runtime faults (transient windows, corruption,
    /// controller outages) are injected cycle-by-cycle inside the engine.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Scales a base DRAM configuration to this chip's topology: every
    /// column memory controller serves the requesters of its own row that
    /// pick it as their nearest column, so the bank count grows to cover
    /// that requester set (rounded up to a power of two) and the bounded
    /// request queue grows to hold two requests per requester. On the paper
    /// 8×8 chip with one shared column the paper defaults are already
    /// topology-fitting and come back unchanged.
    pub fn topology_dram(&self, base: DramConfig) -> DramConfig {
        // Columns need not be evenly spaced, so provision for the *busiest*
        // controller: count, per column, the nodes of one row whose nearest
        // shared column it is (the assignment is identical on every row).
        let width = self.chip.grid().width;
        let mut per_column: BTreeMap<u16, usize> = BTreeMap::new();
        for x in 0..width {
            let c = Coord::new(x, 0);
            if !self.chip.is_shared(c) {
                *per_column
                    .entry(self.chip.nearest_shared_column(c))
                    .or_insert(0) += 1;
            }
        }
        let requesters_per_mc = per_column.values().copied().max().unwrap_or(0).max(1);
        let banks = base.banks.max(requesters_per_mc.next_power_of_two());
        let queue_depth = base.queue_depth.max(2 * requesters_per_mc);
        base.with_banks(banks).with_queue_depth(queue_depth)
    }

    /// The architectural chip model (domains, routes, shared columns).
    pub fn chip(&self) -> &TopologyAwareChip {
        &self.chip
    }

    /// Mutable access to the architectural chip (domain allocation).
    pub fn chip_mut(&mut self) -> &mut TopologyAwareChip {
        &mut self.chip
    }

    /// The fabric configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Node identifier of a grid coordinate.
    pub fn node_id(&self, c: Coord) -> NodeId {
        self.config.node_at(usize::from(c.x), usize::from(c.y))
    }

    /// Grid coordinate of a node identifier.
    pub fn coord(&self, node: NodeId) -> Coord {
        let (x, y) = self.config.coords(node);
        Coord::new(x as u16, y as u16)
    }

    /// The memory controller serving `from`: the terminal of the nearest
    /// shared column on the node's own row (one MECS express hop away).
    pub(crate) fn memory_controller_for(&self, from: Coord) -> NodeId {
        let column = self.chip.nearest_shared_column(from);
        self.node_id(Coord::new(column, from.y))
    }

    /// Every memory-controller terminal of the chip (the shared-column
    /// nodes), in node order.
    pub fn controller_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .config
            .shared_columns
            .iter()
            .flat_map(|&x| (0..self.config.height).map(move |y| (x, y)))
            .map(|(x, y)| self.config.node_at(usize::from(x), y))
            .collect();
        nodes.sort_unstable();
        nodes
    }

    /// The memory controller serving `from` under the installed fault plan:
    /// the nearest controller as usual, failed over to the closest surviving
    /// sibling controller when the preferred one is permanently dark, or
    /// `None` when every controller is dark. Without a fault plan this is
    /// exactly [`Self::memory_controller_for`].
    pub(crate) fn live_memory_controller_for(&self, from: Coord) -> Option<NodeId> {
        let preferred = self.memory_controller_for(from);
        let Some(plan) = &self.fault else {
            return Some(preferred);
        };
        let dark = plan.permanent_mc_outages();
        if dark.is_empty() {
            return Some(preferred);
        }
        let controllers = self.controller_nodes();
        // Prefer a surviving controller on the node's own row — the sibling
        // column, one express hop away like the original assignment; fall
        // back to any surviving controller otherwise.
        controllers
            .iter()
            .copied()
            .filter(|c| !dark.contains(c) && self.coord(*c).y == from.y)
            .min_by_key(|c| {
                let cc = self.coord(*c);
                (cc.x.abs_diff(from.x), cc.x)
            })
            .or_else(|| failover_controller(preferred, &controllers, &dark))
    }

    /// Builds the hybrid fabric specification (with the QOS overlay's buffer
    /// reservations provisioned).
    pub fn build_spec(&self) -> ChipSpec {
        self.config.build()
    }

    /// The default QOS overlay: Preemptive Virtual Clock with equal rates
    /// for every node's flow, confined to the shared columns.
    pub fn default_policy(&self) -> ChipPolicy {
        ChipPolicy::ColumnPvc(PvcPolicy::equal_rates(self.config.num_nodes()))
    }

    /// A PVC overlay programmed with explicit (non-equal) per-flow rates,
    /// confined to the shared columns — the knob the `Hypervisor` turns when
    /// tenants carry different service weights
    /// (`Hypervisor::program_node_rates` produces a matching
    /// allocation).
    ///
    /// # Panics
    ///
    /// Panics if the allocation does not carry one rate per node.
    pub(crate) fn weighted_policy(&self, rates: RateAllocation) -> ChipPolicy {
        assert_eq!(
            rates.len(),
            self.config.num_nodes(),
            "need one rate per node flow"
        );
        ChipPolicy::ColumnPvc(PvcPolicy::new(PvcConfig::paper(), rates))
    }

    /// Flows injected by the nodes of a domain, in node order.
    ///
    /// # Errors
    ///
    /// Returns an error if the domain does not exist.
    pub fn domain_flows(&self, id: DomainId) -> Result<Vec<FlowId>, ChipError> {
        let domain = self.chip.domain(id).ok_or(ChipError::UnknownDomain(id))?;
        Ok(domain
            .nodes
            .iter()
            .map(|&c| FlowId(self.node_id(c).0))
            .collect())
    }

    /// Nearest-controller workload plan: every node outside the shared
    /// columns streams at `rate` to the memory controller on its own row of
    /// the nearest shared column (the paper's common-case access pattern; it
    /// exercises every express channel of the fabric).
    pub fn nearest_mc_plan(&self, rate: f64) -> NodePlan {
        (0..self.config.num_nodes())
            .map(|node| {
                let c = self.coord(NodeId(node as u16));
                if self.chip.is_shared(c) {
                    None
                } else {
                    Some((rate, self.memory_controller_for(c)))
                }
            })
            .collect()
    }

    /// Closed-loop memory-hotspot plan: every node of each listed domain runs
    /// an MLP-limited request/reply loop against the memory controller at
    /// `mc` with the domain's outstanding-miss budget.
    ///
    /// # Errors
    ///
    /// Returns an error if `mc` is not a shared-column terminal or a domain
    /// does not exist.
    pub fn memory_mlp_plan(
        &self,
        demands: &[(DomainId, usize)],
        mc: Coord,
    ) -> Result<MlpPlan, ChipError> {
        if !self.chip.is_shared(mc) {
            return Err(ChipError::NotASharedResource(mc));
        }
        let mc_node = self.node_id(mc);
        let mut plan: MlpPlan = vec![None; self.config.num_nodes()];
        for &(id, mlp) in demands {
            let domain = self.chip.domain(id).ok_or(ChipError::UnknownDomain(id))?;
            for &c in &domain.nodes {
                plan[self.node_id(c).index()] = Some((mlp, mc_node));
            }
        }
        Ok(plan)
    }

    /// Closed-loop nearest-controller plan: every node outside the shared
    /// columns runs an MLP-limited loop against the controller on its own
    /// row of the nearest shared column (requests over the MECS express
    /// channels, replies down the column and back over the mesh). Under an
    /// installed fault plan, requesters whose preferred controller is
    /// permanently dark fail over to the closest surviving sibling
    /// controller (and idle if every controller is dark).
    pub fn nearest_mc_mlp_plan(&self, mlp: usize) -> MlpPlan {
        (0..self.config.num_nodes())
            .map(|node| {
                let c = self.coord(NodeId(node as u16));
                if self.chip.is_shared(c) {
                    None
                } else {
                    self.live_memory_controller_for(c).map(|mc| (mlp, mc))
                }
            })
            .collect()
    }

    /// Closed-loop incast plan: every node outside the shared columns runs an
    /// MLP-[`Self::INCAST_ATTACKER_MLP`] loop against the `victim`'s own-row
    /// controller (one MECS express hop from the victim); the victim keeps an
    /// MLP-1 window (`INCAST_VICTIM_MLP`). Returns the plan and the
    /// attackers' flows (every active node but the victim), in node order.
    /// The plan ignores any installed fault plan: it aims at the victim's
    /// controller whether or not that controller is dark.
    ///
    /// # Panics
    ///
    /// Panics if `victim` lies in a shared column (it has no requester).
    pub fn incast_plan(&self, victim: Coord) -> (MlpPlan, Vec<FlowId>) {
        assert!(
            !self.chip.is_shared(victim),
            "incast victim {victim:?} lies in a shared column"
        );
        let mc = self.memory_controller_for(victim);
        let mut plan: MlpPlan = vec![None; self.config.num_nodes()];
        let mut attackers = Vec::new();
        for (node, slot) in plan.iter_mut().enumerate() {
            let c = self.coord(NodeId(node as u16));
            if self.chip.is_shared(c) {
                continue;
            }
            if c == victim {
                *slot = Some((Self::INCAST_VICTIM_MLP, mc));
            } else {
                *slot = Some((Self::INCAST_ATTACKER_MLP, mc));
                attackers.push(FlowId(node as u16));
            }
        }
        (plan, attackers)
    }

    /// Closed-loop plan over an explicit node set: each listed node runs an
    /// MLP-limited loop against the controller on its own row of the nearest
    /// shared column; every other node idles. Used by migration experiments,
    /// whose source and destination regions are plain node sets (the source
    /// domain no longer exists once the hypervisor has migrated the VM).
    pub fn mlp_plan_for(&self, nodes: &[Coord], mlp: usize) -> MlpPlan {
        let mut plan: MlpPlan = vec![None; self.config.num_nodes()];
        for &c in nodes {
            plan[self.node_id(c).index()] = Some((mlp, self.memory_controller_for(c)));
        }
        plan
    }

    /// Phase schedules realising a VM migration in the fabric: the `from`
    /// nodes' requesters run from the start and switch off at `at`, the `to`
    /// nodes' requesters stay idle until `at` and then open an MLP window of
    /// `mlp`. Apply on top of a spec whose requesters cover both node sets
    /// (e.g. [`Self::mlp_plan_for`] over their union); in-flight requests of
    /// the switched-off nodes drain normally, so flit conservation holds
    /// through the move.
    pub fn migration_phases(
        &self,
        from: &[Coord],
        to: &[Coord],
        at: Cycle,
        mlp: usize,
    ) -> PhasedWorkload {
        let mut phases = PhasedWorkload::new(self.config.num_nodes());
        for &c in from {
            phases = phases.with_schedule(
                FlowId(self.node_id(c).0),
                PhaseSchedule::new(vec![PhaseChange { at, mlp: 0 }]),
            );
        }
        for &c in to {
            phases = phases.with_schedule(
                FlowId(self.node_id(c).0),
                PhaseSchedule::new(vec![PhaseChange { at: 0, mlp: 0 }, PhaseChange { at, mlp }]),
            );
        }
        phases
    }

    /// Builds a [`Network`] with the given QOS configuration and one
    /// generator per node (in node order).
    ///
    /// # Errors
    ///
    /// Returns an error if the generator count does not match the node count
    /// or the installed fault plan references components the fabric does not
    /// have.
    pub fn build(&self, policy: ChipPolicy, generators: GeneratorSet) -> Result<Network, SimError> {
        let (spec, policy): (ChipSpec, Box<dyn QosPolicy>) = match policy {
            ChipPolicy::ColumnPvc(pvc) => {
                let spec = self.config.build();
                let qos_nodes: BTreeSet<NodeId> = spec.qos_nodes.clone();
                (spec, Box::new(ScopedQosPolicy::new(pvc, qos_nodes)))
            }
            // The QOS-free comparison fabric drops the overlay's buffer
            // reservations along with the policy.
            ChipPolicy::NoQos => (
                self.config.clone().without_reservations().build(),
                Box::new(FifoPolicy::new()),
            ),
        };
        build_with_faults(spec.spec, policy, generators, self.sim, self.fault.as_ref())
    }

    /// Builds a [`Network`] with idle generators and the given closed-loop
    /// configuration installed: every packet of the run is produced by the
    /// MLP request loops and the controllers' reply ports. If the simulation
    /// carries a DRAM model ([`Self::with_dram`]) and the spec does not set
    /// one itself, the simulation's model is installed; and if the spec
    /// carries no flow weights, the PVC policy's programmed per-flow rates
    /// are exported as the DRAM schedulers' priority weights — the same
    /// `Hypervisor`-programmed rates then govern both the fabric's scoped
    /// virtual clock and the controllers' (end-to-end QOS). The QOS-free
    /// fabric leaves the weights equal.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from [`Self::build`] and closed-loop
    /// validation errors.
    pub fn build_closed_loop(
        &self,
        policy: ChipPolicy,
        mut spec: ClosedLoopSpec,
    ) -> Result<Network, SimError> {
        if spec.dram.is_none() {
            spec.dram = self.dram;
        }
        if spec.flow_weights.is_empty() {
            if let ChipPolicy::ColumnPvc(pvc) = &policy {
                spec.flow_weights = pvc.rates().priority_weights();
            }
        }
        self.build(policy, workloads::idle_terminals(self.config.num_nodes()))?
            .with_closed_loop(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taqos_netsim::sim::{run_closed, run_open_loop, OpenLoopConfig};
    use taqos_netsim::stats::NetStats;
    use taqos_topology::grid::ChipGrid;
    use taqos_traffic::injection::PacketSizeMix;

    /// The short run phases of the small-chip tests.
    const SHORT: OpenLoopConfig = OpenLoopConfig {
        warmup: 500,
        measure: 2_000,
        drain: 500,
    };

    /// A 4x4 chip with one shared column.
    fn small_chip() -> ChipSim {
        ChipSim::new(
            TopologyAwareChip::new(ChipGrid::new(4, 4, 4), [2u16].into_iter().collect()).unwrap(),
        )
    }

    /// Builds `plan`'s closed loop and runs it through the open-loop driver.
    fn run_loop(sim: &ChipSim, policy: ChipPolicy, plan: &MlpPlan) -> NetStats {
        let network = sim
            .build_closed_loop(policy, workloads::mlp_closed_loop(plan))
            .expect("closed-loop chip builds");
        run_open_loop(network, SHORT)
    }

    #[test]
    fn facade_defaults_match_the_paper_chip() {
        let sim = ChipSim::paper_default();
        assert_eq!(sim.config().num_nodes(), 64);
        assert_eq!(sim.config().shared_columns.len(), 1);
        let fraction = sim.chip().qos_router_fraction();
        assert!((fraction - 0.125).abs() < 1e-12);
        // The fabric's QOS flag count agrees with the architectural model.
        let spec = sim.build_spec();
        assert!((spec.qos_router_fraction() - fraction).abs() < 1e-12);
        assert_eq!(
            spec.qos_router_count(),
            (fraction * spec.spec.routers.len() as f64).round() as usize
        );
    }

    #[test]
    fn coordinates_round_trip_and_mcs_sit_on_the_own_row() {
        let sim = ChipSim::paper_default();
        let c = Coord::new(2, 5);
        assert_eq!(sim.coord(sim.node_id(c)), c);
        let mc = sim.memory_controller_for(c);
        assert_eq!(sim.coord(mc), Coord::new(4, 5));
        // The architectural route enters the column exactly at that node.
        let route = sim
            .chip()
            .memory_access_route(c, Coord::new(4, 0))
            .expect("valid memory route");
        assert_eq!(route[1], sim.coord(mc));
    }

    #[test]
    fn domain_flows_are_the_domain_node_terminals() {
        let mut sim = ChipSim::paper_default();
        let id = sim.chip_mut().allocate_rectangle("vm", 2, 2, 1).unwrap();
        let flows = sim.domain_flows(id).unwrap();
        assert_eq!(flows.len(), 4);
        for flow in &flows {
            let c = sim.coord(NodeId(flow.0));
            assert_eq!(sim.chip().domain_at(c), Some(id));
        }
        assert!(sim.domain_flows(DomainId(99)).is_err());
    }

    #[test]
    fn memory_plans_target_shared_columns_only() {
        let sim = ChipSim::paper_default();
        let nearest = sim.nearest_mc_plan(0.05);
        // All 56 non-column nodes are active.
        assert_eq!(nearest.iter().filter(|e| e.is_some()).count(), 56);
        for (node, entry) in nearest.iter().enumerate() {
            if let Some((_, mc)) = entry {
                let from = sim.coord(NodeId(node as u16));
                let mc = sim.coord(*mc);
                assert_eq!(mc.y, from.y, "MC on the node's own row");
                assert!(sim.chip().is_shared(mc));
            }
        }
    }

    #[test]
    fn open_loop_chip_run_delivers_memory_traffic() {
        let sim = small_chip();
        let generators =
            workloads::per_node_fixed(&sim.nearest_mc_plan(0.05), PacketSizeMix::paper(), 7);
        let network = sim
            .build(sim.default_policy(), generators)
            .expect("chip builds");
        let stats = run_open_loop(
            network,
            OpenLoopConfig {
                warmup: 200,
                measure: 2_000,
                drain: 500,
            },
        );
        assert!(stats.delivered_packets > 0);
        assert!(stats.avg_latency() > 0.0);
    }

    #[test]
    fn closed_loop_chip_run_completes_round_trips() {
        let sim = small_chip();
        let plan = sim.nearest_mc_mlp_plan(2);
        assert_eq!(plan.iter().filter(|e| e.is_some()).count(), 12);
        let stats = run_loop(&sim, sim.default_policy(), &plan);
        assert!(stats.round_trips > 0, "no round trips completed");
        let rt = stats.avg_round_trip().expect("round trips measured");
        // A round trip spans both directions, so it exceeds the one-way
        // request latency.
        assert!(rt > stats.avg_latency());
        assert!(stats.round_trip_throughput() > 0.0);
        // Requests issued and round trips completed only at requester flows.
        for (node, entry) in plan.iter().enumerate() {
            let fs = &stats.flows[node];
            if entry.is_some() {
                assert!(fs.issued_requests > 0, "node {node} issued nothing");
            } else {
                assert_eq!(fs.issued_requests, 0);
                assert_eq!(fs.round_trips, 0);
            }
        }
    }

    #[test]
    fn incast_plans_aim_every_requester_at_the_victims_controller() {
        let sim = ChipSim::paper_default();
        let victim = Coord::new(0, 4);
        let (plan, attackers) = sim.incast_plan(victim);
        let mc = sim.memory_controller_for(victim);
        assert_eq!(plan[sim.node_id(victim).index()], Some((1, mc)));
        assert_eq!(attackers.len(), 55, "every other non-column node attacks");
        for flow in &attackers {
            assert_eq!(plan[flow.index()], Some((6, mc)));
        }
        assert_eq!(plan.iter().flatten().count(), 56);
    }

    #[test]
    #[should_panic(expected = "lies in a shared column")]
    fn an_incast_victim_in_a_shared_column_is_rejected() {
        let sim = ChipSim::paper_default();
        let _ = sim.incast_plan(Coord::new(4, 4));
    }

    #[test]
    fn mlp_plans_cover_domains_and_validate_controllers() {
        let mut sim = ChipSim::paper_default();
        let id = sim.chip_mut().allocate_rectangle("vm", 2, 2, 1).unwrap();
        let plan = sim.memory_mlp_plan(&[(id, 8)], Coord::new(4, 7)).unwrap();
        assert_eq!(plan.iter().filter(|e| e.is_some()).count(), 4);
        for entry in plan.iter().flatten() {
            assert_eq!(entry.0, 8);
            assert_eq!(entry.1, sim.node_id(Coord::new(4, 7)));
        }
        assert!(sim.memory_mlp_plan(&[(id, 8)], Coord::new(3, 7)).is_err());
        assert!(sim
            .memory_mlp_plan(&[(DomainId(99), 8)], Coord::new(4, 7))
            .is_err());
    }

    #[test]
    fn closed_measurement_window_starts_at_the_warmup_offset() {
        let sim = ChipSim::paper_default();
        let plan = sim.nearest_mc_plan(0.05);
        let generators = workloads::per_node_fixed_budget(&plan, PacketSizeMix::paper(), 400, 11);
        let network = sim
            .build(sim.default_policy(), generators)
            .expect("chip builds");
        let stats = run_closed(network, Some((300, 1_000)), 200_000).expect("closed run completes");
        assert_eq!(stats.measure_start, Some(300));
        assert_eq!(stats.measure_end, Some(1_300));
        // Deliveries before the offset are excluded from the window.
        let measured: u64 = stats
            .flows
            .iter()
            .map(|f| f.measured_delivered_packets)
            .sum();
        assert!(measured < stats.delivered_packets);
    }

    #[test]
    fn migration_helpers_cover_both_node_sets() {
        let sim = ChipSim::paper_default();
        let from = [Coord::new(0, 0), Coord::new(1, 0)];
        let to = [Coord::new(0, 7), Coord::new(1, 7)];
        let union: Vec<Coord> = from.iter().chain(to.iter()).copied().collect();
        let plan = sim.mlp_plan_for(&union, 2);
        assert_eq!(plan.iter().filter(|e| e.is_some()).count(), 4);
        for &c in &union {
            let (mlp, mc) = plan[sim.node_id(c).index()].expect("listed node is active");
            assert_eq!(mlp, 2);
            assert_eq!(sim.coord(mc).y, c.y, "controller on the node's own row");
        }
        let phases = sim.migration_phases(&from, &to, 5_000, 2);
        assert!(!phases.is_static());
        // Source nodes switch off at the instant; destination nodes hold an
        // initial off phase and open their window at the instant.
        let source = &phases.schedules[sim.node_id(from[0]).index()];
        let off = PhaseChange { at: 5_000, mlp: 0 };
        assert_eq!(*source, PhaseSchedule::new(vec![off]));
        let dest = &phases.schedules[sim.node_id(to[0]).index()];
        assert_eq!(
            *dest,
            PhaseSchedule::new(vec![
                PhaseChange { at: 0, mlp: 0 },
                PhaseChange { at: 5_000, mlp: 2 }
            ])
        );
        // Unlisted nodes stay static.
        assert!(phases.schedules[sim.node_id(Coord::new(3, 3)).index()].is_empty());
    }

    #[test]
    fn reprogramming_rates_mid_run_changes_the_outcome() {
        let sim = small_chip();
        let n = sim.config().num_nodes();
        // Short frames so the run crosses several rollovers.
        let policy = || {
            ChipPolicy::ColumnPvc(PvcPolicy::new(
                PvcConfig {
                    frame_len: 1_000,
                    ..PvcConfig::paper()
                },
                RateAllocation::equal(n),
            ))
        };
        let spec = workloads::mlp_closed_loop(&sim.nearest_mc_mlp_plan(4));
        let build = |policy: ChipPolicy| {
            sim.build_closed_loop(policy, spec.clone())
                .expect("closed-loop chip builds")
        };
        let config = OpenLoopConfig {
            warmup: 500,
            measure: 5_000,
            drain: 500,
        };
        let baseline = run_open_loop(build(policy()), config);
        // Strongly favour node 0's flow from the second frame on.
        let mut skew = vec![1.0; n];
        skew[0] = 60.0;
        let total: f64 = skew.iter().sum();
        let skewed: Vec<f64> = skew.into_iter().map(|r| r / total).collect();
        let mut network = build(policy());
        network
            .schedule_reprogram(1_000, skewed.clone())
            .expect("reprogramme schedules");
        let reprogrammed = run_open_loop(network, config);
        assert_ne!(
            baseline, reprogrammed,
            "a mid-run rate change must be observable"
        );
        // Bad programmes are rejected up front, not at the rollover.
        assert!(build(policy())
            .schedule_reprogram(1_000, vec![1.0 / (n - 1) as f64; n - 1])
            .is_err());
        // The QOS-free fabric has no frames to anchor a change to.
        assert!(build(ChipPolicy::NoQos)
            .schedule_reprogram(1_000, skewed)
            .is_err());
    }

    #[test]
    fn mismatched_generator_count_is_rejected() {
        let sim = ChipSim::paper_default();
        assert!(sim.build(sim.default_policy(), Vec::new()).is_err());
    }

    #[test]
    fn topology_dram_scales_with_the_requesters_per_controller() {
        // Paper 8x8, one column: 7 requesters per controller — the paper
        // defaults (8 banks, 16-deep queue) already fit and are unchanged.
        let sim = ChipSim::paper_default();
        let dram = sim.topology_dram(DramConfig::paper());
        assert_eq!(dram.banks, 8);
        assert_eq!(dram.queue_depth, 16);
        // 16x16 with one column: 15 requesters per controller — banks grow
        // to the next power of two and the queue holds two per requester.
        let sim = ChipSim::multi_column(16, 16, 1);
        let dram = sim.topology_dram(DramConfig::paper());
        assert_eq!(dram.banks, 16);
        assert_eq!(dram.queue_depth, 30);
        // More columns mean fewer requesters per controller.
        let sim = ChipSim::multi_column(16, 16, 4);
        let dram = sim.topology_dram(DramConfig::paper());
        assert_eq!(dram.banks, 8);
        assert_eq!(dram.queue_depth, 16);
    }

    #[test]
    fn dark_controllers_fail_over_to_a_sibling_column() {
        use taqos_netsim::fault::{FaultEvent, FaultKind};
        let sim = ChipSim::multi_column(8, 8, 2);
        assert_eq!(sim.controller_nodes().len(), 16);
        let from = Coord::new(0, 3);
        let dark = sim.memory_controller_for(from);
        // Without a fault plan the preferred controller is used.
        assert_eq!(sim.live_memory_controller_for(from), Some(dark));
        let faulty = sim.clone().with_fault_plan(
            FaultPlan::new(3)
                .with_event(FaultEvent::permanent(0, FaultKind::McOutage { node: dark })),
        );
        let failover = faulty
            .live_memory_controller_for(from)
            .expect("a sibling controller survives");
        assert_ne!(failover, dark);
        assert!(faulty.controller_nodes().contains(&failover));
        // The failover lands on the sibling column of the same row.
        assert_eq!(faulty.coord(failover).y, from.y);
        // The fault-aware plan routes the requester at the failover target.
        let plan = faulty.nearest_mc_mlp_plan(2);
        assert_eq!(
            plan[faulty.node_id(from).index()],
            Some((2, failover)),
            "requester must be reassigned away from the dark controller"
        );
        // A plan darkening every controller idles the requesters instead of
        // aiming them at dead hardware.
        let mut all_dark = FaultPlan::new(4);
        for node in sim.controller_nodes() {
            all_dark = all_dark.with_event(FaultEvent::permanent(0, FaultKind::McOutage { node }));
        }
        let dead_chip = sim.clone().with_fault_plan(all_dark);
        assert_eq!(dead_chip.live_memory_controller_for(from), None);
        assert!(dead_chip.nearest_mc_mlp_plan(2).iter().all(|e| e.is_none()));
    }

    #[test]
    fn faulted_chip_still_completes_round_trips() {
        use taqos_netsim::fault::{FaultEvent, FaultKind};
        let base = small_chip();
        // Permanently kill one mesh link plus a transient corruption burst;
        // routes detour and NACKed packets retransmit.
        let plan = FaultPlan::new(11)
            .with_event(FaultEvent::permanent(
                0,
                FaultKind::LinkDown {
                    router: 0,
                    out_port: 0,
                },
            ))
            .with_event(FaultEvent::transient(
                600,
                900,
                FaultKind::CorruptFlits {
                    probability_ppm: 200_000,
                },
            ));
        let sim = base.with_fault_plan(plan);
        let stats = run_loop(&sim, sim.default_policy(), &sim.nearest_mc_mlp_plan(2));
        assert!(
            stats.round_trips > 0,
            "faulted chip must still make progress"
        );
        assert!(
            stats.fault.total_drops() > 0,
            "the corruption burst must observably drop packets"
        );
    }

    #[test]
    fn dram_backed_closed_loop_runs_and_reports_controller_stats() {
        let sim = small_chip();
        let dram = sim.topology_dram(DramConfig::paper());
        let sim = sim.with_dram(dram);
        assert_eq!(sim.dram(), Some(&dram));
        let plan = sim.nearest_mc_mlp_plan(4);
        let stats = run_loop(&sim, sim.default_policy(), &plan);
        assert!(stats.round_trips > 0, "no round trips completed");
        assert!(stats.dram.serviced_requests > 0, "no DRAM services");
        assert!(
            stats.dram.row_hits + stats.dram.row_misses == stats.dram.serviced_requests,
            "every service is classified hit or miss"
        );
        // The same workload without DRAM completes round trips faster.
        let instant = small_chip();
        let instant_stats = run_loop(&instant, instant.default_policy(), &plan);
        assert_eq!(instant_stats.dram, Default::default());
        assert!(
            stats.avg_round_trip().expect("completes")
                > instant_stats.avg_round_trip().expect("completes"),
            "DRAM service time must lengthen the round trip"
        );
    }
}
