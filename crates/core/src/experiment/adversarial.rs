//! Adversarial workload battery: one named attack per arbitration point.
//!
//! The paper's isolation claim is only as strong as the nastiest tenant the
//! fabric survives. This module grows the `denial_of_service` example into a
//! systematic battery: for **each arbitration point of the memory path** a
//! named attack drives the point to saturation from a hostile tenant while a
//! modest victim shares it, and the experiment reports the victim's measured
//! 99th-percentile latency with and without QOS — the PVC number *is* the
//! isolation bound the architecture holds the attack to.
//!
//! | Attack | Arbitration point | Mechanism |
//! |---|---|---|
//! | `row-flood` | fabric VA/SA ([`ArbitrationPoint::FabricSwitch`]) | open-loop flit flood from the victim's own row merging at the column-entry switch |
//! | `incast-mob` | column PVC ([`ArbitrationPoint::ColumnPvc`]) | every node of the chip incasts into the victim's controller with a deep MLP window |
//! | `queue-storm` | DRAM admission ([`ArbitrationPoint::DramAdmission`]) | deep-window hogs overflow the controller's bounded request queue into a NACK storm |
//! | `open-row-squatter` | banks / FR-FCFS ([`ArbitrationPoint::DramBanks`]) | a streaming hog keeps its DRAM rows open so row-hit-first scheduling starves the victim |
//!
//! Beyond the battery, two heterogeneity experiments exercise the
//! hypervisor-programmed side of the architecture:
//!
//! * [`weighted_vm_experiment`] — VMs with different service weights incast
//!   into one controller; delivered memory service must track the programmed
//!   weights;
//! * [`migration_experiment`] — a VM is live-migrated between domains while
//!   a hog floods its old neighbourhood: rates are reprogrammed and the MLP
//!   windows phased over at the same instant, and the victim's p99 bound and
//!   the flit/request conservation laws must hold *through* the transition.

use crate::chip::{Hypervisor, TopologyAwareChip, VmSpec};
use crate::chip_sim::{ChipPolicy, ChipSim};
use crate::experiment::{domain_outcome, histograms_on, share_error};
use serde::{Deserialize, Serialize};
use taqos_netsim::closed_loop::{DramBackpressure, DramConfig, DramScheduler};
use taqos_netsim::sim::{run_open_loop, OpenLoopConfig};
use taqos_netsim::stats::NetStats;
use taqos_netsim::{Cycle, FlowId, Hist64};
use taqos_topology::grid::Coord;
use taqos_traffic::injection::PacketSizeMix;
use taqos_traffic::workloads::{self, MlpPlan, NodePlan};

/// The four arbitration points of the memory path an adversary can contend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArbitrationPoint {
    /// Virtual-channel and switch allocation at the fabric routers where row
    /// traffic merges into the shared column.
    FabricSwitch,
    /// The column's Preemptive Virtual Clock arbitration itself.
    ColumnPvc,
    /// Admission into the memory controller's bounded request queue.
    DramAdmission,
    /// Bank scheduling (FR-FCFS row-hit preference) inside the controller.
    DramBanks,
}

impl ArbitrationPoint {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ArbitrationPoint::FabricSwitch => "fabric VA/SA",
            ArbitrationPoint::ColumnPvc => "column PVC",
            ArbitrationPoint::DramAdmission => "DRAM admission",
            ArbitrationPoint::DramBanks => "DRAM banks (FR-FCFS)",
        }
    }
}

/// Shared scale knobs of the attack battery.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Chip width (nodes).
    pub width: u16,
    /// Chip height (nodes).
    pub height: u16,
    /// Shared columns.
    pub columns: usize,
    /// Run phases: warm-up, measurement window, drain.
    pub open_loop: OpenLoopConfig,
    /// Random seed for the open-loop generators.
    pub seed: u64,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            width: 8,
            height: 8,
            columns: 1,
            open_loop: OpenLoopConfig {
                warmup: 5_000,
                measure: 30_000,
                drain: 5_000,
            },
            seed: 0xBAD,
        }
    }
}

impl AttackConfig {
    /// A shorter configuration for tests and smoke runs.
    pub fn quick() -> Self {
        AttackConfig {
            open_loop: OpenLoopConfig {
                warmup: 1_000,
                measure: 6_000,
                drain: 1_000,
            },
            ..Self::default()
        }
    }

    fn sim(&self) -> ChipSim {
        ChipSim::multi_column(self.width, self.height, self.columns)
            .with_sim_config(histograms_on())
    }
}

/// Outcome of one named attack: the victim's tail latency with the
/// arbitration point unprotected and under PVC.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackReport {
    /// Name of the attack.
    pub attack: String,
    /// Arbitration point the attack contends.
    pub point: ArbitrationPoint,
    /// Victim p99 latency (cycles) on the unprotected fabric. Packet latency
    /// for the open-loop attack, round-trip latency for the closed-loop ones.
    pub victim_p99_unprotected: u64,
    /// Victim p99 latency (cycles) under PVC — the measured isolation bound.
    pub(crate) victim_p99_pvc: u64,
    /// Victim service on the unprotected fabric (measured flits for the
    /// open-loop attack, measured round trips otherwise).
    pub victim_service_unprotected: u64,
    /// Victim service under PVC.
    pub victim_service_pvc: u64,
}

impl AttackReport {
    /// The measured p99 bound PVC holds the attack to, in cycles.
    pub fn bound(&self) -> u64 {
        self.victim_p99_pvc
    }

    /// Whether PVC held the victim's tail at or below the unprotected tail.
    pub fn holds(&self) -> bool {
        self.victim_p99_pvc <= self.victim_p99_unprotected && self.victim_p99_pvc > 0
    }
}

fn merged_latency_p99(stats: &NetStats, flows: &[FlowId]) -> u64 {
    let mut hist = Hist64::default();
    for flow in flows {
        hist.merge(&stats.flows[flow.index()].latency_hist);
    }
    hist.p99().unwrap_or(0)
}

/// The closed-loop attack report: the victim's p99 round trip and measured
/// round trips on the unprotected fabric and under PVC.
fn round_trip_report(
    attack: &str,
    point: ArbitrationPoint,
    victim: FlowId,
    config: &AttackConfig,
    unprotected: &NetStats,
    pvc: &NetStats,
) -> AttackReport {
    let outcome = |stats| domain_outcome(stats, &[victim], config.open_loop.measure);
    let (unprotected, pvc) = (outcome(unprotected), outcome(pvc));
    AttackReport {
        attack: attack.to_string(),
        point,
        victim_p99_unprotected: unprotected.p99_round_trip.unwrap_or(0),
        victim_p99_pvc: pvc.p99_round_trip.unwrap_or(0),
        victim_service_unprotected: unprotected.round_trips,
        victim_service_pvc: pvc.round_trips,
    }
}

/// Builds `plan`'s closed loop on `sim` and runs it for the attack's phases.
fn run_attack(
    sim: &ChipSim,
    policy: ChipPolicy,
    plan: &MlpPlan,
    config: &AttackConfig,
) -> NetStats {
    let network = sim
        .build_closed_loop(policy, workloads::mlp_closed_loop(plan))
        .expect("attack builds");
    run_open_loop(network, config.open_loop)
}

/// `row-flood`: the victim's row-mates flood their shared controller with
/// open-loop traffic, contending virtual-channel and switch allocation where
/// the row's express channels merge into the column. The victim asks for a
/// modest 3% of link bandwidth from the far end of the same row.
pub(crate) fn row_flood(config: &AttackConfig) -> AttackReport {
    let sim = config.sim();
    let row = config.height / 2;
    let victim = Coord::new(0, row);
    let victim_flow = FlowId(sim.node_id(victim).0);
    let mut plan: NodePlan = vec![None; sim.config().num_nodes()];
    for x in 0..config.width {
        let c = Coord::new(x, row);
        if sim.chip().is_shared(c) {
            continue;
        }
        let rate = if c == victim { 0.03 } else { 0.35 };
        plan[sim.node_id(c).index()] = Some((rate, sim.memory_controller_for(c)));
    }
    let run = |policy: ChipPolicy| {
        let generators = workloads::per_node_fixed(&plan, PacketSizeMix::paper(), config.seed);
        let network = sim.build(policy, generators).expect("row-flood builds");
        run_open_loop(network, config.open_loop)
    };
    let unprotected = run(ChipPolicy::NoQos);
    let pvc = run(sim.default_policy());
    AttackReport {
        attack: "row-flood".to_string(),
        point: ArbitrationPoint::FabricSwitch,
        victim_p99_unprotected: merged_latency_p99(&unprotected, &[victim_flow]),
        victim_p99_pvc: merged_latency_p99(&pvc, &[victim_flow]),
        victim_service_unprotected: unprotected.measured_flits_per_flow()[victim_flow.index()],
        victim_service_pvc: pvc.measured_flits_per_flow()[victim_flow.index()],
    }
}

/// `incast-mob`: every node of the chip incasts into the victim's memory
/// controller with a deep MLP window (controllers answer instantly, so the
/// column's PVC arbitration is the contended resource). The victim keeps a
/// single outstanding request.
pub(crate) fn incast_mob(config: &AttackConfig) -> AttackReport {
    let sim = config.sim();
    let row = config.height / 2;
    let victim = Coord::new(0, row);
    let victim_flow = FlowId(sim.node_id(victim).0);
    let (plan, _) = sim.incast_plan(victim);
    let unprotected = run_attack(&sim, ChipPolicy::NoQos, &plan, config);
    let pvc = run_attack(&sim, sim.default_policy(), &plan, config);
    let point = ArbitrationPoint::ColumnPvc;
    round_trip_report("incast-mob", point, victim_flow, config, &unprotected, &pvc)
}

/// `queue-storm`: the same incast mob against a DRAM-backed controller with
/// a shallow bounded queue. Unprotected, overflow bounces the newest arrival
/// — the victim's rare requests are NACKed into fabric retries by the storm.
/// Under QOS, priority admission evicts the hogs' over-budget requests
/// instead, and the fabric-side PVC throttles the storm before the queue.
pub(crate) fn queue_storm(config: &AttackConfig) -> AttackReport {
    let base = config.sim();
    let row = config.height / 2;
    let victim = Coord::new(0, row);
    let victim_flow = FlowId(base.node_id(victim).0);
    let (plan, _) = base.incast_plan(victim);
    // A shallow queue in front of slow banks keeps admission — not bank
    // throughput or the fabric — the binding constraint. Single-line rows
    // (a fully line-interleaved map) spread every window across all banks
    // with no locality to harvest; under the row-major default map the
    // mob's windows stream row-locally and the queue drains too fast at the
    // hit latency to storm.
    let dram = DramConfig::paper()
        .with_queue_depth(3)
        .with_latencies(30, 90)
        .with_lines_per_row(1)
        .with_backpressure(DramBackpressure::Nack);
    let unprotected_sim = base
        .clone()
        .with_dram(dram.with_scheduler(DramScheduler::Fcfs));
    let protected_sim = base.with_dram(dram.with_scheduler(DramScheduler::PriorityAdmission));
    let unprotected = run_attack(&unprotected_sim, ChipPolicy::NoQos, &plan, config);
    let pvc = run_attack(
        &protected_sim,
        protected_sim.default_policy(),
        &plan,
        config,
    );
    let point = ArbitrationPoint::DramAdmission;
    round_trip_report(
        "queue-storm",
        point,
        victim_flow,
        config,
        &unprotected,
        &pvc,
    )
}

/// `open-row-squatter`: a streaming hog next to the controller keeps its
/// DRAM rows open with a deep window; under first-ready scheduling with no
/// effective age cap, row hits always win and the victim's row misses starve.
/// The protected run keeps the paper's priority-weighted age cap (and PVC on
/// the fabric), bounding how long row locality may defer the victim.
pub(crate) fn open_row_squatter(config: &AttackConfig) -> AttackReport {
    let base = config.sim();
    let row = config.height / 2;
    let victim = Coord::new(0, row);
    let victim_flow = FlowId(base.node_id(victim).0);
    let mc = Coord::new(base.coord(base.memory_controller_for(victim)).x, row);
    // Only the hog (adjacent to the controller) and the victim are active,
    // so the banks — not the fabric — are the contended resource.
    let hog = Coord::new(mc.x - 1, row);
    let mc_node = base.node_id(mc);
    let mut plan: MlpPlan = vec![None; base.config().num_nodes()];
    plan[base.node_id(hog).index()] = Some((16, mc_node));
    plan[base.node_id(victim).index()] = Some((1, mc_node));
    // Two banks sharpen the row-buffer conflict between the two tenants.
    let dram = DramConfig::paper()
        .with_banks(2)
        .with_scheduler(DramScheduler::FrFcfs);
    let unprotected_sim = base.clone().with_dram(dram.with_age_cap(1_000_000));
    let protected_sim = base.with_dram(dram);
    let unprotected = run_attack(&unprotected_sim, ChipPolicy::NoQos, &plan, config);
    let pvc = run_attack(
        &protected_sim,
        protected_sim.default_policy(),
        &plan,
        config,
    );
    let point = ArbitrationPoint::DramBanks;
    round_trip_report(
        "open-row-squatter",
        point,
        victim_flow,
        config,
        &unprotected,
        &pvc,
    )
}

/// Runs the full battery: one named attack per arbitration point.
pub fn attack_battery(config: &AttackConfig) -> Vec<AttackReport> {
    super::parallel_map(
        vec![
            ArbitrationPoint::FabricSwitch,
            ArbitrationPoint::ColumnPvc,
            ArbitrationPoint::DramAdmission,
            ArbitrationPoint::DramBanks,
        ],
        |point| match point {
            ArbitrationPoint::FabricSwitch => row_flood(config),
            ArbitrationPoint::ColumnPvc => incast_mob(config),
            ArbitrationPoint::DramAdmission => queue_storm(config),
            ArbitrationPoint::DramBanks => open_row_squatter(config),
        },
    )
}

/// Configuration of the weighted-VM experiment.
#[derive(Debug, Clone)]
pub struct WeightedVmConfig {
    /// Service weight of each VM (16 threads, i.e. four nodes, per VM).
    pub(crate) vm_weights: Vec<u32>,
    /// Outstanding-miss window per VM node (deep enough to saturate the
    /// shared controller, so the weights are the binding constraint).
    pub(crate) mlp: usize,
    /// Run phases: warm-up, measurement window, drain.
    pub(crate) open_loop: OpenLoopConfig,
}

impl Default for WeightedVmConfig {
    fn default() -> Self {
        WeightedVmConfig {
            vm_weights: vec![8, 4, 1],
            mlp: 8,
            open_loop: OpenLoopConfig {
                warmup: 5_000,
                measure: 30_000,
                drain: 5_000,
            },
        }
    }
}

impl WeightedVmConfig {
    /// A shorter configuration for tests and smoke runs.
    pub fn quick() -> Self {
        WeightedVmConfig {
            open_loop: OpenLoopConfig {
                warmup: 1_000,
                measure: 8_000,
                drain: 1_000,
            },
            ..Self::default()
        }
    }
}

/// Result of the weighted-VM experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeightedVmResult {
    /// Programmed VM weights.
    pub vm_weights: Vec<u32>,
    /// Round trips completed per VM during the measurement window.
    pub round_trips_per_vm: Vec<u64>,
    /// Expected service share per VM from the programmed rate allocation.
    pub programmed_shares: Vec<f64>,
    /// Delivered service share per VM.
    pub delivered_shares: Vec<f64>,
    /// Worst relative error between delivered and programmed shares.
    pub worst_share_error: f64,
}

/// Weighted-VM memory service: the hypervisor launches one VM per weight,
/// programs per-node rates from the placements, and every VM node incasts
/// into one shared controller with a saturating window. Delivered round
/// trips per VM must track the programmed weights.
pub fn weighted_vm_experiment(config: &WeightedVmConfig) -> WeightedVmResult {
    let mut hv = Hypervisor::new(TopologyAwareChip::paper_default());
    let domains: Vec<_> = config
        .vm_weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            hv.launch_vm(&VmSpec::new(format!("vm{i}"), 16, w))
                .expect("paper chip fits the VMs")
        })
        .collect();
    let rates = hv.program_node_rates();
    let sim = ChipSim::new(hv.chip().clone());
    // Single-line rows (a fully line-interleaved map) deny the windows any
    // row locality, keeping the shared controller — not the fabric — the
    // binding constraint the programmed weights are enforced at; under the
    // row-major default map the streams hit their open rows and the
    // controller drains faster than the incast can fill it.
    let dram = sim.topology_dram(
        DramConfig::paper()
            .with_scheduler(DramScheduler::FrFcfs)
            .with_lines_per_row(1),
    );
    let sim = sim.with_dram(dram);
    let mc = Coord::new(
        sim.coord(sim.memory_controller_for(Coord::new(0, 0))).x,
        sim.chip().grid().height / 2,
    );
    let demands: Vec<_> = domains.iter().map(|&d| (d, config.mlp)).collect();
    let plan = sim
        .memory_mlp_plan(&demands, mc)
        .expect("controller is a shared-column terminal");
    let network = sim
        .build_closed_loop(
            sim.weighted_policy(rates.clone()),
            workloads::mlp_closed_loop(&plan),
        )
        .expect("weighted-VM experiment builds");
    let stats = run_open_loop(network, config.open_loop);
    let vm_flows: Vec<Vec<FlowId>> = domains
        .iter()
        .map(|&d| sim.domain_flows(d).expect("domain exists"))
        .collect();
    let round_trips_per_vm: Vec<u64> = vm_flows
        .iter()
        .map(|flows| domain_outcome(&stats, flows, config.open_loop.measure).round_trips)
        .collect();
    let programmed_weight_per_vm: Vec<f64> = vm_flows
        .iter()
        .map(|flows| flows.iter().map(|f| rates.rate(*f)).sum())
        .collect();
    let programmed_total: f64 = programmed_weight_per_vm.iter().sum();
    let programmed_shares: Vec<f64> = programmed_weight_per_vm
        .iter()
        .map(|w| w / programmed_total)
        .collect();
    let (delivered_shares, worst_share_error) =
        share_error(&round_trips_per_vm, &programmed_shares);
    WeightedVmResult {
        vm_weights: config.vm_weights.clone(),
        round_trips_per_vm,
        programmed_shares,
        delivered_shares,
        worst_share_error,
    }
}

/// Configuration of the live-migration experiment.
#[derive(Debug, Clone)]
pub struct MigrationConfig {
    /// Cycle at which the hypervisor migrates the victim VM and reprograms
    /// the rates (the MLP windows phase over at the same instant).
    pub(crate) switch_at: Cycle,
    /// Victim MLP window per node.
    pub(crate) mlp: usize,
    /// Hog MLP window per node.
    pub(crate) hog_mlp: usize,
    /// Run phases: warm-up, measurement window (straddles `switch_at`),
    /// drain.
    pub(crate) open_loop: OpenLoopConfig,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            switch_at: 20_000,
            mlp: 2,
            hog_mlp: 12,
            open_loop: OpenLoopConfig {
                warmup: 5_000,
                measure: 30_000,
                drain: 5_000,
            },
        }
    }
}

impl MigrationConfig {
    /// A shorter configuration for tests and smoke runs.
    pub fn quick() -> Self {
        MigrationConfig {
            switch_at: 4_000,
            open_loop: OpenLoopConfig {
                warmup: 1_000,
                measure: 6_000,
                drain: 1_000,
            },
            ..Self::default()
        }
    }
}

/// Result of the live-migration experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MigrationResult {
    /// Round trips completed by the victim's old-site nodes (whole run).
    pub old_site_round_trips: u64,
    /// Round trips completed by the victim's new-site nodes (whole run).
    pub new_site_round_trips: u64,
    /// Requests still in flight at the victim's old site when the run ended
    /// — zero means the site fully drained after the hand-over.
    pub old_site_in_flight: u64,
    /// Victim p99 round-trip latency (cycles) merged across both sites — the
    /// isolation bound through the transition.
    pub victim_p99: u64,
    /// Whether `issued == round_trips + abandoned + in_flight` held for
    /// every flow of the run.
    pub conserved: bool,
}

/// Live migration under attack: a hog VM floods the controllers of the
/// victim VM's rows; mid-run the hypervisor migrates the victim to a quiet
/// region and reprograms the rates. The victim's MLP windows phase off at
/// the old site and on at the new one at the same instant, in-flight
/// requests drain normally, and the victim's p99 bound is measured across
/// the transition.
pub fn migration_experiment(config: &MigrationConfig) -> MigrationResult {
    let mut hv = Hypervisor::new(TopologyAwareChip::paper_default());
    let victim_vm = hv
        .launch_vm(&VmSpec::new("victim", 16, 4))
        .expect("paper chip fits the victim");
    let hog_vm = hv
        .launch_vm(&VmSpec::new("hog", 16, 1))
        .expect("paper chip fits the hog");
    let old_nodes: Vec<Coord> = hv
        .chip()
        .domain(victim_vm)
        .expect("victim domain exists")
        .nodes
        .iter()
        .copied()
        .collect();
    let hog_nodes: Vec<Coord> = hv
        .chip()
        .domain(hog_vm)
        .expect("hog domain exists")
        .nodes
        .iter()
        .copied()
        .collect();
    let rates_before = hv.program_node_rates();
    // The far corner of the die: different rows, hence different controllers
    // than the hog's.
    let new_vm = hv
        .migrate_vm(victim_vm, Coord::new(5, 5))
        .expect("target region is free");
    let new_nodes: Vec<Coord> = hv
        .chip()
        .domain(new_vm)
        .expect("migrated domain exists")
        .nodes
        .iter()
        .copied()
        .collect();
    let rates_after = hv.program_node_rates();

    let sim = ChipSim::new(hv.chip().clone()).with_sim_config(histograms_on());
    let mut plan = sim.mlp_plan_for(&old_nodes, config.mlp);
    for (slot, extra) in plan
        .iter_mut()
        .zip(sim.mlp_plan_for(&new_nodes, config.mlp))
    {
        if extra.is_some() {
            *slot = extra;
        }
    }
    for (slot, extra) in plan
        .iter_mut()
        .zip(sim.mlp_plan_for(&hog_nodes, config.hog_mlp))
    {
        if extra.is_some() {
            *slot = extra;
        }
    }
    let phases = sim.migration_phases(&old_nodes, &new_nodes, config.switch_at, config.mlp);
    let spec = workloads::mlp_closed_loop(&plan).with_phases(phases);
    let mut network = sim
        .build_closed_loop(sim.weighted_policy(rates_before), spec)
        .expect("migration run builds");
    network
        .schedule_reprogram(config.switch_at, rates_after.rates().to_vec())
        .expect("programmed rates are valid");
    let stats = run_open_loop(network, config.open_loop);

    let flows_of = |nodes: &[Coord]| -> Vec<FlowId> {
        nodes.iter().map(|&c| FlowId(sim.node_id(c).0)).collect()
    };
    let old_flows = flows_of(&old_nodes);
    let new_flows = flows_of(&new_nodes);
    let victim_flows: Vec<FlowId> = old_flows.iter().chain(new_flows.iter()).copied().collect();
    let sum = |flows: &[FlowId], f: fn(&taqos_netsim::stats::FlowStats) -> u64| -> u64 {
        flows.iter().map(|fl| f(&stats.flows[fl.index()])).sum()
    };
    MigrationResult {
        old_site_round_trips: sum(&old_flows, |f| f.round_trips),
        new_site_round_trips: sum(&new_flows, |f| f.round_trips),
        old_site_in_flight: sum(&old_flows, |f| f.requests_in_flight),
        victim_p99: domain_outcome(&stats, &victim_flows, config.open_loop.measure)
            .p99_round_trip
            .unwrap_or(0),
        conserved: stats.flows.iter().all(|f| {
            f.issued_requests == f.round_trips + f.abandoned_requests + f.requests_in_flight
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_attack_is_held_to_a_p99_bound_by_pvc() {
        let config = AttackConfig::quick();
        let reports = attack_battery(&config);
        assert_eq!(reports.len(), 4);
        let points: Vec<ArbitrationPoint> = reports.iter().map(|r| r.point).collect();
        assert!(points.contains(&ArbitrationPoint::FabricSwitch));
        assert!(points.contains(&ArbitrationPoint::ColumnPvc));
        assert!(points.contains(&ArbitrationPoint::DramAdmission));
        assert!(points.contains(&ArbitrationPoint::DramBanks));
        for report in &reports {
            assert!(
                report.holds(),
                "{} ({}): p99 {} unprotected vs {} under PVC",
                report.attack,
                report.point.label(),
                report.victim_p99_unprotected,
                report.victim_p99_pvc,
            );
            assert!(
                report.bound() > 0,
                "{}: empty victim histogram",
                report.attack
            );
            assert!(
                report.victim_service_pvc > 0,
                "{}: victim starved even under PVC",
                report.attack
            );
        }
    }

    #[test]
    fn weighted_vms_receive_service_proportional_to_their_weights() {
        let result = weighted_vm_experiment(&WeightedVmConfig::quick());
        assert_eq!(result.round_trips_per_vm.len(), 3);
        assert!(result.round_trips_per_vm.iter().all(|&rt| rt > 0));
        // The heavy VM (weight 8) clearly out-receives the light one
        // (weight 1), and the shares track the programme.
        assert!(
            result.round_trips_per_vm[0] > result.round_trips_per_vm[2],
            "heavy {} vs light {}",
            result.round_trips_per_vm[0],
            result.round_trips_per_vm[2]
        );
        assert!(
            result.worst_share_error < 0.35,
            "worst share error {:.2}",
            result.worst_share_error
        );
        let sum: f64 = result.delivered_shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn migration_under_attack_conserves_and_bounds_the_victim() {
        let result = migration_experiment(&MigrationConfig::quick());
        assert!(
            result.conserved,
            "request conservation violated: {result:?}"
        );
        assert!(
            result.old_site_round_trips > 0,
            "victim must run at the old site before the switch"
        );
        assert!(
            result.new_site_round_trips > 0,
            "victim must run at the new site after the switch"
        );
        assert_eq!(
            result.old_site_in_flight, 0,
            "the old site must drain its in-flight requests"
        );
        assert!(result.victim_p99 > 0, "victim histogram must not be empty");
    }
}
