//! The five engine workloads, built through public APIs only.
//!
//! Each replicates one `bench_netsim` case (rate 0.08, the paper's packet
//! mix, MLP 4, `DramConfig::paper()` scaled by `topology_dram`,
//! `chip_fault_bench_plan`, `RetryPolicy::new(2_000, 4)`, incast MLP 6 /
//! period 1000 / on 400 / victim (0,4) at MLP 1), with every seed the case
//! has taken from `--seed`. At seed 1 a build is the committed
//! `bench_netsim` configuration exactly; the builder-parity check holds the
//! harness to that.
//!
//! A build is split into the steps the layers own — `core` facade object,
//! `traffic`, `qos` policy, then assembly — so the traced run can time each
//! step alone. [`Recipe::assemble`] goes through the facade a user
//! calls; [`Recipe::assemble_by_layer`] makes the same network from
//! the layer functions the facade wraps, and the traced run checks that the
//! two simulate identically.

use crate::spans::Spans;
use std::collections::BTreeSet;
use taqos_core::chip_sim::{ChipPolicy, ChipSim};
use taqos_core::experiment::chip_scale::chip_fault_bench_plan;
use taqos_netsim::closed_loop::{ClosedLoopSpec, DramConfig, DramScheduler, RetryPolicy};
use taqos_netsim::config::EngineKind;
use taqos_netsim::network::Network;
use taqos_netsim::qos::QosPolicy;
use taqos_netsim::{FlowId, SimConfig, TelemetryConfig};
use taqos_qos::pvc::PvcPolicy;
use taqos_qos::scoped::ScopedQosPolicy;
use taqos_topology::grid::Coord;
use taqos_topology::mesh2d::Mesh2dConfig;
use taqos_topology::reroute::reroute_around_faults;
use taqos_traffic::injection::PacketSizeMix;
use taqos_traffic::workloads::{self, GeneratorSet};

/// Open-loop injection rate in flits/cycle/injector (below saturation).
const RATE: f64 = 0.08;
/// MLP window of every closed-loop requester.
const MLP: usize = 4;
/// MLP window of each incast attacker; the victim keeps MLP 1.
const INCAST_ATTACKER_MLP: usize = 6;
/// Incast attackers burst `INCAST_BURST_ON` of every `INCAST_BURST_PERIOD` cycles.
const INCAST_BURST_PERIOD: u64 = 1_000;
const INCAST_BURST_ON: u64 = 400;
/// The seed `BENCH_netsim.json` was generated with.
pub const PARITY_SEED: u64 = 1;

/// One engine workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineWorkload {
    /// 8x8 mesh, open-loop uniform random, PVC at all 64 routers.
    MeshOpen8x8,
    /// Hybrid chip, closed loop, DRAM-backed FR-FCFS controllers.
    ChipDramFrfcfs8x8,
    /// 256-router, 4-column chip, closed loop.
    Chip16x16Cols4,
    /// All-to-one bursty incast with phased on/off attackers.
    ChipIncast8x8,
    /// Closed loop on a failing fabric with deadline/retry recovery.
    ChipFault8x8,
}

/// Most slices one run may time. The timed run is bounded by wall time; this
/// only caps it, and with it the horizon the incast schedule is built to.
pub const MAX_SLICES: u64 = 1_000;

/// Cycle budgets of a workload. Everything that must repeat exactly is
/// counted over the fixed `prefix`, not over the wall-time-bounded slices.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Cycles run before timing starts (caches, queues and frames fill).
    pub warmup: u64,
    /// Cycles per timed slice (~25 ms on the reference box: short enough
    /// that a burst of interference spoils single slices, not the run).
    pub slice: u64,
    /// Cycles of the checked prefix: engine equivalence, determinism and
    /// every exact count are taken over exactly this many cycles.
    pub prefix: u64,
    /// Row of `BENCH_netsim.json` this workload replicates; the parity check
    /// reruns it at the cycle count committed there.
    pub parity_row: &'static str,
}

/// Traffic of a build: generators (open loop) or a closed-loop programme.
pub enum Traffic {
    /// One generator per source.
    Open(GeneratorSet),
    /// MLP-limited requesters; the terminals' generators idle.
    Closed(ClosedLoopSpec),
}

/// QOS policy of a build.
pub enum Policy {
    /// PVC at every router of the plain mesh.
    Everywhere(PvcPolicy),
    /// The chip's scoped overlay.
    Chip(ChipPolicy),
}

impl EngineWorkload {
    /// Every engine workload, in benchmark order.
    pub const ALL: [EngineWorkload; 5] = [
        EngineWorkload::MeshOpen8x8,
        EngineWorkload::ChipDramFrfcfs8x8,
        EngineWorkload::Chip16x16Cols4,
        EngineWorkload::ChipIncast8x8,
        EngineWorkload::ChipFault8x8,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            EngineWorkload::MeshOpen8x8 => "mesh_open_8x8",
            EngineWorkload::ChipDramFrfcfs8x8 => "chip_dram_frfcfs_8x8",
            EngineWorkload::Chip16x16Cols4 => "chip_16x16_cols4",
            EngineWorkload::ChipIncast8x8 => "chip_incast_8x8",
            EngineWorkload::ChipFault8x8 => "chip_fault_8x8",
        }
    }

    /// Cycle budgets; `smoke` divides them by 20.
    pub fn budget(self, smoke: bool) -> Budget {
        let (warmup, slice, prefix, parity_row) = match self {
            EngineWorkload::MeshOpen8x8 => (20_000, 4_000, 50_000, "mesh_8x8"),
            EngineWorkload::ChipDramFrfcfs8x8 => (20_000, 6_000, 50_000, "chip_dram_frfcfs_8x8"),
            EngineWorkload::Chip16x16Cols4 => (5_000, 800, 12_500, "chip_16x16_cols4"),
            EngineWorkload::ChipIncast8x8 => (20_000, 10_000, 50_000, "chip_incast_8x8"),
            EngineWorkload::ChipFault8x8 => (20_000, 4_000, 50_000, "chip_fault_8x8"),
        };
        let div = if smoke { 20 } else { 1 };
        Budget {
            warmup: warmup / div,
            slice: slice / div,
            prefix: prefix / div,
            parity_row,
        }
    }

    /// Whether the workload runs MLP-limited requesters (closed loop) rather
    /// than scheduled injection (open loop).
    pub fn is_closed_loop(self) -> bool {
        self != EngineWorkload::MeshOpen8x8
    }
}

/// Everything one build of a workload depends on.
#[derive(Debug, Clone, Copy)]
pub struct Recipe {
    /// The workload to build.
    pub workload: EngineWorkload,
    /// Seed of every generator, phase offset, fault draw and retry jitter.
    pub seed: u64,
    /// Last cycle the caller may run to: the incast attackers' phase
    /// schedules are materialised up to exactly there.
    pub horizon: u64,
    /// Engine under test (`Reference` only as the oracle).
    pub engine: EngineKind,
    /// Telemetry of the run; off on every timed run.
    pub telemetry: TelemetryConfig,
}

impl Recipe {
    fn sim_config(&self) -> SimConfig {
        SimConfig::default()
            .with_engine(self.engine)
            .with_telemetry(self.telemetry)
    }

    /// The `core` facade object of the chip workloads (`None` on the plain
    /// mesh, which has no facade), with DRAM model and fault plan installed.
    pub fn facade(&self) -> Option<ChipSim> {
        let sim_config = self.sim_config();
        match self.workload {
            EngineWorkload::MeshOpen8x8 => None,
            EngineWorkload::ChipDramFrfcfs8x8 => {
                let sim = ChipSim::paper_default().with_sim_config(sim_config);
                let dram = sim
                    .topology_dram(DramConfig::paper())
                    .with_scheduler(DramScheduler::FrFcfs);
                Some(sim.with_dram(dram))
            }
            EngineWorkload::Chip16x16Cols4 => {
                Some(ChipSim::multi_column(16, 16, 4).with_sim_config(sim_config))
            }
            EngineWorkload::ChipIncast8x8 => {
                Some(ChipSim::paper_default().with_sim_config(sim_config))
            }
            EngineWorkload::ChipFault8x8 => {
                let sim = ChipSim::paper_default().with_sim_config(sim_config);
                let plan = chip_fault_bench_plan(&sim, self.seed);
                Some(sim.with_fault_plan(plan))
            }
        }
    }

    /// The workload's traffic.
    pub fn traffic(&self, sim: Option<&ChipSim>) -> Traffic {
        let chip = || sim.expect("chip workloads carry a facade");
        match self.workload {
            EngineWorkload::MeshOpen8x8 => Traffic::Open(workloads::uniform_random_terminals(
                Mesh2dConfig::paper_8x8().num_nodes(),
                RATE,
                PacketSizeMix::paper(),
                self.seed,
            )),
            // These two closed loops draw nothing at random: requesters walk
            // their private regions in line order, so every seed gives the
            // same inputs.
            EngineWorkload::ChipDramFrfcfs8x8 | EngineWorkload::Chip16x16Cols4 => {
                Traffic::Closed(workloads::mlp_closed_loop(&chip().nearest_mc_mlp_plan(MLP)))
            }
            EngineWorkload::ChipIncast8x8 => {
                let sim = chip();
                let victim = sim.node_id(Coord::new(0, 4)).index();
                let mut plan = sim.nearest_mc_mlp_plan(INCAST_ATTACKER_MLP);
                let mc = plan[victim].expect("the victim node issues requests").1;
                let mut hogs = Vec::new();
                for (node, slot) in plan.iter_mut().enumerate() {
                    let Some((mlp, dest)) = slot.as_mut() else {
                        continue;
                    };
                    *dest = mc;
                    if node == victim {
                        *mlp = 1;
                    } else {
                        hogs.push(FlowId(node as u16));
                    }
                }
                let phases = workloads::bursty_hogs(
                    plan.len(),
                    &hogs,
                    INCAST_ATTACKER_MLP,
                    INCAST_BURST_PERIOD,
                    INCAST_BURST_ON,
                    self.horizon,
                    self.seed,
                );
                Traffic::Closed(workloads::mlp_closed_loop(&plan).with_phases(phases))
            }
            EngineWorkload::ChipFault8x8 => {
                // Seed 1 keeps the default jitter seed bench_netsim ran with.
                let retry = RetryPolicy::new(2_000, 4);
                let retry = retry.with_jitter_seed(retry.jitter_seed ^ self.seed ^ PARITY_SEED);
                Traffic::Closed(
                    workloads::mlp_closed_loop(&chip().nearest_mc_mlp_plan(MLP)).with_retry(retry),
                )
            }
        }
    }

    /// The workload's QOS policy: PVC at every mesh router, or the chip's
    /// default column-scoped overlay.
    pub fn policy(&self, sim: Option<&ChipSim>) -> Policy {
        match sim {
            None => Policy::Everywhere(PvcPolicy::equal_rates(
                Mesh2dConfig::paper_8x8().num_nodes(),
            )),
            Some(sim) => Policy::Chip(sim.default_policy()),
        }
    }

    /// Assembles the network the way a user does: through the `core` facade
    /// (`topology` build, reroute, `Network::new` and closed-loop install
    /// all happen inside it). The plain mesh has no facade; its two calls
    /// are made directly.
    pub fn assemble(&self, sim: Option<&ChipSim>, policy: Policy, traffic: Traffic) -> Network {
        match (sim, policy, traffic) {
            (None, Policy::Everywhere(pvc), Traffic::Open(generators)) => Network::new(
                Mesh2dConfig::paper_8x8().build(),
                Box::new(pvc),
                generators,
                self.sim_config(),
            )
            .expect("mesh builds"),
            (Some(sim), Policy::Chip(policy), Traffic::Closed(spec)) => sim
                .build_closed_loop(policy, spec)
                .expect("closed-loop chip builds"),
            _ => unreachable!("{} mixes mesh and chip build steps", self.workload.name()),
        }
    }

    /// Builds the whole workload through the facade: what a user pays
    /// before cycle 0.
    pub fn build(&self) -> Network {
        let sim = self.facade();
        let traffic = self.traffic(sim.as_ref());
        let policy = self.policy(sim.as_ref());
        self.assemble(sim.as_ref(), policy, traffic)
    }

    /// Assembles the same network as [`Self::assemble`] from the layer
    /// functions the facade wraps, one span per layer call, and returns it
    /// with the seconds spent in `topology.build`, `topology.reroute` and
    /// `netsim.new`.
    pub fn assemble_by_layer(
        &self,
        sim: Option<&ChipSim>,
        policy: Policy,
        traffic: Traffic,
        spans: &mut Spans,
    ) -> (Network, [f64; 3]) {
        let ((mut spec, qos_nodes), topology_s) = spans.scope("topology.build", |_| match sim {
            None => (Mesh2dConfig::paper_8x8().build(), BTreeSet::new()),
            Some(sim) => {
                let chip = sim.build_spec();
                (chip.spec, chip.qos_nodes)
            }
        });
        // Like the facade, reroute only when a fault plan is installed.
        let fault = sim.and_then(ChipSim::fault_plan);
        let reroute_s = fault.map_or(0.0, |plan| {
            let (dead_links, dead_routers) = plan.permanent_hard_faults();
            let reroute = |_: &mut Spans| {
                reroute_around_faults(&mut spec, &dead_links, &dead_routers);
            };
            spans.scope("topology.reroute", reroute).1
        });
        let (policy, generators, closed): (
            Box<dyn QosPolicy>,
            GeneratorSet,
            Option<ClosedLoopSpec>,
        ) = match (policy, traffic) {
            (Policy::Everywhere(pvc), Traffic::Open(generators)) => {
                (Box::new(pvc), generators, None)
            }
            (Policy::Chip(ChipPolicy::ColumnPvc(pvc)), Traffic::Closed(mut closed)) => {
                // What `ChipSim::build_closed_loop` fills in: the
                // facade's DRAM model, and the PVC rates as the
                // controllers' priority weights.
                let sim = sim.expect("chip workloads carry a facade");
                if closed.dram.is_none() {
                    closed.dram = sim.dram().copied();
                }
                if closed.flow_weights.is_empty() {
                    closed.flow_weights = pvc.rates().priority_weights();
                }
                let generators = workloads::idle_terminals(spec.sources.len());
                (
                    Box::new(ScopedQosPolicy::new(pvc, qos_nodes)),
                    generators,
                    Some(closed),
                )
            }
            _ => unreachable!("{} mixes mesh and chip build steps", self.workload.name()),
        };
        let sim_config = self.sim_config();
        let (network, new_s) = spans.scope("netsim.new", |_| {
            let mut network =
                Network::new(spec, policy, generators, sim_config).expect("network builds");
            if let Some(plan) = fault {
                network = network
                    .with_fault_plan(plan.clone())
                    .expect("fault plan installs");
            }
            match closed {
                Some(closed) => network
                    .with_closed_loop(closed)
                    .expect("closed loop installs"),
                None => network,
            }
        });
        (network, [topology_s, reroute_s, new_s])
    }
}
