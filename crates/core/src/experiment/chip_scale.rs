//! Chip-scale experiments: closed-loop performance isolation on the full
//! hybrid fabric, multi-column scaling, and the area cost of confining QOS
//! to the shared columns.
//!
//! This is the headline claim of the paper run end-to-end on the cycle
//! engine as a **closed-loop request/reply workload**: a 256-tile CMP where
//! a hog domain with a deep memory-level-parallelism window saturates a
//! memory controller while a well-behaved victim domain issues memory
//! traffic through a shallow window. Requests take the MECS express hop into
//! the QOS column, replies return down the column and out over the mesh, and
//! every node's injection rate is self-limited by its outstanding-miss
//! budget — the paper's shared-resource scenario rather than an open-loop
//! approximation.
//!
//! * With the **shared-column QOS overlay** (PVC confined to the column
//!   routers and the controllers' reply ports), the victim's round-trip
//!   latency stays close to its solo (interference-free) baseline — the hog
//!   cannot push the victim beyond its fair share.
//! * On the **same fabric without the overlay** the classic parking-lot
//!   effect appears on both legs of the round trip: the hog's requests merge
//!   closer to the controller and its replies monopolise the controller's
//!   reply port, multiplying the victim's round-trip latency.
//!
//! The three scenarios are independent simulations and run across threads
//! via [`crate::experiment::parallel_map`], as does the
//! [`multi_column_scaling`] sweep (16×16 chips with 1–4 shared columns).
//!
//! With **DRAM-backed controllers** (banks, row buffers, bounded request
//! queues — see [`taqos_netsim::closed_loop::DramConfig`]) the loop also
//! regenerates the paper-style end-to-end curves:
//!
//! * [`latency_under_load`] sweeps the offered load (the MLP window of every
//!   requester), once per controller scheduler flavour, and traces
//!   round-trip latency against accepted throughput — monotone latency
//!   growth with a visible saturation knee where the controllers run out of
//!   bank bandwidth;
//! * [`mlp_mix_divergence`] sweeps a hog domain's window against a fixed
//!   shallow victim, once per scheduler flavour: the protected victim's
//!   slowdown stays bounded while the unprotected fabric diverges, and the
//!   rate-scaled controller schedulers (FR-FCFS + priority admission)
//!   tighten the protected bound further — end-to-end QOS through the last
//!   arbitration point.
//!
//! [`chip_qos_area`] quantifies the cost side of the argument with the
//! `taqos-power` area model: flow-state tables are only provisioned at
//! shared-column routers, so the QOS area scales with
//! [`ChipSpec::qos_router_fraction`] instead of the whole chip.

use crate::chip_sim::{ChipPolicy, ChipSim};
use crate::experiment::{domain_outcome, histograms_on, parallel_map};
use serde::{Deserialize, Serialize};
use taqos_netsim::closed_loop::{DramConfig, DramScheduler, RetryPolicy};
use taqos_netsim::fault::{FaultEvent, FaultKind, FaultPlan};
use taqos_netsim::ids::Direction;
use taqos_netsim::sim::{run_open_loop, OpenLoopConfig};
use taqos_netsim::spec::{NetworkSpec, OutputKind};
use taqos_netsim::stats::NetStats;
use taqos_power::area::AreaModel;
use taqos_topology::chip::{ChipConfig, ChipSpec};
use taqos_topology::grid::Coord;
use taqos_traffic::workloads;

/// Configuration of the closed-loop chip-scale isolation experiment.
#[derive(Debug, Clone)]
pub struct ChipIsolationConfig {
    /// MLP window of each victim node: a well-behaved domain with few
    /// outstanding misses.
    pub victim_mlp: usize,
    /// MLP window of each hog node: a memory-bound domain that keeps the
    /// controller saturated.
    pub hog_mlp: usize,
    /// DRAM service-time model at the contended controller; `None` keeps
    /// instant controllers (fabric-only contention).
    pub dram: Option<DramConfig>,
    /// Run phases: warm-up, measurement window, drain.
    pub open_loop: OpenLoopConfig,
}

impl Default for ChipIsolationConfig {
    fn default() -> Self {
        ChipIsolationConfig {
            victim_mlp: 2,
            hog_mlp: 16,
            dram: None,
            open_loop: OpenLoopConfig {
                warmup: 5_000,
                measure: 30_000,
                drain: 5_000,
            },
        }
    }
}

impl ChipIsolationConfig {
    /// A shorter configuration for tests and smoke runs.
    pub fn quick() -> Self {
        ChipIsolationConfig {
            open_loop: OpenLoopConfig {
                warmup: 1_000,
                measure: 8_000,
                drain: 1_000,
            },
            ..Self::default()
        }
    }

    /// Returns this configuration with a DRAM model at the controller.
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = Some(dram);
        self
    }
}

/// Measured closed-loop behaviour of one domain in one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DomainOutcome {
    /// Average round-trip latency (request issue to reply delivery) of the
    /// domain's flows, in cycles. `None` when not a single request issued in
    /// the window completed — the starved outcome. Latency ratios must treat
    /// `None` explicitly instead of dividing by a phantom `0.0`.
    pub avg_round_trip: Option<f64>,
    /// Round trips completed during the measurement window.
    pub round_trips: u64,
    /// Requests issued over the whole run.
    pub issued_requests: u64,
    /// Completed round trips per cycle over the measurement window.
    pub throughput: f64,
    /// Median round-trip latency upper bound, in cycles (log2-bucket edge,
    /// clamped to the recorded maximum; see
    /// [`taqos_netsim::Hist64::percentile`]). `None` when histograms were off
    /// or the domain starved.
    pub p50_round_trip: Option<u64>,
    /// 95th-percentile round-trip latency upper bound, in cycles.
    pub p95_round_trip: Option<u64>,
    /// 99th-percentile round-trip latency upper bound, in cycles.
    pub p99_round_trip: Option<u64>,
    /// Largest measured round-trip latency of the domain, in cycles.
    pub max_round_trip: Option<u64>,
}

impl DomainOutcome {
    /// Whether the domain completed nothing measurable — the extreme
    /// interference outcome of a closed loop whose windows never drain.
    pub fn starved(&self) -> bool {
        self.round_trips == 0
    }
}

/// Result of the chip-scale isolation experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChipIsolationResult {
    /// Victim behaviour with the shared-column QOS overlay, hog active.
    pub protected: DomainOutcome,
    /// Victim behaviour on the same fabric without any QOS, hog active.
    pub unprotected: DomainOutcome,
    /// Victim behaviour running alone (no hog) with the overlay — the
    /// interference-free baseline.
    pub solo: DomainOutcome,
    /// Hog behaviour in the protected scenario (it still gets the residual
    /// bandwidth; QOS does not starve it).
    pub protected_hog: DomainOutcome,
}

impl ChipIsolationResult {
    /// Victim round-trip slowdown versus its solo baseline with the overlay
    /// in place; `None` when either side starved (no meaningful ratio).
    pub fn protected_slowdown(&self) -> Option<f64> {
        slowdown(&self.protected, &self.solo)
    }

    /// Victim round-trip slowdown versus its solo baseline without the
    /// overlay; `None` when either side starved.
    pub fn unprotected_slowdown(&self) -> Option<f64> {
        slowdown(&self.unprotected, &self.solo)
    }

    /// Victim p99 round-trip slowdown versus its solo baseline with the
    /// overlay: the *tail* isolation bound, stricter than the mean. `None`
    /// when either side has no tail figure (starved, or histograms off).
    pub fn protected_p99_slowdown(&self) -> Option<f64> {
        p99_slowdown(&self.protected, &self.solo)
    }

    /// Victim p99 round-trip slowdown versus its solo baseline without the
    /// overlay; `None` when either side has no tail figure.
    pub fn unprotected_p99_slowdown(&self) -> Option<f64> {
        p99_slowdown(&self.unprotected, &self.solo)
    }
}

/// Latency ratio of `outcome` over `baseline`, or `None` when either side
/// has no completed round trips — a starved flow must surface as "starved",
/// never as an `inf`/`NaN` ratio.
fn slowdown(outcome: &DomainOutcome, baseline: &DomainOutcome) -> Option<f64> {
    match (outcome.avg_round_trip, baseline.avg_round_trip) {
        (Some(latency), Some(base)) if base > 0.0 => Some(latency / base),
        _ => None,
    }
}

/// p99 round-trip ratio of `outcome` over `baseline`, or `None` when either
/// side lacks a tail figure (starved, or histograms were off).
fn p99_slowdown(outcome: &DomainOutcome, baseline: &DomainOutcome) -> Option<f64> {
    match (outcome.p99_round_trip, baseline.p99_round_trip) {
        (Some(tail), Some(base)) if base > 0 => Some(tail as f64 / base as f64),
        _ => None,
    }
}

/// The three scenarios of the isolation experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Protected,
    Unprotected,
    Solo,
}

/// Builds the paper-default chip with a distant victim domain and a hog
/// domain seated close to the contended memory controller.
///
/// The victim occupies the north-west 2×2 corner (rows 0–1), the hog a 4×4
/// block on rows 2–5, and both loop against the memory controller at the
/// *south* end of the shared column — so the hog's requests enter the column
/// downstream of the victim's and its replies leave the controller first,
/// the adversarial placement for round-robin arbitration on both legs.
fn isolation_chip() -> (ChipSim, crate::chip::DomainId, crate::chip::DomainId, Coord) {
    let mut sim = ChipSim::paper_default().with_sim_config(histograms_on());
    let grid = *sim.chip().grid();
    let victim = sim
        .chip_mut()
        .allocate_domain("victim", grid.rectangle(Coord::new(0, 0), 2, 2), 1)
        .expect("victim domain fits");
    let hog = sim
        .chip_mut()
        .allocate_domain("hog", grid.rectangle(Coord::new(0, 2), 4, 4), 1)
        .expect("hog domain fits");
    let mc = Coord::new(4, 7);
    (sim, victim, hog, mc)
}

/// Runs the closed-loop chip-scale isolation experiment (the three scenarios
/// run in parallel across threads; each simulation is deterministic — the
/// closed loop consumes no randomness at all).
pub fn chip_isolation(config: &ChipIsolationConfig) -> ChipIsolationResult {
    let (sim, victim, hog, mc) = isolation_chip();
    let sim = match config.dram {
        Some(dram) => sim.with_dram(dram),
        None => sim,
    };
    let victim_flows = sim.domain_flows(victim).expect("victim exists");
    let hog_flows = sim.domain_flows(hog).expect("hog exists");

    let scenarios = vec![Scenario::Protected, Scenario::Unprotected, Scenario::Solo];
    let stats = parallel_map(scenarios, |scenario| {
        let demands = match scenario {
            Scenario::Solo => vec![(victim, config.victim_mlp)],
            _ => vec![(victim, config.victim_mlp), (hog, config.hog_mlp)],
        };
        let plan = sim
            .memory_mlp_plan(&demands, mc)
            .expect("mc is a shared terminal");
        let policy = match scenario {
            Scenario::Unprotected => ChipPolicy::NoQos,
            _ => sim.default_policy(),
        };
        let network = sim
            .build_closed_loop(policy, workloads::mlp_closed_loop(&plan))
            .expect("chip isolation scenario builds");
        run_open_loop(network, config.open_loop)
    });

    let victim_outcome = |s: &NetStats| domain_outcome(s, &victim_flows, config.open_loop.measure);
    ChipIsolationResult {
        protected: victim_outcome(&stats[0]),
        unprotected: victim_outcome(&stats[1]),
        solo: victim_outcome(&stats[2]),
        protected_hog: domain_outcome(&stats[0], &hog_flows, config.open_loop.measure),
    }
}

/// Configuration of the multi-column scaling sweep.
#[derive(Debug, Clone)]
pub struct ColumnScalingConfig {
    /// Chip width in nodes.
    pub width: u16,
    /// Chip height in nodes.
    pub height: u16,
    /// Shared-column counts to sweep.
    pub columns: Vec<usize>,
    /// MLP window of every requester node.
    pub mlp: usize,
    /// Run phases: warm-up, measurement window, drain.
    pub open_loop: OpenLoopConfig,
}

impl Default for ColumnScalingConfig {
    fn default() -> Self {
        ColumnScalingConfig {
            width: 16,
            height: 16,
            columns: vec![1, 2, 4],
            mlp: 4,
            open_loop: OpenLoopConfig {
                warmup: 2_000,
                measure: 20_000,
                drain: 2_000,
            },
        }
    }
}

impl ColumnScalingConfig {
    /// A shorter configuration for tests and smoke runs.
    pub fn quick() -> Self {
        ColumnScalingConfig {
            open_loop: OpenLoopConfig {
                warmup: 500,
                measure: 4_000,
                drain: 500,
            },
            ..Self::default()
        }
    }
}

/// One point of the multi-column scaling sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ColumnScalingPoint {
    /// Number of shared columns.
    pub columns: usize,
    /// Requester nodes (nodes outside the shared columns).
    pub requesters: usize,
    /// Round trips completed during the measurement window.
    pub round_trips: u64,
    /// Completed round trips per cycle over the window.
    pub throughput: f64,
    /// Average round-trip latency in cycles; `None` when nothing completed.
    pub avg_round_trip: Option<f64>,
}

/// Sweeps the shared-column count on a larger chip under the closed-loop
/// nearest-controller workload: more columns mean more memory-controller
/// ports and shorter express hops, so accepted request throughput grows with
/// the column count (the ROADMAP's multi-column scaling study).
pub fn multi_column_scaling(config: &ColumnScalingConfig) -> Vec<ColumnScalingPoint> {
    let points = config.columns.clone();
    let (width, height, mlp, open_loop) =
        (config.width, config.height, config.mlp, config.open_loop);
    parallel_map(points, move |columns| {
        let sim = ChipSim::multi_column(width, height, columns);
        let plan = sim.nearest_mc_mlp_plan(mlp);
        let requesters = plan.iter().filter(|e| e.is_some()).count();
        let network = sim
            .build_closed_loop(sim.default_policy(), workloads::mlp_closed_loop(&plan))
            .expect("scaling point builds");
        let stats = run_open_loop(network, open_loop);
        let measured: u64 = stats.flows.iter().map(|f| f.measured_round_trips).sum();
        ColumnScalingPoint {
            columns,
            requesters,
            round_trips: measured,
            throughput: stats.round_trip_throughput(),
            avg_round_trip: stats.avg_round_trip(),
        }
    })
}

/// Configuration of the latency-under-load sweep on the DRAM-backed closed
/// loop.
#[derive(Debug, Clone)]
pub struct LatencyLoadConfig {
    /// MLP windows to sweep: the offered load grows with the per-node
    /// outstanding-miss budget (a closed loop has no rate knob).
    pub mlps: Vec<usize>,
    /// Scheduler flavours to sweep: one full latency-under-load curve is
    /// produced per flavour (the configured `dram.scheduler` is overridden
    /// point by point).
    pub schedulers: Vec<DramScheduler>,
    /// DRAM model at every controller (scaled to the chip via
    /// [`ChipSim::topology_dram`] before the run).
    pub dram: DramConfig,
    /// Run phases: warm-up, measurement window, drain.
    pub open_loop: OpenLoopConfig,
}

impl Default for LatencyLoadConfig {
    fn default() -> Self {
        LatencyLoadConfig {
            mlps: vec![1, 2, 4, 8, 16, 32],
            schedulers: vec![DramScheduler::Fcfs, DramScheduler::FrFcfs],
            dram: DramConfig::paper(),
            open_loop: OpenLoopConfig {
                warmup: 2_000,
                measure: 15_000,
                drain: 2_000,
            },
        }
    }
}

impl LatencyLoadConfig {
    /// A shorter configuration for tests and smoke runs.
    pub fn quick() -> Self {
        LatencyLoadConfig {
            open_loop: OpenLoopConfig {
                warmup: 1_000,
                measure: 6_000,
                drain: 1_000,
            },
            ..Self::default()
        }
    }
}

/// One point of the latency-under-load curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadPoint {
    /// Scheduler flavour at the controllers for this point.
    pub scheduler: DramScheduler,
    /// MLP window of every requester node at this point.
    pub mlp: usize,
    /// Requester nodes (nodes outside the shared columns).
    pub requesters: usize,
    /// Completed round trips per cycle over the measurement window.
    pub throughput: f64,
    /// Average round-trip latency in cycles; `None` when nothing completed.
    pub avg_round_trip: Option<f64>,
    /// Median round-trip latency upper bound in cycles (conservative
    /// log2-bucket edge); `None` when nothing completed.
    pub p50_round_trip: Option<u64>,
    /// 95th-percentile round-trip latency upper bound in cycles.
    pub p95_round_trip: Option<u64>,
    /// 99th-percentile round-trip latency upper bound in cycles.
    pub p99_round_trip: Option<u64>,
    /// Largest measured round-trip latency in cycles.
    pub max_round_trip: Option<u64>,
    /// Mean cycles a serviced request waited for a DRAM bank; `None` when
    /// nothing was serviced.
    pub avg_queue_wait: Option<f64>,
    /// Fraction of DRAM services hitting the open row; `None` when nothing
    /// was serviced.
    pub row_hit_rate: Option<f64>,
    /// Overflow-NACKed requests (whole run).
    pub rejected_requests: u64,
    /// Eviction-NACKed requests (whole run; zero under FCFS).
    pub evicted_requests: u64,
    /// High-water mark of any controller's waiting-request queue.
    pub max_queue_occupancy: u64,
}

/// Sweeps the offered load (MLP window) of the DRAM-backed closed loop on
/// the paper chip under the nearest-controller workload, once per scheduler
/// flavour, regenerating the paper-style latency-under-load curves:
/// round-trip latency grows monotonically with the window while accepted
/// throughput saturates at the controllers' service bandwidth — the
/// saturation knee. Points are returned scheduler-major in the order of
/// [`LatencyLoadConfig::schedulers`]. Each point is one
/// closed-loop build run through [`run_open_loop`]; the points run across
/// threads via
/// [`crate::experiment::parallel_map`].
pub fn latency_under_load(config: &LatencyLoadConfig) -> Vec<LoadPoint> {
    let (base, open_loop) = (config.dram, config.open_loop);
    let mut runs = Vec::new();
    for &scheduler in &config.schedulers {
        for &mlp in &config.mlps {
            runs.push((scheduler, mlp));
        }
    }
    parallel_map(runs, move |(scheduler, mlp)| {
        let sim = ChipSim::paper_default().with_sim_config(histograms_on());
        let dram = sim.topology_dram(base).with_scheduler(scheduler);
        let sim = sim.with_dram(dram);
        let plan = sim.nearest_mc_mlp_plan(mlp);
        let requesters = plan.iter().filter(|e| e.is_some()).count();
        let network = sim
            .build_closed_loop(sim.default_policy(), workloads::mlp_closed_loop(&plan))
            .expect("load point builds");
        let stats = run_open_loop(network, open_loop);
        LoadPoint {
            scheduler,
            mlp,
            requesters,
            throughput: stats.round_trip_throughput(),
            avg_round_trip: stats.avg_round_trip(),
            p50_round_trip: stats.rt_percentile(50),
            p95_round_trip: stats.rt_percentile(95),
            p99_round_trip: stats.rt_percentile(99),
            max_round_trip: stats.rt_hist.max(),
            avg_queue_wait: stats.dram.avg_queue_wait(),
            row_hit_rate: stats.dram.row_hit_rate(),
            rejected_requests: stats.dram.rejected_requests,
            evicted_requests: stats.dram.evicted_requests,
            max_queue_occupancy: stats.dram.max_queue_occupancy,
        }
    })
}

/// Configuration of the heterogeneous MLP-mix divergence sweep.
#[derive(Debug, Clone)]
pub struct MlpMixConfig {
    /// MLP window of each victim node (fixed across the sweep).
    pub victim_mlp: usize,
    /// Hog MLP windows to sweep.
    pub hog_mlps: Vec<usize>,
    /// Scheduler flavours to sweep: the full hog sweep (including its solo
    /// baseline) runs once per flavour, so the flavours' victim bounds are
    /// directly comparable.
    pub schedulers: Vec<DramScheduler>,
    /// DRAM model at the contended controller.
    pub dram: DramConfig,
    /// Run phases: warm-up, measurement window, drain.
    pub open_loop: OpenLoopConfig,
}

impl Default for MlpMixConfig {
    fn default() -> Self {
        MlpMixConfig {
            victim_mlp: 2,
            hog_mlps: vec![2, 8, 32],
            schedulers: vec![DramScheduler::Fcfs, DramScheduler::FrFcfs],
            dram: DramConfig::paper(),
            open_loop: OpenLoopConfig {
                warmup: 2_000,
                measure: 12_000,
                drain: 2_000,
            },
        }
    }
}

impl MlpMixConfig {
    /// A shorter configuration for tests and smoke runs.
    pub fn quick() -> Self {
        MlpMixConfig {
            open_loop: OpenLoopConfig {
                warmup: 1_000,
                measure: 6_000,
                drain: 1_000,
            },
            ..Self::default()
        }
    }
}

/// One point of the MLP-mix divergence sweep: the victim's fate at a given
/// hog window and scheduler flavour, with and without the shared-column QOS
/// overlay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixPoint {
    /// Scheduler flavour at the contended controller for this point.
    pub scheduler: DramScheduler,
    /// MLP window of each hog node at this point.
    pub hog_mlp: usize,
    /// Victim behaviour with the overlay, hog active.
    pub protected: DomainOutcome,
    /// Victim behaviour without any QOS, hog active.
    pub unprotected: DomainOutcome,
    /// Victim behaviour running alone with the overlay (hog-independent;
    /// repeated on every point for convenience).
    pub solo: DomainOutcome,
}

impl MixPoint {
    /// Victim round-trip slowdown versus solo with the overlay; `None` when
    /// either side starved.
    pub fn protected_slowdown(&self) -> Option<f64> {
        slowdown(&self.protected, &self.solo)
    }

    /// Victim round-trip slowdown versus solo without the overlay; `None`
    /// when either side starved.
    pub fn unprotected_slowdown(&self) -> Option<f64> {
        slowdown(&self.unprotected, &self.solo)
    }

    /// Victim p99 round-trip slowdown versus solo with the overlay (the
    /// tail bound); `None` when either side has no tail figure.
    pub fn protected_p99_slowdown(&self) -> Option<f64> {
        p99_slowdown(&self.protected, &self.solo)
    }
}

/// One simulation of the divergence sweep (flattened so every run is an
/// independent `parallel_map` work item).
#[derive(Debug, Clone, Copy)]
enum MixRun {
    Solo {
        scheduler: DramScheduler,
    },
    Hogged {
        scheduler: DramScheduler,
        hog_mlp: usize,
        protected: bool,
    },
}

/// Sweeps the hog's MLP window against a fixed shallow victim on the
/// DRAM-backed closed loop, once per scheduler flavour: with the
/// shared-column overlay the victim's round-trip slowdown stays bounded as
/// the hog deepens its window, while on the unprotected fabric it diverges
/// (grows without bound or starves outright) — and the priority-aware
/// controller schedulers (FR-FCFS with priority admission) bound the
/// protected victim at least as tightly as FCFS at every hog window,
/// closing the last unprotected arbitration point. Points are returned
/// scheduler-major in the order of [`MlpMixConfig::schedulers`]. One
/// closed-loop run per (flavour, point, scenario), all
/// sharded via [`crate::experiment::parallel_map`].
pub fn mlp_mix_divergence(config: &MlpMixConfig) -> Vec<MixPoint> {
    let (sim, victim, hog, mc) = isolation_chip();
    let victim_flows = sim.domain_flows(victim).expect("victim exists");

    let mut runs = Vec::new();
    for &scheduler in &config.schedulers {
        runs.push(MixRun::Solo { scheduler });
        for &hog_mlp in &config.hog_mlps {
            runs.push(MixRun::Hogged {
                scheduler,
                hog_mlp,
                protected: true,
            });
            runs.push(MixRun::Hogged {
                scheduler,
                hog_mlp,
                protected: false,
            });
        }
    }
    let (victim_mlp, base_dram, open_loop) = (config.victim_mlp, config.dram, config.open_loop);
    let stats = {
        let sim = &sim;
        parallel_map(runs, move |run| {
            let (scheduler, demands) = match run {
                MixRun::Solo { scheduler } => (scheduler, vec![(victim, victim_mlp)]),
                MixRun::Hogged {
                    scheduler, hog_mlp, ..
                } => (scheduler, vec![(victim, victim_mlp), (hog, hog_mlp)]),
            };
            let sim = sim.clone().with_dram(base_dram.with_scheduler(scheduler));
            let plan = sim
                .memory_mlp_plan(&demands, mc)
                .expect("mc is a shared terminal");
            let policy = match run {
                MixRun::Hogged {
                    protected: false, ..
                } => ChipPolicy::NoQos,
                _ => sim.default_policy(),
            };
            let network = sim
                .build_closed_loop(policy, workloads::mlp_closed_loop(&plan))
                .expect("mix scenario builds");
            run_open_loop(network, open_loop)
        })
    };

    let outcome = |s: &NetStats| domain_outcome(s, &victim_flows, config.open_loop.measure);
    let per_scheduler = 1 + 2 * config.hog_mlps.len();
    let mut points = Vec::new();
    for (si, &scheduler) in config.schedulers.iter().enumerate() {
        let base = si * per_scheduler;
        let solo = outcome(&stats[base]);
        for (i, &hog_mlp) in config.hog_mlps.iter().enumerate() {
            points.push(MixPoint {
                scheduler,
                hog_mlp,
                protected: outcome(&stats[base + 1 + 2 * i]),
                unprotected: outcome(&stats[base + 2 + 2 * i]),
                solo,
            });
        }
    }
    points
}

/// Area cost of QOS support on a chip, per the paper's cost argument.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosAreaReport {
    /// Flow-state table area of one QOS router, mm².
    pub per_router_mm2: f64,
    /// Total QOS area if every router of the chip carried flow state, mm².
    pub chip_wide_mm2: f64,
    /// Total QOS area with flow state confined to the shared columns, mm².
    pub column_confined_mm2: f64,
    /// Fraction of the chip-wide QOS area saved by confinement; equals one
    /// minus the chip's QOS-router fraction.
    pub saving_fraction: f64,
}

/// Computes the QOS area saving of the topology-aware approach for a built
/// chip fabric, using the 32 nm SRAM parameters of the power model.
pub fn chip_qos_area(chip: &ChipSpec) -> QosAreaReport {
    let tech = *AreaModel::nm32().technology();
    let per_router_mm2 =
        chip.spec.num_flows() as f64 * tech.flow_entry_bits * tech.sram_mm2_per_bit;
    let routers = chip.spec.routers.len() as f64;
    let chip_wide_mm2 = per_router_mm2 * routers;
    let column_confined_mm2 = per_router_mm2 * chip.qos_router_count() as f64;
    QosAreaReport {
        per_router_mm2,
        chip_wide_mm2,
        column_confined_mm2,
        saving_fraction: 1.0 - chip.qos_router_fraction(),
    }
}

/// Configuration of the graceful-degradation-under-faults sweep.
#[derive(Debug, Clone)]
pub struct DegradationConfig {
    /// Numbers of permanently dead links to sweep, in increasing order; the
    /// first entry is the baseline every ratio is computed against (keep it
    /// at 0 for fault-free baselines). At most
    /// [`degradation_fault_sites`]`()` links can be killed.
    pub fault_counts: Vec<usize>,
    /// MLP window of each victim node.
    pub victim_mlp: usize,
    /// MLP window of each hog node.
    pub hog_mlp: usize,
    /// Deadline/retry policy of the *protected* scenario's requesters (the
    /// unprotected fabric runs bare: no QOS, no retry layer).
    pub retry: RetryPolicy,
    /// Flit-corruption probability added per fault, in parts per million:
    /// every fault contributes a dead link (routed around) *and* this much
    /// soft-error burden that must be recovered at runtime via
    /// NACK-retransmit.
    pub corruption_ppm_per_fault: u32,
    /// Seed of the fault plans (corruption draws and retry jitter).
    pub seed: u64,
    /// Run phases: warm-up, measurement window, drain.
    pub open_loop: OpenLoopConfig,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            fault_counts: vec![0, 1, 2, 4],
            victim_mlp: 2,
            hog_mlp: 16,
            retry: RetryPolicy::new(2_000, 4),
            corruption_ppm_per_fault: 15_000,
            seed: 0xFA17,
            open_loop: OpenLoopConfig {
                warmup: 2_000,
                measure: 12_000,
                drain: 2_000,
            },
        }
    }
}

impl DegradationConfig {
    /// A shorter configuration for tests and smoke runs.
    pub fn quick() -> Self {
        DegradationConfig {
            open_loop: OpenLoopConfig {
                warmup: 1_000,
                measure: 6_000,
                drain: 1_000,
            },
            ..Self::default()
        }
    }
}

/// One point of the degradation sweep: the victim's fate at a given number
/// of dead links, with the full protection stack (shared-column QOS overlay,
/// fault-aware reroute, deadline/retry recovery) and on the bare fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationPoint {
    /// Permanently dead links at this point.
    pub faults: usize,
    /// Victim behaviour with the protection stack, hog active.
    pub protected: DomainOutcome,
    /// Victim behaviour on the bare fabric (no QOS, no retry), hog active.
    pub unprotected: DomainOutcome,
    /// Fault-induced packet drops over the whole protected run.
    pub protected_fault_drops: u64,
    /// Packets abandoned after exhausting the fault retransmit budget in
    /// the protected run.
    pub protected_abandoned_packets: u64,
    /// Request deadline expirations observed by the protected retry layer.
    pub protected_request_timeouts: u64,
    /// Requests re-issued by the protected retry layer.
    pub protected_request_retries: u64,
    /// Victim round-trip latency relative to the sweep's first (baseline)
    /// protected point; `None` when either side starved.
    pub protected_vs_fault_free: Option<f64>,
    /// Victim round-trip latency relative to the sweep's first (baseline)
    /// unprotected point; `None` when either side starved.
    pub unprotected_vs_fault_free: Option<f64>,
    /// Victim p99 round-trip latency relative to the baseline protected
    /// point — the tail-degradation bound; `None` when either side has no
    /// tail figure.
    pub protected_p99_vs_fault_free: Option<f64>,
    /// Victim p99 round-trip latency relative to the baseline unprotected
    /// point; `None` when either side has no tail figure.
    pub unprotected_p99_vs_fault_free: Option<f64>,
}

/// Number of distinct fault sites the degradation sweep can kill (the
/// westbound mesh links of the victim's reply path, rows 0–1 between the
/// shared column and the victim corner).
pub fn degradation_fault_sites() -> usize {
    6
}

/// The `(router, out_port)` fault sites of the degradation sweep, nearest
/// the shared column first, alternating between the victim's two rows — so
/// each extra fault pushes the rerouted reply path one row further from home.
fn victim_reply_links(spec: &NetworkSpec, config: &ChipConfig) -> Vec<(usize, usize)> {
    let mut links = Vec::new();
    for x in [3usize, 2, 1] {
        for y in [0usize, 1] {
            let node = config.node_at(x, y);
            let ri = spec
                .routers
                .iter()
                .position(|r| r.node == node)
                .expect("chip fabric has a router per node");
            let oi = spec.routers[ri]
                .outputs
                .iter()
                .position(|o| {
                    matches!(
                        o.kind,
                        OutputKind::Network {
                            dir: Direction::West,
                            channel: 0,
                        }
                    )
                })
                .expect("interior mesh router has a westbound link");
            links.push((ri, oi));
        }
    }
    links
}

/// The fault plan of the `chip_fault_8x8` benchmark and smoke cases: two
/// permanently dead westbound links on the north-west reply path (routed
/// around at build time), 30 000 ppm flit corruption (recovered at runtime
/// through the NACK-retransmit path), and a transient outage window on the
/// row-0 memory controller (arriving requests are bounced and retried while
/// it lasts). Deterministic for a given `seed`, so both engines — and every
/// repeat — simulate the identical failing fabric.
pub fn chip_fault_bench_plan(sim: &ChipSim, seed: u64) -> FaultPlan {
    let fabric = sim.build_spec();
    let sites = victim_reply_links(&fabric.spec, sim.config());
    let mut plan = FaultPlan::new(seed);
    for &(router, out_port) in sites.iter().take(2) {
        plan = plan.with_event(FaultEvent::permanent(
            0,
            FaultKind::LinkDown { router, out_port },
        ));
    }
    let controller = *sim
        .controller_nodes()
        .first()
        .expect("chip has at least one memory controller");
    plan.with_event(FaultEvent::permanent(
        0,
        FaultKind::CorruptFlits {
            probability_ppm: 30_000,
        },
    ))
    .with_event(FaultEvent::transient(
        2_000,
        4_000,
        FaultKind::McOutage { node: controller },
    ))
}

/// Sweeps the fault count on the chip-scale isolation scenario and measures
/// graceful degradation. Each fault permanently kills one westbound link of
/// the victim's reply path *and* adds
/// [`DegradationConfig::corruption_ppm_per_fault`] of flit corruption: the
/// hard failures are routed around at build time (XY with detours), the
/// soft-error burden must be recovered at runtime through the
/// NACK-retransmit path. With the full protection stack — shared-column QOS
/// overlay, fault-aware reroute, deadline/retry recovery at the requesters —
/// the victim's round-trip latency grows modestly and monotonically with the
/// fault count (about 1.2x its fault-free bound at four faults on the
/// default configuration), while the bare fabric both starts from the hog's
/// multiplied-interference latency and degrades faster as faults accumulate.
/// Each `(fault count, scenario)` pair is one deterministic simulation; all
/// of them run across threads via [`crate::experiment::parallel_map`].
///
/// An empty [`DegradationConfig::fault_counts`] gives an empty sweep.
///
/// # Panics
///
/// Panics if a fault count exceeds [`degradation_fault_sites`].
pub fn degradation_under_faults(config: &DegradationConfig) -> Vec<DegradationPoint> {
    if config.fault_counts.is_empty() {
        return Vec::new();
    }
    let (sim, victim, hog, mc) = isolation_chip();
    let victim_flows = sim.domain_flows(victim).expect("victim exists");
    let fabric = sim.build_spec();
    let sites = victim_reply_links(&fabric.spec, sim.config());
    let max = config.fault_counts.iter().copied().max().unwrap_or(0);
    assert!(
        max <= sites.len(),
        "at most {} links can be killed, asked for {max}",
        sites.len()
    );
    let demands = vec![(victim, config.victim_mlp), (hog, config.hog_mlp)];
    let runs: Vec<(usize, bool)> = config
        .fault_counts
        .iter()
        .flat_map(|&k| [(k, true), (k, false)])
        .collect();
    let (retry, seed, open_loop) = (config.retry, config.seed, config.open_loop);
    let corruption_ppm = config.corruption_ppm_per_fault;
    let stats = {
        let (sim, sites, demands) = (&sim, &sites, &demands);
        parallel_map(runs, move |(k, protected)| {
            let mut plan = FaultPlan::new(seed);
            for &(router, out_port) in sites.iter().take(k) {
                plan = plan.with_event(FaultEvent::permanent(
                    0,
                    FaultKind::LinkDown { router, out_port },
                ));
            }
            // Each dead link also contributes soft-error burden: the hard
            // failure is routed around at build time, the corruption must
            // be absorbed at runtime by the NACK-retransmit path.
            if k > 0 && corruption_ppm > 0 {
                plan = plan.with_event(FaultEvent::permanent(
                    0,
                    FaultKind::CorruptFlits {
                        probability_ppm: (k as u32).saturating_mul(corruption_ppm),
                    },
                ));
            }
            let sim = if plan.is_empty() {
                sim.clone()
            } else {
                sim.clone().with_fault_plan(plan)
            };
            let mlp_plan = sim
                .memory_mlp_plan(demands, mc)
                .expect("mc is a shared terminal");
            let spec = workloads::mlp_closed_loop(&mlp_plan);
            let (policy, spec) = if protected {
                (sim.default_policy(), spec.with_retry(retry))
            } else {
                (ChipPolicy::NoQos, spec)
            };
            let network = sim
                .build_closed_loop(policy, spec)
                .expect("degradation point builds");
            run_open_loop(network, open_loop)
        })
    };

    let victim_outcome = |s: &NetStats| domain_outcome(s, &victim_flows, config.open_loop.measure);
    let baseline_protected = victim_outcome(&stats[0]);
    let baseline_unprotected = victim_outcome(&stats[1]);
    config
        .fault_counts
        .iter()
        .enumerate()
        .map(|(i, &faults)| {
            let p = &stats[2 * i];
            let u = &stats[2 * i + 1];
            let protected = victim_outcome(p);
            let unprotected = victim_outcome(u);
            DegradationPoint {
                faults,
                protected,
                unprotected,
                protected_fault_drops: p.fault.total_drops(),
                protected_abandoned_packets: p.fault.abandoned_packets,
                protected_request_timeouts: p.flows.iter().map(|f| f.request_timeouts).sum(),
                protected_request_retries: p.flows.iter().map(|f| f.request_retries).sum(),
                protected_vs_fault_free: slowdown(&protected, &baseline_protected),
                unprotected_vs_fault_free: slowdown(&unprotected, &baseline_unprotected),
                protected_p99_vs_fault_free: p99_slowdown(&protected, &baseline_protected),
                unprotected_p99_vs_fault_free: p99_slowdown(&unprotected, &baseline_unprotected),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taqos_netsim::FlowId;
    use taqos_topology::chip::ChipConfig;

    // The end-to-end isolation assertions (three full chip simulations) live
    // in `tests/chip_sim.rs::shared_column_overlay_isolates_domains` — the
    // experiment is too expensive to run twice per test suite.

    #[test]
    fn starved_domains_produce_no_ratio_instead_of_inf() {
        // Regression for the division-by-phantom-zero bug: a fully starved
        // flow set (zero samples) must surface as `starved()` with no
        // slowdown, not as an `inf`/`NaN` latency ratio.
        let mut stats = NetStats::new(4);
        stats.measure_start = Some(0);
        stats.measure_end = Some(100);
        // Flows 0 and 1 starve outright; flows 2 and 3 complete round trips.
        for flow in [2u16, 3] {
            stats.record_request_issued(FlowId(flow));
            stats.record_round_trip(FlowId(flow), 10, 40);
        }
        let starved = domain_outcome(&stats, &[FlowId(0), FlowId(1)], 100);
        assert!(starved.starved());
        assert_eq!(starved.avg_round_trip, None);
        assert_eq!(starved.throughput, 0.0);
        let healthy = domain_outcome(&stats, &[FlowId(2), FlowId(3)], 100);
        assert!(!healthy.starved());
        assert_eq!(healthy.avg_round_trip, Some(30.0));

        // Every ratio involving a starved side is refused.
        assert_eq!(slowdown(&starved, &healthy), None);
        assert_eq!(slowdown(&healthy, &starved), None);
        let ratio = slowdown(&healthy, &healthy).expect("healthy ratio exists");
        assert!((ratio - 1.0).abs() < 1e-12 && ratio.is_finite());

        let result = ChipIsolationResult {
            protected: healthy,
            unprotected: starved,
            solo: healthy,
            protected_hog: healthy,
        };
        assert_eq!(result.unprotected_slowdown(), None);
        assert!(result.protected_slowdown().unwrap().is_finite());
    }

    #[test]
    fn qos_area_saving_matches_the_router_fraction() {
        let chip = ChipConfig::paper_8x8().build();
        let report = chip_qos_area(&chip);
        assert!(report.per_router_mm2 > 0.0);
        assert!((report.saving_fraction - 0.875).abs() < 1e-12);
        assert!(
            (report.column_confined_mm2 / report.chip_wide_mm2 - 0.125).abs() < 1e-12,
            "confined area should be 1/8 of chip-wide"
        );
    }
}
