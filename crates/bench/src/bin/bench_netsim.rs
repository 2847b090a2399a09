//! Simulator throughput harness: cycles per second of the netsim hot path.
//!
//! Runs each benchmark case with the optimized engine (slab packet store,
//! timing-wheel event queue, incremental arbitration request lists,
//! active-set tracking) and with the reference engine (the seed
//! implementation's hash-map store, binary-heap queue and full scans; it
//! makes 0-3 allocations per 10 000 steady-state cycles, as the optimized
//! engine makes a handful), cross-checks that both produced identical statistics,
//! prints a table and writes `BENCH_netsim.json` so future changes have a
//! performance trajectory to regress against. The cases:
//!
//! * `mesh_8x8` — the chip-scale 8×8 mesh (the headline case, 64 routers,
//!   one injector per node) under open-loop uniform random + PVC;
//! * `chip_8x8` — the hybrid chip fabric (mesh + per-row MECS express
//!   channels + shared-column QOS overlay) under its open-loop
//!   memory-access workload;
//! * `chip_closed_8x8` — the same fabric under the **closed-loop
//!   request/reply workload**: MLP-limited requesters, controller reply
//!   ports, round trips measured end to end;
//! * `chip_dram_8x8` — the closed loop with **DRAM-backed controllers**:
//!   address-interleaved banks, row-buffer hit/miss latencies and bounded
//!   request queues behind every column memory controller;
//! * `chip_dram_frfcfs_8x8` — the same DRAM-backed loop with the
//!   rate-scaled **FR-FCFS + priority-admission** scheduler (row-hit-first
//!   bank scheduling, priority-weighted age cap, lowest-priority eviction
//!   on overflow) at every controller;
//! * `chip_fault_8x8` — the closed loop on a **failing fabric**: two
//!   permanently dead reply-path links (routed around at build time),
//!   3% flit corruption recovered via NACK-retransmit, a transient
//!   memory-controller outage window, and deadline/retry recovery at
//!   every requester;
//! * `chip_incast_8x8` — the closed loop under **bursty incast**: every
//!   requester converges on one column controller, the attackers breathe
//!   through on/off phase schedules (exercising the per-cycle phase hook)
//!   while a single MLP-1 victim shares the controller;
//! * `chip_weighted_8x8` — the closed loop with **heterogeneous PVC
//!   rates**: row-banded weights (8:4:1) instead of equal shares, the
//!   weighted-VM configuration of the adversarial experiments;
//! * `chip_16x16_cols2` / `chip_16x16_cols4` — multi-column 16×16 chips
//!   (256 routers) under the closed loop, at a quarter of the cycle budget
//!   (cycles/sec stays comparable);
//! * the five column topology families (mesh x1/x2/x4, MECS, DPS; the
//!   paper's 8-node / 64-injector shared region) under uniform random.
//!
//! Wall time per engine is the **median of `--repeat` runs** (min is also
//! recorded): run-to-run noise on a busy machine was observed at ±20%, so
//! single-shot figures are not comparable across commits.
//!
//! Every timed run executes with telemetry **off** (the hot path stays
//! allocation-free); `--trace-out FILE` / `--series-out FILE` add one extra
//! *untimed* instrumented run of the first selected case that exports a
//! flit-level trace (`.jsonl` → JSON-lines events, anything else → a Chrome
//! trace viewable in Perfetto) and/or the per-frame time series.
//!
//! ```text
//! cargo run --release -p taqos-bench --bin bench_netsim
//! cargo run --release -p taqos-bench --bin bench_netsim -- --quick
//! cargo run --release -p taqos-bench --bin bench_netsim -- --cycles 200000 --repeat 5 --out BENCH_netsim.json
//! cargo run --release -p taqos-bench --bin bench_netsim -- --quick --filter chip_8x8 --trace-out chip.trace.json --series-out chip.series.jsonl
//! ```

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use std::time::Instant;
use taqos_bench::{cell, rule, CliArgs};
use taqos_core::chip_sim::ChipSim;
use taqos_core::experiment::chip_scale::chip_fault_bench_plan;
use taqos_core::shared_region::SharedRegionSim;
use taqos_netsim::closed_loop::{DramConfig, DramScheduler, RetryPolicy};
use taqos_netsim::config::EngineKind;
use taqos_netsim::network::Network;
use taqos_netsim::qos::QosPolicy;
use taqos_netsim::stats::NetStats;
use taqos_netsim::{ChromeTraceSink, JsonlSink, SimConfig, TelemetryConfig, TraceSink};
use taqos_qos::pvc::PvcPolicy;
use taqos_qos::rates::RateAllocation;
use taqos_topology::column::ColumnTopology;
use taqos_topology::grid::Coord;
use taqos_topology::mesh2d::Mesh2dConfig;
use taqos_traffic::injection::PacketSizeMix;
use taqos_traffic::workloads;

/// Injection rate in flits/cycle/injector: comfortably below saturation so
/// the run measures steady-state forwarding work, not queue growth.
const DEFAULT_RATE: f64 = 0.08;
/// MLP window of every requester in the closed-loop cases.
const CLOSED_LOOP_MLP: usize = 4;
const SEED: u64 = 1;
/// Frame cadence of the instrumented `--trace-out`/`--series-out` run.
const EXPORT_FRAME_LEN: u64 = 500;
/// On/off cadence of the bursty incast attackers: `INCAST_BURST_ON` cycles
/// of attack out of every `INCAST_BURST_PERIOD`-cycle period.
const INCAST_BURST_PERIOD: u64 = 1_000;
const INCAST_BURST_ON: u64 = 400;
/// Per-row PVC weight bands of the weighted case (rows 0-1 / 2-4 / rest).
const WEIGHT_BANDS: [f64; 3] = [8.0, 4.0, 1.0];

/// Row-banded heterogeneous rates for the weighted case: rows 0-1 weigh
/// `WEIGHT_BANDS[0]`, rows 2-4 `WEIGHT_BANDS[1]`, the rest
/// `WEIGHT_BANDS[2]`, normalised to a total rate of one.
fn weighted_chip_rates(sim: &ChipSim) -> RateAllocation {
    let config = sim.config();
    let mut weights = Vec::with_capacity(config.num_nodes());
    for y in 0..config.height {
        let band = if y < 2 {
            WEIGHT_BANDS[0]
        } else if y < 5 {
            WEIGHT_BANDS[1]
        } else {
            WEIGHT_BANDS[2]
        };
        weights.extend(std::iter::repeat_n(band, config.width));
    }
    let total: f64 = weights.iter().sum();
    RateAllocation::from_rates(weights.into_iter().map(|w| w / total).collect())
}

struct EngineRun {
    cycles_per_sec: f64,
    wall_median_secs: f64,
    wall_min_secs: f64,
    stats: NetStats,
}

/// One benchmark case: a column topology, the plain chip-scale 8x8 mesh, the
/// hybrid chip fabric (mesh + MECS express + shared-column QOS overlay) under
/// open-loop or closed-loop traffic (instant or DRAM-backed controllers), or
/// a multi-column 16x16 chip under the closed loop.
#[derive(Debug, Clone, Copy)]
enum BenchCase {
    Mesh8x8,
    Chip8x8,
    ChipClosed8x8,
    ChipDram8x8,
    ChipDramFrfcfs8x8,
    ChipFault8x8,
    ChipIncast8x8,
    ChipWeighted8x8,
    ChipClosed16x16 { columns: usize },
    Column(ColumnTopology),
}

impl BenchCase {
    fn name(self) -> &'static str {
        match self {
            BenchCase::Mesh8x8 => "mesh_8x8",
            BenchCase::Chip8x8 => "chip_8x8",
            BenchCase::ChipClosed8x8 => "chip_closed_8x8",
            BenchCase::ChipDram8x8 => "chip_dram_8x8",
            BenchCase::ChipDramFrfcfs8x8 => "chip_dram_frfcfs_8x8",
            BenchCase::ChipFault8x8 => "chip_fault_8x8",
            BenchCase::ChipIncast8x8 => "chip_incast_8x8",
            BenchCase::ChipWeighted8x8 => "chip_weighted_8x8",
            BenchCase::ChipClosed16x16 { columns: 2 } => "chip_16x16_cols2",
            BenchCase::ChipClosed16x16 { columns: 4 } => "chip_16x16_cols4",
            BenchCase::ChipClosed16x16 { .. } => "chip_16x16",
            BenchCase::Column(topology) => topology.name(),
        }
    }

    /// Workload pattern of the case, recorded per row in the JSON report.
    fn workload_name(self) -> &'static str {
        match self {
            BenchCase::Chip8x8 => "nearest_mc_fixed",
            BenchCase::ChipClosed8x8
            | BenchCase::ChipDram8x8
            | BenchCase::ChipDramFrfcfs8x8
            | BenchCase::ChipWeighted8x8
            | BenchCase::ChipClosed16x16 { .. } => "nearest_mc_mlp",
            BenchCase::ChipFault8x8 => "nearest_mc_mlp_retry",
            BenchCase::ChipIncast8x8 => "incast_bursty_mlp",
            _ => "uniform_random",
        }
    }

    /// QOS policy of the case, recorded per row in the JSON report.
    fn policy_name(self) -> &'static str {
        match self {
            BenchCase::Chip8x8
            | BenchCase::ChipClosed8x8
            | BenchCase::ChipDram8x8
            | BenchCase::ChipDramFrfcfs8x8
            | BenchCase::ChipFault8x8
            | BenchCase::ChipIncast8x8
            | BenchCase::ChipClosed16x16 { .. } => "pvc@columns",
            BenchCase::ChipWeighted8x8 => "pvc@columns_weighted",
            _ => "pvc",
        }
    }

    /// Weight/phase parameters of the heterogeneous cases, recorded per row
    /// in the JSON report (from the same constants `build` installs) so
    /// regenerated baselines self-describe what actually ran.
    fn workload_spec(self) -> String {
        match self {
            BenchCase::ChipIncast8x8 => format!(
                "{{ \"victim\": \"node (0,4), mlp {}\", \
                 \"attacker_mlp\": {}, \
                 \"burst_period\": {INCAST_BURST_PERIOD}, \
                 \"burst_on\": {INCAST_BURST_ON}, \
                 \"pattern\": \"all-to-one column controller, seeded bursty phases\" }}",
                ChipSim::INCAST_VICTIM_MLP,
                ChipSim::INCAST_ATTACKER_MLP
            ),
            BenchCase::ChipWeighted8x8 => format!(
                "{{ \"weights\": \"rows 0-1:{}, rows 2-4:{}, rest:{} (normalised)\" }}",
                WEIGHT_BANDS[0], WEIGHT_BANDS[1], WEIGHT_BANDS[2]
            ),
            _ => "null".to_string(),
        }
    }

    /// DRAM controller model of the case, if any. This is the single source
    /// of truth: `build` installs exactly this configuration and the JSON
    /// report records it (scheduler, page policy and age cap included), so
    /// regenerated baselines are self-describing and cannot desync from
    /// what actually ran.
    fn dram_config(self) -> Option<DramConfig> {
        match self {
            BenchCase::ChipDram8x8 => {
                Some(ChipSim::paper_default().topology_dram(DramConfig::paper()))
            }
            BenchCase::ChipDramFrfcfs8x8 => Some(
                ChipSim::paper_default()
                    .topology_dram(DramConfig::paper())
                    .with_scheduler(DramScheduler::FrFcfs),
            ),
            _ => None,
        }
    }

    /// Cycle budget of the case: the 256-router 16x16 chips run a quarter of
    /// the base budget (cycles/sec normalises the comparison anyway).
    fn cycles(self, base: u64) -> u64 {
        match self {
            BenchCase::ChipClosed16x16 { .. } => (base / 4).max(1),
            _ => base,
        }
    }

    /// Builds the case's network. `horizon` is the cycle budget the caller
    /// will run — the bursty incast case's attackers start no burst at or
    /// after it (the schedules are closed forms; their cost does not depend
    /// on the horizon).
    fn build(
        self,
        engine: EngineKind,
        rate: f64,
        telemetry: TelemetryConfig,
        horizon: u64,
    ) -> Network {
        let sim_config = SimConfig::default()
            .with_engine(engine)
            .with_telemetry(telemetry);
        match self {
            BenchCase::Mesh8x8 => {
                let config = Mesh2dConfig::paper_8x8();
                let spec = config.build();
                let generators = workloads::uniform_random_terminals(
                    config.num_nodes(),
                    rate,
                    PacketSizeMix::paper(),
                    SEED,
                );
                let policy: Box<dyn QosPolicy> =
                    Box::new(PvcPolicy::equal_rates(config.num_nodes()));
                Network::new(spec, policy, generators, sim_config).expect("mesh builds")
            }
            BenchCase::Chip8x8 => {
                // The hybrid fabric under its common-case workload: every
                // non-column node streams memory requests to the controller
                // on its own row of the shared column, over the MECS express
                // channels, with PVC confined to the column routers.
                let sim = ChipSim::paper_default().with_sim_config(sim_config);
                let plan = sim.nearest_mc_plan(rate);
                let generators = workloads::per_node_fixed(&plan, PacketSizeMix::paper(), SEED);
                sim.build(sim.default_policy(), generators)
                    .expect("chip builds")
            }
            BenchCase::ChipClosed8x8 => {
                // The closed loop on the paper chip: MLP-limited requesters
                // against their nearest controller, replies returning down
                // the column and out over the mesh.
                let sim = ChipSim::paper_default().with_sim_config(sim_config);
                let plan = sim.nearest_mc_mlp_plan(CLOSED_LOOP_MLP);
                sim.build_closed_loop(sim.default_policy(), workloads::mlp_closed_loop(&plan))
                    .expect("closed-loop chip builds")
            }
            BenchCase::ChipDram8x8 | BenchCase::ChipDramFrfcfs8x8 => {
                // The DRAM-backed closed loop: bank timelines, row buffers
                // and bounded controller queues behind the same fabric —
                // FCFS controllers or rate-scaled FR-FCFS with priority
                // admission, per the case's `dram_config`.
                let dram = self.dram_config().expect("DRAM case has a config");
                let sim = ChipSim::paper_default()
                    .with_sim_config(sim_config)
                    .with_dram(dram);
                let plan = sim.nearest_mc_mlp_plan(CLOSED_LOOP_MLP);
                sim.build_closed_loop(sim.default_policy(), workloads::mlp_closed_loop(&plan))
                    .expect("DRAM-backed closed-loop chip builds")
            }
            BenchCase::ChipFault8x8 => {
                // The closed loop on a failing fabric: dead reply-path links
                // are rerouted at build time; corruption drops and the
                // controller outage are recovered at runtime through
                // NACK-retransmit and the requesters' deadline/retry layer.
                let sim = ChipSim::paper_default().with_sim_config(sim_config);
                let plan = chip_fault_bench_plan(&sim, SEED);
                let sim = sim.with_fault_plan(plan);
                let mlp_plan = sim.nearest_mc_mlp_plan(CLOSED_LOOP_MLP);
                let spec =
                    workloads::mlp_closed_loop(&mlp_plan).with_retry(RetryPolicy::new(2_000, 4));
                sim.build_closed_loop(sim.default_policy(), spec)
                    .expect("faulted closed-loop chip builds")
            }
            BenchCase::ChipIncast8x8 => {
                // Bursty incast: every requester converges on the victim
                // row's column controller; the attackers switch between
                // full-MLP bursts and silence on seeded on/off schedules
                // (driving the per-cycle phase hook), while an MLP-1 victim
                // shares the controller throughout.
                let sim = ChipSim::paper_default().with_sim_config(sim_config);
                let (plan, hogs) = sim.incast_plan(Coord::new(0, 4));
                let phases = workloads::bursty_hogs(
                    plan.len(),
                    &hogs,
                    ChipSim::INCAST_ATTACKER_MLP,
                    INCAST_BURST_PERIOD,
                    INCAST_BURST_ON,
                    horizon,
                    SEED,
                );
                let spec = workloads::mlp_closed_loop(&plan).with_phases(phases);
                sim.build_closed_loop(sim.default_policy(), spec)
                    .expect("incast chip builds")
            }
            BenchCase::ChipWeighted8x8 => {
                // Heterogeneous tenants: the same closed loop as
                // chip_closed_8x8, but PVC programmed with row-banded
                // weights instead of equal shares.
                let sim = ChipSim::paper_default().with_sim_config(sim_config);
                let plan = sim.nearest_mc_mlp_plan(CLOSED_LOOP_MLP);
                let rates = weighted_chip_rates(&sim);
                sim.build_closed_loop(
                    sim.weighted_policy(rates),
                    workloads::mlp_closed_loop(&plan),
                )
                .expect("weighted closed-loop chip builds")
            }
            BenchCase::ChipClosed16x16 { columns } => {
                let sim = ChipSim::multi_column(16, 16, columns).with_sim_config(sim_config);
                let plan = sim.nearest_mc_mlp_plan(CLOSED_LOOP_MLP);
                sim.build_closed_loop(sim.default_policy(), workloads::mlp_closed_loop(&plan))
                    .expect("closed-loop multi-column chip builds")
            }
            BenchCase::Column(topology) => {
                let sim = SharedRegionSim::new(topology).with_sim_config(sim_config);
                let generators =
                    workloads::uniform_random(sim.column(), rate, PacketSizeMix::paper(), SEED);
                let policy: Box<dyn QosPolicy> =
                    Box::new(PvcPolicy::equal_rates(sim.column().num_flows()));
                sim.build(policy, generators).expect("column builds")
            }
        }
    }
}

fn run_engine(
    case: BenchCase,
    engine: EngineKind,
    cycles: u64,
    rate: f64,
    repeat: u32,
) -> EngineRun {
    // Median-of-N sampling: single-shot wall times vary by +-20% run-to-run
    // on a shared machine; the median is the stable figure (the min is also
    // recorded as the optimistic bound). Every repeat simulates the
    // identical run (same seed), so one repeat's statistics stand for all of
    // them — a claim the loop *verifies* instead of assuming: a repeat whose
    // statistics diverge from the first means the simulator is
    // nondeterministic (or shares state across runs), and every figure in
    // the report would be suspect.
    let mut walls = Vec::with_capacity(repeat.max(1) as usize);
    let mut stats: Option<NetStats> = None;
    for repeat_idx in 0..repeat.max(1) {
        // Timed runs always measure the production configuration: telemetry
        // off, hot loop allocation- and branch-free.
        let mut network = case.build(engine, rate, TelemetryConfig::off(), cycles);
        let start = Instant::now();
        network.run_for(cycles);
        walls.push(start.elapsed().as_secs_f64());
        let run_stats = network.into_stats();
        match &stats {
            None => stats = Some(run_stats),
            Some(first) => assert_eq!(
                first,
                &run_stats,
                "{} ({engine:?}) repeat {repeat_idx} diverged from repeat 0: \
                 identical seeds must produce identical statistics",
                case.name()
            ),
        }
    }
    walls.sort_by(f64::total_cmp);
    let median = if walls.len() % 2 == 1 {
        walls[walls.len() / 2]
    } else {
        (walls[walls.len() / 2 - 1] + walls[walls.len() / 2]) / 2.0
    };
    EngineRun {
        cycles_per_sec: cycles as f64 / median,
        wall_median_secs: median,
        wall_min_secs: walls[0],
        stats: stats.expect("at least one repeat"),
    }
}

struct TopologyResult {
    case: BenchCase,
    optimized: EngineRun,
    reference: EngineRun,
}

impl TopologyResult {
    fn speedup(&self) -> f64 {
        self.optimized.cycles_per_sec / self.reference.cycles_per_sec
    }
}

fn main() {
    let args = CliArgs::from_env();
    let cycles: u64 = if args.has_flag("quick") {
        args.value_or("cycles", 20_000)
    } else {
        args.value_or("cycles", 200_000)
    };
    // A filtered run produces a partial report; never let it silently
    // overwrite the committed full baseline through the default path.
    let out_path = match (args.value("out"), args.value("filter")) {
        (Some(out), _) => out.to_string(),
        (None, Some(_)) => "BENCH_netsim.filtered.json".to_string(),
        (None, None) => "BENCH_netsim.json".to_string(),
    };
    let rate: f64 = args.value_or("rate", DEFAULT_RATE);
    // `--samples` is the historical name of the knob; `--repeat` wins.
    let repeat: u32 = args.value_or("repeat", args.value_or("samples", 3));
    // `--check` asserts on the mesh_8x8 headline, so a filter that excludes
    // it is a usage error — fail before running anything.
    if args.has_flag("check") {
        if let Some(filter) = args.value("filter") {
            if !"mesh_8x8".contains(filter) {
                eprintln!("--check requires the mesh_8x8 case, excluded by --filter {filter}");
                std::process::exit(2);
            }
        }
    }
    let cases = [
        BenchCase::Mesh8x8,
        BenchCase::Chip8x8,
        BenchCase::ChipClosed8x8,
        BenchCase::ChipDram8x8,
        BenchCase::ChipDramFrfcfs8x8,
        BenchCase::ChipFault8x8,
        BenchCase::ChipIncast8x8,
        BenchCase::ChipWeighted8x8,
        BenchCase::ChipClosed16x16 { columns: 2 },
        BenchCase::ChipClosed16x16 { columns: 4 },
        BenchCase::Column(ColumnTopology::MeshX1),
        BenchCase::Column(ColumnTopology::MeshX2),
        BenchCase::Column(ColumnTopology::MeshX4),
        BenchCase::Column(ColumnTopology::Mecs),
        BenchCase::Column(ColumnTopology::Dps),
    ];

    println!(
        "netsim throughput: {cycles} cycles @ {rate} flits/cycle/injector, median of {repeat}; \
         uniform random + PVC (columns, meshes), nearest-MC + column-scoped PVC (chip_8x8), \
         MLP-{CLOSED_LOOP_MLP} closed loop (chip_closed_8x8, chip_dram_8x8 with DRAM-backed \
         controllers, chip_dram_frfcfs_8x8 with FR-FCFS + priority admission, \
         chip_fault_8x8 on a failing fabric with retry recovery, \
         chip_incast_8x8 all-to-one with bursty phased attackers, \
         chip_weighted_8x8 with row-banded 8:4:1 PVC rates, \
         chip_16x16_cols2/4 at cycles/4)"
    );
    println!("{}", rule(108));
    println!(
        "{:<16} {:>14} {:>14} {:>9}   {:>10} {:>10} {:>10} {:>10}",
        "topology",
        "optimized c/s",
        "reference c/s",
        "speedup",
        "opt med s",
        "opt min s",
        "ref med s",
        "ref min s"
    );
    println!("{}", rule(108));

    let mut results = Vec::new();
    for case in cases {
        // `--filter substring` restricts the run to matching cases (handy
        // when chasing one case's regression).
        if let Some(filter) = args.value("filter") {
            if !case.name().contains(filter) {
                continue;
            }
        }
        let case_cycles = case.cycles(cycles);
        let optimized = run_engine(case, EngineKind::Optimized, case_cycles, rate, repeat);
        let reference = run_engine(case, EngineKind::Reference, case_cycles, rate, repeat);
        assert_eq!(
            optimized.stats,
            reference.stats,
            "engines diverged on {}: the optimized engine is NOT equivalent",
            case.name()
        );
        let result = TopologyResult {
            case,
            optimized,
            reference,
        };
        println!(
            "{:<16} {:>14} {:>14} {:>8}x   {} {} {} {}",
            result.case.name(),
            format!("{:.0}", result.optimized.cycles_per_sec),
            format!("{:.0}", result.reference.cycles_per_sec),
            format!("{:.2}", result.speedup()),
            cell(result.optimized.wall_median_secs, 10, 3),
            cell(result.optimized.wall_min_secs, 10, 3),
            cell(result.reference.wall_median_secs, 10, 3),
            cell(result.reference.wall_min_secs, 10, 3),
        );
        results.push(result);
    }
    println!("{}", rule(108));

    let headline = results
        .iter()
        .find(|r| matches!(r.case, BenchCase::Mesh8x8))
        .map(TopologyResult::speedup);
    let min_speedup = results
        .iter()
        .map(TopologyResult::speedup)
        .fold(f64::INFINITY, f64::min);
    if let Some(headline) = headline {
        println!(
            "8x8 mesh speedup: {headline:.2}x (target >= 3x); minimum across all cases: {min_speedup:.2}x"
        );
    }

    let json = render_json(cycles, rate, repeat, &results);
    std::fs::write(&out_path, json).expect("write benchmark report");
    println!("wrote {out_path}");

    // `--trace-out` / `--series-out` export observability artifacts from one
    // extra untimed instrumented run of the first selected case.
    let trace_out = args.value("trace-out");
    let series_out = args.value("series-out");
    if trace_out.is_some() || series_out.is_some() {
        match results.first().map(|r| r.case) {
            Some(case) => export_instrumented(case, cycles, rate, trace_out, series_out),
            None => eprintln!("--trace-out/--series-out ignored: no case matched the filter"),
        }
    }

    // The adversarial cases carry a functional oracle on top of the engine
    // cross-check: an incast or weighted run that delivers nothing is a
    // broken workload, however fast it simulated. Deterministic, so checked
    // unconditionally (the speedup targets stay behind `--check`).
    for result in &results {
        if matches!(
            result.case,
            BenchCase::ChipIncast8x8 | BenchCase::ChipWeighted8x8
        ) {
            assert!(
                result.optimized.stats.delivered_packets > 0,
                "{} delivered no packets — the workload is wired wrong",
                result.case.name()
            );
        }
        // Row-locality oracle for the DRAM-backed cases: each requester
        // streams its private region in row-major line order, so the open
        // rows must see substantial reuse. A near-zero hit rate means the
        // address mapping is scattering the stream again (the regression
        // this guard was added for reported 0 hits in 266k services while
        // the baseline claimed double-digit rates).
        if result.case.dram_config().is_some() {
            let ds = &result.optimized.stats.dram;
            assert!(
                ds.serviced_requests > 0,
                "{} serviced no DRAM requests — the workload is wired wrong",
                result.case.name()
            );
            let hit_rate = ds.row_hits as f64 / ds.serviced_requests as f64;
            assert!(
                hit_rate >= 0.05,
                "{} DRAM row-hit rate {:.1}% is degenerate (< 5%): \
                 row locality is broken in the address mapping or scheduler",
                result.case.name(),
                100.0 * hit_rate
            );
        }
    }

    if args.has_flag("check") {
        let headline = headline.expect("--check requires the mesh_8x8 case");
        if headline < 3.0 {
            eprintln!("FAIL: 8x8 mesh speedup {headline:.2}x below the 3x target");
            std::process::exit(1);
        }
    }
}

/// One extra *untimed* run of `case` with telemetry fully enabled, exporting
/// the flit-level trace and/or the per-frame time series. Kept out of the
/// timed loop so instrumentation can never pollute the recorded figures.
/// `.jsonl` trace paths get raw JSON-lines events; any other extension gets a
/// Chrome trace (load it at <https://ui.perfetto.dev>).
fn export_instrumented(
    case: BenchCase,
    cycles: u64,
    rate: f64,
    trace_out: Option<&str>,
    series_out: Option<&str>,
) {
    let telemetry = TelemetryConfig::off()
        .with_histograms(true)
        .with_frames(EXPORT_FRAME_LEN)
        .with_max_frames((cycles / EXPORT_FRAME_LEN).max(1) as usize);
    let mut network = case.build(EngineKind::Optimized, rate, telemetry, case.cycles(cycles));
    if let Some(path) = trace_out {
        let file = BufWriter::new(File::create(path).expect("create trace file"));
        let sink: Box<dyn TraceSink> = if path.ends_with(".jsonl") {
            Box::new(JsonlSink::new(file))
        } else {
            Box::new(ChromeTraceSink::new(file))
        };
        network = network.with_trace_sink(sink);
    }
    network.run_for(case.cycles(cycles));
    if let Some(mut sink) = network.take_trace_sink() {
        sink.finish().expect("flush trace file");
    }
    let stats = network.into_stats();
    if let Some(path) = trace_out {
        println!(
            "wrote {path} (flit-level trace of {}, untimed run)",
            case.name()
        );
    }
    if let Some(path) = series_out {
        let series = stats.frames.as_ref().expect("frame series enabled");
        let mut out = String::new();
        for snap in &series.frames {
            let _ = write!(
                out,
                "{{\"frame\":{},\"cycle\":{},\"flows\":[",
                snap.frame, snap.cycle
            );
            for (f, flow) in snap.flows.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"flow\":{f},\"injected_packets\":{},\"delivered_flits\":{},\
                     \"latency_sum\":{},\"latency_samples\":{},\"round_trips\":{},\
                     \"rt_latency_sum\":{},\"rt_samples\":{}}}",
                    if f == 0 { "" } else { "," },
                    flow.injected_packets,
                    flow.delivered_flits,
                    flow.latency_sum,
                    flow.latency_samples,
                    flow.round_trips,
                    flow.rt_latency_sum,
                    flow.rt_samples,
                );
            }
            out.push_str("],\"router_occupancy\":[");
            for (i, occ) in snap.router_occupancy.iter().enumerate() {
                let _ = write!(out, "{}{occ}", if i == 0 { "" } else { "," });
            }
            out.push_str("],\"link_flits\":[");
            for (i, flits) in snap.link_flits.iter().enumerate() {
                let _ = write!(out, "{}{flits}", if i == 0 { "" } else { "," });
            }
            out.push_str("]}\n");
        }
        std::fs::write(path, out).expect("write series file");
        println!(
            "wrote {path} ({} frames of {} cycles each from {}, {} dropped)",
            series.len(),
            series.frame_len,
            case.name(),
            series.dropped_frames,
        );
    }
}

fn render_json(cycles: u64, rate: f64, repeat: u32, results: &[TopologyResult]) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"netsim_cycles_per_sec\",\n");
    let _ = writeln!(json, "  \"cycles\": {cycles},");
    let _ = writeln!(json, "  \"repeat\": {repeat},");
    let _ = writeln!(
        json,
        "  \"workload\": {{ \"rate_flits_per_cycle\": {rate}, \"mix\": \"paper\", \
         \"closed_loop_mlp\": {CLOSED_LOOP_MLP}, \"seed\": {SEED} }},"
    );
    json.push_str("  \"topologies\": [\n");
    for (i, result) in results.iter().enumerate() {
        // DRAM-backed cases record their controller model so regenerated
        // baselines are self-describing.
        let dram = match result.case.dram_config() {
            Some(d) => format!(
                "{{ \"banks\": {}, \"row_hit_latency\": {}, \"row_miss_latency\": {}, \
                 \"queue_depth\": {}, \"lines_per_row\": {}, \"backpressure\": \"{:?}\", \
                 \"scheduler\": \"{:?}\", \"page_policy\": \"{:?}\", \"age_cap\": {} }}",
                d.banks,
                d.row_hit_latency,
                d.row_miss_latency,
                d.queue_depth,
                d.lines_per_row,
                d.backpressure,
                d.scheduler,
                d.page_policy,
                d.age_cap,
            ),
            None => "null".to_string(),
        };
        // The controller and fault-layer outcome of the run rides along in
        // every row (all-zero objects without a DRAM model / fault plan), so
        // a regenerated baseline records *what the fabric did*, not only how
        // fast it simulated.
        let ds = &result.optimized.stats.dram;
        let dram_stats = format!(
            "{{ \"serviced_requests\": {}, \"row_hits\": {}, \"row_misses\": {}, \
             \"rejected_requests\": {}, \"evicted_requests\": {}, \"stalled_requests\": {}, \
             \"queue_wait_sum\": {}, \"max_queue_wait\": {}, \"max_queue_occupancy\": {}, \
             \"bank_busy_cycles\": {} }}",
            ds.serviced_requests,
            ds.row_hits,
            ds.row_misses,
            ds.rejected_requests,
            ds.evicted_requests,
            ds.stalled_requests,
            ds.queue_wait_sum,
            ds.max_queue_wait,
            ds.max_queue_occupancy,
            ds.bank_busy_cycles,
        );
        let fs = &result.optimized.stats.fault;
        let fault_stats = format!(
            "{{ \"link_drops\": {}, \"router_drops\": {}, \"corruption_drops\": {}, \
             \"mc_outage_rejections\": {}, \"abandoned_packets\": {} }}",
            fs.link_drops,
            fs.router_drops,
            fs.corruption_drops,
            fs.mc_outage_rejections,
            fs.abandoned_packets,
        );
        let _ = write!(
            json,
            "    {{ \"topology\": \"{}\", \"pattern\": \"{}\", \"policy\": \"{}\", \
             \"dram\": {}, \"workload_spec\": {}, \"cycles\": {}, \
             \"optimized_cycles_per_sec\": {:.1}, \
             \"reference_cycles_per_sec\": {:.1}, \"speedup\": {:.3}, \
             \"optimized_wall_median_s\": {:.4}, \"optimized_wall_min_s\": {:.4}, \
             \"reference_wall_median_s\": {:.4}, \"reference_wall_min_s\": {:.4}, \
             \"delivered_packets\": {}, \
             \"dram_stats\": {}, \"fault_stats\": {} }}",
            result.case.name(),
            result.case.workload_name(),
            result.case.policy_name(),
            dram,
            result.case.workload_spec(),
            result.case.cycles(cycles),
            result.optimized.cycles_per_sec,
            result.reference.cycles_per_sec,
            result.speedup(),
            result.optimized.wall_median_secs,
            result.optimized.wall_min_secs,
            result.reference.wall_median_secs,
            result.reference.wall_min_secs,
            result.optimized.stats.delivered_packets,
            dram_stats,
            fault_stats,
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    json
}
