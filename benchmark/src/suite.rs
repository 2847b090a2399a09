//! Workload 6, `experiments_quick`: the paper-reproduction library.
//!
//! One thread calls every experiment a user regenerates figures with, at
//! its `quick()` configuration: hundreds of short simulations on the
//! paper's column topologies and the chip, driven to saturation and
//! preemption. The `core` facades and `Network::new` are a large share of
//! the time here and negligible on the engine workloads. Every experiment
//! that takes a seed takes it from `--seed`.
//!
//! An experiment's *checks* are claims it already exposes
//! (`AttackReport::holds()`, `DomainOutcome::starved()`, share-error
//! tolerances): they are this workload's correctness oracle.

use crate::clock::{timed, Stopwatch};
use crate::engine::peak_rss_mib;
use crate::manifest::experiment_metric;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::p10;
use taqos_core::experiment::ablation::{
    frame_length_sweep, reserved_quota_ablation, vc_count_sweep,
};
use taqos_core::experiment::adversarial::{
    attack_battery, migration_experiment, weighted_vm_experiment, AttackConfig, MigrationConfig,
    WeightedVmConfig,
};
use taqos_core::experiment::chip_scale::{
    chip_isolation, degradation_under_faults, latency_under_load, mlp_mix_divergence,
    multi_column_scaling, ChipIsolationConfig, ColumnScalingConfig, DegradationConfig,
    LatencyLoadConfig, MlpMixConfig,
};
use taqos_core::experiment::differentiated::{sla_experiment, SlaConfig};
use taqos_core::experiment::energy_area::{area_report, energy_report};
use taqos_core::experiment::fairness::{table2, FairnessConfig};
use taqos_core::experiment::latency::{latency_sweep, SweepConfig, SweepPattern};
use taqos_core::experiment::preemption::{
    preemption_figure, AdversarialConfig, AdversarialWorkload,
};
use taqos_netsim::closed_loop::DramConfig;
use taqos_netsim::sim::OpenLoopConfig;
use taqos_topology::column::{ColumnConfig, ColumnTopology};
use taqos_topology::properties::bisection_bandwidth_bytes;

/// Load points of the quick latency sweep, in flits/cycle/injector: one
/// below, one near and one past the baseline mesh's saturation.
const SWEEP_RATES: [f64; 3] = [0.02, 0.08, 0.14];
/// Share error the quick SLA and weighted-VM windows are held to. The full
/// configurations hold 0.7 %; an 8k-cycle window is noisier.
const SHARE_TOLERANCE: f64 = 0.25;

/// Outcome of one experiment call: checks evaluated and checks that failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that were false.
    pub failed: u64,
}

impl Checks {
    fn expect(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another experiment's checks to this tally.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One library call of the suite: its metric name and the call itself.
pub struct Experiment {
    /// Name; the per-layer metric is `core.exp.<name>_s`.
    pub name: &'static str,
    run: fn(u64) -> Checks,
}

impl Experiment {
    /// Runs the experiment at `seed`; returns its checks and host seconds.
    pub fn run(&self, seed: u64) -> (Checks, f64) {
        timed(|| (self.run)(seed))
    }
}

/// A configuration's base seed varied by the benchmark seed. The multiplier
/// spreads neighbouring benchmark seeds over all 64 bits.
fn mix(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The suite, in the order the paper presents its artefacts.
pub const EXPERIMENTS: [Experiment; 15] = [
    Experiment {
        name: "latency_sweep",
        run: |seed| {
            let mut config = SweepConfig::quick();
            config.seed = mix(config.seed, seed);
            let points = latency_sweep(
                SweepPattern::UniformRandom,
                &ColumnTopology::all(),
                &SWEEP_RATES,
                &config,
            );
            let mut checks = Checks::default();
            for p in &points {
                checks.expect(p.avg_latency > 0.0 && p.accepted_flits_per_cycle > 0.0);
            }
            checks
        },
    },
    Experiment {
        name: "table2",
        run: |seed| {
            let mut config = FairnessConfig::quick();
            config.seed = mix(config.seed, seed);
            let mut checks = Checks::default();
            for row in table2(&config) {
                checks.expect(row.min_pct_of_mean() > 0.0);
            }
            checks
        },
    },
    Experiment {
        name: "preemption_figure",
        run: |seed| {
            let mut config = AdversarialConfig::quick();
            config.seed = mix(config.seed, seed);
            let mut checks = Checks::default();
            match preemption_figure(AdversarialWorkload::Workload1, &config) {
                Ok(rows) => {
                    for row in rows {
                        checks.expect((0.0..=1.0).contains(&row.preempted_packet_fraction));
                    }
                }
                Err(_) => checks.expect(false),
            }
            checks
        },
    },
    Experiment {
        name: "sla_experiment",
        run: |seed| {
            let mut config = SlaConfig::quick();
            config.seed = mix(config.seed, seed);
            let mut checks = Checks::default();
            for topology in ColumnTopology::all() {
                let result = sla_experiment(topology, &config);
                checks.expect(result.worst_share_error < SHARE_TOLERANCE);
            }
            checks
        },
    },
    Experiment {
        name: "frame_length_sweep",
        run: |seed| {
            let points = frame_length_sweep(
                ColumnTopology::Dps,
                &[1_000, 10_000, 50_000],
                &ColumnConfig::paper(),
                6_000,
                mix(0xF0, seed),
            );
            let mut checks = Checks::default();
            checks.expect(points.len() == 3);
            checks
        },
    },
    Experiment {
        name: "reserved_quota_ablation",
        run: |seed| {
            let result = reserved_quota_ablation(
                ColumnTopology::Dps,
                &ColumnConfig::paper(),
                6_000,
                mix(0xF1, seed),
            );
            let mut checks = Checks::default();
            // Without preemption nothing can be preempted.
            checks.expect(result.is_ok_and(|r| r.without_preemption == 0.0));
            checks
        },
    },
    Experiment {
        name: "vc_count_sweep",
        run: |seed| {
            let open_loop = OpenLoopConfig {
                warmup: 1_000,
                measure: 5_000,
                drain: 1_000,
            };
            let points = vc_count_sweep(
                ColumnTopology::Dps,
                &[2, 4, 6, 10, 14],
                &ColumnConfig::paper(),
                0.08,
                open_loop,
                mix(0xF2, seed),
            );
            let mut checks = Checks::default();
            for p in &points {
                checks.expect(p.accepted_flits_per_cycle > 0.0);
            }
            checks
        },
    },
    Experiment {
        name: "chip_isolation",
        run: |_| {
            let config = ChipIsolationConfig::quick().with_dram(DramConfig::paper());
            let result = chip_isolation(&config);
            let mut checks = Checks::default();
            checks.expect(!result.solo.starved());
            checks.expect(!result.protected.starved());
            checks
        },
    },
    Experiment {
        name: "latency_under_load",
        run: |_| {
            let mut checks = Checks::default();
            for p in latency_under_load(&LatencyLoadConfig::quick()) {
                checks.expect(p.throughput > 0.0 && p.avg_round_trip.is_some());
            }
            checks
        },
    },
    Experiment {
        name: "mlp_mix_divergence",
        run: |_| {
            let mut checks = Checks::default();
            for p in mlp_mix_divergence(&MlpMixConfig::quick()) {
                checks.expect(!p.protected.starved());
            }
            checks
        },
    },
    Experiment {
        name: "multi_column_scaling",
        run: |_| {
            let mut checks = Checks::default();
            for p in multi_column_scaling(&ColumnScalingConfig::quick()) {
                checks.expect(p.throughput > 0.0);
            }
            checks
        },
    },
    Experiment {
        name: "degradation_under_faults",
        run: |seed| {
            let mut config = DegradationConfig::quick();
            config.seed = mix(config.seed, seed);
            let mut checks = Checks::default();
            for p in degradation_under_faults(&config) {
                checks.expect(!p.protected.starved());
            }
            checks
        },
    },
    Experiment {
        name: "attack_battery",
        run: |seed| {
            let mut config = AttackConfig::quick();
            config.seed = mix(config.seed, seed);
            let mut checks = Checks::default();
            for report in attack_battery(&config) {
                checks.expect(report.holds());
            }
            checks
        },
    },
    Experiment {
        name: "weighted_vm_experiment",
        run: |_| {
            let result = weighted_vm_experiment(&WeightedVmConfig::quick());
            let mut checks = Checks::default();
            checks.expect(result.worst_share_error < SHARE_TOLERANCE);
            checks
        },
    },
    Experiment {
        name: "migration_experiment",
        run: |_| {
            let result = migration_experiment(&MigrationConfig::quick());
            let mut checks = Checks::default();
            checks.expect(result.conserved);
            checks.expect(result.new_site_round_trips > 0);
            checks
        },
    },
];

/// The zero-cycle artefacts a user regenerates before any simulation:
/// Table 1's provisioning figures, the area report and the energy report
/// (`topology` and `power` only). Returns host seconds of
/// `[table1, area_report, energy_report]`.
pub fn zero_cycle_artefacts() -> [f64; 3] {
    let column = ColumnConfig::paper();
    let (_, table1_s) = timed(|| {
        for topology in ColumnTopology::all() {
            std::hint::black_box((
                topology.params(),
                bisection_bandwidth_bytes(topology, &column),
            ));
        }
    });
    let (_, area_s) = timed(|| std::hint::black_box(area_report(&column)));
    let (_, energy_s) = timed(|| std::hint::black_box(energy_report(&column)));
    [table1_s, area_s, energy_s]
}

/// One cold pass over the zero-cycle artefacts: this workload's set-up.
pub fn cold_build() -> Report {
    let parts = zero_cycle_artefacts();
    let mut report = Report::default();
    report.metric("setup_s", parts.iter().sum(), "s");
    report
}

/// Full passes over [`EXPERIMENTS`] until `seconds` have passed (at least
/// one; `smoke` stops after one). Returns each experiment's host seconds
/// per pass, the checks of all passes, and the number of passes.
fn run_passes(
    seed: u64,
    seconds: f64,
    smoke: bool,
    mut spans: Option<&mut Spans>,
) -> (Vec<Vec<f64>>, Checks, u64) {
    let origin = Stopwatch::start();
    let mut walls = vec![Vec::new(); EXPERIMENTS.len()];
    let mut checks = Checks::default();
    let mut passes = 0;
    while passes == 0 || (!smoke && origin.elapsed_s() < seconds) {
        for (experiment, walls) in EXPERIMENTS.iter().zip(&mut walls) {
            let (tally, wall) = match spans.as_deref_mut() {
                Some(spans) => {
                    let name = format!("core.exp.{}", experiment.name);
                    spans.scope(&name, |_| experiment.run(seed)).0
                }
                None => experiment.run(seed),
            };
            checks.merge(tally);
            walls.push(wall);
        }
        passes += 1;
    }
    (walls, checks, passes)
}

/// Records each experiment's 10th-percentile time over the passes (the
/// fastest pass, until there are more than ten) and returns their sum: the
/// host time of one undisturbed pass. A burst of interference spoils the
/// calls it overlaps, not the whole pass.
fn pass_wall(report: &mut Report, walls: &[Vec<f64>]) -> f64 {
    let mut total = 0.0;
    for (experiment, walls) in EXPERIMENTS.iter().zip(walls) {
        let wall = p10(walls).expect("every experiment ran at least once");
        report.metric(&experiment_metric(experiment.name), wall, "s");
        total += wall;
    }
    total
}

fn tally(report: &mut Report, checks: Checks, passes: u64) {
    report.tally_attempted = checks.attempted;
    report.tally_failed = checks.failed;
    report.note(format!(
        "{passes} passes of {} library calls; {} experiment checks evaluated, {} failed",
        EXPERIMENTS.len(),
        checks.attempted,
        checks.failed
    ));
}

/// The untraced timed run of the suite.
pub fn timed_run(seed: u64, seconds: f64, smoke: bool) -> Report {
    let mut report = Report::default();
    let (walls, checks, passes) = run_passes(seed, seconds, smoke, None);
    let total = pass_wall(&mut report, &walls);
    report.metric("job_wall_s", total, "s");
    report.count("suite_passes", passes, "count");
    if let Some(rss) = peak_rss_mib() {
        report.metric("peak_rss_mib", rss, "MiB");
    }
    tally(&mut report, checks, passes);
    report
}

/// The traced run of the suite: one span per library call, and the
/// zero-cycle artefacts timed one by one.
pub fn traced_run(seed: u64, seconds: f64, smoke: bool) -> (Report, Spans) {
    let mut report = Report::default();
    let mut spans = Spans::new(format!("experiments_quick-seed{seed}"));
    let ([table1_s, area_s, energy_s], _) = spans.scope("setup", |_| zero_cycle_artefacts());
    report.metric("power.table1_s", table1_s, "s");
    report.metric("power.area_report_s", area_s, "s");
    report.metric("power.energy_report_s", energy_s, "s");
    let ((walls, checks, passes), _) =
        spans.scope("run", |spans| run_passes(seed, seconds, smoke, Some(spans)));
    pass_wall(&mut report, &walls);
    report.count("harness.suite_passes", passes, "count");
    tally(&mut report, checks, passes);
    (report, spans)
}
