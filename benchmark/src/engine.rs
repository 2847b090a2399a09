//! Measurement of the five engine workloads: the cold build, the checked
//! prefix, the timed slices, and the traced run.
//!
//! Simulated statistics are exact and are *checked*; host time is noisy and
//! is *measured*. Everything that must repeat exactly (counts, the stats
//! digest, engine equivalence) is taken over a fixed cycle prefix, so it
//! does not depend on how many slices the wall-time budget allowed.

use crate::clock::{timed, Stopwatch};
use crate::json::Json;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workloads::{EngineWorkload, Policy, Recipe, Traffic, MAX_SLICES, PARITY_SEED};
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use taqos_core::chip_sim::ChipPolicy;
use taqos_netsim::config::EngineKind;
use taqos_netsim::network::Network;
use taqos_netsim::qos::QosPolicy;
use taqos_netsim::stats::NetStats;
use taqos_netsim::{FlowId, Hist64, JsonlSink, TelemetryConfig};
use taqos_traffic::workloads as traffic_workloads;

/// Slices the nominal job is made of: `job_wall_s` is the host time of
/// this many steady-state slices, whatever number the run had time for.
pub const JOB_SLICES: u64 = 400;
/// Fewest slices a run times, however short `--seconds` is.
const MIN_SLICES: usize = 20;
/// Sampling cadence of the telemetry-on pass, in cycles.
const TELEMETRY_FRAME_LEN: u64 = 500;

/// What a measurement child was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// The workload.
    pub workload: EngineWorkload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: wall time the slices may take.
    pub seconds: f64,
    /// Budgets divided by 20.
    pub smoke: bool,
}

impl Job {
    fn recipe(&self, engine: EngineKind, telemetry: TelemetryConfig) -> Recipe {
        let budget = self.workload.budget(self.smoke);
        Recipe {
            workload: self.workload,
            seed: self.seed,
            horizon: budget.warmup + budget.slice * MAX_SLICES,
            engine,
            telemetry,
        }
    }

    fn optimized(&self) -> Recipe {
        self.recipe(EngineKind::Optimized, TelemetryConfig::off())
    }
}

/// One cold build through the facade, timed: what a user pays before
/// cycle 0. Run once per fresh process; the driver takes the median.
pub fn cold_build(job: &Job) -> Report {
    let recipe = job.optimized();
    let (network, secs) = timed(|| recipe.build());
    black_box(network);
    let mut report = Report::default();
    report.metric("setup_s", secs, "s");
    report
}

/// A finished fixed-length run.
struct FixedRun {
    stats: NetStats,
    live_packets: u64,
    wall_s: f64,
}

/// Advances `network` by `run`, timed, and folds its statistics.
fn run_fixed_by(mut network: Network, run: impl FnOnce(&mut Network)) -> FixedRun {
    let (_, wall_s) = timed(|| run(&mut network));
    let live_packets = network.live_packets() as u64;
    FixedRun {
        stats: network.into_stats(),
        live_packets,
        wall_s,
    }
}

fn run_fixed(network: Network, cycles: u64) -> FixedRun {
    run_fixed_by(network, |network| network.run_for(cycles))
}

/// `cycles` calls of `Network::step`, each timed into `steps`: the traced
/// counterpart of `Network::run_for`.
fn run_stepped(network: &mut Network, cycles: u64, steps: &mut Hist64) {
    for _ in 0..cycles {
        let step = Stopwatch::start();
        network.step();
        steps.record(step.elapsed_ns());
    }
}

/// FNV-1a over the debug form of the statistics, xor-folded to 52 bits so
/// the digest survives a JSON number (an IEEE double) exactly.
pub fn stats_digest(stats: &NetStats) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{stats:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash ^ (hash >> 52)) & ((1 << 52) - 1)
}

fn flow_sum(stats: &NetStats, field: impl Fn(&taqos_netsim::stats::FlowStats) -> u64) -> u64 {
    stats.flows.iter().map(field).sum()
}

/// The exact simulated counts of the checked prefix. Identical before and
/// after any speed-only change, and between traced and untraced runs.
fn exact_counts(report: &mut Report, run: &FixedRun) {
    let s = &run.stats;
    report.count("netsim.delivered_packets", s.delivered_packets, "count");
    report.count("netsim.delivered_flits", s.delivered_flits, "count");
    report.count(
        "netsim.injected_packets",
        flow_sum(s, |f| f.injected_packets),
        "count",
    );
    report.count("netsim.preemptions", s.preemption_events, "count");
    report.count(
        "netsim.retransmissions",
        flow_sum(s, |f| f.retransmissions),
        "count",
    );
    report.count("netsim.live_packets_end", run.live_packets, "count");
    report.count("netsim.stats_digest", stats_digest(s), "fnv52");
    report.count(
        "closed_loop.issued",
        flow_sum(s, |f| f.issued_requests),
        "count",
    );
    report.count("closed_loop.round_trips", s.round_trips, "count");
    report.count(
        "closed_loop.timeouts",
        flow_sum(s, |f| f.request_timeouts),
        "count",
    );
    report.count(
        "closed_loop.retries",
        flow_sum(s, |f| f.request_retries),
        "count",
    );
    report.count(
        "closed_loop.abandoned",
        flow_sum(s, |f| f.abandoned_requests),
        "count",
    );
    report.count(
        "closed_loop.in_flight_end",
        flow_sum(s, |f| f.requests_in_flight),
        "count",
    );
    let d = &s.dram;
    report.count("dram.serviced", d.serviced_requests, "count");
    report.metric(
        "dram.row_hit_ratio",
        d.row_hit_rate().unwrap_or(0.0),
        "ratio",
    );
    report.count("dram.rejected", d.rejected_requests, "count");
    report.count("dram.evicted", d.evicted_requests, "count");
    report.count("dram.stalled", d.stalled_requests, "count");
    report.metric(
        "dram.queue_wait_mean_cycles",
        d.avg_queue_wait().unwrap_or(0.0),
        "cycles",
    );
    report.count("dram.max_queue_occupancy", d.max_queue_occupancy, "count");
    let f = &s.fault;
    report.count("fault.link_drops", f.link_drops, "count");
    report.count("fault.corruption_drops", f.corruption_drops, "count");
    report.count(
        "fault.mc_outage_rejections",
        f.mc_outage_rejections,
        "count",
    );
    report.count("fault.abandoned_packets", f.abandoned_packets, "count");
}

/// Conservation laws and functional oracles that hold on any run of the
/// workload, independent of the implementation.
fn conservation(report: &mut Report, workload: EngineWorkload, stats: &NetStats, what: &str) {
    report.check(
        &format!("{what}: packets were delivered"),
        stats.delivered_packets > 0 && stats.delivered_packets <= stats.generated_packets,
        format!(
            "delivered {} of {} generated",
            stats.delivered_packets, stats.generated_packets
        ),
    );
    if workload.is_closed_loop() {
        let leaked = stats
            .flows
            .iter()
            .filter(|f| {
                f.issued_requests != f.round_trips + f.abandoned_requests + f.requests_in_flight
            })
            .count();
        report.check(
            &format!("{what}: issued == round_trips + abandoned + in_flight per flow"),
            leaked == 0 && stats.round_trips > 0,
            format!("{leaked} flows leak; {} round trips", stats.round_trips),
        );
        let timeouts = flow_sum(stats, |f| f.request_timeouts);
        let retries = flow_sum(stats, |f| f.request_retries);
        let abandoned = flow_sum(stats, |f| f.abandoned_requests);
        report.check(
            &format!("{what}: every retry and abandonment follows a timeout"),
            retries + abandoned <= timeouts,
            format!("{timeouts} timeouts, {retries} retries, {abandoned} abandoned"),
        );
    }
    let f = &stats.fault;
    report.check(
        &format!("{what}: fault drops decompose into their causes"),
        f.total_drops() == f.link_drops + f.router_drops + f.corruption_drops
            && f.abandoned_packets <= f.total_drops(),
        format!(
            "{} drops, {} abandoned packets",
            f.total_drops(),
            f.abandoned_packets
        ),
    );
    if workload == EngineWorkload::ChipDramFrfcfs8x8 {
        let d = &stats.dram;
        let hit_rate = d.row_hit_rate().unwrap_or(0.0);
        report.check(
            &format!("{what}: DRAM row locality is alive"),
            d.row_hits + d.row_misses == d.serviced_requests && hit_rate >= 0.05,
            format!(
                "hit rate {hit_rate:.3} over {} services",
                d.serviced_requests
            ),
        );
    }
}

/// Check (a): the optimized engine against the reference engine over the
/// fixed prefix.
fn engine_equivalence(job: &Job, report: &mut Report, optimized: &FixedRun) {
    let prefix = job.workload.budget(job.smoke).prefix;
    let reference = run_fixed(
        job.recipe(EngineKind::Reference, TelemetryConfig::off())
            .build(),
        prefix,
    );
    report.check(
        "engine equivalence: Optimized == Reference NetStats on the prefix",
        optimized.stats == reference.stats,
        format!(
            "{prefix} cycles, digests {:013x} / {:013x}",
            stats_digest(&optimized.stats),
            stats_digest(&reference.stats)
        ),
    );
    report.metric(
        "netsim.reference_cycles_per_s",
        prefix as f64 / reference.wall_s,
        "1/s",
    );
}

/// Check (d): at the seed and cycle count `BENCH_netsim.json` was generated
/// with, the replicated builder reproduces its committed `delivered_packets`.
fn builder_parity(job: &Job, report: &mut Report) {
    let name = "builder parity with BENCH_netsim.json";
    if job.seed != PARITY_SEED {
        report.note(format!("{name}: applies to seed {PARITY_SEED} only"));
        return;
    }
    let Ok(text) = std::fs::read_to_string("BENCH_netsim.json") else {
        report.note(format!("{name}: skipped, BENCH_netsim.json is absent"));
        return;
    };
    let row_name = job.workload.budget(false).parity_row;
    let row = Json::parse(&text).ok().and_then(|doc| {
        let seed = doc.get("workload")?.get("seed")?.as_u64()?;
        let row = doc
            .get("topologies")?
            .items()
            .iter()
            .find(|row| row.get("topology").and_then(Json::as_str) == Some(row_name))?;
        let cycles = row.get("cycles")?.as_u64()?;
        let delivered = row.get("delivered_packets")?.as_u64()?;
        Some((seed, cycles, delivered))
    });
    let Some((PARITY_SEED, cycles, committed)) = row else {
        report.check(
            name,
            false,
            format!("no usable row {row_name} at seed {PARITY_SEED}"),
        );
        return;
    };
    // The committed row's own horizon, as `bench_netsim` built it.
    let recipe = Recipe {
        horizon: cycles,
        ..job.optimized()
    };
    let run = run_fixed(recipe.build(), cycles);
    report.check(
        name,
        run.stats.delivered_packets == committed,
        format!(
            "{row_name} at {cycles} cycles: delivered {} vs committed {committed}",
            run.stats.delivered_packets
        ),
    );
}

/// The untraced run's checks, in a process of their own so the reference
/// engine's memory and allocator state never touch the timed process.
pub fn checked_prefix(job: &Job) -> Report {
    let mut report = Report::default();
    let prefix = job.workload.budget(job.smoke).prefix;
    let optimized = run_fixed(job.optimized().build(), prefix);
    engine_equivalence(job, &mut report, &optimized);
    conservation(&mut report, job.workload, &optimized.stats, "prefix");
    exact_counts(&mut report, &optimized);
    builder_parity(job, &mut report);
    report
}

/// The value of `field` in `/proc/self/status`.
pub fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    Some(value.trim().to_string())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let kib: f64 = proc_status("VmHWM")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Times fixed-length slices of a warmed-up network until `seconds` have
/// passed (at least [`MIN_SLICES`], at most the budget's cap). `stepped`
/// chooses, per slice index, whether the slice is run step by step with
/// every `Network::step` timed into `steps`. Returns per-slice
/// `(wall seconds, stepped)` and the watchdog's verdict.
fn run_slices(
    network: &mut Network,
    job: &Job,
    stepped: impl Fn(usize) -> bool,
    steps: &mut Hist64,
    mut on_slice: impl FnMut(u64, u64, bool),
) -> (Vec<(f64, bool)>, Result<(), String>) {
    let budget = job.workload.budget(job.smoke);
    let origin = Stopwatch::start();
    let mut slices = Vec::new();
    while (slices.len() as u64) < MAX_SLICES
        && (slices.len() < MIN_SLICES || origin.elapsed_s() < job.seconds)
    {
        let by_step = stepped(slices.len());
        let start_ns = origin.elapsed_ns();
        if by_step {
            run_stepped(network, budget.slice, steps);
        } else {
            network.run_for(budget.slice);
        }
        let end_ns = origin.elapsed_ns();
        on_slice(start_ns, end_ns, by_step);
        slices.push(((end_ns - start_ns) as f64 / 1e9, by_step));
        if let Err(e) = network.check_progress() {
            return (slices, Err(e.to_string()));
        }
    }
    (slices, Ok(()))
}

fn walls(slices: &[(f64, bool)], stepped: bool) -> Vec<f64> {
    slices
        .iter()
        .filter(|(_, s)| *s == stepped)
        .map(|(wall, _)| *wall)
        .collect()
}

/// The untraced timed run: warm up, then time slices for `--seconds`.
pub fn timed_run(job: &Job) -> Report {
    let mut report = Report::default();
    let budget = job.workload.budget(job.smoke);
    let mut network = job.optimized().build();
    network.run_for(budget.warmup);
    let (slices, progress) = run_slices(
        &mut network,
        job,
        |_| false,
        &mut Hist64::new(),
        |_, _, _| {},
    );
    let stats = network.into_stats();
    report.check(
        "timed run: no slice tripped the forward-progress watchdog",
        progress.is_ok(),
        progress
            .err()
            .unwrap_or_else(|| format!("{} slices", slices.len())),
    );
    conservation(&mut report, job.workload, &stats, "timed run");
    let summary = Summary::of(&walls(&slices, false)).expect("at least one slice was timed");
    report.metric("job_wall_s", JOB_SLICES as f64 * summary.p10, "s");
    report.metric("sim_cycles_per_s", budget.slice as f64 / summary.p10, "1/s");
    report.metric("slice_wall_min_s", summary.min, "s");
    report.metric("slice_wall_q1_s", summary.q1, "s");
    report.metric("slice_wall_median_s", summary.median, "s");
    report.metric("slice_wall_q3_s", summary.q3, "s");
    report.metric("slice_wall_p90_s", summary.p90, "s");
    report.metric("slice_iqr_ratio", summary.iqr_ratio(), "ratio");
    report.count("slices", summary.count as u64, "count");
    report.count("simulated_cycles", stats.cycles, "cycles");
    if let Some(rss) = peak_rss_mib() {
        report.metric("peak_rss_mib", rss, "MiB");
    }
    report.note(format!(
        "job = {JOB_SLICES} slices of {} cycles after {} warm-up cycles, at the 10th-percentile slice; {} slices timed",
        budget.slice, budget.warmup, summary.count
    ));
    report
}

/// A writer that counts bytes and discards them: the telemetry-on pass
/// pays for formatting every event but not for a disk.
struct CountingWriter {
    bytes: Arc<AtomicU64>,
    lines: Arc<AtomicU64>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.lines.fetch_add(lines as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Mean nanoseconds per call of `f` over `calls` calls.
fn ns_per_call(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let watch = Stopwatch::start();
    for i in 0..calls {
        f(i);
    }
    watch.elapsed_ns() as f64 / calls.max(1) as f64
}

/// Standalone loops over single layer functions, outside any simulation.
fn micro_loops(job: &Job, report: &mut Report, spans: &mut Spans) {
    let recipe = job.optimized();
    let sim = recipe.facade();
    let calls: u64 = if job.smoke { 100_000 } else { 2_000_000 };

    // `traffic`: the generators the engine polls every cycle. Closed-loop
    // workloads install idle terminals, so the loop is over those.
    let mut generators = match recipe.traffic(sim.as_ref()) {
        Traffic::Open(generators) => generators,
        Traffic::Closed(spec) => traffic_workloads::idle_terminals(spec.requesters.len()),
    };
    let sources = generators.len() as u64;
    let (ns, _) = spans.scope("micro.traffic.generate", |_| {
        ns_per_call(calls, |i| {
            let generator = &mut generators[(i % sources) as usize];
            black_box(generator.generate(i / sources));
        })
    });
    report.metric("traffic.generate_ns", ns, "ns");

    // `qos`: one router's PVC state, as the engine's arbiters drive it.
    let pvc = match recipe.policy(sim.as_ref()) {
        Policy::Everywhere(pvc) | Policy::Chip(ChipPolicy::ColumnPvc(pvc)) => pvc,
        Policy::Chip(ChipPolicy::NoQos) => unreachable!("every workload runs PVC"),
    };
    let flows = pvc.rates().len() as u64;
    let (spec, qos_nodes) = match &sim {
        None => (
            taqos_topology::mesh2d::Mesh2dConfig::paper_8x8().build(),
            None,
        ),
        Some(sim) => {
            let chip = sim.build_spec();
            (chip.spec, Some(chip.qos_nodes))
        }
    };
    let router = spec
        .routers
        .iter()
        .find(|r| {
            qos_nodes
                .as_ref()
                .is_none_or(|nodes| nodes.contains(&r.node))
        })
        .expect("the fabric has a QOS router");
    let mut qos = pvc.router_qos(router, flows as usize);
    let (ns, _) = spans.scope("micro.qos.forwarded", |_| {
        ns_per_call(calls, |i| {
            qos.on_packet_forwarded(FlowId((i % flows) as u16), 4)
        })
    });
    report.metric("qos.forwarded_ns", ns, "ns");
    let (ns, _) = spans.scope("micro.qos.priority", |_| {
        ns_per_call(calls, |i| {
            black_box(qos.priority(FlowId((i % flows) as u16)));
        })
    });
    report.metric("qos.priority_ns", ns, "ns");
    let (ns, _) = spans.scope("micro.qos.rollover", |_| {
        ns_per_call(calls / 100, |_| qos.on_frame_rollover())
    });
    report.metric("qos.rollover_ns", ns, "ns");

    // `telemetry`: the histogram the engine records into when it is on.
    let mut hist = Hist64::new();
    let (ns, _) = spans.scope("micro.telemetry.hist_record", |_| {
        ns_per_call(calls, |i| {
            hist.record(black_box(i.wrapping_mul(2_654_435_761) >> 40))
        })
    });
    black_box(hist.count());
    report.metric("telemetry.hist_record_ns", ns, "ns");
}

/// The same prefix with telemetry on — histograms, 500-cycle frames and a
/// JSON-lines event trace into a counting writer — against the prefix with
/// telemetry off. Guards the claim that the off path is free, and yields the
/// simulated round-trip percentiles (which need the histograms).
fn telemetry_pass(job: &Job, report: &mut Report, spans: &mut Spans, off: &FixedRun) {
    let prefix = job.workload.budget(job.smoke).prefix;
    let telemetry = TelemetryConfig::off()
        .with_histograms(true)
        .with_frames(TELEMETRY_FRAME_LEN)
        .with_max_frames((prefix / TELEMETRY_FRAME_LEN).max(1) as usize);
    let bytes = Arc::new(AtomicU64::new(0));
    let lines = Arc::new(AtomicU64::new(0));
    let sink = JsonlSink::new(CountingWriter {
        bytes: Arc::clone(&bytes),
        lines: Arc::clone(&lines),
    });
    let (on, _) = spans.scope("telemetry.on_pass", |_| {
        let network = job
            .recipe(EngineKind::Optimized, telemetry)
            .build()
            .with_trace_sink(Box::new(sink));
        run_fixed(network, prefix)
    });
    report.check(
        "telemetry does not perturb the simulation",
        on.stats.delivered_packets == off.stats.delivered_packets
            && on.stats.round_trips == off.stats.round_trips
            && on.stats.latency_sum == off.stats.latency_sum,
        format!(
            "delivered {} / {} with telemetry on / off",
            on.stats.delivered_packets, off.stats.delivered_packets
        ),
    );
    report.metric(
        "telemetry.on_overhead_ratio",
        on.wall_s / off.wall_s,
        "ratio",
    );
    // The sink writes one JSON-lines record per event.
    report.count(
        "telemetry.trace_events",
        lines.load(Ordering::Relaxed),
        "count",
    );
    report.count(
        "telemetry.trace_bytes",
        bytes.load(Ordering::Relaxed),
        "count",
    );
    report.count(
        "closed_loop.rt_p50_cycles",
        on.stats.rt_percentile(50).unwrap_or(0),
        "cycles",
    );
    report.count(
        "closed_loop.rt_p99_cycles",
        on.stats.rt_percentile(99).unwrap_or(0),
        "cycles",
    );
}

/// The traced run: every layer call inside a span, every `Network::step`
/// of the stepped slices timed individually, plus the checks that outside-in
/// timing does not perturb the simulation. Returns the report and the spans.
pub fn traced_run(job: &Job) -> (Report, Spans) {
    let mut report = Report::default();
    let mut spans = Spans::new(format!("{}-seed{}", job.workload.name(), job.seed));
    let budget = job.workload.budget(job.smoke);
    let recipe = job.optimized();

    // Set-up through the facade, one span per layer-owned step.
    let ((facade_built, facade_s), _) = spans.scope("setup", |spans| {
        let (sim, _) = spans.scope("core.facade", |_| recipe.facade());
        let (traffic, traffic_s) = spans.scope("traffic.build", |_| recipe.traffic(sim.as_ref()));
        let (policy, qos_s) = spans.scope("qos.build", |_| recipe.policy(sim.as_ref()));
        let (network, facade_s) = spans.scope("core.facade_build", |_| {
            recipe.assemble(sim.as_ref(), policy, traffic)
        });
        report.metric("traffic.build_s", traffic_s, "s");
        report.metric("qos.build_s", qos_s, "s");
        // The plain mesh has no facade: its assembly is topology + netsim.
        (network, if sim.is_some() { facade_s } else { 0.0 })
    });
    report.metric("core.facade_build_s", facade_s, "s");

    // The same network from the layer functions the facade wraps. What the
    // facade spends beyond them is its self time.
    let (layer_built, _) = spans.scope("layers", |spans| {
        let sim = recipe.facade();
        let traffic = recipe.traffic(sim.as_ref());
        let policy = recipe.policy(sim.as_ref());
        let (network, [topology_s, reroute_s, new_s]) =
            recipe.assemble_by_layer(sim.as_ref(), policy, traffic, spans);
        report.metric("topology.build_s", topology_s, "s");
        report.metric("topology.reroute_s", reroute_s, "s");
        report.metric("netsim.new_s", new_s, "s");
        let self_s = (facade_s - topology_s - reroute_s - new_s).max(0.0);
        report.metric("core.facade_self_s", self_s, "s");
        network
    });
    let spec = layer_built.spec();
    report.count("topology.routers", spec.routers.len() as u64, "count");
    report.count(
        "topology.links",
        spec.routers.iter().map(|r| r.outputs.len() as u64).sum(),
        "count",
    );
    let routers = spec.routers.len() as f64;

    // The checked prefix three ways: `run_for` on the facade's network
    // (untraced), `step` by `step` with a clock read around each (traced),
    // and `run_for` on the layer-built network.
    let (untraced, _) = spans.scope("check.prefix_untraced", |_| {
        run_fixed(facade_built, budget.prefix)
    });
    let (stepped, _) = spans.scope("check.prefix_stepped", |_| {
        run_fixed_by(recipe.build(), |network| {
            run_stepped(network, budget.prefix, &mut Hist64::new());
        })
    });
    report.check(
        "determinism: traced (per-step timed) NetStats == untraced NetStats",
        stepped.stats == untraced.stats && stepped.live_packets == untraced.live_packets,
        format!(
            "{} cycles, digests {:013x} / {:013x}",
            budget.prefix,
            stats_digest(&stepped.stats),
            stats_digest(&untraced.stats)
        ),
    );
    let (layered, _) = spans.scope("check.prefix_layered", |_| {
        run_fixed(layer_built, budget.prefix)
    });
    report.check(
        "layer-built network simulates identically to the facade-built one",
        layered.stats == untraced.stats,
        format!("digest {:013x}", stats_digest(&layered.stats)),
    );
    spans.scope("check.reference", |_| {
        engine_equivalence(job, &mut report, &untraced);
    });
    conservation(&mut report, job.workload, &untraced.stats, "prefix");
    exact_counts(&mut report, &untraced);
    if let Some(dram) = recipe.facade().as_ref().and_then(|sim| {
        let banks = sim.dram()?.banks * sim.controller_nodes().len();
        Some(untraced.stats.dram.bank_busy_cycles as f64 / (banks as u64 * budget.prefix) as f64)
    }) {
        report.metric("dram.bank_busy_ratio", dram, "ratio");
    }
    builder_parity(job, &mut report);

    // The timed slices, alternating untraced (`run_for`) and stepped.
    let mut steps = Hist64::new();
    let ((slices, progress, stats, flits, into_stats_s), _) = spans.scope("run", |spans| {
        let mut network = recipe.build();
        spans.scope("warmup", |_| network.run_for(budget.warmup));
        let base_ns = spans.now_ns();
        let flits_before = network.stats().delivered_flits;
        let (slices, progress) = run_slices(
            &mut network,
            job,
            |i| i % 2 == 1,
            &mut steps,
            |start_ns, end_ns, by_step| {
                let name = if by_step { "slice.stepped" } else { "slice" };
                spans.record(name, base_ns + start_ns, base_ns + end_ns);
            },
        );
        let flits = network.stats().delivered_flits - flits_before;
        let (stats, into_stats_s) = spans.scope("netsim.into_stats", |_| network.into_stats());
        (slices, progress, stats, flits, into_stats_s)
    });
    report.check(
        "traced run: no slice tripped the forward-progress watchdog",
        progress.is_ok(),
        progress
            .err()
            .unwrap_or_else(|| format!("{} slices", slices.len())),
    );
    conservation(&mut report, job.workload, &stats, "traced run");
    report.metric("netsim.into_stats_s", into_stats_s, "s");
    let plain = Summary::of(&walls(&slices, false)).expect("slice 0 is untraced");
    let by_step = Summary::of(&walls(&slices, true)).expect("slice 1 is stepped");
    report.count("harness.slices", slices.len() as u64, "count");
    report.metric("harness.slice_iqr_ratio", plain.iqr_ratio(), "ratio");
    report.metric(
        "harness.trace_overhead_ratio",
        by_step.p10 / plain.p10,
        "ratio",
    );
    report.metric(
        "netsim.ns_per_router_cycle",
        plain.p10 * 1e9 / (budget.slice as f64 * routers),
        "ns",
    );
    let flits_per_slice = flits as f64 / slices.len() as f64;
    report.metric(
        "netsim.ns_per_delivered_flit",
        plain.p10 * 1e9 / flits_per_slice.max(1.0),
        "ns",
    );
    report.metric(
        "netsim.step_mean_ns",
        steps.sum() as f64 / steps.count().max(1) as f64,
        "ns",
    );
    report.count("netsim.step_p50_ns", steps.p50().unwrap_or(0), "ns");
    report.count("netsim.step_p99_ns", steps.p99().unwrap_or(0), "ns");
    report.count("netsim.step_max_ns", steps.max().unwrap_or(0), "ns");
    report.note(format!(
        "{} steps timed individually; sim_cycles_per_s (untraced slices) {:.0}",
        steps.count(),
        budget.slice as f64 / plain.p10
    ));

    telemetry_pass(job, &mut report, &mut spans, &untraced);
    micro_loops(job, &mut report, &mut spans);
    (report, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_aggregate_by_kind_at_the_tenth_percentile() {
        // Twenty plain slices of 1..=20 ms interleaved with stepped ones
        // that each take 100 ms more.
        let slices: Vec<(f64, bool)> = (1..=20)
            .flat_map(|ms| {
                [
                    (f64::from(ms) / 1e3, false),
                    (f64::from(ms) / 1e3 + 0.1, true),
                ]
            })
            .collect();
        let plain = Summary::of(&walls(&slices, false)).expect("plain slices");
        let stepped = Summary::of(&walls(&slices, true)).expect("stepped slices");
        assert_eq!((plain.count, stepped.count), (20, 20));
        // Nearest rank: the 2nd smallest of twenty.
        assert_eq!(plain.p10, 0.002);
        assert!((stepped.p10 - 0.102).abs() < 1e-12);
        assert!(walls(&[], false).is_empty());
    }

    #[test]
    fn the_digest_fits_a_double_and_tracks_the_statistics() {
        let mut stats = NetStats::new(4);
        let empty = stats_digest(&stats);
        assert!(empty < (1 << 52));
        assert_eq!(empty, stats_digest(&NetStats::new(4)));
        stats.delivered_packets += 1;
        assert_ne!(empty, stats_digest(&stats));
    }
}
