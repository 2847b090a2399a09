//! Telemetry guarantees: histograms, frame series and trace export are
//! deterministic, engine-equivalent, and free of observer effects.
//!
//! The telemetry layer is held to the same standard as the statistics it
//! observes: every histogram bucket and frame snapshot is an exact integer,
//! `NetStats` equality covers them, and therefore the engine-equivalence
//! guarantee extends to telemetry automatically. These tests pin that down:
//!
//! * a seeded property sweep runs both engines with telemetry fully enabled
//!   and compares whole [`NetStats`] values — histograms and frame series
//!   must match bucket-for-bucket and frame-for-frame;
//! * enabling telemetry must not perturb the simulation: every non-telemetry
//!   counter of an instrumented run equals the uninstrumented run's;
//! * the histogram totals tie back to the counters (`count()` equals
//!   `latency_samples` per flow and in aggregate);
//! * flit-level traces come out time-ordered per flow, and the Chrome trace
//!   export is structurally sound (balanced async begin/end pairs per packet
//!   id, duration-carrying DRAM spans) so Perfetto can nest it.

use taqos::core::shared_region::SharedRegionSim;
use taqos::netsim::closed_loop::DramConfig;
use taqos::netsim::config::EngineKind;
use taqos::netsim::network::Network;
use taqos::netsim::qos::QosPolicy;
use taqos::netsim::sim::{run_open_loop, OpenLoopConfig};
use taqos::netsim::stats::NetStats;
use taqos::netsim::{SimConfig, TelemetryConfig};
use taqos::qos::pvc::PvcPolicy;
use taqos::telemetry::{ChromeTraceSink, Hist64, SharedMemorySink, TraceEvent};
use taqos::topology::column::ColumnTopology;
use taqos::topology::mesh2d::Mesh2dConfig;
use taqos::traffic::injection::PacketSizeMix;
use taqos::traffic::workloads;

const FRAME_LEN: u64 = 250;

fn open_loop_stats(
    topology: ColumnTopology,
    engine: EngineKind,
    seed: u64,
    telemetry: TelemetryConfig,
) -> NetStats {
    let sim = SharedRegionSim::new(topology).with_sim_config(
        SimConfig::default()
            .with_engine(engine)
            .with_telemetry(telemetry),
    );
    let generators = workloads::uniform_random(sim.column(), 0.08, PacketSizeMix::paper(), seed);
    let network = sim
        .build(Box::new(sim.default_policy()), generators)
        .expect("column builds");
    run_open_loop(
        network,
        OpenLoopConfig {
            warmup: 500,
            measure: 3_000,
            drain: 1_000,
        },
    )
}

fn closed_chip_stats(engine: EngineKind, telemetry: TelemetryConfig) -> NetStats {
    let sim = taqos::core::chip_sim::ChipSim::paper_default().with_sim_config(
        SimConfig::default()
            .with_engine(engine)
            .with_telemetry(telemetry),
    );
    let plan = sim.nearest_mc_mlp_plan(4);
    let mut network = sim
        .build_closed_loop(sim.default_policy(), workloads::mlp_closed_loop(&plan))
        .expect("closed-loop chip builds");
    network.run_for(6_000);
    network.into_stats()
}

/// Seeded property sweep: with histograms and frame sampling enabled, both
/// engines produce *identical* `NetStats` — the equality covers every
/// histogram bucket and every frame snapshot, across topology families and
/// seeds.
#[test]
fn telemetry_is_engine_equivalent_across_seeds() {
    let telemetry = TelemetryConfig::full(FRAME_LEN);
    for topology in [
        ColumnTopology::MeshX1,
        ColumnTopology::Mecs,
        ColumnTopology::Dps,
    ] {
        for seed in [3, 17, 101] {
            let optimized = open_loop_stats(topology, EngineKind::Optimized, seed, telemetry);
            let reference = open_loop_stats(topology, EngineKind::Reference, seed, telemetry);
            assert_eq!(
                optimized, reference,
                "telemetry diverged between engines on {topology} seed {seed}"
            );
            assert!(
                !optimized.latency_hist.is_empty(),
                "{topology} seed {seed}: histogram recorded nothing"
            );
            let frames = optimized.frames.as_ref().expect("frame series enabled");
            assert!(
                !frames.is_empty(),
                "{topology} seed {seed}: no frames sampled"
            );
            assert_eq!(frames.frame_len, FRAME_LEN);
        }
    }
}

/// No observer effect: a run with telemetry enabled reports exactly the same
/// simulation outcome as the same run with telemetry off — stripping the
/// telemetry fields from the instrumented stats yields the uninstrumented
/// stats, counter for counter.
#[test]
fn telemetry_does_not_perturb_the_simulation() {
    let plain = closed_chip_stats(EngineKind::Optimized, TelemetryConfig::off());
    let mut instrumented =
        closed_chip_stats(EngineKind::Optimized, TelemetryConfig::full(FRAME_LEN));
    assert!(instrumented.frames.is_some());
    assert!(!instrumented.latency_hist.is_empty());

    instrumented.histograms_enabled = false;
    instrumented.latency_hist = Hist64::default();
    instrumented.rt_hist = Hist64::default();
    instrumented.frames = None;
    for flow in &mut instrumented.flows {
        flow.latency_hist = Hist64::default();
        flow.rt_hist = Hist64::default();
    }
    assert_eq!(
        instrumented, plain,
        "telemetry changed the simulation outcome"
    );
}

/// Histogram totals tie back to the exact counters: per flow and in
/// aggregate, the number of recorded samples equals `latency_samples` /
/// `rt_samples`, and the aggregate histogram is the merge of the per-flow
/// histograms.
#[test]
fn histogram_counts_match_latency_samples() {
    let stats = closed_chip_stats(
        EngineKind::Optimized,
        TelemetryConfig::off().with_histograms(true),
    );
    let mut merged_latency = Hist64::default();
    let mut merged_rt = Hist64::default();
    for (i, flow) in stats.flows.iter().enumerate() {
        assert_eq!(
            flow.latency_hist.count(),
            flow.latency_samples,
            "flow {i}: histogram count != latency_samples"
        );
        assert_eq!(
            flow.rt_hist.count(),
            flow.rt_samples,
            "flow {i}: histogram count != rt_samples"
        );
        assert_eq!(flow.latency_hist.sum(), flow.latency_sum, "flow {i} sum");
        merged_latency.merge(&flow.latency_hist);
        merged_rt.merge(&flow.rt_hist);
    }
    assert_eq!(
        merged_latency, stats.latency_hist,
        "aggregate != merge of per-flow"
    );
    assert_eq!(
        merged_rt, stats.rt_hist,
        "aggregate rt != merge of per-flow"
    );
    assert!(
        stats.rt_hist.count() > 0,
        "closed loop produced no round trips"
    );
    let p50 = stats.rt_percentile(50).expect("p50 exists");
    let p99 = stats.rt_percentile(99).expect("p99 exists");
    let max = stats.rt_hist.max().expect("max exists");
    assert!(
        p50 <= p99 && p99 <= max,
        "percentiles out of order: {p50} {p99} {max}"
    );
}

/// Frame snapshots land on exact frame boundaries, consecutively, and their
/// per-frame deltas add back up to the cumulative totals.
#[test]
fn frame_series_deltas_sum_to_totals() {
    let stats = closed_chip_stats(
        EngineKind::Optimized,
        TelemetryConfig::off().with_frames(FRAME_LEN),
    );
    let series = stats.frames.as_ref().expect("frames enabled");
    assert_eq!(series.dropped_frames, 0, "default capacity dropped frames");
    assert_eq!(series.len(), (6_000 / FRAME_LEN) as usize);
    let mut delivered_by_frames = vec![0u64; stats.flows.len()];
    for (i, snap) in series.frames.iter().enumerate() {
        assert_eq!(snap.frame, i as u64, "frames not consecutive");
        assert_eq!(
            snap.cycle,
            (i as u64 + 1) * FRAME_LEN,
            "off-boundary snapshot"
        );
        assert_eq!(snap.flows.len(), stats.flows.len());
        for (f, flow) in snap.flows.iter().enumerate() {
            delivered_by_frames[f] += flow.delivered_flits;
        }
    }
    // The last frame boundary (cycle 6000) is the end of the run, so the
    // summed deltas must equal each flow's cumulative delivered flits.
    for (f, flow) in stats.flows.iter().enumerate() {
        assert_eq!(
            delivered_by_frames[f], flow.delivered_flits,
            "flow {f}: frame deltas do not sum to the cumulative counter"
        );
    }
}

/// Flit-level trace events come out in simulation-time order, per flow and
/// globally, and deliveries never precede their packet's injection.
#[test]
fn trace_events_are_time_ordered_per_flow() {
    let sink = SharedMemorySink::new();
    let handle = sink.clone();
    let config = Mesh2dConfig::paper_8x8();
    let spec = config.build();
    let generators =
        workloads::uniform_random_terminals(config.num_nodes(), 0.08, PacketSizeMix::paper(), 5);
    let policy: Box<dyn QosPolicy> = Box::new(PvcPolicy::equal_rates(config.num_nodes()));
    let mut network = Network::new(spec, policy, generators, SimConfig::default())
        .expect("mesh builds")
        .with_trace_sink(Box::new(sink));
    network.run_for(2_000);
    drop(network.into_stats());

    let events = handle.events();
    assert!(!events.is_empty(), "trace captured nothing");
    let mut last_cycle = 0;
    let mut per_flow_last = std::collections::BTreeMap::new();
    let mut injected = std::collections::BTreeSet::new();
    let (mut injects, mut grants, mut delivers) = (0u64, 0u64, 0u64);
    for event in &events {
        assert!(
            event.cycle() >= last_cycle,
            "trace not globally time-ordered"
        );
        last_cycle = event.cycle();
        if let Some(flow) = event.flow() {
            let entry = per_flow_last.entry(flow).or_insert(0);
            assert!(
                event.cycle() >= *entry,
                "flow {flow}: trace not time-ordered"
            );
            *entry = event.cycle();
        }
        match event {
            TraceEvent::Inject { packet, .. } => {
                injects += 1;
                injected.insert(*packet);
            }
            TraceEvent::Grant { .. } => grants += 1,
            TraceEvent::Deliver {
                packet,
                birth,
                cycle,
                ..
            } => {
                delivers += 1;
                assert!(birth <= cycle, "delivery precedes birth");
                assert!(
                    injected.contains(packet),
                    "packet {packet} delivered without an inject event"
                );
            }
            _ => {}
        }
    }
    assert!(
        injects > 0 && grants > 0 && delivers > 0,
        "missing event kinds"
    );
    assert!(delivers <= injects, "more deliveries than injections");
}

/// The Chrome trace export is structurally sound: one begin and one end per
/// async packet-lifetime id (so Perfetto nests the pairs correctly), DRAM
/// spans carry durations, and the file is a single JSON object.
#[test]
fn chrome_trace_nests_packet_lifetimes() {
    let dir = std::env::temp_dir().join("taqos_telemetry_test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("chip.trace.json");

    let sim = taqos::core::chip_sim::ChipSim::paper_default().with_dram(DramConfig::paper());
    let plan = sim.nearest_mc_mlp_plan(4);
    let file = std::io::BufWriter::new(std::fs::File::create(&path).expect("create trace"));
    let mut network = sim
        .build_closed_loop(sim.default_policy(), workloads::mlp_closed_loop(&plan))
        .expect("chip builds")
        .with_trace_sink(Box::new(ChromeTraceSink::new(file)));
    network.run_for(3_000);
    let mut sink = network.take_trace_sink().expect("sink installed");
    sink.finish().expect("trace flushed");
    drop(network.into_stats());

    let text = std::fs::read_to_string(&path).expect("read trace");
    assert!(
        text.starts_with("{\"traceEvents\":["),
        "not a Chrome trace object"
    );
    assert!(text.trim_end().ends_with("]}"), "trace object not closed");
    let count = |needle: &str| text.matches(needle).count();
    let begins = count("\"ph\":\"b\"");
    let ends = count("\"ph\":\"e\"");
    assert!(begins > 0, "no packet-lifetime spans");
    assert_eq!(begins, ends, "unbalanced async begin/end pairs");
    let spans = count("\"ph\":\"X\"");
    assert!(spans > 0, "no DRAM service spans");
    assert_eq!(
        spans,
        count("\"dur\":"),
        "every complete span must carry a duration"
    );
    assert!(count("\"ph\":\"i\"") > 0, "no instant events");
}
