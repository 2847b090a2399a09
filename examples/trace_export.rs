//! Trace export: one instrumented run of the paper chip, written to disk.
//!
//! Runs the hybrid 8x8 chip (mesh + MECS express channels + PVC on the
//! shared column) for 20 000 cycles under its open-loop workload, every node
//! streaming memory requests at 0.08 flits/cycle to the controller on its own
//! row, with latency histograms and 500-cycle frames on. It writes:
//!
//! * the flit-level trace to `<trace path>`: JSON lines when the path ends in
//!   `.jsonl`, otherwise a Chrome trace to open at <https://ui.perfetto.dev>;
//! * the frame series to `[series path]`, if given: one JSON line per frame
//!   with per-flow deltas, per-router VC occupancy and per-link flits.
//!
//! ```text
//! cargo run --release --example trace_export -- chip.trace.json chip.series.jsonl
//! ```

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use taqos::prelude::*;
use taqos::traffic::workloads::per_node_fixed;

const CYCLES: u64 = 20_000;
const FRAME_LEN: u64 = 500;
const RATE: f64 = 0.08;
const SEED: u64 = 1;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let Some(trace_path) = args.next() else {
        return Err("usage: trace_export <trace path> [series path]".into());
    };
    let series_path = args.next();

    let telemetry = TelemetryConfig::full(FRAME_LEN).with_max_frames((CYCLES / FRAME_LEN) as usize);
    let sim =
        ChipSim::paper_default().with_sim_config(SimConfig::default().with_telemetry(telemetry));
    let generators = per_node_fixed(&sim.nearest_mc_plan(RATE), PacketSizeMix::paper(), SEED);
    let file = BufWriter::new(File::create(&trace_path)?);
    let sink: Box<dyn TraceSink> = if trace_path.ends_with(".jsonl") {
        Box::new(JsonlSink::new(file))
    } else {
        Box::new(ChromeTraceSink::new(file))
    };
    let mut network = sim
        .build(sim.default_policy(), generators)?
        .with_trace_sink(sink);
    network.run_for(CYCLES);
    if let Some(mut sink) = network.take_trace_sink() {
        sink.finish()?;
    }
    let stats = network.into_stats();
    println!(
        "wrote {trace_path} ({} packets delivered)",
        stats.delivered_packets
    );

    if let Some(path) = series_path {
        let series = stats.frames.as_ref().ok_or("frame sampling is off")?;
        let join = |items: Vec<String>| items.join(",");
        let numbers = |values: &[u64]| join(values.iter().map(u64::to_string).collect());
        let mut out = String::new();
        for snap in &series.frames {
            let flows = snap.flows.iter().enumerate().map(|(f, flow)| {
                format!(
                    "{{\"flow\":{f},\"injected_packets\":{},\"delivered_flits\":{},\
                     \"latency_sum\":{},\"latency_samples\":{},\"round_trips\":{},\
                     \"rt_latency_sum\":{},\"rt_samples\":{}}}",
                    flow.injected_packets,
                    flow.delivered_flits,
                    flow.latency_sum,
                    flow.latency_samples,
                    flow.round_trips,
                    flow.rt_latency_sum,
                    flow.rt_samples,
                )
            });
            writeln!(
                out,
                "{{\"frame\":{},\"cycle\":{},\"flows\":[{}],\"router_occupancy\":[{}],\"link_flits\":[{}]}}",
                snap.frame,
                snap.cycle,
                join(flows.collect()),
                numbers(&snap.router_occupancy),
                numbers(&snap.link_flits)
            )?;
        }
        std::fs::write(&path, out)?;
        println!(
            "wrote {path} ({} frames of {FRAME_LEN} cycles)",
            series.len()
        );
    }
    Ok(())
}
