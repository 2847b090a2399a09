//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root is this table rendered (`--manifest` prints it; a unit test holds
//! the committed file to it), so the names a run prints and the names a
//! reviewer gates on cannot drift apart.

use crate::json::Json;
use crate::suite::EXPERIMENTS;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// An end-to-end metric: what a user of the simulator pays. All host-side.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "job_wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.05,
    },
];

/// The six workloads and why each is there.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "mesh_open_8x8",
        "open loop at 0.08 flits/cycle/injector, PVC at all 64 routers: fabric phases, per-cycle traffic generators and qos priority do the work; closed loop and DRAM do none",
    ),
    (
        "chip_dram_frfcfs_8x8",
        "closed loop (MLP 4) on the hybrid chip with DRAM-backed FR-FCFS controllers: closed_loop, dram and column-scoped qos carry the run; traffic generators are bypassed",
    ),
    (
        "chip_16x16_cols4",
        "closed loop on 256 routers: the same fabric code at 4x the state, so footprint and scan-cost changes that 8x8 hides show here; dominates setup_s and peak_rss_mib",
    ),
    (
        "chip_incast_8x8",
        "bursty all-to-one incast: the engine used the opposite way, mostly idle with one hotspot, so idle-skip and the phase hook dominate; its schedule makes traffic dominate setup_s",
    ),
    (
        "chip_fault_8x8",
        "closed loop on a failing fabric (dead links rerouted, 3% corruption, MC outage, deadline/retry): event lane, NACK-retransmit, fault and retry bookkeeping weigh here only",
    ),
    (
        "experiments_quick",
        "one thread calls the paper-repro library at quick() configs: hundreds of short sims on column topologies and the chip, so core facades and Network::new are a large share",
    ),
];

/// Per-layer metrics other than the per-experiment spans: name, unit and
/// the direction in which a change is an improvement. Exact simulated
/// counts have no better direction; they must not move under a speed-only
/// change, and are listed `higher` only because the schema wants a word.
const LAYER_METRICS: [(&str, &str, &str); 62] = [
    ("topology.build_s", "s", "lower"),
    ("topology.reroute_s", "s", "lower"),
    ("topology.routers", "count", "higher"),
    ("topology.links", "count", "higher"),
    ("traffic.build_s", "s", "lower"),
    ("traffic.generate_ns", "ns", "lower"),
    ("qos.build_s", "s", "lower"),
    ("qos.priority_ns", "ns", "lower"),
    ("qos.forwarded_ns", "ns", "lower"),
    ("qos.rollover_ns", "ns", "lower"),
    ("core.facade_build_s", "s", "lower"),
    ("core.facade_self_s", "s", "lower"),
    ("netsim.new_s", "s", "lower"),
    ("netsim.step_mean_ns", "ns", "lower"),
    ("netsim.step_p50_ns", "ns", "lower"),
    ("netsim.step_p99_ns", "ns", "lower"),
    ("netsim.step_max_ns", "ns", "lower"),
    ("netsim.ns_per_router_cycle", "ns", "lower"),
    ("netsim.ns_per_delivered_flit", "ns", "lower"),
    ("netsim.into_stats_s", "s", "lower"),
    ("netsim.delivered_packets", "count", "higher"),
    ("netsim.delivered_flits", "count", "higher"),
    ("netsim.injected_packets", "count", "higher"),
    ("netsim.preemptions", "count", "higher"),
    ("netsim.retransmissions", "count", "higher"),
    ("netsim.live_packets_end", "count", "higher"),
    ("netsim.stats_digest", "fnv52", "higher"),
    ("netsim.reference_cycles_per_s", "1/s", "higher"),
    ("closed_loop.issued", "count", "higher"),
    ("closed_loop.round_trips", "count", "higher"),
    ("closed_loop.timeouts", "count", "lower"),
    ("closed_loop.retries", "count", "lower"),
    ("closed_loop.abandoned", "count", "lower"),
    ("closed_loop.in_flight_end", "count", "higher"),
    ("closed_loop.rt_p50_cycles", "cycles", "lower"),
    ("closed_loop.rt_p99_cycles", "cycles", "lower"),
    ("dram.serviced", "count", "higher"),
    ("dram.row_hit_ratio", "ratio", "higher"),
    ("dram.rejected", "count", "lower"),
    ("dram.evicted", "count", "lower"),
    ("dram.stalled", "count", "lower"),
    ("dram.queue_wait_mean_cycles", "cycles", "lower"),
    ("dram.max_queue_occupancy", "count", "lower"),
    ("dram.bank_busy_ratio", "ratio", "higher"),
    ("fault.link_drops", "count", "lower"),
    ("fault.corruption_drops", "count", "lower"),
    ("fault.mc_outage_rejections", "count", "lower"),
    ("fault.abandoned_packets", "count", "lower"),
    ("telemetry.on_overhead_ratio", "ratio", "lower"),
    ("telemetry.trace_events", "count", "higher"),
    ("telemetry.trace_bytes", "count", "lower"),
    ("telemetry.hist_record_ns", "ns", "lower"),
    ("power.table1_s", "s", "lower"),
    ("power.area_report_s", "s", "lower"),
    ("power.energy_report_s", "s", "lower"),
    ("harness.slices", "count", "higher"),
    ("harness.slice_iqr_ratio", "ratio", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    ("harness.pinned", "bool", "higher"),
    ("harness.aslr_off", "bool", "higher"),
    ("harness.suite_passes", "count", "higher"),
    ("harness.checks_failed", "count", "lower"),
];

/// Every per-layer metric as `(name, unit, better)`: the layer table plus
/// one `core.exp.<experiment>_s` span per library call of workload 6.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut all: Vec<(String, &'static str, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better))
        .collect();
    for experiment in &EXPERIMENTS {
        all.push((experiment_metric(experiment.name), "s", "lower"));
    }
    all
}

/// Name of the per-layer span metric of one suite experiment.
pub fn experiment_metric(experiment: &str) -> String {
    format!("core.exp.{experiment}_s")
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn render() -> String {
    let str = |s: &str| Json::Str(s.to_string());
    let command = ["bash", "benchmark/run.sh"].map(str).to_vec();
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| Json::obj([("name", str(name)), ("why", str(why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", str(m.name)),
                ("unit", str(m.unit)),
                ("better", str(m.better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = per_layer()
        .iter()
        .map(|(name, unit, better)| {
            Json::obj([
                ("name", str(name)),
                ("unit", str(unit)),
                ("better", str(better)),
            ])
        })
        .collect();
    let fields = [
        ("command", Json::Arr(command)),
        ("paths", Json::Arr(vec![str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ];
    // One member per line keeps the committed file reviewable.
    let mut out = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        let sep = if i + 1 < fields.len() { "," } else { "" };
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let item_sep = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{item_sep}\n", item.render()));
                }
                out.push_str(&format!("  ]{sep}\n"));
            }
            value => out.push_str(&format!("  \"{key}\": {}{sep}\n", value.render())),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_metric_name;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let layer = per_layer();
        let names = END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .chain(layer.iter().map(|(name, _, _)| name.clone()))
            .chain(WORKLOADS.iter().map(|(name, _)| name.to_string()));
        for name in names {
            assert!(valid_metric_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        assert!(layer.len() <= 128);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn the_rendered_manifest_is_valid_json_with_exactly_the_contract_keys() {
        let doc = Json::parse(&render()).expect("manifest parses");
        let Json::Obj(pairs) = &doc else {
            panic!("manifest is not an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(doc.get("workloads").expect("workloads").items().len(), 6);
    }

    #[test]
    fn the_committed_manifest_matches_the_tables() {
        // Absent when the package is built outside the repository.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if let Ok(committed) = std::fs::read_to_string(path) {
            assert_eq!(
                committed,
                render(),
                "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh --manifest > BENCHMARK.json`"
            );
        }
    }
}
