//! Chip-scale experiments on the hybrid chip fabric: the closed-loop
//! isolation study, the DRAM-backed latency-under-load curve, the
//! heterogeneous MLP-mix divergence sweep, the multi-column scaling study,
//! the degradation-under-faults sweep, and the QOS area report.

use std::fmt::{self, Write};

use taqos_core::experiment::chip_scale::{
    chip_isolation, chip_qos_area, degradation_under_faults, latency_under_load,
    mlp_mix_divergence, multi_column_scaling, ChipIsolationConfig, ColumnScalingConfig,
    DegradationConfig, DomainOutcome, LatencyLoadConfig, MlpMixConfig,
};
use taqos_netsim::closed_loop::DramConfig;
use taqos_topology::chip::ChipConfig;

use crate::{rule, Profile};

fn fmt_latency(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.1}"),
        None => "starved".to_string(),
    }
}

fn fmt_ratio(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.2}x"),
        None => "starved".to_string(),
    }
}

fn outcome_row(out: &mut String, label: &str, outcome: &DomainOutcome) -> fmt::Result {
    writeln!(
        out,
        "  {label:<14} rt latency {:>9}   round trips {:>8}   throughput {:>7.3} rt/cycle",
        fmt_latency(outcome.avg_round_trip),
        outcome.round_trips,
        outcome.throughput,
    )
}

fn render_isolation(out: &mut String, profile: Profile) -> fmt::Result {
    let config = profile
        .pick(ChipIsolationConfig::quick(), ChipIsolationConfig::default())
        .with_dram(DramConfig::paper());
    writeln!(
        out,
        "chip isolation (victim MLP {}, hog MLP {}, DRAM-backed controller):",
        config.victim_mlp, config.hog_mlp
    )?;
    let result = chip_isolation(&config);
    outcome_row(out, "solo", &result.solo)?;
    outcome_row(out, "protected", &result.protected)?;
    outcome_row(out, "unprotected", &result.unprotected)?;
    outcome_row(out, "hog(prot.)", &result.protected_hog)?;
    writeln!(
        out,
        "  victim slowdown vs solo: protected {} / unprotected {}",
        fmt_ratio(result.protected_slowdown()),
        fmt_ratio(result.unprotected_slowdown()),
    )
}

fn render_load(out: &mut String, profile: Profile) -> fmt::Result {
    let config = profile.pick(LatencyLoadConfig::quick(), LatencyLoadConfig::default());
    writeln!(
        out,
        "latency under load (8x8 chip, DRAM {} banks, hit/miss {}/{} cycles, queue {}, \
         schedulers {:?}):",
        config.dram.banks,
        config.dram.row_hit_latency,
        config.dram.row_miss_latency,
        config.dram.queue_depth,
        config.schedulers,
    )?;
    writeln!(out, "{}", rule(110))?;
    writeln!(
        out,
        "{:>18} {:>5} {:>12} {:>12} {:>12} {:>10} {:>10} {:>9} {:>10}",
        "scheduler",
        "mlp",
        "rt/cycle",
        "rt latency",
        "queue wait",
        "hit rate",
        "rejected",
        "evicted",
        "max queue"
    )?;
    writeln!(out, "{}", rule(110))?;
    for p in latency_under_load(&config) {
        writeln!(
            out,
            "{:>18} {:>5} {:>12.4} {:>12} {:>12} {:>10} {:>10} {:>9} {:>10}",
            format!("{:?}", p.scheduler),
            p.mlp,
            p.throughput,
            fmt_latency(p.avg_round_trip),
            fmt_latency(p.avg_queue_wait),
            p.row_hit_rate
                .map(|r| format!("{:>9.1}%", 100.0 * r))
                .unwrap_or_else(|| "        -".to_string()),
            p.rejected_requests,
            p.evicted_requests,
            p.max_queue_occupancy,
        )?;
    }
    writeln!(out, "{}", rule(110))
}

fn render_mix(out: &mut String, profile: Profile) -> fmt::Result {
    let config = profile.pick(MlpMixConfig::quick(), MlpMixConfig::default());
    writeln!(
        out,
        "MLP-mix divergence (victim MLP {}, DRAM-backed controller, schedulers {:?}):",
        config.victim_mlp, config.schedulers,
    )?;
    writeln!(out, "{}", rule(98))?;
    writeln!(
        out,
        "{:>18} {:>8} {:>14} {:>14} {:>16} {:>16}",
        "scheduler",
        "hog mlp",
        "protected rt",
        "unprotected rt",
        "prot. slowdown",
        "unprot. slowdown"
    )?;
    writeln!(out, "{}", rule(98))?;
    for p in mlp_mix_divergence(&config) {
        writeln!(
            out,
            "{:>18} {:>8} {:>14} {:>14} {:>16} {:>16}",
            format!("{:?}", p.scheduler),
            p.hog_mlp,
            fmt_latency(p.protected.avg_round_trip),
            fmt_latency(p.unprotected.avg_round_trip),
            fmt_ratio(p.protected_slowdown()),
            fmt_ratio(p.unprotected_slowdown()),
        )?;
    }
    writeln!(out, "{}", rule(98))
}

fn render_scaling(out: &mut String, profile: Profile) -> fmt::Result {
    let config = profile.pick(ColumnScalingConfig::quick(), ColumnScalingConfig::default());
    writeln!(
        out,
        "multi-column scaling ({}x{} chip, MLP {}):",
        config.width, config.height, config.mlp
    )?;
    for p in multi_column_scaling(&config) {
        writeln!(
            out,
            "  columns {:>2}   requesters {:>4}   throughput {:>7.3} rt/cycle   rt latency {:>9}",
            p.columns,
            p.requesters,
            p.throughput,
            fmt_latency(p.avg_round_trip),
        )?;
    }
    Ok(())
}

fn render_faults(out: &mut String, profile: Profile) -> fmt::Result {
    let config = profile.pick(DegradationConfig::quick(), DegradationConfig::default());
    writeln!(
        out,
        "degradation under faults (victim MLP {}, hog MLP {}, {} ppm corruption per fault, \
         retry deadline {} x{}):",
        config.victim_mlp,
        config.hog_mlp,
        config.corruption_ppm_per_fault,
        config.retry.deadline,
        config.retry.max_attempts,
    )?;
    writeln!(out, "{}", rule(104))?;
    writeln!(
        out,
        "{:>7} {:>14} {:>12} {:>16} {:>14} {:>8} {:>9} {:>8}",
        "faults",
        "protected rt",
        "vs 0-fault",
        "unprotected rt",
        "vs 0-fault",
        "drops",
        "timeouts",
        "retries"
    )?;
    writeln!(out, "{}", rule(104))?;
    for p in degradation_under_faults(&config) {
        writeln!(
            out,
            "{:>7} {:>14} {:>12} {:>16} {:>14} {:>8} {:>9} {:>8}",
            p.faults,
            fmt_latency(p.protected.avg_round_trip),
            fmt_ratio(p.protected_vs_fault_free),
            fmt_latency(p.unprotected.avg_round_trip),
            fmt_ratio(p.unprotected_vs_fault_free),
            p.protected_fault_drops,
            p.protected_request_timeouts,
            p.protected_request_retries,
        )?;
    }
    writeln!(out, "{}", rule(104))
}

fn render_area(out: &mut String) -> fmt::Result {
    let report = chip_qos_area(&ChipConfig::paper_8x8().build());
    writeln!(out, "QOS area (8x8 chip, 32 nm):")?;
    writeln!(
        out,
        "  per router {:.4} mm2   chip-wide {:.3} mm2   column-confined {:.3} mm2   saving {:.1}%",
        report.per_router_mm2,
        report.chip_wide_mm2,
        report.column_confined_mm2,
        100.0 * report.saving_fraction,
    )
}

pub(crate) fn render(out: &mut String, profile: Profile) -> fmt::Result {
    render_isolation(out, profile)?;
    render_load(out, profile)?;
    render_mix(out, profile)?;
    render_scaling(out, profile)?;
    render_faults(out, profile)?;
    render_area(out)
}
