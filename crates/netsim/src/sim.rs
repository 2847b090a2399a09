//! Simulation drivers.
//!
//! Two experiment styles are used throughout the paper's evaluation:
//!
//! * **Open-loop** (load/latency curves): sources inject stochastically at a
//!   configured rate forever; the driver runs a warm-up period, measures for
//!   a fixed window, then lets in-flight packets drain.
//! * **Closed** (fixed workloads, e.g. the adversarial preemption
//!   experiments): each source has a finite packet budget; the driver runs
//!   until every packet has been delivered and acknowledged and reports the
//!   completion time.

use crate::error::SimError;
use crate::ids::Cycle;
use crate::network::Network;
use crate::stats::NetStats;
use serde::{Deserialize, Serialize};

/// Phases of an open-loop measurement run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenLoopConfig {
    /// Cycles simulated before measurement starts (network warm-up).
    pub warmup: Cycle,
    /// Length of the measurement window in cycles.
    pub measure: Cycle,
    /// Cycles simulated after the window to let measured packets drain.
    pub drain: Cycle,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            warmup: 10_000,
            measure: 50_000,
            drain: 10_000,
        }
    }
}

impl OpenLoopConfig {
    /// A shorter configuration for unit tests and smoke runs.
    pub fn quick() -> Self {
        OpenLoopConfig {
            warmup: 1_000,
            measure: 5_000,
            drain: 2_000,
        }
    }

    /// Total number of cycles the run will simulate.
    pub fn total_cycles(&self) -> Cycle {
        self.warmup + self.measure + self.drain
    }
}

/// Runs an open-loop (rate-driven) experiment and returns the statistics.
///
/// Latency is sampled for packets born during the measurement window;
/// per-flow throughput counts flits delivered during the window.
pub fn run_open_loop(mut network: Network, config: OpenLoopConfig) -> NetStats {
    network.run_for(config.warmup);
    let start = network.now();
    network.stats_mut().measure_start = Some(start);
    network.stats_mut().measure_end = Some(start + config.measure);
    network.run_for(config.measure);
    network.run_for(config.drain);
    network.into_stats()
}

/// Runs a closed (fixed) workload to completion.
///
/// `window` is the measurement window as `(start, length)` in cycles:
/// per-flow throughput and latency count only what falls in
/// `[start, start + length)`, so a closed measurement can exclude the
/// cold-start transient. The end saturates rather than overflowing, but the
/// rates ([`NetStats::accepted_throughput`],
/// [`NetStats::round_trip_throughput`]) divide by the window's nominal
/// length, so pass `None` to measure the whole run.
///
/// # Errors
///
/// Returns [`SimError::Timeout`] if the workload does not complete within
/// `max_cycles`, or [`SimError::NoForwardProgress`] if the progress
/// watchdog ([`crate::config::SimConfig::progress_watchdog`]) trips first —
/// a wedged (deadlocked or livelocked) run errors out structurally instead
/// of burning the whole cycle budget.
pub fn run_closed(
    mut network: Network,
    window: Option<(Cycle, Cycle)>,
    max_cycles: Cycle,
) -> Result<NetStats, SimError> {
    if let Some((start, length)) = window {
        network.stats_mut().measure_start = Some(start);
        network.stats_mut().measure_end = Some(start.saturating_add(length));
    }
    while !network.is_quiescent() {
        if network.now() >= max_cycles {
            return Err(SimError::Timeout {
                cycles: network.now(),
                live_packets: network.live_packets(),
            });
        }
        network.check_progress()?;
        network.step();
    }
    let completion = network.now();
    let mut stats = network.into_stats();
    stats.completion_cycle = Some(completion);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_config_totals() {
        let cfg = OpenLoopConfig {
            warmup: 10,
            measure: 20,
            drain: 5,
        };
        assert_eq!(cfg.total_cycles(), 35);
        assert!(OpenLoopConfig::default().total_cycles() > OpenLoopConfig::quick().total_cycles());
    }
}
