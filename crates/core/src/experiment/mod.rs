//! Experiment definitions reproducing the paper's evaluation.
//!
//! Each submodule corresponds to one table or figure of the paper:
//!
//! | Paper artefact | Module |
//! |---|---|
//! | Figure 3 (router area)                       | [`energy_area`] |
//! | Figure 4 (latency/throughput, uniform & tornado) | [`latency`] |
//! | Table 2 (hotspot fairness)                   | [`fairness`] |
//! | Figure 5 (preemption rates, Workloads 1 & 2) | [`preemption`] |
//! | Figure 6 (slowdown & throughput deviation)   | [`preemption`] |
//! | Figure 7 (router energy per hop type)        | [`energy_area`] |
//! | Ablations beyond the paper (frame length, reserved quota, VCs) | [`ablation`] |
//! | Differentiated service (SLA weights) beyond the paper | [`differentiated`] |
//! | Chip-scale isolation & QOS area saving (§2, the headline claim) | [`chip_scale`] |
//! | Adversarial battery, weighted VMs & live migration (§4.3 extended) | [`adversarial`] |
//!
//! The experiment functions are deterministic given their seed and are reused
//! by the `taqos-bench` binaries that print the paper-style tables.

pub mod ablation;
pub mod adversarial;
pub mod chip_scale;
pub mod differentiated;
pub mod energy_area;
pub mod fairness;
pub mod latency;
pub mod preemption;

use chip_scale::DomainOutcome;
use taqos_netsim::sim::OpenLoopConfig;
use taqos_netsim::stats::NetStats;
use taqos_netsim::{Cycle, FlowId, Hist64, SimConfig, TelemetryConfig};

/// Run phases of the hotspot experiments whose configs set only the
/// warm-up and the measurement window (`FairnessConfig`, `SlaConfig`): a
/// fixed 2 000-cycle drain follows the window.
pub(crate) fn with_fixed_drain(warmup: Cycle, measure: Cycle) -> OpenLoopConfig {
    OpenLoopConfig {
        warmup,
        measure,
        drain: 2_000,
    }
}

/// Simulation constants with latency histograms on, for the experiments
/// that bound a p99 tail rather than a mean. Frame sampling stays off: they
/// compare endpoint aggregates.
pub(crate) fn histograms_on() -> SimConfig {
    SimConfig::default().with_telemetry(TelemetryConfig::off().with_histograms(true))
}

/// Folds the per-flow round-trip counters of a domain's flows into one
/// outcome; `measure` is the window length the throughput is taken over.
/// When the run recorded histograms, the per-flow round-trip histograms are
/// merged (merge order is immaterial — see [`Hist64::merge`]) into the
/// domain's percentile columns.
pub(crate) fn domain_outcome(stats: &NetStats, flows: &[FlowId], measure: Cycle) -> DomainOutcome {
    let mut rt_sum = 0u64;
    let mut rt_samples = 0u64;
    let mut completed = 0u64;
    let mut issued = 0u64;
    let mut rt_hist = Hist64::new();
    for flow in flows {
        let fs = &stats.flows[flow.index()];
        rt_sum += fs.rt_latency_sum;
        rt_samples += fs.rt_samples;
        completed += fs.measured_round_trips;
        issued += fs.issued_requests;
        rt_hist.merge(&fs.rt_hist);
    }
    DomainOutcome {
        avg_round_trip: (rt_samples > 0).then(|| rt_sum as f64 / rt_samples as f64),
        round_trips: completed,
        issued_requests: issued,
        throughput: completed as f64 / measure.max(1) as f64,
        p50_round_trip: rt_hist.p50(),
        p95_round_trip: rt_hist.p95(),
        p99_round_trip: rt_hist.p99(),
        max_round_trip: rt_hist.max(),
    }
}

/// Each tenant's share of the `delivered` service (all zero when nothing
/// was delivered), and the worst relative error of those shares against the
/// `expected` ones.
pub(crate) fn share_error(delivered: &[u64], expected: &[f64]) -> (Vec<f64>, f64) {
    let total: u64 = delivered.iter().sum();
    let shares: Vec<f64> = delivered
        .iter()
        .map(|&d| {
            if total == 0 {
                0.0
            } else {
                d as f64 / total as f64
            }
        })
        .collect();
    let worst = shares
        .iter()
        .zip(expected)
        .map(|(actual, expected)| ((actual - expected) / expected).abs())
        .fold(0.0, f64::max);
    (shares, worst)
}

/// Runs `f` over `items` in parallel (bounded by the available parallelism)
/// and returns the results in input order.
///
/// Used to spread independent simulation points (topology × load, ablation
/// variants, isolation scenarios) over cores via `std::thread::scope`; each
/// point is itself a fully deterministic single-threaded simulation, so the
/// sharding changes wall-clock time and nothing else.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .max(1);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let work: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    let queue = std::sync::Mutex::new(work);
    let results = std::sync::Mutex::new(&mut slots);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|| loop {
                    let item = {
                        let mut queue = queue.lock().expect("queue lock");
                        queue.pop()
                    };
                    let Some((idx, item)) = item else { break };
                    let result = f(item);
                    results.lock().expect("result lock")[idx] = Some(result);
                })
            })
            .collect();
        // The scope only waits for the closures to return. Joining waits
        // for the threads to exit, so a worker's exit (its allocator cache
        // flush) cannot interleave with the caller's next allocations and
        // move the process's memory high-water mark from run to run.
        for handle in handles {
            handle.join().expect("a worker panicked");
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every work item produces a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let results = parallel_map(items.clone(), |x| x * 2);
        let expected: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let results: Vec<u64> = parallel_map(Vec::<u64>::new(), |x| x);
        assert!(results.is_empty());
    }
}
