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
