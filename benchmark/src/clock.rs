//! The harness's only wall-clock reads.
//!
//! `taqos-analyze` flags `Instant` everywhere outside `crates/bench`
//! because simulation results must depend on the seed alone. This package
//! times real executions from outside the simulator, so it needs the clock;
//! every read goes through [`Stopwatch`] so the exemption is stated once
//! per mention and nothing else in the package names the type.

// taqos-lint: allow(wall-clock) -- benchmark harness: host time is the quantity being measured, and no simulated result depends on it
use std::time::Instant;

/// A monotonic stopwatch started at construction.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    // taqos-lint: allow(wall-clock) -- benchmark harness: the one field that holds a clock reading
    start: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch now.
    pub fn start() -> Self {
        Stopwatch {
            // taqos-lint: allow(wall-clock) -- benchmark harness: the one place the clock is read
            start: Instant::now(),
        }
    }

    /// Nanoseconds since the stopwatch started.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since the stopwatch started.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let watch = Stopwatch::start();
    let out = f();
    (out, watch.elapsed_s())
}
