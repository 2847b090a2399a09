//! Exact-integer footprint gate: what three facade builds allocate.
//!
//! Heap allocations are counted by a `#[global_allocator]`, so the numbers
//! repeat exactly on any machine — unlike `peak_rss_mib`, which the benchmark
//! reads from the kernel. This file is its own test binary with a single
//! `#[test]`, so no other test's thread allocates while a build is measured.
//! Run with `-- --nocapture` to see the table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use taqos_core::chip_sim::ChipSim;
use taqos_netsim::Network;
use taqos_topology::grid::Coord;
use taqos_traffic::workloads;

/// Calls to `alloc`/`realloc`, bytes live now, and the most bytes ever live.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System` with this layout, as `alloc` and
        // `realloc` forward to it.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What one build cost, relative to the heap it started from.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    /// `alloc` + `realloc` calls made by the build.
    allocations: usize,
    /// Bytes the finished build keeps alive (facade and network).
    live: usize,
    /// Most bytes alive at any moment of the build.
    peak: usize,
}

fn measure<T>(build: impl FnOnce() -> T) -> Footprint {
    let (allocations, live) = (ALLOCATIONS.load(Relaxed), LIVE.load(Relaxed));
    PEAK.store(live, Relaxed);
    let built = build();
    let footprint = Footprint {
        allocations: ALLOCATIONS.load(Relaxed) - allocations,
        live: LIVE.load(Relaxed) - live,
        peak: PEAK.load(Relaxed) - live,
    };
    drop(built);
    footprint
}

/// The benchmark's `chip_16x16_cols4` build: closed loop at MLP 4 on 256
/// routers.
fn chip_16x16() -> (ChipSim, Network) {
    let sim = ChipSim::multi_column(16, 16, 4);
    let spec = workloads::mlp_closed_loop(&sim.nearest_mc_mlp_plan(4));
    let network = sim.build_closed_loop(sim.default_policy(), spec);
    (sim, network.expect("16x16 chip builds"))
}

/// The benchmark's incast on the paper chip: every node aims at the victim's
/// controller. `horizon` bounds the 63 attackers' bursts (400 of every 1000
/// cycles); `None` is the same closed loop with every window static.
fn incast_8x8(horizon: Option<u64>) -> (ChipSim, Network) {
    let sim = ChipSim::paper_default();
    let (plan, hogs) = sim.incast_plan(Coord::new(0, 4));
    let spec = workloads::mlp_closed_loop(&plan);
    let spec = match horizon {
        Some(horizon) => spec.with_phases(workloads::bursty_hogs(
            plan.len(),
            &hogs,
            ChipSim::INCAST_ATTACKER_MLP,
            1_000,
            400,
            horizon,
            1,
        )),
        None => spec,
    };
    let network = sim.build_closed_loop(sim.default_policy(), spec);
    (sim, network.expect("incast chip builds"))
}

#[test]
fn builds_allocate_in_proportion_to_what_they_describe() {
    const KIB: usize = 1024;
    // 10 020 000 is the horizon of a ten-second benchmark run of
    // `chip_incast_8x8`.
    let rows = [
        ("chip_16x16_cols4", measure(chip_16x16)),
        ("incast_8x8 static", measure(|| incast_8x8(None))),
        (
            "incast_8x8 horizon 10 020 000",
            measure(|| incast_8x8(Some(10_020_000))),
        ),
    ];
    println!(
        "{:<32}{:>12}{:>14}{:>14}",
        "build", "allocations", "live bytes", "peak bytes"
    );
    for (name, f) in rows {
        println!(
            "{name:<32}{:>12}{:>14}{:>14}",
            f.allocations, f.live, f.peak
        );
    }
    let [(_, big), (_, fixed), (_, bursty)] = rows;

    // The parent commit read 163 054 allocations and 8.59 MiB live here:
    // a `Vec` per (router, destination) in the route tables, twice.
    assert!(big.allocations <= 45_000, "{big:?}");
    assert!(big.live <= 4_608 * KIB, "{big:?}");

    // A schedule is its closed form: the parent's peak was 45.1 MiB here,
    // two 16-byte records per burst per attacker, cloned once.
    assert!(
        bursty.peak <= fixed.peak + 64 * KIB,
        "{bursty:?} vs {fixed:?}"
    );
    assert!(
        bursty.live <= fixed.live + 64 * KIB,
        "{bursty:?} vs {fixed:?}"
    );
}
