//! Exact-integer footprint gates: what three facade builds allocate, and
//! what the engine allocates once a run is in steady state.
//!
//! Heap allocations are counted by a `#[global_allocator]`, so the numbers
//! repeat exactly on any machine — unlike `peak_rss_mib`, which the benchmark
//! reads from the kernel. The counters are per thread, so each `#[test]`
//! counts only its own work while the harness runs the other beside it. Run
//! with `-- --nocapture` to see the tables.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use taqos::core::chip_sim::ChipSim;
use taqos::core::experiment::chip_scale::chip_fault_bench_plan;
use taqos::netsim::closed_loop::{DramConfig, DramScheduler, RetryPolicy};
use taqos::netsim::config::EngineKind;
use taqos::netsim::network::Network;
use taqos::netsim::SimConfig;
use taqos::qos::pvc::PvcPolicy;
use taqos::topology::grid::Coord;
use taqos::topology::mesh2d::Mesh2dConfig;
use taqos::traffic::injection::PacketSizeMix;
use taqos::traffic::workloads;

thread_local! {
    /// This thread's calls to `alloc`/`realloc`, the bytes it holds live now
    /// (what it allocated minus what it freed), and the most it ever held.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn grew(bytes: usize) {
    ALLOCATIONS.set(ALLOCATIONS.get() + 1);
    let live = LIVE.get().wrapping_add(bytes);
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

fn shrank(bytes: usize) {
    LIVE.set(LIVE.get().wrapping_sub(bytes));
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
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` with this layout, as `alloc` and
        // `realloc` forward to it.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
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
    let (allocations, live) = (ALLOCATIONS.get(), LIVE.get());
    PEAK.set(live);
    let built = build();
    let footprint = Footprint {
        allocations: ALLOCATIONS.get() - allocations,
        live: LIVE.get().wrapping_sub(live),
        peak: PEAK.get().wrapping_sub(live),
    };
    drop(built);
    footprint
}

/// The benchmark's `chip_16x16_cols4` build: closed loop at MLP 4 on 256
/// routers. Like every build below, it is `benchmark/src/workloads.rs`'s at
/// seed 1.
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
    // One `print!` per table: the other test prints beside this one.
    let mut table = format!(
        "{:<32}{:>12}{:>14}{:>14}\n",
        "build", "allocations", "live bytes", "peak bytes"
    );
    for (name, f) in rows {
        table += &format!(
            "{name:<32}{:>12}{:>14}{:>14}\n",
            f.allocations, f.live, f.peak
        );
    }
    print!("{table}");
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

/// The benchmark's `mesh_open_8x8`: open-loop uniform random traffic at
/// 0.08 flits/cycle/injector, PVC at all 64 routers.
fn mesh_open_8x8(engine: EngineKind) -> Network {
    let mesh = Mesh2dConfig::paper_8x8();
    let generators =
        workloads::uniform_random_terminals(mesh.num_nodes(), 0.08, PacketSizeMix::paper(), 1);
    Network::new(
        mesh.build(),
        Box::new(PvcPolicy::equal_rates(mesh.num_nodes())),
        generators,
        SimConfig::default().with_engine(engine),
    )
    .expect("mesh builds")
}

/// The benchmark's `chip_dram_frfcfs_8x8`: the paper chip's closed loop at
/// MLP 4 on DRAM-backed FR-FCFS controllers.
fn chip_dram_frfcfs_8x8() -> Network {
    let sim = ChipSim::paper_default();
    let dram = sim
        .topology_dram(DramConfig::paper())
        .with_scheduler(DramScheduler::FrFcfs);
    let sim = sim.with_dram(dram);
    let spec = workloads::mlp_closed_loop(&sim.nearest_mc_mlp_plan(4));
    sim.build_closed_loop(sim.default_policy(), spec)
        .expect("DRAM chip builds")
}

/// The benchmark's `chip_fault_8x8`: the paper chip's closed loop at MLP 4
/// on a failing fabric, with deadline/retry recovery.
fn chip_fault_8x8() -> Network {
    let sim = ChipSim::paper_default();
    let plan = chip_fault_bench_plan(&sim, 1);
    let sim = sim.with_fault_plan(plan);
    let spec = workloads::mlp_closed_loop(&sim.nearest_mc_mlp_plan(4))
        .with_retry(RetryPolicy::new(2_000, 4));
    sim.build_closed_loop(sim.default_policy(), spec)
        .expect("faulted chip builds")
}

/// One steady-state row: the workload, its build, and its allocation bound.
type SteadyRow = (&'static str, fn() -> Network, usize);

/// `alloc` + `realloc` calls made while `network` steps `window` cycles,
/// after `warmup` cycles have filled its queues and frames.
fn steady_state_allocations(mut network: Network, warmup: u64, window: u64) -> usize {
    network.run_for(warmup);
    let before = ALLOCATIONS.get();
    network.run_for(window);
    ALLOCATIONS.get() - before
}

#[test]
fn steady_state_steps_allocate_only_new_high_water_marks() {
    const WARMUP: u64 = 10_000;
    const WINDOW: u64 = 10_000;
    // Each optimized row's bound is the count it reads, which repeats
    // exactly run to run and in debug and release. A few dozen per 10 000
    // cycles is containers growing to a new high-water mark, not per-cycle
    // work. The reference row is a bound, not a pin: its packet store is a
    // `HashMap`, whose growth depends on its per-process hash seed.
    let rows: [SteadyRow; 6] = [
        ("mesh_open_8x8", || mesh_open_8x8(EngineKind::Optimized), 34),
        ("chip_dram_frfcfs_8x8", chip_dram_frfcfs_8x8, 0),
        ("chip_16x16_cols4", || chip_16x16().1, 0),
        ("chip_incast_8x8", || incast_8x8(Some(10_020_000)).1, 13),
        ("chip_fault_8x8", chip_fault_8x8, 18),
        (
            "mesh_open_8x8 reference",
            || mesh_open_8x8(EngineKind::Reference),
            8,
        ),
    ];
    let counted = rows.map(|(name, build, bound)| {
        let allocations = steady_state_allocations(build(), WARMUP, WINDOW);
        (name, allocations, bound)
    });
    let mut table = format!(
        "{:<32}{:>12}{:>8}   (cycles {WARMUP}..{})\n",
        "workload",
        "allocations",
        "bound",
        WARMUP + WINDOW
    );
    for (name, allocations, bound) in counted {
        table += &format!("{name:<32}{allocations:>12}{bound:>8}\n");
    }
    print!("{table}");
    for (name, allocations, bound) in counted {
        assert!(
            allocations <= bound,
            "{name}: {allocations} allocations in {WINDOW} steady-state cycles, bound {bound}"
        );
    }
}
