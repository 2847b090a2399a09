//! Topology explorer: compare the five shared-region topologies in one run.
//!
//! For each candidate topology (mesh x1/x2/x4, MECS, DPS) the example prints
//! a one-line summary combining the three axes the paper evaluates:
//! performance (average latency at a moderate load), router area, and router
//! energy on a 3-hop route. This is the "which organisation should my shared
//! region use?" view a designer would want.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example topology_explorer [-- <injection-rate-percent>]
//! ```

use std::error::Error;
use std::fmt::Write as _;
use taqos::core::shared_region::SharedRegionSim;
use taqos::netsim::sim::{run_open_loop, OpenLoopConfig};
use taqos::power::area::AreaModel;
use taqos::power::energy::EnergyModel;
use taqos::topology::column::{ColumnConfig, ColumnTopology};
use taqos::topology::properties::bisection_bandwidth_bytes;
use taqos::traffic::injection::PacketSizeMix;
use taqos::traffic::workloads::uniform_random;

/// Injection rate, in percent per injector, when none is given.
pub(crate) const DEFAULT_RATE_PCT: f64 = 8.0;

pub(crate) fn main() -> Result<(), Box<dyn Error>> {
    let rate_pct: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(DEFAULT_RATE_PCT);
    let mut out = String::new();
    run(&mut out, rate_pct)?;
    print!("{out}");
    Ok(())
}

/// Runs the example at `rate_pct`, writing what `main` prints into `out`.
pub(crate) fn run(out: &mut String, rate_pct: f64) -> Result<(), Box<dyn Error>> {
    let rate = rate_pct / 100.0;
    let column = ColumnConfig::paper();
    let area_model = AreaModel::nm32();
    let energy_model = EnergyModel::nm32();

    writeln!(
        out,
        "uniform-random traffic at {rate_pct:.0}% injection per injector, PVC, 32 nm models"
    )?;
    writeln!(out, "{:-<100}", "")?;
    writeln!(
        out,
        "{:<10} {:>12} {:>14} {:>14} {:>14} {:>16} {:>12}",
        "topology",
        "latency cyc",
        "accepted f/c",
        "preempted %",
        "area mm^2",
        "3-hop energy pJ",
        "bisection B/c"
    )?;
    writeln!(out, "{:-<100}", "")?;

    for topology in ColumnTopology::all() {
        let sim = SharedRegionSim::new(topology).with_column(column);
        let generators = uniform_random(&column, rate, PacketSizeMix::paper(), 11);
        let network = sim.build(Box::new(sim.default_policy()), generators)?;
        let stats = run_open_loop(
            network,
            OpenLoopConfig {
                warmup: 3_000,
                measure: 15_000,
                drain: 3_000,
            },
        );
        let area = area_model.topology_area(topology, &column);
        let energy = energy_model.route_energy(topology, &column, 3);
        writeln!(
            out,
            "{:<10} {:>12.1} {:>14.2} {:>14.2} {:>14.4} {:>16.1} {:>12}",
            topology.name(),
            stats.avg_latency(),
            stats.accepted_throughput(),
            stats.preempted_packet_fraction() * 100.0,
            area.total_mm2(),
            energy.total_pj(),
            bisection_bandwidth_bytes(topology, &column),
        )?;
    }
    writeln!(out, "{:-<100}", "")?;
    writeln!(
        out,
        "DPS combines mesh-like router cost with MECS-like latency and energy on"
    )?;
    writeln!(
        out,
        "multi-hop transfers — the trade-off the paper proposes for the shared region."
    )?;
    Ok(())
}
