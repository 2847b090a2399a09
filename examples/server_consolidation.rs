//! Server consolidation: several virtual machines with different priorities
//! share one chip.
//!
//! This example exercises the chip-level half of the architecture:
//!
//! 1. the hypervisor launches three VMs with different service weights onto
//!    the 256-tile chip, allocating convex domains and co-scheduling only
//!    friendly threads on each node;
//! 2. the per-flow rates of the QOS-protected shared column are programmed
//!    from the VM weights;
//! 3. the shared column is simulated under memory (hotspot) traffic with
//!    Preemptive Virtual Clock using those rates, and the delivered
//!    throughput per chip row is reported — rows hosting the premium VM
//!    receive proportionally more memory bandwidth.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example server_consolidation
//! ```

use std::error::Error;
use std::fmt::Write as _;
use taqos::core::chip::{Hypervisor, TopologyAwareChip, VmSpec};
use taqos::core::shared_region::SharedRegionSim;
use taqos::netsim::sim::{run_open_loop, OpenLoopConfig};
use taqos::netsim::NodeId;
use taqos::qos::pvc::{PvcConfig, PvcPolicy};
use taqos::topology::column::{ColumnConfig, ColumnTopology};
use taqos::traffic::injection::PacketSizeMix;
use taqos::traffic::workloads::hotspot;

pub(crate) fn main() -> Result<(), Box<dyn Error>> {
    let mut out = String::new();
    run(&mut out)?;
    print!("{out}");
    Ok(())
}

/// Runs the example, writing what `main` prints into `out`.
pub(crate) fn run(out: &mut String) -> Result<(), Box<dyn Error>> {
    // --- Chip-level: place the tenants -------------------------------------
    let chip = TopologyAwareChip::paper_default();
    writeln!(
        out,
        "chip            : {}x{} nodes, {} tiles, {:.1}% of routers need QOS hardware",
        chip.grid().width,
        chip.grid().height,
        chip.grid().tiles(),
        chip.qos_router_fraction() * 100.0
    )?;
    let mut hypervisor = Hypervisor::new(chip);

    let premium = hypervisor.launch_vm(&VmSpec::new("premium-db", 32, 8))?;
    let standard = hypervisor.launch_vm(&VmSpec::new("web-frontend", 24, 3))?;
    let batch = hypervisor.launch_vm(&VmSpec::new("batch-analytics", 16, 1))?;
    for placement in hypervisor.placements() {
        writeln!(
            out,
            "tenant {:<16}: {} threads on {} nodes (weight {})",
            placement.vm,
            placement.total_threads(),
            placement.threads_per_node.len(),
            placement.weight
        )?;
    }
    assert!(hypervisor.co_scheduling_respected());
    writeln!(
        out,
        "domains         : {:?} are convex and disjoint",
        [premium, standard, batch].map(|d| d.0)
    )?;

    // --- Program the shared column and simulate it -------------------------
    let column = ColumnConfig::paper();
    let rates = hypervisor.program_column_rates(&column);
    let policy = PvcPolicy::new(PvcConfig::paper(), rates.clone());

    let sim = SharedRegionSim::new(ColumnTopology::Dps).with_column(column);
    // All injectors stream memory traffic towards the memory controller at
    // node 0 of the column, far beyond its capacity.
    let generators = hotspot(&column, 0.05, PacketSizeMix::paper(), NodeId(0), 7);
    let network = sim.build(Box::new(policy), generators)?;
    let stats = run_open_loop(
        network,
        OpenLoopConfig {
            warmup: 5_000,
            measure: 30_000,
            drain: 5_000,
        },
    );

    // --- Report per-row memory bandwidth ------------------------------------
    writeln!(out)?;
    writeln!(
        out,
        "memory bandwidth delivered per chip row (flits during the measurement window):"
    )?;
    let per_flow = stats.measured_flits_per_flow();
    for row in 0..column.nodes {
        let row_flits: u64 = (0..column.injectors_per_node())
            .map(|inj| per_flow[column.flow_of(row, inj).index()])
            .sum();
        let rate = rates.rate(column.flow_of(row, 1));
        let owner = hypervisor
            .placements()
            .iter()
            .find(|p| {
                hypervisor
                    .chip()
                    .domain(p.domain)
                    .map(|d| d.rows().contains(&(row as u16)))
                    .unwrap_or(false)
            })
            .map(|p| p.vm.as_str())
            .unwrap_or("(unallocated)");
        writeln!(
            out,
            "  row {row}: {row_flits:>6} flits  (programmed rate {:.4}, tenant: {owner})",
            rate
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "higher-weight tenants receive proportionally more of the contended memory port,"
    )?;
    writeln!(
        out,
        "while no row is starved — the guarantee PVC provides inside the shared region."
    )?;
    Ok(())
}
