//! Quickstart: simulate the QOS-enabled shared region and print the basics.
//!
//! Builds the paper's 8-node shared-resource column with the Destination
//! Partitioned Subnets (DPS) topology, drives it with uniform-random traffic
//! from all 64 injectors under Preemptive Virtual Clock, and prints latency,
//! throughput and fairness numbers.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::error::Error;
use std::fmt::Write as _;
use taqos::core::shared_region::SharedRegionSim;
use taqos::netsim::qos::QosPolicy;
use taqos::netsim::sim::{run_open_loop, OpenLoopConfig};
use taqos::netsim::stats::ThroughputSummary;
use taqos::netsim::FlowId;
use taqos::topology::column::ColumnTopology;
use taqos::topology::properties::zero_load_latency_uniform;
use taqos::traffic::injection::PacketSizeMix;
use taqos::traffic::workloads::uniform_random;

pub(crate) fn main() -> Result<(), Box<dyn Error>> {
    let mut out = String::new();
    run(&mut out)?;
    print!("{out}");
    Ok(())
}

/// Runs the example, writing what `main` prints into `out`.
pub(crate) fn run(out: &mut String) -> Result<(), Box<dyn Error>> {
    // The shared region: one column of the 8x8 grid, DPS topology,
    // the paper's Table 1 parameters.
    let sim = SharedRegionSim::new(ColumnTopology::Dps);
    writeln!(
        out,
        "topology        : {} ({} nodes, {} injectors)",
        sim.topology(),
        sim.column().nodes,
        sim.column().num_flows()
    )?;

    // Every injector offers 5% of link bandwidth, an even mix of 1-flit
    // requests and 4-flit replies, to destinations drawn uniformly at random.
    let generators = uniform_random(sim.column(), 0.05, PacketSizeMix::paper(), 42);

    // Preemptive Virtual Clock with equal rates for all 64 flows.
    let policy = sim.default_policy();
    writeln!(
        out,
        "QOS policy      : {} (frame {} cycles, reserved quota {} flits/frame)",
        policy.name(),
        policy.frame_len().unwrap_or(0),
        policy.reserved_quota(FlowId(0)).unwrap_or(0)
    )?;

    // Warm up, measure, drain.
    let network = sim.build(Box::new(policy), generators)?;
    let stats = run_open_loop(
        network,
        OpenLoopConfig {
            warmup: 5_000,
            measure: 20_000,
            drain: 5_000,
        },
    );

    writeln!(
        out,
        "delivered       : {} packets ({} flits)",
        stats.delivered_packets, stats.delivered_flits
    )?;
    writeln!(out, "avg latency     : {:.1} cycles", stats.avg_latency())?;
    writeln!(out, "max latency     : {} cycles", stats.max_latency)?;
    writeln!(
        out,
        "throughput      : {:.2} flits/cycle accepted by the column",
        stats.accepted_throughput()
    )?;
    writeln!(
        out,
        "preemptions     : {:.3}% of packets",
        stats.preempted_packet_fraction() * 100.0
    )?;

    // Per-flow fairness of the delivered throughput.
    let per_flow = stats.measured_flits_per_flow();
    let summary = ThroughputSummary::from_observations(&per_flow).expect("flows exist");
    writeln!(
        out,
        "per-flow flits  : mean {:.0}, min {:.0} ({:.1}% of mean), max {:.0} ({:.1}% of mean)",
        summary.mean,
        summary.min,
        summary.min_pct_of_mean(),
        summary.max,
        summary.max_pct_of_mean()
    )?;

    // Zero-load sanity check against the analytic model.
    writeln!(
        out,
        "zero-load check : analytic {:.1} cycles at the average distance",
        zero_load_latency_uniform(ColumnTopology::Dps, sim.column().nodes)
    )?;
    Ok(())
}
