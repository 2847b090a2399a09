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

use taqos::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The shared region: one column of the 8x8 grid, DPS topology,
    // the paper's Table 1 parameters.
    let sim = SharedRegionSim::new(ColumnTopology::Dps);
    println!(
        "topology        : {} ({} nodes, {} injectors)",
        sim.topology(),
        sim.column().nodes,
        sim.column().num_flows()
    );

    // Every injector offers 5% of link bandwidth, an even mix of 1-flit
    // requests and 4-flit replies, to destinations drawn uniformly at random.
    let generators = uniform_random(sim.column(), 0.05, PacketSizeMix::paper(), 42);

    // Preemptive Virtual Clock with equal rates for all 64 flows.
    let policy = sim.default_policy();
    println!(
        "QOS policy      : {} (frame {} cycles, reserved quota {} flits/frame)",
        policy.name(),
        policy.frame_len().unwrap_or(0),
        policy.reserved_quota(FlowId(0)).unwrap_or(0)
    );

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

    println!(
        "delivered       : {} packets ({} flits)",
        stats.delivered_packets, stats.delivered_flits
    );
    println!("avg latency     : {:.1} cycles", stats.avg_latency());
    println!("max latency     : {} cycles", stats.max_latency);
    println!(
        "throughput      : {:.2} flits/cycle accepted by the column",
        stats.accepted_throughput()
    );
    println!(
        "preemptions     : {:.3}% of packets",
        stats.preempted_packet_fraction() * 100.0
    );

    // Per-flow fairness of the delivered throughput.
    let per_flow = stats.measured_flits_per_flow();
    let summary = ThroughputSummary::from_observations(&per_flow).expect("flows exist");
    println!(
        "per-flow flits  : mean {:.0}, min {:.0} ({:.1}% of mean), max {:.0} ({:.1}% of mean)",
        summary.mean,
        summary.min,
        summary.min_pct_of_mean(),
        summary.max,
        summary.max_pct_of_mean()
    );

    // Zero-load sanity check against the analytic model.
    println!(
        "zero-load check : analytic {:.1} cycles at the average distance",
        zero_load_latency_uniform(ColumnTopology::Dps, sim.column().nodes)
    );
    Ok(())
}
