//! Regenerates Table 2: relative per-flow throughput under hotspot traffic
//! with Preemptive Virtual Clock, for all five topologies.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p taqos-bench --bin table2_fairness -- [--quick] [--no-qos]
//! ```
//!
//! `--no-qos` additionally prints the same experiment without QOS support,
//! demonstrating the locality-driven unfairness PVC eliminates.

use taqos_bench::{rule, CliArgs};
use taqos_core::experiment::fairness::{
    hotspot_fairness, table2, FairnessConfig, FairnessPolicy, FairnessResult,
};
use taqos_topology::column::ColumnTopology;

fn print_rows(rows: &[FairnessResult]) {
    println!("{}", rule(96));
    println!(
        "{:<10} {:>10} {:>22} {:>22} {:>20} {:>8}",
        "topology", "mean", "min (% of mean)", "max (% of mean)", "std dev (% mean)", "Jain"
    );
    println!("{}", rule(96));
    for row in rows {
        println!(
            "{:<10} {:>10.0} {:>12.0} ({:>6.1}%) {:>12.0} ({:>6.1}%) {:>10.1} ({:>5.1}%) {:>8.4}",
            row.topology.name(),
            row.summary.mean,
            row.summary.min,
            row.summary.min_pct_of_mean(),
            row.summary.max,
            row.summary.max_pct_of_mean(),
            row.summary.std_dev,
            row.summary.std_dev_pct_of_mean(),
            row.jain,
        );
    }
    println!("{}", rule(96));
}

fn main() {
    let args = CliArgs::from_env();
    let config = if args.has_flag("quick") {
        FairnessConfig::quick()
    } else {
        FairnessConfig::default()
    };

    eprintln!(
        "running hotspot fairness: 5 topologies, {} measured cycles each",
        config.measure
    );
    println!("Table 2: Relative throughput of flows under hotspot traffic (flits per flow, PVC)");
    let rows = table2(&config);
    print_rows(&rows);

    if args.has_flag("no-qos") {
        println!();
        println!("Reference without QOS support (round-robin arbitration):");
        let rows: Vec<FairnessResult> = ColumnTopology::all()
            .into_iter()
            .map(|t| hotspot_fairness(t, FairnessPolicy::NoQos, &config))
            .collect();
        print_rows(&rows);
    }
}
