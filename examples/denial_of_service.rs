//! Adversarial battery: one named denial-of-service attack per arbitration
//! point of the memory path, and the p99 bound PVC holds each one to.
//!
//! The original version of this example staged a single attack — a tenant
//! adjacent to the memory controller flooding it. That scenario has grown
//! into [`taqos::core::experiment::adversarial`]: a battery with one named
//! attack per arbitration point of the memory path (fabric VA/SA where row
//! traffic merges into the column, the column's PVC arbitration itself,
//! admission into the controller's bounded request queue, and FR-FCFS bank
//! scheduling inside the controller). Each attack drives its point to
//! saturation from a hostile tenant while a modest victim shares it; the
//! experiment measures the victim's 99th-percentile latency with the point
//! unprotected and under PVC — the PVC number *is* the isolation bound.
//!
//! Two heterogeneity experiments complete the picture: VMs with different
//! service weights must receive memory service proportional to their
//! programmed rates, and a VM live-migrated away from a hog mid-run must
//! keep its bound *through* the transition (rates reprogrammed and MLP
//! windows phased over at the same instant, in-flight requests drained).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example denial_of_service
//! ```

use taqos::core::experiment::adversarial::{
    attack_battery, migration_experiment, weighted_vm_experiment, AttackConfig, MigrationConfig,
    WeightedVmConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = AttackConfig::default();
    println!(
        "adversarial battery on the {}x{} chip ({} shared column(s)), {}-cycle window",
        config.width, config.height, config.columns, config.open_loop.measure
    );
    println!();
    println!(
        "{:<20} {:<22} {:>16} {:>12} {:>14}",
        "attack", "arbitration point", "victim p99 no-QOS", "PVC bound", "victim service"
    );
    let reports = attack_battery(&config);
    for report in &reports {
        println!(
            "{:<20} {:<22} {:>16} {:>12} {:>7} -> {:<5}",
            report.attack,
            report.point.label(),
            report.victim_p99_unprotected,
            report.bound(),
            report.victim_service_unprotected,
            report.victim_service_pvc,
        );
    }
    println!();
    for report in &reports {
        assert!(
            report.holds(),
            "{}: PVC bound {} exceeds unprotected p99 {}",
            report.attack,
            report.bound(),
            report.victim_p99_unprotected
        );
    }
    println!("every attack is held to its measured p99 bound by PVC.");
    println!();

    // Heterogeneous tenants: service must track the programmed weights.
    let weighted = weighted_vm_experiment(&WeightedVmConfig::default());
    println!("--- weighted VMs (hypervisor-programmed rates) ---");
    for (i, ((&w, &rt), (delivered, programmed))) in weighted
        .vm_weights
        .iter()
        .zip(&weighted.round_trips_per_vm)
        .zip(
            weighted
                .delivered_shares
                .iter()
                .zip(&weighted.programmed_shares),
        )
        .enumerate()
    {
        println!(
            "vm{i} weight {w}: {rt} round trips, {:.1}% of service (programmed {:.1}%)",
            100.0 * delivered,
            100.0 * programmed
        );
    }
    println!(
        "worst share error {:.1}% — memory service tracks the programmed weights.",
        100.0 * weighted.worst_share_error
    );
    assert!(weighted.worst_share_error < 0.35);
    println!();

    // Live migration under attack: the bound holds through the transition.
    let migration = migration_experiment(&MigrationConfig::default());
    println!("--- live migration away from a hog, mid-run ---");
    println!(
        "old site completed {} round trips and drained to {} in flight; \
         new site completed {} round trips.",
        migration.old_site_round_trips,
        migration.old_site_in_flight,
        migration.new_site_round_trips
    );
    println!(
        "victim p99 through the transition: {} cycles; conservation held: {}.",
        migration.victim_p99, migration.conserved
    );
    assert!(migration.conserved, "request conservation must hold");
    assert_eq!(migration.old_site_in_flight, 0, "old site must drain");
    assert!(migration.old_site_round_trips > 0 && migration.new_site_round_trips > 0);
    Ok(())
}
