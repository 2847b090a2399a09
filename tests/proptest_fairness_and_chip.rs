//! Property-style tests of the fairness mathematics and the chip-level
//! topology-aware architecture.
//!
//! Originally `proptest` properties; the workspace builds offline without the
//! proptest crate, so each property is now driven by a seeded ChaCha8 sweep
//! over the same input domains.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use taqos::core::chip::{Hypervisor, TopologyAwareChip, VmSpec};
use taqos::qos::fairness::{jain_index, max_min_fair_shares};
use taqos::topology::column::ColumnConfig;
use taqos::topology::grid::{ChipGrid, Coord};

fn vec_f64(
    rng: &mut ChaCha8Rng,
    range: std::ops::Range<f64>,
    len: std::ops::Range<usize>,
) -> Vec<f64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(range.clone())).collect()
}

/// Max-min fair shares never exceed the demand, never exceed the capacity in
/// total, and exhaust the capacity whenever demand does.
#[test]
fn max_min_shares_are_feasible_and_work_conserving() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA1A_0001);
    for _ in 0..256 {
        let demands = vec_f64(&mut rng, 0.0..2.0, 1..20);
        let capacity = rng.gen_range(0.1f64..4.0);
        let shares = max_min_fair_shares(&demands, capacity);
        assert_eq!(shares.len(), demands.len());
        let total_demand: f64 = demands.iter().sum();
        let total_share: f64 = shares.iter().sum();
        for (share, demand) in shares.iter().zip(&demands) {
            assert!(*share <= demand + 1e-9);
            assert!(*share >= -1e-12);
        }
        assert!(total_share <= capacity + 1e-9);
        if total_demand >= capacity {
            assert!(
                (total_share - capacity).abs() < 1e-6,
                "capacity should be exhausted: {total_share} vs {capacity}"
            );
        } else {
            assert!((total_share - total_demand).abs() < 1e-6);
        }
    }
}

/// Under max-min fairness, a flow demanding less than another never receives
/// more.
#[test]
fn max_min_shares_are_ordered_like_demands() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA1A_0002);
    for _ in 0..256 {
        let demands = vec_f64(&mut rng, 0.0..2.0, 2..12);
        let capacity = rng.gen_range(0.1f64..3.0);
        let shares = max_min_fair_shares(&demands, capacity);
        for i in 0..demands.len() {
            for j in 0..demands.len() {
                if demands[i] <= demands[j] {
                    assert!(shares[i] <= shares[j] + 1e-9);
                }
            }
        }
    }
}

/// Jain's index lies in (0, 1] and equals 1 exactly for equal inputs.
#[test]
fn jain_index_is_bounded() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA1A_0003);
    for _ in 0..256 {
        let values = vec_f64(&mut rng, 0.0..100.0, 1..32);
        let index = jain_index(&values);
        assert!(index > 0.0);
        assert!(index <= 1.0 + 1e-12);
    }
}

#[test]
fn jain_index_of_equal_values_is_one() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA1A_0004);
    for _ in 0..64 {
        let value = rng.gen_range(0.1f64..100.0);
        let n = rng.gen_range(1usize..32);
        let values = vec![value; n];
        assert!((jain_index(&values) - 1.0).abs() < 1e-9);
    }
}

/// Rectangular regions are always convex domains. The domain is small enough
/// to sweep exhaustively.
#[test]
fn rectangles_are_convex() {
    let grid = ChipGrid::paper();
    for x in 0u16..8 {
        for y in 0u16..8 {
            for w in 1u16..4 {
                for h in 1u16..4 {
                    let rect = grid.rectangle(Coord::new(x, y), w, h);
                    assert!(grid.is_convex_region(&rect), "({x},{y}) {w}x{h}");
                }
            }
        }
    }
}

/// Inter-domain routes computed by the topology-aware chip only change
/// direction inside shared-resource columns, for every pair of endpoints.
#[test]
fn inter_domain_routes_turn_only_in_shared_columns() {
    let chip = TopologyAwareChip::paper_default();
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA1A_0005);
    for _ in 0..128 {
        let from = Coord::new(rng.gen_range(0u16..8), rng.gen_range(0u16..8));
        let to = Coord::new(rng.gen_range(0u16..8), rng.gen_range(0u16..8));
        let route = chip
            .inter_domain_route(from, to)
            .expect("endpoints on chip");
        assert_eq!(route.first().copied(), Some(from));
        assert_eq!(route.last().copied(), Some(to));
        for w in route.windows(3) {
            let turned =
                (w[0].x != w[1].x && w[1].y != w[2].y) || (w[0].y != w[1].y && w[1].x != w[2].x);
            if turned {
                assert!(
                    chip.is_shared(w[1]),
                    "turn at {} happens outside the protected column",
                    w[1]
                );
            }
        }
    }
}

/// Memory accesses enter the shared column in a single row hop and never
/// leave it afterwards.
#[test]
fn memory_accesses_stay_inside_the_column_after_entry() {
    let chip = TopologyAwareChip::paper_default();
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA1A_0006);
    for _ in 0..128 {
        let from = Coord::new(rng.gen_range(0u16..8), rng.gen_range(0u16..8));
        let mc = Coord::new(4, rng.gen_range(0u16..8));
        let route = chip.memory_access_route(from, mc).expect("valid route");
        // At most one hop happens outside the shared column (the row hop on
        // the source's own MECS channel).
        let outside = route.iter().filter(|c| !chip.is_shared(**c)).count();
        assert!(outside <= 1, "route leaves the column: {route:?}");
        assert_eq!(route.last().copied(), Some(mc));
    }
}

/// The hypervisor never violates friendly co-scheduling, whatever mix of
/// tenants it manages to place.
#[test]
fn hypervisor_preserves_friendly_co_scheduling() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA1A_0007);
    for _ in 0..128 {
        let n_vms = rng.gen_range(1usize..6);
        let thread_counts: Vec<usize> = (0..n_vms).map(|_| rng.gen_range(1usize..24)).collect();
        let mut hypervisor = Hypervisor::new(TopologyAwareChip::paper_default());
        for (i, threads) in thread_counts.iter().enumerate() {
            // Placement may legitimately fail when the chip fills up.
            let _ = hypervisor.launch_vm(&VmSpec::new(format!("vm{i}"), *threads, 1 + i as u32));
        }
        assert!(hypervisor.co_scheduling_respected());
        // Programmed rates always normalise to 1 across the column's flows.
        let rates = hypervisor.program_column_rates(&ColumnConfig::paper());
        let sum: f64 = rates.rates().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}

/// Domains allocated by the chip never overlap each other or the shared
/// columns, and are always convex.
#[test]
fn allocated_domains_are_disjoint_and_convex() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA1A_0008);
    for _ in 0..128 {
        let n = rng.gen_range(1usize..6);
        let sizes: Vec<(u16, u16)> = (0..n)
            .map(|_| (rng.gen_range(1u16..4), rng.gen_range(1u16..4)))
            .collect();
        let mut chip = TopologyAwareChip::paper_default();
        for (i, (w, h)) in sizes.iter().enumerate() {
            let _ = chip.allocate_rectangle(format!("vm{i}"), *w, *h, 1);
        }
        let mut seen: BTreeSet<Coord> = BTreeSet::new();
        for domain in chip.domains() {
            assert!(domain.is_convex(chip.grid()));
            for &node in &domain.nodes {
                assert!(!chip.is_shared(node));
                assert!(seen.insert(node), "node {node} allocated twice");
            }
        }
    }
}
