//! Analytic properties of the column topologies: bisection bandwidth,
//! zero-load latency, and average hop counts.
//!
//! These closed-form quantities complement the cycle-level simulation: they
//! explain the ordering of the latency/throughput curves (Figure 4) and are
//! verified against the simulator in integration tests.

use crate::column::{ColumnConfig, ColumnTopology};

/// Number of channels crossing the middle bisection of an `n`-node column
/// (both directions combined).
///
/// Mesh xK contributes `2·K` channels; MECS and DPS each contribute `n`
/// channels, which is why MECS, DPS and mesh x4 have equal bisection
/// bandwidth for the paper's 8-node column.
pub(crate) fn bisection_channels(topology: ColumnTopology, nodes: usize) -> usize {
    match topology {
        ColumnTopology::MeshX1 => 2,
        ColumnTopology::MeshX2 => 4,
        ColumnTopology::MeshX4 => 8,
        ColumnTopology::Mecs | ColumnTopology::Dps => nodes,
    }
}

/// Bisection bandwidth in bytes per cycle.
pub fn bisection_bandwidth_bytes(topology: ColumnTopology, config: &ColumnConfig) -> u64 {
    bisection_channels(topology, config.nodes) as u64 * u64::from(config.flit_bytes)
}

/// Zero-load head latency (cycles) of a packet travelling `hops` nodes along
/// the column, from injection-port arbitration at the source router to
/// hand-off at the destination terminal, excluding serialisation.
///
/// * mesh: every hop traverses a 2-cycle router (VA, XT) plus a 1-cycle wire;
///   the destination router adds a final 2-cycle traversal for ejection.
/// * MECS: one 3-cycle router (2-cycle arbitration) at the source, `hops`
///   cycles of wire, and a 3-cycle traversal at the destination.
/// * DPS: 2-cycle routers at source and destination, single-cycle traversals
///   at the `hops - 1` intermediate nodes, and a 1-cycle wire per hop.
pub fn zero_load_latency(topology: ColumnTopology, hops: u32) -> u32 {
    let params = topology.params();
    let router = params.va_latency + params.xt_latency;
    if hops == 0 {
        // Local traffic: injection port to ejection port of the same router.
        return router;
    }
    match topology {
        ColumnTopology::MeshX1 | ColumnTopology::MeshX2 | ColumnTopology::MeshX4 => {
            (hops + 1) * router + hops
        }
        ColumnTopology::Mecs => 2 * router + hops,
        ColumnTopology::Dps => 2 * router + (hops - 1) + hops,
    }
}

/// Average hop distance of uniform-random traffic over `n` destinations laid
/// out on a line (self-traffic excluded).
pub(crate) fn uniform_random_avg_hops(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let mut total = 0u64;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                total += (i as i64 - j as i64).unsigned_abs();
            }
        }
    }
    total as f64 / (n * (n - 1)) as f64
}

/// Average hop distance of the tornado pattern (destination half-way across
/// the dimension: `dst = (src + n/2) mod n`) on a line of `n` nodes.
pub fn tornado_avg_hops(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let mut total = 0u64;
    for src in 0..n {
        let dst = (src + n / 2) % n;
        total += (src as i64 - dst as i64).unsigned_abs();
    }
    total as f64 / n as f64
}

/// Zero-load latency at the average uniform-random distance; used to sanity
/// check the simulated latency ordering of Figure 4(a).
pub fn zero_load_latency_uniform(topology: ColumnTopology, nodes: usize) -> f64 {
    let hops = uniform_random_avg_hops(nodes);
    interpolate_latency(topology, hops)
}

/// Zero-load latency at the tornado distance; used to sanity check the
/// ordering of Figure 4(b).
pub fn zero_load_latency_tornado(topology: ColumnTopology, nodes: usize) -> f64 {
    let hops = tornado_avg_hops(nodes);
    interpolate_latency(topology, hops)
}

fn interpolate_latency(topology: ColumnTopology, hops: f64) -> f64 {
    let lo = hops.floor() as u32;
    let hi = hops.ceil() as u32;
    let frac = hops - f64::from(lo);
    let a = f64::from(zero_load_latency(topology, lo));
    let b = f64::from(zero_load_latency(topology, hi));
    a + (b - a) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 8;

    #[test]
    fn equal_bisection_for_mecs_dps_and_mesh_x4() {
        let cfg = ColumnConfig::paper();
        let x4 = bisection_bandwidth_bytes(ColumnTopology::MeshX4, &cfg);
        let mecs = bisection_bandwidth_bytes(ColumnTopology::Mecs, &cfg);
        let dps = bisection_bandwidth_bytes(ColumnTopology::Dps, &cfg);
        assert_eq!(x4, mecs);
        assert_eq!(mecs, dps);
        assert_eq!(
            bisection_bandwidth_bytes(ColumnTopology::MeshX1, &cfg) * 4,
            x4
        );
        assert_eq!(
            bisection_bandwidth_bytes(ColumnTopology::MeshX2, &cfg) * 2,
            x4
        );
    }

    #[test]
    fn average_distances_match_hand_computation() {
        // For 8 nodes on a line the mean pairwise distance is 3.
        assert!((uniform_random_avg_hops(N) - 3.0).abs() < 1e-12);
        // Tornado always travels 4 hops on an 8-node line.
        assert!((tornado_avg_hops(N) - 4.0).abs() < 1e-12);
        assert_eq!(uniform_random_avg_hops(1), 0.0);
        assert_eq!(tornado_avg_hops(0), 0.0);
    }

    #[test]
    fn zero_load_latency_formulas() {
        // 3 hops: mesh = 4 routers * 2 + 3 wires = 11; MECS = 3 + 3 + 3 = 9;
        // DPS = 2 + 2 intermediate + 3 wires + 2 = 9.
        assert_eq!(zero_load_latency(ColumnTopology::MeshX1, 3), 11);
        assert_eq!(zero_load_latency(ColumnTopology::Mecs, 3), 9);
        assert_eq!(zero_load_latency(ColumnTopology::Dps, 3), 9);
        // Local traffic needs only the source router.
        assert_eq!(zero_load_latency(ColumnTopology::MeshX1, 0), 2);
        assert_eq!(zero_load_latency(ColumnTopology::Mecs, 0), 3);
    }

    #[test]
    fn mecs_and_dps_beat_meshes_at_average_distance() {
        for t in [ColumnTopology::Mecs, ColumnTopology::Dps] {
            for mesh in [
                ColumnTopology::MeshX1,
                ColumnTopology::MeshX2,
                ColumnTopology::MeshX4,
            ] {
                assert!(zero_load_latency_uniform(t, N) < zero_load_latency_uniform(mesh, N));
            }
        }
    }

    #[test]
    fn longer_distances_favour_mecs_over_dps() {
        // At the tornado distance MECS amortises its deeper pipeline.
        assert!(
            zero_load_latency_tornado(ColumnTopology::Mecs, N)
                < zero_load_latency_tornado(ColumnTopology::Dps, N)
        );
        // At one hop DPS is faster than MECS.
        assert!(
            zero_load_latency(ColumnTopology::Dps, 1) < zero_load_latency(ColumnTopology::Mecs, 1)
        );
    }
}
