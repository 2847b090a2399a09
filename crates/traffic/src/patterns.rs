//! Classic permutation traffic patterns.
//!
//! Besides the uniform-random, tornado and hotspot workloads used in the
//! paper, the standard network-on-chip evaluation repertoire (Dally & Towles)
//! includes a family of *permutation* patterns in which every source sends
//! all of its traffic to a single, address-derived destination. They stress
//! different aspects of a topology (adversarial bisection use, locality,
//! shuffle stages) and are provided here as extensions for exploring the
//! shared-region topologies beyond the paper's figures.

use serde::{Deserialize, Serialize};
use taqos_netsim::NodeId;

/// A destination permutation over the nodes of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Permutation {
    /// `dst = (src + n/2) mod n` — the tornado pattern.
    Tornado,
    /// `dst = n - 1 - src` — bit complement on a power-of-two column.
    BitComplement,
    /// Bit-reversal of the node index (power-of-two columns only; identity
    /// otherwise).
    BitReverse,
    /// Perfect shuffle: rotate the node index left by one bit.
    Shuffle,
    /// `dst = (src + 1) mod n` — nearest-neighbour traffic.
    Neighbour,
    /// `dst = src` — self traffic (every packet ejects at its own node).
    Identity,
}

impl Permutation {
    /// Short name used in reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Permutation::Tornado => "tornado",
            Permutation::BitComplement => "bit_complement",
            Permutation::BitReverse => "bit_reverse",
            Permutation::Shuffle => "shuffle",
            Permutation::Neighbour => "neighbour",
            Permutation::Identity => "identity",
        }
    }

    /// Destination of a source node under this permutation in a column of
    /// `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not smaller than `nodes` or `nodes` is zero.
    pub(crate) fn destination(self, src: usize, nodes: usize) -> NodeId {
        assert!(nodes > 0, "a permutation needs at least one node");
        assert!(src < nodes, "source {src} outside the {nodes}-node column");
        let bits = nodes.trailing_zeros();
        let power_of_two = nodes.is_power_of_two();
        let dst = match self {
            Permutation::Tornado => (src + nodes / 2) % nodes,
            Permutation::BitComplement => nodes - 1 - src,
            Permutation::BitReverse => {
                if power_of_two && bits > 0 {
                    let mut r = 0usize;
                    for b in 0..bits {
                        if src & (1 << b) != 0 {
                            r |= 1 << (bits - 1 - b);
                        }
                    }
                    r
                } else {
                    src
                }
            }
            Permutation::Shuffle => {
                if power_of_two && bits > 0 {
                    ((src << 1) | (src >> (bits - 1))) & (nodes - 1)
                } else {
                    (src + 1) % nodes
                }
            }
            Permutation::Neighbour => (src + 1) % nodes,
            Permutation::Identity => src,
        };
        NodeId(dst as u16)
    }
}

impl std::fmt::Display for Permutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taqos_topology::properties::tornado_avg_hops;

    /// All permutations, for sweeps.
    fn all() -> [Permutation; 6] {
        [
            Permutation::Tornado,
            Permutation::BitComplement,
            Permutation::BitReverse,
            Permutation::Shuffle,
            Permutation::Neighbour,
            Permutation::Identity,
        ]
    }

    /// Whether the mapping is a bijection over the column (true permutations
    /// load every destination equally).
    fn is_bijective(p: Permutation, nodes: usize) -> bool {
        let mut seen = vec![false; nodes];
        for src in 0..nodes {
            let dst = p.destination(src, nodes).index();
            if seen[dst] {
                return false;
            }
            seen[dst] = true;
        }
        seen.into_iter().all(|s| s)
    }

    #[test]
    fn tornado_matches_the_workload_definition() {
        assert_eq!(Permutation::Tornado.destination(1, 8), NodeId(5));
        assert_eq!(Permutation::Tornado.destination(5, 8), NodeId(1));
        // The pattern's mean line distance equals the closed form, which
        // shares no code with `destination`.
        let hops: u64 = (0..8)
            .map(|src| src as i64 - Permutation::Tornado.destination(src, 8).index() as i64)
            .map(i64::unsigned_abs)
            .sum();
        assert_eq!(hops as f64 / 8.0, tornado_avg_hops(8));
    }

    #[test]
    fn bit_complement_reflects_the_column() {
        assert_eq!(Permutation::BitComplement.destination(0, 8), NodeId(7));
        assert_eq!(Permutation::BitComplement.destination(3, 8), NodeId(4));
    }

    #[test]
    fn bit_reverse_swaps_bit_order() {
        // 3 bits: 001 -> 100, 011 -> 110, 010 -> 010.
        assert_eq!(Permutation::BitReverse.destination(1, 8), NodeId(4));
        assert_eq!(Permutation::BitReverse.destination(3, 8), NodeId(6));
        assert_eq!(Permutation::BitReverse.destination(2, 8), NodeId(2));
    }

    #[test]
    fn shuffle_rotates_bits() {
        // 3 bits: 001 -> 010, 100 -> 001, 110 -> 101.
        assert_eq!(Permutation::Shuffle.destination(1, 8), NodeId(2));
        assert_eq!(Permutation::Shuffle.destination(4, 8), NodeId(1));
        assert_eq!(Permutation::Shuffle.destination(6, 8), NodeId(5));
    }

    #[test]
    fn neighbour_and_identity_have_short_distances() {
        // Seven sources travel one hop; the last node wraps around across
        // the whole column. Identity traffic travels no hop at all.
        for src in 0..7 {
            assert_eq!(Permutation::Neighbour.destination(src, 8).index(), src + 1);
        }
        assert_eq!(Permutation::Neighbour.destination(7, 8), NodeId(0));
        for src in 0..8 {
            assert_eq!(Permutation::Identity.destination(src, 8).index(), src);
        }
    }

    #[test]
    fn all_patterns_are_bijective_on_power_of_two_columns() {
        for p in all() {
            assert!(is_bijective(p, 8), "{p} is not a permutation on 8 nodes");
            assert!(is_bijective(p, 4), "{p} is not a permutation on 4 nodes");
        }
    }

    #[test]
    fn non_power_of_two_columns_fall_back_gracefully() {
        for p in all() {
            for src in 0..6 {
                let dst = p.destination(src, 6);
                assert!(dst.index() < 6, "{p}: destination out of range");
            }
        }
        // Neighbour-style fallbacks remain bijective even off powers of two.
        assert!(is_bijective(Permutation::Neighbour, 6));
        assert!(is_bijective(Permutation::Tornado, 6));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_source_panics() {
        Permutation::Tornado.destination(9, 8);
    }
}
