//! Chip-level grid structures: tile coordinates, four-way concentration, XY
//! dimension-order routing, and MECS single-hop reachability.
//!
//! The topology-aware architecture places shared resources in dedicated
//! columns of an 8x8 grid of concentrated nodes (a 256-tile CMP with four
//! terminals per node). The operating-system support in `taqos-core` uses
//! these primitives to place domains, check convexity, and verify that every
//! node reaches a shared column in a single MECS hop.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Coordinate of a node in the chip-level grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Coord {
    /// Column index (0 = west edge).
    pub x: u16,
    /// Row index (0 = north edge).
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate.
    pub fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance to another coordinate.
    pub fn manhattan(self, other: Coord) -> u32 {
        let dx = (i32::from(self.x) - i32::from(other.x)).unsigned_abs();
        let dy = (i32::from(self.y) - i32::from(other.y)).unsigned_abs();
        dx + dy
    }
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// The chip-level grid of concentrated network nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChipGrid {
    /// Nodes per row.
    pub width: u16,
    /// Nodes per column.
    pub height: u16,
    /// Terminals (tiles) concentrated at each node; 4 in the paper.
    pub concentration: u16,
}

impl ChipGrid {
    /// The paper's target system: a 256-tile CMP as an 8x8 grid of four-way
    /// concentrated nodes.
    pub fn paper() -> Self {
        ChipGrid {
            width: 8,
            height: 8,
            concentration: 4,
        }
    }

    /// Creates a grid with the given dimensions and concentration.
    pub fn new(width: u16, height: u16, concentration: u16) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        assert!(concentration > 0, "concentration must be positive");
        ChipGrid {
            width,
            height,
            concentration,
        }
    }

    /// Number of network nodes.
    pub fn nodes(&self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    /// Number of terminals (tiles) on the chip.
    pub fn tiles(&self) -> usize {
        self.nodes() * usize::from(self.concentration)
    }

    /// Whether `c` lies inside the grid.
    pub fn contains(&self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// Iterator over all node coordinates in row-major order.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        let width = self.width;
        (0..self.height).flat_map(move |y| (0..width).map(move |x| Coord::new(x, y)))
    }

    /// The XY dimension-order route from `from` to `to`, inclusive of both
    /// endpoints: first along the row (X), then along the column (Y).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the grid.
    pub fn xy_route(&self, from: Coord, to: Coord) -> Vec<Coord> {
        assert!(self.contains(from), "source {from} outside the grid");
        assert!(self.contains(to), "destination {to} outside the grid");
        let mut path = vec![from];
        let mut cur = from;
        while cur.x != to.x {
            cur.x = if to.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            path.push(cur);
        }
        while cur.y != to.y {
            cur.y = if to.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            path.push(cur);
        }
        path
    }

    /// Whether a set of coordinates forms a convex region in the sense
    /// required for domains: for every pair of members, both dimension-order
    /// paths (XY and YX) stay inside the region, so intra-domain traffic
    /// never leaves the domain.
    pub fn is_convex_region(&self, region: &BTreeSet<Coord>) -> bool {
        if region.is_empty() {
            return false;
        }
        if region.iter().any(|&c| !self.contains(c)) {
            return false;
        }
        for &a in region {
            for &b in region {
                if a == b {
                    continue;
                }
                let xy_inside = self.xy_route(a, b).iter().all(|c| region.contains(c));
                let yx_inside = self
                    .xy_route(Coord::new(a.y, a.x), Coord::new(b.y, b.x))
                    .iter()
                    .map(|c| Coord::new(c.y, c.x))
                    .all(|c| region.contains(&c));
                if !xy_inside || !yx_inside {
                    return false;
                }
            }
        }
        true
    }

    /// The coordinates of a rectangular region.
    pub fn rectangle(&self, top_left: Coord, width: u16, height: u16) -> BTreeSet<Coord> {
        let mut set = BTreeSet::new();
        for dy in 0..height {
            for dx in 0..width {
                let c = Coord::new(top_left.x + dx, top_left.y + dy);
                if self.contains(c) {
                    set.insert(c);
                }
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_256_tiles() {
        let grid = ChipGrid::paper();
        assert_eq!(grid.nodes(), 64);
        assert_eq!(grid.tiles(), 256);
        assert_eq!(grid.coords().count(), 64);
    }

    #[test]
    fn xy_route_goes_x_then_y() {
        let grid = ChipGrid::paper();
        let path = grid.xy_route(Coord::new(1, 1), Coord::new(3, 4));
        assert_eq!(path.first(), Some(&Coord::new(1, 1)));
        assert_eq!(path.last(), Some(&Coord::new(3, 4)));
        assert_eq!(path.len(), 6);
        // The turn happens at (3, 1).
        assert!(path.contains(&Coord::new(3, 1)));
        assert!(!path.contains(&Coord::new(1, 4)));
    }

    #[test]
    fn manhattan_distance() {
        let a = Coord::new(2, 3);
        let b = Coord::new(5, 3);
        assert_eq!(a.manhattan(b), 3);
    }

    #[test]
    fn rectangles_are_convex_and_l_shapes_are_not() {
        let grid = ChipGrid::paper();
        let rect = grid.rectangle(Coord::new(1, 1), 3, 2);
        assert_eq!(rect.len(), 6);
        assert!(grid.is_convex_region(&rect));

        let mut l_shape = grid.rectangle(Coord::new(0, 0), 2, 1);
        l_shape.insert(Coord::new(0, 1));
        l_shape.insert(Coord::new(0, 2));
        l_shape.insert(Coord::new(1, 2));
        assert!(!grid.is_convex_region(&l_shape));

        assert!(!grid.is_convex_region(&BTreeSet::new()));
    }

    #[test]
    fn single_cell_is_convex() {
        let grid = ChipGrid::paper();
        let single: BTreeSet<Coord> = [Coord::new(4, 4)].into_iter().collect();
        assert!(grid.is_convex_region(&single));
    }

    #[test]
    #[should_panic(expected = "outside the grid")]
    fn routes_outside_the_grid_panic() {
        let grid = ChipGrid::new(4, 4, 4);
        grid.xy_route(Coord::new(0, 0), Coord::new(9, 0));
    }
}
