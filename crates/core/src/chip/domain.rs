//! Application / virtual-machine domains.
//!
//! The operating system (hypervisor) allocates the compute and storage
//! resources of an application or virtual machine as a *domain*: a convex
//! region of nodes. Convexity guarantees that all dimension-order-routed
//! cache traffic between the domain's nodes stays inside the domain, so no
//! QOS hardware is needed to isolate it from other tenants.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use taqos_topology::grid::{ChipGrid, Coord};

/// Identifier of a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DomainId(pub u32);

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "domain#{}", self.0)
    }
}

/// A convex region of nodes allocated to one application or virtual machine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Domain {
    /// Identifier assigned by the chip allocator.
    pub(crate) id: DomainId,
    /// Human-readable owner name (application or VM).
    pub(crate) name: String,
    /// Nodes belonging to the domain.
    pub nodes: BTreeSet<Coord>,
    /// Relative service weight used when programming per-flow rates at the
    /// QOS-enabled routers of the shared regions.
    pub(crate) weight: u32,
}

impl Domain {
    /// Creates a domain.
    ///
    /// # Panics
    ///
    /// Panics if the node set is empty or the weight is zero.
    pub(crate) fn new(
        id: DomainId,
        name: impl Into<String>,
        nodes: BTreeSet<Coord>,
        weight: u32,
    ) -> Self {
        assert!(!nodes.is_empty(), "a domain needs at least one node");
        assert!(weight > 0, "a domain needs a positive weight");
        Domain {
            id,
            name: name.into(),
            nodes,
            weight,
        }
    }

    /// Whether `coord` belongs to the domain.
    pub(crate) fn contains(&self, coord: Coord) -> bool {
        self.nodes.contains(&coord)
    }

    /// Whether the domain satisfies the convex-shape requirement on `grid`:
    /// all dimension-order paths between member nodes stay inside the domain.
    pub fn is_convex(&self, grid: &ChipGrid) -> bool {
        grid.is_convex_region(&self.nodes)
    }

    /// Grid rows spanned by the domain.
    pub fn rows(&self) -> BTreeSet<u16> {
        self.nodes.iter().map(|c| c.y).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(grid: &ChipGrid, x: u16, y: u16, w: u16, h: u16) -> BTreeSet<Coord> {
        grid.rectangle(Coord::new(x, y), w, h)
    }

    #[test]
    fn rectangular_domains_are_convex() {
        let grid = ChipGrid::paper();
        let d = Domain::new(DomainId(0), "web", rect(&grid, 0, 0, 3, 2), 2);
        assert!(d.is_convex(&grid));
        assert_eq!(d.nodes.len(), 6);
        assert!(d.contains(Coord::new(2, 1)));
        assert!(!d.contains(Coord::new(3, 0)));
        assert_eq!(d.rows(), [0u16, 1u16].into_iter().collect());
    }

    #[test]
    fn l_shaped_domains_are_not_convex() {
        let grid = ChipGrid::paper();
        let mut nodes = rect(&grid, 0, 0, 2, 1);
        nodes.insert(Coord::new(0, 1));
        nodes.insert(Coord::new(0, 2));
        nodes.insert(Coord::new(1, 2));
        let d = Domain::new(DomainId(1), "db", nodes, 1);
        assert!(!d.is_convex(&grid));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_domains_are_rejected() {
        Domain::new(DomainId(0), "empty", BTreeSet::new(), 1);
    }

    #[test]
    fn display_of_domain_id() {
        assert_eq!(DomainId(3).to_string(), "domain#3");
    }
}
