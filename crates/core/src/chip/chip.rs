//! The topology-aware chip: shared-resource columns, domains, and routing
//! rules.
//!
//! The architecture isolates shared resources (memory controllers,
//! accelerators) in dedicated columns of the chip — the *shared regions* —
//! and provisions hardware QOS only there. The richly connected MECS
//! interconnect gives every node single-hop access into a shared column along
//! its own row, so memory traffic is physically isolated from other nodes'
//! traffic until it enters the QOS-protected column. Inter-domain (inter-VM)
//! traffic is likewise required to transit through a shared column so that it
//! can never interfere with a third domain's local traffic at an unprotected
//! turn node.

use crate::chip::domain::{Domain, DomainId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use taqos_topology::grid::{ChipGrid, Coord};

/// Errors reported by the chip-level allocator and router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChipError {
    /// A coordinate lies outside the chip grid.
    OutsideGrid(Coord),
    /// The requested shared-column index does not exist.
    InvalidColumn(u16),
    /// A domain allocation failed.
    DomainRejected(String),
    /// No free region large enough for the requested allocation exists.
    OutOfCapacity {
        /// Nodes requested.
        requested: usize,
        /// Nodes still unallocated.
        available: usize,
    },
    /// The referenced domain does not exist.
    UnknownDomain(DomainId),
    /// The destination of a memory access is not inside a shared column.
    NotASharedResource(Coord),
}

impl fmt::Display for ChipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipError::OutsideGrid(c) => write!(f, "coordinate {c} lies outside the chip grid"),
            ChipError::InvalidColumn(x) => write!(f, "column {x} does not exist on this chip"),
            ChipError::DomainRejected(reason) => write!(f, "domain allocation rejected: {reason}"),
            ChipError::OutOfCapacity {
                requested,
                available,
            } => write!(
                f,
                "not enough free nodes: requested {requested}, available {available}"
            ),
            ChipError::UnknownDomain(id) => write!(f, "unknown {id}"),
            ChipError::NotASharedResource(c) => {
                write!(f, "{c} is not inside a shared-resource column")
            }
        }
    }
}

impl Error for ChipError {}

/// A chip with topology-aware QOS support.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyAwareChip {
    grid: ChipGrid,
    shared_columns: BTreeSet<u16>,
    domains: Vec<Domain>,
    next_domain: u32,
}

impl TopologyAwareChip {
    /// Creates a chip with the given grid and shared-resource columns.
    ///
    /// # Errors
    ///
    /// Returns an error if no shared column is given or a column index lies
    /// outside the grid.
    pub fn new(grid: ChipGrid, shared_columns: BTreeSet<u16>) -> Result<Self, ChipError> {
        if shared_columns.is_empty() {
            return Err(ChipError::DomainRejected(
                "a topology-aware chip needs at least one shared-resource column".to_string(),
            ));
        }
        for &x in &shared_columns {
            if x >= grid.width {
                return Err(ChipError::InvalidColumn(x));
            }
        }
        Ok(TopologyAwareChip {
            grid,
            shared_columns,
            domains: Vec::new(),
            next_domain: 0,
        })
    }

    /// The paper's target system: a 256-tile CMP (8x8 grid, four-way
    /// concentration) with one shared-resource column in the middle of the
    /// die.
    pub fn paper_default() -> Self {
        TopologyAwareChip::new(ChipGrid::paper(), [4u16].into_iter().collect())
            .expect("the paper configuration is valid")
    }

    /// The chip grid.
    pub fn grid(&self) -> &ChipGrid {
        &self.grid
    }

    /// Indices of the shared-resource columns.
    pub fn shared_columns(&self) -> &BTreeSet<u16> {
        &self.shared_columns
    }

    /// Whether `coord` lies inside a shared-resource column.
    pub fn is_shared(&self, coord: Coord) -> bool {
        self.shared_columns.contains(&coord.x)
    }

    /// Fraction of the chip's routers that require hardware QOS support
    /// (those inside shared columns). The complement is the saving of the
    /// topology-aware approach over chip-wide QOS.
    pub fn qos_router_fraction(&self) -> f64 {
        let qos_nodes = self.shared_columns.len() * usize::from(self.grid.height);
        qos_nodes as f64 / self.grid.nodes() as f64
    }

    /// The shared column closest to `from` (by row distance).
    pub(crate) fn nearest_shared_column(&self, from: Coord) -> u16 {
        *self
            .shared_columns
            .iter()
            .min_by_key(|&&x| (i32::from(x) - i32::from(from.x)).unsigned_abs())
            .expect("constructor guarantees at least one column")
    }

    /// Route of a memory access from `from` to the shared resource at `mc`:
    /// a single MECS row hop to the shared column, then the QOS-protected
    /// column to the memory controller.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is outside the grid or `mc` is not
    /// in a shared column.
    pub fn memory_access_route(&self, from: Coord, mc: Coord) -> Result<Vec<Coord>, ChipError> {
        if !self.grid.contains(from) {
            return Err(ChipError::OutsideGrid(from));
        }
        if !self.grid.contains(mc) {
            return Err(ChipError::OutsideGrid(mc));
        }
        if !self.is_shared(mc) {
            return Err(ChipError::NotASharedResource(mc));
        }
        let entry = Coord::new(mc.x, from.y);
        let mut route = vec![from];
        if entry != from {
            route.push(entry);
        }
        let mut down = self.grid.xy_route(entry, mc);
        down.remove(0);
        route.extend(down);
        Ok(route)
    }

    /// Route of a memory reply from the shared resource at `mc` back to the
    /// requester at `to`: down the QOS-protected column to the requester's
    /// row, then out along that row over the mesh. The reply mirrors
    /// [`Self::memory_access_route`] — every direction change happens inside
    /// the protected column, so replies never turn at an unprotected
    /// third-party router. Unlike the request's single MECS express hop, the
    /// return row segment is expanded hop by hop (mesh links).
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is outside the grid or `mc` is not
    /// in a shared column.
    pub fn memory_reply_route(&self, mc: Coord, to: Coord) -> Result<Vec<Coord>, ChipError> {
        if !self.grid.contains(mc) {
            return Err(ChipError::OutsideGrid(mc));
        }
        if !self.grid.contains(to) {
            return Err(ChipError::OutsideGrid(to));
        }
        if !self.is_shared(mc) {
            return Err(ChipError::NotASharedResource(mc));
        }
        let exit = Coord::new(mc.x, to.y);
        let mut route = self.grid.xy_route(mc, exit);
        if to != exit {
            let mut row = self.grid.xy_route(exit, to);
            row.remove(0);
            route.extend(row);
        }
        Ok(route)
    }

    /// Route of an inter-domain (inter-VM) transfer: such traffic must
    /// transit through a shared column so that it never turns inside an
    /// unprotected third-party node. The route uses the source's row to reach
    /// the nearest shared column, the QOS-protected column to reach the
    /// destination's row, and the destination's row to reach the destination
    /// (both row segments are single MECS hops).
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint lies outside the grid.
    pub fn inter_domain_route(&self, from: Coord, to: Coord) -> Result<Vec<Coord>, ChipError> {
        if !self.grid.contains(from) {
            return Err(ChipError::OutsideGrid(from));
        }
        if !self.grid.contains(to) {
            return Err(ChipError::OutsideGrid(to));
        }
        let column = self.nearest_shared_column(from);
        let entry = Coord::new(column, from.y);
        let exit = Coord::new(column, to.y);
        let mut route = vec![from];
        for point in [entry, exit, to] {
            if route.last() != Some(&point) {
                // Expand the column segment hop by hop (it is QOS-protected);
                // row segments are single MECS hops.
                let last = *route.last().expect("route is non-empty");
                if point.x == last.x && point.y != last.y {
                    let mut seg = self.grid.xy_route(last, point);
                    seg.remove(0);
                    route.extend(seg);
                } else {
                    route.push(point);
                }
            }
        }
        Ok(route)
    }

    /// Nodes not allocated to any domain and not part of a shared column.
    pub(crate) fn free_nodes(&self) -> usize {
        self.grid
            .coords()
            .filter(|&c| !self.is_shared(c) && self.domain_at(c).is_none())
            .count()
    }

    /// The domain owning `coord`, if any.
    pub(crate) fn domain_at(&self, coord: Coord) -> Option<DomainId> {
        self.domains
            .iter()
            .find(|d| d.contains(coord))
            .map(|d| d.id)
    }

    /// All allocated domains.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Looks up a domain by id.
    pub fn domain(&self, id: DomainId) -> Option<&Domain> {
        self.domains.iter().find(|d| d.id == id)
    }

    /// Allocates a domain from an explicit node set.
    ///
    /// # Errors
    ///
    /// Returns an error if the set is not convex, overlaps a shared column or
    /// an existing domain, or lies outside the grid.
    pub fn allocate_domain(
        &mut self,
        name: impl Into<String>,
        nodes: BTreeSet<Coord>,
        weight: u32,
    ) -> Result<DomainId, ChipError> {
        if nodes.is_empty() {
            return Err(ChipError::DomainRejected("empty node set".to_string()));
        }
        for &c in &nodes {
            if !self.grid.contains(c) {
                return Err(ChipError::OutsideGrid(c));
            }
            if self.is_shared(c) {
                return Err(ChipError::DomainRejected(format!(
                    "{c} lies inside a shared-resource column"
                )));
            }
            if self.domain_at(c).is_some() {
                return Err(ChipError::DomainRejected(format!(
                    "{c} already belongs to another domain"
                )));
            }
        }
        if !self.grid.is_convex_region(&nodes) {
            return Err(ChipError::DomainRejected(
                "the node set is not convex".to_string(),
            ));
        }
        let id = DomainId(self.next_domain);
        self.next_domain += 1;
        self.domains
            .push(Domain::new(id, name, nodes, weight.max(1)));
        Ok(id)
    }

    /// Allocates a rectangular domain of the given size using first-fit
    /// placement over the free nodes of the chip.
    ///
    /// # Errors
    ///
    /// Returns an error if no free rectangle of the requested size exists.
    pub fn allocate_rectangle(
        &mut self,
        name: impl Into<String>,
        width: u16,
        height: u16,
        weight: u32,
    ) -> Result<DomainId, ChipError> {
        let requested = usize::from(width) * usize::from(height);
        for y in 0..self.grid.height.saturating_sub(height - 1) {
            for x in 0..self.grid.width.saturating_sub(width - 1) {
                let rect = self.grid.rectangle(Coord::new(x, y), width, height);
                if rect.len() != requested {
                    continue;
                }
                let usable = rect
                    .iter()
                    .all(|&c| !self.is_shared(c) && self.domain_at(c).is_none());
                if usable {
                    return self.allocate_domain(name, rect, weight);
                }
            }
        }
        Err(ChipError::OutOfCapacity {
            requested,
            available: self.free_nodes(),
        })
    }

    /// Releases a domain, freeing its nodes.
    ///
    /// # Errors
    ///
    /// Returns an error if the domain does not exist.
    pub(crate) fn release_domain(&mut self, id: DomainId) -> Result<Domain, ChipError> {
        let idx = self
            .domains
            .iter()
            .position(|d| d.id == id)
            .ok_or(ChipError::UnknownDomain(id))?;
        Ok(self.domains.remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_has_one_protected_column() {
        let chip = TopologyAwareChip::paper_default();
        assert_eq!(chip.grid().nodes(), 64);
        assert_eq!(chip.shared_columns().len(), 1);
        assert!(chip.is_shared(Coord::new(4, 7)));
        assert!(!chip.is_shared(Coord::new(3, 7)));
        // Only 1/8 of the routers need QOS hardware.
        assert!((chip.qos_router_fraction() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn memory_accesses_enter_the_column_on_their_own_row() {
        let chip = TopologyAwareChip::paper_default();
        let route = chip
            .memory_access_route(Coord::new(1, 2), Coord::new(4, 6))
            .unwrap();
        assert_eq!(route.first(), Some(&Coord::new(1, 2)));
        // Row hop straight into the shared column at the source's row.
        assert_eq!(route[1], Coord::new(4, 2));
        assert_eq!(route.last(), Some(&Coord::new(4, 6)));
        // After entering the column, the route never leaves it.
        for c in &route[1..] {
            assert!(chip.is_shared(*c));
        }
    }

    #[test]
    fn memory_replies_leave_the_column_on_the_requesters_row() {
        let chip = TopologyAwareChip::paper_default();
        let route = chip
            .memory_reply_route(Coord::new(4, 6), Coord::new(1, 2))
            .unwrap();
        assert_eq!(route.first(), Some(&Coord::new(4, 6)));
        assert_eq!(route.last(), Some(&Coord::new(1, 2)));
        // The reply stays inside the column until it reaches the requester's
        // row, then travels only along that row.
        let exit_idx = route
            .iter()
            .position(|&c| c == Coord::new(4, 2))
            .expect("reply passes the exit point");
        for c in &route[..=exit_idx] {
            assert!(chip.is_shared(*c), "{c} should be in the column");
        }
        for c in &route[exit_idx..] {
            assert_eq!(c.y, 2, "{c} should stay on the requester's row");
        }
        // Hop-by-hop expansion: consecutive cells are grid neighbours.
        for w in route.windows(2) {
            assert_eq!(w[0].manhattan(w[1]), 1);
        }
        // A reply to a node in the column never leaves it.
        let inner = chip
            .memory_reply_route(Coord::new(4, 6), Coord::new(4, 0))
            .unwrap();
        assert!(inner.iter().all(|&c| chip.is_shared(c)));
        // Replies only originate at shared resources.
        assert!(chip
            .memory_reply_route(Coord::new(3, 6), Coord::new(1, 2))
            .is_err());
    }

    #[test]
    fn memory_access_to_non_shared_node_is_rejected() {
        let chip = TopologyAwareChip::paper_default();
        let err = chip
            .memory_access_route(Coord::new(1, 2), Coord::new(3, 6))
            .unwrap_err();
        assert!(matches!(err, ChipError::NotASharedResource(_)));
    }

    #[test]
    fn inter_domain_routes_turn_only_inside_shared_columns() {
        let chip = TopologyAwareChip::paper_default();
        let route = chip
            .inter_domain_route(Coord::new(0, 0), Coord::new(7, 7))
            .unwrap();
        // Every direction change along the route happens at a shared node.
        for w in route.windows(3) {
            let turned =
                (w[0].x != w[1].x && w[1].y != w[2].y) || (w[0].y != w[1].y && w[1].x != w[2].x);
            if turned {
                assert!(
                    chip.is_shared(w[1]),
                    "turn at {} outside the shared column",
                    w[1]
                );
            }
        }
        assert_eq!(route.first(), Some(&Coord::new(0, 0)));
        assert_eq!(route.last(), Some(&Coord::new(7, 7)));
    }

    #[test]
    fn inter_domain_overhead_is_the_detour_cost() {
        let chip = TopologyAwareChip::paper_default();
        // Hops the inter-domain route takes beyond the minimal route.
        let overhead = |from: Coord, to: Coord| {
            let route = chip.inter_domain_route(from, to).unwrap();
            let taken: u32 = route.windows(2).map(|w| w[0].manhattan(w[1])).sum();
            taken - from.manhattan(to)
        };
        // Same row: the route goes through the column anyway but the detour
        // is free when the column lies between source and destination.
        assert_eq!(overhead(Coord::new(0, 3), Coord::new(7, 3)), 0);
        // Neighbours on the far side of the chip pay the full detour.
        assert_eq!(overhead(Coord::new(0, 0), Coord::new(0, 1)), 8);
    }

    #[test]
    fn domain_allocation_respects_shared_columns_and_overlap() {
        let mut chip = TopologyAwareChip::paper_default();
        let a = chip.allocate_rectangle("vm-a", 2, 2, 2).unwrap();
        assert_eq!(chip.domain(a).unwrap().nodes.len(), 4);
        // Overlapping explicit allocation is rejected.
        let overlap = chip.grid().rectangle(Coord::new(0, 0), 1, 1);
        assert!(chip.allocate_domain("vm-b", overlap, 1).is_err());
        // Allocations never include the shared column.
        let spanning = chip.grid().rectangle(Coord::new(3, 5), 3, 1);
        assert!(chip.allocate_domain("vm-c", spanning, 1).is_err());
        // Non-convex allocations are rejected.
        let mut l_shape = chip.grid().rectangle(Coord::new(0, 5), 2, 1);
        l_shape.insert(Coord::new(0, 6));
        l_shape.insert(Coord::new(0, 7));
        l_shape.insert(Coord::new(1, 7));
        assert!(chip.allocate_domain("vm-d", l_shape, 1).is_err());
    }

    #[test]
    fn rectangle_allocation_fills_and_releases() {
        let mut chip = TopologyAwareChip::paper_default();
        let free_before = chip.free_nodes();
        let id = chip.allocate_rectangle("vm", 3, 2, 1).unwrap();
        assert_eq!(chip.free_nodes(), free_before - 6);
        assert_eq!(chip.domain_at(Coord::new(0, 0)), Some(id));
        let released = chip.release_domain(id).unwrap();
        assert_eq!(released.nodes.len(), 6);
        assert_eq!(chip.free_nodes(), free_before);
        assert!(chip.release_domain(id).is_err());
    }

    #[test]
    fn capacity_exhaustion_is_reported() {
        let mut chip = TopologyAwareChip::paper_default();
        // The shared column at x=4 splits the die into a 4-wide and a 3-wide
        // region, so exactly two 4x4 domains fit (both in the left region);
        // the third request cannot be placed even though free nodes remain.
        for i in 0..2 {
            chip.allocate_rectangle(format!("vm{i}"), 4, 4, 1).unwrap();
        }
        let err = chip.allocate_rectangle("vm2", 4, 4, 1).unwrap_err();
        assert!(matches!(err, ChipError::OutOfCapacity { .. }));
        assert_eq!(chip.free_nodes(), 24);
    }

    #[test]
    fn constructor_validates_columns() {
        let grid = ChipGrid::paper();
        assert!(TopologyAwareChip::new(grid, BTreeSet::new()).is_err());
        assert!(TopologyAwareChip::new(grid, [9u16].into_iter().collect()).is_err());
        assert!(TopologyAwareChip::new(grid, [0u16, 7].into_iter().collect()).is_ok());
    }
}
