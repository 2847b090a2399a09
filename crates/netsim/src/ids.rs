//! Strongly typed identifiers used throughout the simulator.
//!
//! Every entity in the network (nodes, flows, packets, ports, virtual
//! channels) is referenced through a small newtype so that indices of
//! different kinds cannot be confused at compile time.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Simulation time, measured in router clock cycles.
pub type Cycle = u64;

/// Identifier of a network node (a router position in the simulated region).
///
/// In the shared-column experiments of the paper a node is one of the eight
/// routers of the QOS-enabled column; in chip-level models a node is one of
/// the concentrated routers of the 2-D grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Returns the raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Hop distance to another node along a one-dimensional column.
    pub(crate) fn column_distance(self, other: NodeId) -> u32 {
        (i32::from(self.0) - i32::from(other.0)).unsigned_abs()
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

/// Identifier of a traffic flow.
///
/// A flow corresponds to one injector (a terminal or a row input of a node)
/// and is the granularity at which Preemptive Virtual Clock tracks bandwidth
/// consumption and enforces rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u16);

impl FlowId {
    /// Returns the raw index of this flow.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl From<u16> for FlowId {
    fn from(v: u16) -> Self {
        FlowId(v)
    }
}

/// Globally unique identifier of a packet within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Index of an input port within a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InPortId(pub usize);

/// Index of an output port within a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OutPortId(pub usize);

/// Index of a virtual channel within an input port.
///
/// Statically provisioned ports use small indices; the ideal per-flow-queued
/// reference policy grows ports dynamically, so the index is 16 bits wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VcId(pub u16);

impl VcId {
    /// Returns the raw index of this virtual channel.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Cardinal directions of the two-dimensional on-chip network.
///
/// The shared-region column only uses [`Direction::North`] and
/// [`Direction::South`]; row traffic entering the column arrives from
/// [`Direction::East`] and [`Direction::West`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Towards decreasing row index (up the column).
    North,
    /// Towards increasing row index (down the column).
    South,
    /// Towards increasing column index.
    East,
    /// Towards decreasing column index.
    West,
}

impl Direction {
    /// All four cardinal directions.
    pub fn all() -> [Direction; 4] {
        [
            Direction::North,
            Direction::South,
            Direction::East,
            Direction::West,
        ]
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::South => "S",
            Direction::East => "E",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_distance_is_symmetric() {
        let a = NodeId(2);
        let b = NodeId(7);
        assert_eq!(a.column_distance(b), 5);
        assert_eq!(b.column_distance(a), 5);
        assert_eq!(a.column_distance(a), 0);
    }

    #[test]
    fn ids_display_compactly() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(FlowId(12).to_string(), "f12");
        assert_eq!(PacketId(99).to_string(), "p99");
        assert_eq!(Direction::North.to_string(), "N");
    }

    #[test]
    fn conversions_from_raw_values() {
        assert_eq!(NodeId::from(4u16), NodeId(4));
        assert_eq!(FlowId::from(9u16), FlowId(9));
        assert_eq!(NodeId(4).index(), 4);
        assert_eq!(FlowId(9).index(), 9);
        assert_eq!(VcId(3).index(), 3);
    }
}
