//! Two-dimensional mesh topology builder.
//!
//! The paper's chip model is an 8×8 grid of concentrated routers; the column
//! builders in [`crate::column`] model only the QOS-protected shared column
//! of that chip. This module builds a full two-dimensional mesh
//! [`NetworkSpec`] — XY dimension-order routed, one terminal injector and one
//! ejection sink per node — so chip-scale workloads (and the repo
//! benchmark's `mesh_open_8x8` workload) can run on the same generic router
//! engine.

use serde::{Deserialize, Serialize};
use taqos_netsim::spec::{
    InputPortSpec, NetworkSpec, OutputPortSpec, RouteTable, RouterSpec, SinkSpec, SourceSpec,
    TargetEndpoint, TargetSpec, VcConfig,
};
use taqos_netsim::{Direction, FlowId, InPortId, NodeId, OutPortId};

/// Configuration of a two-dimensional mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh2dConfig {
    /// Nodes per row.
    pub width: usize,
    /// Nodes per column.
    pub height: usize,
    /// Virtual channels at each injection port.
    pub injection_vcs: u8,
    /// Virtual channels at each network input port.
    pub network_vcs: u8,
    /// VC depth in flits (virtual cut-through: at least the longest packet).
    pub vc_depth: u8,
    /// Ejection slots at each terminal.
    pub ejection_slots: u8,
    /// Outstanding-packet window per source.
    pub source_window: usize,
    /// Channel width in bytes.
    pub flit_bytes: u32,
}

impl Default for Mesh2dConfig {
    fn default() -> Self {
        Mesh2dConfig {
            width: 8,
            height: 8,
            injection_vcs: 2,
            network_vcs: 4,
            vc_depth: 4,
            ejection_slots: 2,
            source_window: 16,
            flit_bytes: 16,
        }
    }
}

/// Grid-geometry helpers shared by the plain mesh and the hybrid chip
/// builder ([`crate::chip`]), so the XY substrate is defined exactly once.
pub(crate) mod grid_geometry {
    use super::Direction;
    use taqos_netsim::NodeId;

    /// The upstream neighbour of `(x, y)` on a `width`×`height` grid whose
    /// traffic arrives travelling in `dir`, if it exists. Travelling East
    /// arrives from the western neighbour, etc. Per `Direction`'s
    /// convention, South travels towards increasing row index.
    pub(crate) fn upstream(
        width: usize,
        height: usize,
        x: usize,
        y: usize,
        dir: Direction,
    ) -> Option<(usize, usize)> {
        match dir {
            Direction::East if x > 0 => Some((x - 1, y)),
            Direction::West if x + 1 < width => Some((x + 1, y)),
            Direction::South if y > 0 => Some((x, y - 1)),
            Direction::North if y + 1 < height => Some((x, y + 1)),
            _ => None,
        }
    }

    /// The downstream neighbour of `(x, y)` reached by sending in `dir`, if
    /// it exists.
    pub(crate) fn downstream(
        width: usize,
        height: usize,
        x: usize,
        y: usize,
        dir: Direction,
    ) -> Option<(usize, usize)> {
        match dir {
            Direction::East if x + 1 < width => Some((x + 1, y)),
            Direction::West if x > 0 => Some((x - 1, y)),
            Direction::South if y + 1 < height => Some((x, y + 1)),
            Direction::North if y > 0 => Some((x, y - 1)),
            _ => None,
        }
    }

    /// XY dimension-order routing: the direction a packet at `(x, y)` headed
    /// for `dst` (row-major on a `width`-wide grid) takes next, or `None` if
    /// it ejects here.
    pub(crate) fn xy_direction(width: usize, x: usize, y: usize, dst: NodeId) -> Option<Direction> {
        let (dx, dy) = (dst.index() % width, dst.index() / width);
        if dx > x {
            Some(Direction::East)
        } else if dx < x {
            Some(Direction::West)
        } else if dy > y {
            Some(Direction::South)
        } else if dy < y {
            Some(Direction::North)
        } else {
            None
        }
    }
}

impl Mesh2dConfig {
    /// The paper's chip-scale grid: an 8×8 mesh.
    pub fn paper_8x8() -> Self {
        Self::default()
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.width * self.height
    }

    /// Node identifier of grid position `(x, y)` (row-major).
    pub(crate) fn node_at(&self, x: usize, y: usize) -> NodeId {
        NodeId((y * self.width + x) as u16)
    }

    fn coords(&self, node: usize) -> (usize, usize) {
        (node % self.width, node / self.width)
    }

    /// The upstream neighbour whose traffic arrives travelling in `dir`, if
    /// it exists. Travelling East arrives from the western neighbour, etc.
    fn upstream(&self, x: usize, y: usize, dir: Direction) -> Option<(usize, usize)> {
        grid_geometry::upstream(self.width, self.height, x, y, dir)
    }

    /// The downstream neighbour reached by sending in `dir`, if it exists.
    fn downstream(&self, x: usize, y: usize, dir: Direction) -> Option<(usize, usize)> {
        grid_geometry::downstream(self.width, self.height, x, y, dir)
    }

    /// Input port index at `(x, y)` receiving traffic travelling in `dir`
    /// (port 0 is the injection port).
    fn input_index(&self, x: usize, y: usize, dir: Direction) -> Option<usize> {
        self.upstream(x, y, dir)?;
        let mut idx = 1;
        for d in Direction::all() {
            if d == dir {
                return Some(idx);
            }
            if self.upstream(x, y, d).is_some() {
                idx += 1;
            }
        }
        None
    }

    /// Output port index at `(x, y)` sending in `dir` (the ejection port
    /// comes after all network outputs).
    fn output_index(&self, x: usize, y: usize, dir: Direction) -> Option<usize> {
        self.downstream(x, y, dir)?;
        let mut idx = 0;
        for d in Direction::all() {
            if d == dir {
                return Some(idx);
            }
            if self.downstream(x, y, d).is_some() {
                idx += 1;
            }
        }
        None
    }

    /// XY dimension-order routing: the direction a packet at `(x, y)` headed
    /// for `dst` takes next, or `None` if it ejects here.
    fn xy_direction(&self, x: usize, y: usize, dst: NodeId) -> Option<Direction> {
        grid_geometry::xy_direction(self.width, x, y, dst)
    }

    /// Builds the mesh specification.
    pub fn build(&self) -> NetworkSpec {
        assert!(
            self.width >= 1 && self.height >= 1,
            "mesh must be non-empty"
        );
        assert!(
            self.num_nodes() <= usize::from(u16::MAX),
            "mesh exceeds the NodeId range"
        );
        let net_vcs = VcConfig::new(self.network_vcs, self.vc_depth);
        let inj_vcs = VcConfig::new(self.injection_vcs, self.vc_depth);
        let mut routers = Vec::with_capacity(self.num_nodes());
        for node in 0..self.num_nodes() {
            let (x, y) = self.coords(node);
            let mut inputs = vec![InputPortSpec::injection("term", inj_vcs, 0)];
            let mut group = 1u8;
            for dir in Direction::all() {
                if let Some((ux, uy)) = self.upstream(x, y, dir) {
                    inputs.push(InputPortSpec::network(
                        format!("in_{dir}"),
                        self.node_at(ux, uy),
                        dir,
                        0,
                        net_vcs,
                        group,
                    ));
                    group += 1;
                }
            }
            let mut outputs = Vec::new();
            for dir in Direction::all() {
                if let Some((dx, dy)) = self.downstream(x, y, dir) {
                    let neighbour = self.node_at(dx, dy).index();
                    let in_port = self
                        .input_index(dx, dy, dir)
                        .expect("downstream neighbour has a matching input");
                    outputs.push(OutputPortSpec::network(
                        format!("out_{dir}"),
                        dir,
                        0,
                        vec![TargetSpec::single(
                            TargetEndpoint::Router {
                                router: neighbour,
                                in_port: InPortId(in_port),
                            },
                            1,
                        )],
                    ));
                }
            }
            outputs.push(OutputPortSpec::ejection("eject", node, 0));
            let eject_port = OutPortId(outputs.len() - 1);
            let mut route_table = RouteTable::with_destinations(self.num_nodes());
            for dst in 0..self.num_nodes() {
                let dst = NodeId(dst as u16);
                let out = match self.xy_direction(x, y, dst) {
                    Some(dir) => OutPortId(
                        self.output_index(x, y, dir)
                            .expect("XY routing only uses existing links"),
                    ),
                    None => eject_port,
                };
                route_table.insert(dst, &[out]);
            }
            routers.push(RouterSpec {
                node: NodeId(node as u16),
                inputs,
                outputs,
                route_table,
                va_latency: 1,
                xt_latency: 1,
            });
        }
        let sources = (0..self.num_nodes())
            .map(|node| SourceSpec {
                flow: FlowId(node as u16),
                node: NodeId(node as u16),
                router: node,
                in_port: InPortId(0),
                name: format!("n{node}.term"),
                window: self.source_window,
            })
            .collect();
        let sinks = (0..self.num_nodes())
            .map(|node| SinkSpec {
                node: NodeId(node as u16),
                name: format!("n{node}.sink"),
                slots: self.ejection_slots,
            })
            .collect();
        NetworkSpec {
            name: format!("mesh2d_{}x{}", self.width, self.height),
            routers,
            sources,
            sinks,
            flit_bytes: self.flit_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mesh_is_structurally_valid() {
        let config = Mesh2dConfig::paper_8x8();
        let spec = config.build();
        assert!(spec.validate().is_ok(), "{:?}", spec.validate());
        assert_eq!(spec.routers.len(), 64);
        assert_eq!(spec.sources.len(), 64);
        assert_eq!(spec.sinks.len(), 64);
        assert_eq!(spec.name, "mesh2d_8x8");
    }

    #[test]
    fn corner_edge_and_inner_router_degrees() {
        let config = Mesh2dConfig::paper_8x8();
        let spec = config.build();
        // Corner (0,0): 2 links; edge (1,0): 3 links; inner (1,1): 4 links.
        assert_eq!(spec.routers[0].inputs.len(), 1 + 2);
        assert_eq!(spec.routers[0].outputs.len(), 2 + 1);
        assert_eq!(spec.routers[1].inputs.len(), 1 + 3);
        assert_eq!(spec.routers[9].inputs.len(), 1 + 4);
        assert_eq!(spec.routers[9].outputs.len(), 4 + 1);
    }

    #[test]
    fn xy_routes_follow_dimension_order() {
        let config = Mesh2dConfig {
            width: 4,
            height: 4,
            ..Mesh2dConfig::default()
        };
        // From (0,0) to (2,1): first X (East), then Y.
        assert_eq!(
            config.xy_direction(0, 0, config.node_at(2, 1)),
            Some(Direction::East)
        );
        assert_eq!(
            config.xy_direction(2, 0, config.node_at(2, 1)),
            Some(Direction::South)
        );
        assert_eq!(config.xy_direction(2, 1, config.node_at(2, 1)), None);
        // Every router can route to every destination.
        let spec = config.build();
        for router in &spec.routers {
            for dst in 0..config.num_nodes() {
                assert!(router.route_table.contains(NodeId(dst as u16)));
            }
        }
    }

    #[test]
    fn degenerate_single_row_mesh_builds() {
        let config = Mesh2dConfig {
            width: 4,
            height: 1,
            ..Mesh2dConfig::default()
        };
        let spec = config.build();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.routers.len(), 4);
        // End routers have one link, middle routers two.
        assert_eq!(spec.routers[0].outputs.len(), 1 + 1);
        assert_eq!(spec.routers[1].outputs.len(), 2 + 1);
    }
}
