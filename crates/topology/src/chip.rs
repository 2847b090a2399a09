//! Hybrid chip-scale topology: a 2-D XY mesh with per-row MECS express
//! channels into the shared-resource columns.
//!
//! The paper's chip (§2) confines QOS hardware to dedicated shared columns
//! and relies on richly connected MECS rows so that *every node reaches a
//! shared column in a single network hop*. This module composes that hybrid
//! fabric as one [`NetworkSpec`] executed by the generic router engine:
//!
//! * the **mesh substrate** — the XY dimension-order mesh of
//!   [`crate::mesh2d`], carrying intra-domain and miscellaneous traffic
//!   between QOS-free routers;
//! * **per-row MECS express channels** — every node outside a shared column
//!   drives one point-to-multipoint channel per row direction that drops off
//!   at each shared column it crosses (the multidrop port machinery of
//!   [`crate::column`]'s MECS builder: all express inputs arriving at a
//!   column router from one direction share a single crossbar port);
//! * the **shared-column overlay** — routers inside shared columns carry the
//!   QOS provisioning (reserved virtual channels, the deeper MECS-style
//!   arbitration pipeline) while every other router stays QOS-free,
//!   reproducing the paper's cost argument.
//!
//! Routing is destination-based and topology-aware: at a non-column router,
//! any destination inside a shared column is reached through the row express
//! channel (one MECS hop to the column, then the QOS-protected column links),
//! which is exactly the route `taqos-core`'s
//! `TopologyAwareChip::memory_access_route` prescribes for memory accesses.
//! All other destinations use plain XY mesh routing.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use taqos_netsim::spec::{
    InputPortSpec, NetworkSpec, OutputPortSpec, RouteTable, RouterSpec, SinkSpec, SourceSpec,
    TargetEndpoint, TargetSpec, VcConfig,
};
use taqos_netsim::{Direction, FlowId, InPortId, NodeId, OutPortId};

/// Replicated-channel index used by express channels, distinguishing them
/// from the mesh links (channel 0) that may share a direction.
const EXPRESS_CHANNEL: u8 = 1;

/// Configuration of the hybrid chip fabric.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChipConfig {
    /// Nodes per row.
    pub width: usize,
    /// Nodes per column.
    pub height: usize,
    /// X indices of the shared-resource (QOS-protected) columns.
    pub shared_columns: BTreeSet<u16>,
    /// Virtual channels at each injection port.
    pub(crate) injection_vcs: u8,
    /// Virtual channels at each mesh network input port.
    pub(crate) network_vcs: u8,
    /// Virtual channels at each express (multidrop) input port of a column
    /// router; MECS inputs are generously buffered (Table 1).
    pub(crate) express_vcs: u8,
    /// VC depth in flits (virtual cut-through: at least the longest packet).
    pub(crate) vc_depth: u8,
    /// VCs per network/express input port of a *shared-column* router that
    /// are reserved for rate-compliant traffic. Non-column routers never
    /// reserve VCs — reservations are part of the QOS overlay.
    pub(crate) column_reserved_vcs: u8,
    /// Ejection slots at each terminal.
    pub(crate) ejection_slots: u8,
    /// Outstanding-packet window per source.
    pub(crate) source_window: usize,
    /// Channel width in bytes.
    pub(crate) flit_bytes: u32,
    /// VC-allocation latency of shared-column routers (2 — MECS-style input
    /// concentration deepens arbitration, Table 1).
    pub(crate) column_va_latency: u32,
    /// VC-allocation latency of plain mesh routers.
    pub(crate) mesh_va_latency: u32,
    /// Crossbar traversal latency of every router.
    pub(crate) xt_latency: u32,
    /// Route inter-domain traffic (different row, non-column destination)
    /// through the nearest shared column instead of plain XY, so VM-to-VM
    /// transfers never turn inside an unprotected third-party router: one
    /// MECS express hop to the column, the QOS-protected column to the
    /// destination's row, then the mesh out along that row. This is the
    /// fabric image of `TopologyAwareChip::inter_domain_route` in
    /// `taqos-core`. Off by default: same-chip traffic then routes plain XY.
    pub(crate) inter_domain_via_column: bool,
}

impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig {
            width: 8,
            height: 8,
            shared_columns: [4u16].into_iter().collect(),
            injection_vcs: 2,
            network_vcs: 4,
            express_vcs: 6,
            vc_depth: 4,
            column_reserved_vcs: 1,
            ejection_slots: 2,
            source_window: 16,
            flit_bytes: 16,
            column_va_latency: 2,
            mesh_va_latency: 1,
            xt_latency: 1,
            inter_domain_via_column: false,
        }
    }
}

impl ChipConfig {
    /// The paper's target chip: an 8×8 concentrated grid with one shared
    /// column in the middle of the die (x = 4).
    pub fn paper_8x8() -> Self {
        Self::default()
    }

    /// A custom-sized chip with the given shared columns and default port
    /// provisioning.
    pub fn with_size(width: usize, height: usize, shared_columns: BTreeSet<u16>) -> Self {
        ChipConfig {
            width,
            height,
            shared_columns,
            ..Self::default()
        }
    }

    /// Disables the QOS overlay's buffer reservations (used when the same
    /// fabric is simulated without QOS for interference comparisons).
    pub fn without_reservations(mut self) -> Self {
        self.column_reserved_vcs = 0;
        self
    }

    /// Enables shared-column transit for inter-domain traffic (see
    /// `Self::inter_domain_via_column`).
    #[must_use]
    pub fn with_inter_domain_via_column(mut self) -> Self {
        self.inter_domain_via_column = true;
        self
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.width * self.height
    }

    /// Node identifier of grid position `(x, y)` (row-major).
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        NodeId((y * self.width + x) as u16)
    }

    /// Grid position of a node (inverse of [`Self::node_at`]).
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        (node.index() % self.width, node.index() / self.width)
    }

    /// Whether column `x` is a shared-resource column.
    pub fn is_shared_column(&self, x: usize) -> bool {
        u16::try_from(x).is_ok_and(|x| self.shared_columns.contains(&x))
    }

    /// Whether `node` is a shared-column (QOS) router.
    pub(crate) fn is_qos_node(&self, node: NodeId) -> bool {
        self.is_shared_column(self.coords(node).0)
    }

    /// The upstream mesh neighbour whose traffic arrives travelling in
    /// `dir` (the shared XY substrate of [`crate::mesh2d`]).
    fn upstream(&self, x: usize, y: usize, dir: Direction) -> Option<(usize, usize)> {
        crate::mesh2d::grid_geometry::upstream(self.width, self.height, x, y, dir)
    }

    /// The downstream mesh neighbour reached by sending in `dir`.
    fn downstream(&self, x: usize, y: usize, dir: Direction) -> Option<(usize, usize)> {
        crate::mesh2d::grid_geometry::downstream(self.width, self.height, x, y, dir)
    }

    /// XY dimension-order routing: the direction a packet at `(x, y)` headed
    /// for `dst` takes next, or `None` if it ejects here.
    fn xy_direction(&self, x: usize, y: usize, dst: NodeId) -> Option<Direction> {
        crate::mesh2d::grid_geometry::xy_direction(self.width, x, y, dst)
    }

    /// The shared column nearest to `x` (by row distance, the westernmost
    /// among equidistant ones) — the same tie-break as
    /// `TopologyAwareChip::nearest_shared_column` in `taqos-core`, so the
    /// fabric's inter-domain transit column and the chip model's agree.
    fn nearest_shared_column(&self, x: usize) -> u16 {
        *self
            .shared_columns
            .iter()
            .min_by_key(|&&c| usize::from(c).abs_diff(x))
            .expect("build() guarantees at least one shared column")
    }

    /// Shared columns strictly east (`East`) or west (`West`) of `x`, in
    /// travel order.
    fn shared_columns_towards(&self, x: usize, dir: Direction) -> Vec<u16> {
        match dir {
            Direction::East => self
                .shared_columns
                .iter()
                .copied()
                .filter(|&c| usize::from(c) > x)
                .collect(),
            Direction::West => {
                let mut cols: Vec<u16> = self
                    .shared_columns
                    .iter()
                    .copied()
                    .filter(|&c| usize::from(c) < x)
                    .collect();
                cols.reverse();
                cols
            }
            _ => Vec::new(),
        }
    }

    /// Builds the hybrid fabric.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty, exceeds the `NodeId` range, or a shared
    /// column lies outside the grid.
    pub fn build(&self) -> ChipSpec {
        assert!(
            self.width >= 1 && self.height >= 1,
            "chip must be non-empty"
        );
        assert!(
            self.num_nodes() <= usize::from(u16::MAX),
            "chip exceeds the NodeId range"
        );
        assert!(
            !self.shared_columns.is_empty(),
            "a topology-aware chip needs at least one shared column"
        );
        for &c in &self.shared_columns {
            assert!(
                usize::from(c) < self.width,
                "shared column {c} outside the {}-wide grid",
                self.width
            );
        }
        ChipBuilder::new(self).build()
    }
}

/// Key identifying a network input port during spec construction, so
/// upstream routers can reference downstream port indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum PortKey {
    /// Mesh input carrying traffic travelling in `dir`.
    Mesh(Direction),
    /// Express (multidrop) input fed by the channel driven from column
    /// `from_x` of the same row.
    Express { from_x: usize },
}

struct ChipBuilder<'a> {
    config: &'a ChipConfig,
    inputs: Vec<Vec<InputPortSpec>>,
    input_index: Vec<BTreeMap<PortKey, usize>>,
}

impl<'a> ChipBuilder<'a> {
    fn new(config: &'a ChipConfig) -> Self {
        ChipBuilder {
            config,
            inputs: Vec::with_capacity(config.num_nodes()),
            input_index: Vec::with_capacity(config.num_nodes()),
        }
    }

    /// Pass 1: create every router's input ports and remember their indices.
    fn build_inputs(&mut self) {
        let cfg = self.config;
        let inj_vcs = VcConfig::new(cfg.injection_vcs, cfg.vc_depth);
        for node in 0..cfg.num_nodes() {
            let (x, y) = cfg.coords(NodeId(node as u16));
            let qos = cfg.is_shared_column(x);
            // The QOS overlay reserves VCs only at shared-column routers.
            let reserved = if qos { cfg.column_reserved_vcs } else { 0 };
            let mesh_vcs = VcConfig::with_reserved(cfg.network_vcs, cfg.vc_depth, reserved);
            let express_vcs = VcConfig::with_reserved(cfg.express_vcs, cfg.vc_depth, reserved);
            let mut ports = vec![InputPortSpec::injection("term", inj_vcs, 0)];
            let mut index = BTreeMap::new();
            let mut group = 1u8;
            for dir in Direction::all() {
                if let Some((ux, uy)) = cfg.upstream(x, y, dir) {
                    index.insert(PortKey::Mesh(dir), ports.len());
                    ports.push(InputPortSpec::network(
                        format!("in_{dir}"),
                        cfg.node_at(ux, uy),
                        dir,
                        0,
                        mesh_vcs,
                        group,
                    ));
                    group += 1;
                }
            }
            if qos {
                // Express inputs from every non-column node of this row. As
                // in the MECS column builder, all inputs arriving from one
                // direction share a single crossbar port (multidrop input
                // concentration).
                let east_group = group;
                let west_group = group + 1;
                for from_x in 0..cfg.width {
                    if from_x == x || cfg.is_shared_column(from_x) {
                        continue;
                    }
                    let (dir, xbar_group) = if from_x < x {
                        (Direction::East, east_group)
                    } else {
                        (Direction::West, west_group)
                    };
                    index.insert(PortKey::Express { from_x }, ports.len());
                    ports.push(InputPortSpec::network(
                        format!("mecs_{dir}_from_x{from_x}"),
                        cfg.node_at(from_x, y),
                        dir,
                        EXPRESS_CHANNEL,
                        express_vcs,
                        xbar_group,
                    ));
                }
            }
            self.inputs.push(ports);
            self.input_index.push(index);
        }
    }

    /// Pass 2: create outputs and routing tables.
    fn build_routers(&mut self) -> Vec<RouterSpec> {
        let cfg = self.config;
        let mut routers = Vec::with_capacity(cfg.num_nodes());
        for node in 0..cfg.num_nodes() {
            let (x, y) = cfg.coords(NodeId(node as u16));
            let qos = cfg.is_shared_column(x);
            let mut outputs: Vec<OutputPortSpec> = Vec::new();
            let mut mesh_out: BTreeMap<Direction, OutPortId> = BTreeMap::new();
            for dir in Direction::all() {
                if let Some((dx, dy)) = cfg.downstream(x, y, dir) {
                    let neighbour = cfg.node_at(dx, dy).index();
                    let in_port = self.input_index[neighbour][&PortKey::Mesh(dir)];
                    mesh_out.insert(dir, OutPortId(outputs.len()));
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
            let eject_port = OutPortId(outputs.len());
            outputs.push(OutputPortSpec::ejection("eject", node, 0));
            // Express outputs of non-column nodes: one multidrop channel per
            // row direction that has shared columns, dropping off at each.
            let mut express_out: BTreeMap<Direction, OutPortId> = BTreeMap::new();
            let nearest_column = cfg.nearest_shared_column(x);
            if !qos {
                for dir in [Direction::East, Direction::West] {
                    let columns = cfg.shared_columns_towards(x, dir);
                    if columns.is_empty() {
                        continue;
                    }
                    let targets = columns
                        .iter()
                        .map(|&c| {
                            let drop_node = cfg.node_at(usize::from(c), y).index();
                            let in_port =
                                self.input_index[drop_node][&PortKey::Express { from_x: x }];
                            let mut covers: Vec<NodeId> = (0..cfg.height)
                                .map(|dy| cfg.node_at(usize::from(c), dy))
                                .collect();
                            // Inter-domain transit rides this channel to the
                            // *nearest* column: its drop must also cover the
                            // unprotected destinations such packets carry.
                            if cfg.inter_domain_via_column && c == nearest_column {
                                covers.extend(
                                    (0..cfg.num_nodes())
                                        .map(|n| NodeId(n as u16))
                                        .filter(|&n| !cfg.is_qos_node(n)),
                                );
                            }
                            TargetSpec::covering(
                                TargetEndpoint::Router {
                                    router: drop_node,
                                    in_port: InPortId(in_port),
                                },
                                (i64::from(c) - x as i64).unsigned_abs() as u32,
                                covers,
                            )
                        })
                        .collect();
                    express_out.insert(dir, OutPortId(outputs.len()));
                    outputs.push(OutputPortSpec::network(
                        format!("mecs_{dir}"),
                        dir,
                        EXPRESS_CHANNEL,
                        targets,
                    ));
                }
            }

            let mut route_table = RouteTable::with_destinations(cfg.num_nodes());
            for dst in 0..cfg.num_nodes() {
                let dst = NodeId(dst as u16);
                let (dx, dy) = cfg.coords(dst);
                let out = if !qos && cfg.is_shared_column(dx) {
                    // Topology-aware: destinations inside a shared column are
                    // one MECS express hop away along this node's own row.
                    let dir = if dx > x {
                        Direction::East
                    } else {
                        Direction::West
                    };
                    express_out[&dir]
                } else if !qos && cfg.inter_domain_via_column && dy != y {
                    // Inter-domain transit: a different-row unprotected
                    // destination is reached through the nearest shared
                    // column (express hop in; the column's reply rule turns
                    // at the destination's row and exits over the mesh).
                    // Same-row destinations keep plain XY — they need no
                    // turn, and diverting them through the column would
                    // bounce them between the column and the row.
                    let dir = if usize::from(nearest_column) > x {
                        Direction::East
                    } else {
                        Direction::West
                    };
                    express_out[&dir]
                } else if qos && !cfg.is_shared_column(dx) {
                    // Reply path: traffic leaving a shared column for an
                    // unprotected node first travels the QOS-protected column
                    // to the destination's row, then exits along that row
                    // over the mesh — so it never turns at an unprotected
                    // third-party router. This is the fabric image of
                    // `TopologyAwareChip::memory_reply_route`.
                    let dir = if dy > y {
                        Direction::South
                    } else if dy < y {
                        Direction::North
                    } else if dx > x {
                        Direction::East
                    } else {
                        Direction::West
                    };
                    mesh_out[&dir]
                } else {
                    match cfg.xy_direction(x, y, dst) {
                        Some(dir) => mesh_out[&dir],
                        None => eject_port,
                    }
                };
                route_table.insert(dst, &[out]);
            }

            routers.push(RouterSpec {
                node: NodeId(node as u16),
                inputs: self.inputs[node].clone(),
                outputs,
                route_table,
                va_latency: if qos {
                    cfg.column_va_latency
                } else {
                    cfg.mesh_va_latency
                },
                xt_latency: cfg.xt_latency,
            });
        }
        routers
    }

    fn build(mut self) -> ChipSpec {
        let cfg = self.config;
        self.build_inputs();
        let routers = self.build_routers();
        let sources = (0..cfg.num_nodes())
            .map(|node| SourceSpec {
                flow: FlowId(node as u16),
                node: NodeId(node as u16),
                router: node,
                in_port: InPortId(0),
                name: format!("n{node}.term"),
                window: cfg.source_window,
            })
            .collect();
        let sinks = (0..cfg.num_nodes())
            .map(|node| {
                let (x, _) = cfg.coords(NodeId(node as u16));
                SinkSpec {
                    node: NodeId(node as u16),
                    // Shared-column terminals are the memory controllers.
                    name: if cfg.is_shared_column(x) {
                        format!("n{node}.mc")
                    } else {
                        format!("n{node}.sink")
                    },
                    slots: cfg.ejection_slots,
                }
            })
            .collect();
        let qos_nodes = (0..cfg.num_nodes())
            .map(|n| NodeId(n as u16))
            .filter(|&n| cfg.is_qos_node(n))
            .collect();
        let spec = NetworkSpec {
            name: format!(
                "chip_{}x{}_cols{}",
                cfg.width,
                cfg.height,
                cfg.shared_columns.len()
            ),
            routers,
            sources,
            sinks,
            flit_bytes: cfg.flit_bytes,
        };
        spec.validate()
            .expect("generated chip specification must be valid");
        ChipSpec {
            config: cfg.clone(),
            spec,
            qos_nodes,
        }
    }
}

/// A built hybrid chip fabric: the executable [`NetworkSpec`] plus the
/// per-router QOS flags of the shared-column overlay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipSpec {
    /// The configuration this fabric was built from.
    pub config: ChipConfig,
    /// The executable network specification.
    pub spec: NetworkSpec,
    /// Routers that carry QOS hardware (flow tables, reserved VCs,
    /// preemption support) — exactly the shared-column routers.
    pub qos_nodes: BTreeSet<NodeId>,
}

impl ChipSpec {
    /// Per-router QOS flags, indexed like [`NetworkSpec::routers`].
    pub fn qos_flags(&self) -> Vec<bool> {
        self.spec
            .routers
            .iter()
            .map(|r| self.qos_nodes.contains(&r.node))
            .collect()
    }

    /// Number of routers carrying QOS hardware.
    pub fn qos_router_count(&self) -> usize {
        self.qos_nodes.len()
    }

    /// Fraction of the chip's routers that require QOS hardware; the
    /// complement is the cost saving of the topology-aware approach over
    /// chip-wide QOS.
    pub fn qos_router_fraction(&self) -> f64 {
        self.qos_router_count() as f64 / self.spec.routers.len() as f64
    }

    /// Node identifiers of the memory-controller terminals (shared-column
    /// sinks), in index order.
    pub fn memory_controllers(&self) -> Vec<NodeId> {
        self.qos_nodes.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taqos_netsim::spec::InputKind;

    /// The (only) output port `router` sends packets for `dst` through.
    fn first_hop(router: &RouterSpec, dst: NodeId) -> OutPortId {
        let mut ports = router.route_table.get(dst).expect("chip routes everywhere");
        ports.next().expect("a route has a port")
    }

    #[test]
    fn paper_chip_builds_a_valid_spec() {
        let chip = ChipConfig::paper_8x8().build();
        assert_eq!(chip.spec.routers.len(), 64);
        assert_eq!(chip.spec.sources.len(), 64);
        assert_eq!(chip.spec.sinks.len(), 64);
        assert!(chip.spec.validate().is_ok());
        assert_eq!(chip.qos_router_count(), 8);
        assert!((chip.qos_router_fraction() - 0.125).abs() < 1e-12);
        assert_eq!(chip.qos_flags().iter().filter(|&&f| f).count(), 8);
    }

    #[test]
    fn every_non_column_node_has_an_express_route_to_every_shared_column() {
        let config = ChipConfig::paper_8x8();
        let chip = config.build();
        for router in &chip.spec.routers {
            let (x, _) = config.coords(router.node);
            if config.is_shared_column(x) {
                continue;
            }
            for &c in &config.shared_columns {
                for dy in 0..config.height {
                    let dst = config.node_at(usize::from(c), dy);
                    let out = first_hop(router, dst);
                    assert!(
                        router.outputs[out.0].name.starts_with("mecs_"),
                        "router {} routes {dst} via {}",
                        router.node,
                        router.outputs[out.0].name
                    );
                }
            }
        }
    }

    #[test]
    fn express_channels_drop_on_the_same_row_with_row_distance_delay() {
        let config = ChipConfig::paper_8x8();
        let chip = config.build();
        let router = &chip.spec.routers[config.node_at(1, 3).index()];
        let express = router
            .outputs
            .iter()
            .find(|o| o.name == "mecs_E")
            .expect("node (1,3) has an eastward express channel");
        assert_eq!(express.targets.len(), 1);
        let target = &express.targets[0];
        let TargetEndpoint::Router { router: drop, .. } = target.endpoint else {
            panic!("express targets are routers");
        };
        assert_eq!(drop, config.node_at(4, 3).index());
        assert_eq!(target.wire_delay, 3);
        assert_eq!(target.covers.len(), 8);
    }

    #[test]
    fn column_routers_concentrate_express_inputs_per_direction() {
        let config = ChipConfig::paper_8x8();
        let chip = config.build();
        let router = &chip.spec.routers[config.node_at(4, 2).index()];
        let express_inputs = router
            .inputs
            .iter()
            .filter(|p| p.name.starts_with("mecs_"))
            .count();
        // 7 non-column nodes in the row feed the column router.
        assert_eq!(express_inputs, 7);
        // 1 terminal + 4 mesh + 2 shared express groups.
        assert_eq!(router.xbar_input_groups(), 7);
        // Non-column routers have no express inputs at all.
        let plain = &chip.spec.routers[config.node_at(2, 2).index()];
        assert!(plain.inputs.iter().all(|p| !p.name.starts_with("mecs_")));
    }

    #[test]
    fn qos_provisioning_is_confined_to_shared_columns() {
        let config = ChipConfig::paper_8x8();
        let chip = config.build();
        for router in &chip.spec.routers {
            let qos = chip.qos_nodes.contains(&router.node);
            for port in &router.inputs {
                if matches!(port.kind, InputKind::Network { .. }) {
                    if qos {
                        assert_eq!(port.vcs.reserved, 1, "column port {}", port.name);
                    } else {
                        assert_eq!(port.vcs.reserved, 0, "mesh port {}", port.name);
                    }
                }
            }
            let expected_va = if qos { 2 } else { 1 };
            assert_eq!(router.va_latency, expected_va, "router {}", router.node);
        }
    }

    #[test]
    fn multiple_shared_columns_share_one_multidrop_channel_per_direction() {
        let config = ChipConfig::with_size(8, 4, [2u16, 5].into_iter().collect());
        let chip = config.build();
        // Node (0, 1) reaches both columns through a single eastward channel
        // with two drop-off points.
        let router = &chip.spec.routers[config.node_at(0, 1).index()];
        let express = router
            .outputs
            .iter()
            .find(|o| o.name == "mecs_E")
            .expect("eastward express exists");
        assert_eq!(express.targets.len(), 2);
        assert_eq!(express.targets[0].wire_delay, 2);
        assert_eq!(express.targets[1].wire_delay, 5);
        // A node between the columns drives one channel per direction.
        let mid = &chip.spec.routers[config.node_at(3, 1).index()];
        assert!(mid.outputs.iter().any(|o| o.name == "mecs_E"));
        assert!(mid.outputs.iter().any(|o| o.name == "mecs_W"));
        assert_eq!(chip.qos_router_count(), 8);
    }

    #[test]
    fn mesh_routes_are_untouched_for_non_column_destinations() {
        let config = ChipConfig::paper_8x8();
        let chip = config.build();
        let router = &chip.spec.routers[config.node_at(1, 1).index()];
        // Destination (2, 5) is not in a shared column: XY goes East first.
        let out = first_hop(router, config.node_at(2, 5));
        assert_eq!(router.outputs[out.0].name, "out_E");
        // Self destination ejects.
        let eject = first_hop(router, config.node_at(1, 1));
        assert_eq!(router.outputs[eject.0].name, "eject");
    }

    #[test]
    fn inter_domain_flag_routes_cross_row_traffic_via_the_nearest_column() {
        let config = ChipConfig::paper_8x8().with_inter_domain_via_column();
        let chip = config.build();
        let router = &chip.spec.routers[config.node_at(1, 1).index()];
        // A different-row unprotected destination now transits the shared
        // column: one express hop east toward x = 4.
        let out = first_hop(router, config.node_at(2, 5));
        assert_eq!(router.outputs[out.0].name, "mecs_E");
        // Same-row destinations keep plain XY (no turn needed, and a column
        // detour would bounce between the column and the row).
        let out = first_hop(router, config.node_at(6, 1));
        assert_eq!(router.outputs[out.0].name, "out_E");
        let out = first_hop(router, config.node_at(0, 1));
        assert_eq!(router.outputs[out.0].name, "out_W");
        // Self destination still ejects.
        let eject = first_hop(router, config.node_at(1, 1));
        assert_eq!(router.outputs[eject.0].name, "eject");
        // Multi-column grids stay valid: the nearest column's drop point
        // covers the unprotected destinations riding the shared channel.
        let multi = ChipConfig::with_size(8, 4, [2u16, 5].into_iter().collect())
            .with_inter_domain_via_column();
        let chip = multi.build();
        let router = &chip.spec.routers[multi.node_at(0, 1).index()];
        let out = first_hop(router, multi.node_at(3, 0));
        assert_eq!(router.outputs[out.0].name, "mecs_E");
        let port = &router.outputs[out.0];
        assert!(port.targets[0].covers.contains(&multi.node_at(3, 0)));
        assert!(!port.targets[1].covers.contains(&multi.node_at(3, 0)));
    }

    #[test]
    fn column_routers_route_replies_column_first() {
        let config = ChipConfig::paper_8x8();
        let chip = config.build();
        let router = &chip.spec.routers[config.node_at(4, 2).index()];
        // A destination on another row: stay inside the protected column
        // until its row is reached (Y before X — the reply rule).
        let out = first_hop(router, config.node_at(1, 5));
        assert_eq!(router.outputs[out.0].name, "out_S");
        let out = first_hop(router, config.node_at(6, 0));
        assert_eq!(router.outputs[out.0].name, "out_N");
        // On the destination's own row the reply exits over the mesh.
        let out = first_hop(router, config.node_at(1, 2));
        assert_eq!(router.outputs[out.0].name, "out_W");
        let out = first_hop(router, config.node_at(6, 2));
        assert_eq!(router.outputs[out.0].name, "out_E");
        // Destinations inside the column keep plain column routing.
        let out = first_hop(router, config.node_at(4, 7));
        assert_eq!(router.outputs[out.0].name, "out_S");
        let eject = first_hop(router, config.node_at(4, 2));
        assert_eq!(router.outputs[eject.0].name, "eject");
    }

    #[test]
    fn memory_controllers_are_the_shared_column_sinks() {
        let config = ChipConfig::paper_8x8();
        let chip = config.build();
        let mcs = chip.memory_controllers();
        assert_eq!(mcs.len(), 8);
        for mc in mcs {
            let (x, _) = config.coords(mc);
            assert_eq!(x, 4);
            assert!(chip.spec.sinks[mc.index()].name.ends_with(".mc"));
        }
    }

    #[test]
    #[should_panic(expected = "shared column")]
    fn shared_column_outside_the_grid_is_rejected() {
        ChipConfig::with_size(4, 4, [7u16].into_iter().collect()).build();
    }
}
