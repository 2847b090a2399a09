//! Shared-region (column) topologies.
//!
//! The paper evaluates the QOS-enabled shared region — one column of eight
//! routers in the 8x8 grid of a 256-tile CMP — under five topologies:
//!
//! * **mesh x1 / x2 / x4** — a one-dimensional mesh along the column with 1,
//!   2 or 4 replicated channels per direction and a single monolithic
//!   crossbar per router;
//! * **MECS** — Multidrop Express Channels: each router drives one
//!   point-to-multipoint channel per direction that drops off at every
//!   downstream node; all inputs arriving from one direction share a
//!   crossbar port;
//! * **DPS** — Destination Partitioned Subnets (the paper's new topology):
//!   one light-weight subnetwork per destination node; intermediate hops are
//!   2:1 muxes with single-cycle traversal and no flow-state queries.
//!
//! Every router additionally has eight injectors (the node's terminal plus
//! seven row inputs carrying traffic from the rest of the chip into the
//! column) and one ejection port towards the node's shared-resource terminal.
//!
//! [`ColumnTopology::build`] emits a [`NetworkSpec`] executed by the generic
//! router engine in `taqos-netsim`; Table 1 of the paper is reproduced by the
//! per-topology defaults in [`TopologyParams`].

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use taqos_netsim::spec::{
    InputPortSpec, NetworkSpec, OutputPortSpec, RouteTable, RouterSpec, SinkSpec, SourceSpec,
    TargetEndpoint, TargetSpec, VcConfig,
};
use taqos_netsim::{Direction, FlowId, InPortId, NodeId, OutPortId};

/// The five shared-region topologies evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnTopology {
    /// Baseline one-dimensional mesh (one channel per direction).
    MeshX1,
    /// Mesh with two replicated channels per direction.
    MeshX2,
    /// Mesh with four replicated channels per direction (equal bisection
    /// bandwidth to MECS and DPS).
    MeshX4,
    /// Multidrop Express Channels.
    Mecs,
    /// Destination Partitioned Subnets.
    Dps,
}

impl ColumnTopology {
    /// All five topologies, in the order the paper's figures present them.
    pub fn all() -> [ColumnTopology; 5] {
        [
            ColumnTopology::MeshX1,
            ColumnTopology::MeshX2,
            ColumnTopology::MeshX4,
            ColumnTopology::Mecs,
            ColumnTopology::Dps,
        ]
    }

    /// Short lower-case name used in reports (`"mesh_x1"`, `"mecs"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            ColumnTopology::MeshX1 => "mesh_x1",
            ColumnTopology::MeshX2 => "mesh_x2",
            ColumnTopology::MeshX4 => "mesh_x4",
            ColumnTopology::Mecs => "mecs",
            ColumnTopology::Dps => "dps",
        }
    }

    /// Mesh replication factor (1, 2 or 4); `None` for MECS and DPS.
    pub(crate) fn mesh_replication(self) -> Option<u8> {
        match self {
            ColumnTopology::MeshX1 => Some(1),
            ColumnTopology::MeshX2 => Some(2),
            ColumnTopology::MeshX4 => Some(4),
            ColumnTopology::Mecs | ColumnTopology::Dps => None,
        }
    }

    /// Per-topology router parameters reproducing Table 1 of the paper.
    pub fn params(self) -> TopologyParams {
        match self {
            ColumnTopology::MeshX1 | ColumnTopology::MeshX2 | ColumnTopology::MeshX4 => {
                TopologyParams {
                    network_vcs: 6,
                    vc_depth_flits: 4,
                    reserved_vcs: 1,
                    va_latency: 1,
                    xt_latency: 1,
                }
            }
            ColumnTopology::Mecs => TopologyParams {
                network_vcs: 14,
                vc_depth_flits: 4,
                reserved_vcs: 1,
                va_latency: 2,
                xt_latency: 1,
            },
            ColumnTopology::Dps => TopologyParams {
                network_vcs: 5,
                vc_depth_flits: 4,
                reserved_vcs: 1,
                va_latency: 1,
                xt_latency: 1,
            },
        }
    }

    /// Builds the [`NetworkSpec`] of a shared-region column with this
    /// topology.
    pub fn build(self, config: &ColumnConfig) -> NetworkSpec {
        build_column(self, config, &self.params())
    }

    /// Builds the [`NetworkSpec`] with explicit router parameters (used for
    /// ablation studies such as VC-count sweeps).
    pub fn build_with_params(self, config: &ColumnConfig, params: &TopologyParams) -> NetworkSpec {
        build_column(self, config, params)
    }
}

impl std::fmt::Display for ColumnTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Router pipeline and buffering parameters of a column topology (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyParams {
    /// Virtual channels per column network input port.
    pub network_vcs: u8,
    /// Flits per virtual channel (the largest packet).
    pub vc_depth_flits: u8,
    /// Virtual channels per network port reserved for rate-compliant traffic.
    pub reserved_vcs: u8,
    /// Virtual-channel allocation latency in cycles.
    pub va_latency: u32,
    /// Crossbar traversal latency in cycles.
    pub xt_latency: u32,
}

/// Structural parameters of the shared-region column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnConfig {
    /// Number of nodes (routers) in the column; 8 in the paper.
    pub nodes: usize,
    /// Row inputs arriving from the east at each node.
    pub row_inputs_east: usize,
    /// Row inputs arriving from the west at each node.
    pub row_inputs_west: usize,
    /// Virtual channels at each injection port.
    pub injection_vcs: u8,
    /// Ejection slots (ejection VCs) at each terminal.
    pub ejection_slots: u8,
    /// Outstanding-packet window per source (retransmission support).
    pub source_window: usize,
    /// Channel width in bytes (16-byte links in the paper).
    pub flit_bytes: u32,
}

impl Default for ColumnConfig {
    fn default() -> Self {
        ColumnConfig {
            nodes: 8,
            row_inputs_east: 4,
            row_inputs_west: 3,
            injection_vcs: 1,
            ejection_slots: 2,
            source_window: 16,
            flit_bytes: 16,
        }
    }
}

impl ColumnConfig {
    /// The paper's configuration: an 8-node column with 8 injectors per node.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Injectors per node (terminal plus row inputs).
    pub fn injectors_per_node(&self) -> usize {
        1 + self.row_inputs_east + self.row_inputs_west
    }

    /// Total number of flows (injectors) in the column.
    pub fn num_flows(&self) -> usize {
        self.nodes * self.injectors_per_node()
    }

    /// Flow identifier of injector `injector` at node `node`.
    ///
    /// Injector 0 is the node's terminal; 1.. are row inputs.
    pub fn flow_of(&self, node: usize, injector: usize) -> FlowId {
        assert!(node < self.nodes, "node {node} out of range");
        assert!(
            injector < self.injectors_per_node(),
            "injector {injector} out of range"
        );
        FlowId((node * self.injectors_per_node() + injector) as u16)
    }

    /// Flow identifiers of all terminal injectors (injector 0 of each node).
    pub fn terminal_flows(&self) -> Vec<FlowId> {
        (0..self.nodes).map(|n| self.flow_of(n, 0)).collect()
    }
}

/// Crossbar input group of the terminal injection port.
const GROUP_TERMINAL: u8 = 0;
/// Crossbar input group shared by the east row inputs.
const GROUP_ROW_EAST: u8 = 1;
/// Crossbar input group shared by the west row inputs.
const GROUP_ROW_WEST: u8 = 2;
/// First crossbar input group available for column network ports.
const GROUP_NETWORK_BASE: u8 = 3;

/// Builds the injection ports common to every topology and returns them with
/// a name-to-index map.
fn injection_ports(config: &ColumnConfig) -> Vec<InputPortSpec> {
    let vcs = VcConfig::new(config.injection_vcs, 4);
    let mut ports = Vec::with_capacity(config.injectors_per_node());
    ports.push(InputPortSpec::injection("term", vcs, GROUP_TERMINAL));
    for e in 0..config.row_inputs_east {
        ports.push(InputPortSpec::injection(
            format!("row_e{e}"),
            vcs,
            GROUP_ROW_EAST,
        ));
    }
    for w in 0..config.row_inputs_west {
        ports.push(InputPortSpec::injection(
            format!("row_w{w}"),
            vcs,
            GROUP_ROW_WEST,
        ));
    }
    ports
}

/// Builds sources (one per injector) and sinks (one terminal per node).
fn sources_and_sinks(config: &ColumnConfig) -> (Vec<SourceSpec>, Vec<SinkSpec>) {
    let mut sources = Vec::with_capacity(config.num_flows());
    let mut sinks = Vec::with_capacity(config.nodes);
    for node in 0..config.nodes {
        for injector in 0..config.injectors_per_node() {
            let name = if injector == 0 {
                format!("n{node}.term")
            } else if injector <= config.row_inputs_east {
                format!("n{node}.row_e{}", injector - 1)
            } else {
                format!("n{node}.row_w{}", injector - 1 - config.row_inputs_east)
            };
            sources.push(SourceSpec {
                flow: config.flow_of(node, injector),
                node: NodeId(node as u16),
                router: node,
                in_port: InPortId(injector),
                name,
                window: config.source_window,
            });
        }
        sinks.push(SinkSpec {
            node: NodeId(node as u16),
            name: format!("n{node}.terminal"),
            slots: config.ejection_slots,
        });
    }
    (sources, sinks)
}

/// Key identifying a column network input port of a router during spec
/// construction, so upstream routers can reference downstream port indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum PortKey {
    /// Mesh input from `from` on replicated channel `channel`.
    Mesh { from: usize, channel: u8 },
    /// MECS input fed by the channel driven by `from`.
    Mecs { from: usize },
    /// DPS input of subnet `subnet` fed by `from`.
    Dps { subnet: usize, from: usize },
}

struct ColumnBuilder {
    topology: ColumnTopology,
    config: ColumnConfig,
    params: TopologyParams,
    /// Per-router input ports (injection ports first).
    inputs: Vec<Vec<InputPortSpec>>,
    /// Per-router map of network-port keys to input indices.
    input_index: Vec<BTreeMap<PortKey, usize>>,
}

impl ColumnBuilder {
    fn new(topology: ColumnTopology, config: &ColumnConfig, params: &TopologyParams) -> Self {
        ColumnBuilder {
            topology,
            config: *config,
            params: *params,
            inputs: Vec::new(),
            input_index: Vec::new(),
        }
    }

    fn network_vcs(&self) -> VcConfig {
        VcConfig::with_reserved(
            self.params.network_vcs,
            self.params.vc_depth_flits,
            self.params.reserved_vcs,
        )
    }

    /// Pass 1: create every router's input ports and remember their indices.
    fn build_inputs(&mut self) {
        let n = self.config.nodes;
        for node in 0..n {
            let mut ports = injection_ports(&self.config);
            let mut index = BTreeMap::new();
            let mut next_group = GROUP_NETWORK_BASE;
            let vcs = self.network_vcs();
            match self.topology {
                ColumnTopology::MeshX1 | ColumnTopology::MeshX2 | ColumnTopology::MeshX4 => {
                    let k = self.topology.mesh_replication().expect("mesh");
                    for channel in 0..k {
                        if node > 0 {
                            index.insert(
                                PortKey::Mesh {
                                    from: node - 1,
                                    channel,
                                },
                                ports.len(),
                            );
                            ports.push(InputPortSpec::network(
                                format!("col_s_ch{channel}_from_n{}", node - 1),
                                NodeId((node - 1) as u16),
                                Direction::South,
                                channel,
                                vcs,
                                next_group,
                            ));
                            next_group += 1;
                        }
                        if node + 1 < n {
                            index.insert(
                                PortKey::Mesh {
                                    from: node + 1,
                                    channel,
                                },
                                ports.len(),
                            );
                            ports.push(InputPortSpec::network(
                                format!("col_n_ch{channel}_from_n{}", node + 1),
                                NodeId((node + 1) as u16),
                                Direction::North,
                                channel,
                                vcs,
                                next_group,
                            ));
                            next_group += 1;
                        }
                    }
                }
                ColumnTopology::Mecs => {
                    // All inputs from one direction share a crossbar port.
                    let north_group = next_group;
                    let south_group = next_group + 1;
                    for from in 0..node {
                        index.insert(PortKey::Mecs { from }, ports.len());
                        ports.push(InputPortSpec::network(
                            format!("mecs_s_from_n{from}"),
                            NodeId(from as u16),
                            Direction::South,
                            0,
                            vcs,
                            north_group,
                        ));
                    }
                    for from in (node + 1)..n {
                        index.insert(PortKey::Mecs { from }, ports.len());
                        ports.push(InputPortSpec::network(
                            format!("mecs_n_from_n{from}"),
                            NodeId(from as u16),
                            Direction::North,
                            0,
                            vcs,
                            south_group,
                        ));
                    }
                }
                ColumnTopology::Dps => {
                    // One subnet per destination. At node `i`, subnet `d` has
                    // an input from the north neighbour when d >= i (traffic
                    // travelling south towards d) and from the south
                    // neighbour when d <= i.
                    for subnet in 0..n {
                        if node > 0 && subnet >= node {
                            index.insert(
                                PortKey::Dps {
                                    subnet,
                                    from: node - 1,
                                },
                                ports.len(),
                            );
                            ports.push(InputPortSpec::network(
                                format!("dps{subnet}_from_n{}", node - 1),
                                NodeId((node - 1) as u16),
                                Direction::South,
                                subnet as u8,
                                vcs,
                                next_group,
                            ));
                            next_group += 1;
                        }
                        if node + 1 < n && subnet <= node {
                            index.insert(
                                PortKey::Dps {
                                    subnet,
                                    from: node + 1,
                                },
                                ports.len(),
                            );
                            ports.push(InputPortSpec::network(
                                format!("dps{subnet}_from_n{}", node + 1),
                                NodeId((node + 1) as u16),
                                Direction::North,
                                subnet as u8,
                                vcs,
                                next_group,
                            ));
                            next_group += 1;
                        }
                    }
                }
            }
            self.inputs.push(ports);
            self.input_index.push(index);
        }
    }

    /// Pass 2: create outputs, routing tables, and (for DPS) pass-through
    /// fixed routes, producing the final router specs.
    fn build_routers(&mut self) -> Vec<RouterSpec> {
        let n = self.config.nodes;
        let mut routers = Vec::with_capacity(n);
        for node in 0..n {
            let mut outputs: Vec<OutputPortSpec> = Vec::new();
            let mut route_table = RouteTable::with_destinations(n);
            // Output 0: ejection towards this node's terminal.
            outputs.push(OutputPortSpec::ejection("eject", node, 0));
            route_table.insert(NodeId(node as u16), &[OutPortId(0)]);

            match self.topology {
                ColumnTopology::MeshX1 | ColumnTopology::MeshX2 | ColumnTopology::MeshX4 => {
                    let k = self.topology.mesh_replication().expect("mesh");
                    let mut north_ports = Vec::new();
                    let mut south_ports = Vec::new();
                    for channel in 0..k {
                        if node > 0 {
                            let in_port = self.input_index[node - 1][&PortKey::Mesh {
                                from: node,
                                channel,
                            }];
                            north_ports.push(OutPortId(outputs.len()));
                            outputs.push(OutputPortSpec::network(
                                format!("north_ch{channel}"),
                                Direction::North,
                                channel,
                                vec![TargetSpec::single(
                                    TargetEndpoint::Router {
                                        router: node - 1,
                                        in_port: InPortId(in_port),
                                    },
                                    1,
                                )],
                            ));
                        }
                        if node + 1 < n {
                            let in_port = self.input_index[node + 1][&PortKey::Mesh {
                                from: node,
                                channel,
                            }];
                            south_ports.push(OutPortId(outputs.len()));
                            outputs.push(OutputPortSpec::network(
                                format!("south_ch{channel}"),
                                Direction::South,
                                channel,
                                vec![TargetSpec::single(
                                    TargetEndpoint::Router {
                                        router: node + 1,
                                        in_port: InPortId(in_port),
                                    },
                                    1,
                                )],
                            ));
                        }
                    }
                    for dest in 0..n {
                        if dest < node {
                            route_table.insert(NodeId(dest as u16), &north_ports);
                        } else if dest > node {
                            route_table.insert(NodeId(dest as u16), &south_ports);
                        }
                    }
                }
                ColumnTopology::Mecs => {
                    if node > 0 {
                        let targets = (0..node)
                            .map(|dest| {
                                let in_port = self.input_index[dest][&PortKey::Mecs { from: node }];
                                TargetSpec::covering(
                                    TargetEndpoint::Router {
                                        router: dest,
                                        in_port: InPortId(in_port),
                                    },
                                    (node - dest) as u32,
                                    vec![NodeId(dest as u16)],
                                )
                            })
                            .collect();
                        let port = OutPortId(outputs.len());
                        outputs.push(OutputPortSpec::network(
                            "mecs_north",
                            Direction::North,
                            0,
                            targets,
                        ));
                        for dest in 0..node {
                            route_table.insert(NodeId(dest as u16), &[port]);
                        }
                    }
                    if node + 1 < n {
                        let targets = ((node + 1)..n)
                            .map(|dest| {
                                let in_port = self.input_index[dest][&PortKey::Mecs { from: node }];
                                TargetSpec::covering(
                                    TargetEndpoint::Router {
                                        router: dest,
                                        in_port: InPortId(in_port),
                                    },
                                    (dest - node) as u32,
                                    vec![NodeId(dest as u16)],
                                )
                            })
                            .collect();
                        let port = OutPortId(outputs.len());
                        outputs.push(OutputPortSpec::network(
                            "mecs_south",
                            Direction::South,
                            0,
                            targets,
                        ));
                        for dest in (node + 1)..n {
                            route_table.insert(NodeId(dest as u16), &[port]);
                        }
                    }
                }
                ColumnTopology::Dps => {
                    // One output per destination subnet, towards the next hop
                    // of that subnet.
                    let mut subnet_out: BTreeMap<usize, OutPortId> = BTreeMap::new();
                    for subnet in 0..n {
                        if subnet == node {
                            continue;
                        }
                        let (next, dir) = if subnet > node {
                            (node + 1, Direction::South)
                        } else {
                            (node - 1, Direction::North)
                        };
                        let in_port = self.input_index[next][&PortKey::Dps { subnet, from: node }];
                        let port = OutPortId(outputs.len());
                        subnet_out.insert(subnet, port);
                        outputs.push(OutputPortSpec::network(
                            format!("dps{subnet}_out"),
                            dir,
                            subnet as u8,
                            vec![TargetSpec::single(
                                TargetEndpoint::Router {
                                    router: next,
                                    in_port: InPortId(in_port),
                                },
                                1,
                            )],
                        ));
                        route_table.insert(NodeId(subnet as u16), &[port]);
                    }
                    // Through traffic uses fixed routes: continue on the
                    // subnet (pass-through) or eject at the subnet's
                    // destination.
                    for port in &mut self.inputs[node] {
                        let Some(channel) = subnet_channel(port) else {
                            continue;
                        };
                        let subnet = channel as usize;
                        if subnet == node {
                            *port = port.clone().with_fixed_route(OutPortId(0));
                        } else {
                            *port = port.clone().with_passthrough(subnet_out[&subnet]);
                        }
                    }
                }
            }

            routers.push(RouterSpec {
                node: NodeId(node as u16),
                inputs: self.inputs[node].clone(),
                outputs,
                route_table,
                va_latency: self.params.va_latency,
                xt_latency: self.params.xt_latency,
            });
        }
        routers
    }
}

/// Extracts the subnet (channel) of a DPS network input port.
fn subnet_channel(port: &InputPortSpec) -> Option<u8> {
    match port.kind {
        taqos_netsim::spec::InputKind::Network { channel, .. } => Some(channel),
        taqos_netsim::spec::InputKind::Injection => None,
    }
}

fn build_column(
    topology: ColumnTopology,
    config: &ColumnConfig,
    params: &TopologyParams,
) -> NetworkSpec {
    assert!(config.nodes >= 2, "a column needs at least two nodes");
    let mut builder = ColumnBuilder::new(topology, config, params);
    builder.build_inputs();
    let routers = builder.build_routers();
    let (sources, sinks) = sources_and_sinks(config);
    let spec = NetworkSpec {
        name: topology.name().to_string(),
        routers,
        sources,
        sinks,
        flit_bytes: config.flit_bytes,
    };
    spec.validate()
        .expect("generated column specification must be valid");
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use taqos_netsim::spec::InputKind;

    #[test]
    fn all_topologies_build_valid_specs() {
        let config = ColumnConfig::paper();
        for topology in ColumnTopology::all() {
            let spec = topology.build(&config);
            assert_eq!(spec.routers.len(), 8);
            assert_eq!(spec.sources.len(), 64);
            assert_eq!(spec.sinks.len(), 8);
            assert_eq!(spec.name, topology.name());
            spec.validate().expect("valid");
        }
    }

    #[test]
    fn config_flow_mapping_roundtrips() {
        let config = ColumnConfig::paper();
        assert_eq!(config.injectors_per_node(), 8);
        assert_eq!(config.num_flows(), 64);
        let flow = config.flow_of(3, 5);
        assert_eq!(flow.index(), 3 * config.injectors_per_node() + 5);
        assert_eq!(config.terminal_flows().len(), 8);
        assert_eq!(config.terminal_flows()[2], FlowId(16));
    }

    #[test]
    fn mesh_replication_multiplies_column_ports() {
        let config = ColumnConfig::paper();
        let count_network = |spec: &NetworkSpec, router: usize| {
            spec.routers[router]
                .inputs
                .iter()
                .filter(|p| matches!(p.kind, InputKind::Network { .. }))
                .count()
        };
        let x1 = ColumnTopology::MeshX1.build(&config);
        let x4 = ColumnTopology::MeshX4.build(&config);
        // Middle routers have both neighbours.
        assert_eq!(count_network(&x1, 3), 2);
        assert_eq!(count_network(&x4, 3), 8);
        // Edge routers have one neighbour.
        assert_eq!(count_network(&x1, 0), 1);
        assert_eq!(count_network(&x4, 0), 4);
    }

    #[test]
    fn mecs_routers_have_one_input_per_remote_node() {
        let spec = ColumnTopology::Mecs.build(&ColumnConfig::paper());
        for (node, router) in spec.routers.iter().enumerate() {
            let network_ports = router
                .inputs
                .iter()
                .filter(|p| matches!(p.kind, InputKind::Network { .. }))
                .count();
            assert_eq!(network_ports, 7, "router {node}");
            // All inputs from one direction share a crossbar port: at most
            // two network crossbar groups plus three injection groups.
            assert!(router.xbar_input_groups() <= 5);
        }
    }

    #[test]
    fn mecs_channels_reach_every_downstream_node_in_one_hop() {
        let spec = ColumnTopology::Mecs.build(&ColumnConfig::paper());
        let south = spec.routers[0]
            .outputs
            .iter()
            .find(|o| o.name == "mecs_south")
            .expect("router 0 has a south channel");
        assert_eq!(south.targets.len(), 7);
        // Wire delay grows with distance.
        for target in &south.targets {
            let TargetEndpoint::Router { router, .. } = target.endpoint else {
                panic!("MECS targets are routers");
            };
            assert_eq!(target.wire_delay as usize, router);
        }
    }

    #[test]
    fn mesh_pipeline_is_shallower_than_mecs() {
        let config = ColumnConfig::paper();
        let mesh = ColumnTopology::MeshX1.build(&config);
        let mecs = ColumnTopology::Mecs.build(&config);
        assert_eq!(mesh.routers[0].pipeline_latency(), 2);
        assert_eq!(mecs.routers[0].pipeline_latency(), 3);
    }

    #[test]
    fn dps_intermediate_ports_are_passthrough() {
        let spec = ColumnTopology::Dps.build(&ColumnConfig::paper());
        // At router 3, subnet 7 traffic from node 2 passes through.
        let router = &spec.routers[3];
        let through = router
            .inputs
            .iter()
            .find(|p| p.name == "dps7_from_n2")
            .expect("pass-through port exists");
        assert!(through.passthrough);
        assert!(through.fixed_route.is_some());
        // Subnet 3 terminates here: its inputs eject without pass-through.
        let terminating = router
            .inputs
            .iter()
            .find(|p| p.name == "dps3_from_n2")
            .expect("terminating port exists");
        assert!(!terminating.passthrough);
        assert_eq!(terminating.fixed_route, Some(OutPortId(0)));
    }

    #[test]
    fn dps_has_one_output_per_remote_destination() {
        let spec = ColumnTopology::Dps.build(&ColumnConfig::paper());
        for router in &spec.routers {
            let subnet_outputs = router
                .outputs
                .iter()
                .filter(|o| o.name.starts_with("dps"))
                .count();
            assert_eq!(subnet_outputs, 7);
        }
    }

    #[test]
    fn buffer_capacity_ordering_matches_paper() {
        // MECS provisions by far the deepest column buffers; DPS sits between
        // the baseline mesh and MECS; replication grows mesh buffers.
        let config = ColumnConfig::paper();
        let network_flits = |t: ColumnTopology| {
            let spec = t.build(&config);
            spec.routers
                .iter()
                .flat_map(|r| r.inputs.iter())
                .filter(|p| matches!(p.kind, InputKind::Network { .. }))
                .map(|p| u64::from(p.vcs.capacity_flits()))
                .sum::<u64>()
        };
        let x1 = network_flits(ColumnTopology::MeshX1);
        let x4 = network_flits(ColumnTopology::MeshX4);
        let mecs = network_flits(ColumnTopology::Mecs);
        let dps = network_flits(ColumnTopology::Dps);
        assert!(x1 < x4);
        assert!(x4 < mecs);
        assert!(dps < mecs);
        assert!(dps > x1);
    }

    #[test]
    fn small_columns_also_build() {
        let config = ColumnConfig {
            nodes: 2,
            ..ColumnConfig::default()
        };
        for topology in ColumnTopology::all() {
            let spec = topology.build(&config);
            assert_eq!(spec.routers.len(), 2);
            spec.validate().expect("valid");
        }
    }

    #[test]
    fn params_match_table_1() {
        assert_eq!(ColumnTopology::MeshX1.params().network_vcs, 6);
        assert_eq!(ColumnTopology::Mecs.params().network_vcs, 14);
        assert_eq!(ColumnTopology::Dps.params().network_vcs, 5);
        assert_eq!(ColumnTopology::Mecs.params().va_latency, 2);
        assert_eq!(ColumnTopology::Dps.params().va_latency, 1);
        for t in ColumnTopology::all() {
            assert_eq!(t.params().vc_depth_flits, 4);
            assert_eq!(t.params().reserved_vcs, 1);
        }
    }
}
