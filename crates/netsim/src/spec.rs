//! Static description of a simulated network.
//!
//! A [`NetworkSpec`] fully describes the structure of the network: routers,
//! their input and output ports, virtual-channel provisioning, crossbar port
//! sharing, pipeline latencies, connectivity (including point-to-multipoint
//! MECS channels), routing tables, traffic sources, and ejection sinks.
//!
//! Topology crates (`taqos-topology`) construct specs; the simulator
//! (`crate::network::Network`) instantiates runtime state from them. This
//! mirrors the organisation of production network-on-chip simulators where a
//! single router engine is configured per topology.

use crate::error::SpecError;
use crate::ids::{Direction, FlowId, InPortId, NodeId, OutPortId};
use serde::{Deserialize, Serialize};

/// Virtual-channel provisioning of one input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VcConfig {
    /// Total number of virtual channels at the port.
    pub count: u8,
    /// Depth of each virtual channel in flits. With virtual cut-through flow
    /// control each VC must hold the largest packet (4 flits in the paper).
    pub depth_flits: u8,
    /// Number of VCs (out of `count`) reserved for rate-compliant traffic;
    /// only packets sent within their flow's reserved quota may use them.
    pub reserved: u8,
}

impl VcConfig {
    /// Creates a VC configuration with no reserved VCs.
    pub fn new(count: u8, depth_flits: u8) -> Self {
        VcConfig {
            count,
            depth_flits,
            reserved: 0,
        }
    }

    /// Creates a VC configuration with `reserved` VCs set aside for
    /// rate-compliant traffic.
    pub fn with_reserved(count: u8, depth_flits: u8, reserved: u8) -> Self {
        VcConfig {
            count,
            depth_flits,
            reserved,
        }
    }

    /// Total buffer capacity of the port in flits.
    pub fn capacity_flits(&self) -> u32 {
        u32::from(self.count) * u32::from(self.depth_flits)
    }
}

/// Role of an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputKind {
    /// Injection port fed by a local source (terminal or row input).
    Injection,
    /// Network port fed by another router's output channel.
    Network {
        /// Node that drives the channel feeding this port.
        from: NodeId,
        /// Direction the traffic travels when it arrives at this port.
        dir: Direction,
        /// Replicated-channel index (mesh x2/x4) or subnet index (DPS).
        channel: u8,
    },
}

/// Specification of one router input port.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputPortSpec {
    /// Human-readable name used in diagnostics (`"term"`, `"row_e0"`,
    /// `"col_n_from_n2"`, ...).
    pub name: String,
    /// Role of the port.
    pub kind: InputKind,
    /// Virtual-channel provisioning.
    pub vcs: VcConfig,
    /// Crossbar input group. Ports sharing a group share a single crossbar
    /// input port and therefore at most one of them may be traversing the
    /// switch at any time (MECS input concentration, row-input sharing).
    pub xbar_group: u8,
    /// If set, packets arriving at this port are always forwarded to this
    /// output port regardless of destination (DPS through traffic).
    pub fixed_route: Option<OutPortId>,
    /// Pass-through port: packets forwarded from this port skip crossbar
    /// traversal and flow-state queries and incur only a single cycle of
    /// router latency (DPS intermediate hops).
    pub passthrough: bool,
}

impl InputPortSpec {
    /// Creates an injection port with the given VC configuration.
    pub fn injection(name: impl Into<String>, vcs: VcConfig, xbar_group: u8) -> Self {
        InputPortSpec {
            name: name.into(),
            kind: InputKind::Injection,
            vcs,
            xbar_group,
            fixed_route: None,
            passthrough: false,
        }
    }

    /// Creates a network port fed by node `from` with traffic travelling in
    /// direction `dir` on replication/subnet channel `channel`.
    pub fn network(
        name: impl Into<String>,
        from: NodeId,
        dir: Direction,
        channel: u8,
        vcs: VcConfig,
        xbar_group: u8,
    ) -> Self {
        InputPortSpec {
            name: name.into(),
            kind: InputKind::Network { from, dir, channel },
            vcs,
            xbar_group,
            fixed_route: None,
            passthrough: false,
        }
    }

    /// Marks this port as a pass-through port with a fixed output route.
    pub fn with_passthrough(mut self, out: OutPortId) -> Self {
        self.fixed_route = Some(out);
        self.passthrough = true;
        self
    }

    /// Sets a fixed output route without pass-through semantics.
    pub fn with_fixed_route(mut self, out: OutPortId) -> Self {
        self.fixed_route = Some(out);
        self
    }
}

/// Where an output-port target delivers flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetEndpoint {
    /// An input port of another router.
    Router {
        /// Index of the downstream router in [`NetworkSpec::routers`].
        router: usize,
        /// Input port at the downstream router.
        in_port: InPortId,
    },
    /// An ejection sink (terminal of the shared resource at a node).
    Sink {
        /// Index of the sink in [`NetworkSpec::sinks`].
        sink: usize,
    },
}

/// One drop-off point of an output channel.
///
/// Point-to-point channels (mesh, DPS segments, ejection) have a single
/// target; MECS point-to-multipoint channels have one target per node they
/// span, selected by packet destination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetSpec {
    /// Endpoint reached through this target.
    pub endpoint: TargetEndpoint,
    /// Wire delay in cycles from this output port to the endpoint.
    pub wire_delay: u32,
    /// Packet destinations for which this target is used. A packet whose
    /// destination is contained here is steered to this target. Empty means
    /// "all destinations" (valid only when the port has a single target).
    pub covers: Vec<NodeId>,
}

impl TargetSpec {
    /// Creates a single-destination target covering all destinations.
    pub fn single(endpoint: TargetEndpoint, wire_delay: u32) -> Self {
        TargetSpec {
            endpoint,
            wire_delay,
            covers: Vec::new(),
        }
    }

    /// Creates a target used only for the given destinations.
    pub fn covering(endpoint: TargetEndpoint, wire_delay: u32, covers: Vec<NodeId>) -> Self {
        TargetSpec {
            endpoint,
            wire_delay,
            covers,
        }
    }
}

/// Role of an output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputKind {
    /// Network channel leaving the router.
    Network {
        /// Direction the channel travels.
        dir: Direction,
        /// Replicated-channel index (mesh x2/x4) or subnet index (DPS).
        channel: u8,
    },
    /// Ejection port towards the local terminal (shared resource).
    Ejection,
}

/// Specification of one router output port (a physical channel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputPortSpec {
    /// Human-readable name used in diagnostics.
    pub name: String,
    /// Role of the port.
    pub kind: OutputKind,
    /// Drop-off targets of the channel (one for point-to-point channels,
    /// several for MECS point-to-multipoint channels).
    pub targets: Vec<TargetSpec>,
    /// Pass-through output: forwarding through this port from a pass-through
    /// input skips the crossbar (DPS intermediate hops).
    pub passthrough: bool,
}

impl OutputPortSpec {
    /// Creates a network output port.
    pub fn network(
        name: impl Into<String>,
        dir: Direction,
        channel: u8,
        targets: Vec<TargetSpec>,
    ) -> Self {
        OutputPortSpec {
            name: name.into(),
            kind: OutputKind::Network { dir, channel },
            targets,
            passthrough: false,
        }
    }

    /// Creates an ejection output port towards the given sink.
    pub fn ejection(name: impl Into<String>, sink: usize, wire_delay: u32) -> Self {
        OutputPortSpec {
            name: name.into(),
            kind: OutputKind::Ejection,
            targets: vec![TargetSpec::single(
                TargetEndpoint::Sink { sink },
                wire_delay,
            )],
            passthrough: false,
        }
    }

    /// Marks the output as a pass-through segment.
    pub fn with_passthrough(mut self) -> Self {
        self.passthrough = true;
        self
    }
}

/// A router's routing table: packet destination to candidate output ports,
/// in round-robin order.
///
/// One contiguous allocation: a fixed-width row of bytes per destination,
/// indexed by the destination's node index — a count, then that many port
/// indices — so a single-candidate table costs two bytes per destination and
/// a lookup is one array index. The row widens (once, for the whole table)
/// when an entry with more candidates is inserted. Port indices are stored
/// as a `u8` because [`NetworkSpec::validate`] caps a router at 64 outputs;
/// an index of 255 or above is stored as 255, which `validate` rejects like
/// any other index beyond the router's outputs.
#[derive(Clone, Serialize, Deserialize)]
pub struct RouteTable {
    /// `width` bytes per destination: `[count, port 0, port 1, ..]`, a zero
    /// count meaning "no route".
    rows: Vec<u8>,
    /// Row width: one more than the most candidates an entry may hold.
    width: usize,
}

impl Default for RouteTable {
    fn default() -> Self {
        RouteTable::with_destinations(0)
    }
}

impl RouteTable {
    /// An empty table with room for destinations `0..destinations`, so a
    /// builder that fills it with single-candidate routes allocates once.
    pub fn with_destinations(destinations: usize) -> Self {
        RouteTable {
            rows: Vec::with_capacity(2 * destinations),
            width: 2,
        }
    }

    /// Routes `dst` through `ports`, replacing any earlier entry. No ports
    /// means no route.
    ///
    /// # Panics
    ///
    /// Panics if `ports` holds more than 255 candidates (a router has at
    /// most 64 outputs).
    pub fn insert(&mut self, dst: NodeId, ports: &[OutPortId]) {
        let count = u8::try_from(ports.len()).expect("at most 255 candidate ports per route");
        if ports.len() >= self.width {
            let width = ports.len() + 1;
            let mut rows = Vec::with_capacity(self.rows.capacity() / self.width * width);
            for row in self.rows.chunks_exact(self.width) {
                rows.extend_from_slice(row);
                rows.resize(rows.len() + width - self.width, 0);
            }
            (self.rows, self.width) = (rows, width);
        }
        let start = dst.index() * self.width;
        if self.rows.len() < start + self.width {
            self.rows.resize(start + self.width, 0);
        }
        // taqos-lint: allow(panic-index) -- the rows were just grown to cover this one, and a row holds `width - 1 >= ports.len()` ports
        let row = &mut self.rows[start..start + self.width];
        row.fill(0);
        row[0] = count;
        for (slot, port) in row[1..].iter_mut().zip(ports) {
            *slot = u8::try_from(port.0).unwrap_or(u8::MAX);
        }
    }

    /// The candidate output ports for `dst`, if it has a route.
    // taqos-lint: hot
    #[inline]
    pub fn get(&self, dst: NodeId) -> Option<Ports<'_>> {
        let start = dst.index() * self.width;
        let row = self.rows.get(start..start + self.width)?;
        let (&count, ports) = row.split_first()?;
        let ports = ports.get(..usize::from(count)).filter(|p| !p.is_empty())?;
        Some(Ports(ports.iter()))
    }

    /// Whether `dst` has a route.
    pub fn contains(&self, dst: NodeId) -> bool {
        self.get(dst).is_some()
    }

    /// The destinations that have a route, ascending.
    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(dst, _)| dst)
    }

    /// Every destination with a route, ascending, with its candidates.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Ports<'_>)> + '_ {
        let destinations = (0..self.rows.len() / self.width).map(|dst| NodeId(dst as u16));
        destinations.filter_map(|dst| Some((dst, self.get(dst)?)))
    }
}

/// The candidate output ports of one route, in round-robin order.
#[derive(Debug, Clone)]
pub struct Ports<'a>(std::slice::Iter<'a, u8>);

impl Iterator for Ports<'_> {
    type Item = OutPortId;

    // taqos-lint: hot
    #[inline]
    fn next(&mut self) -> Option<OutPortId> {
        self.0.next().map(|&port| OutPortId(usize::from(port)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Ports<'_> {}

/// Tables are equal when they route the same destinations through the same
/// ports, whatever widths their insertion histories left.
impl PartialEq for RouteTable {
    fn eq(&self, other: &Self) -> bool {
        let same_ports = |((_, a), (_, b)): ((_, Ports), (_, Ports))| a.eq(b);
        self.keys().eq(other.keys()) && self.iter().zip(other.iter()).all(same_ports)
    }
}

impl std::fmt::Debug for RouteTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let routes = self.iter().map(|(dst, ports)| (dst, ports.collect()));
        f.debug_map().entries::<_, Vec<_>, _>(routes).finish()
    }
}

impl<P: AsRef<[OutPortId]>> FromIterator<(NodeId, P)> for RouteTable {
    fn from_iter<I: IntoIterator<Item = (NodeId, P)>>(routes: I) -> Self {
        let mut table = RouteTable::default();
        for (dst, ports) in routes {
            table.insert(dst, ports.as_ref());
        }
        table
    }
}

/// Specification of one router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterSpec {
    /// Node this router serves.
    pub node: NodeId,
    /// Input ports.
    pub inputs: Vec<InputPortSpec>,
    /// Output ports.
    pub outputs: Vec<OutputPortSpec>,
    /// Routing table: packet destination to candidate output ports. When a
    /// destination maps to several candidates (replicated mesh channels) the
    /// router keeps a packet on the channel it arrived on when possible and
    /// otherwise balances in round-robin order.
    pub route_table: RouteTable,
    /// Virtual-channel allocation (arbitration) latency in cycles: 1 for mesh
    /// and DPS, 2 for MECS.
    pub va_latency: u32,
    /// Crossbar traversal latency in cycles (1 in all evaluated topologies).
    pub xt_latency: u32,
}

impl RouterSpec {
    /// Total input buffer capacity of the router in flits.
    pub fn buffer_capacity_flits(&self) -> u32 {
        self.inputs.iter().map(|p| p.vcs.capacity_flits()).sum()
    }

    /// Number of distinct crossbar input groups used by the router's inputs.
    pub fn xbar_input_groups(&self) -> usize {
        let mut groups: Vec<u8> = self
            .inputs
            .iter()
            .filter(|p| !p.passthrough)
            .map(|p| p.xbar_group)
            .collect();
        groups.sort_unstable();
        groups.dedup();
        groups.len()
    }

    /// Number of crossbar output ports (non-pass-through outputs).
    pub fn xbar_output_ports(&self) -> usize {
        self.outputs.iter().filter(|o| !o.passthrough).count()
    }

    /// Router pipeline latency in cycles for a normal (non-pass-through) hop.
    pub fn pipeline_latency(&self) -> u32 {
        self.va_latency + self.xt_latency
    }
}

/// A traffic source (injector) attached to a router input port.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceSpec {
    /// Flow identifier carried by every packet injected by this source.
    pub flow: FlowId,
    /// Node the source belongs to (used as packet source address).
    pub node: NodeId,
    /// Index of the router the source injects into.
    pub router: usize,
    /// Injection input port at that router.
    pub in_port: InPortId,
    /// Human-readable name (`"n3.term"`, `"n7.row_w2"`, ...).
    pub name: String,
    /// Maximum number of outstanding (un-acknowledged) packets the source may
    /// have in flight; retransmission after preemption is served from this
    /// window.
    pub window: usize,
}

/// An ejection sink (terminal of a shared resource).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SinkSpec {
    /// Node whose terminal this sink models.
    pub node: NodeId,
    /// Human-readable name.
    pub name: String,
    /// Number of ejection slots (ejection VCs); the paper provisions 2.
    pub slots: u8,
}

/// Complete static description of a simulated network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Topology name (`"mesh_x1"`, `"mecs"`, `"dps"`, ...).
    pub name: String,
    /// Routers, indexed by position.
    pub routers: Vec<RouterSpec>,
    /// Traffic sources.
    pub sources: Vec<SourceSpec>,
    /// Ejection sinks.
    pub sinks: Vec<SinkSpec>,
    /// Channel (flit) width in bytes; 16 in the paper.
    pub flit_bytes: u32,
}

impl NetworkSpec {
    /// Number of flows (one per source).
    pub fn num_flows(&self) -> usize {
        self.sources.len()
    }

    /// Finds the sink index serving a node's terminal, if any.
    pub fn sink_for_node(&self, node: NodeId) -> Option<usize> {
        self.sinks.iter().position(|s| s.node == node)
    }

    /// Total input-buffer capacity of the network in flits.
    pub fn total_buffer_flits(&self) -> u64 {
        self.routers
            .iter()
            .map(|r| u64::from(r.buffer_capacity_flits()))
            .sum()
    }

    /// Validates structural consistency of the specification.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] describing the first inconsistency found:
    /// out-of-range router/port/sink references, empty ports, routers with
    /// more ports than the engine's packed state holds, routing-table
    /// entries pointing at missing output ports, crossbar groups of 64 or
    /// above, sources attached to non-injection ports, input ports with more
    /// than one feeder, flow identifiers that are not exactly
    /// `0..num_sources`, or multi-target ports with ambiguous coverage.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.routers.is_empty() {
            return Err(SpecError::new("network has no routers"));
        }
        for (ri, router) in self.routers.iter().enumerate() {
            if router.inputs.is_empty() {
                return Err(SpecError::new(format!("router {ri} has no input ports")));
            }
            if router.outputs.is_empty() {
                return Err(SpecError::new(format!("router {ri} has no output ports")));
            }
            // The allocation and launch phases track a router's outputs
            // (granted, pending, dirty) as bits of one 64-bit word each.
            if router.outputs.len() > 64 {
                return Err(SpecError::new(format!(
                    "router {ri} has {} output ports; a router must have at most 64",
                    router.outputs.len()
                )));
            }
            // Events and arbitration requests carry input port indices in
            // 16-bit fields.
            if router.inputs.len() > usize::from(u16::MAX) {
                return Err(SpecError::new(format!(
                    "router {ri} has {} input ports; a router must have at most {}",
                    router.inputs.len(),
                    u16::MAX
                )));
            }
            for (pi, port) in router.inputs.iter().enumerate() {
                if port.vcs.count == 0 || port.vcs.depth_flits == 0 {
                    return Err(SpecError::new(format!(
                        "router {ri} input {pi} ({}) has zero VCs or zero depth",
                        port.name
                    )));
                }
                if port.vcs.reserved > port.vcs.count {
                    return Err(SpecError::new(format!(
                        "router {ri} input {pi} ({}) reserves more VCs than it has",
                        port.name
                    )));
                }
                // The launch phase tracks the crossbar groups used in a cycle
                // as bits of one 64-bit word.
                if port.xbar_group >= 64 {
                    return Err(SpecError::new(format!(
                        "router {ri} input {pi} ({}) uses crossbar group {}; groups must be below 64",
                        port.name, port.xbar_group
                    )));
                }
                if let Some(out) = port.fixed_route {
                    if out.0 >= router.outputs.len() {
                        return Err(SpecError::new(format!(
                            "router {ri} input {pi} fixed route references missing output {}",
                            out.0
                        )));
                    }
                }
            }
            for (oi, port) in router.outputs.iter().enumerate() {
                if port.targets.is_empty() {
                    return Err(SpecError::new(format!(
                        "router {ri} output {oi} ({}) has no targets",
                        port.name
                    )));
                }
                if port.targets.len() > 1 && port.targets.iter().any(|t| t.covers.is_empty()) {
                    return Err(SpecError::new(format!(
                        "router {ri} output {oi} ({}) has multiple targets but one covers no destinations",
                        port.name
                    )));
                }
                for target in &port.targets {
                    match target.endpoint {
                        TargetEndpoint::Router { router, in_port } => {
                            let Some(down) = self.routers.get(router) else {
                                return Err(SpecError::new(format!(
                                    "router {ri} output {oi} targets missing router {router}"
                                )));
                            };
                            if in_port.0 >= down.inputs.len() {
                                return Err(SpecError::new(format!(
                                    "router {ri} output {oi} targets missing input port {} of router {router}",
                                    in_port.0
                                )));
                            }
                        }
                        TargetEndpoint::Sink { sink } => {
                            if sink >= self.sinks.len() {
                                return Err(SpecError::new(format!(
                                    "router {ri} output {oi} targets missing sink {sink}"
                                )));
                            }
                        }
                    }
                }
            }
            for (dest, ports) in router.route_table.iter() {
                for port in ports {
                    if port.0 >= router.outputs.len() {
                        return Err(SpecError::new(format!(
                            "router {ri} route for {dest} references missing output {}",
                            port.0
                        )));
                    }
                }
            }
        }
        for (si, source) in self.sources.iter().enumerate() {
            let Some(router) = self.routers.get(source.router) else {
                return Err(SpecError::new(format!(
                    "source {si} ({}) references missing router {}",
                    source.name, source.router
                )));
            };
            let Some(port) = router.inputs.get(source.in_port.0) else {
                return Err(SpecError::new(format!(
                    "source {si} ({}) references missing input port {}",
                    source.name, source.in_port.0
                )));
            };
            if port.kind != InputKind::Injection {
                return Err(SpecError::new(format!(
                    "source {si} ({}) is attached to a non-injection port",
                    source.name
                )));
            }
            if source.window == 0 {
                return Err(SpecError::new(format!(
                    "source {si} ({}) has a zero-sized outstanding-packet window",
                    source.name
                )));
            }
        }
        // Every input port has at most one feeder: a single upstream output
        // target or a single source (credits return to exactly one place).
        let mut fed: Vec<Vec<bool>> = self
            .routers
            .iter()
            .map(|r| vec![false; r.inputs.len()])
            .collect();
        for router in &self.routers {
            for target in router.outputs.iter().flat_map(|o| &o.targets) {
                if let TargetEndpoint::Router { router, in_port } = target.endpoint {
                    // taqos-lint: allow(panic-index) -- target router and port were range-checked by the loop above
                    if std::mem::replace(&mut fed[router][in_port.0], true) {
                        return Err(SpecError::new(format!(
                            "input port {} of router {router} has two feeders",
                            in_port.0
                        )));
                    }
                }
            }
        }
        for source in &self.sources {
            // taqos-lint: allow(panic-index) -- source router and port were range-checked by the loop above
            if std::mem::replace(&mut fed[source.router][source.in_port.0], true) {
                return Err(SpecError::new(format!(
                    "injection port of source {} already has a feeder",
                    source.name
                )));
            }
        }
        let mut flows: Vec<FlowId> = self.sources.iter().map(|s| s.flow).collect();
        flows.sort_unstable();
        flows.dedup();
        if flows.len() != self.sources.len() {
            return Err(SpecError::new("duplicate flow identifiers across sources"));
        }
        // Per-flow tables are indexed by flow identifier: sorted and free of
        // duplicates, the identifiers are dense iff the largest is the last.
        if flows.last().is_some_and(|f| f.index() + 1 != flows.len()) {
            return Err(SpecError::new(
                "source flow identifiers must be dense (0..num_sources)",
            ));
        }
        for (si, sink) in self.sinks.iter().enumerate() {
            if sink.slots == 0 {
                return Err(SpecError::new(format!(
                    "sink {si} ({}) has zero ejection slots",
                    sink.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a minimal two-router, single-channel network used across the
    /// substrate's unit tests.
    pub(crate) fn tiny_spec() -> NetworkSpec {
        let vcs = VcConfig::new(2, 4);
        let r0 = RouterSpec {
            node: NodeId(0),
            inputs: vec![InputPortSpec::injection("term_in", VcConfig::new(1, 4), 0)],
            outputs: vec![OutputPortSpec::network(
                "south",
                Direction::South,
                0,
                vec![TargetSpec::single(
                    TargetEndpoint::Router {
                        router: 1,
                        in_port: InPortId(0),
                    },
                    1,
                )],
            )],
            route_table: RouteTable::from_iter([(NodeId(1), [OutPortId(0)])]),
            va_latency: 1,
            xt_latency: 1,
        };
        let r1 = RouterSpec {
            node: NodeId(1),
            inputs: vec![InputPortSpec::network(
                "north_in",
                NodeId(0),
                Direction::South,
                0,
                vcs,
                0,
            )],
            outputs: vec![OutputPortSpec::ejection("eject", 0, 0)],
            route_table: RouteTable::from_iter([(NodeId(1), [OutPortId(0)])]),
            va_latency: 1,
            xt_latency: 1,
        };
        NetworkSpec {
            name: "tiny".to_string(),
            routers: vec![r0, r1],
            sources: vec![SourceSpec {
                flow: FlowId(0),
                node: NodeId(0),
                router: 0,
                in_port: InPortId(0),
                name: "n0.term".to_string(),
                window: 8,
            }],
            sinks: vec![SinkSpec {
                node: NodeId(1),
                name: "n1.sink".to_string(),
                slots: 2,
            }],
            flit_bytes: 16,
        }
    }

    #[test]
    fn tiny_spec_validates() {
        tiny_spec().validate().expect("tiny spec should be valid");
    }

    #[test]
    fn vc_config_capacity() {
        assert_eq!(VcConfig::new(6, 4).capacity_flits(), 24);
        assert_eq!(VcConfig::with_reserved(14, 4, 1).capacity_flits(), 56);
    }

    #[test]
    fn router_spec_aggregates() {
        let spec = tiny_spec();
        assert_eq!(spec.routers[0].buffer_capacity_flits(), 4);
        assert_eq!(spec.routers[1].buffer_capacity_flits(), 8);
        assert_eq!(spec.routers[0].pipeline_latency(), 2);
        assert_eq!(spec.routers[0].xbar_input_groups(), 1);
        assert_eq!(spec.routers[0].xbar_output_ports(), 1);
        assert_eq!(spec.total_buffer_flits(), 12);
        assert_eq!(spec.num_flows(), 1);
        assert_eq!(spec.sink_for_node(NodeId(1)), Some(0));
        assert_eq!(spec.sink_for_node(NodeId(0)), None);
    }

    #[test]
    fn validation_rejects_missing_target_router() {
        let mut spec = tiny_spec();
        spec.routers[0].outputs[0].targets[0].endpoint = TargetEndpoint::Router {
            router: 9,
            in_port: InPortId(0),
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_route_table() {
        let mut spec = tiny_spec();
        spec.routers[0]
            .route_table
            .insert(NodeId(5), &[OutPortId(7)]);
        assert!(spec.validate().is_err());
    }

    /// The table against the map it replaced, under seeded random
    /// insert / replace / remove / get / keys sequences.
    #[test]
    fn route_table_equals_a_btreemap_model_under_random_edits() {
        use crate::fault::splitmix64;
        use std::collections::BTreeMap;
        for seed in 0..200u64 {
            let mut table = RouteTable::default();
            let mut model = BTreeMap::new();
            let r = |step: u64, salt: u64| splitmix64(seed ^ (step << 20) ^ (salt << 56));
            for step in 0..120 {
                let dst = NodeId((r(step, 1) % 40) as u16);
                // Mostly one candidate, sometimes several (widening the
                // rows mid-sequence), sometimes none (the route goes away),
                // and port indices on both sides of what a byte holds.
                let count = [1, 1, 1, 2, 4, 0][(r(step, 2) % 6) as usize];
                let ports: Vec<OutPortId> = (0..count)
                    .map(|i| OutPortId((r(step, 3 + i) % 300) as usize))
                    .collect();
                table.insert(dst, &ports);
                if ports.is_empty() {
                    model.remove(&dst);
                } else {
                    let stored = |p: &OutPortId| OutPortId(p.0.min(255));
                    model.insert(dst, ports.iter().map(stored).collect());
                }
                let probe = NodeId((r(step, 9) % 48) as u16);
                let got = table.get(probe).map(|ports| ports.collect::<Vec<_>>());
                assert_eq!(got.as_ref(), model.get(&probe), "seed {seed} step {step}");
                assert_eq!(table.contains(probe), model.contains_key(&probe));
            }
            assert!(table.keys().eq(model.keys().copied()), "seed {seed}");
            let routes = table.iter().map(|(dst, ports)| (dst, ports.collect()));
            assert_eq!(routes.collect::<BTreeMap<_, Vec<_>>>(), model);
            // Equality is about routes, not about how the rows got there.
            let rebuilt: RouteTable = model.iter().map(|(&dst, ports)| (dst, ports)).collect();
            assert_eq!(rebuilt, table, "seed {seed}");
            if let Some((&dst, _)) = model.iter().next() {
                let mut other = table.clone();
                other.insert(dst, &[]);
                assert_ne!(other, table);
            }
        }
    }

    #[test]
    fn a_single_candidate_table_is_one_allocation_of_two_bytes_per_destination() {
        let mut table = RouteTable::with_destinations(256);
        let before = (table.rows.as_ptr(), table.rows.capacity());
        for dst in 0..256 {
            table.insert(NodeId(dst), &[OutPortId(usize::from(dst) % 5)]);
        }
        assert_eq!((table.rows.as_ptr(), table.rows.capacity()), before);
        assert_eq!(table.rows.len(), 512);
    }

    #[test]
    fn validation_rejects_zero_vcs() {
        let mut spec = tiny_spec();
        spec.routers[0].inputs[0].vcs.count = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_source_on_network_port() {
        let mut spec = tiny_spec();
        spec.sources[0].router = 1;
        spec.sources[0].in_port = InPortId(0);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_crossbar_groups_beyond_the_launch_mask() {
        let mut spec = tiny_spec();
        spec.routers[1].inputs[0].xbar_group = 63;
        spec.validate().expect("group 63 is the last usable one");
        spec.routers[1].inputs[0].xbar_group = 64;
        let err = spec.validate().expect_err("group 64 must be rejected");
        assert!(err.to_string().contains("crossbar group 64"), "{err}");
    }

    #[test]
    fn a_router_with_65_outputs_is_rejected() {
        let mut spec = tiny_spec();
        let sink = spec.sinks[0].clone();
        spec.sinks.extend((1..64).map(|_| sink.clone()));
        // 64 ejection ports, one per sink: the widest router the masks hold.
        spec.routers[1].outputs = (0..64)
            .map(|s| OutputPortSpec::ejection(format!("eject{s}"), s, 0))
            .collect();
        spec.validate()
            .expect("64 outputs is the last usable width");
        spec.sinks.push(sink);
        spec.routers[1]
            .outputs
            .push(OutputPortSpec::ejection("eject64", 64, 0));
        let err = spec.validate().expect_err("65 outputs must be rejected");
        assert!(err.to_string().contains("65 output ports"), "{err}");
        // So no network is ever built whose output masks would overflow.
        let built = crate::network::Network::new(
            spec,
            Box::new(crate::qos::FifoPolicy::new()),
            vec![Box::new(crate::packet::IdleGenerator)],
            crate::config::SimConfig::default(),
        );
        assert_eq!(built.err(), Some(crate::error::SimError::Spec(err)));
    }

    #[test]
    fn a_router_with_more_input_ports_than_a_u16_indexes_is_rejected() {
        let mut spec = tiny_spec();
        let port = InputPortSpec::injection("spare", VcConfig::new(1, 4), 0);
        let limit = usize::from(u16::MAX);
        spec.routers[0].inputs.resize(limit, port.clone());
        spec.validate().expect("65535 inputs still index as u16");
        spec.routers[0].inputs.push(port);
        let err = spec.validate().expect_err("65536 inputs must be rejected");
        assert!(err.to_string().contains("65536 input ports"), "{err}");
    }

    #[test]
    fn validation_rejects_sparse_flow_identifiers() {
        let mut spec = tiny_spec();
        spec.sources[0].flow = FlowId(1);
        let err = spec.validate().expect_err("flow 1 of 1 is out of range");
        assert!(err.to_string().contains("must be dense"), "{err}");
    }

    #[test]
    fn validation_rejects_an_input_port_fed_by_two_outputs() {
        let mut spec = tiny_spec();
        // A second output of router 0 aimed at the same input of router 1.
        let dup = spec.routers[0].outputs[0].clone();
        spec.routers[0].outputs.push(dup);
        let err = spec.validate().expect_err("two feeders must be rejected");
        assert!(err.to_string().contains("has two feeders"), "{err}");
    }

    #[test]
    fn validation_rejects_two_sources_on_one_injection_port() {
        let mut spec = tiny_spec();
        let mut second = spec.sources[0].clone();
        second.flow = FlowId(1);
        second.name = "n0.term2".to_string();
        spec.sources.push(second);
        let err = spec
            .validate()
            .expect_err("a shared injection port must be rejected");
        assert!(err.to_string().contains("already has a feeder"), "{err}");
    }

    #[test]
    fn validation_rejects_duplicate_flows() {
        let mut spec = tiny_spec();
        let mut dup = spec.sources[0].clone();
        dup.name = "dup".to_string();
        spec.sources.push(dup);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_multi_target_without_coverage() {
        let mut spec = tiny_spec();
        let extra = TargetSpec::single(
            TargetEndpoint::Router {
                router: 1,
                in_port: InPortId(0),
            },
            2,
        );
        spec.routers[0].outputs[0].targets.push(extra);
        assert!(spec.validate().is_err());
    }
}
