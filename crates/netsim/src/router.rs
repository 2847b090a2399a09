//! Runtime router state and routing helpers.

use crate::event::Event;
use crate::ids::{FlowId, NodeId, OutPortId, PacketId};
use crate::packet::HotPacket;
use crate::port::{InputPortState, OutputPortState};
use crate::spec::{InputKind, InputPortSpec, OutputKind, OutputPortSpec, RouterSpec};

/// One candidate in a virtual-channel allocation round: a buffered packet
/// head requesting an output port. The reference engine gathers them into a
/// reusable buffer per decision; the optimized engine keeps them filed per
/// output (see [`RouterState::alloc_buckets`]). Either way steady-state
/// arbitration performs no heap allocation.
#[derive(Debug, Clone)]
pub(crate) struct ArbRequest {
    /// Input port holding the requesting packet (`NetworkSpec::validate`
    /// bounds ports per router by `u16::MAX`; narrow fields keep the request
    /// at 24 bytes).
    pub in_port: u16,
    /// VC index at that input port.
    pub vc: u16,
    /// Requesting packet.
    pub packet: PacketId,
    /// Flow of the packet.
    pub flow: FlowId,
    /// Packet length in flits.
    pub len: u8,
    /// Whether the packet is rate-compliant (reserved quota).
    pub reserved: bool,
    /// Target (drop-off point) of the output port serving the destination.
    pub target_idx: u16,
    /// Whether the input port is a pass-through (DPS intermediate hop).
    pub passthrough: bool,
}

impl ArbRequest {
    /// The request of `packet`, whose head sits in VC `vc` of input port
    /// `in_port`, for output `out` of the router described by `spec`. What
    /// changes from cycle to cycle — the flow's priority, the target's
    /// credits — is read when the output is arbitrated, not recorded here.
    pub(crate) fn new(
        spec: &RouterSpec,
        out: OutPortId,
        in_port: usize,
        vc: usize,
        id: PacketId,
        packet: HotPacket,
    ) -> Self {
        ArbRequest {
            in_port: in_port as u16,
            vc: vc as u16,
            packet: id,
            flow: packet.flow,
            len: packet.len_flits,
            reserved: packet.reserved,
            target_idx: resolve_target_idx(&spec.outputs[out.0], packet.dst) as u16,
            passthrough: spec.inputs[in_port].passthrough,
        }
    }
}

/// One entry of a router's per-flow priority memo: the cached priority and
/// the epoch stamp it was computed under. Value and stamp travel in one
/// 16-byte record so a cache probe touches a single array (one potential
/// miss) instead of parallel value/epoch vectors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PriorityMemo {
    /// Cached `RouterQos::priority` value for the flow.
    pub value: u64,
    /// Epoch the value was computed in; stale when it differs from the
    /// router's `priority_epoch`.
    pub epoch: u64,
}

/// Runtime state of one router.
#[derive(Debug)]
pub struct RouterState {
    /// Node this router serves.
    pub node: NodeId,
    /// Input port states.
    pub inputs: Vec<InputPortState>,
    /// Output port states.
    pub outputs: Vec<OutputPortState>,
    /// Round-robin cursor used when a destination maps to several candidate
    /// output ports (replicated mesh channels).
    pub route_rr_cursor: usize,
    /// Number of currently occupied input VCs across all input ports. The
    /// router is skipped by the routing/allocation/launch phases when this is
    /// zero (active-set tracking): every unit of per-cycle router work is
    /// rooted in a buffered packet.
    pub active_vcs: usize,
    /// Number of occupied input VCs still awaiting route computation
    /// (router-level sum of the ports' `unrouted` counters).
    pub unrouted_vcs: usize,
    /// Persistent per-output arbitration request lists (see [`ArbRequest`]).
    /// The optimized engine maintains them incrementally — a request is
    /// inserted (ordered by `(in_port, vc)`, the reference scan order) when
    /// the routing phase assigns the packet's output, and removed when the
    /// packet wins a grant or is preempted — so arbitration never rescans
    /// input ports and performs no steady-state allocation. Priorities and
    /// credit state are refreshed each decision, as they change cycle to
    /// cycle.
    pub(crate) alloc_buckets: Vec<Vec<ArbRequest>>,
    /// Bitmask of output ports that currently hold granted transfers (bit
    /// `oi` set ⇔ `outputs[oi].granted` is non-empty), so the optimized
    /// launch phase can walk set bits instead of scanning every output. One
    /// word suffices: `NetworkSpec::validate` caps a router at 64 outputs.
    pub(crate) granted_mask: u64,
    /// Dirty bits for arbitration (read by the optimized engine only). An
    /// output's bit is set whenever anything feeding its
    /// decision changes: a request enters or leaves its bucket, one of its
    /// targets gains or loses a credit, its grant queue shrinks, any packet
    /// is forwarded by this router (priorities move), or a frame rolls over.
    /// A *clean* blocked output must reach the same no-winner outcome as last
    /// cycle, so the allocation phase skips the decision and replays the
    /// cached preemption probe (`cached_probe`) instead.
    pub(crate) alloc_dirty: u64,
    /// Bitmask of outputs whose request bucket is non-empty (bit `oi` set ⇔
    /// `alloc_buckets[oi]` holds a request), maintained at the three bucket
    /// mutation sites — routing insert, grant removal, preemption removal.
    /// The optimized allocation phase walks `alloc_pending & alloc_dirty`
    /// (all of `alloc_pending` when cached preemption probes must be
    /// replayed) instead of scanning every output for an empty bucket.
    pub(crate) alloc_pending: u64,
    /// Per-output cached no-winner outcome: the preemption probe (if any)
    /// that the last full decision scheduled. Valid only while the output's
    /// dirty bit is clear.
    pub(crate) cached_probe: Vec<Option<Event>>,
    /// Crossbar group of each input port, copied out of the spec into a
    /// dense byte array so the launch phase's per-flit conflict check does
    /// not touch the (cold, large-stride) `InputPortSpec` records.
    pub(crate) xbar_groups: Vec<u8>,
    /// Memoised per-flow priorities (optimized engine only). `priority()` is
    /// a virtual call with a floating-point division inside PVC; under
    /// saturation the same flow re-arbitrates at many outputs every cycle,
    /// so the network caches the value per router. Priorities only move on
    /// the two events of the `RouterQos::priority` stability contract, and
    /// the cache is maintained accordingly: a frame rollover bumps
    /// `priority_epoch` (invalidating every entry), while forwarding a
    /// packet refreshes just the forwarded flow's entry in place.
    pub(crate) priority_cache: Vec<PriorityMemo>,
    /// Current priority epoch; entries with a different stamp are stale.
    pub(crate) priority_epoch: u64,
}

impl RouterState {
    /// Creates runtime state for a router of a network with `num_flows`
    /// flows from its specification.
    pub fn from_spec(spec: &RouterSpec, num_flows: usize) -> Self {
        RouterState {
            node: spec.node,
            inputs: spec.inputs.iter().map(InputPortState::from_spec).collect(),
            outputs: spec
                .outputs
                .iter()
                .map(OutputPortState::from_spec)
                .collect(),
            route_rr_cursor: 0,
            active_vcs: 0,
            unrouted_vcs: 0,
            granted_mask: 0,
            alloc_dirty: u64::MAX,
            alloc_pending: 0,
            cached_probe: vec![None; spec.outputs.len()],
            xbar_groups: spec.inputs.iter().map(|p| p.xbar_group).collect(),
            alloc_buckets: (0..spec.outputs.len()).map(|_| Vec::new()).collect(),
            priority_cache: vec![PriorityMemo { value: 0, epoch: 0 }; num_flows],
            priority_epoch: 1,
        }
    }

    /// Marks one output's arbitration decision stale.
    #[inline]
    pub(crate) fn mark_output_dirty(&mut self, oi: usize) {
        self.alloc_dirty |= 1 << oi;
    }

    /// Registers the head flit of `packet` (of `len` flits) claiming VC `vc`
    /// of input port `in_port`: the VC becomes occupied and awaits route
    /// computation. The one place the unrouted counter of the port and the
    /// occupancy and unrouted counters of the router move up together.
    #[inline]
    pub(crate) fn accept_head(&mut self, in_port: usize, vc: usize, packet: PacketId, len: u8) {
        let port = &mut self.inputs[in_port];
        port.vcs[vc].accept_head(packet, len);
        port.unrouted += 1;
        self.active_vcs += 1;
        self.unrouted_vcs += 1;
    }

    /// Number of packets currently buffered in the router.
    pub fn buffered_packets(&self) -> usize {
        self.inputs.iter().map(|p| p.occupied_vcs()).sum()
    }
}

/// Computes the output port a packet arriving at `in_port` and destined for
/// `dst` should take at the router described by `spec`.
///
/// Pass-through and fixed-route ports always use their configured output.
/// Otherwise the routing table is consulted; when several candidate ports
/// exist (replicated mesh channels) the packet stays on the channel it
/// arrived on if possible and otherwise candidates are balanced round-robin
/// using `rr_cursor`.
///
/// # Panics
///
/// Panics if the routing table has no entry for `dst` — that is a topology
/// construction bug, not a runtime condition.
// taqos-lint: hot
#[inline]
pub fn compute_route(
    spec: &RouterSpec,
    in_port: &InputPortSpec,
    dst: NodeId,
    rr_cursor: &mut usize,
) -> OutPortId {
    if let Some(fixed) = in_port.fixed_route {
        return fixed;
    }
    let mut candidates = spec
        .route_table
        .get(dst)
        .unwrap_or_else(|| panic!("router {} has no route for destination {dst}", spec.node));
    let mut pick = 0;
    if candidates.len() > 1 {
        if let InputKind::Network { channel, .. } = in_port.kind {
            // taqos-lint: allow(hot-alloc) -- cloning a slice iterator copies two pointers
            if let Some(same) = candidates.clone().find(|out| {
                matches!(
                    spec.outputs[out.0].kind,
                    OutputKind::Network { channel: c, .. } if c == channel
                )
            }) {
                return same;
            }
        }
        pick = *rr_cursor % candidates.len();
        *rr_cursor = rr_cursor.wrapping_add(1);
    }
    // taqos-lint: allow(panic-path) -- a route holds at least one candidate and `pick` is below their count
    candidates.nth(pick).expect("route has a candidate")
}

/// Resolves which target (drop-off point) of an output port serves packets
/// destined for `dst`.
///
/// # Panics
///
/// Panics if a multi-target port has no target covering `dst` — a topology
/// construction bug.
pub fn resolve_target_idx(out_port: &OutputPortSpec, dst: NodeId) -> usize {
    if out_port.targets.len() == 1 {
        return 0;
    }
    out_port
        .targets
        .iter()
        .position(|t| t.covers.contains(&dst))
        .unwrap_or_else(|| {
            panic!(
                "output port {} has no target covering destination {dst}",
                out_port.name
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Direction;
    use crate::spec::{RouteTable, TargetEndpoint, TargetSpec, VcConfig};

    fn replicated_router() -> RouterSpec {
        let targets = |_ch: u8| vec![TargetSpec::single(TargetEndpoint::Sink { sink: 0 }, 1)];
        RouterSpec {
            node: NodeId(3),
            inputs: vec![
                InputPortSpec::injection("term", VcConfig::new(1, 4), 0),
                InputPortSpec::network(
                    "south_ch0",
                    NodeId(4),
                    Direction::North,
                    0,
                    VcConfig::new(2, 4),
                    1,
                ),
                InputPortSpec::network(
                    "south_ch1",
                    NodeId(4),
                    Direction::North,
                    1,
                    VcConfig::new(2, 4),
                    2,
                ),
            ],
            outputs: vec![
                OutputPortSpec::network("north_ch0", Direction::North, 0, targets(0)),
                OutputPortSpec::network("north_ch1", Direction::North, 1, targets(1)),
                OutputPortSpec::ejection("eject", 0, 0),
            ],
            route_table: RouteTable::from_iter([
                (NodeId(0), vec![OutPortId(0), OutPortId(1)]),
                (NodeId(3), vec![OutPortId(2)]),
            ]),
            va_latency: 1,
            xt_latency: 1,
        }
    }

    #[test]
    fn router_state_mirrors_spec_shape() {
        let spec = replicated_router();
        let state = RouterState::from_spec(&spec, 1);
        assert_eq!(state.inputs.len(), 3);
        assert_eq!(state.outputs.len(), 3);
        assert_eq!(state.buffered_packets(), 0);
        assert_eq!(state.node, NodeId(3));
    }

    #[test]
    fn fixed_route_wins() {
        let spec = replicated_router();
        let mut rr = 0;
        let port =
            InputPortSpec::injection("term", VcConfig::new(1, 4), 0).with_fixed_route(OutPortId(1));
        assert_eq!(
            compute_route(&spec, &port, NodeId(0), &mut rr),
            OutPortId(1)
        );
    }

    #[test]
    fn single_candidate_is_used_directly() {
        let spec = replicated_router();
        let mut rr = 0;
        assert_eq!(
            compute_route(&spec, &spec.inputs[0], NodeId(3), &mut rr),
            OutPortId(2)
        );
        assert_eq!(rr, 0);
    }

    #[test]
    fn packets_stay_on_their_channel_when_possible() {
        let spec = replicated_router();
        let mut rr = 0;
        // Arrived on channel 1 -> keeps channel 1.
        assert_eq!(
            compute_route(&spec, &spec.inputs[2], NodeId(0), &mut rr),
            OutPortId(1)
        );
        // Arrived on channel 0 -> keeps channel 0.
        assert_eq!(
            compute_route(&spec, &spec.inputs[1], NodeId(0), &mut rr),
            OutPortId(0)
        );
    }

    #[test]
    fn injected_packets_round_robin_over_channels() {
        let spec = replicated_router();
        let mut rr = 0;
        let a = compute_route(&spec, &spec.inputs[0], NodeId(0), &mut rr);
        let b = compute_route(&spec, &spec.inputs[0], NodeId(0), &mut rr);
        let c = compute_route(&spec, &spec.inputs[0], NodeId(0), &mut rr);
        assert_ne!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    #[should_panic(expected = "no route for destination")]
    fn missing_route_panics() {
        let spec = replicated_router();
        let mut rr = 0;
        compute_route(&spec, &spec.inputs[0], NodeId(7), &mut rr);
    }

    #[test]
    fn target_resolution_by_coverage() {
        let multi = OutputPortSpec::network(
            "mecs_south",
            Direction::South,
            0,
            vec![
                TargetSpec::covering(TargetEndpoint::Sink { sink: 0 }, 1, vec![NodeId(4)]),
                TargetSpec::covering(
                    TargetEndpoint::Sink { sink: 1 },
                    2,
                    vec![NodeId(5), NodeId(6)],
                ),
            ],
        );
        assert_eq!(resolve_target_idx(&multi, NodeId(4)), 0);
        assert_eq!(resolve_target_idx(&multi, NodeId(6)), 1);
        let single = OutputPortSpec::ejection("eject", 0, 0);
        assert_eq!(resolve_target_idx(&single, NodeId(9)), 0);
    }

    #[test]
    #[should_panic(expected = "no target covering")]
    fn uncovered_destination_panics() {
        let multi = OutputPortSpec::network(
            "mecs_south",
            Direction::South,
            0,
            vec![
                TargetSpec::covering(TargetEndpoint::Sink { sink: 0 }, 1, vec![NodeId(4)]),
                TargetSpec::covering(TargetEndpoint::Sink { sink: 1 }, 2, vec![NodeId(5)]),
            ],
        );
        resolve_target_idx(&multi, NodeId(6));
    }
}
