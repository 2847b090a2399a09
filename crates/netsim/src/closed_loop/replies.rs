//! Replies waiting at the controllers' reply ports.

use crate::ids::{FlowId, PacketId};
use std::collections::VecDeque;

/// Replies waiting at the controllers' reply ports, kept **per flow** so the
/// pick is O(flows with a reply pending) instead of O(pending replies).
///
/// Invariants: a flow's replies always inject at one port (the reply source
/// of its requester's controller node, fixed by the spec), so one FIFO per
/// flow serves every port; `port_flows[p]` lists exactly the flows with a
/// non-empty FIFO whose port is `p`; stamps are unique and increase in
/// arrival order, so within a flow the head carries the smallest stamp and
/// `(priority, head stamp)` minimised over a port's flows is the first
/// minimal-priority reply of an arrival-order scan.
#[derive(Debug)]
pub(crate) struct PendingReplies {
    /// Waiting replies per flow as `(arrival stamp, packet)`, oldest first.
    by_flow: Vec<VecDeque<(u64, PacketId)>>,
    /// Per source port: the flows with a reply waiting there (unordered).
    port_flows: Vec<Vec<FlowId>>,
    /// Stamp of the next arrival.
    next_stamp: u64,
}

impl PendingReplies {
    pub(crate) fn new(num_flows: usize, num_sources: usize) -> Self {
        PendingReplies {
            by_flow: vec![VecDeque::new(); num_flows],
            port_flows: vec![Vec::new(); num_sources],
            next_stamp: 0,
        }
    }

    /// Queues `packet`, a reply on `flow`, at reply port `source`.
    // taqos-lint: hot
    pub(crate) fn push(&mut self, source: usize, flow: FlowId, packet: PacketId) {
        // taqos-lint: allow(panic-index) -- by_flow is sized to the flow count and flow ids are validated against it
        let fifo = &mut self.by_flow[flow.index()];
        if fifo.is_empty() {
            // taqos-lint: allow(panic-index) -- port_flows is sized to the source count and reply ports are source indices
            self.port_flows[source].push(flow);
        }
        fifo.push_back((self.next_stamp, packet));
        self.next_stamp += 1;
    }

    /// Whether any reply is waiting at `source`.
    // taqos-lint: hot
    pub(crate) fn has_pending(&self, source: usize) -> bool {
        // taqos-lint: allow(panic-index) -- port_flows is sized to the source count
        !self.port_flows[source].is_empty()
    }

    /// Removes and returns the waiting reply at `source` whose flow has the
    /// best (lowest) priority, the earliest arrival among equals: one
    /// `priority` call per flow with a reply waiting.
    // taqos-lint: hot
    pub(crate) fn pop_best(
        &mut self,
        source: usize,
        mut priority: impl FnMut(FlowId) -> u64,
    ) -> Option<(PacketId, FlowId)> {
        // taqos-lint: allow(panic-index) -- port_flows is sized to the source count
        let flows = &mut self.port_flows[source];
        let mut best: Option<(usize, (u64, u64))> = None;
        for (idx, &flow) in flows.iter().enumerate() {
            // taqos-lint: allow(panic-index) -- listed flows index by_flow, and a listed flow's FIFO is non-empty
            let key = (priority(flow), self.by_flow[flow.index()][0].0);
            if best.is_none_or(|(_, k)| key < k) {
                best = Some((idx, key));
            }
        }
        best.map(|(idx, _)| {
            // taqos-lint: allow(panic-index) -- idx was produced by the enumeration of this list just above
            let flow = flows[idx];
            // taqos-lint: allow(panic-index) -- listed flows index by_flow
            let fifo = &mut self.by_flow[flow.index()];
            // taqos-lint: allow(panic-path) -- a listed flow's FIFO is non-empty (struct invariant)
            let (_, packet) = fifo.pop_front().expect("listed flow has a waiting reply");
            if fifo.is_empty() {
                flows.swap_remove(idx);
            }
            (packet, flow)
        })
    }

    /// The reference engine's pick: a scan of **every** waiting reply at
    /// `source` with one direct `priority` call each, as the seed did. Same
    /// winner as [`Self::pop_best`]; kept apart as its oracle.
    pub(crate) fn pop_best_by_scan(
        &mut self,
        source: usize,
        mut priority: impl FnMut(FlowId) -> u64,
    ) -> Option<(PacketId, FlowId)> {
        let mut best: Option<(FlowId, (u64, u64))> = None;
        // taqos-lint: allow(panic-index) -- port_flows is sized to the source count
        for &flow in &self.port_flows[source] {
            // taqos-lint: allow(panic-index) -- listed flows index by_flow
            for &(stamp, _) in &self.by_flow[flow.index()] {
                let key = (priority(flow), stamp);
                if best.is_none_or(|(_, k)| key < k) {
                    best = Some((flow, key));
                }
            }
        }
        best.map(|(flow, (_, stamp))| {
            // taqos-lint: allow(panic-index) -- the winning flow came out of the scan over by_flow
            let fifo = &mut self.by_flow[flow.index()];
            let pos = fifo
                .iter()
                .position(|&(s, _)| s == stamp)
                // taqos-lint: allow(panic-path) -- the winning stamp was read from this FIFO by the scan above
                .expect("winning reply is still queued");
            // taqos-lint: allow(panic-path) -- pos was just found in this FIFO
            let (_, packet) = fifo.remove(pos).expect("position in bounds");
            if fifo.is_empty() {
                // taqos-lint: allow(panic-index) -- port_flows is sized to the source count
                self.port_flows[source].retain(|&f| f != flow);
            }
            (packet, flow)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_reply_selection_prefers_low_priority_then_arrival() {
        let mut pending = PendingReplies::new(3, 1);
        pending.push(0, FlowId(0), PacketId(10));
        pending.push(0, FlowId(1), PacketId(11));
        pending.push(0, FlowId(2), PacketId(12));
        // Flow 1 holds the best priority.
        let picked = pending.pop_best(0, |f| if f == FlowId(1) { 1 } else { 5 });
        assert_eq!(picked, Some((PacketId(11), FlowId(1))));
        // Remaining ties resolve in arrival order.
        let picked = pending.pop_best(0, |_| 7);
        assert_eq!(picked, Some((PacketId(10), FlowId(0))));
        assert!(pending.has_pending(0));
        // One priority read per flow with a reply waiting.
        let mut reads = 0;
        let picked = pending.pop_best(0, |_| {
            reads += 1;
            7
        });
        assert_eq!((picked, reads), (Some((PacketId(12), FlowId(2))), 1));
        assert!(!pending.has_pending(0));
        assert_eq!(pending.pop_best(0, |_| 7), None);
    }

    /// The indexed pick and the reference engine's scan must agree with a
    /// plain arrival-order list scanned front to back with a strict `<`
    /// (the seed's pick), over random pushes, pops, priority tables with
    /// ties, and several ports.
    #[test]
    fn indexed_reply_pick_matches_a_linear_scan_model() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for _case in 0..200 {
            let flows = 1 + next(12) as usize;
            let ports = 1 + next(3) as usize;
            // A flow's replies always inject at one port.
            let port_of = |flow: usize| flow % ports;
            let mut indexed = PendingReplies::new(flows, ports);
            let mut scanned = PendingReplies::new(flows, ports);
            let mut model: Vec<Vec<(PacketId, FlowId)>> = vec![Vec::new(); ports];
            let mut packet = 0u64;
            for _op in 0..120 {
                if next(3) != 0 {
                    let flow = next(flows as u64) as usize;
                    packet += 1;
                    indexed.push(port_of(flow), FlowId(flow as u16), PacketId(packet));
                    scanned.push(port_of(flow), FlowId(flow as u16), PacketId(packet));
                    model[port_of(flow)].push((PacketId(packet), FlowId(flow as u16)));
                } else {
                    // Few distinct priority values, so ties are common.
                    let table: Vec<u64> = (0..flows).map(|_| next(3)).collect();
                    let priority = |f: FlowId| table[f.index()];
                    let port = next(ports as u64) as usize;
                    let mut best: Option<(usize, u64)> = None;
                    for (idx, &(_, flow)) in model[port].iter().enumerate() {
                        if best.is_none_or(|(_, bp)| priority(flow) < bp) {
                            best = Some((idx, priority(flow)));
                        }
                    }
                    let expected = best.map(|(idx, _)| model[port].remove(idx));
                    assert_eq!(indexed.pop_best(port, priority), expected);
                    assert_eq!(scanned.pop_best_by_scan(port, priority), expected);
                    assert_eq!(indexed.has_pending(port), !model[port].is_empty());
                    assert_eq!(scanned.has_pending(port), !model[port].is_empty());
                }
            }
        }
    }
}
