//! The two engines: everything they do differently, stated once.
//!
//! Every fabric phase is one engine-blind body per item (`visit_source`,
//! `route_head`, `arbitrate_output`, `launch_output`, the probe's gather and
//! flush — see the phase files) under a per-engine **driver** that decides
//! only *which items are visited* and *where the candidates come from*. This
//! file holds both drivers of every phase and is the only one under
//! `network/` that reads [`EngineKind`]: once per step and once per probe, in
//! the dispatchers at the bottom. `docs/ARCHITECTURE.md` ("The two engines")
//! tabulates the differences and the invariant that makes each pair equal.
//!
//! The reference half shares no incremental state with the optimized half:
//! the masks, buckets, memos and timers are written by shared code where
//! that is harmless, but only the optimized drivers ever read them.

use super::allocation::Verdict;
use super::Network;
use crate::config::EngineKind;
use crate::ids::{FlowId, OutPortId};
use crate::qos::RouterQos;
use crate::router::{ArbRequest, PriorityMemo, RouterState};
use crate::source::WakeTimers;

/// Deterministic work counters of the engine: exact integers (same seed,
/// same counts, on any machine), kept outside [`crate::stats::NetStats`] so
/// engine equivalence never compares them. They count what each phase
/// *touched*, so a lost wake-up or a reintroduced scan moves a number a test
/// can pin instead of hiding in wall-time noise. Read with
/// [`Network::engine_profile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Source visits made by the source phase (the reference engine visits
    /// every source every cycle).
    pub sources_visited: u64,
    /// Sleeping sources woken, by an event or by their timer.
    pub source_wakes: u64,
    /// Outputs the allocation phase looked at.
    pub outputs_walked: u64,
    /// Outputs whose request list was arbitrated in full.
    pub outputs_arbitrated: u64,
    /// Clean blocked outputs whose cached outcome (the preemption probe) was
    /// replayed instead of arbitrating.
    pub outputs_replayed: u64,
    /// Candidates examined by controller reply picks: flows with a reply
    /// waiting (optimized engine) or waiting replies (reference engine).
    pub reply_candidates_scanned: u64,
    /// Heads assigned an output by the routing phase. A property of the run,
    /// not of the engine: equal on both.
    pub heads_routed: u64,
    /// Input VCs the routing phase checked for an unrouted head: every VC of
    /// every router each cycle (reference engine), or exactly the heads on
    /// the routers' unrouted lists, so equal to `heads_routed` (optimized
    /// engine).
    pub route_checks: u64,
    /// Outputs the launch phase tried to launch a flit from: every output of
    /// every router each cycle (reference engine), or the launch-ready ones
    /// (optimized engine), which exceed `flits_launched` only by visits that
    /// find the crossbar taken, the next flit not yet buffered or a fault.
    pub launch_visits: u64,
    /// Flits launched onto a channel. Equal on both engines.
    pub flits_launched: u64,
}

// ---- The reference engine: exhaustive and stateless between cycles ------

impl Network {
    fn sources_reference(&mut self) {
        self.profile.sources_visited += self.sources.len() as u64;
        for si in 0..self.sources.len() {
            // The reply pick scans every waiting reply, one direct
            // `priority` call each.
            self.visit_source(si, |replies, port, _, qos, scanned| {
                replies.pop_best_by_scan(port, |flow| {
                    *scanned += 1;
                    qos.priority(flow)
                })
            });
        }
    }

    fn routing_reference(&mut self) {
        for ri in 0..self.routers.len() {
            #[expect(clippy::indexing_slicing, reason = "ri ranges over the router indices")]
            let num_inputs = self.routers[ri].inputs.len();
            for pi in 0..num_inputs {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "ri ranges over the router indices and pi over its input ports"
                )]
                let num_vcs = self.routers[ri].inputs[pi].vcs.len();
                for vi in 0..num_vcs {
                    self.route_head(ri, pi, vi);
                }
            }
            // Every head is routed now; the list only the optimized driver
            // reads must not grow.
            #[expect(clippy::indexing_slicing, reason = "ri ranges over the router indices")]
            self.routers[ri].unrouted_heads.clear();
        }
    }

    fn allocation_reference(&mut self) {
        let preemption = self.policy.preemption_enabled();
        let direct = |_: &mut RouterState, qos: &dyn RouterQos, flow| qos.priority(flow);
        let mut requests = std::mem::take(&mut self.arb_scratch);
        for ri in 0..self.routers.len() {
            #[expect(clippy::indexing_slicing, reason = "ri ranges over the router indices")]
            let num_outputs = self.routers[ri].outputs.len();
            for oi in 0..num_outputs {
                self.profile.outputs_walked += 1;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "ri ranges over the router indices and oi over its outputs"
                )]
                if !self.routers[ri].outputs[oi].can_grant() {
                    continue;
                }
                self.gather_requests_by_rescan(ri, oi, &mut requests);
                if !requests.is_empty() {
                    self.arbitrate_output(ri, oi, &requests, preemption, direct);
                }
            }
        }
        self.arb_scratch = requests;
    }

    /// The reference request gather: rescans every VC of every input port of
    /// router `ri` for heads routed to output `oi` and still ungranted, in
    /// `(in_port, vc)` order.
    fn gather_requests_by_rescan(&self, ri: usize, oi: usize, requests: &mut Vec<ArbRequest>) {
        requests.clear();
        #[expect(
            clippy::indexing_slicing,
            reason = "the allocation driver passes ri from the router indices; spec.routers and routers are built 1:1"
        )]
        let (rspec, out) = (&self.spec.routers[ri], OutPortId(oi));
        #[expect(
            clippy::indexing_slicing,
            reason = "the allocation driver passes ri from the router indices"
        )]
        let inputs = &self.routers[ri].inputs;
        for (pi, port) in inputs.iter().enumerate() {
            for (vi, vc) in port.vcs.iter().enumerate() {
                if !vc.wants_allocation() || vc.route() != Some(out) {
                    continue;
                }
                #[expect(clippy::expect_used, reason = "wants_allocation implies an occupant")]
                let id = vc.packet().expect("allocating VC holds a packet");
                #[expect(
                    clippy::expect_used,
                    reason = "VC occupancy and packet lifetime are updated together"
                )]
                let packet = self.packets.hot(id).expect("buffered packet must be live");
                requests.push(ArbRequest::new(rspec, out, pi, vi, id, packet));
            }
        }
    }

    fn launch_reference(&mut self) {
        self.drain_launch_ring();
        let faults_on = self.fault.as_ref().is_some_and(|f| f.any_active());
        for ri in 0..self.routers.len() {
            let mut xbar_used = 0;
            #[expect(clippy::indexing_slicing, reason = "ri ranges over the router indices")]
            let num_outputs = self.routers[ri].outputs.len();
            for oi in 0..num_outputs {
                self.launch_output(ri, oi, &mut xbar_used, faults_on);
            }
        }
    }

    fn probe_reference(&mut self, router: usize, in_port: usize, contender: FlowId) {
        #[expect(
            clippy::indexing_slicing,
            reason = "probe events name a target endpoint router that validate() range-checked, and qos is built 1:1 with the routers"
        )]
        if let Some(victim) = self.qos[router].select_victim(contender, &self.probe_scratch) {
            self.flush_victim(router, in_port, victim);
        }
    }
}

// ---- The optimized engine: work-proportional visiting over incremental state

/// Clears router `ri`'s bit in a phase activity mask.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "masks are sized to ceil(routers/64) words and ri is a live router index"
)]
fn unmark_router(mask: &mut [u64], ri: usize) {
    mask[ri >> 6] &= !(1 << (ri & 63));
}

/// Collects the set-bit router indices of an activity mask into `out`
/// (ascending, the order the unmasked scans visit routers in).
#[inline]
fn scan_routers(mask: &[u64], out: &mut Vec<u32>) {
    out.clear();
    for (block, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.push(((block as u32) << 6) | bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

/// Returns `qos.priority(flow)`, memoised in the router's priority cache
/// (valid within the router's current priority epoch).
fn cached_priority(router: &mut RouterState, qos: &dyn RouterQos, flow: FlowId) -> u64 {
    let epoch = router.priority_epoch;
    #[expect(
        clippy::indexing_slicing,
        reason = "the cache is sized to num_flows at construction and flow ids are validated against it"
    )]
    let memo = &mut router.priority_cache[flow.index()];
    if memo.epoch == epoch {
        memo.value
    } else {
        let value = qos.priority(flow);
        *memo = PriorityMemo { value, epoch };
        value
    }
}

/// Enters the request of a freshly routed head into the persistent list of
/// its output `out`, ordered by `(in_port, vc)` — the order the reference
/// rescan produces.
fn file_request(router: &mut RouterState, out: usize, request: ArbRequest) {
    #[expect(
        clippy::indexing_slicing,
        reason = "out is the routed output of the head, and alloc_buckets holds one list per output"
    )]
    let bucket = &mut router.alloc_buckets[out];
    #[expect(
        clippy::expect_used,
        reason = "a VC is routed once per occupancy, so it has no request filed yet"
    )]
    let pos = bucket
        .binary_search_by_key(&(request.in_port, request.vc), |r| (r.in_port, r.vc))
        .expect_err("VC already has a pending request");
    bucket.insert(pos, request);
    router.alloc_dirty |= 1 << out;
    router.alloc_pending |= 1 << out;
}

/// Retires the request of a preempted packet — routed to `out` but never
/// granted — from that output's persistent list, and invalidates the
/// output's cached decision.
fn retire_request(router: &mut RouterState, out: OutPortId, in_port: usize, vc: usize) {
    #[expect(
        clippy::indexing_slicing,
        reason = "out is the route the flushed victim held, and alloc_buckets holds one list per output"
    )]
    let bucket = &mut router.alloc_buckets[out.0];
    #[expect(
        clippy::expect_used,
        reason = "routed ungranted VCs always have a filed request"
    )]
    let pos = bucket
        .binary_search_by_key(&(in_port as u16, vc as u16), |r| (r.in_port, r.vc))
        .expect("preempted packet must have a pending request");
    bucket.remove(pos);
    if bucket.is_empty() {
        router.alloc_pending &= !(1 << out.0);
    }
    router.alloc_dirty |= 1 << out.0;
}

impl Network {
    /// Work-proportional visiting: only the awake sources (ascending, the
    /// polling order), after firing the due timers of sleeping sources. A
    /// skipped visit is provably a no-op — the sleep predicate, the wake
    /// sites and the timers are tabulated in docs/ARCHITECTURE.md.
    pub(super) fn sources_optimized(&mut self) {
        while let Some(si) = self.source_timers.pop_due(self.now) {
            self.wake_source(si);
        }
        let mut scan = std::mem::take(&mut self.router_scan);
        scan_routers(&self.source_work, &mut scan);
        self.profile.sources_visited += scan.len() as u64;
        for &si in &scan {
            let si = si as usize;
            // The reply pick reads one priority per flow with a reply
            // waiting, memoised in the port router's cache (which the
            // allocation driver keeps exact).
            self.visit_source(si, |replies, port, router, qos, scanned| {
                replies.pop_best(port, |flow| {
                    *scanned += 1;
                    cached_priority(router, qos, flow)
                })
            });
            // Sleep iff the next visit is provably a no-op: nothing streams
            // or can start injecting, the generation side is quiet — an
            // open-loop source until its generator's next firing (which
            // took the draws of the cycles it skips, so its stream is
            // untouched); a requester only with its window closed — and no
            // time threshold is already due. The wake sites and the timer
            // re-open exactly these conditions.
            #[expect(
                clippy::indexing_slicing,
                reason = "si is a set bit of source_work, which is sized to the sources"
            )]
            let source = &mut self.sources[si];
            let mut cl = self.closed_loop.as_mut();
            if !source.is_dormant(cl.as_ref().is_some_and(|cl| cl.replies.has_pending(si))) {
                continue;
            }
            let wake_at = match cl.as_mut().and_then(|cl| cl.requester_mut(source.flow)) {
                Some(requester) => match requester.next_wake() {
                    Some(at) => at,
                    None => continue,
                },
                None => match source.generator.next_fire(self.now + 1) {
                    Some(at) if at > self.now + 1 => at,
                    Some(_) => continue,
                    None => WakeTimers::NEVER,
                },
            };
            if wake_at > self.now {
                unmark_router(&mut self.source_work, si);
                self.source_timers.arm(si, wake_at);
            }
        }
        self.router_scan = scan;
    }

    /// Route computation only concerns heads that arrived since the last
    /// routing pass: routers holding one are tracked in `routing_work`, the
    /// heads themselves in the router's `unrouted_heads`. Sorting the list
    /// restores the `(in_port, vc)` order of the reference scan, so the
    /// round-robin route cursor makes the same picks.
    pub(super) fn routing_optimized(&mut self) {
        let mut scan = std::mem::take(&mut self.router_scan);
        scan_routers(&self.routing_work, &mut scan);
        for &ri in &scan {
            let ri = ri as usize;
            // Every listed head is routed below; an empty list is a stale
            // bit (its head was preempted since).
            unmark_router(&mut self.routing_work, ri);
            #[expect(
                clippy::indexing_slicing,
                reason = "scan holds indices of routers whose mask bit was set, all in bounds"
            )]
            let mut heads = std::mem::take(&mut self.routers[ri].unrouted_heads);
            heads.sort_unstable();
            for &(pi, vi) in &heads {
                let (pi, vi) = (usize::from(pi), usize::from(vi));
                if let Some((out, id, packet)) = self.route_head(ri, pi, vi) {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "the spec's routers and their states are built 1:1, and ri is a scanned router index"
                    )]
                    let request = ArbRequest::new(&self.spec.routers[ri], out, pi, vi, id, packet);
                    #[expect(clippy::indexing_slicing, reason = "same bound as above")]
                    file_request(&mut self.routers[ri], out.0, request);
                }
            }
            heads.clear();
            #[expect(
                clippy::indexing_slicing,
                reason = "scan holds indices of routers whose mask bit was set, all in bounds"
            )]
            {
                self.routers[ri].unrouted_heads = heads;
            }
        }
        self.router_scan = scan;
    }

    /// Pending-output worklist: of the routers in `alloc_work`, only the
    /// outputs with a filed request whose decision is stale are decided
    /// (every output with a filed request under preemption, where a clean
    /// blocked output replays its cached probe).
    pub(super) fn allocation_optimized(&mut self) {
        let preemption = self.policy.preemption_enabled();
        let mut scan = std::mem::take(&mut self.router_scan);
        scan_routers(&self.alloc_work, &mut scan);
        for &ri in &scan {
            let ri = ri as usize;
            #[expect(
                clippy::indexing_slicing,
                reason = "scan holds indices of routers whose mask bit was set, all in bounds"
            )]
            let router = &self.routers[ri];
            if router.active_vcs == 0 || router.alloc_pending == 0 {
                // Stale-set bit: the last occupant drained, or every
                // resident packet already holds a grant. A new request is
                // filed only by the routing phase, which sets the bit again.
                unmark_router(&mut self.alloc_work, ri);
                continue;
            }
            // The masks are re-read per step, so an output dirtied by a
            // grant earlier in this pass is still seen, exactly as a linear
            // scan sees it.
            let num_outputs = router.outputs.len();
            let mut next_oi = 0;
            while next_oi < num_outputs {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "scan holds indices of routers whose mask bit was set, all in bounds"
                )]
                let router = &mut self.routers[ri];
                let stale = if preemption {
                    router.alloc_pending
                } else {
                    router.alloc_pending & router.alloc_dirty
                };
                let rest = stale & (u64::MAX << next_oi);
                if rest == 0 {
                    break;
                }
                let oi = rest.trailing_zeros() as usize;
                next_oi = oi + 1;
                self.profile.outputs_walked += 1;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "oi is a set bit of alloc_pending, which only file_request marks, with a routed output index"
                )]
                if !router.outputs[oi].can_grant() {
                    continue;
                }
                if router.alloc_dirty & (1 << oi) == 0 {
                    // Clean output: nothing feeding this decision changed
                    // since the last full evaluation, which ended blocked
                    // (a winner would have marked it dirty again). Replay
                    // the cached outcome — schedule the same probe, skip the
                    // arbitration entirely. (Only a preempting policy gets
                    // here: without one, clean outputs are not walked.)
                    self.profile.outputs_replayed += 1;
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "oi is an output index (above), and cached_probe holds one entry per output"
                    )]
                    if let Some(probe) = router.cached_probe[oi] {
                        self.events.schedule(self.now + 1, probe);
                    }
                    continue;
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "oi is an output index (above), and alloc_buckets holds one list per output"
                )]
                let mut requests = std::mem::take(&mut router.alloc_buckets[oi]);
                debug_assert!(!requests.is_empty(), "alloc_pending names an empty bucket");
                // Priorities only move when this router forwards a packet or
                // a frame rolls over; within an epoch the memoised value is
                // exact, saving the virtual call and f64 division for flows
                // that re-arbitrate.
                let verdict = self.arbitrate_output(ri, oi, &requests, preemption, cached_priority);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "ri is a scanned router index, and qos is built 1:1 with the routers"
                )]
                let (router, qos) = (&mut self.routers[ri], &self.qos[ri]);
                match verdict {
                    Verdict::Granted(widx) => {
                        // The packet holds a grant now; retire its entry from
                        // the persistent request list. A grant invalidates
                        // exactly this output (its credits were claimed, its
                        // grant queue grew, its cursor moved) plus every
                        // output holding a request of the forwarded flow —
                        // `on_packet_forwarded` moves only that flow's
                        // priority (the `RouterQos` contract), so the other
                        // outputs' blocked verdicts still stand, and only
                        // that flow's memo needs refreshing.
                        let flow = requests.remove(widx).flow;
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "the cache is sized to num_flows at construction and flow ids are validated against it"
                        )]
                        {
                            router.priority_cache[flow.index()] = PriorityMemo {
                                value: qos.priority(flow),
                                epoch: router.priority_epoch,
                            };
                        }
                        if requests.is_empty() {
                            router.alloc_pending &= !(1 << oi);
                        }
                        let mut dirty = 1u64 << oi;
                        for (oj, bucket) in router.alloc_buckets.iter().enumerate() {
                            if bucket.iter().any(|r| r.flow == flow) {
                                dirty |= 1 << oj;
                            }
                        }
                        router.alloc_dirty |= dirty;
                    }
                    Verdict::Blocked(probe) => {
                        // Blocked with no state change pending: mark the
                        // output clean and remember the probe to replay.
                        router.alloc_dirty &= !(1 << oi);
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "oi is an output index (above), and cached_probe holds one entry per output"
                        )]
                        {
                            router.cached_probe[oi] = probe;
                        }
                    }
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "oi is an output index (above), and alloc_buckets holds one list per output"
                )]
                {
                    router.alloc_buckets[oi] = requests;
                }
            }
        }
        self.router_scan = scan;
    }

    /// Only outputs whose head transfer has left the router pipeline can
    /// launch: the launch ring marks them in their router's `launch_ready`
    /// on their `launch_start` cycle, and their routers in `launch_work`.
    /// Within a router the outputs are walked ascending, the order of the
    /// linear scan (the crossbar conflict check depends on it). An output
    /// not in the mask is provably a no-op visit: its queue is empty or its
    /// head's `launch_start` lies ahead.
    pub(super) fn launch_optimized(&mut self) {
        self.drain_launch_ring();
        let faults_on = self.fault.as_ref().is_some_and(|f| f.any_active());
        let mut scan = std::mem::take(&mut self.router_scan);
        scan_routers(&self.launch_work, &mut scan);
        for &ri in &scan {
            let ri = ri as usize;
            #[expect(
                clippy::indexing_slicing,
                reason = "scan holds indices of routers whose mask bit was set, all in bounds"
            )]
            let mut ready = self.routers[ri].launch_ready;
            if ready == 0 {
                // Stale-set bit (the last ready transfer completed since).
                unmark_router(&mut self.launch_work, ri);
                continue;
            }
            let mut xbar_used = 0;
            while ready != 0 {
                let oi = ready.trailing_zeros() as usize;
                ready &= ready - 1;
                self.launch_output(ri, oi, &mut xbar_used, faults_on);
            }
        }
        self.router_scan = scan;
    }

    /// Annotates the candidates with memoised priorities so the policy's
    /// victim choice needs no per-probe priority recomputation; a victim
    /// that was routed but never granted still sits in its output's
    /// persistent request list and is retired from it.
    fn probe_optimized(&mut self, router: usize, in_port: usize, contender: FlowId) {
        #[expect(
            clippy::indexing_slicing,
            reason = "probe events name a target endpoint router that validate() range-checked, and qos is built 1:1 with the routers"
        )]
        let (state, qos) = (&mut self.routers[router], &*self.qos[router]);
        self.probe_prioritized_scratch.clear();
        for &(pid, flow, reserved) in &self.probe_scratch {
            let priority = cached_priority(state, qos, flow);
            self.probe_prioritized_scratch
                .push((pid, flow, reserved, priority));
        }
        let contender_priority = cached_priority(state, qos, contender);
        let victim = qos.select_victim_prioritized(
            contender,
            contender_priority,
            &self.probe_prioritized_scratch,
        );
        let Some(victim) = victim else {
            return;
        };
        if let Some((vc, Some(out))) = self.flush_victim(router, in_port, victim) {
            #[expect(
                clippy::indexing_slicing,
                reason = "probe events name a target endpoint router that validate() range-checked"
            )]
            retire_request(&mut self.routers[router], out, in_port, vc);
        }
    }
}

// ---- Dispatch ------------------------------------------------------------

impl Network {
    /// The four fabric phases that follow the event phase — sources,
    /// routing, allocation, launch — under the configured engine.
    pub(super) fn fabric_phases(&mut self) {
        match self.config.engine {
            EngineKind::Reference => {
                self.sources_reference();
                self.routing_reference();
                self.allocation_reference();
                self.launch_reference();
            }
            EngineKind::Optimized => {
                self.sources_optimized();
                self.routing_optimized();
                self.allocation_optimized();
                self.launch_optimized();
            }
        }
    }

    /// A preemption probe matured at input port `in_port` of `router`: ask
    /// the policy for a victim of lower priority than `contender`'s flow
    /// among the resident idle packets, and flush it.
    pub(super) fn handle_preemption_probe(
        &mut self,
        router: usize,
        in_port: usize,
        contender: FlowId,
    ) {
        if !self.gather_victim_candidates(router, in_port) {
            return;
        }
        match self.config.engine {
            EngineKind::Reference => self.probe_reference(router, in_port, contender),
            EngineKind::Optimized => self.probe_optimized(router, in_port, contender),
        }
    }
}
