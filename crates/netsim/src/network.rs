//! The cycle-stepped network simulator.
//!
//! [`Network`] instantiates runtime state from a [`NetworkSpec`], a
//! [`QosPolicy`] and one traffic generator per source, and advances the whole
//! network one cycle at a time. Each cycle proceeds through the following
//! phases:
//!
//! 1. frame rollover (QOS bandwidth counters are flushed),
//! 2. delivery of matured events (flit arrivals, credit returns, ACK/NACK
//!    messages, preemption probes, DRAM bank completions),
//! 3. traffic generation and injection at the sources,
//! 4. route computation for newly arrived packet heads,
//! 5. virtual-channel allocation (arbitration) and preemption probing,
//! 6. flit launches from granted transfers onto the channels.
//!
//! The model implements credit-based virtual cut-through flow control: a
//! packet is granted an output only when a whole-packet buffer (virtual
//! channel) is available downstream; credits are returned when the downstream
//! VC is released. Preemptive QOS policies may discard lower-priority
//! resident packets to resolve priority inversion; discarded packets are
//! NACKed over a dedicated ACK network and retransmitted by their source.
//!
//! Closed-loop memory traffic is not decided here. `Network` is a client of
//! the two components of [`crate::closed_loop`]: in the source phase it asks
//! a flow's requester what to send (`Requester::visit`), at a sink it hands
//! an arriving request to the closed loop and applies the verdict, and after
//! every arrival and bank completion it pumps the controller and turns the
//! effects it reports (service started, stalled slot released, victim
//! evicted) into events, ACKs/NACKs and sink credits, in the order reported.

use crate::closed_loop::{Arrival, ClosedLoopSpec, ClosedLoopState, McEffect, McRequest, Offer};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::event::{Event, EventQueue};
use crate::fault::{FaultPlan, FaultState};
use crate::ids::{Cycle, FlowId, InPortId, NodeId, PacketId, VcId};
use crate::packet::{Packet, PacketClass, PacketGenerator, PacketStore};
use crate::port::{Feeder, TargetCreditState, Transfer};
use crate::qos::{QosPolicy, RouterQos};
use crate::router::{compute_route, resolve_target_idx, RouterState};
use crate::sink::SinkState;
use crate::source::{InjectionTransfer, SourceState, WakeTimers};
use crate::spec::{NetworkSpec, TargetEndpoint};
use crate::stats::NetStats;
use crate::vc::VcState;
use taqos_telemetry::{FrameSampler, TraceEvent, TraceHook, TraceSink};

/// Schedules the return of a sink's ejection-slot credit to the output port
/// feeding it. Shared by normal delivery, DRAM rejection, and the stall
/// lane's deferred release, so the credit semantics cannot drift apart.
fn release_sink_credit(
    events: &mut EventQueue,
    config: &SimConfig,
    sink_feeders: &[Option<(usize, usize, usize)>],
    now: Cycle,
    sink: usize,
    slot: VcId,
) {
    if let Some((router, out_port, target_idx)) = sink_feeders[sink] {
        events.schedule(
            now + config.credit_delay,
            Event::CreditToRouter {
                router: router as u32,
                out_port: out_port as u16,
                target_idx: target_idx as u16,
                vc: slot,
                reserved_vc: false,
            },
        );
    }
}

/// Returns `qos.priority(flow)`, memoised in the router's priority cache
/// (valid within the router's current priority epoch).
fn cached_priority(router: &mut RouterState, qos: &dyn RouterQos, flow: FlowId) -> u64 {
    let epoch = router.priority_epoch;
    // taqos-lint: allow(panic-index) -- the cache is sized to num_flows at construction and flow ids are validated against it
    let memo = &mut router.priority_cache[flow.index()];
    if memo.epoch == epoch {
        memo.value
    } else {
        let value = qos.priority(flow);
        *memo = crate::router::PriorityMemo { value, epoch };
        value
    }
}

/// Deterministic work counters of the engine: exact integers (same seed,
/// same counts, on any machine), kept outside [`NetStats`] so engine
/// equivalence never compares them. They count what each phase *touched*,
/// so a lost wake-up or a reintroduced scan moves a number a test can pin
/// instead of hiding in wall-time noise. Read with
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
}

/// Sets router `ri`'s bit in a phase activity mask (see
/// [`Network::routing_work`] for the eager-set / lazy-clear discipline).
#[inline]
fn mark_router(mask: &mut [u64], ri: usize) {
    // taqos-lint: allow(panic-index) -- masks are sized to ceil(routers/64) words and ri is a live router index
    mask[ri >> 6] |= 1 << (ri & 63);
}

/// Clears router `ri`'s bit in a phase activity mask.
#[inline]
fn unmark_router(mask: &mut [u64], ri: usize) {
    // taqos-lint: allow(panic-index) -- masks are sized to ceil(routers/64) words and ri is a live router index
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

/// A fully instantiated, steppable network simulation.
pub struct Network {
    spec: NetworkSpec,
    config: SimConfig,
    policy: Box<dyn QosPolicy>,
    routers: Vec<RouterState>,
    sources: Vec<SourceState>,
    sinks: Vec<SinkState>,
    qos: Vec<Box<dyn RouterQos>>,
    packets: PacketStore,
    events: EventQueue,
    stats: NetStats,
    /// Feeder output port of each sink (router, out_port, target_idx).
    sink_feeders: Vec<Option<(usize, usize, usize)>>,
    /// Source index serving each flow.
    flow_to_source: Vec<usize>,
    frame_len: Option<Cycle>,
    now: Cycle,
    /// Reusable buffer for events drained each cycle.
    event_scratch: Vec<Event>,
    /// Per-phase router activity masks (optimized engine; one bit per
    /// router, 64-router blocks). A bit is set *eagerly* wherever a router
    /// gains the corresponding work — a head flit arrives (`routing_work`,
    /// `alloc_work`) or a transfer is granted (`launch_work`) — and cleared
    /// *lazily* by the owning phase when it visits a router and finds it
    /// idle. Stale-set bits therefore self-heal and no decrement site needs
    /// mask bookkeeping, while each phase scans a handful of contiguous
    /// words instead of touching every `RouterState` to read its activity
    /// counters.
    routing_work: Vec<u64>,
    /// Routers with occupied input VCs (allocation candidates); see
    /// [`Self::routing_work`].
    alloc_work: Vec<u64>,
    /// Routers holding granted transfers; see [`Self::routing_work`].
    launch_work: Vec<u64>,
    /// Awake sources (optimized engine; one bit per source), in the same
    /// eager-set / lazy-clear discipline as [`Self::routing_work`]: every
    /// event that can give a sleeping source work sets its bit
    /// ([`Self::wake_source`]), and the source phase clears it after a visit
    /// once the next visit is provably a no-op. See "Who wakes whom" in
    /// `docs/ARCHITECTURE.md`.
    source_work: Vec<u64>,
    /// Wake-up timers of sleeping requester sources (phase changes, request
    /// deadlines, retry backoffs).
    source_timers: WakeTimers,
    /// Deterministic work counters; see [`EngineProfile`].
    profile: EngineProfile,
    /// Reusable buffer of candidate router (or source) indices for the
    /// masked scans.
    router_scan: Vec<u32>,
    /// Reusable buffer for preemption victim candidates.
    probe_scratch: Vec<(PacketId, FlowId, bool)>,
    /// Reusable buffer for candidates annotated with cached priorities.
    probe_prioritized_scratch: Vec<(PacketId, FlowId, bool, u64)>,
    /// Whether the policy uses ideal per-flow queuing: downstream VC ids may
    /// then exceed the spec-provisioned count and ports grow on demand.
    unlimited: bool,
    /// Closed-loop request/reply state, if the workload is MLP-limited.
    closed_loop: Option<ClosedLoopState>,
    /// Injected-fault state, if a [`FaultPlan`] was installed.
    fault: Option<FaultState>,
    /// Last cycle at which the network made observable forward progress
    /// (a packet was generated, acknowledged, or entered DRAM service).
    /// Consulted by the livelock watchdog ([`Self::check_progress`]).
    last_progress: Cycle,
    /// Per-frame time-series sampler, present when
    /// [`crate::config::TelemetryConfig::frame_len`] is non-zero.
    sampler: Option<FrameSampler>,
    /// Flit-level trace hook; [`TraceHook::Off`] unless a sink was installed
    /// with [`Self::with_trace_sink`].
    trace: TraceHook,
    /// Active-fault count at the last trace emission, for fault
    /// onset/clearance transition events.
    traced_fault_active: u64,
    /// Scheduled mid-run rate reprogrammings as `(cycle, rates)`, sorted by
    /// cycle (stable: the last-scheduled of equal cycles wins). Each applies
    /// at the first frame rollover at or after its cycle, never mid-frame —
    /// see [`Self::schedule_reprogram`].
    pending_reprograms: Vec<(Cycle, Vec<f64>)>,
    /// Index of the next unapplied entry of [`Self::pending_reprograms`].
    next_reprogram: usize,
}

impl Network {
    /// Builds a simulation from a network specification, a QOS policy, and
    /// one traffic generator per source (in source order).
    ///
    /// # Errors
    ///
    /// Returns an error if the specification fails validation or the number
    /// of generators does not match the number of sources.
    pub fn new(
        spec: NetworkSpec,
        policy: Box<dyn QosPolicy>,
        generators: Vec<Box<dyn PacketGenerator>>,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        spec.validate()?;
        if generators.len() != spec.sources.len() {
            return Err(SimError::Spec(crate::error::SpecError::new(format!(
                "{} generators supplied for {} sources",
                generators.len(),
                spec.sources.len()
            ))));
        }
        let mut flows: Vec<usize> = spec.sources.iter().map(|s| s.flow.index()).collect();
        flows.sort_unstable();
        if flows != (0..spec.sources.len()).collect::<Vec<_>>() {
            return Err(SimError::Spec(crate::error::SpecError::new(
                "source flow identifiers must be dense (0..num_sources)",
            )));
        }

        let unlimited = policy.unlimited_buffering();
        let mut routers: Vec<RouterState> =
            spec.routers.iter().map(RouterState::from_spec).collect();
        for router in &mut routers {
            router.init_priority_cache(spec.num_flows());
        }

        // Fill per-target credit state and feeder back-pointers.
        let mut sink_feeders: Vec<Option<(usize, usize, usize)>> = vec![None; spec.sinks.len()];
        for (ri, rspec) in spec.routers.iter().enumerate() {
            for (oi, ospec) in rspec.outputs.iter().enumerate() {
                for (ti, target) in ospec.targets.iter().enumerate() {
                    let credit = match target.endpoint {
                        TargetEndpoint::Router { router, in_port } => {
                            let dspec = &spec.routers[router].inputs[in_port.0];
                            TargetCreditState::new(
                                dspec.vcs.count - dspec.vcs.reserved,
                                dspec.vcs.reserved,
                                unlimited,
                            )
                        }
                        TargetEndpoint::Sink { sink } => {
                            sink_feeders[sink] = Some((ri, oi, ti));
                            TargetCreditState::new(spec.sinks[sink].slots, 0, false)
                        }
                    };
                    routers[ri].outputs[oi].targets.push(credit);
                }
            }
        }
        // Feeders of router input ports.
        for (ri, rspec) in spec.routers.iter().enumerate() {
            for (oi, ospec) in rspec.outputs.iter().enumerate() {
                for (ti, target) in ospec.targets.iter().enumerate() {
                    if let TargetEndpoint::Router { router, in_port } = target.endpoint {
                        // taqos-lint: allow(panic-index) -- validate() range-checked every target router and port (and rejected doubly-fed ports)
                        routers[router].inputs[in_port.0].feeder = Some(Feeder::RouterOutput {
                            router: ri,
                            out_port: oi,
                            target_idx: ti,
                        });
                    }
                }
            }
        }
        for (si, sspec) in spec.sources.iter().enumerate() {
            // taqos-lint: allow(panic-index) -- validate() range-checked every source's router and port (and rejected shared ports)
            routers[sspec.router].inputs[sspec.in_port.0].feeder =
                Some(Feeder::Source { source: si });
        }

        let qos: Vec<Box<dyn RouterQos>> = spec
            .routers
            .iter()
            .map(|r| policy.router_qos(r, spec.num_flows()))
            .collect();

        let mut flow_to_source = vec![0usize; spec.sources.len()];
        let sources: Vec<SourceState> = spec
            .sources
            .iter()
            .zip(generators)
            .enumerate()
            .map(|(si, (sspec, generator))| {
                flow_to_source[sspec.flow.index()] = si;
                let vcs = spec.routers[sspec.router].inputs[sspec.in_port.0].vcs.count;
                SourceState::new(sspec, generator, vcs)
            })
            .collect();

        let sinks: Vec<SinkState> = spec.sinks.iter().map(SinkState::from_spec).collect();
        let mut stats = NetStats::new(spec.num_flows());
        stats.histograms_enabled = config.telemetry.histograms;
        let sampler = config.telemetry.frames_enabled().then(|| {
            let num_links: usize = spec.routers.iter().map(|r| r.outputs.len()).sum();
            FrameSampler::new(
                config.telemetry.frame_len,
                config.telemetry.max_frames,
                spec.num_flows(),
                spec.routers.len(),
                num_links,
            )
        });
        let frame_len = policy.frame_len();
        let num_router_blocks = spec.routers.len().div_ceil(64);
        let num_sources = sources.len();

        let mut network = Network {
            spec,
            config,
            policy,
            routers,
            sources,
            sinks,
            qos,
            packets: PacketStore::for_engine(config.engine),
            events: EventQueue::for_engine(config.engine),
            stats,
            sink_feeders,
            flow_to_source,
            frame_len,
            now: 0,
            event_scratch: Vec::new(),
            routing_work: vec![0; num_router_blocks],
            alloc_work: vec![0; num_router_blocks],
            launch_work: vec![0; num_router_blocks],
            source_work: vec![0; num_sources.div_ceil(64)],
            source_timers: WakeTimers::new(num_sources),
            profile: EngineProfile::default(),
            router_scan: Vec::new(),
            probe_scratch: Vec::new(),
            probe_prioritized_scratch: Vec::new(),
            unlimited,
            closed_loop: None,
            fault: None,
            last_progress: 0,
            sampler,
            trace: TraceHook::Off,
            traced_fault_active: 0,
            pending_reprograms: Vec::new(),
            next_reprogram: 0,
        };
        network.wake_all_sources();
        Ok(network)
    }

    /// Wakes source `si`: the source phase visits it from the next pass on,
    /// until a visit finds it can sleep again.
    // taqos-lint: hot
    #[inline]
    fn wake_source(&mut self, si: usize) {
        // taqos-lint: allow(panic-index) -- source_work is sized to ceil(sources/64) words and si is a live source index
        let word = &mut self.source_work[si >> 6];
        let bit = 1u64 << (si & 63);
        if *word & bit == 0 {
            *word |= bit;
            self.profile.source_wakes += 1;
        }
    }

    /// Wakes every source (construction, closed-loop or fault-plan install,
    /// a rate reprogramming landing): each then re-derives its own sleep
    /// predicate at its next visit.
    fn wake_all_sources(&mut self) {
        for si in 0..self.sources.len() {
            self.wake_source(si);
        }
    }

    /// The engine's deterministic work counters so far.
    pub fn engine_profile(&self) -> EngineProfile {
        self.profile
    }

    /// Installs a closed-loop request/reply workload: each requester flow
    /// issues MLP-window-limited requests to its memory controller, and every
    /// delivered request is answered with a reply injected at the
    /// controller's source (see [`crate::closed_loop`]). Both requester and
    /// controller sources must carry idle (exhausted) generators: a
    /// requester flow never polls its generator (a producing one would be
    /// silently ignored yet block quiescence forever), and a controller's
    /// reply port only injects while its source is otherwise idle (a
    /// producing generator would starve the replies and livelock the loop).
    ///
    /// # Errors
    ///
    /// Returns an error if the spec does not match this network (see
    /// [`ClosedLoopSpec::validate`]) or a requester's or controller's source
    /// has a non-exhausted generator.
    pub fn with_closed_loop(mut self, spec: ClosedLoopSpec) -> Result<Self, SimError> {
        spec.validate(&self.spec)?;
        let state = ClosedLoopState::new(&spec, &self.spec);
        for (flow, requester) in spec.requesters.iter().enumerate() {
            let Some(requester) = requester else { continue };
            // The requester's own source and its controller's reply port
            // (pinned by `validate`) inject for the loop, not for a generator.
            let own = self.flow_to_source.get(flow).copied();
            let ends = [own, state.reply_port(requester.mc)].into_iter().flatten();
            for source in ends.filter_map(|si| self.sources.get(si)) {
                if !source.generator.exhausted() {
                    return Err(SimError::Spec(crate::error::SpecError::new(format!(
                        "flow {flow}: source {} needs an idle (exhausted) generator, it injects \
                         the closed loop's requests or its controller's replies instead",
                        source.name
                    ))));
                }
            }
        }
        self.closed_loop = Some(state);
        self.wake_all_sources();
        Ok(self)
    }

    /// Installs a fault-injection plan: seeded, deterministic link, router,
    /// controller and flit-corruption failures applied while the network
    /// steps (see [`crate::fault`]). Dropped packets are NACKed back to
    /// their source over the ACK network and retransmitted until the plan's
    /// retransmit budget is exhausted, after which they are abandoned. An
    /// empty plan leaves behaviour bit-identical to a fault-free run.
    ///
    /// # Errors
    ///
    /// Returns an error if the plan fails validation against this network's
    /// spec (out-of-range routers or ports, malformed fault windows).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Result<Self, SimError> {
        plan.validate_against(&self.spec)?;
        self.fault = Some(FaultState::new(plan, &self.spec));
        self.wake_all_sources();
        Ok(self)
    }

    /// Schedules a mid-run reprogramming of the per-flow rate programme (one
    /// positive relative rate per flow, as a hypervisor would write into the
    /// QOS flow tables). The new rates take effect at the **first frame
    /// rollover at or after** cycle `at` — never mid-frame — so the change
    /// coincides with the bandwidth-counter and virtual-clock flush and the
    /// routers' priority-stability contract is preserved. Scheduling two
    /// programmes for the same rollover applies them in call order (the
    /// last one wins).
    ///
    /// # Errors
    ///
    /// Returns an error if the policy has no frames (nothing to anchor the
    /// change to), the rate count does not match the flow count, or any rate
    /// is non-finite or not positive.
    pub fn schedule_reprogram(&mut self, at: Cycle, rates: Vec<f64>) -> Result<(), SimError> {
        if self.frame_len.is_none_or(|f| f == 0) {
            return Err(SimError::Spec(crate::error::SpecError::new(
                "rate reprogramming needs a frame-based policy to anchor the change to",
            )));
        }
        if rates.len() != self.spec.num_flows() {
            return Err(SimError::Spec(crate::error::SpecError::new(format!(
                "{} rates supplied for {} flows",
                rates.len(),
                self.spec.num_flows()
            ))));
        }
        if rates.iter().any(|r| !r.is_finite() || *r <= 0.0) {
            return Err(SimError::Spec(crate::error::SpecError::new(
                "rates must be finite and positive",
            )));
        }
        // taqos-lint: allow(panic-index) -- next_reprogram only advances past applied entries, so it never exceeds len
        let idx = self.pending_reprograms[self.next_reprogram..]
            .partition_point(|&(cycle, _)| cycle <= at)
            + self.next_reprogram;
        self.pending_reprograms.insert(idx, (at, rates));
        Ok(())
    }

    /// Applies every scheduled rate reprogramming due by now to the policy,
    /// each router's QOS state and the closed loop's DRAM weights. Called
    /// only from a frame rollover, which immediately flushes the bandwidth
    /// counters and bumps every router's priority epoch — so the new
    /// programme starts from a clean frame in both engines.
    fn apply_due_reprograms(&mut self) {
        let Network {
            pending_reprograms,
            next_reprogram,
            policy,
            qos,
            closed_loop,
            now,
            ..
        } = self;
        while let Some((at, rates)) = pending_reprograms.get(*next_reprogram) {
            if *at > *now {
                break;
            }
            policy.reprogram_rates(rates);
            for q in qos.iter_mut() {
                q.reprogram_rates(rates);
            }
            if let Some(cl) = closed_loop {
                cl.reprogram_weights(rates);
            }
            *next_reprogram += 1;
        }
        self.wake_all_sources();
    }

    /// Installs a flit-level trace sink: injections, grants, preemptions,
    /// NACKs, deliveries, DRAM services, timeouts/retries and fault
    /// transitions are streamed to it as [`TraceEvent`]s, in cycle order.
    /// Without a sink the trace hook is a single predictable branch per
    /// instrumentation point and no event is ever constructed.
    ///
    /// Call [`Self::take_trace_sink`] (and [`TraceSink::finish`]) to recover
    /// the sink before dropping the network; [`Self::into_stats`] otherwise
    /// finishes it implicitly, discarding any I/O error.
    #[must_use]
    pub fn with_trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace = TraceHook::On(sink);
        self
    }

    /// Removes and returns the installed trace sink, if any, leaving tracing
    /// off. The caller should invoke [`TraceSink::finish`] on it.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Current simulation time in cycles.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The network specification this simulation was built from.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Mutable access to statistics (used by drivers to set the measurement
    /// window).
    pub fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    /// Whether every source is drained, no packet is live anywhere in the
    /// network, and every closed-loop requester has spent its budget — i.e. a
    /// closed (fixed) workload has completed.
    pub fn is_quiescent(&self) -> bool {
        self.sources.iter().all(|s| s.is_drained())
            && self.packets.is_empty()
            && self.closed_loop.as_ref().is_none_or(|cl| cl.is_complete())
    }

    /// Number of packets currently live (queued, in flight, or awaiting ACK).
    pub fn live_packets(&self) -> usize {
        self.packets.len()
    }

    /// Checks the forward-progress watchdog: if more than
    /// [`SimConfig::progress_watchdog`] cycles have elapsed since the last
    /// packet generation, acknowledgement, or DRAM service start, the
    /// network is considered wedged (deadlocked or livelocked — e.g. a NACK
    /// storm against dead hardware) and a structured error is returned. A
    /// watchdog of 0 disables the check.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoForwardProgress`] when the watchdog expires.
    pub fn check_progress(&self) -> Result<(), SimError> {
        let horizon = self.config.progress_watchdog;
        let stalled_for = self.now.saturating_sub(self.last_progress);
        if horizon > 0 && stalled_for > horizon {
            return Err(SimError::NoForwardProgress {
                cycles: self.now,
                stalled_for,
                live_packets: self.live_packets(),
            });
        }
        Ok(())
    }

    /// Total flits delivered to sinks so far, per the sinks' own counters.
    ///
    /// Under the priority-aware flavours of
    /// [`crate::closed_loop::DramConfig::scheduler`] admitted requests
    /// bypass these counters: their delivery is deferred to the start of
    /// bank service and recorded in [`Self::stats`]
    /// (`NetStats::delivered_flits`) only, so the statistics — not this
    /// sink-level sum — are the authoritative delivery count for such runs.
    pub fn delivered_flits(&self) -> u64 {
        self.sinks.iter().map(|s| s.delivered_flits).sum()
    }

    /// Consumes the network and returns the final statistics, with per-source
    /// counters folded in.
    pub fn into_stats(mut self) -> NetStats {
        for source in &self.sources {
            let fs = &mut self.stats.flows[source.flow.index()];
            fs.generated_packets = source.generated_packets;
            fs.generated_flits = source.generated_flits;
            fs.injected_packets = source.injected_packets;
            fs.retransmissions = source.retransmitted_packets;
        }
        if let Some(cl) = &self.closed_loop {
            for (fs, outstanding) in self.stats.flows.iter_mut().zip(cl.requests_in_flight()) {
                fs.requests_in_flight = outstanding;
            }
        }
        self.stats.generated_packets = self.sources.iter().map(|s| s.generated_packets).sum();
        self.stats.cycles = self.now;
        if let Some(sampler) = self.sampler.take() {
            self.stats.frames = Some(sampler.into_series());
        }
        // A sink the caller did not reclaim is finished here so buffered
        // formats (Chrome trace) still produce a valid file; the I/O result
        // is unobservable at this point by construction.
        if let Some(mut sink) = self.trace.take() {
            let _ = sink.finish();
        }
        self.stats
    }

    /// Advances the simulation by one cycle.
    // taqos-lint: hot
    pub fn step(&mut self) {
        self.now += 1;
        if let Some(fault) = &mut self.fault {
            fault.refresh(self.now);
            if self.trace.is_on() {
                let active = fault.active_count(self.now);
                if active != self.traced_fault_active {
                    self.traced_fault_active = active;
                    let cycle = self.now;
                    self.trace
                        .emit(|| TraceEvent::FaultTransition { cycle, active });
                }
            }
        }
        self.phase_frame_rollover();
        self.phase_events();
        self.phase_sources();
        self.phase_routing();
        self.phase_allocation();
        self.phase_launch();
        if self.sampler.is_some() {
            self.sample_frame();
        }
    }

    /// Closes a sampling frame if one is due this cycle: snapshots the
    /// cumulative per-flow counters, instantaneous router occupancy and
    /// cumulative per-link launched-flit counts; the sampler converts the
    /// cumulative figures to per-frame deltas in place. Reads existing
    /// counters only — no simulation state is touched, so sampling cannot
    /// perturb the run.
    // taqos-lint: hot
    fn sample_frame(&mut self) {
        let Network {
            sampler,
            stats,
            sources,
            flow_to_source,
            routers,
            now,
            ..
        } = self;
        let Some(sampler) = sampler.as_mut() else {
            return;
        };
        if !sampler.due(*now) {
            return;
        }
        sampler.sample_frame(*now, |snap| {
            for (f, flow) in snap.flows.iter_mut().enumerate() {
                let fs = &stats.flows[f];
                flow.injected_packets = sources[flow_to_source[f]].injected_packets;
                flow.delivered_flits = fs.delivered_flits;
                flow.latency_sum = fs.latency_sum;
                flow.latency_samples = fs.latency_samples;
                flow.round_trips = fs.round_trips;
                flow.rt_latency_sum = fs.rt_latency_sum;
                flow.rt_samples = fs.rt_samples;
            }
            for (occ, router) in snap.router_occupancy.iter_mut().zip(routers.iter()) {
                *occ = router.active_vcs as u64;
            }
            let mut link = 0;
            for router in routers.iter() {
                for out in &router.outputs {
                    snap.link_flits[link] = out.flits_launched_total;
                    link += 1;
                }
            }
        });
    }

    /// Advances the simulation by `cycles` cycles.
    pub fn run_for(&mut self, cycles: Cycle) {
        for _ in 0..cycles {
            self.step();
        }
    }

    // taqos-lint: hot
    fn phase_frame_rollover(&mut self) {
        if let Some(frame) = self.frame_len {
            if frame > 0 && self.now.is_multiple_of(frame) {
                // Rate reprogrammings land exactly here, before the flush,
                // so a new programme always starts from a clean frame.
                if self.next_reprogram < self.pending_reprograms.len() {
                    self.apply_due_reprograms();
                }
                for qos in &mut self.qos {
                    qos.on_frame_rollover();
                }
                for router in &mut self.routers {
                    router.priority_epoch += 1;
                    router.mark_all_dirty();
                }
                for source in &mut self.sources {
                    source.on_frame_rollover();
                }
                // The controllers' rate-scaled virtual clocks observe the
                // same frame boundaries as the fabric's bandwidth counters.
                if let Some(cl) = &mut self.closed_loop {
                    cl.flush_vclocks();
                }
            }
        }
    }

    // taqos-lint: hot
    fn phase_events(&mut self) {
        if self.config.engine.is_reference() {
            // Seed behaviour: a fresh vector of due events every cycle.
            let due = self.events.drain_due(self.now);
            for event in due {
                self.apply_event(event);
            }
            return;
        }
        // The drained events are collected into a reusable buffer so the
        // steady-state event phase performs no heap allocation.
        let mut scratch = std::mem::take(&mut self.event_scratch);
        scratch.clear();
        self.events.drain_due_into(self.now, &mut scratch);
        for event in scratch.drain(..) {
            self.apply_event(event);
        }
        self.event_scratch = scratch;
    }

    fn apply_event(&mut self, event: Event) {
        match event {
            Event::HeadToRouter {
                router,
                in_port,
                vc,
                len,
                packet,
            } => {
                let router = router as usize;
                let router_state = &mut self.routers[router];
                let port = &mut router_state.inputs[in_port as usize];
                if port.vcs.len() <= vc.index() {
                    // VC counts are fully provisioned from the spec at
                    // construction; only ideal per-flow queuing manufactures
                    // VC ids beyond that count.
                    assert!(
                        self.unlimited,
                        "flit addressed VC {} beyond the {} provisioned at router {router} port {in_port}",
                        vc.index(),
                        port.vcs.len(),
                    );
                    port.vcs.resize_with(vc.index() + 1, || VcState::new(false));
                }
                port.vcs[vc.index()].accept_head(packet, len, self.now);
                port.occupied += 1;
                port.unrouted += 1;
                router_state.active_vcs += 1;
                router_state.unrouted_vcs += 1;
                mark_router(&mut self.routing_work, router);
                mark_router(&mut self.alloc_work, router);
                self.stats.energy.buffer_writes += 1;
            }
            Event::BodyToRouter {
                router,
                in_port,
                vc,
                packet,
            } => {
                // Body flits always follow their head into an already-claimed
                // (and, under unlimited buffering, already-grown) VC.
                let port = &mut self.routers[router as usize].inputs[in_port as usize];
                debug_assert!(vc.index() < port.vcs.len());
                port.vcs[vc.index()].accept_body(packet);
                self.stats.energy.buffer_writes += 1;
            }
            Event::FlitToSink {
                sink,
                slot,
                is_head,
                is_tail,
                packet,
            } => {
                let sink = sink as usize;
                if is_head {
                    self.sinks[sink].accept_head(slot, packet);
                } else {
                    self.sinks[sink].accept_body(slot, packet);
                }
                if is_tail {
                    self.complete_delivery(sink, slot);
                }
            }
            Event::CreditToRouter {
                router,
                out_port,
                target_idx,
                vc,
                reserved_vc,
            } => {
                let router_state = &mut self.routers[router as usize];
                router_state.outputs[out_port as usize].targets[target_idx as usize]
                    .refund(vc, reserved_vc);
                router_state.mark_output_dirty(out_port as usize);
            }
            Event::CreditToSource { source, vc } => {
                self.sources[source as usize].free_vcs.push(vc);
                self.wake_source(source as usize);
            }
            Event::Ack { source, packet } => {
                // A packet left the system (delivered, or abandoned by the
                // fault layer): that is forward progress for the watchdog.
                self.last_progress = self.now;
                self.sources[source as usize].acknowledge(packet);
                self.wake_source(source as usize);
                self.packets.remove(packet);
            }
            Event::Nack { source, packet } => {
                if let Some(pkt) = self.packets.get_mut(packet) {
                    pkt.retransmissions += 1;
                    let (cycle, flow) = (self.now, pkt.flow);
                    self.trace.emit(|| TraceEvent::Nack {
                        cycle,
                        flow: u64::from(flow.0),
                        packet: packet.0,
                    });
                }
                self.sources[source as usize].retransmit(packet);
                self.wake_source(source as usize);
            }
            Event::PreemptionProbe {
                router,
                in_port,
                contender,
            } => {
                self.handle_preemption_probe(router as usize, in_port as usize, contender);
            }
            Event::DramComplete { mc, bank } => {
                self.handle_dram_complete(mc as usize, bank as usize);
            }
        }
    }

    // taqos-lint: hot
    fn complete_delivery(&mut self, sink: usize, slot: VcId) {
        // Peek at the occupant first: a controller may reject the packet,
        // and a rejected request must not touch the sink's delivery
        // counters (`SinkState::discard` vs `SinkState::complete` below).
        let packet_id = self.sinks[sink]
            .occupant(slot)
            // taqos-lint: allow(panic-path) -- delivery events fire only for occupied sink slots
            .expect("completing an empty sink slot");
        let packet = self
            .packets
            .get(packet_id)
            // taqos-lint: allow(panic-path) -- sink slots only ever hold live packet ids
            .expect("delivered packet must be live")
            // taqos-lint: allow(hot-alloc) -- a packet is plain scalars: the clone is a flat copy, nothing is allocated
            .clone();
        let (flow, hops, class) = (packet.flow, packet.column_hops(), packet.class);
        // taqos-lint: allow(panic-index) -- the delivery event names a live sink (its occupant was just read)
        let node = self.sinks[sink].node;
        // A controller outage bounces request-class packets at the dark
        // node: the delivery is not recorded and the packet is NACKed back
        // to its source (or abandoned once the fault retransmit budget is
        // spent), exactly like a DRAM-queue rejection.
        if class == PacketClass::Request && self.fault.as_ref().is_some_and(|f| f.mc_dark(node)) {
            self.sinks[sink].discard(slot);
            self.stats.fault.mc_outage_rejections += 1;
            self.free_sink_slot(sink, slot);
            self.fault_bounce(packet_id, flow, packet.origin_source, hops);
            return;
        }
        // A requester's request reaching its own controller is answered by
        // the closed loop; everything else is ordinary traffic.
        let arrival = match &mut self.closed_loop {
            Some(cl) if class == PacketClass::Request => {
                cl.request_arrived(self.now, node, &packet, sink, slot, &mut self.stats)
            }
            _ => Arrival::Ordinary,
        };
        // A full controller queue under Nack backpressure bounces the
        // request: it does *not* count as delivered, and a NACK over the ACK
        // network has its source (closed-loop requests are always injected
        // by their own flow's source) retransmit it over the fabric.
        let offer = match arrival {
            Arrival::Offered { offer, .. } => Some(offer),
            _ => None,
        };
        if offer == Some(Offer::Rejected) {
            self.sinks[sink].discard(slot);
            // The flits did occupy the sink slot: free its credit as usual.
            self.free_sink_slot(sink, slot);
            self.nack_request(flow, packet_id, hops);
            return;
        }
        // Priority-aware schedulers defer a request's delivery (and its ACK)
        // to the start of its bank service: the packet stays live at its
        // source so a later eviction can NACK it for a fabric retry.
        let deferred = matches!(arrival, Arrival::Offered { deferred: true, .. });
        if deferred {
            self.sinks[sink].discard(slot);
        } else {
            let completed = self.sinks[sink].complete(slot);
            debug_assert_eq!(completed, packet_id);
            self.stats
                .record_delivery(flow, packet.len_flits, hops, packet.birth, self.now);
            let (cycle, birth) = (self.now, packet.birth);
            self.trace.emit(|| TraceEvent::Deliver {
                cycle,
                flow: u64::from(flow.0),
                packet: packet_id.0,
                birth,
            });
        }
        match arrival {
            Arrival::Ordinary => self.on_reply_delivery(&packet),
            Arrival::Answered(request) => self.release_reply(node, &request),
            Arrival::Offered { .. } => {
                if let Some(Offer::Evicted(victim)) = offer {
                    self.nack_request(victim.flow, victim.packet, victim.hops);
                }
                self.dram_pump(node.index());
            }
        }
        // Free the sink slot credit at the feeding ejection port — unless
        // the controller's stall lane withholds it until its queue has room
        // (`McEffect::SlotReleased`).
        if offer != Some(Offer::Stalled) {
            self.free_sink_slot(sink, slot);
        }
        if deferred {
            // The ACK fires when the request enters bank service.
            return;
        }
        // Acknowledge delivery over the ACK network, to the source that
        // physically injected the packet (for closed-loop replies that is the
        // memory controller's source, not the requester flow's).
        let source = packet
            .origin_source
            .map(|s| s as usize)
            .unwrap_or_else(|| self.flow_to_source[flow.index()]);
        self.events.schedule(
            self.now + self.config.ack_latency(hops),
            Event::Ack {
                source: source as u32,
                packet: packet_id,
            },
        );
    }

    /// Sends a fault-dropped (or outage-bounced) packet back to its source:
    /// a NACK schedules a fabric retransmission, unless the packet has
    /// already burned through the fault plan's retransmit budget, in which
    /// case it is abandoned — acknowledged and removed without ever counting
    /// as delivered. Abandonment guarantees NACK loops against permanently
    /// dead hardware terminate instead of livelocking.
    // taqos-lint: hot
    fn fault_bounce(
        &mut self,
        packet_id: PacketId,
        flow: FlowId,
        origin_source: Option<u32>,
        hops: u32,
    ) {
        let budget = self
            .fault
            .as_ref()
            // taqos-lint: allow(panic-path) -- fault_bounce is only reached from fault-plan drop handling
            .expect("fault_bounce requires an installed fault plan")
            .retransmit_budget();
        let drops = {
            let packet = self
                .packets
                .get_mut(packet_id)
                // taqos-lint: allow(panic-path) -- NACKed packets stay live until acked or abandoned
                .expect("bounced packet must be live");
            packet.fault_drops += 1;
            packet.fault_drops
        };
        let source = origin_source
            .map(|s| s as usize)
            .unwrap_or_else(|| self.flow_to_source[flow.index()]) as u32;
        let due = self.now + self.config.ack_latency(hops);
        if drops > budget {
            self.stats.fault.abandoned_packets += 1;
            self.events.schedule(
                due,
                Event::Ack {
                    source,
                    packet: packet_id,
                },
            );
        } else {
            self.events.schedule(
                due,
                Event::Nack {
                    source,
                    packet: packet_id,
                },
            );
        }
    }

    /// [`release_sink_credit`] for slot `slot` of `sink`, as of this cycle.
    // taqos-lint: hot
    fn free_sink_slot(&mut self, sink: usize, slot: VcId) {
        let (events, feeders) = (&mut self.events, &self.sink_feeders);
        release_sink_credit(events, &self.config, feeders, self.now, sink, slot);
    }

    /// NACKs a closed-loop request the controller bounced or evicted back to
    /// its flow's source, which retransmits it over the fabric.
    // taqos-lint: hot
    fn nack_request(&mut self, flow: FlowId, packet: PacketId, hops: u32) {
        // taqos-lint: allow(panic-index) -- flow ids are validated dense against flow_to_source at construction
        let source = self.flow_to_source[flow.index()] as u32;
        let due = self.now + self.config.ack_latency(hops);
        self.events.schedule(due, Event::Nack { source, packet });
    }

    /// A closed-loop reply (marked by the request birth it carries; plain
    /// reply-class traffic passes through untouched) arriving back at its
    /// requester credits the MLP window and records the round trip.
    // taqos-lint: hot
    fn on_reply_delivery(&mut self, packet: &Packet) {
        let (Some(cl), PacketClass::Reply, Some(request_birth)) =
            (&mut self.closed_loop, packet.class, packet.request_birth)
        else {
            return;
        };
        if let Some(requester) = cl.requester_mut(packet.flow) {
            requester.on_reply(packet.req_seq, request_birth, self.now, &mut self.stats);
        }
        // The reply may have reopened the requester's MLP window.
        // taqos-lint: allow(panic-index) -- flow ids are validated dense against flow_to_source at construction
        self.wake_source(self.flow_to_source[packet.flow.index()]);
    }

    /// Creates the reply to `request` at controller `mc_node` and queues it
    /// at the controller's reply port. The reply travels on the requester's
    /// flow (QOS priority and per-flow accounting) but is injected and
    /// retransmitted by the controller's source; it carries the request's
    /// birth so the round trip can be measured at delivery.
    // taqos-lint: hot
    fn release_reply(&mut self, mc_node: NodeId, request: &McRequest) {
        let Some(cl) = &mut self.closed_loop else {
            return;
        };
        let Some(port) = cl.reply_port(mc_node) else {
            debug_assert!(false, "validated: every controller node has a source");
            return;
        };
        let now = self.now;
        let reply_id = self.packets.insert_with(|id| {
            let (dst, len) = (request.requester, request.reply_len);
            let mut reply =
                Packet::new(id, request.flow, mc_node, dst, len, PacketClass::Reply, now);
            reply.request_birth = Some(request.birth);
            reply.origin_source = Some(port as u32);
            reply.req_seq = request.req_seq;
            reply
        });
        cl.replies.push(port, request.flow, reply_id);
        // taqos-lint: allow(panic-index) -- reply ports are source indices recorded from the spec's source list
        let source = &mut self.sources[port];
        source.generated_packets += 1;
        source.generated_flits += u64::from(request.reply_len);
        self.wake_source(port);
    }

    /// A DRAM bank completed: release the reply of the serviced request and
    /// let the controller pull waiting work onto its freed bank.
    // taqos-lint: hot
    fn handle_dram_complete(&mut self, mc_node: usize, bank: usize) {
        let cl = self.closed_loop.as_mut();
        let mc = cl.and_then(|cl| cl.controller_mut(mc_node));
        let served = mc.and_then(|mc| mc.complete(bank, self.now));
        debug_assert!(served.is_some(), "completion event for an idle bank");
        if let Some(request) = served {
            self.release_reply(NodeId(mc_node as u16), &request);
            self.dram_pump(mc_node);
        }
    }

    /// Drives the controller at `mc_node` to a fixed point and applies the
    /// effects it reports, in order, to the event queue, the ACK network and
    /// the sink credits. Called after every arrival and every bank
    /// completion.
    // taqos-lint: hot
    fn dram_pump(&mut self, mc_node: usize) {
        let now = self.now;
        let cl = self.closed_loop.as_mut();
        let Some(mc) = cl.and_then(|cl| cl.controller_mut(mc_node)) else {
            return;
        };
        let (stats, trace) = (&mut self.stats, &mut self.trace);
        mc.pump(now, stats, trace, |effect| match effect {
            McEffect::ServiceStarted { bank, latency, ack } => {
                // Entering bank service is forward progress for the
                // watchdog: a run bottlenecked on DRAM can legitimately go
                // many cycles between fabric deliveries.
                self.last_progress = now;
                if let Some(request) = ack {
                    // taqos-lint: allow(panic-index) -- flow ids are validated dense against flow_to_source at construction
                    let source = self.flow_to_source[request.flow.index()] as u32;
                    let packet = request.packet;
                    let due = now + self.config.ack_latency(request.hops);
                    self.events.schedule(due, Event::Ack { source, packet });
                }
                let mc = mc_node as u32;
                self.events
                    .schedule(now + latency, Event::DramComplete { mc, bank });
            }
            McEffect::SlotReleased { sink, slot } => {
                let (events, feeders) = (&mut self.events, &self.sink_feeders);
                release_sink_credit(events, &self.config, feeders, now, sink, slot);
            }
        });
    }

    // taqos-lint: hot
    fn phase_sources(&mut self) {
        let now = self.now;
        let reference = self.config.engine.is_reference();
        // Work-proportional visiting: the reference engine polls every
        // source every cycle; the optimized engine visits only the awake
        // ones (ascending, the polling order), after firing the due timers
        // of sleeping requesters. A skipped visit is provably a no-op — the
        // sleep predicate at the end of the loop body, the wake sites and
        // the timers are tabulated in docs/ARCHITECTURE.md.
        let mut scan = std::mem::take(&mut self.router_scan);
        if reference {
            scan.clear();
            scan.extend(0..self.sources.len() as u32);
        } else {
            while let Some(si) = self.source_timers.pop_due(now) {
                self.wake_source(si);
            }
            scan_routers(&self.source_work, &mut scan);
        }
        self.profile.sources_visited += scan.len() as u64;
        // Split-borrow the fields once so the per-source loop indexes each
        // source a single time instead of re-indexing `self.sources[si]` at
        // every access.
        let Network {
            sources,
            routers,
            packets,
            stats,
            policy,
            qos,
            closed_loop,
            last_progress,
            trace,
            routing_work,
            alloc_work,
            source_work,
            source_timers,
            profile,
            ..
        } = self;
        for &si in &scan {
            let si = si as usize;
            // taqos-lint: allow(panic-index) -- scan holds live source indices: every one, or the set bits of source_work
            let source = &mut sources[si];
            // 1. Traffic generation — one generator call per cycle. An
            // exhausted generator returns `None` without consuming entropy
            // (the `PacketGenerator` contract), and a source that also has
            // nothing queued or streaming has no per-cycle work at all
            // (outstanding-window packets only need event handling).
            // A closed-loop requester flow issues from its MLP window instead
            // of polling a generator.
            let mut request = None;
            let requester = closed_loop
                .as_mut()
                .and_then(|cl| cl.requester_mut(source.flow));
            let generated = match requester {
                Some(requester) => {
                    request = requester.visit(now, stats, trace, last_progress);
                    request.map(|r| r.packet)
                }
                None => source.generator.generate(now),
            };
            if let Some(gen) = generated {
                // Generating a packet is forward progress for the watchdog.
                *last_progress = now;
                // `origin_source` stays `None` here: a packet generated at
                // its own flow's source routes ACK/NACK via `flow_to_source`;
                // only controller-injected replies carry an explicit origin.
                let (flow, node) = (source.flow, source.node);
                let id = packets.insert_with(|id| {
                    let mut packet =
                        Packet::new(id, flow, node, gen.dst, gen.len_flits, gen.class, now);
                    if let Some(request) = request {
                        packet.dram_line = request.line;
                        packet.req_seq = request.seq;
                        packet.request_birth = request.birth;
                    }
                    packet
                });
                source.enqueue_generated(id, gen.len_flits);
            } else if let Some(cl) = closed_loop.as_mut().filter(|cl| cl.replies.has_pending(si)) {
                // Controller reply port: when the source queue is free, pull
                // the pending reply of the highest-priority flow into it —
                // the controller is a QOS arbitration point, so the reply
                // order follows flow priority, not head-of-line arrival.
                // NACKed replies re-queued at the front drain first.
                if source.queue.is_empty() && source.can_inject() {
                    // taqos-lint: allow(panic-index) -- sources are validated to reference live routers, and qos is built 1:1 with them
                    let router_qos = &*qos[source.router];
                    // Each priority read is one candidate examined.
                    let scanned = &mut profile.reply_candidates_scanned;
                    let picked = if reference {
                        cl.replies.pop_best_by_scan(si, |flow| {
                            *scanned += 1;
                            router_qos.priority(flow)
                        })
                    } else {
                        // One candidate per flow with a reply waiting, its
                        // priority memoised in the port router's cache (the
                        // allocation phase keeps that cache exact).
                        // taqos-lint: allow(panic-index) -- sources are validated to reference live routers
                        let router = &mut routers[source.router];
                        cl.replies.pop_best(si, |flow| {
                            *scanned += 1;
                            cached_priority(router, router_qos, flow)
                        })
                    };
                    if let Some((reply, _)) = picked {
                        source.queue.push_back(reply);
                    }
                }
            }

            // 2. Start a new injection if possible.
            if source.can_start_injection() {
                // taqos-lint: allow(panic-path) -- can_start_injection checked the queue is non-empty
                let packet_id = source.queue.pop_front().expect("queue checked non-empty");
                // taqos-lint: allow(panic-path) -- can_start_injection checked a free VC is available
                let vc = source.free_vcs.pop().expect("credit checked available");
                let quota = policy.reserved_quota(source.flow);
                let len = {
                    let packet = packets
                        .get_mut(packet_id)
                        // taqos-lint: allow(panic-path) -- queued ids are removed before their packets are freed
                        .expect("queued packet must be live");
                    if packet.injected_at.is_none() {
                        packet.injected_at = Some(now);
                        source.injected_packets += 1;
                        let (flow, node) = (packet.flow, source.node);
                        trace.emit(|| TraceEvent::Inject {
                            cycle: now,
                            flow: u64::from(flow.0),
                            packet: packet_id.0,
                            node: u64::from(node.0),
                        });
                    }
                    packet.len_flits
                };
                let reserved = match quota {
                    Some(q) if source.reserved_used_this_frame + u64::from(len) <= q => {
                        source.reserved_used_this_frame += u64::from(len);
                        true
                    }
                    _ => false,
                };
                packets.set_reserved(packet_id, reserved);
                source.window.insert(packet_id);
                source.active = Some(InjectionTransfer {
                    packet: packet_id,
                    len,
                    vc,
                    flits_sent: 0,
                });
            }

            // 3. Stream one flit of the active injection into the router.
            if let Some(transfer) = &mut source.active {
                let router = &mut routers[source.router];
                let port = &mut router.inputs[source.in_port.0];
                let vc_state = &mut port.vcs[transfer.vc.index()];
                if transfer.flits_sent == 0 {
                    vc_state.accept_head(transfer.packet, transfer.len, now);
                    port.occupied += 1;
                    port.unrouted += 1;
                    router.active_vcs += 1;
                    router.unrouted_vcs += 1;
                    mark_router(routing_work, source.router);
                    mark_router(alloc_work, source.router);
                } else {
                    vc_state.accept_body(transfer.packet);
                }
                transfer.flits_sent += 1;
                stats.energy.buffer_writes += 1;
                if transfer.flits_sent >= transfer.len {
                    source.active = None;
                }
            }

            // 4. Sleep (optimized engine) iff the next visit is provably a
            // no-op: nothing streams or can start injecting, the generation
            // side is quiet — an open-loop source only once its generator is
            // exhausted, so a live one is polled every cycle and its RNG
            // stream is untouched; a requester only with its window closed —
            // and no time threshold is already due. The wake sites and the
            // timer re-open exactly these conditions.
            if reference {
                continue;
            }
            let mut cl = closed_loop.as_mut();
            if !source.is_dormant(cl.as_ref().is_some_and(|cl| cl.replies.has_pending(si))) {
                continue;
            }
            let wake_at = match cl.as_mut().and_then(|cl| cl.requester_mut(source.flow)) {
                Some(requester) => match requester.next_wake() {
                    Some(at) => at,
                    None => continue,
                },
                None if source.generator.exhausted() => WakeTimers::NEVER,
                None => continue,
            };
            if wake_at > now {
                unmark_router(source_work, si);
                source_timers.arm(si, wake_at);
            }
        }
        self.router_scan = scan;
    }

    // taqos-lint: hot
    fn phase_routing(&mut self) {
        let skip_idle = !self.config.engine.is_reference();
        // Active-set fast path: route computation only concerns heads that
        // arrived since the last routing pass, and routers holding one are
        // tracked in the contiguous `routing_work` mask — scanning it costs
        // a few word loads instead of touching every `RouterState`.
        let mut scan = std::mem::take(&mut self.router_scan);
        if skip_idle {
            scan_routers(&self.routing_work, &mut scan);
        } else {
            scan.clear();
            scan.extend(0..self.routers.len() as u32);
        }
        for &ri in &scan {
            let ri = ri as usize;
            let router = &mut self.routers[ri];
            if skip_idle && router.unrouted_vcs == 0 {
                // Stale-set bit (the head was routed or preempted since):
                // reconcile the mask and move on.
                unmark_router(&mut self.routing_work, ri);
                continue;
            }
            let rspec = &self.spec.routers[ri];
            for (pi, port) in router.inputs.iter_mut().enumerate() {
                if skip_idle && port.unrouted == 0 {
                    continue;
                }
                let pspec = &rspec.inputs[pi];
                for (vi, vc) in port.vcs.iter_mut().enumerate() {
                    if let (Some(packet_id), None) = (vc.packet(), vc.route()) {
                        if vc.flits_arrived == 0 {
                            continue;
                        }
                        let packet = self
                            .packets
                            .hot(packet_id)
                            // taqos-lint: allow(panic-path) -- VC occupancy and packet lifetime are updated together
                            .expect("buffered packet must be live");
                        let out = if !skip_idle {
                            compute_route(rspec, pspec, packet.dst, &mut router.route_rr_cursor)
                        } else if let Some(fixed) = pspec.fixed_route {
                            fixed
                        } else {
                            // Dense LUT path: same candidates and selection
                            // logic as `compute_route`, minus the tree walk.
                            let candidates = router
                                .route_lut
                                .get(packet.dst.index())
                                .map(Vec::as_slice)
                                .unwrap_or(&[]);
                            assert!(
                                !candidates.is_empty(),
                                "router {} has no route for destination {}",
                                rspec.node,
                                packet.dst
                            );
                            crate::router::select_route(
                                rspec,
                                pspec,
                                packet.dst,
                                candidates,
                                &mut router.route_rr_cursor,
                            )
                        };
                        vc.set_route(out);
                        port.unrouted -= 1;
                        router.unrouted_vcs -= 1;
                        if skip_idle {
                            // Optimized engine: enter the packet into the
                            // persistent arbitration request list of its
                            // output, ordered by (in_port, vc) — the same
                            // order the reference engine's scan produces.
                            let target_idx = resolve_target_idx(&rspec.outputs[out.0], packet.dst);
                            let request = crate::router::ArbRequest {
                                in_port: pi as u16,
                                vc: vi as u16,
                                packet: packet_id,
                                flow: packet.flow,
                                len: packet.len_flits,
                                reserved: packet.reserved,
                                target_idx: target_idx as u16,
                                passthrough: pspec.passthrough,
                                priority: 0,
                                has_credit: false,
                            };
                            let bucket = &mut router.alloc_buckets[out.0];
                            let pos = bucket
                                .binary_search_by_key(&(pi as u16, vi as u16), |r| {
                                    (r.in_port, r.vc)
                                })
                                .expect_err("VC already has a pending request");
                            bucket.insert(pos, request);
                            if let Some(mask) = router.alloc_dirty.as_mut() {
                                *mask |= 1 << out.0;
                            }
                            if let Some(mask) = router.alloc_pending.as_mut() {
                                *mask |= 1 << out.0;
                            }
                            // The request is allocation work; set the bit
                            // at the site that creates it (the allocation
                            // phase unmarks routers with nothing pending).
                            mark_router(&mut self.alloc_work, ri);
                        }
                    }
                }
            }
            // taqos-lint: allow(panic-index) -- scan holds indices of routers whose mask bit was set, all in bounds
            if skip_idle && self.routers[ri].unrouted_vcs == 0 {
                unmark_router(&mut self.routing_work, ri);
            }
        }
        self.router_scan = scan;
    }

    // taqos-lint: hot
    fn phase_allocation(&mut self) {
        let preemption = self.policy.preemption_enabled();
        let reference = self.config.engine.is_reference();
        // Active-set fast path: allocation requests come from buffered
        // packets only, and routers holding one are tracked in the
        // contiguous `alloc_work` mask.
        let mut scan = std::mem::take(&mut self.router_scan);
        if reference {
            scan.clear();
            scan.extend(0..self.routers.len() as u32);
        } else {
            scan_routers(&self.alloc_work, &mut scan);
        }
        for &ri in &scan {
            let ri = ri as usize;
            // taqos-lint: allow(panic-index) -- scan holds indices of routers whose mask bit was set, all in bounds
            let router = &self.routers[ri];
            let idle = router.active_vcs == 0 || router.alloc_pending == Some(0);
            if !reference && idle {
                // Stale-set bit: the last occupant drained, or every
                // resident packet already holds a grant. A new request is
                // filed only by the routing phase, which sets the bit again.
                unmark_router(&mut self.alloc_work, ri);
                continue;
            }
            let rspec = &self.spec.routers[ri];
            let qos = &mut self.qos[ri];
            let num_outputs = self.routers[ri].outputs.len();

            // Pending-output worklist: the optimized engine walks only the
            // outputs with a filed request whose decision is stale (every
            // output with a filed request under preemption, where a clean
            // blocked output replays its cached probe). The masks are
            // re-read per step, so an output dirtied by a grant earlier in
            // this pass is still seen, exactly as the linear scan saw it.
            // The reference engine (and routers too wide for the masks)
            // scans every output.
            let mut next_oi = 0;
            while next_oi < num_outputs {
                let router = &mut self.routers[ri];
                let oi = match (router.alloc_pending, router.alloc_dirty) {
                    (Some(pending), Some(dirty)) if !reference => {
                        let stale = if preemption { pending } else { pending & dirty };
                        let rest = stale & (u64::MAX << next_oi);
                        if rest == 0 {
                            break;
                        }
                        rest.trailing_zeros() as usize
                    }
                    _ => next_oi,
                };
                next_oi = oi + 1;
                self.profile.outputs_walked += 1;
                if !reference && router.alloc_buckets[oi].is_empty() {
                    continue;
                }
                if !router.outputs[oi].can_grant(self.config.grant_queue_depth) {
                    continue;
                }
                if !reference {
                    // Clean output: nothing feeding this decision changed
                    // since the last full evaluation, which ended blocked
                    // (a winner would have marked it dirty again). Replay
                    // the cached outcome — schedule the same probe, skip the
                    // arbitration entirely.
                    let clean = router.alloc_dirty.is_some_and(|mask| mask & (1 << oi) == 0);
                    if clean {
                        self.profile.outputs_replayed += 1;
                        if preemption {
                            if let Some(probe) = router.cached_probe[oi] {
                                self.events.schedule(self.now + 1, probe);
                            }
                        }
                        continue;
                    }
                }
                let mut requests = if reference {
                    // Reference gather: fresh vector and full port/VC rescan
                    // per output, reproducing the original engine's cost.
                    // taqos-lint: allow(hot-alloc) -- seed-faithful reference gather allocates by design
                    let mut requests = Vec::new();
                    for (pi, port) in router.inputs.iter().enumerate() {
                        let pspec = &rspec.inputs[pi];
                        for (vi, vc) in port.vcs.iter().enumerate() {
                            if !vc.wants_allocation()
                                || vc.route() != Some(crate::ids::OutPortId(oi))
                            {
                                continue;
                            }
                            // taqos-lint: allow(panic-path) -- wants_allocation implies an occupant
                            let packet_id = vc.packet().expect("allocating VC holds a packet");
                            let packet = self
                                .packets
                                .get(packet_id)
                                // taqos-lint: allow(panic-path) -- VC occupancy and packet lifetime are updated together
                                .expect("buffered packet must be live");
                            let target_idx = resolve_target_idx(&rspec.outputs[oi], packet.dst);
                            let has_credit =
                                router.outputs[oi].targets[target_idx].has_credit(packet.reserved);
                            requests.push(crate::router::ArbRequest {
                                in_port: pi as u16,
                                vc: vi as u16,
                                packet: packet_id,
                                flow: packet.flow,
                                len: packet.len_flits,
                                reserved: packet.reserved,
                                target_idx: target_idx as u16,
                                passthrough: pspec.passthrough,
                                priority: qos.priority(packet.flow),
                                has_credit,
                            });
                        }
                    }
                    requests
                } else {
                    std::mem::take(&mut router.alloc_buckets[oi])
                };
                if requests.is_empty() {
                    if !reference {
                        self.routers[ri].alloc_buckets[oi] = requests;
                    }
                    continue;
                }
                // Pass-through merge points (DPS intermediate hops) arbitrate
                // with the same rate-scaled priorities as everywhere else: in
                // hardware the priority travels with the packet (PVC's
                // priority reuse), so no flow-state query is needed there and
                // none is charged to the energy counters.
                self.profile.outputs_arbitrated += 1;
                let n = requests.len();
                let rr = router.outputs[oi].rr_cursor;
                // Round-robin distance from the cursor. Equivalent to
                // `(idx + n - rr % n) % n`, with the per-request modulo
                // replaced by a conditional subtract (idx and rr_mod are both
                // below n, so the sum is below 2n).
                let rr_mod = rr % n.max(1);
                // Winner and probe-contender selection. The reference engine
                // evaluated priorities and credit during its gather; the
                // optimized engine resolves both here in one read-only pass
                // over the persistent request list (same values, same program
                // point — grants at earlier outputs are already visible).
                // `blocked_idx` mirrors `filter(!has_credit).min_by_key
                // (priority)`: the first blocked request of minimal priority.
                let mut winner_idx: Option<usize> = None;
                let mut winner_key = (u64::MAX, usize::MAX);
                let mut blocked_idx: Option<usize> = None;
                let mut blocked_priority = u64::MAX;
                for (idx, req) in requests.iter().enumerate() {
                    let (priority, has_credit) = if reference {
                        (req.priority, req.has_credit)
                    } else {
                        // Priorities only move when this router forwards a
                        // packet or a frame rolls over; within an epoch the
                        // memoised value is exact, saving the virtual call
                        // and f64 division for flows that re-arbitrate.
                        let priority = cached_priority(router, &**qos, req.flow);
                        let has_credit = router.outputs[oi].targets[req.target_idx as usize]
                            .has_credit(req.reserved);
                        (priority, has_credit)
                    };
                    if has_credit {
                        let distance = idx + n - rr_mod;
                        let distance = if distance >= n {
                            distance - n
                        } else {
                            distance
                        };
                        if (priority, distance) < winner_key {
                            winner_key = (priority, distance);
                            winner_idx = Some(idx);
                        }
                    } else if blocked_idx.is_none() || priority < blocked_priority {
                        blocked_idx = Some(idx);
                        blocked_priority = priority;
                    }
                }

                if let Some(widx) = winner_idx {
                    let req = &requests[widx];
                    let out_state = &mut router.outputs[oi];
                    let (to_vc, to_vc_reserved) = out_state.targets[req.target_idx as usize]
                        .claim(req.reserved)
                        // taqos-lint: allow(panic-path) -- has_credit was checked when the request was filed
                        .expect("credit was checked");
                    let ospec = &rspec.outputs[oi];
                    let target = &ospec.targets[req.target_idx as usize];
                    let router_latency = if req.passthrough {
                        1
                    } else {
                        rspec.va_latency + rspec.xt_latency
                    };
                    // Per-packet flit-maturation template: every non-head
                    // flit of this transfer schedules a copy of this event.
                    let body_event = match target.endpoint {
                        TargetEndpoint::Router { router, in_port } => Event::BodyToRouter {
                            router: router as u32,
                            in_port: in_port.0 as u16,
                            vc: to_vc,
                            packet: req.packet,
                        },
                        TargetEndpoint::Sink { sink } => Event::FlitToSink {
                            sink: sink as u32,
                            slot: to_vc,
                            is_head: false,
                            is_tail: false,
                            packet: req.packet,
                        },
                    };
                    out_state.granted.push(Transfer {
                        packet: req.packet,
                        flow: req.flow,
                        len: req.len,
                        from_port: InPortId(req.in_port as usize),
                        from_vc: VcId(req.vc),
                        target_idx: req.target_idx as usize,
                        endpoint: target.endpoint,
                        to_vc,
                        to_vc_reserved,
                        flits_launched: 0,
                        launch_start: self.now + Cycle::from(router_latency),
                        wire_delay: target.wire_delay,
                        passthrough: req.passthrough,
                        body_event,
                    });
                    out_state.rr_cursor = widx + 1;
                    let (grant_cycle, grant_flow, grant_packet) = (self.now, req.flow, req.packet);
                    self.trace.emit(|| TraceEvent::Grant {
                        cycle: grant_cycle,
                        flow: u64::from(grant_flow.0),
                        packet: grant_packet.0,
                        router: ri as u64,
                        out_port: oi as u64,
                    });
                    if let Some(mask) = router.granted_mask.as_mut() {
                        *mask |= 1 << oi;
                    }
                    mark_router(&mut self.launch_work, ri);
                    // taqos-lint: allow(panic-index) -- request coordinates were recorded from an enumeration of these vectors
                    router.inputs[req.in_port as usize].vcs[req.vc as usize].set_granted();
                    // Flow-state bookkeeping. Pass-through hops skip the
                    // energy cost of the query/update but still account the
                    // bandwidth so preemption decisions stay meaningful.
                    qos.on_packet_forwarded(req.flow, u32::from(req.len));
                    if !reference {
                        // A grant moves only this flow's priority; refresh
                        // its cache entry and leave the rest valid.
                        // taqos-lint: allow(panic-index) -- the cache is sized to num_flows at construction and flow ids are validated against it
                        router.priority_cache[req.flow.index()] = crate::router::PriorityMemo {
                            value: qos.priority(req.flow),
                            epoch: router.priority_epoch,
                        };
                    }
                    if !req.passthrough {
                        self.stats.energy.flow_table_queries += 1;
                        self.stats.energy.flow_table_updates += 1;
                    }
                    if !reference {
                        // The packet holds a grant now; retire its entry from
                        // the persistent request list. A grant invalidates
                        // exactly this output (its credits were claimed, its
                        // grant queue grew, its cursor moved) plus every
                        // output holding a request of the forwarded flow —
                        // `on_packet_forwarded` moves only that flow's
                        // priority (the `RouterQos` contract), so the other
                        // outputs' blocked verdicts still stand.
                        // taqos-lint: allow(panic-index) -- widx is the winner's position found by the scan over this list
                        let granted_flow = requests[widx].flow;
                        requests.remove(widx);
                        if requests.is_empty() {
                            if let Some(mask) = router.alloc_pending.as_mut() {
                                *mask &= !(1 << oi);
                            }
                        }
                        if router.alloc_dirty.is_some() {
                            let mut dirty = 1u64 << oi;
                            for (oj, bucket) in router.alloc_buckets.iter().enumerate() {
                                if bucket.iter().any(|r| r.flow == granted_flow) {
                                    dirty |= 1 << oj;
                                }
                            }
                            if let Some(mask) = router.alloc_dirty.as_mut() {
                                *mask |= dirty;
                            }
                        }
                    }
                } else {
                    // Everyone is blocked on buffer space: probe the most
                    // deserving blocked request's target for a lower-priority
                    // victim (priority inversion resolution).
                    let mut probe = None;
                    if preemption {
                        if let Some(bidx) = blocked_idx {
                            let req = &requests[bidx];
                            let ospec = &rspec.outputs[oi];
                            let target = &ospec.targets[req.target_idx as usize];
                            if let TargetEndpoint::Router { router, in_port } = target.endpoint {
                                probe = Some(Event::PreemptionProbe {
                                    router: router as u32,
                                    in_port: in_port.0 as u16,
                                    contender: req.flow,
                                });
                            }
                        }
                        if let Some(probe) = probe {
                            self.events.schedule(self.now + 1, probe);
                        }
                    }
                    if !reference {
                        // Blocked with no state change pending: mark the
                        // output clean and remember the probe to replay.
                        if let Some(mask) = router.alloc_dirty.as_mut() {
                            *mask &= !(1 << oi);
                        }
                        router.cached_probe[oi] = probe;
                    }
                }
                if !reference {
                    self.routers[ri].alloc_buckets[oi] = requests;
                }
            }
        }
        self.router_scan = scan;
    }

    // taqos-lint: hot
    fn phase_launch(&mut self) {
        let now = self.now;
        let skip_idle = !self.config.engine.is_reference();
        // Whether any fault plan is live this cycle, hoisted so the
        // per-launch fault interception block is only entered when one is.
        let faults_on = self.fault.as_ref().is_some_and(|f| f.any_active());
        // Active-set fast path: only routers holding granted transfers can
        // launch, and those are tracked in the contiguous `launch_work`
        // mask (within a router, `granted_mask` then walks the granted
        // outputs, falling back to the occupied-VC check for >64-output
        // routers).
        let mut scan = std::mem::take(&mut self.router_scan);
        if skip_idle {
            scan_routers(&self.launch_work, &mut scan);
        } else {
            scan.clear();
            scan.extend(0..self.routers.len() as u32);
        }
        for &ri in &scan {
            let ri = ri as usize;
            if skip_idle {
                // taqos-lint: allow(panic-index) -- scan holds indices of routers whose mask bit was set, all in bounds
                let idle = match self.routers[ri].granted_mask {
                    Some(0) => true,
                    Some(_) => false,
                    // taqos-lint: allow(panic-index) -- same bound as the granted_mask read above
                    None => self.routers[ri].active_vcs == 0,
                };
                if idle {
                    // Stale-set bit (the last transfer completed since).
                    unmark_router(&mut self.launch_work, ri);
                    continue;
                }
            }
            // taqos-lint: allow(panic-index) -- scan holds indices of routers whose mask bit was set, all in bounds
            let router = &mut self.routers[ri];
            // Crossbar input groups already used this cycle (bitmask).
            let mut xbar_used: u64 = 0;
            // Walk either the set bits of the granted mask (ascending, the
            // same order as the linear scan) or every output.
            let mask = if skip_idle { router.granted_mask } else { None };
            let mut mask_bits = mask.unwrap_or(0);
            let mut linear_oi = 0;
            loop {
                let oi = if mask.is_some() {
                    if mask_bits == 0 {
                        break;
                    }
                    let oi = mask_bits.trailing_zeros() as usize;
                    mask_bits &= mask_bits - 1;
                    oi
                } else {
                    if linear_oi >= router.outputs.len() {
                        break;
                    }
                    linear_oi += 1;
                    linear_oi - 1
                };
                let out_state = &mut router.outputs[oi];
                if out_state.granted.is_empty() || out_state.link_free_at > now {
                    continue;
                }
                let transfer = &out_state.granted[0];
                if transfer.launch_start > now {
                    continue;
                }
                let from_port = transfer.from_port.0;
                let from_vc = transfer.from_vc.index();
                let passthrough = transfer.passthrough;
                // taqos-lint: allow(panic-index) -- xbar_groups is built 1:1 with the router's input ports
                let group = router.xbar_groups[from_port];
                if !passthrough && (xbar_used >> group) & 1 == 1 {
                    continue;
                }
                let sendable = router.inputs[from_port].vcs[from_vc].sendable_flits();
                if sendable == 0 {
                    continue;
                }

                // Injected faults intercept whole packets at head launch: a
                // dead output link, a dead router at either end of it, or a
                // corrupted head flit kills the transfer before anything
                // reaches the wire. The drop has whole-packet (virtual
                // cut-through) granularity and fires only once every flit is
                // buffered at this router, so no body flit is ever in flight
                // towards a VC released here; a hard fault simply holds the
                // head until the packet is fully resident. The claimed
                // resources are released exactly as a completed transfer's
                // would be, and the packet is NACKed back to its source —
                // or abandoned once the fault retransmit budget is spent.
                if let Some(fault) = self.fault.as_ref().filter(|_| faults_on) {
                    let transfer = &out_state.granted[0];
                    if transfer.flits_launched == 0 {
                        let dest_router_dead = match transfer.endpoint {
                            TargetEndpoint::Router { router, .. } => fault.router_dead(router),
                            TargetEndpoint::Sink { .. } => false,
                        };
                        let hard =
                            fault.router_dead(ri) || dest_router_dead || fault.link_dead(ri, oi);
                        let resident =
                            router.inputs[from_port].vcs[from_vc].flits_arrived >= transfer.len;
                        if hard && !resident {
                            continue;
                        }
                        let corrupt = !hard
                            && resident
                            && fault.corrupts(now, ri, oi, transfer.flow.index() as u64);
                        if hard || corrupt {
                            if corrupt {
                                self.stats.fault.corruption_drops += 1;
                            } else if fault.router_dead(ri) || dest_router_dead {
                                self.stats.fault.router_drops += 1;
                            } else {
                                self.stats.fault.link_drops += 1;
                            }
                            let transfer = out_state.granted.remove(0);
                            // No flit will ever consume the downstream VC
                            // claimed at grant time: refund its credit here.
                            out_state.targets[transfer.target_idx]
                                .refund(transfer.to_vc, transfer.to_vc_reserved);
                            if out_state.granted.is_empty() {
                                if let Some(mask) = router.granted_mask.as_mut() {
                                    *mask &= !(1 << oi);
                                }
                            }
                            if let Some(mask) = router.alloc_dirty.as_mut() {
                                *mask |= 1 << oi;
                            }
                            let port = &mut router.inputs[from_port];
                            let vc_state = &mut port.vcs[from_vc];
                            let was_reserved_vc = vc_state.reserved_vc();
                            vc_state.release();
                            port.occupied -= 1;
                            router.active_vcs -= 1;
                            match router.inputs[from_port].feeder {
                                Some(Feeder::RouterOutput {
                                    router: fr,
                                    out_port: fo,
                                    target_idx: ft,
                                }) => {
                                    self.events.schedule(
                                        now + self.config.credit_delay,
                                        Event::CreditToRouter {
                                            router: fr as u32,
                                            out_port: fo as u16,
                                            target_idx: ft as u16,
                                            vc: VcId(from_vc as u16),
                                            reserved_vc: was_reserved_vc,
                                        },
                                    );
                                }
                                Some(Feeder::Source { source }) => {
                                    self.events.schedule(
                                        now + self.config.credit_delay,
                                        Event::CreditToSource {
                                            source: source as u32,
                                            vc: VcId(from_vc as u16),
                                        },
                                    );
                                }
                                None => {}
                            }
                            // Bounce the packet: NACK for a fabric
                            // retransmission, or — once the fault budget is
                            // burned — abandon it (acknowledge and remove
                            // without delivery) so NACK loops against dead
                            // hardware terminate.
                            let budget = fault.retransmit_budget();
                            let (pkt_flow, pkt_src, pkt_origin, drops) = {
                                let packet = self
                                    .packets
                                    .get_mut(transfer.packet)
                                    // taqos-lint: allow(panic-path) -- fault drops target in-flight packets only
                                    .expect("dropped packet must be live");
                                packet.fault_drops += 1;
                                (
                                    packet.flow,
                                    packet.src,
                                    packet.origin_source,
                                    packet.fault_drops,
                                )
                            };
                            let hops = pkt_src.column_distance(router.node);
                            let source = pkt_origin
                                .map(|s| s as usize)
                                .unwrap_or_else(|| self.flow_to_source[pkt_flow.index()])
                                as u32;
                            let due = now + self.config.ack_latency(hops);
                            if drops > budget {
                                self.stats.fault.abandoned_packets += 1;
                                self.events.schedule(
                                    due,
                                    Event::Ack {
                                        source,
                                        packet: transfer.packet,
                                    },
                                );
                            } else {
                                self.events.schedule(
                                    due,
                                    Event::Nack {
                                        source,
                                        packet: transfer.packet,
                                    },
                                );
                            }
                            continue;
                        }
                    }
                }

                // Launch one flit.
                let transfer = &mut out_state.granted[0];
                let flit_idx = transfer.flits_launched;
                let is_head = flit_idx == 0;
                let is_tail = flit_idx + 1 == transfer.len;
                transfer.flits_launched += 1;
                out_state.link_free_at = now + 1;
                out_state.flits_launched_total += 1;
                router.inputs[from_port].vcs[from_vc].flits_sent += 1;

                self.stats.energy.buffer_reads += 1;
                self.stats.energy.link_flit_hops += u64::from(transfer.wire_delay);
                if !passthrough {
                    xbar_used |= 1 << group;
                    self.stats.energy.xbar_flits += 1;
                }

                let due = now + Cycle::from(transfer.wire_delay);
                let event = match transfer.endpoint {
                    TargetEndpoint::Router { router, in_port } => {
                        if is_head {
                            Event::HeadToRouter {
                                router: router as u32,
                                in_port: in_port.0 as u16,
                                vc: transfer.to_vc,
                                len: transfer.len,
                                packet: transfer.packet,
                            }
                        } else {
                            // Body and tail flits replay the per-packet
                            // template built at grant time.
                            transfer.body_event
                        }
                    }
                    TargetEndpoint::Sink { sink } => {
                        if is_head || is_tail {
                            Event::FlitToSink {
                                sink: sink as u32,
                                slot: transfer.to_vc,
                                is_head,
                                is_tail,
                                packet: transfer.packet,
                            }
                        } else {
                            transfer.body_event
                        }
                    }
                };
                self.events.schedule(due, event);

                // Transfer complete: free the upstream VC and return its
                // credit to whoever feeds it.
                if out_state.granted[0].is_complete() {
                    out_state.granted.remove(0);
                    if out_state.granted.is_empty() {
                        if let Some(mask) = router.granted_mask.as_mut() {
                            *mask &= !(1 << oi);
                        }
                    }
                    // The grant queue shrank: `can_grant` may flip, so the
                    // output's arbitration decision is stale.
                    if let Some(mask) = router.alloc_dirty.as_mut() {
                        *mask |= 1 << oi;
                    }
                    let port = &mut router.inputs[from_port];
                    let vc_state = &mut port.vcs[from_vc];
                    let was_reserved_vc = vc_state.reserved_vc();
                    vc_state.release();
                    port.occupied -= 1;
                    router.active_vcs -= 1;
                    match router.inputs[from_port].feeder {
                        Some(Feeder::RouterOutput {
                            router: fr,
                            out_port: fo,
                            target_idx: ft,
                        }) => {
                            self.events.schedule(
                                now + self.config.credit_delay,
                                Event::CreditToRouter {
                                    router: fr as u32,
                                    out_port: fo as u16,
                                    target_idx: ft as u16,
                                    vc: VcId(from_vc as u16),
                                    reserved_vc: was_reserved_vc,
                                },
                            );
                        }
                        Some(Feeder::Source { source }) => {
                            self.events.schedule(
                                now + self.config.credit_delay,
                                Event::CreditToSource {
                                    source: source as u32,
                                    vc: VcId(from_vc as u16),
                                },
                            );
                        }
                        None => {}
                    }
                }
            }
        }
        self.router_scan = scan;
    }

    // taqos-lint: hot
    fn handle_preemption_probe(&mut self, router: usize, in_port: usize, contender: FlowId) {
        let node = self.routers[router].node;
        // Victim candidates are gathered into a reusable buffer: under
        // saturation a probe fires for every blocked output every cycle, so
        // this path must not allocate. The reference engine allocates a
        // fresh vector per probe, as the seed did.
        let mut candidates = if self.config.engine.is_reference() {
            // taqos-lint: allow(hot-alloc) -- reference engine allocates per probe, as the seed did
            Vec::new()
        } else {
            std::mem::take(&mut self.probe_scratch)
        };
        candidates.clear();
        for vc in &self.routers[router].inputs[in_port].vcs {
            if vc.is_resident_idle() {
                // taqos-lint: allow(panic-path) -- is_resident_idle implies an occupant
                let pid = vc.packet().expect("resident VC has a packet");
                if let Some(packet) = self.packets.hot(pid) {
                    candidates.push((pid, packet.flow, packet.reserved));
                }
            }
        }
        if candidates.is_empty() {
            self.probe_scratch = candidates;
            return;
        }
        let victim = if self.config.engine.is_reference() {
            self.qos[router].select_victim(contender, &candidates)
        } else {
            // Annotate candidates with memoised priorities so the policy's
            // victim choice needs no per-probe priority recomputation.
            let mut prioritized = std::mem::take(&mut self.probe_prioritized_scratch);
            prioritized.clear();
            for &(pid, flow, reserved) in &candidates {
                let priority = cached_priority(&mut self.routers[router], &*self.qos[router], flow);
                prioritized.push((pid, flow, reserved, priority));
            }
            let contender_priority =
                cached_priority(&mut self.routers[router], &*self.qos[router], contender);
            let victim = self.qos[router].select_victim_prioritized(
                contender,
                contender_priority,
                &prioritized,
            );
            self.probe_prioritized_scratch = prioritized;
            victim
        };
        self.probe_scratch = candidates;
        let Some(victim_id) = victim else {
            return;
        };
        // Locate and flush the victim VC.
        let port = &mut self.routers[router].inputs[in_port];
        let Some(vc_idx) = port
            .vcs
            .iter()
            .position(|vc| vc.packet() == Some(victim_id) && vc.is_resident_idle())
        else {
            return;
        };
        // taqos-lint: allow(panic-index) -- vc_idx was just produced by position() over this vector
        let was_reserved_vc = port.vcs[vc_idx].reserved_vc();
        // A victim can be flushed in the event phase of the same cycle its
        // head arrived, i.e. before the routing phase ran; keep the
        // unrouted bookkeeping exact in that case.
        // taqos-lint: allow(panic-index) -- vc_idx was just produced by position() over this vector
        let victim_route = port.vcs[vc_idx].route();
        port.vcs[vc_idx].release();
        port.occupied -= 1;
        if victim_route.is_none() {
            port.unrouted -= 1;
        }
        let feeder = port.feeder;
        let router_state = &mut self.routers[router];
        router_state.active_vcs -= 1;
        match victim_route {
            None => router_state.unrouted_vcs -= 1,
            Some(out) if !self.config.engine.is_reference() => {
                // Routed but never granted: the victim still sits in its
                // output's persistent request list; retire the entry and
                // invalidate that output's cached decision.
                let bucket = &mut router_state.alloc_buckets[out.0];
                let pos = bucket
                    .binary_search_by_key(&(in_port as u16, vc_idx as u16), |r| (r.in_port, r.vc))
                    // taqos-lint: allow(panic-path) -- routed non-reference VCs always have a filed request
                    .expect("preempted packet must have a pending request");
                bucket.remove(pos);
                if bucket.is_empty() {
                    if let Some(mask) = router_state.alloc_pending.as_mut() {
                        *mask &= !(1 << out.0);
                    }
                }
                if let Some(mask) = router_state.alloc_dirty.as_mut() {
                    *mask |= 1 << out.0;
                }
            }
            Some(_) => {}
        }

        // As in delivery, only scalar fields of the victim are needed.
        let (victim_flow, victim_src, victim_origin) = {
            let victim = self
                .packets
                .get(victim_id)
                // taqos-lint: allow(panic-path) -- preemption victims are chosen from live residents
                .expect("victim packet must be live");
            (victim.flow, victim.src, victim.origin_source)
        };
        let wasted_hops = victim_src.column_distance(node);
        self.stats.record_preemption(victim_flow, wasted_hops);
        let cycle = self.now;
        self.trace.emit(|| TraceEvent::Preempt {
            cycle,
            flow: u64::from(victim_flow.0),
            packet: victim_id.0,
            router: router as u64,
        });

        // Return the freed buffer to the upstream channel so the contender
        // can claim it.
        match feeder {
            Some(Feeder::RouterOutput {
                router: fr,
                out_port: fo,
                target_idx: ft,
            }) => {
                self.events.schedule(
                    self.now + self.config.credit_delay,
                    Event::CreditToRouter {
                        router: fr as u32,
                        out_port: fo as u16,
                        target_idx: ft as u16,
                        vc: VcId(vc_idx as u16),
                        reserved_vc: was_reserved_vc,
                    },
                );
            }
            Some(Feeder::Source { source }) => {
                self.events.schedule(
                    self.now + self.config.credit_delay,
                    Event::CreditToSource {
                        source: source as u32,
                        vc: VcId(vc_idx as u16),
                    },
                );
            }
            None => {}
        }

        // NACK the injecting source over the ACK network; it will retransmit
        // (for closed-loop replies, the controller's source).
        let source = victim_origin
            .map(|s| s as usize)
            .unwrap_or_else(|| self.flow_to_source[victim_flow.index()]);
        self.events.schedule(
            self.now + self.config.ack_latency(wasted_hops),
            Event::Nack {
                source: source as u32,
                packet: victim_id,
            },
        );
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("topology", &self.spec.name)
            .field("policy", &self.policy.name())
            .field("now", &self.now)
            .field("routers", &self.routers.len())
            .field("sources", &self.sources.len())
            .field("sinks", &self.sinks.len())
            .field("live_packets", &self.packets.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Direction, NodeId, OutPortId};
    use crate::packet::{GeneratedPacket, PacketGenerator};
    use crate::qos::FifoPolicy;
    use crate::spec::{
        InputPortSpec, OutputPortSpec, RouterSpec, SinkSpec, SourceSpec, TargetSpec, VcConfig,
    };
    use std::collections::BTreeMap;

    /// Generator producing a fixed number of single-flit packets, one every
    /// `gap` cycles.
    struct BurstGenerator {
        dst: NodeId,
        remaining: u32,
        gap: u64,
        len: u8,
    }

    impl PacketGenerator for BurstGenerator {
        fn generate(&mut self, now: Cycle) -> Option<GeneratedPacket> {
            if self.remaining == 0 || !now.is_multiple_of(self.gap) {
                return None;
            }
            self.remaining -= 1;
            Some(GeneratedPacket {
                dst: self.dst,
                len_flits: self.len,
                class: crate::packet::PacketClass::Request,
            })
        }

        fn exhausted(&self) -> bool {
            self.remaining == 0
        }
    }

    /// Two-router chain: source at node 0 sends to the sink at node 1.
    fn chain_spec_with(injection_vcs: u8) -> NetworkSpec {
        let r0 = RouterSpec {
            node: NodeId(0),
            inputs: vec![InputPortSpec::injection(
                "term",
                VcConfig::new(injection_vcs, 4),
                0,
            )],
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
            route_table: BTreeMap::from([(NodeId(1), vec![OutPortId(0)])]),
            va_latency: 1,
            xt_latency: 1,
        };
        let r1 = RouterSpec {
            node: NodeId(1),
            inputs: vec![InputPortSpec::network(
                "north",
                NodeId(0),
                Direction::South,
                0,
                VcConfig::new(2, 4),
                0,
            )],
            outputs: vec![OutputPortSpec::ejection("eject", 0, 0)],
            route_table: BTreeMap::from([(NodeId(1), vec![OutPortId(0)])]),
            va_latency: 1,
            xt_latency: 1,
        };
        NetworkSpec {
            name: "chain".to_string(),
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

    fn chain_spec() -> NetworkSpec {
        chain_spec_with(1)
    }

    fn build_chain(count: u32, gap: u64, len: u8) -> Network {
        build_chain_with(chain_spec(), count, gap, len)
    }

    fn build_chain_with(spec: NetworkSpec, count: u32, gap: u64, len: u8) -> Network {
        let generators: Vec<Box<dyn PacketGenerator>> = vec![Box::new(BurstGenerator {
            dst: NodeId(1),
            remaining: count,
            gap,
            len,
        })];
        Network::new(
            spec,
            Box::new(FifoPolicy::new()),
            generators,
            SimConfig::default(),
        )
        .expect("chain network builds")
    }

    #[test]
    fn single_packet_is_delivered_with_expected_latency() {
        let mut net = build_chain(1, 1, 1);
        for _ in 0..100 {
            net.step();
            if net.is_quiescent() {
                break;
            }
        }
        assert!(net.is_quiescent(), "packet should be delivered and acked");
        let stats = net.into_stats();
        assert_eq!(stats.delivered_packets, 1);
        assert_eq!(stats.delivered_flits, 1);
        assert_eq!(stats.latency_samples, 1);
        // Birth -> injection (1 cycle) -> router 0 pipeline (2) -> wire (1)
        // -> router 1 pipeline (2) -> ejection. The exact constant is not the
        // point; it must be small and deterministic.
        assert!(stats.avg_latency() >= 5.0);
        assert!(
            stats.avg_latency() <= 12.0,
            "latency {}",
            stats.avg_latency()
        );
        assert_eq!(stats.useful_hops, 1);
        assert_eq!(stats.preemption_events, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut net = build_chain(50, 3, 2);
            for _ in 0..2_000 {
                net.step();
                if net.is_quiescent() {
                    break;
                }
            }
            let stats = net.into_stats();
            (stats.delivered_packets, stats.latency_sum, stats.cycles)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn all_packets_of_a_burst_are_delivered() {
        let mut net = build_chain(200, 1, 1);
        for _ in 0..5_000 {
            net.step();
            if net.is_quiescent() {
                break;
            }
        }
        assert!(net.is_quiescent(), "burst should drain");
        let stats = net.into_stats();
        assert_eq!(stats.delivered_packets, 200);
        assert_eq!(stats.generated_packets, 200);
        assert_eq!(stats.flows[0].delivered_packets, 200);
    }

    #[test]
    fn multi_flit_packets_account_all_flits() {
        let mut net = build_chain(10, 5, 4);
        for _ in 0..2_000 {
            net.step();
            if net.is_quiescent() {
                break;
            }
        }
        assert!(net.is_quiescent());
        let stats = net.into_stats();
        assert_eq!(stats.delivered_packets, 10);
        assert_eq!(stats.delivered_flits, 40);
        // Every flit is written once at the injection port, once at the
        // downstream router; read twice (once per launch).
        assert_eq!(stats.energy.buffer_writes, 80);
        assert_eq!(stats.energy.buffer_reads, 80);
        assert_eq!(stats.energy.xbar_flits, 80);
    }

    /// Three-router spec where router 0 drives a MECS-style multidrop channel
    /// whose two targets are routers 1 and 2 (wire delays 1 and 2); each
    /// downstream router ejects into its own sink.
    fn multidrop_spec() -> NetworkSpec {
        let vcs = VcConfig::new(4, 4);
        let downstream = |node: u16| RouterSpec {
            node: NodeId(node),
            inputs: vec![InputPortSpec::network(
                "from_n0",
                NodeId(0),
                Direction::South,
                0,
                vcs,
                0,
            )],
            outputs: vec![OutputPortSpec::ejection("eject", (node - 1) as usize, 0)],
            route_table: BTreeMap::from([(NodeId(node), vec![OutPortId(0)])]),
            va_latency: 2,
            xt_latency: 1,
        };
        let r0 = RouterSpec {
            node: NodeId(0),
            inputs: vec![InputPortSpec::injection("term", VcConfig::new(2, 4), 0)],
            outputs: vec![OutputPortSpec::network(
                "mecs_south",
                Direction::South,
                0,
                vec![
                    TargetSpec::covering(
                        TargetEndpoint::Router {
                            router: 1,
                            in_port: InPortId(0),
                        },
                        1,
                        vec![NodeId(1)],
                    ),
                    TargetSpec::covering(
                        TargetEndpoint::Router {
                            router: 2,
                            in_port: InPortId(0),
                        },
                        2,
                        vec![NodeId(2)],
                    ),
                ],
            )],
            route_table: BTreeMap::from([
                (NodeId(1), vec![OutPortId(0)]),
                (NodeId(2), vec![OutPortId(0)]),
            ]),
            va_latency: 2,
            xt_latency: 1,
        };
        NetworkSpec {
            name: "multidrop".to_string(),
            routers: vec![r0, downstream(1), downstream(2)],
            sources: vec![SourceSpec {
                flow: FlowId(0),
                node: NodeId(0),
                router: 0,
                in_port: InPortId(0),
                name: "n0.term".to_string(),
                window: 8,
            }],
            sinks: vec![
                SinkSpec {
                    node: NodeId(1),
                    name: "n1.sink".to_string(),
                    slots: 2,
                },
                SinkSpec {
                    node: NodeId(2),
                    name: "n2.sink".to_string(),
                    slots: 2,
                },
            ],
            flit_bytes: 16,
        }
    }

    /// Generator alternating between two fixed destinations.
    struct AlternatingGenerator {
        destinations: Vec<NodeId>,
        remaining: u32,
        next: usize,
    }

    impl PacketGenerator for AlternatingGenerator {
        fn generate(&mut self, _now: Cycle) -> Option<GeneratedPacket> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            let dst = self.destinations[self.next % self.destinations.len()];
            self.next += 1;
            Some(GeneratedPacket {
                dst,
                len_flits: 1,
                class: crate::packet::PacketClass::Request,
            })
        }

        fn exhausted(&self) -> bool {
            self.remaining == 0
        }
    }

    #[test]
    fn multidrop_channels_deliver_to_the_right_drop_off_point() {
        // A MECS-style point-to-multipoint channel must steer each packet to
        // the target covering its destination, sharing one physical channel.
        let generators: Vec<Box<dyn PacketGenerator>> = vec![Box::new(AlternatingGenerator {
            destinations: vec![NodeId(1), NodeId(2)],
            remaining: 40,
            next: 0,
        })];
        let mut net = Network::new(
            multidrop_spec(),
            Box::new(FifoPolicy::new()),
            generators,
            SimConfig::default(),
        )
        .expect("multidrop network builds");
        for _ in 0..3_000 {
            net.step();
            if net.is_quiescent() {
                break;
            }
        }
        assert!(net.is_quiescent(), "all packets should be delivered");
        let stats = net.into_stats();
        assert_eq!(stats.delivered_packets, 40);
        // Both destinations received their half of the traffic: each packet
        // travelled exactly one hop (to node 1) or two hop-equivalents (to
        // node 2), so total useful hops are 20*1 + 20*2.
        assert_eq!(stats.useful_hops, 60);
        // The farther drop-off point pays the longer wire: total link
        // flit-hops are 20*1 + 20*2 as well.
        assert_eq!(stats.energy.link_flit_hops, 60);
    }

    #[test]
    fn throughput_saturates_near_link_rate() {
        // Offered load far exceeds the single-channel capacity. With two
        // injection VCs and long packets the channel pipelines back-to-back
        // transfers, so accepted throughput must approach (and never exceed)
        // one flit per cycle.
        let mut net = build_chain_with(chain_spec_with(2), 10_000, 1, 4);
        net.run_for(3_000);
        let delivered = net.delivered_flits();
        assert!(delivered > 2_300, "delivered only {delivered} flits");
        assert!(delivered <= 3_000);
    }

    /// Two routers wired in both directions, a source and a sink at each
    /// node: the smallest fabric on which a request/reply round trip runs.
    fn bidirectional_spec() -> NetworkSpec {
        let vcs = VcConfig::new(4, 4);
        let router = |node: u16, peer: u16| RouterSpec {
            node: NodeId(node),
            inputs: vec![
                InputPortSpec::injection("term", VcConfig::new(2, 4), 0),
                InputPortSpec::network(
                    "in",
                    NodeId(peer),
                    if node == 1 {
                        Direction::South
                    } else {
                        Direction::North
                    },
                    0,
                    vcs,
                    1,
                ),
            ],
            outputs: vec![
                OutputPortSpec::network(
                    "out",
                    if node == 0 {
                        Direction::South
                    } else {
                        Direction::North
                    },
                    0,
                    vec![TargetSpec::single(
                        TargetEndpoint::Router {
                            router: peer as usize,
                            in_port: InPortId(1),
                        },
                        1,
                    )],
                ),
                OutputPortSpec::ejection("eject", node as usize, 0),
            ],
            route_table: BTreeMap::from([
                (NodeId(peer), vec![OutPortId(0)]),
                (NodeId(node), vec![OutPortId(1)]),
            ]),
            va_latency: 1,
            xt_latency: 1,
        };
        let source = |node: u16| SourceSpec {
            flow: FlowId(node),
            node: NodeId(node),
            router: node as usize,
            in_port: InPortId(0),
            name: format!("n{node}.term"),
            window: 8,
        };
        let sink = |node: u16| SinkSpec {
            node: NodeId(node),
            name: format!("n{node}.sink"),
            slots: 2,
        };
        NetworkSpec {
            name: "bidi".to_string(),
            routers: vec![router(0, 1), router(1, 0)],
            sources: vec![source(0), source(1)],
            sinks: vec![sink(0), sink(1)],
            flit_bytes: 16,
        }
    }

    fn closed_loop_network(mlp: usize, total: Option<u64>) -> Network {
        let generators: Vec<Box<dyn PacketGenerator>> = vec![
            Box::new(crate::packet::IdleGenerator),
            Box::new(crate::packet::IdleGenerator),
        ];
        let mut requester = crate::closed_loop::RequesterSpec::paper(NodeId(1), mlp);
        requester.total = total;
        let spec = crate::closed_loop::ClosedLoopSpec::new(2).with_requester(FlowId(0), requester);
        Network::new(
            bidirectional_spec(),
            Box::new(FifoPolicy::new()),
            generators,
            SimConfig::default(),
        )
        .expect("bidirectional network builds")
        .with_closed_loop(spec)
        .expect("closed loop installs")
    }

    #[test]
    fn closed_loop_round_trips_complete_and_conserve() {
        let mut net = closed_loop_network(2, Some(20));
        for _ in 0..5_000 {
            net.step();
            if net.is_quiescent() {
                break;
            }
        }
        assert!(net.is_quiescent(), "bounded closed loop should complete");
        let stats = net.into_stats();
        // 20 requests and 20 replies, all delivered.
        assert_eq!(stats.flows[0].issued_requests, 20);
        assert_eq!(stats.round_trips, 20);
        assert_eq!(stats.flows[0].round_trips, 20);
        assert_eq!(stats.delivered_packets, 40);
        // 20 single-flit requests + 20 four-flit replies.
        assert_eq!(stats.delivered_flits, 20 + 80);
        // Replies are generated at the controller's source but travel on the
        // requester's flow.
        assert_eq!(stats.flows[1].generated_packets, 20);
        assert_eq!(stats.flows[0].delivered_flits, 80 + 20);
        assert!(stats.avg_round_trip().expect("round trips measured") > 0.0);
        // The round trip covers both directions, so it exceeds the one-way
        // request latency.
        assert!(stats.avg_round_trip().unwrap() > stats.avg_latency());
    }

    #[test]
    fn mlp_window_self_limits_throughput() {
        let run = |mlp: usize| {
            let mut net = closed_loop_network(mlp, None);
            net.run_for(2_000);
            net.into_stats().round_trips
        };
        let shallow = run(1);
        let deep = run(4);
        assert!(shallow > 0, "even MLP 1 makes progress");
        assert!(
            deep > shallow,
            "a deeper window must sustain more round trips ({deep} vs {shallow})"
        );
    }

    #[test]
    fn closed_loop_rejects_mismatched_specs() {
        let generators: Vec<Box<dyn PacketGenerator>> = vec![
            Box::new(crate::packet::IdleGenerator),
            Box::new(crate::packet::IdleGenerator),
        ];
        let net = Network::new(
            bidirectional_spec(),
            Box::new(FifoPolicy::new()),
            generators,
            SimConfig::default(),
        )
        .expect("network builds");
        // Wrong flow count.
        assert!(net
            .with_closed_loop(crate::closed_loop::ClosedLoopSpec::new(1))
            .is_err());

        // A producing generator at the controller's source would starve the
        // reply port: rejected at install time.
        let generators: Vec<Box<dyn PacketGenerator>> = vec![
            Box::new(crate::packet::IdleGenerator),
            Box::new(BurstGenerator {
                dst: NodeId(0),
                remaining: 100,
                gap: 1,
                len: 1,
            }),
        ];
        let net = Network::new(
            bidirectional_spec(),
            Box::new(FifoPolicy::new()),
            generators,
            SimConfig::default(),
        )
        .expect("network builds");
        let spec = crate::closed_loop::ClosedLoopSpec::new(2).with_requester(
            FlowId(0),
            crate::closed_loop::RequesterSpec::paper(NodeId(1), 2),
        );
        assert!(net.with_closed_loop(spec).is_err());
    }

    fn closed_loop_dram_network(
        mlp: usize,
        total: Option<u64>,
        dram: crate::closed_loop::DramConfig,
    ) -> Network {
        let generators: Vec<Box<dyn PacketGenerator>> = vec![
            Box::new(crate::packet::IdleGenerator),
            Box::new(crate::packet::IdleGenerator),
        ];
        let mut requester = crate::closed_loop::RequesterSpec::paper(NodeId(1), mlp);
        requester.total = total;
        let spec = crate::closed_loop::ClosedLoopSpec::new(2)
            .with_requester(FlowId(0), requester)
            .with_dram(dram);
        Network::new(
            bidirectional_spec(),
            Box::new(FifoPolicy::new()),
            generators,
            SimConfig::default(),
        )
        .expect("bidirectional network builds")
        .with_closed_loop(spec)
        .expect("closed loop installs")
    }

    fn run_to_quiescence(net: &mut Network, max_cycles: u64) {
        for _ in 0..max_cycles {
            net.step();
            if net.is_quiescent() {
                return;
            }
        }
        panic!("closed loop did not complete within {max_cycles} cycles");
    }

    #[test]
    fn dram_service_time_extends_the_round_trip_exactly() {
        // One uncontended request: the DRAM-backed round trip is the instant
        // controller's round trip plus exactly one row-miss service latency
        // (a cold bank's first access always misses).
        let mut plain = closed_loop_network(1, Some(1));
        run_to_quiescence(&mut plain, 1_000);
        let plain = plain.into_stats();

        let dram = crate::closed_loop::DramConfig::paper().with_latencies(18, 48);
        let mut backed = closed_loop_dram_network(1, Some(1), dram);
        run_to_quiescence(&mut backed, 1_000);
        let backed = backed.into_stats();

        assert_eq!(backed.dram.serviced_requests, 1);
        assert_eq!(backed.dram.row_misses, 1);
        assert_eq!(backed.dram.row_hits, 0);
        assert_eq!(backed.dram.bank_busy_cycles, 48);
        assert_eq!(
            backed.avg_round_trip().expect("round trip measured"),
            plain.avg_round_trip().expect("round trip measured") + 48.0,
        );
    }

    #[test]
    fn row_buffer_hits_follow_the_open_row_deterministically() {
        // A single-bank controller with 4-line rows serving a strictly
        // sequential (MLP 1) stream of 8 lines: lines 0–3 share row 0 and
        // lines 4–7 share row 1, so exactly the two row openings miss.
        let dram = crate::closed_loop::DramConfig::paper()
            .with_banks(1)
            .with_lines_per_row(4);
        let mut net = closed_loop_dram_network(1, Some(8), dram);
        run_to_quiescence(&mut net, 5_000);
        let stats = net.into_stats();
        assert_eq!(stats.dram.serviced_requests, 8);
        assert_eq!(stats.dram.row_misses, 2);
        assert_eq!(stats.dram.row_hits, 6);
        assert_eq!(
            stats.dram.bank_busy_cycles,
            2 * dram.row_miss_latency + 6 * dram.row_hit_latency
        );
        assert_eq!(stats.dram.row_hit_rate(), Some(0.75));
        assert_eq!(stats.round_trips, 8);
    }

    #[test]
    fn full_queue_nacks_retry_and_still_conserve_round_trips() {
        // A one-entry queue in front of one slow bank, hammered through a
        // deep window: overflow requests are NACKed and retransmitted, yet
        // every request completes exactly one round trip and is counted as
        // delivered exactly once.
        let dram = crate::closed_loop::DramConfig::paper()
            .with_banks(1)
            .with_queue_depth(1)
            .with_latencies(40, 80);
        let mut net = closed_loop_dram_network(8, Some(20), dram);
        run_to_quiescence(&mut net, 50_000);
        // The sink counters agree with the stats: rejected arrivals are
        // discarded, not delivered, so both count each packet exactly once.
        // 20 single-flit requests + 20 four-flit replies.
        assert_eq!(net.delivered_flits(), 20 + 80);
        let stats = net.into_stats();
        assert!(
            stats.dram.rejected_requests > 0,
            "a 1-deep queue under MLP 8 must overflow"
        );
        assert_eq!(stats.flows[0].dram_rejections, stats.dram.rejected_requests);
        assert!(
            stats.flows[0].retransmissions >= stats.dram.rejected_requests,
            "every rejection forces a retransmission"
        );
        assert_eq!(stats.dram.stalled_requests, 0);
        assert_eq!(stats.round_trips, 20);
        assert_eq!(stats.dram.serviced_requests, 20);
        // 20 requests + 20 replies, each recorded delivered exactly once
        // (rejected arrivals are not deliveries).
        assert_eq!(stats.delivered_packets, 40);
        assert_eq!(stats.generated_packets, 40);
        assert!(stats.dram.max_queue_occupancy <= 1);
    }

    #[test]
    fn stall_backpressure_holds_credits_instead_of_nacking() {
        let dram = crate::closed_loop::DramConfig::paper()
            .with_banks(1)
            .with_queue_depth(1)
            .with_latencies(40, 80)
            .with_backpressure(crate::closed_loop::DramBackpressure::Stall);
        let mut net = closed_loop_dram_network(8, Some(20), dram);
        run_to_quiescence(&mut net, 50_000);
        let stats = net.into_stats();
        assert!(
            stats.dram.stalled_requests > 0,
            "a 1-deep queue under MLP 8 must stall arrivals"
        );
        assert_eq!(stats.dram.rejected_requests, 0);
        assert_eq!(
            stats.flows[0].retransmissions, 0,
            "stalling must not generate retry traffic"
        );
        assert_eq!(stats.round_trips, 20);
        assert_eq!(stats.delivered_packets, 40);
        assert!(stats.dram.avg_queue_wait().expect("requests waited") > 0.0);
    }

    #[test]
    fn closed_page_policy_pays_activate_plus_cas_on_every_access() {
        // The same 8-line sequential stream as the open-page test above:
        // under the closed-page policy nothing ever hits (the bank
        // auto-precharges), but every access costs only activate + CAS.
        let dram = crate::closed_loop::DramConfig::paper()
            .with_banks(1)
            .with_lines_per_row(4)
            .with_page_policy(crate::closed_loop::PagePolicy::Closed);
        let mut net = closed_loop_dram_network(1, Some(8), dram);
        run_to_quiescence(&mut net, 5_000);
        let stats = net.into_stats();
        assert_eq!(stats.dram.serviced_requests, 8);
        assert_eq!(stats.dram.row_hits, 0);
        assert_eq!(stats.dram.row_misses, 8);
        assert_eq!(stats.dram.row_hit_rate(), Some(0.0));
        assert_eq!(stats.dram.bank_busy_cycles, 8 * dram.closed_page_latency());
        assert_eq!(stats.round_trips, 8);
    }

    #[test]
    fn priority_schedulers_preserve_uncontended_timing_and_conservation() {
        // A single uncontended flow: FR-FCFS has nothing to reorder and
        // priority admission nothing to evict (a flow never outranks
        // itself), so round-trip timing matches FCFS exactly even though
        // delivery is deferred to service start — and a saturated one-entry
        // queue degrades to pure overflow NACKs, conserving every round
        // trip.
        let fcfs = crate::closed_loop::DramConfig::paper();
        let mut baseline = closed_loop_dram_network(1, Some(4), fcfs);
        run_to_quiescence(&mut baseline, 5_000);
        let baseline = baseline.into_stats();
        for scheduler in [
            crate::closed_loop::DramScheduler::PriorityAdmission,
            crate::closed_loop::DramScheduler::FrFcfs,
        ] {
            let mut net = closed_loop_dram_network(1, Some(4), fcfs.with_scheduler(scheduler));
            run_to_quiescence(&mut net, 5_000);
            let stats = net.into_stats();
            assert_eq!(
                stats.avg_round_trip(),
                baseline.avg_round_trip(),
                "{scheduler:?} changed uncontended round trips"
            );
            assert_eq!(stats.round_trips, 4);
            assert_eq!(stats.delivered_packets, 8);
        }
        let saturating = fcfs
            .with_banks(1)
            .with_queue_depth(1)
            .with_latencies(40, 80)
            .with_scheduler(crate::closed_loop::DramScheduler::PriorityAdmission);
        let mut net = closed_loop_dram_network(8, Some(20), saturating);
        run_to_quiescence(&mut net, 50_000);
        let stats = net.into_stats();
        assert!(stats.dram.rejected_requests > 0, "queue must overflow");
        assert_eq!(
            stats.dram.evicted_requests, 0,
            "a flow must not evict its own requests"
        );
        assert_eq!(stats.round_trips, 20);
        // Deferred delivery still records each request exactly once.
        assert_eq!(stats.delivered_packets, 40);
        assert_eq!(stats.generated_packets, 40);
        assert!(
            stats.flows[0].retransmissions >= stats.dram.rejected_requests,
            "every overflow NACK forces a retransmission"
        );
    }

    #[test]
    fn invalid_dram_config_is_rejected_at_install() {
        let generators: Vec<Box<dyn PacketGenerator>> = vec![
            Box::new(crate::packet::IdleGenerator),
            Box::new(crate::packet::IdleGenerator),
        ];
        let net = Network::new(
            bidirectional_spec(),
            Box::new(FifoPolicy::new()),
            generators,
            SimConfig::default(),
        )
        .expect("network builds");
        let spec = crate::closed_loop::ClosedLoopSpec::new(2)
            .with_requester(
                FlowId(0),
                crate::closed_loop::RequesterSpec::paper(NodeId(1), 2),
            )
            .with_dram(crate::closed_loop::DramConfig::paper().with_banks(0));
        assert!(net.with_closed_loop(spec).is_err());
    }

    #[test]
    fn single_injection_vc_serialises_injection() {
        // With a single injection VC a short packet occupies the VC for the
        // full pipeline plus credit turnaround, limiting accepted throughput
        // to roughly one packet every three cycles.
        let mut net = build_chain(10_000, 1, 1);
        net.run_for(3_000);
        let delivered = net.delivered_flits();
        assert!(delivered > 800, "delivered only {delivered} flits");
        assert!(delivered < 1_500, "delivered {delivered} flits");
    }

    // ---- Sleeping sources: wake-exactness -------------------------------

    /// FIFO arbitration with frames, so `schedule_reprogram` has a rollover
    /// to land on.
    struct FramedFifo(Cycle);

    impl QosPolicy for FramedFifo {
        fn name(&self) -> &str {
            "framed-fifo"
        }

        fn router_qos(
            &self,
            _spec: &crate::spec::RouterSpec,
            _num_flows: usize,
        ) -> Box<dyn RouterQos> {
            Box::new(crate::qos::FifoRouterQos)
        }

        fn frame_len(&self) -> Option<Cycle> {
            Some(self.0)
        }
    }

    /// The bidirectional closed loop on both engines: flow 0 requests from
    /// the controller at node 1.
    fn engine_pair(
        frame_len: Option<Cycle>,
        spec: &crate::closed_loop::ClosedLoopSpec,
    ) -> (Network, Network) {
        let build = |engine| {
            let generators: Vec<Box<dyn PacketGenerator>> = vec![
                Box::new(crate::packet::IdleGenerator),
                Box::new(crate::packet::IdleGenerator),
            ];
            let policy: Box<dyn QosPolicy> = match frame_len {
                Some(len) => Box::new(FramedFifo(len)),
                None => Box::new(FifoPolicy::new()),
            };
            Network::new(
                bidirectional_spec(),
                policy,
                generators,
                SimConfig::default().with_engine(engine),
            )
            .expect("bidirectional network builds")
            .with_closed_loop(spec.clone())
            .expect("closed loop installs")
        };
        (
            build(crate::config::EngineKind::Optimized),
            build(crate::config::EngineKind::Reference),
        )
    }

    /// Steps both engines one cycle and holds the optimized engine to the
    /// polling reference, counter for counter.
    fn step_both(optimized: &mut Network, reference: &mut Network) {
        optimized.step();
        reference.step();
        assert_eq!(
            optimized.stats(),
            reference.stats(),
            "engines diverged at cycle {}",
            optimized.now()
        );
    }

    fn awake_sources(net: &Network) -> u32 {
        net.source_work.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn requester_asleep_across_an_off_phase_issues_on_the_phase_change_cycle() {
        use crate::closed_loop::{
            ClosedLoopSpec, PhaseChange, PhaseSchedule, PhasedWorkload, RequesterSpec,
        };
        let phases = PhasedWorkload::new(2).with_schedule(
            FlowId(0),
            PhaseSchedule::new(vec![
                PhaseChange { at: 1, mlp: 0 },
                PhaseChange { at: 700, mlp: 1 },
            ]),
        );
        let spec = ClosedLoopSpec::new(2)
            .with_requester(FlowId(0), RequesterSpec::paper(NodeId(1), 1))
            .with_phases(phases);
        let (mut optimized, mut reference) = engine_pair(None, &spec);
        while optimized.now() < 699 {
            step_both(&mut optimized, &mut reference);
            assert_eq!(optimized.stats().flows[0].issued_requests, 0);
            assert_eq!(awake_sources(&optimized), 0, "cycle {}", optimized.now());
        }
        // Two sources, each visited once (cycle 1) before falling asleep.
        assert_eq!(optimized.engine_profile().sources_visited, 2);
        step_both(&mut optimized, &mut reference);
        assert_eq!(optimized.now(), 700);
        assert_eq!(optimized.stats().flows[0].issued_requests, 1);
        for _ in 0..200 {
            step_both(&mut optimized, &mut reference);
        }
        assert!(optimized.stats().round_trips > 0);
    }

    #[test]
    fn retry_deadline_and_backoff_fire_on_their_exact_cycles_with_every_source_asleep() {
        use crate::closed_loop::{ClosedLoopSpec, DramConfig, RequesterSpec, RetryPolicy};
        // A cold bank takes 5000 cycles: no reply ever beats the deadline.
        let retry = RetryPolicy::new(100, 3).with_backoff(40);
        let spec = ClosedLoopSpec::new(2)
            .with_requester(FlowId(0), RequesterSpec::paper(NodeId(1), 1))
            .with_dram(DramConfig::paper().with_latencies(18, 5_000))
            .with_retry(retry);
        let (mut optimized, mut reference) = engine_pair(None, &spec);
        let timeouts = |net: &Network| net.stats().flows[0].request_timeouts;
        let retries = |net: &Network| net.stats().flows[0].request_retries;

        // The request is sent at cycle 1 and times out at 1 + deadline.
        while optimized.now() < 100 {
            step_both(&mut optimized, &mut reference);
            assert_eq!(timeouts(&optimized), 0);
            if optimized.now() >= 30 {
                assert_eq!(awake_sources(&optimized), 0, "cycle {}", optimized.now());
            }
        }
        step_both(&mut optimized, &mut reference);
        assert_eq!((optimized.now(), timeouts(&optimized)), (101, 1));

        // The retry leaves at exactly `ready`, the timeout cycle plus the
        // seeded backoff.
        let ready = 101 + retry.backoff_delay(FlowId(0), 0, 1);
        while optimized.now() < ready - 1 {
            step_both(&mut optimized, &mut reference);
            assert_eq!(retries(&optimized), 0);
            assert_eq!(awake_sources(&optimized), 0, "cycle {}", optimized.now());
        }
        step_both(&mut optimized, &mut reference);
        assert_eq!((optimized.now(), retries(&optimized)), (ready, 1));

        // Through the second and third timeouts, the abandonment and the
        // fresh request that follows it.
        while optimized.now() < 1_500 {
            step_both(&mut optimized, &mut reference);
        }
        let flow = &optimized.stats().flows[0];
        assert!(
            flow.abandoned_requests >= 1,
            "the budget of 3 sends ran out"
        );
        assert!(flow.issued_requests >= 2, "abandoning reopened the window");
        // Asleep between thresholds: a few dozen visits, not 2 x 1500.
        assert!(optimized.engine_profile().sources_visited < 150);
    }

    #[test]
    fn a_reprogram_landing_wakes_every_sleeper() {
        use crate::closed_loop::{
            ClosedLoopSpec, PhaseChange, PhaseSchedule, PhasedWorkload, RequesterSpec,
        };
        let phases = PhasedWorkload::new(2).with_schedule(
            FlowId(0),
            PhaseSchedule::new(vec![PhaseChange { at: 1, mlp: 0 }]),
        );
        let spec = ClosedLoopSpec::new(2)
            .with_requester(FlowId(0), RequesterSpec::paper(NodeId(1), 1))
            .with_phases(phases);
        let (mut optimized, mut reference) = engine_pair(Some(100), &spec);
        for net in [&mut optimized, &mut reference] {
            net.schedule_reprogram(250, vec![0.5, 0.5])
                .expect("a valid programme is accepted");
        }
        while optimized.now() < 299 {
            step_both(&mut optimized, &mut reference);
        }
        assert_eq!(awake_sources(&optimized), 0);
        let before = optimized.engine_profile();
        // The programme scheduled for 250 lands at the rollover of cycle 300.
        step_both(&mut optimized, &mut reference);
        let after = optimized.engine_profile();
        assert_eq!(after.source_wakes - before.source_wakes, 2);
        assert_eq!(after.sources_visited - before.sources_visited, 2);
        // Nothing changed for them: both go straight back to sleep.
        assert_eq!(awake_sources(&optimized), 0);
    }

    #[test]
    fn an_open_loop_source_never_sleeps_while_its_generator_is_live() {
        // Five packets, one every 50 cycles: idle 49 cycles of 50, yet polled
        // on every one of them (a skipped poll would shift an RNG stream).
        let mut net = build_chain(5, 50, 1);
        while !net.sources[0].generator.exhausted() {
            net.step();
            assert_eq!(net.engine_profile().sources_visited, net.now());
            let live = !net.sources[0].generator.exhausted();
            assert!(!live || awake_sources(&net) == 1, "cycle {}", net.now());
        }
        run_to_quiescence(&mut net, 200);
        // Exhausted and drained: now it sleeps, and stays asleep.
        let visited = net.engine_profile().sources_visited;
        net.run_for(200);
        assert_eq!(net.engine_profile().sources_visited, visited);
        assert_eq!(net.stats().delivered_packets, 5);
    }
}
