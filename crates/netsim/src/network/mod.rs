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
//! This file holds the [`Network`] struct, its construction, installers and
//! accessors, [`Network::step`], the frame rollover and frame sampling. Each
//! fabric phase has its own file holding **one engine-blind body per item**:
//! `events.rs` (phase 2: `apply_event`, delivery at a sink, the ACK network,
//! the closed-loop and DRAM hand-offs), `sources.rs` (3: `visit_source`),
//! `routing.rs` (4: `route_head`), `allocation.rs` (5: `arbitrate_output`),
//! `launch.rs` (6: `launch_output`, `release_input_vc`) and `preempt.rs` (the
//! probe's gather and flush). `engine.rs` holds the two per-engine drivers of
//! each phase — *which* items are visited, *where* the candidates come from —
//! and is the only file that knows there are two engines
//! ([`crate::config::EngineKind`]).
//!
//! Closed-loop memory traffic is not decided here. `Network` is a client of
//! the two components of [`crate::closed_loop`]: in the source phase it asks
//! a flow's requester what to send (`Requester::visit`), at a sink it hands
//! an arriving request to the closed loop and applies the verdict, and after
//! every arrival and bank completion it pumps the controller and turns the
//! effects it reports (service started, stalled slot released, victim
//! evicted) into events, ACKs/NACKs and sink credits, in the order reported.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod allocation;
mod engine;
mod events;
mod launch;
mod preempt;
mod routing;
mod sources;

pub use engine::EngineProfile;

use crate::closed_loop::{ClosedLoopSpec, ClosedLoopState};
use crate::config::SimConfig;
use crate::error::{ReprogramError, SimError};
use crate::event::{Event, EventQueue};
use crate::fault::{FaultPlan, FaultState};
use crate::ids::{Cycle, FlowId, PacketId};
use crate::packet::{PacketGenerator, PacketStore};
use crate::port::{Feeder, TargetCreditState};
use crate::qos::{QosPolicy, RouterQos, RATE_SUM_TOLERANCE};
use crate::router::{ArbRequest, RouterState};
use crate::sink::SinkState;
use crate::source::{SourceState, WakeTimers};
use crate::spec::{NetworkSpec, TargetEndpoint};
use crate::stats::NetStats;
use taqos_telemetry::{FrameSampler, TraceEvent, TraceHook, TraceSink};

/// Sets router `ri`'s bit in a phase activity mask (see
/// [`Network::routing_work`] for the eager-set / lazy-clear discipline).
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "masks are sized to ceil(routers/64) words and ri is a live router index"
)]
fn mark_router(mask: &mut [u64], ri: usize) {
    mask[ri >> 6] |= 1 << (ri & 63);
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
    /// Per-phase router activity masks (read by the optimized engine; one
    /// bit per router, 64-router blocks). A bit is set *eagerly* wherever a
    /// router gains the corresponding work — a head flit arrives
    /// (`routing_work`, `alloc_work`) or the launch ring wakes an output
    /// (`launch_work`) — and cleared *lazily* by the owning phase when it
    /// visits a router and finds it idle. Stale-set bits therefore self-heal
    /// and no decrement site needs mask bookkeeping, while each phase scans a
    /// handful of contiguous words instead of touching every `RouterState` to
    /// read its activity counters.
    routing_work: Vec<u64>,
    /// Routers with occupied input VCs (allocation candidates); see
    /// [`Self::routing_work`].
    alloc_work: Vec<u64>,
    /// Routers with a launch-ready output (set when the launch ring wakes
    /// one); see [`Self::routing_work`].
    launch_work: Vec<u64>,
    /// Outputs whose head transfer is still in the router pipeline, woken on
    /// its `launch_start` cycle (see [`launch::LaunchRing`]).
    launch_ring: launch::LaunchRing,
    /// Awake sources (read by the optimized engine; one bit per source), in the same
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
    /// Reusable buffer for the requests the reference engine gathers per
    /// arbitrated output.
    arb_scratch: Vec<ArbRequest>,
    /// Reusable buffer for preemption victim candidates.
    probe_scratch: Vec<(PacketId, FlowId, bool)>,
    /// Reusable buffer for candidates annotated with memoised priorities
    /// (optimized engine).
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
        let unlimited = policy.unlimited_buffering();
        let mut routers: Vec<RouterState> = spec
            .routers
            .iter()
            .map(|r| RouterState::from_spec(r, spec.num_flows()))
            .collect();

        // One pass over every (router, output, target): the output's credit
        // state for the target, and the back-pointer telling the target where
        // its credits return to.
        let mut sink_feeders: Vec<Option<(usize, usize, usize)>> = vec![None; spec.sinks.len()];
        for (ri, rspec) in spec.routers.iter().enumerate() {
            for (oi, ospec) in rspec.outputs.iter().enumerate() {
                for (ti, target) in ospec.targets.iter().enumerate() {
                    let credit = match target.endpoint {
                        TargetEndpoint::Router { router, in_port } => {
                            #[expect(
                                clippy::indexing_slicing,
                                reason = "validate() range-checked every target router and port (and rejected doubly-fed ports)"
                            )]
                            {
                                routers[router].inputs[in_port.0].feeder =
                                    Some(Feeder::RouterOutput {
                                        router: ri,
                                        out_port: oi,
                                        target_idx: ti,
                                    });
                            }
                            #[expect(
                                clippy::indexing_slicing,
                                reason = "validate() range-checked every target router and port"
                            )]
                            let dspec = &spec.routers[router].inputs[in_port.0];
                            TargetCreditState::new(
                                dspec.vcs.count - dspec.vcs.reserved,
                                dspec.vcs.reserved,
                                unlimited,
                            )
                        }
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "validate() range-checked every sink endpoint, and sink_feeders has one entry per sink"
                        )]
                        TargetEndpoint::Sink { sink } => {
                            sink_feeders[sink] = Some((ri, oi, ti));
                            TargetCreditState::new(spec.sinks[sink].slots, 0, false)
                        }
                    };
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "routers are built 1:1 from spec.routers, and ri and oi enumerate it"
                    )]
                    routers[ri].outputs[oi].targets.push(credit);
                }
            }
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
                #[expect(
                    clippy::indexing_slicing,
                    reason = "validate() requires source flow ids dense over 0..num_sources, the length of flow_to_source"
                )]
                {
                    flow_to_source[sspec.flow.index()] = si;
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "validate() range-checked every source's router and port (and rejected shared ports)"
                )]
                {
                    routers[sspec.router].inputs[sspec.in_port.0].feeder =
                        Some(Feeder::Source { source: si });
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "validate() range-checked every source's router and port"
                )]
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
        let launch_ring = launch::LaunchRing::for_spec(&spec);

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
            launch_ring,
            source_work: vec![0; num_sources.div_ceil(64)],
            source_timers: WakeTimers::new(num_sources),
            profile: EngineProfile::default(),
            router_scan: Vec::new(),
            arb_scratch: Vec::new(),
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
    #[inline]
    fn wake_source(&mut self, si: usize) {
        #[expect(
            clippy::indexing_slicing,
            reason = "source_work is sized to ceil(sources/64) words and si is a live source index"
        )]
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
        let state = ClosedLoopState::new(spec, &self.spec);
        for (flow, mc) in state.requester_controllers() {
            // The requester's own source and its controller's reply port
            // (pinned by `validate`) inject for the loop, not for a generator.
            let own = self.flow_to_source.get(flow).copied();
            let ends = [own, state.reply_port(mc)].into_iter().flatten();
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
    /// Returns [`SimError::Reprogram`] with [`ReprogramError::NoFrames`] if
    /// the policy has no frames (nothing to anchor the change to),
    /// [`ReprogramError::FlowCount`] if the rate count does not match the
    /// flow count, [`ReprogramError::NonPositiveRate`] for the first rate
    /// that is non-finite or not positive, or
    /// [`ReprogramError::Oversubscribed`] if the rates sum above 1.
    pub fn schedule_reprogram(&mut self, at: Cycle, rates: Vec<f64>) -> Result<(), SimError> {
        if self.frame_len.is_none_or(|f| f == 0) {
            return Err(SimError::Reprogram(ReprogramError::NoFrames));
        }
        if rates.len() != self.spec.num_flows() {
            return Err(SimError::Reprogram(ReprogramError::FlowCount {
                supplied: rates.len(),
                flows: self.spec.num_flows(),
            }));
        }
        if let Some((flow, &rate)) = rates
            .iter()
            .enumerate()
            .find(|(_, r)| !r.is_finite() || **r <= 0.0)
        {
            return Err(SimError::Reprogram(ReprogramError::NonPositiveRate {
                flow,
                rate,
            }));
        }
        let total: f64 = rates.iter().sum();
        if total > 1.0 + RATE_SUM_TOLERANCE {
            return Err(SimError::Reprogram(ReprogramError::Oversubscribed {
                total,
            }));
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "next_reprogram only advances past applied entries, so it never exceeds len"
        )]
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
    pub(crate) fn now(&self) -> Cycle {
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
    pub(crate) fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    /// Whether every source is drained, no packet is live anywhere in the
    /// network, and every closed-loop requester has spent its budget — i.e. a
    /// closed (fixed) workload has completed.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.sources.iter().all(|s| s.is_drained())
            && self.packets.is_empty()
            && self.closed_loop.as_ref().is_none_or(|cl| cl.is_complete())
    }

    /// Number of packets currently live (queued, in flight, or awaiting ACK).
    pub fn live_packets(&self) -> usize {
        self.packets.len()
    }

    /// Checks the forward-progress watchdog: if more than
    /// `SimConfig::progress_watchdog` cycles have elapsed since the last
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

    /// Consumes the network and returns the final statistics, with per-source
    /// counters folded in.
    pub fn into_stats(mut self) -> NetStats {
        for source in &self.sources {
            #[expect(
                clippy::indexing_slicing,
                reason = "stats.flows is sized to num_flows, and validate() keeps every source's flow below it"
            )]
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
        self.fabric_phases();
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
                #[expect(
                    clippy::indexing_slicing,
                    reason = "the sampler's flow rows and stats.flows are both sized to num_flows"
                )]
                let fs = &stats.flows[f];
                #[expect(
                    clippy::indexing_slicing,
                    reason = "flow_to_source is sized to num_flows and maps each flow to its source index"
                )]
                {
                    flow.injected_packets = sources[flow_to_source[f]].injected_packets;
                }
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
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "the sampler holds one link slot per router output, the count this walk visits"
                    )]
                    {
                        snap.link_flits[link] = out.flits_launched_total;
                    }
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
                    // Every memoised priority and every cached arbitration
                    // decision is stale.
                    router.priority_epoch += 1;
                    router.alloc_dirty = u64::MAX;
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
mod tests;
