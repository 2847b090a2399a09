//! Closed-loop request/reply traffic with per-node memory-level-parallelism
//! (MLP) windows.
//!
//! Open-loop generators inject at a configured rate regardless of network
//! state, which models load/latency curves but not real memory traffic: a
//! core can only have a bounded number of cache misses outstanding, so its
//! injection rate is *self-limited* by the round-trip time of its requests.
//! This module closes the loop:
//!
//! * a **requester** flow owns an MLP window (`mlp` outstanding requests);
//!   whenever the window has room it issues a short request packet to its
//!   memory controller node;
//! * the **memory controller** answers every delivered request with a
//!   cache-line reply streamed back from its own injection port;
//! * a delivered reply credits the requester's window, triggering the next
//!   request — accepted throughput and round-trip latency fall out of the
//!   [`crate::stats::NetStats`] round-trip counters.
//!
//! Replies travel on the **requester's flow**: at QOS routers the reply
//! inherits the requester's priority and bandwidth accounting (the reply is
//! the requester's traffic on the return path), and the controller's reply
//! port picks the pending reply of the highest-priority flow rather than
//! serving head-of-line — the controller sits inside the QOS-protected
//! region, so its injection port is a QOS arbitration point like any other.
//! Mechanically the reply is injected, windowed and retransmitted by the
//! controller's source ([`crate::packet::Packet::origin_source`]).
//!
//! The runtime lives in [`crate::network::Network`]
//! (see `Network::with_closed_loop`); this module defines the specification
//! types and the per-requester state.

use crate::error::{SimError, SpecError};
use crate::ids::{Cycle, FlowId, NodeId, PacketId};
use crate::spec::NetworkSpec;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What a DRAM-backed controller does with a request arriving at a full
/// request queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DramBackpressure {
    /// The request is rejected: it is **not** counted as delivered, its sink
    /// slot is freed, and a NACK travels back over the ACK network so the
    /// requester's source retransmits it — the retry consumes fabric
    /// bandwidth, which is the paper-faithful cost of overrunning a
    /// controller.
    #[default]
    Nack,
    /// The request is admitted to a stall queue that holds its **ejection
    /// slot credit** until a request-queue slot frees: the controller's sink
    /// backs up, virtual cut-through backpressure propagates into the
    /// protected column, and no retransmission traffic is generated.
    Stall,
}

/// How a DRAM-backed controller orders requests onto its banks and which
/// request loses when the bounded queue overflows.
///
/// Priorities are **rate-scaled virtual clocks**, the same discipline the
/// fabric's Preemptive Virtual Clock uses: every controller tracks, per
/// flow, the bank time it has consumed scaled by the flow's programmed
/// service rate ([`ClosedLoopSpec::flow_weights`]); lower values win. The
/// clocks are flushed at every frame rollover, like the fabric's bandwidth
/// counters, so the controller and the column routers enforce the same
/// per-frame guarantees — the paper's *end-to-end* QOS claim extended to
/// the last arbitration point.
///
/// Under [`Self::Fcfs`] requests are delivered (and acknowledged) when the
/// controller admits them, exactly as before this abstraction existed. The
/// priority-aware schedulers instead deliver and acknowledge a request when
/// its **bank service starts**: the request packet stays live at its source
/// until then, so an admitted-then-evicted request can be NACKed back over
/// the ACK network and retransmitted like any preempted packet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DramScheduler {
    /// Arrival-order bank scheduling (a younger request may bypass to a
    /// different, idle bank) and newest-rejected overflow. The default, and
    /// bit-compatible with the pre-scheduler controller model.
    #[default]
    Fcfs,
    /// Arrival-order bank scheduling, but a full queue under
    /// [`DramBackpressure::Nack`] evicts the **lowest-priority** queued
    /// request (NACKed back to its source for a fabric retry) when the
    /// arriving request strictly outranks it, instead of always bouncing
    /// the newest arrival. Under [`DramBackpressure::Stall`] there is
    /// nothing to NACK, so a full queue stalls the arrival as before.
    PriorityAdmission,
    /// First-ready FCFS: each idle bank prefers requests that hit its open
    /// row, breaking ties by priority then arrival — unless a waiting
    /// request has exceeded its **priority-weighted age cap**
    /// ([`DramConfig::age_cap`]), in which case the oldest overdue request
    /// is serviced first so a hog cannot starve a victim through row
    /// locality. Includes the priority-admission overflow rule.
    FrFcfs,
}

impl DramScheduler {
    /// Whether this scheduler uses rate-scaled priorities (virtual clocks,
    /// eviction, service-start delivery) rather than pure arrival order.
    pub fn is_priority_aware(self) -> bool {
        !matches!(self, DramScheduler::Fcfs)
    }
}

/// Row-buffer management policy of a controller's banks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PagePolicy {
    /// The row stays open after an access: a subsequent access to the same
    /// row costs [`DramConfig::row_hit_latency`], any other row the full
    /// [`DramConfig::row_miss_latency`] (precharge + activate + CAS).
    #[default]
    Open,
    /// The bank auto-precharges after every access: no access ever hits an
    /// open row, but none pays the precharge either — every access costs
    /// [`DramConfig::closed_page_latency`] (activate + CAS). Better under
    /// low-locality interleaved streams, worse under streaming.
    Closed,
}

/// Service-time model of a memory controller: a bounded request queue in
/// front of a set of address-interleaved DRAM banks with row-buffer state.
///
/// Requests carry a cache-line address ([`crate::packet::Packet::dram_line`],
/// synthesised per requester as a linear stream through a private region).
/// Consecutive lines interleave across the controller's banks; each bank
/// serves one request at a time, first-come-first-served per bank (a younger
/// request may bypass to an idle bank), and keeps its last-accessed row open:
/// hitting the open row costs [`Self::row_hit_latency`], any other row costs
/// [`Self::row_miss_latency`] (precharge + activate + CAS). The reply is
/// released to the controller's reply port only when the bank completes.
///
/// Every controller of a network owns an independent instance of this
/// configuration (its own bank set and queue); the model is deterministic
/// and engine-independent, so DRAM-backed runs stay bit-identical between
/// [`crate::config::EngineKind::Optimized`] and
/// [`crate::config::EngineKind::Reference`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Banks per controller; consecutive cache lines map to consecutive
    /// banks (line-address interleaving).
    pub banks: usize,
    /// Service latency in cycles when the request hits the bank's open row.
    pub row_hit_latency: Cycle,
    /// Service latency in cycles when the request misses the open row
    /// (precharge + activate + CAS).
    pub row_miss_latency: Cycle,
    /// Bounded request queue per controller: requests waiting for a bank.
    /// Arrivals beyond this depth trigger [`Self::backpressure`].
    pub queue_depth: usize,
    /// Row-buffer reach: cache lines per row **per bank**. A requester
    /// streaming its private region revisits a bank every `banks` lines and
    /// opens a new row every `lines_per_row` visits.
    pub lines_per_row: u64,
    /// Full-queue behaviour; see [`DramBackpressure`].
    pub backpressure: DramBackpressure,
    /// Request ordering and overflow discipline; see [`DramScheduler`].
    pub scheduler: DramScheduler,
    /// Row-buffer management; see [`PagePolicy`].
    pub page_policy: PagePolicy,
    /// Base age cap in cycles of the [`DramScheduler::FrFcfs`] starvation
    /// guard. A queued request whose age, scaled by its flow's rate weight
    /// relative to the mean weight, reaches this cap is serviced before any
    /// row hit on its bank: a flow of mean rate waits at most `age_cap`
    /// cycles before row locality must yield, a flow of twice the mean rate
    /// at most half that.
    pub age_cap: Cycle,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::paper()
    }
}

impl DramConfig {
    /// The default controller model used by the chip experiments: 8 banks,
    /// 18-cycle row hits, 48-cycle row misses, a 16-entry request queue that
    /// NACKs on overflow, 128-line (8 KiB with 64-byte lines) rows, FCFS
    /// scheduling with the open-page policy, and a 256-cycle FR-FCFS age
    /// cap (a handful of row-miss services).
    pub fn paper() -> Self {
        DramConfig {
            banks: 8,
            row_hit_latency: 18,
            row_miss_latency: 48,
            queue_depth: 16,
            lines_per_row: 128,
            backpressure: DramBackpressure::Nack,
            scheduler: DramScheduler::Fcfs,
            page_policy: PagePolicy::Open,
            age_cap: 256,
        }
    }

    /// Returns this configuration with the given bank count.
    pub fn with_banks(mut self, banks: usize) -> Self {
        self.banks = banks;
        self
    }

    /// Returns this configuration with the given hit/miss service latencies
    /// (cycles).
    pub fn with_latencies(mut self, hit: Cycle, miss: Cycle) -> Self {
        self.row_hit_latency = hit;
        self.row_miss_latency = miss;
        self
    }

    /// Returns this configuration with the given request-queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Returns this configuration with the given row-buffer reach (cache
    /// lines per row per bank).
    pub fn with_lines_per_row(mut self, lines: u64) -> Self {
        self.lines_per_row = lines;
        self
    }

    /// Returns this configuration with the given full-queue behaviour.
    pub fn with_backpressure(mut self, backpressure: DramBackpressure) -> Self {
        self.backpressure = backpressure;
        self
    }

    /// Returns this configuration with the given scheduler flavour.
    pub fn with_scheduler(mut self, scheduler: DramScheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Returns this configuration with the given row-buffer policy.
    pub fn with_page_policy(mut self, page_policy: PagePolicy) -> Self {
        self.page_policy = page_policy;
        self
    }

    /// Returns this configuration with the given FR-FCFS age cap (cycles).
    pub fn with_age_cap(mut self, age_cap: Cycle) -> Self {
        self.age_cap = age_cap;
        self
    }

    /// Bank a cache line maps to (row-major interleaving: a run of
    /// `lines_per_row` consecutive lines shares one bank and one row, then
    /// the next run moves to the next bank). Fine-grained `line % banks`
    /// interleaving is a trap for this workload shape: it spreads an MLP-4
    /// window across four different banks, so a flow revisits a bank only
    /// every `banks` requests — never within its outstanding window — and
    /// the other flows sharing the controller thrash the open row in
    /// between, making row hits structurally impossible.
    pub fn bank_of(&self, line: u64) -> usize {
        ((line / self.lines_per_row) % self.banks as u64) as usize
    }

    /// Row (within its bank) a cache line maps to.
    pub fn row_of(&self, line: u64) -> u64 {
        line / self.lines_per_row / self.banks as u64
    }

    /// Service latency of a request against the bank's currently open row,
    /// under the **open-page** rule (the closed-page policy never consults
    /// the open row — see [`Self::service_outcome`]).
    pub fn service_latency(&self, open_row: Option<u64>, row: u64) -> Cycle {
        if open_row == Some(row) {
            self.row_hit_latency
        } else {
            self.row_miss_latency
        }
    }

    /// Access latency under the closed-page policy: activate + CAS. The
    /// open-page miss is precharge + activate + CAS and the hit is CAS
    /// alone; the precharge the closed-page bank already performed after
    /// the previous access is modelled as half the hit-to-miss gap.
    pub fn closed_page_latency(&self) -> Cycle {
        self.row_miss_latency - (self.row_miss_latency - self.row_hit_latency) / 2
    }

    /// Classification and service latency of an access to `row` against the
    /// bank's open-row state, under the configured [`PagePolicy`]: the
    /// open-page rule of [`Self::service_latency`], or the uniform
    /// never-hitting closed-page cost.
    pub fn service_outcome(&self, open_row: Option<u64>, row: u64) -> (bool, Cycle) {
        match self.page_policy {
            PagePolicy::Open => {
                let hit = open_row == Some(row);
                (hit, self.service_latency(open_row, row))
            }
            PagePolicy::Closed => (false, self.closed_page_latency()),
        }
    }

    /// Open-row state of a bank after servicing `row`: the row stays open
    /// under the open-page policy, auto-precharges under closed-page.
    pub fn row_after_service(&self, row: u64) -> Option<u64> {
        match self.page_policy {
            PagePolicy::Open => Some(row),
            PagePolicy::Closed => None,
        }
    }

    /// Whether a queued request of age `age` cycles belonging to a flow of
    /// rate weight `weight` has exceeded the priority-weighted age cap:
    /// `age × weight` measured against `age_cap ×` the mean weight
    /// (`total_weight / flows`). A flow of mean rate is overdue after
    /// exactly [`Self::age_cap`] cycles; higher-rate flows sooner.
    pub fn is_overdue(&self, age: Cycle, weight: u64, total_weight: u64, flows: u64) -> bool {
        u128::from(age) * u128::from(weight) * u128::from(flows)
            >= u128::from(self.age_cap) * u128::from(total_weight)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the bank count, queue depth, row reach, either
    /// latency, or the age cap is zero, or the row-miss latency undercuts
    /// the row-hit latency.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.banks == 0
            || self.queue_depth == 0
            || self.lines_per_row == 0
            || self.row_hit_latency == 0
            || self.row_miss_latency == 0
            || self.age_cap == 0
        {
            return Err(SimError::Spec(SpecError::new(
                "DRAM banks, queue depth, row reach, latencies and age cap must be non-zero",
            )));
        }
        if self.row_miss_latency < self.row_hit_latency {
            return Err(SimError::Spec(SpecError::new(
                "DRAM row-miss latency must not undercut the row-hit latency",
            )));
        }
        Ok(())
    }
}

/// Region stride between the private line-address streams of two requester
/// flows. Large enough that no two flows ever share a row, so row-buffer
/// interference between flows is purely a bank-conflict effect; the extra
/// `+128` (one default row of lines) staggers the starting bank of
/// consecutive flows under the row-major mapping of
/// [`DramConfig::bank_of`].
pub const DRAM_REGION_LINES: u64 = (1 << 32) + 128;

/// Cache line read by the `issued`-th request of `flow`: each requester
/// streams linearly through a private region, so consecutive requests dwell
/// on one `(bank, row)` pair for [`DramConfig::lines_per_row`] lines —
/// row hits within the MLP window — before moving to the next bank.
pub fn requester_line(flow: FlowId, issued: u64) -> u64 {
    flow.index() as u64 * DRAM_REGION_LINES + issued
}

/// Closed-loop behaviour of one requester flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequesterSpec {
    /// Memory controller node the requests are sent to.
    pub mc: NodeId,
    /// MLP window: maximum outstanding (un-replied) requests.
    pub mlp: usize,
    /// Total requests to issue; `None` keeps the loop running forever (use
    /// the open-loop driver phases to bound such runs in time).
    pub total: Option<u64>,
    /// Request packet length in flits.
    pub request_len: u8,
    /// Reply packet length in flits.
    pub reply_len: u8,
}

impl RequesterSpec {
    /// A requester with the paper's packet mix: single-flit read requests,
    /// four-flit cache-line replies, no request budget.
    pub fn paper(mc: NodeId, mlp: usize) -> Self {
        RequesterSpec {
            mc,
            mlp,
            total: None,
            request_len: crate::packet::PacketClass::Request.default_len_flits(),
            reply_len: crate::packet::PacketClass::Reply.default_len_flits(),
        }
    }

    /// Bounds the requester to a total request budget, so a closed run has a
    /// completion time.
    pub fn with_total(mut self, total: u64) -> Self {
        self.total = Some(total);
        self
    }
}

/// One step of a requester's phase schedule: from cycle [`Self::at`] on, the
/// requester's *effective* MLP window becomes [`Self::mlp`]. A window of 0
/// turns the flow off — no fresh requests issue, but replies and retries for
/// already-issued requests still drain, so conservation holds across phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseChange {
    /// First cycle the new window applies.
    pub at: Cycle,
    /// Effective MLP window from [`Self::at`] on (0 = off).
    pub mlp: usize,
}

/// A per-flow sequence of [`PhaseChange`]s, strictly increasing in cycle.
/// The default (empty) schedule leaves the requester's static window from
/// [`RequesterSpec::mlp`] in force for the whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSchedule {
    /// The changes, strictly increasing in [`PhaseChange::at`].
    pub changes: Vec<PhaseChange>,
}

impl PhaseSchedule {
    /// A schedule from explicit changes.
    pub fn new(changes: Vec<PhaseChange>) -> Self {
        PhaseSchedule { changes }
    }

    /// Whether the schedule never changes anything.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

/// Dynamic (phased) traffic for a closed-loop network: one [`PhaseSchedule`]
/// per flow, applied deterministically by cycle number in both engines, so
/// bursty on/off hogs, incast onsets and trace-shaped demand changes extend
/// engine equivalence unchanged. An empty workload (the default) is fully
/// static.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhasedWorkload {
    /// Per-flow schedules, indexed by flow identifier. Empty means no flow
    /// ever changes phase.
    pub schedules: Vec<PhaseSchedule>,
}

impl PhasedWorkload {
    /// A workload with an empty schedule for each of `num_flows` flows.
    pub fn new(num_flows: usize) -> Self {
        PhasedWorkload {
            schedules: vec![PhaseSchedule::default(); num_flows],
        }
    }

    /// Installs `schedule` for `flow`.
    #[must_use]
    pub fn with_schedule(mut self, flow: FlowId, schedule: PhaseSchedule) -> Self {
        // taqos-lint: allow(panic-index) -- build-time builder; an out-of-range flow is a caller bug worth a panic
        self.schedules[flow.index()] = schedule;
        self
    }

    /// Whether no flow ever changes phase.
    pub fn is_static(&self) -> bool {
        self.schedules.iter().all(PhaseSchedule::is_empty)
    }
}

/// Per-request deadline and retry behaviour of every requester: the
/// source-side half of the fault-tolerance story.
///
/// Without a retry policy a request that never completes (dropped by an
/// injected fault, bounced forever by a dark controller) holds its MLP
/// window slot until the watchdog gives up on the run. With one, each
/// outstanding request carries a deadline; on expiry the requester either
/// schedules a re-issue after a seeded-jitter exponential backoff or — once
/// [`Self::max_attempts`] sends have failed — *abandons* the request,
/// releasing the window slot and counting it so every issued request ends in
/// exactly one of {delivered, retried-then-delivered, abandoned}:
///
/// `issued == round_trips + abandoned + in_flight-at-horizon`.
///
/// A retry reuses the original request's sequence number, cache-line
/// address and logical birth cycle (so round-trip latency measures from the
/// *first* send), but travels as a fresh packet. A reply for a request no
/// longer waiting — its original raced the retry, or it was abandoned — is
/// counted stale and discarded. All jitter is drawn from a stateless seeded
/// hash, keeping retried runs deterministic and engine-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Cycles a request may stay outstanding before it is declared lost.
    pub deadline: Cycle,
    /// Base backoff before a retry; attempt `n` waits
    /// `backoff × 2^(n-1) + jitter` with `jitter < backoff`.
    pub backoff: Cycle,
    /// Total send budget per request, counting the first send. A request is
    /// abandoned when all `max_attempts` sends have timed out.
    pub max_attempts: u32,
    /// Seed of the backoff jitter hash.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// A policy with the given deadline and attempt budget, a base backoff
    /// of a quarter deadline, and a fixed default jitter seed.
    pub fn new(deadline: Cycle, max_attempts: u32) -> Self {
        RetryPolicy {
            deadline,
            backoff: (deadline / 4).max(1),
            max_attempts,
            jitter_seed: 0x005E_ED0F_FA11_BAC6,
        }
    }

    /// Returns this policy with the given base backoff.
    #[must_use]
    pub fn with_backoff(mut self, backoff: Cycle) -> Self {
        self.backoff = backoff;
        self
    }

    /// Returns this policy with the given jitter seed.
    #[must_use]
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Validates the policy: a zero deadline would time every request out
    /// the cycle it was issued, a zero attempt budget could never send, and
    /// a zero backoff would hammer a dead component every cycle.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.deadline == 0 {
            return Err(SimError::Spec(SpecError::new(
                "retry deadline must be non-zero",
            )));
        }
        if self.max_attempts == 0 {
            return Err(SimError::Spec(SpecError::new(
                "retry attempt budget must be at least 1",
            )));
        }
        if self.backoff == 0 {
            return Err(SimError::Spec(SpecError::new(
                "retry backoff must be non-zero",
            )));
        }
        Ok(())
    }

    /// Backoff delay before re-sending `seq` of `flow` for attempt
    /// `attempts + 1`: exponential in the attempts already spent, plus a
    /// seeded jitter below one base backoff so synchronized victims of a
    /// shared fault don't retry in lockstep.
    pub(crate) fn backoff_delay(&self, flow: FlowId, seq: u64, attempts: u32) -> Cycle {
        let exp = attempts.saturating_sub(1).min(16);
        let base = self.backoff << exp;
        let jitter = crate::fault::splitmix64(
            self.jitter_seed ^ ((flow.index() as u64) << 40) ^ (seq << 8) ^ u64::from(attempts),
        ) % self.backoff;
        base + jitter
    }
}

/// Closed-loop configuration of a network: at most one requester per flow,
/// and optionally a DRAM service-time model at every memory controller.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClosedLoopSpec {
    /// Requester behaviour per flow, indexed by flow identifier.
    pub requesters: Vec<Option<RequesterSpec>>,
    /// DRAM service-time model applied at every controller. `None` keeps the
    /// pre-DRAM behaviour: controllers answer each delivered request
    /// instantly (zero service time, unbounded acceptance).
    pub dram: Option<DramConfig>,
    /// Per-flow service-rate weights used by the priority-aware DRAM
    /// schedulers, indexed by flow — the same relative rates the fabric's
    /// virtual-clock policy is programmed with (see
    /// `RateAllocation::priority_weights` in `taqos-qos`). Empty means
    /// equal weights for every flow.
    pub flow_weights: Vec<u64>,
    /// Per-request deadline/retry behaviour applied to every requester.
    /// `None` keeps the pre-retry behaviour: requests wait forever.
    pub retry: Option<RetryPolicy>,
    /// Dynamic traffic: per-flow phase schedules changing the effective MLP
    /// window at fixed cycles. Empty (the default) keeps every requester's
    /// static window.
    pub phases: PhasedWorkload,
}

impl ClosedLoopSpec {
    /// Creates a spec with no requesters for a network of `num_flows` flows.
    pub fn new(num_flows: usize) -> Self {
        ClosedLoopSpec {
            requesters: vec![None; num_flows],
            dram: None,
            flow_weights: Vec::new(),
            retry: None,
            phases: PhasedWorkload::default(),
        }
    }

    /// Registers a requester for `flow`.
    pub fn with_requester(mut self, flow: FlowId, spec: RequesterSpec) -> Self {
        self.requesters[flow.index()] = Some(spec);
        self
    }

    /// Installs a DRAM service-time model at every memory controller.
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = Some(dram);
        self
    }

    /// Programs the per-flow rate weights the priority-aware DRAM
    /// schedulers scale their virtual clocks by (one weight per flow; all
    /// weights must be positive).
    pub fn with_flow_weights(mut self, weights: Vec<u64>) -> Self {
        self.flow_weights = weights;
        self
    }

    /// Applies a deadline/retry policy to every requester.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Installs a dynamic (phased) workload: per-flow schedules of effective
    /// MLP-window changes.
    #[must_use]
    pub fn with_phases(mut self, phases: PhasedWorkload) -> Self {
        self.phases = phases;
        self
    }

    /// Number of flows with a requester attached.
    pub fn active_requesters(&self) -> usize {
        self.requesters.iter().flatten().count()
    }

    /// Validates the spec against a network specification.
    ///
    /// # Errors
    ///
    /// Returns an error if the requester list length does not match the flow
    /// count, a window or packet length is zero, or a referenced memory
    /// controller node has no source (to inject replies) or no sink.
    pub fn validate(&self, spec: &NetworkSpec) -> Result<(), SimError> {
        if let Some(dram) = &self.dram {
            dram.validate()?;
        }
        if let Some(retry) = &self.retry {
            retry.validate()?;
        }
        if self.requesters.len() != spec.num_flows() {
            return Err(SimError::Spec(SpecError::new(format!(
                "closed-loop spec covers {} flows but the network has {}",
                self.requesters.len(),
                spec.num_flows()
            ))));
        }
        if !self.flow_weights.is_empty() {
            if self.flow_weights.len() != spec.num_flows() {
                return Err(SimError::Spec(SpecError::new(format!(
                    "flow weights cover {} flows but the network has {}",
                    self.flow_weights.len(),
                    spec.num_flows()
                ))));
            }
            if self.flow_weights.contains(&0) {
                return Err(SimError::Spec(SpecError::new(
                    "flow weights must be positive",
                )));
            }
        }
        if !self.phases.schedules.is_empty() {
            if self.phases.schedules.len() != self.requesters.len() {
                return Err(SimError::Spec(SpecError::new(format!(
                    "phase schedules cover {} flows but the network has {}",
                    self.phases.schedules.len(),
                    spec.num_flows()
                ))));
            }
            for (flow, schedule) in self.phases.schedules.iter().enumerate() {
                if schedule.is_empty() {
                    continue;
                }
                // taqos-lint: allow(panic-index) -- schedules.len() == num_flows == requesters.len(), checked just above
                if self.requesters[flow].is_none() {
                    return Err(SimError::Spec(SpecError::new(format!(
                        "flow {flow}: a phase schedule needs a requester to act on"
                    ))));
                }
                // taqos-lint: allow(panic-index) -- windows(2) yields exactly-two-element slices
                if !schedule.changes.windows(2).all(|w| w[0].at < w[1].at) {
                    return Err(SimError::Spec(SpecError::new(format!(
                        "flow {flow}: phase changes must be strictly increasing in cycle"
                    ))));
                }
            }
        }
        for (flow, requester) in self.requesters.iter().enumerate() {
            let Some(requester) = requester else { continue };
            if requester.mlp == 0 || requester.request_len == 0 || requester.reply_len == 0 {
                return Err(SimError::Spec(SpecError::new(format!(
                    "flow {flow}: MLP window and packet lengths must be non-zero"
                ))));
            }
            if let Some(0) = requester.total {
                return Err(SimError::Spec(SpecError::new(format!(
                    "flow {flow}: a bounded requester needs a non-zero total"
                ))));
            }
            if !spec.sources.iter().any(|s| s.node == requester.mc) {
                return Err(SimError::Spec(SpecError::new(format!(
                    "flow {flow}: memory controller node {} has no source to inject replies",
                    requester.mc
                ))));
            }
            if !spec.sinks.iter().any(|s| s.node == requester.mc) {
                return Err(SimError::Spec(SpecError::new(format!(
                    "flow {flow}: memory controller node {} has no sink",
                    requester.mc
                ))));
            }
        }
        Ok(())
    }
}

/// One logical request awaiting its reply under a [`RetryPolicy`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct InFlightRequest {
    /// Request sequence number (matched against the reply's
    /// [`crate::packet::Packet::req_seq`]).
    pub(crate) seq: u64,
    /// Cycle of the *first* send: the round-trip latency anchor across
    /// retries.
    pub(crate) birth: Cycle,
    /// Cycle of the most recent send (deadline anchor).
    pub(crate) sent: Cycle,
    /// Sends so far (at least 1).
    pub(crate) attempts: u32,
    /// Cache-line address of the read, if the controller model is DRAM.
    pub(crate) line: Option<u64>,
}

/// A timed-out request waiting out its backoff before re-issue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeferredRetry {
    /// First cycle the retry may be sent.
    pub(crate) ready: Cycle,
    /// Request sequence number (preserved across retries).
    pub(crate) seq: u64,
    /// Cycle of the first send (round-trip anchor, preserved).
    pub(crate) birth: Cycle,
    /// Sends so far.
    pub(crate) attempts: u32,
    /// Cache-line address of the read (preserved, so a retried read hits
    /// the same bank and row).
    pub(crate) line: Option<u64>,
}

/// Runtime state of one requester flow.
#[derive(Debug, Clone)]
pub(crate) struct RequesterState {
    /// The specification this state was created from.
    pub(crate) spec: RequesterSpec,
    /// Requests issued whose reply has not yet been delivered (including
    /// timed-out requests waiting in [`Self::deferred`] — they still hold
    /// their MLP window slot until delivered or abandoned).
    pub(crate) outstanding: usize,
    /// Requests issued so far (fresh sends only; retries don't count).
    pub(crate) issued: u64,
    /// Outstanding requests with their deadline bookkeeping. Populated only
    /// under a [`RetryPolicy`]; empty (and never scanned) otherwise.
    pub(crate) in_flight: Vec<InFlightRequest>,
    /// Timed-out requests waiting out their backoff, in timeout order.
    pub(crate) deferred: VecDeque<DeferredRetry>,
    /// Effective MLP window this cycle: starts at `spec.mlp` and moves with
    /// the phase schedule. Gates fresh issues only — retries and reply
    /// draining stay ungated, so in-flight work conserves across phases.
    pub(crate) effective_mlp: usize,
    /// Phase schedule of this flow (empty = static workload).
    pub(crate) schedule: PhaseSchedule,
    /// Index of the next unapplied entry of [`Self::schedule`].
    pub(crate) next_phase: usize,
}

impl RequesterState {
    pub(crate) fn with_schedule(spec: RequesterSpec, schedule: PhaseSchedule) -> Self {
        RequesterState {
            effective_mlp: spec.mlp,
            spec,
            outstanding: 0,
            issued: 0,
            in_flight: Vec::new(),
            deferred: VecDeque::new(),
            schedule,
            next_phase: 0,
        }
    }

    /// Whether the requester may issue another request this cycle.
    // taqos-lint: hot
    pub(crate) fn can_issue(&self) -> bool {
        self.outstanding < self.effective_mlp && self.spec.total.is_none_or(|t| self.issued < t)
    }

    /// Applies every phase change due by `now` to the effective MLP window.
    /// A cursor into the sorted schedule keeps the common static case a
    /// single bounds check per cycle.
    // taqos-lint: hot
    pub(crate) fn advance_phases(&mut self, now: Cycle) {
        while let Some(change) = self.schedule.changes.get(self.next_phase) {
            if change.at > now {
                break;
            }
            self.effective_mlp = change.mlp;
            self.next_phase += 1;
        }
    }

    /// Earliest cycle at which time alone makes a visit of this requester
    /// necessary: the next phase change, the earliest in-flight deadline
    /// (`sent + deadline`) or the earliest deferred-retry `ready`.
    /// `Cycle::MAX` when no threshold is pending. `in_flight` and `deferred`
    /// are only populated under a retry policy, so `deadline` is unused
    /// without one.
    // taqos-lint: hot
    pub(crate) fn next_timer(&self, deadline: Cycle) -> Cycle {
        let phase = self.schedule.changes.get(self.next_phase).map(|c| c.at);
        let timeout = self.in_flight.iter().map(|r| r.sent + deadline).min();
        let retry = self.deferred.iter().map(|d| d.ready).min();
        [phase, timeout, retry]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// Removes and returns the first deferred retry whose backoff has
    /// elapsed by `now`.
    // taqos-lint: hot
    pub(crate) fn pop_ready_retry(&mut self, now: Cycle) -> Option<DeferredRetry> {
        let idx = self.deferred.iter().position(|d| d.ready <= now)?;
        self.deferred.remove(idx)
    }
}

/// One request inside a controller's DRAM pipeline (queued, stalled or in
/// service). Carries everything needed to build the reply at completion.
/// Under [`DramScheduler::Fcfs`] the request *packet* is acknowledged and
/// freed at acceptance; under the priority-aware schedulers it stays live
/// (and unacknowledged, and undelivered in the statistics) until bank
/// service starts, so an eviction can NACK it back for a fabric retry —
/// `packet`, `hops` and `len_flits` exist for that deferred bookkeeping.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DramRequest {
    /// Requester flow the reply rides on.
    pub(crate) flow: FlowId,
    /// Requester node the reply is sent to.
    pub(crate) requester: NodeId,
    /// Birth cycle of the request packet (round-trip anchor).
    pub(crate) birth: Cycle,
    /// Reply length in flits.
    pub(crate) reply_len: u8,
    /// Cache-line address of the read.
    pub(crate) line: u64,
    /// Cycle the request arrived at the controller.
    pub(crate) arrived: Cycle,
    /// The request packet (still live under priority-aware schedulers).
    pub(crate) packet: PacketId,
    /// Hop count of the request's fabric traversal (delivery statistics and
    /// ACK/NACK latency under deferred delivery).
    pub(crate) hops: u32,
    /// Request packet length in flits (delivery statistics under deferred
    /// delivery).
    pub(crate) len_flits: u8,
    /// Logical sequence number of the request (copied onto the reply so the
    /// requester's retry layer can match it). `None` without a
    /// [`RetryPolicy`].
    pub(crate) req_seq: Option<u64>,
}

/// A request held in the stall lane of a controller (Stall backpressure):
/// its ejection-slot credit is withheld until the request queue has room.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StalledRequest {
    /// The request itself.
    pub(crate) request: DramRequest,
    /// Sink whose slot credit is being withheld.
    pub(crate) sink: usize,
    /// The withheld slot.
    pub(crate) slot: crate::ids::VcId,
}

/// One DRAM bank: a busy-until timeline plus the open-row register.
#[derive(Debug, Clone, Default)]
pub(crate) struct BankState {
    /// Cycle at which the in-service request completes. Scheduling idles on
    /// `in_service` alone; this timeline cross-checks that the completion
    /// event fires exactly when promised (debug assertion).
    pub(crate) busy_until: Cycle,
    /// Currently open row, if any access happened yet.
    pub(crate) open_row: Option<u64>,
    /// Request being serviced, if the bank is busy.
    pub(crate) in_service: Option<DramRequest>,
}

impl BankState {
    /// Whether the bank can start a new request.
    pub(crate) fn is_idle(&self) -> bool {
        self.in_service.is_none()
    }
}

/// Runtime DRAM state of one memory controller.
#[derive(Debug)]
pub(crate) struct McState {
    /// Requests waiting for a bank, in arrival order (bounded by
    /// [`DramConfig::queue_depth`]).
    pub(crate) queue: VecDeque<DramRequest>,
    /// Banks of this controller.
    pub(crate) banks: Vec<BankState>,
    /// Requests admitted past a full queue under Stall backpressure; each
    /// entry withholds its ejection-slot credit until it moves to `queue`.
    pub(crate) stalled: VecDeque<StalledRequest>,
    /// Per-flow rate-scaled virtual clock: bank time consumed at this
    /// controller scaled by the flow's rate weight. Lower is higher
    /// priority; flushed at frame rollover like the fabric's bandwidth
    /// counters. Only the priority-aware schedulers read or advance it.
    pub(crate) vclock: Vec<u64>,
}

/// Integer scale applied to bank-time charges before dividing by the flow's
/// rate weight, so virtual clocks keep resolution for weight ratios up to
/// this factor.
pub(crate) const VCLOCK_SCALE: u64 = 1024;

impl McState {
    pub(crate) fn new(config: &DramConfig, num_flows: usize) -> Self {
        McState {
            queue: VecDeque::new(),
            banks: vec![BankState::default(); config.banks],
            stalled: VecDeque::new(),
            vclock: vec![0; num_flows],
        }
    }

    /// Whether the controller holds no queued, stalled or in-service work.
    pub(crate) fn is_drained(&self) -> bool {
        self.queue.is_empty()
            && self.stalled.is_empty()
            && self.banks.iter().all(BankState::is_idle)
    }

    /// Charges `flow`'s virtual clock for `latency` cycles of bank time,
    /// scaled by its rate weight (the priority-aware schedulers call this
    /// at every service start).
    // taqos-lint: hot
    pub(crate) fn charge(&mut self, flow: FlowId, latency: Cycle, weight: u64) {
        self.vclock[flow.index()] += latency * VCLOCK_SCALE / weight.max(1);
    }

    /// Queue index of the request the priority-admission overflow rule
    /// evicts for an arrival of `arrival_flow`: the queued request with the
    /// worst (largest) virtual clock — the youngest among equals, so
    /// seniority is preserved — provided the arrival **strictly** outranks
    /// it. `None` when no queued request ranks strictly below the arrival
    /// (the arrival is then bounced as a plain overflow).
    // taqos-lint: hot
    pub(crate) fn eviction_victim(&self, arrival_flow: FlowId) -> Option<usize> {
        let arrival_clock = self.vclock[arrival_flow.index()];
        let mut worst: Option<(usize, u64)> = None;
        for (idx, request) in self.queue.iter().enumerate() {
            let clock = self.vclock[request.flow.index()];
            if worst.is_none_or(|(_, w)| clock >= w) {
                worst = Some((idx, clock));
            }
        }
        worst.and_then(|(idx, clock)| (clock > arrival_clock).then_some(idx))
    }

    /// Queue index of the request an idle `bank` services next under
    /// FR-FCFS: the oldest overdue request (priority-weighted age cap) if
    /// any, else the best open-row hit, else the best remaining request —
    /// "best" ordering by (virtual clock, arrival cycle, queue position).
    /// `None` when no queued request maps to `bank`.
    // taqos-lint: hot
    pub(crate) fn frfcfs_pick(
        &self,
        dram: &DramConfig,
        bank: usize,
        now: Cycle,
        weights: &[u64],
        total_weight: u64,
    ) -> Option<usize> {
        let flows = weights.len().max(1) as u64;
        let open_row = self.banks[bank].open_row;
        // (class, vclock, arrived) lexicographic minimum, where class 0 is
        // overdue (compared by age only: vclock field pinned to 0), class 1
        // an open-row hit and class 2 the rest. Scanning in queue order
        // makes the final tiebreak the queue position.
        let mut best: Option<(usize, (u8, u64, Cycle))> = None;
        for (idx, request) in self.queue.iter().enumerate() {
            if dram.bank_of(request.line) != bank {
                continue;
            }
            let weight = weights.get(request.flow.index()).copied().unwrap_or(1);
            let age = now.saturating_sub(request.arrived);
            let key = if dram.is_overdue(age, weight, total_weight, flows) {
                (0, 0, request.arrived)
            } else {
                let row = dram.row_of(request.line);
                let hit = dram.page_policy == PagePolicy::Open && open_row == Some(row);
                let class = if hit { 1 } else { 2 };
                (class, self.vclock[request.flow.index()], request.arrived)
            };
            if best.is_none_or(|(_, k)| key < k) {
                best = Some((idx, key));
            }
        }
        best.map(|(idx, _)| idx)
    }
}

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

/// Runtime state of the closed loop, owned by the network.
#[derive(Debug)]
pub(crate) struct ClosedLoopState {
    /// Per-flow requester state, indexed by flow identifier.
    pub(crate) requesters: Vec<Option<RequesterState>>,
    /// Replies waiting at the controllers' reply ports. They wait here (not
    /// in the source's FIFO queue) so the controller can inject the
    /// highest-priority flow's reply first.
    pub(crate) pending_replies: PendingReplies,
    /// For each node: the source index that injects that node's replies,
    /// if the node hosts a source (the lowest-indexed one).
    pub(crate) node_reply_source: Vec<Option<usize>>,
    /// DRAM model shared by all controllers, if enabled.
    pub(crate) dram: Option<DramConfig>,
    /// Per-node controller DRAM state, instantiated eagerly at install time
    /// for exactly the nodes some requester names as its controller (the
    /// engine relies on a requester's controller always having state).
    pub(crate) mc_states: Vec<Option<McState>>,
    /// Per-flow rate weights of the priority-aware DRAM schedulers
    /// (resolved: equal weights of one when the spec left them empty).
    pub(crate) weights: Vec<u64>,
    /// Sum of `weights` (the overdue threshold normaliser).
    pub(crate) total_weight: u64,
    /// Deadline/retry policy applied to every requester, if any.
    pub(crate) retry: Option<RetryPolicy>,
}

impl ClosedLoopState {
    pub(crate) fn new(spec: &ClosedLoopSpec, net: &NetworkSpec) -> Self {
        // Node identifiers are labels: size the per-node table to cover the
        // largest id any source or sink declares, not just the router count.
        let num_nodes = net
            .routers
            .len()
            .max(
                net.sources
                    .iter()
                    .map(|s| s.node.index() + 1)
                    .max()
                    .unwrap_or(0),
            )
            .max(
                net.sinks
                    .iter()
                    .map(|s| s.node.index() + 1)
                    .max()
                    .unwrap_or(0),
            );
        let mut node_reply_source: Vec<Option<usize>> = vec![None; num_nodes];
        for (si, source) in net.sources.iter().enumerate() {
            let slot = &mut node_reply_source[source.node.index()];
            if slot.is_none() {
                *slot = Some(si);
            }
        }
        let num_flows = spec.requesters.len();
        let weights = if spec.flow_weights.is_empty() {
            vec![1; num_flows]
        } else {
            spec.flow_weights.clone()
        };
        let total_weight = weights.iter().sum::<u64>().max(1);
        let mut mc_states: Vec<Option<McState>> = (0..num_nodes).map(|_| None).collect();
        if let Some(dram) = &spec.dram {
            for requester in spec.requesters.iter().flatten() {
                let slot = &mut mc_states[requester.mc.index()];
                if slot.is_none() {
                    *slot = Some(McState::new(dram, num_flows));
                }
            }
        }
        ClosedLoopState {
            requesters: spec
                .requesters
                .iter()
                .enumerate()
                .map(|(flow, r)| {
                    r.map(|r| {
                        let schedule = spec.phases.schedules.get(flow).cloned().unwrap_or_default();
                        RequesterState::with_schedule(r, schedule)
                    })
                })
                .collect(),
            pending_replies: PendingReplies::new(num_flows, net.sources.len()),
            node_reply_source,
            dram: spec.dram,
            mc_states,
            weights,
            total_weight,
            retry: spec.retry,
        }
    }

    /// Flushes every controller's virtual clocks (called at frame rollover,
    /// mirroring the fabric's bandwidth-counter flush).
    pub(crate) fn flush_vclocks(&mut self) {
        for mc in self.mc_states.iter_mut().flatten() {
            mc.vclock.fill(0);
        }
    }

    /// Reprograms the per-flow DRAM rate weights from new relative rates,
    /// mirroring `RateAllocation::priority_weights` in `taqos-qos`. The
    /// engine calls this only at frame rollover (together with the vclock
    /// flush), so mid-frame virtual clocks never mix two rate programmes.
    pub(crate) fn reprogram_weights(&mut self, rates: &[f64]) {
        for (weight, &rate) in self.weights.iter_mut().zip(rates) {
            *weight = ((rate * VCLOCK_SCALE as f64).round() as u64).max(1);
        }
        self.total_weight = self.weights.iter().sum::<u64>().max(1);
    }

    /// Whether every requester has spent its budget and seen all replies. An
    /// unbounded requester (`total: None`) never completes — bound such runs
    /// in time with the open-loop driver phases instead of `run_closed`.
    pub(crate) fn is_complete(&self) -> bool {
        self.requesters
            .iter()
            .flatten()
            .all(|r| r.outstanding == 0 && r.spec.total.is_some_and(|total| r.issued >= total))
            && self.mc_states.iter().flatten().all(McState::is_drained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_requester_uses_the_paper_packet_mix() {
        let spec = RequesterSpec::paper(NodeId(9), 4);
        assert_eq!(spec.request_len, 1);
        assert_eq!(spec.reply_len, 4);
        assert_eq!(spec.mlp, 4);
        assert!(spec.total.is_none());
        assert_eq!(spec.with_total(100).total, Some(100));
    }

    #[test]
    fn requester_state_window_and_budget_gate_issue() {
        let mut state = RequesterState::with_schedule(
            RequesterSpec::paper(NodeId(0), 2).with_total(3),
            PhaseSchedule::default(),
        );
        assert!(state.can_issue());
        state.outstanding = 2;
        assert!(!state.can_issue(), "window full");
        state.outstanding = 1;
        state.issued = 3;
        assert!(!state.can_issue(), "budget spent");
    }

    #[test]
    fn spec_builder_registers_requesters() {
        let spec = ClosedLoopSpec::new(4)
            .with_requester(FlowId(1), RequesterSpec::paper(NodeId(3), 8))
            .with_requester(FlowId(2), RequesterSpec::paper(NodeId(3), 8));
        assert_eq!(spec.active_requesters(), 2);
        assert!(spec.requesters[0].is_none());
        assert_eq!(spec.requesters[1].unwrap().mlp, 8);
    }

    #[test]
    fn dram_address_mapping_interleaves_banks_and_rows() {
        let dram = DramConfig::paper().with_banks(4).with_lines_per_row(2);
        // Row-major mapping: each run of `lines_per_row` consecutive lines
        // shares a bank, and the runs round-robin the banks.
        for line in 0..16u64 {
            assert_eq!(dram.bank_of(line), ((line / 2) % 4) as usize);
        }
        // A bank opens a new row after every full sweep of the banks:
        // lines 0,1 are row 0 of bank 0; lines 8,9 are row 1.
        assert_eq!(dram.row_of(0), 0);
        assert_eq!(dram.row_of(1), 0);
        assert_eq!(dram.row_of(8), 1);
        assert_eq!(dram.row_of(9), 1);
        // Hit/miss classification against the open row.
        assert_eq!(dram.service_latency(None, 0), dram.row_miss_latency);
        assert_eq!(dram.service_latency(Some(0), 0), dram.row_hit_latency);
        assert_eq!(dram.service_latency(Some(1), 0), dram.row_miss_latency);
    }

    #[test]
    fn requester_lines_stream_privately_and_stagger_banks() {
        let dram = DramConfig::paper(); // 8 banks
        let a0 = requester_line(FlowId(0), 0);
        let a1 = requester_line(FlowId(0), 1);
        let b0 = requester_line(FlowId(1), 0);
        // Linear stream per flow.
        assert_eq!(a1, a0 + 1);
        // Distinct flows never share a row (disjoint regions)...
        assert_ne!(dram.row_of(a0), dram.row_of(b0));
        // ...and consecutive flows start on consecutive banks.
        assert_eq!(dram.bank_of(a0), 0);
        assert_eq!(dram.bank_of(b0), 1);
    }

    #[test]
    fn dram_config_builders_and_validation() {
        let dram = DramConfig::paper()
            .with_banks(2)
            .with_latencies(10, 30)
            .with_queue_depth(4)
            .with_lines_per_row(16)
            .with_backpressure(DramBackpressure::Stall);
        assert_eq!(dram.banks, 2);
        assert_eq!(dram.row_hit_latency, 10);
        assert_eq!(dram.row_miss_latency, 30);
        assert_eq!(dram.queue_depth, 4);
        assert_eq!(dram.lines_per_row, 16);
        assert_eq!(dram.backpressure, DramBackpressure::Stall);
        assert!(dram.validate().is_ok());
        assert!(DramConfig::paper().with_banks(0).validate().is_err());
        assert!(DramConfig::paper().with_queue_depth(0).validate().is_err());
        assert!(DramConfig::paper()
            .with_lines_per_row(0)
            .validate()
            .is_err());
        assert!(DramConfig::paper()
            .with_latencies(0, 30)
            .validate()
            .is_err());
    }

    /// A queued request for the unit tests below.
    fn request(flow: u16, line: u64, arrived: Cycle) -> DramRequest {
        DramRequest {
            flow: FlowId(flow),
            requester: NodeId(3),
            birth: 5,
            reply_len: 4,
            line,
            arrived,
            packet: PacketId(7),
            hops: 2,
            len_flits: 1,
            req_seq: None,
        }
    }

    #[test]
    fn mc_state_tracks_bank_and_queue_occupancy() {
        let dram = DramConfig::paper().with_banks(2);
        let mut mc = McState::new(&dram, 1);
        assert_eq!(mc.banks.len(), 2);
        assert!(mc.is_drained());
        mc.queue.push_back(request(0, 0, 9));
        assert!(!mc.is_drained());
        let queued = mc.queue.pop_front().expect("queued request");
        mc.banks[0].in_service = Some(queued);
        assert!(!mc.banks[0].is_idle());
        assert!(!mc.is_drained());
        mc.banks[0].in_service = None;
        assert!(mc.is_drained());
    }

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

    #[test]
    fn scheduler_and_page_policy_builders_and_validation() {
        let dram = DramConfig::paper()
            .with_scheduler(DramScheduler::FrFcfs)
            .with_page_policy(PagePolicy::Closed)
            .with_age_cap(100);
        assert_eq!(dram.scheduler, DramScheduler::FrFcfs);
        assert_eq!(dram.page_policy, PagePolicy::Closed);
        assert_eq!(dram.age_cap, 100);
        assert!(dram.validate().is_ok());
        // The defaults are the PR-4 behaviour: FCFS, open page.
        assert_eq!(DramConfig::paper().scheduler, DramScheduler::Fcfs);
        assert_eq!(DramConfig::paper().page_policy, PagePolicy::Open);
        assert!(!DramScheduler::Fcfs.is_priority_aware());
        assert!(DramScheduler::PriorityAdmission.is_priority_aware());
        assert!(DramScheduler::FrFcfs.is_priority_aware());
        assert!(DramConfig::paper().with_age_cap(0).validate().is_err());
        assert!(DramConfig::paper()
            .with_latencies(30, 10)
            .validate()
            .is_err());
    }

    #[test]
    fn closed_page_costs_activate_plus_cas_and_never_hits() {
        let dram = DramConfig::paper().with_latencies(18, 48);
        // Open page: hit = CAS (18), miss = precharge+activate+CAS (48).
        assert_eq!(dram.service_outcome(Some(0), 0), (true, 18));
        assert_eq!(dram.service_outcome(Some(1), 0), (false, 48));
        assert_eq!(dram.row_after_service(3), Some(3));
        // Closed page: every access is activate+CAS (33), never a hit, and
        // the bank auto-precharges.
        let closed = dram.with_page_policy(PagePolicy::Closed);
        assert_eq!(closed.closed_page_latency(), 33);
        assert_eq!(closed.service_outcome(Some(0), 0), (false, 33));
        assert_eq!(closed.service_outcome(None, 5), (false, 33));
        assert_eq!(closed.row_after_service(3), None);
    }

    #[test]
    fn overdue_threshold_scales_with_the_rate_weight() {
        let dram = DramConfig::paper().with_age_cap(100);
        // Equal weights: overdue at exactly the cap.
        assert!(!dram.is_overdue(99, 1, 4, 4));
        assert!(dram.is_overdue(100, 1, 4, 4));
        // Twice the mean weight (2 among [2,1,1,... summing 8 over 4 flows
        // -> mean 2): weight 4 is twice the mean, overdue at half the cap.
        assert!(dram.is_overdue(50, 4, 8, 4));
        assert!(!dram.is_overdue(49, 4, 8, 4));
        // Half the mean: overdue only at twice the cap.
        assert!(!dram.is_overdue(199, 1, 8, 4));
        assert!(dram.is_overdue(200, 1, 8, 4));
    }

    #[test]
    fn priority_admission_evicts_the_lowest_priority_youngest() {
        let dram = DramConfig::paper().with_banks(2);
        let mut mc = McState::new(&dram, 4);
        mc.vclock = vec![10, 50, 50, 5];
        mc.queue.push_back(request(1, 0, 5));
        mc.queue.push_back(request(2, 1, 6));
        mc.queue.push_back(request(0, 2, 7));
        // Flows 1 and 2 tie for the worst clock: the youngest of them (the
        // flow-2 request at queue index 1) is evicted for a better arrival.
        assert_eq!(mc.eviction_victim(FlowId(3)), Some(1));
        assert_eq!(mc.eviction_victim(FlowId(0)), Some(1));
        // An arrival that does not strictly outrank the worst is bounced.
        assert_eq!(mc.eviction_victim(FlowId(1)), None);
        mc.vclock[0] = 50;
        assert_eq!(mc.eviction_victim(FlowId(2)), None);
    }

    #[test]
    fn frfcfs_prefers_row_hits_then_priority_then_arrival() {
        let dram = DramConfig::paper().with_banks(1).with_lines_per_row(2);
        let weights = vec![1u64; 3];
        let mut mc = McState::new(&dram, 3);
        // Bank 0 has row 1 open (lines 2-3). Queue: a row miss (line 0,
        // row 0) ahead of a row hit (line 2, row 1).
        mc.banks[0].open_row = Some(1);
        mc.queue.push_back(request(0, 0, 10));
        mc.queue.push_back(request(1, 2, 11));
        // Row-hit reorder: the younger hit is serviced first.
        assert_eq!(mc.frfcfs_pick(&dram, 0, 20, &weights, 3), Some(1));
        // Priority tiebreak: two misses, the lower virtual clock wins even
        // though it arrived later.
        mc.queue.clear();
        mc.vclock = vec![40, 10, 10];
        mc.queue.push_back(request(0, 0, 10));
        mc.queue.push_back(request(1, 4, 12));
        assert_eq!(mc.frfcfs_pick(&dram, 0, 20, &weights, 3), Some(1));
        // Equal clocks: arrival order decides.
        mc.queue.push_back(request(2, 6, 11));
        assert_eq!(mc.frfcfs_pick(&dram, 0, 20, &weights, 3), Some(2));
        // No queued request for the bank.
        mc.queue.clear();
        assert_eq!(mc.frfcfs_pick(&dram, 0, 20, &weights, 3), None);
    }

    #[test]
    fn frfcfs_age_cap_overrides_row_locality() {
        let dram = DramConfig::paper()
            .with_banks(1)
            .with_lines_per_row(2)
            .with_age_cap(50);
        let weights = vec![1u64; 2];
        let mut mc = McState::new(&dram, 2);
        mc.banks[0].open_row = Some(1);
        // An old miss (arrived 0) queued behind a stream of hits.
        mc.queue.push_back(request(0, 0, 0));
        mc.queue.push_back(request(1, 2, 40));
        // Below the cap the hit still wins...
        assert_eq!(mc.frfcfs_pick(&dram, 0, 49, &weights, 2), Some(1));
        // ...at the cap the overdue miss must be serviced first.
        assert_eq!(mc.frfcfs_pick(&dram, 0, 50, &weights, 2), Some(0));
        // Two overdue requests: the older one goes first regardless of
        // priority.
        mc.queue.push_back(request(1, 4, 1));
        mc.vclock = vec![100, 0];
        assert_eq!(mc.frfcfs_pick(&dram, 0, 500, &weights, 2), Some(0));
    }

    #[test]
    fn vclock_charges_scale_with_rate_weight_and_flush() {
        let dram = DramConfig::paper();
        let mut mc = McState::new(&dram, 2);
        mc.charge(FlowId(0), 48, 16);
        mc.charge(FlowId(1), 48, 64);
        // Same bank time, four times the rate: a quarter of the clock.
        assert_eq!(mc.vclock[0], 48 * VCLOCK_SCALE / 16);
        assert_eq!(mc.vclock[1], 48 * VCLOCK_SCALE / 64);
        assert_eq!(mc.vclock[0], 4 * mc.vclock[1]);
        let mut spec = ClosedLoopSpec::new(2);
        spec.flow_weights = vec![16, 64];
        let net = NetworkSpec {
            name: "empty".to_string(),
            routers: Vec::new(),
            sources: Vec::new(),
            sinks: Vec::new(),
            flit_bytes: 16,
        };
        let mut state = ClosedLoopState::new(&spec, &net);
        assert_eq!(state.weights, vec![16, 64]);
        assert_eq!(state.total_weight, 80);
        state.mc_states = vec![Some(mc)];
        state.flush_vclocks();
        assert_eq!(
            state.mc_states[0].as_ref().unwrap().vclock,
            vec![0, 0],
            "frame rollover flushes the controller clocks"
        );
    }
}
