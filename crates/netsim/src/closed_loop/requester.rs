//! The requester component: one closed-loop flow's phase schedule, MLP
//! window, per-request deadlines, backoff lane and reply matching.
//!
//! [`Requester`] is driven by two calls: [`Requester::visit`] once per source
//! visit (returns the request to send, if any) and [`Requester::on_reply`]
//! when a closed-loop reply of its flow is delivered. It owns no fabric
//! state; statistics and trace events go to the recorders passed in.

use super::dram::requester_line;
use crate::error::{SimError, SpecError};
use crate::ids::{Cycle, FlowId, NodeId};
use crate::packet::{GeneratedPacket, PacketClass};
use crate::stats::NetStats;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use taqos_telemetry::{TraceEvent, TraceHook};

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
            request_len: PacketClass::Request.default_len_flits(),
            reply_len: PacketClass::Reply.default_len_flits(),
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
///
/// Stored as what describes it: an explicit list costs one record per
/// change, a periodic burst train costs five integers however long it runs.
/// Either way the requester reads change `i` through [`Self::change`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseSchedule {
    /// Explicit changes (trace replays, migrations), which
    /// [`ClosedLoopSpec::validate`](super::ClosedLoopSpec::validate) requires
    /// to be strictly increasing in [`PhaseChange::at`].
    Explicit(Vec<PhaseChange>),
    /// A periodic on/off train in closed form.
    Bursts(BurstTrain),
}

impl Default for PhaseSchedule {
    fn default() -> Self {
        PhaseSchedule::Explicit(Vec::new())
    }
}

impl PhaseSchedule {
    /// A schedule from explicit changes.
    pub fn new(changes: Vec<PhaseChange>) -> Self {
        PhaseSchedule::Explicit(changes)
    }

    /// Whether the schedule never changes anything.
    pub fn is_empty(&self) -> bool {
        self.change(0).is_none()
    }

    /// The `i`-th change, in O(1); `None` past the last one.
    // taqos-lint: hot
    pub fn change(&self, i: usize) -> Option<PhaseChange> {
        match self {
            PhaseSchedule::Explicit(changes) => changes.get(i).copied(),
            PhaseSchedule::Bursts(train) => train.change(i),
        }
    }

    /// Every change in order. A [`BurstTrain`] with a far horizon yields
    /// billions: bound the iteration.
    pub fn iter(&self) -> impl Iterator<Item = PhaseChange> + '_ {
        (0..).map_while(|i| self.change(i))
    }
}

/// A periodic on/off burst train: the window is `burst_mlp` during
/// `[offset + k·period, offset + k·period + on_len)` for every burst `k`
/// starting before `horizon`, and 0 otherwise — from cycle 0 on, so a flow
/// whose `offset` is non-zero starts off. Only these five integers are
/// stored; `horizon = Cycle::MAX` is an endless train and costs the same.
/// The fields are private because [`Self::new`] is the only way in: a train
/// is strictly increasing by construction and needs no validation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BurstTrain {
    burst_mlp: usize,
    offset: Cycle,
    period: Cycle,
    on_len: Cycle,
    horizon: Cycle,
}

impl BurstTrain {
    /// A train of `burst_mlp`-deep bursts of `on_len` cycles every `period`
    /// cycles, the first starting at `offset`, none starting at or after
    /// `horizon`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < on_len < period` (bursts must have
    /// length and must not touch) and `offset < period`.
    pub fn new(
        burst_mlp: usize,
        offset: Cycle,
        period: Cycle,
        on_len: Cycle,
        horizon: Cycle,
    ) -> Result<Self, SpecError> {
        if on_len == 0 || on_len >= period {
            return Err(SpecError::new(
                "burst length must be non-zero and shorter than the period",
            ));
        }
        if offset >= period {
            return Err(SpecError::new("burst offset must lie within the period"));
        }
        Ok(BurstTrain {
            burst_mlp,
            offset,
            period,
            on_len,
            horizon,
        })
    }

    /// Change `i`: an initial "off" at cycle 0 when the first burst starts
    /// later, then burst `k`'s on and off changes at positions `2k`, `2k+1`.
    /// Arithmetic near the top of the cycle range is checked: a burst whose
    /// start is unrepresentable does not exist, and an off-change that would
    /// overflow saturates (still after its on-change, and the last).
    // taqos-lint: hot
    fn change(&self, i: usize) -> Option<PhaseChange> {
        let lead = usize::from(self.offset > 0);
        let Some(i) = i.checked_sub(lead) else {
            return Some(PhaseChange { at: 0, mlp: 0 });
        };
        let start = ((i / 2) as Cycle)
            .checked_mul(self.period)?
            .checked_add(self.offset)?;
        if start >= self.horizon {
            return None;
        }
        Some(if i % 2 == 0 {
            PhaseChange {
                at: start,
                mlp: self.burst_mlp,
            }
        } else {
            PhaseChange {
                at: start.saturating_add(self.on_len),
                mlp: 0,
            }
        })
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

    /// Exponential backoff stops doubling after this many retries.
    const MAX_BACKOFF_DOUBLINGS: u32 = 16;

    /// Validates the policy: a zero deadline would time every request out
    /// the cycle it was issued, a zero attempt budget could never send, and
    /// a zero backoff would hammer a dead component every cycle. A deadline
    /// or a worst-case backoff (fully doubled, plus jitter) too large to be
    /// added to the clock is rejected as well.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.deadline == 0 || !super::delay_fits(self.deadline, 1) {
            return Err(SimError::Spec(SpecError::new(
                "retry deadline must be non-zero and representable on the clock",
            )));
        }
        if self.max_attempts == 0 {
            return Err(SimError::Spec(SpecError::new(
                "retry attempt budget must be at least 1",
            )));
        }
        let worst_growth = (1 << Self::MAX_BACKOFF_DOUBLINGS) + 1;
        if self.backoff == 0 || !super::delay_fits(self.backoff, worst_growth) {
            return Err(SimError::Spec(SpecError::new(
                "retry backoff must be non-zero and, fully doubled, representable on the clock",
            )));
        }
        Ok(())
    }

    /// Backoff delay before re-sending `seq` of `flow` for attempt
    /// `attempts + 1`: exponential in the attempts already spent, plus a
    /// seeded jitter below one base backoff so synchronized victims of a
    /// shared fault don't retry in lockstep.
    pub(crate) fn backoff_delay(&self, flow: FlowId, seq: u64, attempts: u32) -> Cycle {
        let exp = attempts.saturating_sub(1).min(Self::MAX_BACKOFF_DOUBLINGS);
        let base = self.backoff << exp;
        let jitter = crate::fault::splitmix64(
            self.jitter_seed ^ ((flow.index() as u64) << 40) ^ (seq << 8) ^ u64::from(attempts),
        ) % self.backoff;
        base + jitter
    }
}

/// One logical request of a requester under a [`RetryPolicy`]: awaiting its
/// reply, or timed out and waiting out its backoff before the re-send.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Request sequence number (matched against the reply's
    /// [`crate::packet::Packet::req_seq`]; preserved across retries).
    seq: u64,
    /// Cycle of the *first* send: the round-trip latency anchor across
    /// retries.
    birth: Cycle,
    /// Awaiting its reply: the cycle the request is declared lost. Backing
    /// off: the first cycle the retry may be sent.
    due: Cycle,
    /// Sends so far (at least 1).
    attempts: u32,
    /// Cache-line address of the read, if the controller model is DRAM
    /// (preserved, so a retried read hits the same bank and row).
    line: Option<u64>,
}

/// A request the requester wants injected at its source this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RequestToSend {
    /// Destination (the flow's controller), length and class.
    pub(crate) packet: GeneratedPacket,
    /// Cache line read, under a DRAM model.
    pub(crate) line: Option<u64>,
    /// Logical sequence number, under a [`RetryPolicy`].
    pub(crate) seq: Option<u64>,
    /// Cycle of the first send when this is a retry (the round-trip anchor
    /// the packet carries); `None` for a fresh request.
    pub(crate) birth: Option<Cycle>,
}

/// Runtime state of one requester flow.
#[derive(Debug, Clone)]
pub(crate) struct Requester {
    flow: FlowId,
    spec: RequesterSpec,
    /// Deadline/retry policy, if any.
    retry: Option<RetryPolicy>,
    /// Whether requests carry a cache line (DRAM-backed controllers).
    dram: bool,
    /// Requests issued whose reply has not yet been delivered (including
    /// timed-out requests waiting in [`Self::deferred`] — they still hold
    /// their MLP window slot until delivered or abandoned).
    outstanding: usize,
    /// Requests issued so far (fresh sends only; retries don't count).
    issued: u64,
    /// Outstanding requests with their deadline bookkeeping. Populated only
    /// under a [`RetryPolicy`]; empty (and never scanned) otherwise.
    in_flight: Vec<Pending>,
    /// Timed-out requests waiting out their backoff, in timeout order.
    deferred: VecDeque<Pending>,
    /// Effective MLP window this cycle: starts at `spec.mlp` and moves with
    /// the phase schedule. Gates fresh issues only — retries and reply
    /// draining stay ungated, so in-flight work conserves across phases.
    effective_mlp: usize,
    /// Phase schedule of this flow (empty = static workload).
    schedule: PhaseSchedule,
    /// Index of the next unapplied change of [`Self::schedule`].
    next_phase: usize,
    /// That change, read once when the cursor moves, so a visit between
    /// changes — every visit of a static flow — pays one integer compare.
    /// [`NO_CHANGE`] when the schedule is spent.
    next_change: PhaseChange,
}

/// Stands for "no further change": no run's clock reaches `Cycle::MAX`.
const NO_CHANGE: PhaseChange = PhaseChange {
    at: Cycle::MAX,
    mlp: 0,
};

impl Requester {
    pub(crate) fn new(
        flow: FlowId,
        spec: RequesterSpec,
        schedule: PhaseSchedule,
        retry: Option<RetryPolicy>,
        dram: bool,
    ) -> Self {
        Requester {
            flow,
            effective_mlp: spec.mlp,
            spec,
            retry,
            dram,
            outstanding: 0,
            issued: 0,
            in_flight: Vec::new(),
            deferred: VecDeque::new(),
            next_change: schedule.change(0).unwrap_or(NO_CHANGE),
            schedule,
            next_phase: 0,
        }
    }

    /// The memory controller node this flow's requests go to.
    pub(crate) fn controller(&self) -> NodeId {
        self.spec.mc
    }

    /// Length in flits of the reply a request of this flow delivered at
    /// `node` is answered with: `None` unless `node` is the flow's own
    /// controller (anything else is ordinary traffic).
    pub(crate) fn answered_at(&self, node: NodeId) -> Option<u8> {
        (self.spec.mc == node).then_some(self.spec.reply_len)
    }

    /// Requests holding a window slot right now.
    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Whether the budget is spent and every reply has been seen. An
    /// unbounded requester (`total: None`) never completes.
    pub(crate) fn is_complete(&self) -> bool {
        self.outstanding == 0 && self.spec.total.is_some_and(|total| self.issued >= total)
    }

    /// Whether the requester may issue a fresh request this cycle.
    fn can_issue(&self) -> bool {
        self.outstanding < self.effective_mlp && self.spec.total.is_none_or(|t| self.issued < t)
    }

    /// One source-phase visit: applies the phase changes due by `now`, moves
    /// every in-flight request past its deadline to the backoff lane (or
    /// abandons it once its attempt budget is spent, releasing its window
    /// slot), then re-sends one retry whose backoff has elapsed — it already
    /// owns a window slot and has waited longest — or else issues one fresh
    /// request if the window and the budget allow. Under a DRAM model a
    /// fresh request carries the next cache line of the flow's private
    /// stream. `progress` is the watchdog's forward-progress stamp: giving
    /// up on a lost request counts, its window slot being usable again.
    // taqos-lint: hot
    pub(crate) fn visit(
        &mut self,
        now: Cycle,
        stats: &mut NetStats,
        trace: &mut TraceHook,
        progress: &mut Cycle,
    ) -> Option<RequestToSend> {
        while self.next_change.at <= now {
            self.effective_mlp = self.next_change.mlp;
            self.next_phase += 1;
            let Some(next) = self.schedule.change(self.next_phase) else {
                self.next_change = NO_CHANGE;
                break;
            };
            self.next_change = next;
        }
        let flow = self.flow;
        if let Some(policy) = self.retry {
            let mut i = 0;
            while let Some(&entry) = self.in_flight.get(i) {
                if now < entry.due {
                    i += 1;
                    continue;
                }
                self.in_flight.remove(i);
                if entry.attempts >= policy.max_attempts {
                    self.outstanding -= 1;
                    stats.record_request_abandoned(flow);
                    *progress = now;
                } else {
                    stats.record_request_timeout(flow);
                    trace.emit(|| TraceEvent::Timeout {
                        cycle: now,
                        flow: u64::from(flow.0),
                        seq: entry.seq,
                    });
                    let due = now + policy.backoff_delay(flow, entry.seq, entry.attempts);
                    self.deferred.push_back(Pending { due, ..entry });
                }
            }
            let ready = self.deferred.iter().position(|d| d.due <= now);
            if let Some(retry) = ready.and_then(|idx| self.deferred.remove(idx)) {
                self.in_flight.push(Pending {
                    due: now + policy.deadline,
                    attempts: retry.attempts + 1,
                    ..retry
                });
                stats.record_request_retry(flow);
                trace.emit(|| TraceEvent::Retry {
                    cycle: now,
                    flow: u64::from(flow.0),
                    seq: retry.seq,
                });
                return Some(self.request(retry.line, Some(retry.seq), Some(retry.birth)));
            }
        }
        if !self.can_issue() {
            return None;
        }
        let line = self.dram.then(|| requester_line(flow, self.issued));
        let seq = self.retry.map(|policy| {
            self.in_flight.push(Pending {
                seq: self.issued,
                birth: now,
                due: now + policy.deadline,
                attempts: 1,
                line,
            });
            self.issued
        });
        self.outstanding += 1;
        self.issued += 1;
        stats.record_request_issued(flow);
        Some(self.request(line, seq, None))
    }

    fn request(&self, line: Option<u64>, seq: Option<u64>, birth: Option<Cycle>) -> RequestToSend {
        let packet = GeneratedPacket {
            dst: self.spec.mc,
            len_flits: self.spec.request_len,
            class: PacketClass::Request,
        };
        RequestToSend {
            packet,
            line,
            seq,
            birth,
        }
    }

    /// A closed-loop reply of this flow was delivered, carrying `seq` and
    /// the request's birth. Without a retry policy every reply credits the
    /// window. Under one the reply must match a sequence number still
    /// considered live: waiting for this reply, or already timed out and
    /// parked for a retry (the original raced the deadline and won). A reply
    /// matching neither is stale — a duplicate whose request an earlier copy
    /// completed, or one abandoned — and leaves the window untouched.
    /// Records the round trip or the stale reply; returns whether a request
    /// completed.
    // taqos-lint: hot
    pub(crate) fn on_reply(
        &mut self,
        seq: Option<u64>,
        request_birth: Cycle,
        now: Cycle,
        stats: &mut NetStats,
    ) -> bool {
        let birth = match seq.filter(|_| self.retry.is_some()) {
            None => Some(request_birth),
            Some(seq) => {
                if let Some(pos) = self.in_flight.iter().position(|r| r.seq == seq) {
                    Some(self.in_flight.remove(pos).birth)
                } else {
                    let pos = self.deferred.iter().position(|d| d.seq == seq);
                    pos.and_then(|pos| self.deferred.remove(pos))
                        .map(|d| d.birth)
                }
            }
        };
        let Some(birth) = birth else {
            stats.record_stale_reply(self.flow);
            return false;
        };
        debug_assert!(self.outstanding > 0, "reply without a request");
        self.outstanding -= 1;
        stats.record_round_trip(self.flow, birth, now);
        true
    }

    /// When the next visit can matter, given that nothing is delivered in
    /// between: `None` while the window is open (a fresh request issues at
    /// the very next visit), otherwise the earliest cycle at which time
    /// alone makes a visit necessary — the next phase change, the earliest
    /// in-flight deadline or the earliest deferred retry — or `Cycle::MAX`
    /// when no threshold is pending.
    // taqos-lint: hot
    pub(crate) fn next_wake(&self) -> Option<Cycle> {
        if self.can_issue() {
            return None;
        }
        let timers = self.in_flight.iter().chain(&self.deferred).map(|r| r.due);
        Some(timers.fold(self.next_change.at, Cycle::min))
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

    /// One step of a table-driven requester run.
    enum Step {
        /// `visit(at)` must send `(seq, retried)` (or nothing) and stamp
        /// watchdog progress iff it abandoned a request.
        Visit(Cycle, Option<(u64, bool)>, bool),
        /// A reply carrying `seq` delivered at `at` must complete a request
        /// (`true`) or be stale (`false`).
        Reply(Cycle, u64, bool),
    }

    fn drive(
        requester: &mut Requester,
        stats: &mut NetStats,
        steps: &[Step],
    ) -> Vec<RequestToSend> {
        let mut sent = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            match *step {
                Step::Visit(at, want, abandoned) => {
                    let mut progress = 0;
                    let send = requester.visit(at, stats, &mut TraceHook::Off, &mut progress);
                    let got = send.map(|r| (r.seq.unwrap_or(0), r.birth.is_some()));
                    assert_eq!((got, progress == at), (want, abandoned), "step {i}");
                    sent.extend(send);
                }
                Step::Reply(at, seq, completes) => {
                    let got = requester.on_reply(Some(seq), 0, at, stats);
                    assert_eq!(got, completes, "step {i}");
                }
            }
        }
        sent
    }

    #[test]
    fn window_and_budget_gate_issue() {
        let spec = RequesterSpec::paper(NodeId(0), 2).with_total(3);
        let mut r = Requester::new(FlowId(0), spec, PhaseSchedule::default(), None, false);
        let mut stats = NetStats::new(1);
        let sends = |r: &mut Requester, stats: &mut NetStats, at| {
            r.visit(at, stats, &mut TraceHook::Off, &mut 0).is_some()
        };
        assert!(sends(&mut r, &mut stats, 1) && sends(&mut r, &mut stats, 2));
        assert!(!sends(&mut r, &mut stats, 3), "window full");
        assert_eq!(r.next_wake(), Some(Cycle::MAX), "only a reply reopens it");
        assert!(r.on_reply(None, 1, 9, &mut stats));
        assert_eq!(r.next_wake(), None, "window open: visit next cycle");
        assert!(sends(&mut r, &mut stats, 10));
        assert!(!sends(&mut r, &mut stats, 11), "budget spent");
        assert!(!r.is_complete());
        assert!(r.on_reply(None, 2, 12, &mut stats) && r.on_reply(None, 10, 13, &mut stats));
        assert!(r.is_complete());
    }

    /// The window follows a burst train through the one accessor: off from
    /// cycle 0, open on the burst, several changes applied by one late
    /// visit, and no wake-up once the train is spent.
    #[test]
    fn a_burst_train_gates_the_window_on_its_cycles() {
        // Bursts of window 2 at [5, 8) and [25, 28); 45 is not before 45.
        let train = BurstTrain::new(2, 5, 20, 3, 45).expect("valid train");
        let spec = RequesterSpec::paper(NodeId(0), 4);
        let mut r = Requester::new(FlowId(0), spec, PhaseSchedule::Bursts(train), None, false);
        let mut stats = NetStats::new(1);
        let sends = |r: &mut Requester, stats: &mut NetStats, at| {
            r.visit(at, stats, &mut TraceHook::Off, &mut 0).is_some()
        };
        assert!(
            !sends(&mut r, &mut stats, 0),
            "a late first burst starts off"
        );
        assert_eq!(r.next_wake(), Some(5));
        assert!(sends(&mut r, &mut stats, 5) && sends(&mut r, &mut stats, 6));
        assert!(!sends(&mut r, &mut stats, 7), "burst window full");
        assert_eq!(r.next_wake(), Some(8));
        assert!(r.on_reply(None, 5, 10, &mut stats) && r.on_reply(None, 6, 10, &mut stats));
        assert!(!sends(&mut r, &mut stats, 10), "off since cycle 8");
        assert_eq!(r.next_wake(), Some(25));
        assert!(
            !sends(&mut r, &mut stats, 30),
            "on at 25 and off at 28, both due"
        );
        assert_eq!(r.next_wake(), Some(Cycle::MAX), "the train is spent");

        for (offset, period, on_len) in [(0, 20, 0), (0, 20, 20), (20, 20, 3), (0, 0, 0)] {
            assert!(BurstTrain::new(2, offset, period, on_len, 45).is_err());
        }
    }

    /// Deadline → backoff lane → retry → abandonment, and reply matching
    /// against the in-flight and deferred lanes, in reported order. Backoff
    /// 1 makes the jitter (`hash % backoff`) zero, so every cycle is exact.
    #[test]
    fn deadlines_retries_abandonment_and_reply_matching_follow_the_policy() {
        let policy = RetryPolicy::new(10, 2).with_backoff(1);
        let spec = RequesterSpec::paper(NodeId(4), 1);
        let flow = FlowId(3);
        let mut r = Requester::new(flow, spec, PhaseSchedule::default(), Some(policy), true);
        let mut stats = NetStats::new(4);
        let steps = [
            Step::Visit(1, Some((0, false)), false), // fresh seq 0
            Step::Visit(10, None, false),            // deadline is 1 + 10
            Step::Visit(11, None, false),            // timed out: backoff lane until 12
            Step::Visit(12, Some((0, true)), false), // the retry, second and last attempt
            Step::Visit(21, None, false),
            Step::Visit(22, Some((1, false)), true), // budget spent: abandoned, slot reused
            Step::Visit(32, None, false),            // seq 1 timed out: backoff lane
            Step::Reply(32, 1, true),                // the original raced the deadline and won
            Step::Reply(33, 1, false),               // a second copy is stale
            Step::Visit(33, Some((2, false)), false), // nothing left to retry: fresh seq 2
            Step::Reply(34, 0, false),               // a reply for the abandoned request
        ];
        let sent = drive(&mut r, &mut stats, &steps);
        // The retry reuses the original's sequence number and cache line and
        // carries its first-send cycle; fresh requests carry no birth.
        let line = requester_line(flow, 0);
        let lines: Vec<_> = sent.iter().map(|s| (s.seq, s.line, s.birth)).collect();
        assert_eq!(
            lines,
            [
                (Some(0), Some(line), None),
                (Some(0), Some(line), Some(1)),
                (Some(1), Some(line + 1), None),
                (Some(2), Some(line + 2), None),
            ]
        );
        assert!(sent
            .iter()
            .all(|s| s.packet == GeneratedPacket::request(NodeId(4))));
        let fs = &stats.flows[flow.index()];
        assert_eq!(
            (fs.issued_requests, fs.request_timeouts, fs.request_retries),
            (3, 2, 1),
            "an abandonment is not counted as a timeout"
        );
        assert_eq!(
            (fs.abandoned_requests, fs.round_trips, fs.stale_replies),
            (1, 1, 2)
        );
        // issued == round_trips + abandoned + in flight.
        assert_eq!(r.outstanding(), 1);
        assert_eq!(r.next_wake(), Some(43), "seq 2 sent at 33, deadline 10");
    }

    /// Each fails at the parent commit, where `validate` bounded nothing
    /// from above: the deadline overflowed `sent + deadline`, the backoff
    /// lost its high bits in `backoff << 16`.
    #[test]
    fn an_unrepresentable_deadline_is_rejected() {
        let policy = RetryPolicy::new(Cycle::MAX, 3).with_backoff(1);
        assert!(matches!(policy.validate(), Err(SimError::Spec(_))));
        assert!(RetryPolicy::new(1 << 62, 3)
            .with_backoff(1)
            .validate()
            .is_ok());
    }

    #[test]
    fn an_unrepresentable_backoff_is_rejected() {
        let policy = RetryPolicy::new(400, 3).with_backoff(1 << 60);
        assert!(matches!(policy.validate(), Err(SimError::Spec(_))));
        let widest = RetryPolicy::new(400, 3).with_backoff(1 << 46);
        assert!(widest.validate().is_ok());
        assert!(widest.backoff_delay(FlowId(0), 0, 40) >= widest.backoff << 16);
    }
}
