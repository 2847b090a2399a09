//! The DRAM service-time model of a memory controller: the bank/row address
//! map, the page-policy latencies and the scheduling/backpressure flavours.
//! Pure configuration and arithmetic; the runtime that applies it is
//! `closed_loop::controller`.

use crate::error::{SimError, SpecError};
use crate::ids::{Cycle, FlowId};
use serde::{Deserialize, Serialize};

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
/// service rate ([`super::ClosedLoopSpec::flow_weights`]); lower values win. The
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
    /// `DramConfig::closed_page_latency` (activate + CAS). Better under
    /// low-locality interleaved streams, worse under streaming.
    Closed,
}

/// Service-time model of a memory controller: a bounded request queue in
/// front of a set of address-interleaved DRAM banks with row-buffer state.
///
/// Requests carry a cache-line address (`Packet::dram_line`,
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
    pub(crate) fn bank_of(&self, line: u64) -> usize {
        ((line / self.lines_per_row) % self.banks as u64) as usize
    }

    /// Row (within its bank) a cache line maps to.
    pub(crate) fn row_of(&self, line: u64) -> u64 {
        line / self.lines_per_row / self.banks as u64
    }

    /// Service latency of a request against the bank's currently open row,
    /// under the **open-page** rule (the closed-page policy never consults
    /// the open row — see [`Self::service_outcome`]).
    pub(crate) fn service_latency(&self, open_row: Option<u64>, row: u64) -> Cycle {
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
    pub(crate) fn closed_page_latency(&self) -> Cycle {
        self.row_miss_latency - (self.row_miss_latency - self.row_hit_latency) / 2
    }

    /// Classification and service latency of an access to `row` against the
    /// bank's open-row state, under the configured [`PagePolicy`]: the
    /// open-page rule of [`Self::service_latency`], or the uniform
    /// never-hitting closed-page cost.
    pub(crate) fn service_outcome(&self, open_row: Option<u64>, row: u64) -> (bool, Cycle) {
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
    pub(crate) fn row_after_service(&self, row: u64) -> Option<u64> {
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
    pub(crate) fn is_overdue(
        &self,
        age: Cycle,
        weight: u64,
        total_weight: u64,
        flows: u64,
    ) -> bool {
        u128::from(age) * u128::from(weight) * u128::from(flows)
            >= u128::from(self.age_cap) * u128::from(total_weight)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the bank count, queue depth, row reach, either
    /// latency, or the age cap is zero, the row-miss latency undercuts the
    /// row-hit latency, or a latency is too large for the bank timeline
    /// (`now + latency`) and the virtual-clock charge
    /// (`latency × VCLOCK_SCALE`) to be representable.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
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
        // The miss latency bounds every service latency from above.
        if !super::delay_fits(self.row_miss_latency, super::VCLOCK_SCALE) {
            return Err(SimError::Spec(SpecError::new(
                "DRAM latencies are too large for the bank timeline and virtual clocks",
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
/// `DramConfig::bank_of`.
pub const DRAM_REGION_LINES: u64 = (1 << 32) + 128;

/// Cache line read by the `issued`-th request of `flow`: each requester
/// streams linearly through a private region, so consecutive requests dwell
/// on one `(bank, row)` pair for [`DramConfig::lines_per_row`] lines —
/// row hits within the MLP window — before moving to the next bank.
pub fn requester_line(flow: FlowId, issued: u64) -> u64 {
    flow.index() as u64 * DRAM_REGION_LINES + issued
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Fails at the parent commit, where `validate` bounded nothing from
    /// above and `now + latency` / `latency * VCLOCK_SCALE` overflowed.
    #[test]
    fn latencies_too_large_for_the_bank_timeline_are_rejected() {
        let huge = Cycle::MAX / 1024;
        for (hit, miss) in [(18, Cycle::MAX), (18, huge), (huge, huge)] {
            let dram = DramConfig::paper().with_latencies(hit, miss);
            assert!(
                matches!(dram.validate(), Err(SimError::Spec(_))),
                "latencies ({hit}, {miss}) must be rejected"
            );
        }
        assert!(DramConfig::paper()
            .with_latencies(1 << 40, 1 << 50)
            .validate()
            .is_ok());
    }
}
