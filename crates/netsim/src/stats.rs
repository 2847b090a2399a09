//! Simulation statistics: latency, throughput, fairness inputs and
//! preemption behaviour.

use crate::ids::{Cycle, FlowId};
use serde::{Deserialize, Serialize};
use taqos_telemetry::{FrameSeries, Hist64};

/// Per-flow counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowStats {
    /// Packets generated at the source queue.
    pub generated_packets: u64,
    /// Flits generated at the source queue.
    pub generated_flits: u64,
    /// Packets injected into the network (first transmissions only).
    pub injected_packets: u64,
    /// Packets delivered to their destination terminal.
    pub delivered_packets: u64,
    /// Flits delivered to their destination terminal.
    pub delivered_flits: u64,
    /// Packets delivered during the measurement window.
    pub measured_delivered_packets: u64,
    /// Flits delivered during the measurement window.
    pub(crate) measured_delivered_flits: u64,
    /// Sum of packet latencies for measured packets (born in the window),
    /// in cycles.
    pub latency_sum: u64,
    /// Number of measured latency samples.
    pub latency_samples: u64,
    /// Times a packet of this flow was preempted (discarded).
    pub(crate) preemptions: u64,
    /// Retransmissions performed by this flow's source.
    pub retransmissions: u64,
    /// Closed-loop requests issued by this flow's MLP-limited source.
    pub issued_requests: u64,
    /// Closed-loop round trips completed (reply delivered at the requester),
    /// whole run.
    pub round_trips: u64,
    /// Round trips completed during the measurement window.
    pub measured_round_trips: u64,
    /// Sum of round-trip latencies of measured round trips (requests issued
    /// during the window whose reply arrived), in cycles.
    pub rt_latency_sum: u64,
    /// Number of measured round-trip samples.
    pub rt_samples: u64,
    /// DRAM row-buffer hits scored by this flow's requests (whole run).
    pub(crate) dram_row_hits: u64,
    /// DRAM row-buffer misses scored by this flow's requests (whole run).
    pub(crate) dram_row_misses: u64,
    /// Requests of this flow NACKed by a full controller queue at arrival —
    /// overflow NACKs (each one is retransmitted over the fabric; whole
    /// run).
    pub dram_rejections: u64,
    /// Requests of this flow admitted to a controller queue and later
    /// evicted by a higher-priority arrival — eviction NACKs, counted
    /// separately from overflow NACKs (each one is retransmitted over the
    /// fabric; whole run). Only the priority-aware schedulers evict.
    pub dram_evictions: u64,
    /// Closed-loop requests of this flow whose deadline expired before a
    /// reply arrived (each timeout either schedules a backoff retry or, once
    /// the attempt budget is exhausted, abandons the request). Zero without
    /// a [`crate::closed_loop::RetryPolicy`].
    pub request_timeouts: u64,
    /// Timed-out requests re-issued after their exponential backoff. Retries
    /// reuse the original request's sequence number and logical birth cycle
    /// and do **not** count as newly issued requests.
    pub request_retries: u64,
    /// Requests abandoned by the retry layer after exhausting the attempt
    /// budget: the requester gave up, released the MLP window slot, and will
    /// discard any late reply as stale.
    pub abandoned_requests: u64,
    /// Replies delivered for a request that had already been abandoned or
    /// completed by an earlier copy (a retry raced its original). Stale
    /// replies are discarded without touching the round-trip counters.
    pub(crate) stale_replies: u64,
    /// Closed-loop requests of this flow still outstanding when the run's
    /// statistics were folded (in flight at the horizon). On a completed run
    /// this is zero; on a fixed-window or faulted run it closes the
    /// conservation invariant
    /// `issued == round_trips + abandoned + in_flight`.
    pub requests_in_flight: u64,
    /// Histogram of measured packet latencies (same samples as
    /// `latency_sum`/`latency_samples`). Empty unless
    /// `TelemetryConfig::histograms` is on.
    pub latency_hist: Hist64,
    /// Histogram of measured round-trip latencies (same samples as
    /// `rt_latency_sum`/`rt_samples`). Empty unless histograms are on.
    pub rt_hist: Hist64,
}

/// Aggregate behaviour of the DRAM-backed memory controllers (zero when the
/// closed loop runs without a DRAM model). All counters are whole-run exact
/// integers, so engine-equivalence comparisons cover the DRAM model too.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Requests that entered DRAM service (counted at the bank-service
    /// *start*; each releases one reply when its bank completes, so a
    /// fixed-window run may end with the last few still in flight).
    pub serviced_requests: u64,
    /// Services that hit the bank's open row.
    pub row_hits: u64,
    /// Services that missed the open row (precharge + activate + CAS).
    pub row_misses: u64,
    /// Requests rejected (NACKed) at arrival by a full controller queue —
    /// overflow NACKs.
    pub rejected_requests: u64,
    /// Queued requests evicted (NACKed) in favour of a higher-priority
    /// arrival — eviction NACKs, disjoint from `rejected_requests`. Zero
    /// under [`crate::closed_loop::DramScheduler::Fcfs`] and under Stall
    /// backpressure.
    pub evicted_requests: u64,
    /// Requests parked in a stall lane (Stall backpressure), holding their
    /// ejection-slot credit until the queue had room.
    pub stalled_requests: u64,
    /// Sum over serviced requests of (service start − arrival at the
    /// controller), in cycles: time spent waiting for a bank. Recorded at
    /// service start, whichever scheduler picked the request and in
    /// whatever order — no FIFO assumption.
    pub queue_wait_sum: u64,
    /// Largest queue wait of any serviced request, in cycles.
    pub max_queue_wait: u64,
    /// High-water mark of any single controller's waiting-request queue.
    /// Recorded on every enqueue (arrivals, eviction swaps and stall-lane
    /// promotions alike), so it is scheduler-agnostic.
    pub max_queue_occupancy: u64,
    /// Sum of service latencies issued across all banks, in bank-cycles,
    /// charged at service start (divide by `cycles × banks × controllers`
    /// for mean bank utilisation).
    pub bank_busy_cycles: u64,
}

impl DramStats {
    /// Mean cycles a serviced request waited for a bank, or `None` when no
    /// request completed service.
    pub fn avg_queue_wait(&self) -> Option<f64> {
        if self.serviced_requests == 0 {
            None
        } else {
            Some(self.queue_wait_sum as f64 / self.serviced_requests as f64)
        }
    }

    /// Fraction of services that hit the open row, or `None` when no request
    /// completed service.
    pub fn row_hit_rate(&self) -> Option<f64> {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            None
        } else {
            Some(self.row_hits as f64 / total as f64)
        }
    }
}

/// Aggregate counters of injected-fault activity (all zero when the run has
/// no [`crate::fault::FaultPlan`], so fault-free statistics stay bit-identical
/// to pre-fault builds).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Head launches dropped because the link they were about to traverse
    /// was down.
    pub link_drops: u64,
    /// Head launches dropped because the launching or receiving router was
    /// down.
    pub router_drops: u64,
    /// Head launches dropped by flit corruption (the whole packet is
    /// discarded and NACKed — virtual cut-through transfers packets
    /// atomically).
    pub corruption_drops: u64,
    /// Closed-loop requests bounced (NACKed) at a memory controller whose
    /// node was dark under an `McOutage` fault.
    pub mc_outage_rejections: u64,
    /// Packets abandoned at the fault layer after exhausting the fault
    /// plan's retransmit budget: the source was ACKed without a delivery, so
    /// the packet ends its life un-delivered by design rather than looping
    /// forever against dead hardware.
    pub abandoned_packets: u64,
}

impl FaultStats {
    /// Total head launches dropped by injected faults (link + router +
    /// corruption; controller-outage bounces are counted separately since
    /// they happen at delivery, not launch).
    pub fn total_drops(&self) -> u64 {
        self.link_drops + self.router_drops + self.corruption_drops
    }
}

/// Aggregate statistics of one simulation run.
///
/// Every field is an exact integer counter, so `NetStats` is `Eq`: two runs
/// of the same configuration and seed must produce *identical* statistics,
/// and the engine-equivalence tests compare entire `NetStats` values between
/// the optimized and reference engines with `==`.
// The `Eq` derives here and on every nested counter struct (`FlowStats`,
// `DramStats`, `FaultStats`) are what keep it so: a float
// field anywhere in the accounting does not compile.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Per-flow counters, indexed by flow id.
    pub flows: Vec<FlowStats>,
    /// DRAM controller counters (zero without a DRAM model).
    pub dram: DramStats,
    /// Injected-fault counters (zero without a fault plan).
    pub fault: FaultStats,
    /// Start of the measurement window (inclusive), if one was set.
    pub measure_start: Option<Cycle>,
    /// End of the measurement window (exclusive), if one was set.
    pub measure_end: Option<Cycle>,
    /// Total packets delivered (whole run).
    pub delivered_packets: u64,
    /// Total flits delivered (whole run).
    pub delivered_flits: u64,
    /// Total packets generated (whole run).
    pub generated_packets: u64,
    /// Sum of latencies of measured packets, in cycles.
    pub latency_sum: u64,
    /// Number of measured latency samples.
    pub latency_samples: u64,
    /// Largest measured packet latency, in cycles.
    pub max_latency: u64,
    /// Closed-loop round trips completed (whole run).
    pub round_trips: u64,
    /// Sum of measured round-trip latencies, in cycles.
    pub rt_latency_sum: u64,
    /// Number of measured round-trip samples.
    pub rt_samples: u64,
    /// Largest measured round-trip latency, in cycles.
    pub max_round_trip: u64,
    /// Preemption events (a packet preempted twice counts twice).
    pub preemption_events: u64,
    /// Hop traversals wasted by preemptions (node-distance units).
    pub wasted_hops: u64,
    /// Hop traversals performed by delivered packets (node-distance units).
    pub(crate) useful_hops: u64,
    /// Cycle at which a closed (fixed) workload completed, if it did.
    pub completion_cycle: Option<Cycle>,
    /// Total cycles simulated.
    pub cycles: Cycle,
    /// Whether latency histograms were recorded (mirrors
    /// `TelemetryConfig::histograms`). When off, every
    /// histogram in these statistics is empty and the hot path pays one
    /// predictable branch per sample.
    pub histograms_enabled: bool,
    /// Aggregate histogram of measured packet latencies across all flows.
    pub latency_hist: Hist64,
    /// Aggregate histogram of measured round-trip latencies across all
    /// flows.
    pub rt_hist: Hist64,
    /// Per-frame time series collected by the frame sampler, or `None` when
    /// `TelemetryConfig::frame_len` was `0`. Part of
    /// `NetStats` equality, so engine-equivalence checks extend to the whole
    /// series.
    pub frames: Option<FrameSeries>,
}

impl NetStats {
    /// Creates statistics for a network with `num_flows` flows.
    pub fn new(num_flows: usize) -> Self {
        NetStats {
            flows: vec![FlowStats::default(); num_flows],
            ..Default::default()
        }
    }

    /// Whether `cycle` falls within the measurement window. With no window
    /// configured, every cycle is measured.
    pub(crate) fn in_measurement(&self, cycle: Cycle) -> bool {
        let after_start = self.measure_start.is_none_or(|s| cycle >= s);
        let before_end = self.measure_end.is_none_or(|e| cycle < e);
        after_start && before_end
    }

    /// Records delivery of a packet.
    pub(crate) fn record_delivery(
        &mut self,
        flow: FlowId,
        flits: u8,
        hops: u32,
        birth: Cycle,
        delivered_at: Cycle,
    ) {
        self.delivered_packets += 1;
        self.delivered_flits += u64::from(flits);
        self.useful_hops += u64::from(hops);
        let measure_delivery = self.in_measurement(delivered_at);
        let measure_latency = self.in_measurement(birth);
        let fs = &mut self.flows[flow.index()];
        fs.delivered_packets += 1;
        fs.delivered_flits += u64::from(flits);
        if measure_delivery {
            fs.measured_delivered_packets += 1;
            fs.measured_delivered_flits += u64::from(flits);
        }
        if measure_latency {
            let latency = delivered_at.saturating_sub(birth);
            fs.latency_sum += latency;
            fs.latency_samples += 1;
            self.latency_sum += latency;
            self.latency_samples += 1;
            self.max_latency = self.max_latency.max(latency);
            if self.histograms_enabled {
                fs.latency_hist.record(latency);
                self.latency_hist.record(latency);
            }
        }
    }

    /// Records the issue of a closed-loop request by `flow`.
    pub fn record_request_issued(&mut self, flow: FlowId) {
        self.flows[flow.index()].issued_requests += 1;
    }

    /// Records a completed closed-loop round trip of `flow`: the matching
    /// request was generated at `request_birth` and its reply was delivered
    /// back to the requester at `delivered_at`. Throughput counts completions
    /// inside the window; latency samples requests *issued* inside the window
    /// (mirroring the one-way latency convention).
    pub fn record_round_trip(&mut self, flow: FlowId, request_birth: Cycle, delivered_at: Cycle) {
        self.round_trips += 1;
        let measure_completion = self.in_measurement(delivered_at);
        let measure_latency = self.in_measurement(request_birth);
        let fs = &mut self.flows[flow.index()];
        fs.round_trips += 1;
        if measure_completion {
            fs.measured_round_trips += 1;
        }
        if measure_latency {
            let latency = delivered_at.saturating_sub(request_birth);
            fs.rt_latency_sum += latency;
            fs.rt_samples += 1;
            self.rt_latency_sum += latency;
            self.rt_samples += 1;
            self.max_round_trip = self.max_round_trip.max(latency);
            if self.histograms_enabled {
                fs.rt_hist.record(latency);
                self.rt_hist.record(latency);
            }
        }
    }

    /// The `pct`-th percentile of measured round-trip latency as a
    /// conservative upper bound; `None` when histograms were off or no round
    /// trip was sampled.
    pub fn rt_percentile(&self, pct: u8) -> Option<u64> {
        self.rt_hist.percentile(pct)
    }

    /// Average round-trip latency over measured closed-loop requests, or
    /// `None` when nothing completed.
    pub fn avg_round_trip(&self) -> Option<f64> {
        if self.rt_samples == 0 {
            None
        } else {
            Some(self.rt_latency_sum as f64 / self.rt_samples as f64)
        }
    }

    /// Completed closed-loop round trips per cycle over the measurement
    /// window, aggregated across all flows (accepted request throughput).
    pub fn round_trip_throughput(&self) -> f64 {
        let (Some(start), Some(end)) = (self.measure_start, self.measure_end) else {
            if self.cycles == 0 {
                return 0.0;
            }
            return self.round_trips as f64 / self.cycles as f64;
        };
        let window = end.saturating_sub(start).max(1);
        let measured: u64 = self.flows.iter().map(|f| f.measured_round_trips).sum();
        measured as f64 / window as f64
    }

    /// Records the start of DRAM service for a request of `flow` that
    /// arrived at its controller at `arrived` and started service at `now`,
    /// with `hit` telling whether it hit the open row and `latency` the
    /// service time charged (cycles).
    pub(crate) fn record_dram_service(
        &mut self,
        flow: FlowId,
        hit: bool,
        arrived: Cycle,
        now: Cycle,
        latency: Cycle,
    ) {
        self.dram.serviced_requests += 1;
        let fs = &mut self.flows[flow.index()];
        if hit {
            self.dram.row_hits += 1;
            fs.dram_row_hits += 1;
        } else {
            self.dram.row_misses += 1;
            fs.dram_row_misses += 1;
        }
        let wait = now.saturating_sub(arrived);
        self.dram.queue_wait_sum += wait;
        self.dram.max_queue_wait = self.dram.max_queue_wait.max(wait);
        self.dram.bank_busy_cycles += latency;
    }

    /// Records the rejection (overflow NACK) of a request of `flow` by a
    /// full controller queue.
    pub(crate) fn record_dram_rejection(&mut self, flow: FlowId) {
        self.dram.rejected_requests += 1;
        self.flows[flow.index()].dram_rejections += 1;
    }

    /// Records the eviction (eviction NACK) of a queued request of `flow`
    /// in favour of a higher-priority arrival.
    pub(crate) fn record_dram_eviction(&mut self, flow: FlowId) {
        self.dram.evicted_requests += 1;
        self.flows[flow.index()].dram_evictions += 1;
    }

    /// Records a request parked in a controller's stall lane (its queue
    /// occupancy is recorded separately, on admission to the queue).
    pub(crate) fn record_dram_stall(&mut self) {
        self.dram.stalled_requests += 1;
    }

    /// Records the waiting-queue occupancy of a controller after an arrival
    /// was enqueued (high-water tracking).
    pub(crate) fn record_dram_occupancy(&mut self, occupancy: usize) {
        self.dram.max_queue_occupancy = self.dram.max_queue_occupancy.max(occupancy as u64);
    }

    /// Records the deadline expiry of an outstanding request of `flow`.
    pub(crate) fn record_request_timeout(&mut self, flow: FlowId) {
        self.flows[flow.index()].request_timeouts += 1;
    }

    /// Records the backoff re-issue of a previously timed-out request of
    /// `flow`.
    pub(crate) fn record_request_retry(&mut self, flow: FlowId) {
        self.flows[flow.index()].request_retries += 1;
    }

    /// Records the abandonment of a request of `flow` whose retry budget ran
    /// out.
    pub(crate) fn record_request_abandoned(&mut self, flow: FlowId) {
        self.flows[flow.index()].abandoned_requests += 1;
    }

    /// Records the delivery of a reply whose request was no longer waiting
    /// (already completed by an earlier copy, or abandoned).
    pub(crate) fn record_stale_reply(&mut self, flow: FlowId) {
        self.flows[flow.index()].stale_replies += 1;
    }

    /// Records a preemption of a packet of `flow` that had traversed `hops`
    /// hop equivalents when it was discarded.
    pub(crate) fn record_preemption(&mut self, flow: FlowId, wasted_hops: u32) {
        self.preemption_events += 1;
        self.wasted_hops += u64::from(wasted_hops);
        self.flows[flow.index()].preemptions += 1;
    }

    /// Average packet latency over measured packets, in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.latency_samples == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.latency_samples as f64
        }
    }

    /// Fraction of packets that experienced a preemption, relative to all
    /// delivered packets plus preemption events (each event requires a
    /// replay).
    pub fn preempted_packet_fraction(&self) -> f64 {
        let total = self.delivered_packets + self.preemption_events;
        if total == 0 {
            0.0
        } else {
            self.preemption_events as f64 / total as f64
        }
    }

    /// Fraction of hop traversals wasted by preemptions.
    pub fn wasted_hop_fraction(&self) -> f64 {
        let total = self.useful_hops + self.wasted_hops;
        if total == 0 {
            0.0
        } else {
            self.wasted_hops as f64 / total as f64
        }
    }

    /// Measured delivered flits per flow (fairness input).
    pub fn measured_flits_per_flow(&self) -> Vec<u64> {
        self.flows
            .iter()
            .map(|f| f.measured_delivered_flits)
            .collect()
    }

    /// Accepted (delivered) flit throughput per cycle over the measurement
    /// window, aggregated across all flows.
    pub fn accepted_throughput(&self) -> f64 {
        let (Some(start), Some(end)) = (self.measure_start, self.measure_end) else {
            if self.cycles == 0 {
                return 0.0;
            }
            return self.delivered_flits as f64 / self.cycles as f64;
        };
        let window = end.saturating_sub(start).max(1);
        let measured: u64 = self.flows.iter().map(|f| f.measured_delivered_flits).sum();
        measured as f64 / window as f64
    }
}

/// Summary statistics (mean, minimum, maximum, standard deviation) over a set
/// of per-flow throughput observations, as reported in Table 2 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ThroughputSummary {
    /// Mean flits per flow.
    pub mean: f64,
    /// Minimum flits across flows.
    pub min: f64,
    /// Maximum flits across flows.
    pub max: f64,
    /// Population standard deviation across flows.
    pub std_dev: f64,
}

impl ThroughputSummary {
    /// Computes the summary of a set of observations.
    ///
    /// Returns `None` for an empty set.
    pub fn from_observations(values: &[u64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<u64>() as f64 / n;
        let min = *values.iter().min().expect("non-empty") as f64;
        let max = *values.iter().max().expect("non-empty") as f64;
        let var = values
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        Some(ThroughputSummary {
            mean,
            min,
            max,
            std_dev: var.sqrt(),
        })
    }

    /// Minimum as a percentage of the mean.
    pub fn min_pct_of_mean(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            100.0 * self.min / self.mean
        }
    }

    /// Maximum as a percentage of the mean.
    pub fn max_pct_of_mean(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            100.0 * self.max / self.mean
        }
    }

    /// Standard deviation as a percentage of the mean.
    pub fn std_dev_pct_of_mean(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            100.0 * self.std_dev / self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_window_filters_samples() {
        let mut stats = NetStats::new(2);
        stats.measure_start = Some(100);
        stats.measure_end = Some(200);

        // Born before the window: throughput counted (delivered in window),
        // latency not sampled.
        stats.record_delivery(FlowId(0), 4, 3, 50, 150);
        assert_eq!(stats.latency_samples, 0);
        assert_eq!(stats.flows[0].measured_delivered_flits, 4);

        // Born and delivered in the window: both counted.
        stats.record_delivery(FlowId(1), 1, 2, 120, 140);
        assert_eq!(stats.latency_samples, 1);
        assert_eq!(stats.latency_sum, 20);
        assert_eq!(stats.max_latency, 20);

        // Delivered after the window: not counted towards measured flits.
        stats.record_delivery(FlowId(1), 1, 2, 150, 250);
        assert_eq!(stats.flows[1].measured_delivered_flits, 1);
        assert_eq!(stats.delivered_packets, 3);
    }

    #[test]
    fn no_window_measures_everything() {
        let mut stats = NetStats::new(1);
        stats.record_delivery(FlowId(0), 2, 1, 10, 30);
        assert_eq!(stats.latency_samples, 1);
        assert_eq!(stats.avg_latency(), 20.0);
        assert!(stats.in_measurement(0));
        assert!(stats.in_measurement(u64::MAX));
    }

    #[test]
    fn preemption_fractions() {
        let mut stats = NetStats::new(1);
        for _ in 0..90 {
            stats.record_delivery(FlowId(0), 1, 2, 0, 10);
        }
        for _ in 0..10 {
            stats.record_preemption(FlowId(0), 1);
        }
        assert!((stats.preempted_packet_fraction() - 0.1).abs() < 1e-9);
        assert!((stats.wasted_hop_fraction() - 10.0 / 190.0).abs() < 1e-9);
        assert_eq!(stats.flows[0].preemptions, 10);
    }

    #[test]
    fn histograms_record_only_when_enabled() {
        let mut off = NetStats::new(1);
        off.record_delivery(FlowId(0), 1, 1, 10, 30);
        off.record_round_trip(FlowId(0), 10, 80);
        assert!(off.latency_hist.is_empty());
        assert!(off.rt_hist.is_empty());
        assert!(off.flows[0].latency_hist.is_empty());
        assert_eq!(off.latency_hist.percentile(99), None);

        let mut on = NetStats::new(1);
        on.histograms_enabled = true;
        on.record_delivery(FlowId(0), 1, 1, 10, 30);
        on.record_round_trip(FlowId(0), 10, 80);
        assert_eq!(on.latency_hist.count(), on.latency_samples);
        assert_eq!(on.rt_hist.count(), on.rt_samples);
        assert_eq!(on.flows[0].latency_hist.count(), 1);
        assert_eq!(on.latency_hist.percentile(99), Some(20));
        assert_eq!(on.rt_percentile(99), Some(70));
        assert_eq!(on.latency_hist.sum(), on.latency_sum);
        assert_eq!(on.rt_hist.sum(), on.rt_latency_sum);
    }

    #[test]
    fn throughput_summary_matches_hand_computation() {
        let summary = ThroughputSummary::from_observations(&[4, 6]).unwrap();
        assert_eq!(summary.mean, 5.0);
        assert_eq!(summary.min, 4.0);
        assert_eq!(summary.max, 6.0);
        assert!((summary.std_dev - 1.0).abs() < 1e-9);
        assert!((summary.min_pct_of_mean() - 80.0).abs() < 1e-9);
        assert!((summary.max_pct_of_mean() - 120.0).abs() < 1e-9);
        assert!((summary.std_dev_pct_of_mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_summary_empty_is_none() {
        assert!(ThroughputSummary::from_observations(&[]).is_none());
    }

    #[test]
    fn accepted_throughput_uses_window() {
        let mut stats = NetStats::new(1);
        stats.measure_start = Some(0);
        stats.measure_end = Some(100);
        for _ in 0..50 {
            stats.record_delivery(FlowId(0), 1, 1, 10, 20);
        }
        assert!((stats.accepted_throughput() - 0.5).abs() < 1e-9);
    }
}
