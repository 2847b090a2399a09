//! Per-frame time-series sampling.
//!
//! A [`FrameSampler`] snapshots cumulative simulator counters at a fixed
//! cadence (the sampling *frame*) and stores per-frame **deltas** in a
//! preallocated ring: per-flow injection/delivery/round-trip progress,
//! per-router buffer occupancy (instantaneous), and per-link launched-flit
//! deltas (link utilisation). Every figure is an exact integer, so the
//! resulting [`FrameSeries`] is `Eq` and engine-equivalence comparisons
//! extend to the whole time series.

/// Per-flow progress within one sampling frame (deltas of cumulative
/// counters, except where noted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowFrame {
    /// Packets injected into the network during the frame.
    pub injected_packets: u64,
    /// Flits delivered during the frame.
    pub delivered_flits: u64,
    /// Sum of packet latencies sampled during the frame, in cycles.
    pub latency_sum: u64,
    /// Packet-latency samples taken during the frame.
    pub latency_samples: u64,
    /// Closed-loop round trips completed during the frame.
    pub round_trips: u64,
    /// Sum of round-trip latencies sampled during the frame, in cycles.
    pub rt_latency_sum: u64,
    /// Round-trip latency samples taken during the frame.
    pub rt_samples: u64,
}

/// One sampled frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameSnapshot {
    /// Zero-based index of the frame since the start of the run.
    pub frame: u64,
    /// Cycle at which the frame closed (a multiple of the frame length).
    pub cycle: u64,
    /// Per-flow progress during the frame.
    pub flows: Vec<FlowFrame>,
    /// Buffered virtual channels per router when the frame closed
    /// (instantaneous occupancy, not a delta).
    pub router_occupancy: Vec<u64>,
    /// Flits launched per output link during the frame (utilisation delta;
    /// links are flattened router-major, output-port-minor).
    pub link_flits: Vec<u64>,
}

/// A completed per-frame time series, oldest frame first.
///
/// When the ring capacity was exceeded during collection only the most
/// recent frames survive; [`FrameSeries::dropped_frames`] reports how many
/// older frames were overwritten, so consumers never mistake a truncated
/// series for complete coverage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameSeries {
    /// Sampling cadence in cycles.
    pub frame_len: u64,
    /// Retained frames, oldest first.
    pub frames: Vec<FrameSnapshot>,
    /// Frames sampled but overwritten because the ring was full.
    pub dropped_frames: u64,
}

impl FrameSeries {
    /// Whether no frame was retained.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Number of retained frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }
}

/// Collects per-frame snapshots into a preallocated ring.
///
/// The sampler is constructed once with the network's dimensions; sampling
/// performs no heap allocation (snapshots are written in place over the
/// oldest ring slot once the ring is full).
#[derive(Debug, Clone)]
pub struct FrameSampler {
    frame_len: u64,
    capacity: usize,
    ring: Vec<FrameSnapshot>,
    /// Index of the oldest live slot.
    head: usize,
    /// Number of live slots.
    len: usize,
    /// Frames sampled so far (monotonic; exceeds `len` once the ring wraps).
    frames_seen: u64,
    /// Cumulative per-flow counters at the previous sample.
    prev_flows: Vec<FlowFrame>,
    /// Cumulative per-link launched-flit counters at the previous sample.
    prev_links: Vec<u64>,
}

impl FrameSampler {
    /// Creates a sampler for a network with the given dimensions.
    ///
    /// `frame_len` must be positive; `capacity` is the maximum number of
    /// retained frames (older frames are overwritten once exceeded).
    pub fn new(
        frame_len: u64,
        capacity: usize,
        num_flows: usize,
        num_routers: usize,
        num_links: usize,
    ) -> Self {
        assert!(frame_len > 0, "frame length must be positive");
        assert!(capacity > 0, "ring capacity must be positive");
        let slot = FrameSnapshot {
            frame: 0,
            cycle: 0,
            flows: vec![FlowFrame::default(); num_flows],
            router_occupancy: vec![0; num_routers],
            link_flits: vec![0; num_links],
        };
        FrameSampler {
            frame_len,
            capacity,
            ring: vec![slot; capacity],
            head: 0,
            len: 0,
            frames_seen: 0,
            prev_flows: vec![FlowFrame::default(); num_flows],
            prev_links: vec![0; num_links],
        }
    }

    /// Whether a frame closes at `cycle`.
    pub fn due(&self, cycle: u64) -> bool {
        cycle > 0 && cycle.is_multiple_of(self.frame_len)
    }

    /// Samples one frame: `fill` writes **cumulative** counters into the
    /// snapshot (per-flow totals, instantaneous router occupancy, cumulative
    /// per-link flit counts); the sampler then converts the flow and link
    /// figures to per-frame deltas in place.
    pub fn sample_frame<F: FnOnce(&mut FrameSnapshot)>(&mut self, cycle: u64, fill: F) {
        let slot_idx = if self.len < self.capacity {
            let idx = (self.head + self.len) % self.capacity;
            self.len += 1;
            idx
        } else {
            let idx = self.head;
            self.head = (self.head + 1) % self.capacity;
            idx
        };
        let snap = &mut self.ring[slot_idx];
        snap.frame = self.frames_seen;
        snap.cycle = cycle;
        self.frames_seen += 1;
        fill(snap);
        for (flow, prev) in snap.flows.iter_mut().zip(self.prev_flows.iter_mut()) {
            let cumulative = flow.clone();
            flow.injected_packets = cumulative.injected_packets - prev.injected_packets;
            flow.delivered_flits = cumulative.delivered_flits - prev.delivered_flits;
            flow.latency_sum = cumulative.latency_sum - prev.latency_sum;
            flow.latency_samples = cumulative.latency_samples - prev.latency_samples;
            flow.round_trips = cumulative.round_trips - prev.round_trips;
            flow.rt_latency_sum = cumulative.rt_latency_sum - prev.rt_latency_sum;
            flow.rt_samples = cumulative.rt_samples - prev.rt_samples;
            *prev = cumulative;
        }
        for (link, prev) in snap.link_flits.iter_mut().zip(self.prev_links.iter_mut()) {
            let cumulative = *link;
            *link = cumulative - *prev;
            *prev = cumulative;
        }
    }

    /// Extracts the collected series, oldest frame first.
    pub fn into_series(self) -> FrameSeries {
        let FrameSampler {
            frame_len,
            capacity: _,
            mut ring,
            head,
            len,
            frames_seen,
            ..
        } = self;
        ring.rotate_left(head);
        ring.truncate(len);
        FrameSeries {
            frame_len,
            frames: ring,
            dropped_frames: frames_seen - len as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fills a snapshot from synthetic cumulative counters: flow 0 has
    /// injected `t` packets and delivered `2t` flits by cycle `100t`.
    fn fill_linear(t: u64) -> impl FnOnce(&mut FrameSnapshot) {
        move |snap: &mut FrameSnapshot| {
            snap.flows[0].injected_packets = t;
            snap.flows[0].delivered_flits = 2 * t;
            snap.router_occupancy[0] = t % 3;
            snap.link_flits[0] = 5 * t;
        }
    }

    #[test]
    fn deltas_are_taken_against_the_previous_frame() {
        let mut s = FrameSampler::new(100, 8, 1, 1, 1);
        assert!(!s.due(0));
        assert!(!s.due(50));
        assert!(s.due(100));
        for t in 1..=3u64 {
            s.sample_frame(100 * t, fill_linear(t));
        }
        let series = s.into_series();
        assert_eq!(series.frame_len, 100);
        assert_eq!(series.len(), 3);
        assert_eq!(series.dropped_frames, 0);
        for (i, frame) in series.frames.iter().enumerate() {
            assert_eq!(frame.frame, i as u64);
            assert_eq!(frame.cycle, 100 * (i as u64 + 1));
            assert_eq!(frame.flows[0].injected_packets, 1, "frame {i} delta");
            assert_eq!(frame.flows[0].delivered_flits, 2);
            assert_eq!(frame.link_flits[0], 5);
            // Occupancy is instantaneous, not a delta.
            assert_eq!(frame.router_occupancy[0], (i as u64 + 1) % 3);
        }
    }

    #[test]
    fn ring_overwrites_oldest_frames_and_reports_drops() {
        let mut s = FrameSampler::new(10, 3, 1, 1, 1);
        for t in 1..=5u64 {
            s.sample_frame(10 * t, fill_linear(t));
        }
        assert_eq!(s.frames_seen, 5);
        let series = s.into_series();
        assert_eq!(series.len(), 3);
        assert_eq!(series.dropped_frames, 2);
        let frames: Vec<u64> = series.frames.iter().map(|f| f.frame).collect();
        assert_eq!(frames, vec![2, 3, 4], "oldest frames were dropped");
        // Deltas survive the wrap: they are against the previous *sample*,
        // not the previous retained frame.
        assert!(series
            .frames
            .iter()
            .all(|f| f.flows[0].injected_packets == 1));
    }

    #[test]
    fn empty_sampler_yields_empty_series() {
        let s = FrameSampler::new(100, 4, 2, 2, 2);
        let series = s.into_series();
        assert!(series.is_empty());
        assert_eq!(series.dropped_frames, 0);
    }
}
