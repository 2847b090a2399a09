//! Mechanical constants of the simulated network.

use crate::ids::Cycle;
use serde::{Deserialize, Serialize};

/// Which data-structure engine the simulator uses for its hot path.
///
/// Both engines are cycle-for-cycle equivalent — they produce bit-identical
/// [`crate::stats::NetStats`] for the same spec, policy, generators and seed.
/// Everything they do differently is stated once, in
/// `network/engine.rs`:
///
/// * [`EngineKind::Optimized`] (the default) stores packets in a generational
///   slab arena indexed directly by [`crate::ids::PacketId`], schedules
///   events on a fixed-horizon timing wheel (with a binary-heap overflow lane
///   for rare long delays), keeps persistent per-output arbitration request
///   lists with memoised priorities, and visits only the routers, outputs
///   and sources its activity masks say have work.
/// * [`EngineKind::Reference`] is the oracle: a `HashMap` packet store, a
///   pure binary-heap event queue, and stateless exhaustive passes — every
///   source, router, port and output is visited every cycle, every request
///   list is gathered by rescanning the input VCs, and every priority is a
///   direct [`crate::qos::RouterQos::priority`] call. It computes what the
///   seed engine computed and shares none of the optimized engine's
///   incremental state, which is what makes engine equivalence a test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// Slab packet store + timing wheel + scratch-buffer arbitration +
    /// active-set tracking.
    #[default]
    Optimized,
    /// The oracle: hash-map store, binary-heap queue, exhaustive scans.
    Reference,
}

impl EngineKind {
    /// Whether this is the reference engine.
    pub(crate) fn is_reference(self) -> bool {
        matches!(self, EngineKind::Reference)
    }
}

/// Telemetry switches: latency histograms and per-frame time-series
/// sampling.
///
/// Everything defaults to **off**, and the disabled paths are free on the
/// hot loop: histogram recording is a single branch inside the existing
/// delivery bookkeeping, and frame sampling only runs when a sampler was
/// constructed. Flit-level *tracing* is not configured here — a trace sink
/// carries a destination writer (not `Copy`), so it is installed on the
/// network directly with [`crate::network::Network::with_trace_sink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Record per-flow and aggregate latency/round-trip histograms
    /// ([`taqos_telemetry::Hist64`]) alongside the existing sum/count
    /// statistics.
    pub(crate) histograms: bool,
    /// Per-frame time-series cadence in cycles; `0` disables sampling. At
    /// every multiple of this cadence the network snapshots per-flow
    /// progress deltas, router occupancy and link utilisation into
    /// [`crate::stats::NetStats::frames`].
    pub(crate) frame_len: Cycle,
    /// Maximum retained frames: older frames are overwritten (and counted as
    /// dropped) once the preallocated ring is full.
    pub(crate) max_frames: usize,
}

impl TelemetryConfig {
    /// Everything off (the default).
    pub fn off() -> Self {
        Self::default()
    }

    /// Histograms and frame sampling both enabled at the given cadence.
    pub fn full(frame_len: Cycle) -> Self {
        TelemetryConfig::default()
            .with_histograms(true)
            .with_frames(frame_len)
    }

    /// Returns this configuration with histogram recording switched.
    #[must_use]
    pub fn with_histograms(mut self, on: bool) -> Self {
        self.histograms = on;
        self
    }

    /// Returns this configuration with the given sampling cadence in cycles
    /// (`0` disables frame sampling).
    #[must_use]
    pub fn with_frames(mut self, frame_len: Cycle) -> Self {
        self.frame_len = frame_len;
        self
    }

    /// Returns this configuration with the given frame-ring capacity.
    #[must_use]
    pub fn with_max_frames(mut self, max_frames: usize) -> Self {
        self.max_frames = max_frames;
        self
    }

    /// Whether frame sampling is enabled.
    pub(crate) fn frames_enabled(&self) -> bool {
        self.frame_len > 0 && self.max_frames > 0
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            histograms: false,
            frame_len: 0,
            max_frames: 1024,
        }
    }
}

/// Per-run settings of the simulation (independent of topology and QOS
/// policy). The fixed mechanical parameters of the modelled hardware are the
/// associated constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Hot-path engine selection; see [`EngineKind`].
    pub(crate) engine: EngineKind,
    /// Deadlock/livelock watchdog horizon for the closed-loop driver: if a
    /// still-incomplete run observes no forward progress (no packet
    /// generated, delivered, serviced or abandoned) for this many cycles,
    /// [`crate::sim::run_closed`] fails with
    /// [`crate::error::SimError::NoForwardProgress`] instead of spinning
    /// until the cycle budget. `0` disables the watchdog.
    pub(crate) progress_watchdog: Cycle,
    /// Telemetry switches (histograms, frame sampling); see
    /// [`TelemetryConfig`]. Off by default.
    pub(crate) telemetry: TelemetryConfig,
}

impl SimConfig {
    /// Maximum number of granted-but-unfinished transfers queued per output
    /// port. A small queue lets back-to-back packets stream without pipeline
    /// bubbles while keeping arbitration decisions timely.
    pub(crate) const GRANT_QUEUE_DEPTH: usize = 3;
    /// Credit return latency in cycles (freed VC to upstream output port).
    pub(crate) const CREDIT_DELAY: Cycle = 1;
    /// Fixed component of the ACK network latency.
    pub(crate) const ACK_LATENCY_BASE: Cycle = 4;
    /// Per-hop component of the ACK network latency.
    pub(crate) const ACK_LATENCY_PER_HOP: Cycle = 1;

    /// ACK/NACK latency for a packet whose source is `hops` hops from the
    /// point of delivery or discard.
    pub(crate) fn ack_latency(hops: u32) -> Cycle {
        Self::ACK_LATENCY_BASE + Self::ACK_LATENCY_PER_HOP * Cycle::from(hops)
    }

    /// Returns this configuration with the given engine selected.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Returns this configuration with the given progress-watchdog horizon
    /// (in cycles; `0` disables the watchdog).
    #[must_use]
    pub fn with_progress_watchdog(mut self, cycles: Cycle) -> Self {
        self.progress_watchdog = cycles;
        self
    }

    /// Returns this configuration with the given telemetry switches.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            engine: EngineKind::Optimized,
            progress_watchdog: 50_000,
            telemetry: TelemetryConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = SimConfig::default();
        // A zero-deep grant queue would never grant a packet and a zero
        // credit delay would return a credit within the cycle that freed it.
        const _: () = assert!(SimConfig::GRANT_QUEUE_DEPTH >= 1 && SimConfig::CREDIT_DELAY >= 1);
        assert_eq!(SimConfig::ack_latency(0), SimConfig::ACK_LATENCY_BASE);
        assert_eq!(
            SimConfig::ack_latency(3),
            SimConfig::ACK_LATENCY_BASE + 3 * SimConfig::ACK_LATENCY_PER_HOP
        );
        assert_eq!(cfg.engine, EngineKind::Optimized);
        assert!(cfg.progress_watchdog > 0, "watchdog on by default");
        let relaxed = cfg.with_progress_watchdog(0);
        assert_eq!(relaxed.progress_watchdog, 0);
    }

    #[test]
    fn telemetry_defaults_off() {
        let cfg = SimConfig::default();
        assert!(!cfg.telemetry.histograms);
        assert!(!cfg.telemetry.frames_enabled());
        let on = cfg.with_telemetry(TelemetryConfig::full(500));
        assert!(on.telemetry.histograms);
        assert!(on.telemetry.frames_enabled());
        assert_eq!(on.telemetry.frame_len, 500);
        assert!(on.telemetry.max_frames > 0, "default ring capacity");
        let capped = TelemetryConfig::full(100).with_max_frames(16);
        assert_eq!(capped.max_frames, 16);
        assert!(!TelemetryConfig::off().frames_enabled());
    }

    #[test]
    fn engine_selection() {
        let cfg = SimConfig::default().with_engine(EngineKind::Reference);
        assert!(cfg.engine.is_reference());
        assert!(!EngineKind::Optimized.is_reference());
        assert_eq!(EngineKind::default(), EngineKind::Optimized);
    }
}
