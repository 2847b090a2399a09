//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] schedules component failures against simulation time:
//! links and routers that go down (transiently or permanently), flit
//! corruption on live links, and memory-controller outages. The plan is
//! applied inside `Network::step`, at two well-defined points:
//!
//! * **Head launch** — when an output port is about to launch the *head*
//!   flit of a granted transfer across a dead link, out of or into a dead
//!   router, or through an active corruption window, the whole packet is
//!   dropped at the launching router and NACKed back to its source exactly
//!   like a preemption (virtual cut-through transfers packets atomically,
//!   so the drop granularity is the packet, not the flit). Transfers whose
//!   head already launched complete normally.
//! * **Controller delivery** — a closed-loop request arriving at a sink
//!   whose node is under an `McOutage` fault is bounced (NACKed) like a
//!   DRAM queue rejection; already-queued work at the controller still
//!   completes.
//!
//! Every fault decision is a pure function of the plan, its seed and
//! engine-independent coordinates (cycle, router, port, flow), so both
//! engines observe the *identical* fault sequence and the engine-equivalence
//! tests extend to faulted runs unchanged. A network without a fault plan
//! takes none of these paths, keeping zero-fault runs bit-identical to
//! fault-unaware builds.
//!
//! A NACKed packet is retransmitted by its source and may well run into the
//! same fault again; [`FaultPlan::max_fault_retransmits`] bounds how often
//! before the packet is *abandoned* (the source is ACKed without a
//! delivery), turning "retry forever against dead hardware" into an
//! accounted outcome instead of a livelock.

use crate::error::SpecError;
use crate::ids::{Cycle, NodeId};
use crate::spec::NetworkSpec;
use serde::{Deserialize, Serialize};

/// One million, the denominator of [`FaultKind::CorruptFlits`] probabilities.
pub const PPM: u32 = 1_000_000;

/// What fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A single directed link — output port `out_port` of router `router` —
    /// drops every packet launched across it.
    LinkDown {
        /// Index of the router owning the failed output port.
        router: usize,
        /// Output-port index within that router.
        out_port: usize,
    },
    /// A whole router goes dark: every packet launched *by* it or *towards*
    /// it is dropped. Buffered packets drain by being granted and dropped,
    /// so a dead router never wedges upstream virtual channels forever.
    RouterDown {
        /// Index of the failed router.
        router: usize,
    },
    /// Flit corruption: each head launch anywhere in the network is dropped
    /// with probability `probability_ppm` / 1 000 000, decided by a seeded
    /// hash of (cycle, router, port, flow) so both engines agree.
    CorruptFlits {
        /// Drop probability in parts per million (1 ..= 1 000 000).
        probability_ppm: u32,
    },
    /// The memory controller at `node` stops accepting new requests;
    /// arriving closed-loop requests are NACKed like queue rejections.
    McOutage {
        /// Node whose controller goes dark.
        node: NodeId,
    },
}

/// One scheduled failure: a kind plus the window of cycles it is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// First cycle (inclusive) the fault is active.
    pub start: Cycle,
    /// First cycle the fault is over, or `None` for a permanent fault.
    pub end: Option<Cycle>,
    /// What fails.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// A transient fault active for cycles `start..end`.
    pub fn transient(start: Cycle, end: Cycle, kind: FaultKind) -> Self {
        FaultEvent {
            start,
            end: Some(end),
            kind,
        }
    }

    /// A permanent fault active from `start` onwards.
    pub fn permanent(start: Cycle, kind: FaultKind) -> Self {
        FaultEvent {
            start,
            end: None,
            kind,
        }
    }

    /// Whether the fault never heals.
    pub fn is_permanent(&self) -> bool {
        self.end.is_none()
    }

    /// Whether the fault is active at `now`.
    pub fn is_active(&self, now: Cycle) -> bool {
        now >= self.start && self.end.is_none_or(|e| now < e)
    }
}

/// A deterministic, seeded schedule of component failures.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the corruption hash (and any future randomized fault
    /// decision). Two runs with the same plan and seed observe identical
    /// faults on either engine.
    pub seed: u64,
    /// How many fault-induced drops a single packet survives (each one is
    /// NACKed and retransmitted) before it is abandoned. Must be at least 1.
    pub max_fault_retransmits: u32,
    /// The scheduled failures.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates an empty plan with the given seed and a default retransmit
    /// budget of 8.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            max_fault_retransmits: 8,
            events: Vec::new(),
        }
    }

    /// Adds a scheduled failure.
    #[must_use]
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Sets the per-packet fault retransmit budget.
    #[must_use]
    pub fn with_retransmit_budget(mut self, budget: u32) -> Self {
        self.max_fault_retransmits = budget;
        self
    }

    /// Whether the plan schedules no failures at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Structural validation: windows must be non-empty, corruption
    /// probabilities must be meaningful, and the retransmit budget must be
    /// positive (a budget of 0 would abandon every packet on its first
    /// fault, which is never what a caller means — pass no plan instead).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.max_fault_retransmits == 0 {
            return Err(SpecError::new(
                "fault plan retransmit budget must be at least 1",
            ));
        }
        for (i, ev) in self.events.iter().enumerate() {
            if let Some(end) = ev.end {
                if end <= ev.start {
                    return Err(SpecError::new(format!(
                        "fault event {i} has an empty window ({}..{end})",
                        ev.start
                    )));
                }
            }
            if let FaultKind::CorruptFlits { probability_ppm } = ev.kind {
                if probability_ppm == 0 || probability_ppm > PPM {
                    return Err(SpecError::new(format!(
                        "fault event {i}: corruption probability must be in 1..={PPM} ppm, \
                         got {probability_ppm}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Validation against a concrete network: every referenced router,
    /// output port and controller node must exist.
    pub fn validate_against(&self, spec: &NetworkSpec) -> Result<(), SpecError> {
        self.validate()?;
        for (i, ev) in self.events.iter().enumerate() {
            match ev.kind {
                FaultKind::LinkDown { router, out_port } => {
                    let Some(r) = spec.routers.get(router) else {
                        return Err(SpecError::new(format!(
                            "fault event {i} references router {router}, but the network has \
                             only {} routers",
                            spec.routers.len()
                        )));
                    };
                    if out_port >= r.outputs.len() {
                        return Err(SpecError::new(format!(
                            "fault event {i} references output port {out_port} of router \
                             {router}, which has only {} outputs",
                            r.outputs.len()
                        )));
                    }
                }
                FaultKind::RouterDown { router } => {
                    if router >= spec.routers.len() {
                        return Err(SpecError::new(format!(
                            "fault event {i} references router {router}, but the network has \
                             only {} routers",
                            spec.routers.len()
                        )));
                    }
                }
                FaultKind::McOutage { node } => {
                    if spec.sink_for_node(node).is_none() {
                        return Err(SpecError::new(format!(
                            "fault event {i} declares a controller outage at {node:?}, which \
                             has no sink"
                        )));
                    }
                }
                FaultKind::CorruptFlits { .. } => {}
            }
        }
        Ok(())
    }

    /// The permanent link/router failures of this plan, for route
    /// recomputation: `(dead (router, out_port) links, dead routers)`.
    pub fn permanent_hard_faults(&self) -> (Vec<(usize, usize)>, Vec<usize>) {
        let mut links = Vec::new();
        let mut routers = Vec::new();
        for ev in self.events.iter().filter(|ev| ev.is_permanent()) {
            match ev.kind {
                FaultKind::LinkDown { router, out_port } => links.push((router, out_port)),
                FaultKind::RouterDown { router } => routers.push(router),
                _ => {}
            }
        }
        (links, routers)
    }

    /// The nodes whose controller is permanently dark under this plan.
    pub fn permanent_mc_outages(&self) -> Vec<NodeId> {
        self.events
            .iter()
            .filter(|ev| ev.is_permanent())
            .filter_map(|ev| match ev.kind {
                FaultKind::McOutage { node } => Some(node),
                _ => None,
            })
            .collect()
    }
}

/// SplitMix64 finalizer: the stateless hash behind every randomized fault
/// decision, the retry layer's backoff jitter and the seeded phase offsets
/// of `taqos-traffic`. Engine-independent and free of shared state, so
/// decision order cannot leak between engines.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runtime view of a [`FaultPlan`]: which components are dead *this cycle*.
///
/// Recomputed lazily at window boundaries (`next_change`), so the per-cycle
/// cost of an installed plan between boundaries is one integer compare.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Per-router dead flag.
    dead_router: Vec<bool>,
    /// Per-router, per-output-port dead-link flag.
    dead_link: Vec<Vec<bool>>,
    /// Per-node controller-outage flag (indexed by `NodeId::index`).
    mc_outage: Vec<bool>,
    /// Sum of active corruption probabilities, capped at [`PPM`].
    corrupt_ppm: u32,
    /// Next cycle at which any fault starts or ends.
    next_change: Cycle,
}

impl FaultState {
    /// Builds the runtime state for a validated plan on the given network.
    pub(crate) fn new(plan: FaultPlan, spec: &NetworkSpec) -> Self {
        let dead_link = spec
            .routers
            .iter()
            .map(|r| vec![false; r.outputs.len()])
            .collect();
        let max_node = spec
            .routers
            .iter()
            .map(|r| r.node.index())
            .chain(spec.sinks.iter().map(|s| s.node.index()))
            .max()
            .map_or(0, |m| m + 1);
        FaultState {
            plan,
            dead_router: vec![false; spec.routers.len()],
            dead_link,
            mc_outage: vec![false; max_node],
            corrupt_ppm: 0,
            // Force the first refresh to compute the cycle-0 state.
            next_change: 0,
        }
    }

    /// Per-packet fault retransmit budget.
    pub(crate) fn retransmit_budget(&self) -> u32 {
        self.plan.max_fault_retransmits
    }

    /// Recomputes the active-fault sets if `now` crossed a window boundary.
    pub(crate) fn refresh(&mut self, now: Cycle) {
        if now < self.next_change {
            return;
        }
        for flag in &mut self.dead_router {
            *flag = false;
        }
        for port_flags in &mut self.dead_link {
            for flag in port_flags {
                *flag = false;
            }
        }
        for flag in &mut self.mc_outage {
            *flag = false;
        }
        let mut ppm: u32 = 0;
        let mut next = Cycle::MAX;
        for ev in &self.plan.events {
            if ev.start > now {
                next = next.min(ev.start);
            } else if let Some(end) = ev.end {
                if end > now {
                    next = next.min(end);
                }
            }
            if !ev.is_active(now) {
                continue;
            }
            match ev.kind {
                FaultKind::LinkDown { router, out_port } => {
                    self.dead_link[router][out_port] = true;
                }
                FaultKind::RouterDown { router } => {
                    self.dead_router[router] = true;
                }
                FaultKind::CorruptFlits { probability_ppm } => {
                    ppm = ppm.saturating_add(probability_ppm).min(PPM);
                }
                FaultKind::McOutage { node } => {
                    self.mc_outage[node.index()] = true;
                }
            }
        }
        self.corrupt_ppm = ppm;
        self.next_change = next;
    }

    /// Number of individual fault events active at `now` (for telemetry's
    /// fault-transition events; only evaluated when tracing is on).
    pub(crate) fn active_count(&self, now: Cycle) -> u64 {
        self.plan
            .events
            .iter()
            .filter(|ev| ev.is_active(now))
            .count() as u64
    }

    /// Whether anything at all can fail this cycle (fast-path gate for the
    /// launch hook).
    pub(crate) fn any_active(&self) -> bool {
        self.corrupt_ppm > 0
            || self.dead_router.iter().any(|&d| d)
            || self.mc_outage.iter().any(|&d| d)
            || self.dead_link.iter().any(|p| p.iter().any(|&d| d))
    }

    /// Whether router `router` is dead this cycle.
    pub(crate) fn router_dead(&self, router: usize) -> bool {
        self.dead_router[router]
    }

    /// Whether the directed link at (`router`, `out_port`) is dead this
    /// cycle (the link itself, not its endpoints).
    pub(crate) fn link_dead(&self, router: usize, out_port: usize) -> bool {
        self.dead_link[router][out_port]
    }

    /// Whether the controller at `node` is dark this cycle.
    pub(crate) fn mc_dark(&self, node: NodeId) -> bool {
        self.mc_outage.get(node.index()).copied().unwrap_or(false)
    }

    /// Seeded corruption draw for the head launch at (`router`, `out_port`)
    /// on cycle `now` by flow `flow`. At most one head launches per output
    /// port per cycle, so the coordinates identify the launch uniquely
    /// without reference to engine-specific packet ids.
    pub(crate) fn corrupts(&self, now: Cycle, router: usize, out_port: usize, flow: u64) -> bool {
        if self.corrupt_ppm == 0 {
            return false;
        }
        let mut x = self.plan.seed;
        x = splitmix64(x ^ now);
        x = splitmix64(x ^ (((router as u64) << 20) | out_port as u64));
        x = splitmix64(x ^ flow);
        (x % u64::from(PPM)) < u64::from(self.corrupt_ppm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_windows_are_rejected() {
        let plan = FaultPlan::new(1).with_event(FaultEvent::transient(
            100,
            100,
            FaultKind::RouterDown { router: 0 },
        ));
        assert!(plan.validate().is_err());
        let plan = FaultPlan::new(1).with_event(FaultEvent::transient(
            200,
            100,
            FaultKind::RouterDown { router: 0 },
        ));
        assert!(plan.validate().is_err());
    }

    #[test]
    fn zero_retransmit_budget_is_rejected() {
        let plan = FaultPlan::new(1)
            .with_retransmit_budget(0)
            .with_event(FaultEvent::permanent(
                0,
                FaultKind::RouterDown { router: 0 },
            ));
        let err = plan.validate().expect_err("budget 0 must be rejected");
        assert!(err.message().contains("retransmit budget"));
    }

    #[test]
    fn corruption_probability_bounds() {
        for ppm in [0, PPM + 1] {
            let plan = FaultPlan::new(1).with_event(FaultEvent::permanent(
                0,
                FaultKind::CorruptFlits {
                    probability_ppm: ppm,
                },
            ));
            assert!(plan.validate().is_err(), "{ppm} ppm must be rejected");
        }
        let plan = FaultPlan::new(1).with_event(FaultEvent::permanent(
            0,
            FaultKind::CorruptFlits {
                probability_ppm: PPM,
            },
        ));
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn windows_activate_and_heal() {
        let ev = FaultEvent::transient(10, 20, FaultKind::RouterDown { router: 3 });
        assert!(!ev.is_active(9));
        assert!(ev.is_active(10));
        assert!(ev.is_active(19));
        assert!(!ev.is_active(20));
        let forever = FaultEvent::permanent(5, FaultKind::RouterDown { router: 3 });
        assert!(forever.is_permanent());
        assert!(forever.is_active(u64::MAX));
    }

    #[test]
    fn permanent_hard_faults_are_extracted() {
        let plan = FaultPlan::new(9)
            .with_event(FaultEvent::permanent(
                0,
                FaultKind::LinkDown {
                    router: 4,
                    out_port: 1,
                },
            ))
            .with_event(FaultEvent::transient(
                0,
                50,
                FaultKind::LinkDown {
                    router: 5,
                    out_port: 0,
                },
            ))
            .with_event(FaultEvent::permanent(
                10,
                FaultKind::RouterDown { router: 2 },
            ))
            .with_event(FaultEvent::permanent(
                0,
                FaultKind::McOutage { node: NodeId(7) },
            ));
        let (links, routers) = plan.permanent_hard_faults();
        assert_eq!(links, vec![(4, 1)]);
        assert_eq!(routers, vec![2]);
        assert_eq!(plan.permanent_mc_outages(), vec![NodeId(7)]);
    }

    #[test]
    fn corruption_hash_is_deterministic_and_seed_sensitive() {
        let spec_free_state = |seed| FaultState {
            plan: FaultPlan::new(seed),
            dead_router: vec![false; 4],
            dead_link: vec![vec![false; 2]; 4],
            mc_outage: vec![false; 4],
            corrupt_ppm: 500_000,
            next_change: Cycle::MAX,
        };
        let a = spec_free_state(1);
        let b = spec_free_state(1);
        let c = spec_free_state(2);
        let mut diverged = false;
        for now in 0..64 {
            assert_eq!(a.corrupts(now, 1, 0, 3), b.corrupts(now, 1, 0, 3));
            diverged |= a.corrupts(now, 1, 0, 3) != c.corrupts(now, 1, 0, 3);
        }
        assert!(diverged, "different seeds should draw differently");
        let hits = (0..10_000).filter(|&now| a.corrupts(now, 0, 0, 0)).count();
        // 50% nominal rate; allow generous slack for the small sample.
        assert!((4_000..6_000).contains(&hits), "got {hits} hits");
    }
}
