//! # taqos-core — topology-aware quality-of-service for chip multiprocessors
//!
//! This crate assembles the paper's contribution from the TAQOS substrate
//! crates:
//!
//! * [`shared_region`] — the QOS-enabled shared-region (column) simulation:
//!   any of the five column topologies (mesh x1/x2/x4, MECS, DPS) combined
//!   with any QOS policy (Preemptive Virtual Clock, ideal per-flow queuing,
//!   no QOS) and any traffic workload;
//! * [`chip`] — the chip-level architecture: shared-resource columns with
//!   single-hop MECS access, convex application/VM domains, inter-domain
//!   routing through protected columns, and the operating-system services
//!   (friendly co-scheduling, domain allocation, rate programming);
//! * [`chip_sim`] — the chip-scale *simulation*: the hybrid 2-D-mesh +
//!   MECS-express fabric with the QOS overlay confined to the shared
//!   columns, run on the same cycle engine as the column experiments;
//!   `ChipSim::build` takes per-node traffic generators,
//!   `ChipSim::build_closed_loop` a closed-loop request/reply spec;
//! * [`experiment`] — the experiments reproducing every table and figure of
//!   the paper's evaluation (area, latency/throughput, fairness, preemption
//!   behaviour, slowdown, energy).
//!
//! ## Quick start
//!
//! The facades only build a network; it runs through one of netsim's two
//! drivers, [`run_open_loop`] (warm-up, measurement window, drain) or
//! [`run_closed`] (a fixed workload run to completion).
//!
//! ```rust
//! use taqos_core::prelude::*;
//! use taqos_traffic::prelude::*;
//!
//! // Simulate the DPS shared region under uniform-random traffic with PVC.
//! let sim = SharedRegionSim::new(ColumnTopology::Dps);
//! let generators = uniform_random(sim.column(), 0.05, PacketSizeMix::paper(), 7);
//! let network = sim.build(Box::new(sim.default_policy()), generators)?;
//! let stats = run_open_loop(network, OpenLoopConfig::quick());
//! assert!(stats.delivered_packets > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chip;
pub mod chip_sim;
pub mod experiment;
pub mod shared_region;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::chip::{
        ChipError, Domain, DomainId, Hypervisor, Placement, TopologyAwareChip, VmSpec,
    };
    pub use crate::chip_sim::{ChipPolicy, ChipSim};
    pub use crate::experiment::ablation::{
        frame_length_sweep, reserved_quota_ablation, vc_count_sweep, QuotaAblation,
    };
    pub use crate::experiment::adversarial::{
        attack_battery, incast_mob, migration_experiment, open_row_squatter, queue_storm,
        row_flood, weighted_vm_experiment, ArbitrationPoint, AttackConfig, AttackReport,
        MigrationConfig, MigrationResult, WeightedVmConfig, WeightedVmResult,
    };
    pub use crate::experiment::chip_scale::{
        chip_fault_bench_plan, chip_isolation, chip_qos_area, degradation_under_faults,
        latency_under_load, mlp_mix_divergence, multi_column_scaling, ChipIsolationConfig,
        ChipIsolationResult, ColumnScalingConfig, ColumnScalingPoint, DegradationConfig,
        DegradationPoint, DomainOutcome, LatencyLoadConfig, LoadPoint, MixPoint, MlpMixConfig,
        QosAreaReport,
    };
    pub use crate::experiment::differentiated::{sla_experiment, SlaConfig, SlaResult};
    pub use crate::experiment::energy_area::{
        area_report, energy_report, AreaReport, EnergyReport,
    };
    pub use crate::experiment::fairness::{
        hotspot_fairness, table2, FairnessConfig, FairnessPolicy, FairnessResult,
    };
    pub use crate::experiment::latency::{
        latency_point, latency_sweep, paper_rates, LatencyPoint, SweepConfig, SweepPattern,
    };
    pub use crate::experiment::preemption::{
        preemption_figure, preemption_impact, AdversarialConfig, AdversarialWorkload,
        PreemptionImpact,
    };
    pub use crate::shared_region::SharedRegionSim;
    pub use taqos_netsim::sim::{run_closed, run_open_loop, OpenLoopConfig};
    pub use taqos_topology::column::{ColumnConfig, ColumnTopology};
}

pub use prelude::*;
