//! Shared-region simulation facade.
//!
//! A [`SharedRegionSim`] bundles a column topology, the column configuration,
//! and the mechanical simulation constants, and builds ready-to-run
//! [`Network`] instances for any combination of QOS policy and traffic. This
//! is the entry point used by the examples and by every column experiment.
//! A built network runs through one of netsim's two drivers:
//! [`taqos_netsim::sim::run_open_loop`] for rate-driven load, or
//! [`taqos_netsim::sim::run_closed`] for a fixed workload run to completion.

use taqos_netsim::error::SimError;
use taqos_netsim::fault::FaultPlan;
use taqos_netsim::network::Network;
use taqos_netsim::packet::PacketGenerator;
use taqos_netsim::qos::QosPolicy;
use taqos_netsim::spec::NetworkSpec;
use taqos_netsim::SimConfig;
use taqos_qos::pvc::PvcPolicy;
use taqos_topology::column::{ColumnConfig, ColumnTopology};

/// A configured shared-region (column) simulation.
#[derive(Debug, Clone)]
pub struct SharedRegionSim {
    topology: ColumnTopology,
    column: ColumnConfig,
    sim: SimConfig,
    fault: Option<FaultPlan>,
}

impl SharedRegionSim {
    /// Creates a simulation of `topology` with the paper's column
    /// configuration.
    pub fn new(topology: ColumnTopology) -> Self {
        SharedRegionSim {
            topology,
            column: ColumnConfig::paper(),
            sim: SimConfig::default(),
            fault: None,
        }
    }

    /// Uses a custom column configuration.
    pub fn with_column(mut self, column: ColumnConfig) -> Self {
        self.column = column;
        self
    }

    /// Uses custom simulation constants.
    pub fn with_sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Installs a fault plan on every network built by this simulation:
    /// routing tables are recomputed around the plan's permanent link and
    /// router failures, and the runtime faults (transient windows, flit
    /// corruption, controller outages) are injected cycle-by-cycle inside
    /// the engine. Column topologies with fixed-route pass-through segments
    /// (DPS) keep those segments as built — only table-routed hops detour.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The column topology being simulated.
    pub fn topology(&self) -> ColumnTopology {
        self.topology
    }

    /// The column configuration.
    pub fn column(&self) -> &ColumnConfig {
        &self.column
    }

    /// The default QOS policy of the paper: Preemptive Virtual Clock with
    /// equal rates for every injector of the column.
    pub fn default_policy(&self) -> PvcPolicy {
        PvcPolicy::equal_rates(self.column.num_flows())
    }

    /// Builds a [`Network`] with the given policy and one generator per
    /// injector (in source order).
    ///
    /// # Errors
    ///
    /// Returns an error if the generator count does not match the number of
    /// injectors (the generated topology itself is always valid) or the
    /// installed fault plan references components the topology lacks.
    pub fn build(
        &self,
        policy: Box<dyn QosPolicy>,
        generators: Vec<Box<dyn PacketGenerator>>,
    ) -> Result<Network, SimError> {
        let spec = self.topology.build(&self.column);
        build_with_faults(spec, policy, generators, self.sim, self.fault.as_ref())
    }
}

/// The fault-aware assembly both facades share: reroutes `spec` around the
/// plan's permanent link and router failures, builds the [`Network`], then
/// installs the plan's runtime faults.
pub(crate) fn build_with_faults(
    mut spec: NetworkSpec,
    policy: Box<dyn QosPolicy>,
    generators: Vec<Box<dyn PacketGenerator>>,
    sim: SimConfig,
    fault: Option<&FaultPlan>,
) -> Result<Network, SimError> {
    if let Some(plan) = fault {
        let (dead_links, dead_routers) = plan.permanent_hard_faults();
        taqos_topology::reroute::reroute_around_faults(&mut spec, &dead_links, &dead_routers);
    }
    let network = Network::new(spec, policy, generators, sim)?;
    match fault {
        Some(plan) => network.with_fault_plan(plan.clone()),
        None => Ok(network),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taqos_netsim::qos::FifoPolicy;
    use taqos_netsim::sim::{run_closed, run_open_loop, OpenLoopConfig};
    use taqos_traffic::injection::PacketSizeMix;
    use taqos_traffic::workloads;

    #[test]
    fn builder_defaults_match_paper() {
        let sim = SharedRegionSim::new(ColumnTopology::Dps);
        assert_eq!(sim.topology(), ColumnTopology::Dps);
        assert_eq!(sim.column().nodes, 8);
        assert_eq!(sim.column().num_flows(), 64);
        assert_eq!(sim.default_policy().frame_len(), Some(50_000));
    }

    #[test]
    fn open_loop_run_delivers_traffic() {
        let sim = SharedRegionSim::new(ColumnTopology::MeshX1).with_column(ColumnConfig::paper());
        let generators = workloads::uniform_random(sim.column(), 0.02, PacketSizeMix::paper(), 1);
        let network = sim
            .build(Box::new(FifoPolicy::new()), generators)
            .expect("column builds");
        let stats = run_open_loop(
            network,
            OpenLoopConfig {
                warmup: 200,
                measure: 1_000,
                drain: 300,
            },
        );
        assert!(stats.delivered_packets > 0);
        assert!(stats.avg_latency() > 0.0);
    }

    #[test]
    fn closed_run_completes_and_reports_completion_cycle() {
        let sim = SharedRegionSim::new(ColumnTopology::Dps);
        let generators = workloads::workload1(
            sim.column(),
            &workloads::WORKLOAD1_RATES,
            PacketSizeMix::requests_only(),
            taqos_netsim::NodeId(0),
            2_000,
            3,
        );
        let network = sim
            .build(Box::new(sim.default_policy()), generators)
            .expect("column builds");
        let stats = run_closed(network, Some((0, 2_000)), 200_000).expect("workload completes");
        assert!(stats.completion_cycle.is_some());
        assert_eq!(stats.generated_packets, stats.delivered_packets);
    }

    #[test]
    fn mismatched_generator_count_is_rejected() {
        let sim = SharedRegionSim::new(ColumnTopology::Mecs);
        let result = sim.build(Box::new(FifoPolicy::new()), Vec::new());
        assert!(result.is_err());
    }
}
