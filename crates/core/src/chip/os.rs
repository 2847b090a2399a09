//! Operating-system / hypervisor support for topology-aware QOS.
//!
//! The architecture keeps hardware cost low by delegating three services to
//! the operating system (hypervisor):
//!
//! 1. **Friendly co-scheduling** — only threads of the same application or
//!    virtual machine run on a given node, so the row links shared by a
//!    node's four terminals never carry traffic of different tenants;
//! 2. **Convex domain allocation** — the nodes of an application are a convex
//!    region, so intra-domain cache traffic never leaves the domain;
//! 3. **Rate programming** — per-flow service rates (or priorities) are
//!    written to memory-mapped registers of the QOS-enabled routers and
//!    shared resources, reflecting each tenant's service-level agreement.

use crate::chip::chip::{ChipError, TopologyAwareChip};
use crate::chip::domain::DomainId;
use serde::{Deserialize, Serialize};
use taqos_qos::rates::RateAllocation;
use taqos_topology::column::ColumnConfig;
use taqos_topology::grid::Coord;

/// Description of a virtual machine (or application) to be launched.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmSpec {
    /// Name of the tenant.
    pub(crate) name: String,
    /// Number of threads the tenant runs.
    pub(crate) threads: usize,
    /// Relative service weight from the tenant's service-level agreement.
    pub(crate) weight: u32,
}

impl VmSpec {
    /// Creates a VM description.
    ///
    /// # Panics
    ///
    /// Panics if the VM has no threads or a zero weight.
    pub fn new(name: impl Into<String>, threads: usize, weight: u32) -> Self {
        assert!(threads > 0, "a VM needs at least one thread");
        assert!(weight > 0, "a VM needs a positive weight");
        VmSpec {
            name: name.into(),
            threads,
            weight,
        }
    }
}

/// Thread placement of one launched VM.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Tenant name.
    pub vm: String,
    /// Domain allocated to the tenant.
    pub domain: DomainId,
    /// Threads assigned to each node of the domain.
    pub threads_per_node: Vec<(Coord, usize)>,
    /// Service weight of the tenant.
    pub weight: u32,
}

impl Placement {
    /// Total threads placed.
    pub fn total_threads(&self) -> usize {
        self.threads_per_node.iter().map(|(_, t)| t).sum()
    }
}

/// The hypervisor: owns the chip, launches and retires VMs, and programs the
/// per-flow rates of the shared regions.
#[derive(Debug, Clone)]
pub struct Hypervisor {
    chip: TopologyAwareChip,
    placements: Vec<Placement>,
}

impl Hypervisor {
    /// Creates a hypervisor managing `chip`.
    pub fn new(chip: TopologyAwareChip) -> Self {
        Hypervisor {
            chip,
            placements: Vec::new(),
        }
    }

    /// The managed chip.
    pub fn chip(&self) -> &TopologyAwareChip {
        &self.chip
    }

    /// Current VM placements.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Launches a VM: allocates a convex (rectangular) domain large enough
    /// for its threads at four threads per node, and records the thread
    /// placement with friendly co-scheduling (no node is shared between VMs).
    ///
    /// # Errors
    ///
    /// Returns an error if no suitable free region exists.
    pub fn launch_vm(&mut self, spec: &VmSpec) -> Result<DomainId, ChipError> {
        let concentration = usize::from(self.chip.grid().concentration);
        let nodes_needed = spec.threads.div_ceil(concentration).max(1);
        let (width, height) = rectangle_for(nodes_needed, self.chip.grid().width);
        let domain = self
            .chip
            .allocate_rectangle(spec.name.clone(), width, height, spec.weight)?;
        let nodes: Vec<Coord> = self
            .chip
            .domain(domain)
            .expect("freshly allocated domain exists")
            .nodes
            .iter()
            .copied()
            .collect();
        let mut remaining = spec.threads;
        let mut threads_per_node = Vec::new();
        for node in nodes {
            if remaining == 0 {
                break;
            }
            let here = remaining.min(concentration);
            threads_per_node.push((node, here));
            remaining -= here;
        }
        self.placements.push(Placement {
            vm: spec.name.clone(),
            domain,
            threads_per_node,
            weight: spec.weight,
        });
        Ok(domain)
    }

    /// Migrates a VM to a new region anchored at `to`: the domain's shape is
    /// preserved (every node moves by the same offset), the old region is
    /// released, and the thread placement follows the nodes. The destination
    /// is explicit — first-fit would simply re-find the region the VM already
    /// occupies. Returns the new domain id.
    ///
    /// The hypervisor moves only the *placement*; in-flight memory traffic of
    /// the old region is drained by the simulation side (phase the old nodes'
    /// requesters off, the new nodes' on, and reprogram rates at the same
    /// instant — see `ChipSim`).
    ///
    /// # Errors
    ///
    /// Returns an error if the domain is unknown or the target region is
    /// unusable (outside the grid, overlapping a shared column or another
    /// domain). On error the VM keeps its old region.
    pub(crate) fn migrate_vm(
        &mut self,
        domain: DomainId,
        to: Coord,
    ) -> Result<DomainId, ChipError> {
        let placement_idx = self
            .placements
            .iter()
            .position(|p| p.domain == domain)
            .ok_or(ChipError::UnknownDomain(domain))?;
        let old = self.chip.release_domain(domain)?;
        let min_x = old
            .nodes
            .iter()
            .map(|c| c.x)
            .min()
            .expect("domains are non-empty");
        let min_y = old
            .nodes
            .iter()
            .map(|c| c.y)
            .min()
            .expect("domains are non-empty");
        let shift = |c: Coord| Coord::new(to.x + (c.x - min_x), to.y + (c.y - min_y));
        let target: std::collections::BTreeSet<Coord> =
            old.nodes.iter().map(|&c| shift(c)).collect();
        match self
            .chip
            .allocate_domain(old.name.clone(), target, old.weight)
        {
            Ok(new_id) => {
                let placement = &mut self.placements[placement_idx];
                placement.domain = new_id;
                for (node, _) in &mut placement.threads_per_node {
                    *node = shift(*node);
                }
                Ok(new_id)
            }
            Err(err) => {
                let restored = self
                    .chip
                    .allocate_domain(old.name, old.nodes, old.weight)
                    .expect("re-allocating the just-released region cannot fail");
                self.placements[placement_idx].domain = restored;
                Err(err)
            }
        }
    }

    /// Whether friendly co-scheduling holds: no node hosts threads of more
    /// than one VM. True by construction, verified for testing.
    pub fn co_scheduling_respected(&self) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        for placement in &self.placements {
            for (node, _) in &placement.threads_per_node {
                if !seen.insert(*node) {
                    return false;
                }
            }
        }
        true
    }

    /// Programs the per-flow service rates of one shared column.
    ///
    /// Each node of the column serves the chip row with the same index; the
    /// row inputs of that column node carry the memory traffic of the VMs
    /// placed in that row. Every injector of a column node therefore receives
    /// a rate proportional to the total service weight of the VMs present in
    /// its row (plus a small base weight so unallocated rows are not starved),
    /// normalised over the whole column.
    ///
    /// The returned allocation indexes flows exactly as
    /// [`ColumnConfig::flow_of`] does, so it can be handed directly to
    /// [`taqos_qos::pvc::PvcPolicy::new`].
    pub fn program_column_rates(&self, column: &ColumnConfig) -> RateAllocation {
        let injectors = column.injectors_per_node();
        let mut row_weight = vec![1.0f64; column.nodes];
        for placement in &self.placements {
            if let Some(domain) = self.chip.domain(placement.domain) {
                for row in domain.rows() {
                    let row = usize::from(row);
                    if row < column.nodes {
                        row_weight[row] += f64::from(placement.weight);
                    }
                }
            }
        }
        let total: f64 = row_weight.iter().sum::<f64>() * injectors as f64;
        let mut rates = vec![0.0; column.num_flows()];
        for (node, weight) in row_weight.iter().enumerate().take(column.nodes) {
            for injector in 0..injectors {
                let flow = column.flow_of(node, injector).index();
                rates[flow] = weight / total;
            }
        }
        RateAllocation::from_rates(rates)
    }

    /// Programs per-node service rates for the chip-scale simulation, where
    /// every node injects one flow (`ChipSim`'s flow convention: flow index =
    /// node id = `y * width + x`).
    ///
    /// Each node occupied by a VM receives the VM's service weight on top of
    /// a base weight of one (so idle nodes and shared-column terminals are
    /// not starved of their reply/background bandwidth), normalised over the
    /// whole chip. The same allocation then drives the scoped virtual clock
    /// at the column routers and, through the closed-loop engine's flow
    /// weights, DRAM admission and bank scheduling.
    pub(crate) fn program_node_rates(&self) -> RateAllocation {
        let width = usize::from(self.chip.grid().width);
        let height = usize::from(self.chip.grid().height);
        let mut weights = vec![1.0f64; width * height];
        for placement in &self.placements {
            if let Some(domain) = self.chip.domain(placement.domain) {
                for node in &domain.nodes {
                    weights[usize::from(node.y) * width + usize::from(node.x)] +=
                        f64::from(placement.weight);
                }
            }
        }
        let total: f64 = weights.iter().sum();
        RateAllocation::from_rates(weights.into_iter().map(|w| w / total).collect())
    }
}

/// Chooses the squarest rectangle with at least `nodes` cells that fits the
/// grid width.
fn rectangle_for(nodes: usize, max_width: u16) -> (u16, u16) {
    let mut width = (nodes as f64).sqrt().ceil() as u16;
    width = width.clamp(1, max_width);
    let height = nodes.div_ceil(usize::from(width)) as u16;
    (width, height)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taqos_netsim::FlowId;

    #[test]
    fn launching_vms_packs_threads_four_per_node() {
        let mut hv = Hypervisor::new(TopologyAwareChip::paper_default());
        let id = hv.launch_vm(&VmSpec::new("web", 10, 3)).unwrap();
        let placement = hv
            .placements()
            .iter()
            .find(|p| p.domain == id)
            .expect("placement recorded");
        assert_eq!(placement.total_threads(), 10);
        // 10 threads need 3 nodes at 4-way concentration.
        assert_eq!(placement.threads_per_node.len(), 3);
        assert!(placement.threads_per_node.iter().all(|(_, t)| *t <= 4));
        assert!(hv.co_scheduling_respected());
    }

    #[test]
    fn multiple_vms_never_share_a_node() {
        let mut hv = Hypervisor::new(TopologyAwareChip::paper_default());
        hv.launch_vm(&VmSpec::new("web", 16, 2)).unwrap();
        hv.launch_vm(&VmSpec::new("db", 16, 4)).unwrap();
        hv.launch_vm(&VmSpec::new("batch", 8, 1)).unwrap();
        assert!(hv.co_scheduling_respected());
        assert_eq!(hv.placements().len(), 3);
    }

    #[test]
    fn programmed_rates_reflect_vm_weights() {
        let mut hv = Hypervisor::new(TopologyAwareChip::paper_default());
        // A heavy VM in the top rows and a light one further down.
        hv.launch_vm(&VmSpec::new("premium", 16, 8)).unwrap();
        hv.launch_vm(&VmSpec::new("basic", 16, 1)).unwrap();
        let column = ColumnConfig::paper();
        let rates = hv.program_column_rates(&column);
        assert_eq!(rates.len(), 64);
        let sum: f64 = rates.rates().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "rates must normalise, got {sum}");
        // The premium VM occupies rows 0-1; its row injectors get more
        // bandwidth than the rows of the basic VM.
        let premium_flow = column.flow_of(0, 1);
        let idle_flow = column.flow_of(7, 1);
        assert!(rates.rate(premium_flow) > rates.rate(idle_flow));
    }

    #[test]
    fn rectangle_sizing_is_compact() {
        assert_eq!(rectangle_for(1, 8), (1, 1));
        assert_eq!(rectangle_for(4, 8), (2, 2));
        assert_eq!(rectangle_for(5, 8), (3, 2));
        assert_eq!(rectangle_for(16, 8), (4, 4));
        // Width is clamped to the grid.
        assert_eq!(rectangle_for(30, 4), (4, 8));
    }

    #[test]
    fn migration_moves_the_domain_and_the_thread_placement() {
        let mut hv = Hypervisor::new(TopologyAwareChip::paper_default());
        let id = hv.launch_vm(&VmSpec::new("web", 16, 2)).unwrap();
        let old_nodes: Vec<Coord> = hv
            .chip()
            .domain(id)
            .unwrap()
            .nodes
            .iter()
            .copied()
            .collect();
        let free_before = hv.chip().free_nodes();
        // Move the 2x2-origin VM to the east half of the die.
        let new_id = hv.migrate_vm(id, Coord::new(5, 3)).unwrap();
        assert_ne!(new_id, id);
        assert!(hv.chip().domain(id).is_none(), "old domain released");
        let new_nodes = &hv.chip().domain(new_id).unwrap().nodes;
        assert_eq!(new_nodes.len(), old_nodes.len(), "shape preserved");
        assert!(new_nodes.contains(&Coord::new(5, 3)), "anchored at target");
        assert_eq!(hv.chip().free_nodes(), free_before, "no nodes leaked");
        // The thread placement follows the nodes.
        let placement = &hv.placements()[0];
        assert_eq!(placement.domain, new_id);
        assert_eq!(placement.total_threads(), 16);
        for (node, _) in &placement.threads_per_node {
            assert!(new_nodes.contains(node), "thread on a migrated node");
        }
        assert!(hv.co_scheduling_respected());
    }

    #[test]
    fn failed_migration_rolls_back_and_keeps_the_old_region() {
        let mut hv = Hypervisor::new(TopologyAwareChip::paper_default());
        let id = hv.launch_vm(&VmSpec::new("web", 16, 2)).unwrap();
        let old_nodes: Vec<Coord> = hv
            .chip()
            .domain(id)
            .unwrap()
            .nodes
            .iter()
            .copied()
            .collect();
        // A target straddling the shared column (x = 4 on the paper chip) is
        // rejected; the VM must keep its old region under a fresh id.
        let err = hv.migrate_vm(id, Coord::new(3, 0)).unwrap_err();
        assert!(matches!(err, ChipError::DomainRejected(_)), "got {err:?}");
        let placement = &hv.placements()[0];
        let restored = hv.chip().domain(placement.domain).unwrap();
        let restored_nodes: Vec<Coord> = restored.nodes.iter().copied().collect();
        assert_eq!(restored_nodes, old_nodes, "old region restored");
        // An unknown domain is reported as such.
        assert!(matches!(
            hv.migrate_vm(DomainId(99), Coord::new(0, 0)),
            Err(ChipError::UnknownDomain(_))
        ));
    }

    #[test]
    fn node_rates_weight_occupied_nodes_and_normalise() {
        let mut hv = Hypervisor::new(TopologyAwareChip::paper_default());
        let heavy = hv.launch_vm(&VmSpec::new("premium", 16, 8)).unwrap();
        hv.launch_vm(&VmSpec::new("basic", 16, 1)).unwrap();
        let rates = hv.program_node_rates();
        assert_eq!(rates.len(), 64);
        let sum: f64 = rates.rates().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "rates must normalise, got {sum}");
        let node_flow = |c: Coord| FlowId(c.y * 8 + c.x);
        let premium_node = *hv.chip().domain(heavy).unwrap().nodes.first().unwrap();
        // Premium nodes out-rank idle nodes 9:1 (weight 8 + base 1).
        let premium = rates.rate(node_flow(premium_node));
        let idle = rates.rate(node_flow(Coord::new(7, 7)));
        assert!(
            (premium / idle - 9.0).abs() < 1e-9,
            "ratio {}",
            premium / idle
        );
    }

    #[test]
    fn rates_for_idle_chip_are_equal() {
        let hv = Hypervisor::new(TopologyAwareChip::paper_default());
        let column = ColumnConfig::paper();
        let rates = hv.program_column_rates(&column);
        let first = rates.rate(FlowId(0));
        for flow in 0..64 {
            assert!((rates.rate(FlowId(flow)) - first).abs() < 1e-12);
        }
    }
}
