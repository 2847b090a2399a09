//! Chip-level topology-aware architecture.
//!
//! The shared-region column simulated by [`crate::shared_region`] is one
//! column of a larger chip. This module models the chip-level half of the
//! proposal:
//!
//! * [`chip`] — the [`chip::TopologyAwareChip`]: shared-resource columns,
//!   single-hop access rules, inter-domain routing through protected columns,
//!   and domain allocation;
//! * [`domain`] — convex application/VM domains;
//! * [`os`] — the operating-system (hypervisor) services: friendly
//!   co-scheduling, domain allocation, and per-flow rate programming.

#[expect(
    clippy::module_inception,
    reason = "`chip::chip` holds the chip model; the parent module groups it with domains and the OS"
)]
pub mod chip;
pub mod domain;
pub mod os;

pub use chip::{ChipError, TopologyAwareChip};
pub use domain::{Domain, DomainId};
pub use os::{Hypervisor, Placement, VmSpec};
