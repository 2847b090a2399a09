//! Chip-level topology-aware architecture.
//!
//! The shared-region column simulated by [`crate::shared_region`] is one
//! column of a larger chip. This module models the chip-level half of the
//! proposal:
//!
//! * [`TopologyAwareChip`]: shared-resource columns, single-hop access
//!   rules, inter-domain routing through protected columns, and domain
//!   allocation;
//! * [`Domain`] — convex application/VM domains;
//! * [`Hypervisor`] — the operating-system services: friendly
//!   co-scheduling, domain allocation, and per-flow rate programming.

#[expect(
    clippy::module_inception,
    reason = "`chip::chip` holds the chip model; the parent module groups it with domains and the OS"
)]
mod chip;
mod domain;
mod os;

pub use chip::{ChipError, TopologyAwareChip};
pub use domain::{Domain, DomainId};
pub use os::{Hypervisor, Placement, VmSpec};
