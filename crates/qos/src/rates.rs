//! Per-flow service-rate allocations.
//!
//! The operating system (hypervisor) programs each QOS-enabled router with a
//! rate of service per flow; Preemptive Virtual Clock scales each flow's
//! bandwidth consumption by its rate to obtain packet priorities, and derives
//! the non-preemptable (reserved) flit quota per frame from the rate.

use serde::{Deserialize, Serialize};
use std::fmt;
use taqos_netsim::closed_loop::rate_weight;
use taqos_netsim::FlowId;

/// Why a rate programme was rejected. Produced by the fallible constructors
/// ([`RateAllocation::try_from_rates`], [`RateAllocation::try_from_weights`])
/// and by [`RateAllocation::validate_for`] — the typed alternative to the
/// panicking constructors, for callers (hypervisors, experiment drivers)
/// that take rate programmes as input rather than computing them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateError {
    /// The programme names no flows at all.
    Empty,
    /// Integer weights summing to zero: no flow would ever be served.
    ZeroTotalWeight,
    /// A rate that is zero, negative, NaN or infinite.
    NonPositiveRate {
        /// Offending flow index.
        flow: usize,
        /// The rejected rate.
        rate: f64,
    },
    /// The programme covers a flow the network does not have.
    UnknownFlow {
        /// Number of flows the programme covers.
        flows: usize,
        /// Number of flows the network actually has.
        num_flows: usize,
    },
    /// The per-frame reserved quotas implied by the rates exceed the frame
    /// itself: the sum of rates is above 1, so the "guaranteed" flits could
    /// not all be injected within one frame.
    ExceedsFrameCapacity {
        /// Sum of the programmed rates.
        total_rate: f64,
        /// Frame length the programme was validated against.
        frame_len: u64,
    },
}

impl fmt::Display for RateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RateError::Empty => write!(f, "a rate allocation needs at least one flow"),
            RateError::ZeroTotalWeight => write!(f, "rate weights must not all be zero"),
            RateError::NonPositiveRate { flow, rate } => {
                write!(
                    f,
                    "rate of flow {flow} must be positive and finite, got {rate}"
                )
            }
            RateError::UnknownFlow { flows, num_flows } => {
                write!(
                    f,
                    "rate programme covers {flows} flows but the network has {num_flows}"
                )
            }
            RateError::ExceedsFrameCapacity {
                total_rate,
                frame_len,
            } => write!(
                f,
                "programmed rates sum to {total_rate} > 1: the reserved quotas would exceed \
                 the {frame_len}-cycle frame"
            ),
        }
    }
}

impl std::error::Error for RateError {}

/// An assignment of service rates to flows.
///
/// Rates are expressed as fractions of link bandwidth. They are relative
/// weights: Preemptive Virtual Clock only compares scaled consumptions, so
/// the absolute scale matters only for the reserved-quota computation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateAllocation {
    rates: Vec<f64>,
}

impl RateAllocation {
    /// Equal rates for `n` flows (each `1/n`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn equal(n: usize) -> Self {
        assert!(n > 0, "a rate allocation needs at least one flow");
        RateAllocation {
            rates: vec![1.0 / n as f64; n],
        }
    }

    /// Builds an allocation from explicit per-flow rates.
    ///
    /// # Panics
    ///
    /// Panics if `rates` is empty or any rate is not strictly positive and
    /// finite.
    pub fn from_rates(rates: Vec<f64>) -> Self {
        assert!(
            !rates.is_empty(),
            "a rate allocation needs at least one flow"
        );
        for (i, &r) in rates.iter().enumerate() {
            assert!(
                r.is_finite() && r > 0.0,
                "rate of flow {i} must be positive and finite, got {r}"
            );
        }
        RateAllocation { rates }
    }

    /// Builds an allocation proportional to integer weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains a zero weight.
    pub fn from_weights(weights: &[u32]) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        assert!(total > 0, "weights must not all be zero");
        let rates = weights
            .iter()
            .map(|&w| {
                assert!(w > 0, "each weight must be positive");
                f64::from(w) / total as f64
            })
            .collect();
        RateAllocation { rates }
    }

    /// Fallible variant of [`Self::from_rates`]: rejects bad programmes with
    /// a typed [`RateError`] instead of panicking, for callers that take
    /// rates as input.
    pub fn try_from_rates(rates: Vec<f64>) -> Result<Self, RateError> {
        if rates.is_empty() {
            return Err(RateError::Empty);
        }
        for (flow, &rate) in rates.iter().enumerate() {
            if !rate.is_finite() || rate <= 0.0 {
                return Err(RateError::NonPositiveRate { flow, rate });
            }
        }
        Ok(RateAllocation { rates })
    }

    /// Fallible variant of [`Self::from_weights`]: a weight of zero is a
    /// legal *input* here (the flow simply gets no share), but all-zero
    /// weights are rejected as [`RateError::ZeroTotalWeight`] — and since a
    /// zero share cannot be expressed as a positive rate, any individual
    /// zero weight is reported as [`RateError::NonPositiveRate`].
    pub fn try_from_weights(weights: &[u32]) -> Result<Self, RateError> {
        if weights.is_empty() {
            return Err(RateError::Empty);
        }
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        if total == 0 {
            return Err(RateError::ZeroTotalWeight);
        }
        if let Some(flow) = weights.iter().position(|&w| w == 0) {
            return Err(RateError::NonPositiveRate { flow, rate: 0.0 });
        }
        Ok(RateAllocation {
            rates: weights
                .iter()
                .map(|&w| f64::from(w) / total as f64)
                .collect(),
        })
    }

    /// Validates this allocation as a programme for a network of `num_flows`
    /// flows with `frame_len`-cycle frames: the flow counts must match, and
    /// the rates must not promise more reserved bandwidth than one frame
    /// holds (sum of rates at most 1, with a little float headroom).
    pub fn validate_for(&self, num_flows: usize, frame_len: u64) -> Result<(), RateError> {
        if self.rates.len() != num_flows {
            return Err(RateError::UnknownFlow {
                flows: self.rates.len(),
                num_flows,
            });
        }
        let total_rate: f64 = self.rates.iter().sum();
        if total_rate > 1.0 + 1e-9 {
            return Err(RateError::ExceedsFrameCapacity {
                total_rate,
                frame_len,
            });
        }
        Ok(())
    }

    /// Number of flows covered by the allocation.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the allocation covers no flows (never true for constructed
    /// values).
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Rate of `flow`. Flows outside the allocation receive the smallest
    /// configured rate, which is the conservative choice (lowest priority
    /// growth, smallest reserved quota).
    pub fn rate(&self, flow: FlowId) -> f64 {
        self.rates.get(flow.index()).copied().unwrap_or_else(|| {
            self.rates
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
                .max(f64::MIN_POSITIVE)
        })
    }

    /// All rates, indexed by flow.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// The allocation as integer rate weights (one per flow), for consumers
    /// that need exact, engine-independent arithmetic — the priority-aware
    /// DRAM schedulers of `taqos-netsim` scale their per-flow virtual
    /// clocks by these. Each weight is `rate × 1024` rounded, floored at 1
    /// so relative order survives for arbitrarily small rates
    /// ([`rate_weight`], the formula a mid-run reprogramming also uses).
    pub fn priority_weights(&self) -> Vec<u64> {
        self.rates.iter().copied().map(rate_weight).collect()
    }

    /// Reserved (non-preemptable) flit quota per frame for `flow`, given the
    /// frame length and the fraction of the rate guaranteed as reserved.
    pub fn reserved_quota(&self, flow: FlowId, frame_len: u64, reserved_fraction: f64) -> u64 {
        let quota = self.rate(flow) * frame_len as f64 * reserved_fraction;
        quota.max(0.0).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_rates_sum_to_one() {
        let alloc = RateAllocation::equal(8);
        assert_eq!(alloc.len(), 8);
        assert!(!alloc.is_empty());
        let sum: f64 = alloc.rates().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((alloc.rate(FlowId(3)) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn weights_are_normalised() {
        let alloc = RateAllocation::from_weights(&[1, 3]);
        assert!((alloc.rate(FlowId(0)) - 0.25).abs() < 1e-12);
        assert!((alloc.rate(FlowId(1)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn priority_weights_are_scaled_rates_floored_at_one() {
        let alloc = RateAllocation::from_rates(vec![0.25, 0.75, 1e-9]);
        assert_eq!(alloc.priority_weights(), vec![256, 768, 1]);
        // Equal rates across 64 flows: the paper chip's weight.
        assert_eq!(RateAllocation::equal(64).priority_weights(), vec![16; 64]);
    }

    #[test]
    fn unknown_flow_gets_smallest_rate() {
        let alloc = RateAllocation::from_rates(vec![0.5, 0.1, 0.4]);
        assert!((alloc.rate(FlowId(9)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn reserved_quota_scales_with_rate_and_frame() {
        let alloc = RateAllocation::equal(8);
        // 1/8 of a 50 000-cycle frame.
        assert_eq!(alloc.reserved_quota(FlowId(0), 50_000, 1.0), 6_250);
        assert_eq!(alloc.reserved_quota(FlowId(0), 50_000, 0.5), 3_125);
        assert_eq!(alloc.reserved_quota(FlowId(0), 0, 1.0), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_is_rejected() {
        RateAllocation::from_rates(vec![0.5, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn empty_allocation_is_rejected() {
        RateAllocation::from_rates(Vec::new());
    }

    #[test]
    fn try_constructors_reject_bad_programmes_with_typed_errors() {
        assert_eq!(
            RateAllocation::try_from_rates(Vec::new()),
            Err(RateError::Empty)
        );
        assert_eq!(
            RateAllocation::try_from_rates(vec![0.5, -0.1]),
            Err(RateError::NonPositiveRate {
                flow: 1,
                rate: -0.1
            })
        );
        assert!(matches!(
            RateAllocation::try_from_rates(vec![f64::NAN]),
            Err(RateError::NonPositiveRate { flow: 0, .. })
        ));
        assert_eq!(RateAllocation::try_from_weights(&[]), Err(RateError::Empty));
        assert_eq!(
            RateAllocation::try_from_weights(&[0, 0]),
            Err(RateError::ZeroTotalWeight)
        );
        assert_eq!(
            RateAllocation::try_from_weights(&[2, 0, 1]),
            Err(RateError::NonPositiveRate { flow: 1, rate: 0.0 })
        );
        let good = RateAllocation::try_from_weights(&[1, 3]).expect("valid weights");
        assert_eq!(good, RateAllocation::from_weights(&[1, 3]));
        assert_eq!(
            RateAllocation::try_from_rates(vec![0.25, 0.75]).expect("valid rates"),
            RateAllocation::from_rates(vec![0.25, 0.75])
        );
    }

    #[test]
    fn validate_for_checks_flow_count_and_frame_capacity() {
        let alloc = RateAllocation::equal(4);
        assert_eq!(alloc.validate_for(4, 50_000), Ok(()));
        assert_eq!(
            alloc.validate_for(8, 50_000),
            Err(RateError::UnknownFlow {
                flows: 4,
                num_flows: 8
            })
        );
        let over = RateAllocation::from_rates(vec![0.8, 0.7]);
        assert!(matches!(
            over.validate_for(2, 50_000),
            Err(RateError::ExceedsFrameCapacity {
                frame_len: 50_000,
                ..
            })
        ));
        // Errors render as readable diagnostics.
        let err = over.validate_for(2, 50_000).unwrap_err();
        assert!(err.to_string().contains("exceed"));
        assert!(RateError::Empty.to_string().contains("at least one flow"));
    }
}
