//! Per-flow service-rate allocations.
//!
//! The operating system (hypervisor) programs each QOS-enabled router with a
//! rate of service per flow; Preemptive Virtual Clock scales each flow's
//! bandwidth consumption by its rate to obtain packet priorities, and derives
//! the non-preemptable (reserved) flit quota per frame from the rate.

use serde::{Deserialize, Serialize};
use std::fmt;
use taqos_netsim::closed_loop::rate_weight;
use taqos_netsim::qos::RATE_SUM_TOLERANCE;
use taqos_netsim::FlowId;

/// Why a rate programme was rejected by [`RateAllocation::try_from_rates`],
/// the typed alternative to the panicking constructor, for callers that take
/// rate programmes as input rather than computing them. A programme handed
/// to a running network is checked by
/// `taqos_netsim::network::Network::schedule_reprogram` instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateError {
    /// The programme names no flows at all.
    Empty,
    /// A rate that is zero, negative, NaN or infinite.
    NonPositiveRate {
        /// Offending flow index.
        flow: usize,
        /// The rejected rate.
        rate: f64,
    },
    /// The rates sum above 1 (beyond [`RATE_SUM_TOLERANCE`]): the
    /// allocation promises more bandwidth, and more reserved flits per
    /// frame, than the link has.
    Oversubscribed {
        /// Sum of the rates.
        total: f64,
    },
}

impl fmt::Display for RateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RateError::Empty => write!(f, "a rate allocation needs at least one flow"),
            RateError::NonPositiveRate { flow, rate } => {
                write!(
                    f,
                    "rate of flow {flow} must be positive and finite, got {rate}"
                )
            }
            RateError::Oversubscribed { total } => {
                write!(f, "rates must sum to at most 1, got {total}")
            }
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
    /// Panics if `rates` is empty, any rate is not strictly positive and
    /// finite, or the rates sum above 1.
    pub fn from_rates(rates: Vec<f64>) -> Self {
        Self::try_from_rates(rates).unwrap_or_else(|e| panic!("{e}"))
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
        let total: f64 = rates.iter().sum();
        if total > 1.0 + RATE_SUM_TOLERANCE {
            return Err(RateError::Oversubscribed { total });
        }
        Ok(RateAllocation { rates })
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
    pub(crate) fn reserved_quota(
        &self,
        flow: FlowId,
        frame_len: u64,
        reserved_fraction: f64,
    ) -> u64 {
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
    fn try_from_rates_rejects_bad_programmes_with_typed_errors() {
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
        // Normalised rates may sum a few ulps above 1 and are accepted.
        let ninths = vec![1.0 / 9.0; 9];
        assert!(ninths.iter().sum::<f64>() > 1.0);
        assert!(RateAllocation::try_from_rates(ninths).is_ok());
        assert_eq!(
            RateAllocation::try_from_rates(vec![0.25, 0.75]).expect("valid rates"),
            RateAllocation::from_rates(vec![0.25, 0.75])
        );
        // Errors render as readable diagnostics.
        assert!(RateError::Empty.to_string().contains("at least one flow"));
    }
}
