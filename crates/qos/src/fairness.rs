//! Fairness mathematics: max-min fair shares, Jain's index, and deviation
//! metrics used to evaluate QOS schemes.

/// Computes the max-min fair allocation of `capacity` among flows with the
/// given `demands`.
///
/// Max-min fairness (the standard fairness definition used by the paper,
/// following Dally & Towles) gives every flow either its full demand or an
/// equal share of what remains after satisfying smaller demands: the
/// bottleneck capacity is iteratively partitioned among the unsatisfied
/// flows.
///
/// Demands and capacity are in the same (arbitrary) unit, e.g. flits per
/// cycle. Returns one share per demand, in input order.
///
/// # Panics
///
/// Panics if any demand or the capacity is negative or non-finite.
pub fn max_min_fair_shares(demands: &[f64], capacity: f64) -> Vec<f64> {
    assert!(
        capacity.is_finite() && capacity >= 0.0,
        "capacity must be non-negative and finite"
    );
    for (i, &d) in demands.iter().enumerate() {
        assert!(
            d.is_finite() && d >= 0.0,
            "demand {i} must be non-negative and finite, got {d}"
        );
    }
    let n = demands.len();
    let mut shares = vec![0.0; n];
    if n == 0 {
        return shares;
    }
    let mut remaining_capacity = capacity;
    let mut unsatisfied: Vec<usize> = (0..n).collect();
    // Process demands in increasing order; whenever the equal split exceeds a
    // flow's demand the flow is satisfied exactly and removed.
    unsatisfied.sort_by(|&a, &b| {
        demands[a]
            .partial_cmp(&demands[b])
            .expect("demands are finite")
    });
    let mut idx = 0;
    while idx < unsatisfied.len() {
        let active = unsatisfied.len() - idx;
        let equal_split = remaining_capacity / active as f64;
        let flow = unsatisfied[idx];
        if demands[flow] <= equal_split {
            shares[flow] = demands[flow];
            remaining_capacity -= demands[flow];
            idx += 1;
        } else {
            // Every remaining flow demands at least this much: split equally.
            for &flow in &unsatisfied[idx..] {
                shares[flow] = equal_split;
            }
            return shares;
        }
    }
    shares
}

/// Jain's fairness index of a set of observations: `(Σx)² / (n · Σx²)`.
///
/// The index is 1.0 when all observations are equal and approaches `1/n`
/// under maximal unfairness. Returns 1.0 for an empty or all-zero input.
pub fn jain_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (values.len() as f64 * sum_sq)
}

/// Relative deviation of each observed value from its expected value:
/// `(observed - expected) / expected`.
///
/// Entries with a zero expected value yield a deviation of 0.0 when the
/// observation is also zero and +∞-clamped-to-1.0 otherwise (a fully
/// unexpected allocation).
pub fn relative_deviations(observed: &[f64], expected: &[f64]) -> Vec<f64> {
    assert_eq!(
        observed.len(),
        expected.len(),
        "observed and expected lengths differ"
    );
    observed
        .iter()
        .zip(expected)
        .map(|(&o, &e)| {
            if e == 0.0 {
                if o == 0.0 {
                    0.0
                } else {
                    1.0
                }
            } else {
                (o - e) / e
            }
        })
        .collect()
}

/// Summary of deviations from expected throughput: the average (signed)
/// deviation and the extreme deviations across flows, as plotted in Figure 6
/// of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviationSummary {
    /// Mean signed relative deviation across flows.
    pub average: f64,
    /// Most negative relative deviation (worst under-service).
    pub min: f64,
    /// Most positive relative deviation (worst over-service).
    pub max: f64,
}

impl DeviationSummary {
    /// Computes the summary of a set of relative deviations.
    ///
    /// Returns `None` for an empty input.
    pub(crate) fn from_deviations(deviations: &[f64]) -> Option<Self> {
        if deviations.is_empty() {
            return None;
        }
        let average = deviations.iter().sum::<f64>() / deviations.len() as f64;
        let min = deviations.iter().copied().fold(f64::INFINITY, f64::min);
        let max = deviations.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(DeviationSummary { average, min, max })
    }

    /// Computes the summary directly from observed and expected values.
    pub fn from_observations(observed: &[f64], expected: &[f64]) -> Option<Self> {
        Self::from_deviations(&relative_deviations(observed, expected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_min_satisfies_small_demands_first() {
        // Capacity 1.0, demands 0.05..0.20 like adversarial Workload 1:
        // under-demanders get their demand; the rest split the remainder.
        let demands = vec![0.05, 0.10, 0.20, 0.20];
        let shares = max_min_fair_shares(&demands, 0.4);
        assert!((shares[0] - 0.05).abs() < 1e-12);
        assert!((shares[1] - 0.10).abs() < 1e-12);
        assert!((shares[2] - 0.125).abs() < 1e-12);
        assert!((shares[3] - 0.125).abs() < 1e-12);
        let total: f64 = shares.iter().sum();
        assert!((total - 0.4).abs() < 1e-12);
    }

    #[test]
    fn max_min_with_ample_capacity_meets_all_demands() {
        let demands = vec![0.1, 0.2, 0.3];
        let shares = max_min_fair_shares(&demands, 10.0);
        assert_eq!(shares, demands);
    }

    #[test]
    fn max_min_equal_demands_split_equally() {
        let demands = vec![1.0; 8];
        let shares = max_min_fair_shares(&demands, 1.0);
        for s in shares {
            assert!((s - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn max_min_of_empty_input_is_empty() {
        assert!(max_min_fair_shares(&[], 5.0).is_empty());
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        // One flow hogging everything among 4 flows -> 1/4.
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        let mid = jain_index(&[2.0, 1.0, 1.0, 1.0]);
        assert!(mid > 0.25 && mid < 1.0);
    }

    #[test]
    fn relative_deviation_handles_zero_expectations() {
        let dev = relative_deviations(&[1.1, 0.0, 0.5], &[1.0, 0.0, 0.0]);
        assert!((dev[0] - 0.1).abs() < 1e-12);
        assert_eq!(dev[1], 0.0);
        assert_eq!(dev[2], 1.0);
    }

    #[test]
    fn deviation_summary_aggregates() {
        let summary =
            DeviationSummary::from_observations(&[0.9, 1.1, 1.0], &[1.0, 1.0, 1.0]).unwrap();
        assert!(summary.average.abs() < 1e-12);
        assert!((summary.min + 0.1).abs() < 1e-12);
        assert!((summary.max - 0.1).abs() < 1e-12);
        assert!(DeviationSummary::from_deviations(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mismatched_lengths_panic() {
        relative_deviations(&[1.0], &[1.0, 2.0]);
    }
}
