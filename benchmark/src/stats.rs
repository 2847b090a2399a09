//! Order statistics of timing samples.
//!
//! Every reported time is the *10th percentile* of many short samples, not
//! their mean or median. Interference on this shared box only ever adds
//! time, and it comes in bursts: slices of one run are bimodal, about 1.0x
//! and 1.4x (a neighbour on the sibling hardware thread). Over twenty 8 s
//! runs of one workload the per-run median moved 13.6 % (IQR / median)
//! because it flips between the modes; the 10th percentile of the same
//! samples moved 3.1 %, since it sits in the undisturbed mode whenever a
//! tenth of the run was undisturbed. Median and quartiles are still printed
//! beside it: their distance is the run's noise gauge. Quartiles follow
//! Python's `statistics.quantiles(values, n=4)` (the "exclusive" method), so
//! a spread computed here equals the one a reviewer computes from the
//! printed values.

/// Median, quartiles and tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// 10th percentile (nearest rank): the undisturbed cost. With fewer
    /// than eleven samples it is the minimum.
    pub p10: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile (nearest rank); with fewer than ten samples beyond it
    /// a higher percentile would be a single observation.
    pub p90: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles_sorted(&sorted);
        let nearest_rank = |tenths: usize| {
            let rank = (sorted.len() * tenths).div_ceil(10).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        Some(Summary {
            count: sorted.len(),
            min: sorted[0],
            p10: nearest_rank(1),
            q1,
            median,
            q3,
            p90: nearest_rank(9),
            max: sorted[sorted.len() - 1],
        })
    }

    /// Interquartile range as a share of the median: the harness's noise
    /// gauge. A metric whose IQR ratio exceeds its regression bound is
    /// reported *unresolved*, not unchanged.
    pub fn iqr_ratio(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// 10th percentile (nearest rank) of `samples`; `None` when there are none.
pub fn p10(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.p10)
}

/// `[q1, median, q3]` of an ascending, non-empty slice. A single sample is
/// its own quartiles.
fn quartiles_sorted(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// `failed / attempted`, with zero attempts counting as no failures rather
/// than dividing by zero.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_sample_is_its_own_summary() {
        let s = Summary::of(&[4.0]).expect("one sample");
        assert_eq!((s.q1, s.median, s.q3, s.p90), (4.0, 4.0, 4.0, 4.0));
        assert_eq!((s.min, s.p10, s.iqr_ratio()), (4.0, 4.0, 0.0));
        assert!(Summary::of(&[]).is_none());
        assert!(p10(&[]).is_none());
    }

    #[test]
    fn odd_and_even_counts_match_python_exclusive_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let odd = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).expect("samples");
        assert_eq!((odd.q1, odd.median, odd.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        let even = Summary::of(&[4.0, 3.0, 2.0, 1.0]).expect("samples");
        assert_eq!((even.q1, even.median, even.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
        let two = Summary::of(&[1.0, 2.0]).expect("samples");
        assert_eq!((two.q1, two.median, two.q3), (0.75, 1.5, 2.25));
        assert_eq!(Summary::of(&[7.0, 9.0]).map(|s| s.median), Some(8.0));
    }

    #[test]
    fn iqr_ratio_is_relative_to_the_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).expect("samples");
        assert_eq!(s.iqr_ratio(), 1.0);
        assert_eq!((s.min, s.max, s.count), (1.0, 5.0, 5));
    }

    #[test]
    fn p10_and_p90_are_nearest_ranks() {
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let s = Summary::of(&samples).expect("samples");
        assert_eq!((s.p10, s.p90), (4.0, 36.0));
        // Up to ten samples the 10th percentile is the minimum.
        assert_eq!(p10(&[3.0, 1.0, 2.0, 5.0]), Some(1.0));
        assert_eq!(p10(&(1..=11).map(f64::from).collect::<Vec<_>>()), Some(2.0));
    }

    #[test]
    fn failed_share_tolerates_zero_attempts() {
        assert_eq!(failed_share(0, 0), 0.0);
        assert_eq!(failed_share(3, 12), 0.25);
    }
}
