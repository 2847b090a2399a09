//! Exact-integer log2-bucketed histograms.

/// Number of buckets: one for the value `0`, plus one per bit position of a
/// `u64` (bucket `k` holds the values in `[2^(k-1), 2^k - 1]`).
pub(crate) const NUM_BUCKETS: usize = 65;

/// An exact-integer histogram over `u64` samples with logarithmic buckets.
///
/// Bucket `0` holds the value `0`; bucket `k` (for `k >= 1`) holds the
/// values in `[2^(k-1), 2^k - 1]`. Recording, merging and percentile
/// extraction are pure integer arithmetic — no floats anywhere — so two
/// histograms built from the same samples in any order are *identical*
/// (`Eq`), and the simulator's engine-equivalence guarantees extend to every
/// percentile this type reports.
///
/// Percentiles are resolved to the **upper bound** of the bucket containing
/// the requested rank (clamped to the exact maximum recorded), which makes
/// them conservative tail bounds: the true p99 is never above the reported
/// one by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist64 {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist64 {
    fn default() -> Self {
        Hist64 {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Index of the bucket holding `value`.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        value.ilog2() as usize + 1
    }
}

/// Largest value bucket `idx` can hold.
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

impl Hist64 {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub(crate) fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one. Merging is commutative and
    /// associative, so per-flow histograms can be combined into per-domain
    /// or whole-run views in any order with identical results.
    pub fn merge(&mut self, other: &Hist64) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `pct`-th percentile (0–100) as a conservative upper bound: the
    /// upper edge of the bucket containing the sample of rank
    /// `ceil(count * pct / 100)`, clamped to the exact recorded maximum.
    /// Returns `None` when the histogram is empty or `pct > 100`.
    pub fn percentile(&self, pct: u8) -> Option<u64> {
        if self.count == 0 || pct > 100 {
            return None;
        }
        let rank = ((u128::from(self.count) * u128::from(pct)).div_ceil(100) as u64).max(1);
        let mut cumulative = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Some(bucket_upper_bound(idx).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median upper bound (`percentile(50)`).
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50)
    }

    /// 95th-percentile upper bound.
    pub fn p95(&self) -> Option<u64> {
        self.percentile(95)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // 0 is alone in bucket 0; each power of two opens a new bucket and
        // `2^k - 1` closes the previous one.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        for k in 1..64 {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(bucket_of(lo), k, "lower edge of bucket {k}");
            assert_eq!(bucket_of(hi), k, "upper edge of bucket {k}");
        }
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(5), 31);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = Hist64::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99), None);
        h.record(7);
        h.record(0);
        h.record_n(100, 3);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 307);
        assert_eq!(h.min, 0);
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.buckets[bucket_of(100)], 3);
    }

    #[test]
    fn percentiles_are_conservative_upper_bounds() {
        let mut h = Hist64::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // The true p50 is 50; the bucket [32, 63] answers with 63.
        assert_eq!(h.p50(), Some(63));
        // p99 and p100 land in [64, 127], clamped to the exact max of 100.
        assert_eq!(h.p99(), Some(100));
        assert_eq!(h.percentile(100), Some(100));
        // Every percentile is >= the true order statistic.
        for pct in 1..=100u8 {
            let true_rank = (u64::from(pct) * 100).div_ceil(100).max(1);
            assert!(
                h.percentile(pct).unwrap() >= true_rank,
                "p{pct} below the true order statistic"
            );
        }
        assert_eq!(h.percentile(101), None);
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample_bucket() {
        let mut h = Hist64::new();
        h.record(37);
        for pct in 0..=100u8 {
            assert_eq!(h.percentile(pct), Some(37), "p{pct}");
        }
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let build = |values: &[u64]| {
            let mut h = Hist64::new();
            for &v in values {
                h.record(v);
            }
            h
        };
        let a = build(&[1, 5, 9, 1000]);
        let b = build(&[0, 2, 64]);
        let c = build(&[u64::MAX, 3]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");

        // Merging equals recording the concatenation.
        let all = build(&[1, 5, 9, 1000, 0, 2, 64, u64::MAX, 3]);
        assert_eq!(ab_c, all);
        assert_eq!(all.count(), 9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Hist64::new();
        h.record(42);
        let snapshot = h.clone();
        h.merge(&Hist64::new());
        assert_eq!(h, snapshot);
        let mut empty = Hist64::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn order_of_recording_does_not_matter() {
        let mut fwd = Hist64::new();
        let mut rev = Hist64::new();
        for v in 0..500u64 {
            fwd.record(v * 3);
        }
        for v in (0..500u64).rev() {
            rev.record(v * 3);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn buckets_cover_all_samples() {
        let mut h = Hist64::new();
        h.record(0);
        h.record(1);
        h.record_n(70, 2);
        // Bucket 0 holds only 0, bucket 1 only 1, and 70 lands in [64, 127].
        let nonzero: Vec<_> = (0..h.buckets.len()).filter(|&i| h.buckets[i] > 0).collect();
        assert_eq!(nonzero, vec![0, 1, bucket_of(70)]);
        assert_eq!(bucket_of(64), bucket_of(127));
        assert_eq!(bucket_upper_bound(bucket_of(70)), 127);
        assert_eq!(h.buckets[bucket_of(70)], 2);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count());
    }
}
