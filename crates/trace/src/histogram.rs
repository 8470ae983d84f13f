//! Log-scaled histograms for latency and occupancy distributions.
//!
//! Latencies in the simulator span five orders of magnitude (a 2-cycle hop
//! to multi-million-cycle application phases), so the histograms bucket by
//! bit length: bucket 0 holds the value 0 and bucket *i* (for `i >= 1`)
//! holds values in `[2^(i-1), 2^i - 1]`. Every `u64` lands in exactly one
//! of the 65 buckets, recording is branch-light (`leading_zeros` compiles
//! to one instruction), and the memory cost is fixed.

/// Number of buckets: one for zero plus one per possible bit length.
pub const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket a value falls into: 0 for 0, else the value's bit length.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive value range covered by bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= BUCKETS`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < BUCKETS, "bucket {index} out of range");
        match index {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            i => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or 0 for an empty histogram. Because buckets are
    /// power-of-two ranges this is an upper estimate within 2× of the true
    /// quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_gets_its_own_bucket() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // 1 starts bucket 1; each 2^k starts bucket k+1; 2^k - 1 ends bucket k.
        assert_eq!(Histogram::bucket_index(1), 1);
        for k in 1..64 {
            let p = 1u64 << k;
            assert_eq!(Histogram::bucket_index(p), k + 1, "2^{k}");
            assert_eq!(Histogram::bucket_index(p - 1), k, "2^{k}-1");
            let (lo, hi) = Histogram::bucket_bounds(k + 1);
            assert_eq!(lo, p);
            if k + 1 < 64 {
                assert_eq!(hi, (p << 1) - 1);
            }
        }
    }

    #[test]
    fn u64_max_lands_in_the_last_bucket() {
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bounds(64), (1 << 63, u64::MAX));
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.buckets()[64], 2);
        assert_eq!(h.max(), u64::MAX);
        // The sum saturates rather than wrapping.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        // p50 of 1..=100 is 50; its bucket [32,63] upper bound is 63.
        assert_eq!(h.quantile(0.5), 63);
        // p100 is clamped to the true max.
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(3);
        b.record(300);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 300);
        assert_eq!(a.sum(), 303);
        assert_eq!(a.buckets()[0], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounds_reject_out_of_range() {
        let _ = Histogram::bucket_bounds(65);
    }
}
