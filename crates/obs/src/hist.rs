//! Log-linear (HDR-style) latency histograms.
//!
//! Values (microseconds, by convention) are bucketed with 4 sub-bucket
//! bits: values below 16 get exact buckets, larger values land in one of
//! 16 linear sub-buckets per power of two. Relative quantile error is
//! bounded by 1/16 ≈ 6%, the full `u64` range is covered, and recording
//! is one relaxed `fetch_add` per atomic touched — no locks, safe from
//! any thread.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^4 = 16 linear buckets per power of two.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Bucket count for the full u64 range: 16 exact buckets plus 16 per
/// possible leading-bit position above the exact range.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Map a value to its bucket index.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // >= SUB_BITS
    let group = (top - SUB_BITS + 1) as usize;
    let sub = ((v >> (top - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    group * SUB + sub
}

/// The lowest value that maps to bucket `i` — the conservative
/// representative used when reading quantiles back out.
fn bucket_floor(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let group = (i / SUB) as u32;
    let sub = (i % SUB) as u64;
    let top = group + SUB_BITS - 1;
    (1u64 << top) + (sub << (top - SUB_BITS))
}

/// A concurrent log-linear histogram: per-bucket atomic counts plus
/// running count, sum and max.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub(crate) fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Lock-free; relaxed ordering. The bucket is
    /// bumped before `count`, which is what lets a snapshot promise
    /// `buckets_total() >= count`.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the histogram out. `count` is read before the buckets (see
    /// [`Histogram::record`]).
    pub fn snapshot(&self) -> HistSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistSnapshot {
            count,
            sum,
            max,
            buckets,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Histogram {{ count: {}, p50: {}, p99: {}, max: {} }}",
            s.count,
            s.quantile(0.5),
            s.quantile(0.99),
            s.max
        )
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Values recorded (may lag `buckets` by in-flight records).
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-bucket counts (log-linear layout).
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Total count held in the buckets; `>= self.count` always.
    pub fn buckets_total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The value at quantile `q` in `[0, 1]`, computed over the bucket
    /// counts (conservative: the floor of the bucket the quantile falls
    /// in). Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.buckets_total();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        if rank >= total {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_floor(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// This snapshot minus `earlier`, bucket by bucket (saturating).
    pub fn diff(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let buckets = self
            .buckets
            .iter()
            .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        HistSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..16u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn bucket_floor_inverts_bucket_of() {
        // The floor of v's bucket is <= v, and within 1/16 relative.
        for &v in &[16u64, 17, 100, 1000, 4095, 65_537, 1 << 40, u64::MAX] {
            let f = bucket_floor(bucket_of(v));
            assert!(f <= v, "floor {f} > value {v}");
            assert!(v - f <= v / 16, "floor {f} too far below {v}");
        }
    }

    #[test]
    fn buckets_are_monotone() {
        let mut prev = 0;
        for i in 1..BUCKETS {
            let f = bucket_floor(i);
            assert!(f > prev, "bucket {i} floor {f} <= {prev}");
            prev = f;
        }
    }

    #[test]
    fn quantiles_on_uniform_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.50);
        let p95 = s.quantile(0.95);
        let p99 = s.quantile(0.99);
        // 1/16 log-linear error bound, conservative (floor) side.
        assert!((440..=500).contains(&p50), "p50 = {p50}");
        assert!((890..=950).contains(&p95), "p95 = {p95}");
        assert!((925..=990).contains(&p99), "p99 = {p99}");
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn diff_is_per_bucket() {
        let h = Histogram::new();
        h.record(5);
        let before = h.snapshot();
        h.record(5);
        h.record(500);
        let d = h.snapshot().diff(&before);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 505);
        assert_eq!(d.buckets[bucket_of(5)], 1);
        assert_eq!(d.buckets[bucket_of(500)], 1);
    }
}
