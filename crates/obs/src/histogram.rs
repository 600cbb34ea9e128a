//! A log-scale latency histogram with bounded-error quantile estimates.
//!
//! Values (microseconds, byte counts, batch sizes — any `u64`) land in
//! HdrHistogram-style buckets: each power-of-two octave `[2^k, 2^{k+1})`
//! is split into 16 linear sub-buckets, and values below 16 get exact
//! unit buckets. A bucket's width is therefore at most 1/16 of its lower
//! bound, which gives the estimator its guarantee: reporting the **upper
//! bound of the bucket containing the q-th sample** yields an estimate
//! `e` with `true_quantile ≤ e < true_quantile · 17/16 + 1`. The property
//! tests (`tests/histogram_quantiles.rs`) check exactly that envelope
//! against exact quantiles of random workloads.
//!
//! Recording is three relaxed atomic RMWs (bucket, sum, max) — no locks,
//! no allocation — so it can sit on the commit path. Reads (quantiles,
//! totals) walk the 976 buckets at scrape time; scrapes are rare.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave: 16 ⇒ ≤ 1/16 relative quantile error.
const SUBS: usize = 16;
/// log2(SUBS): octaves below 2^SUB_BITS get exact unit buckets.
const SUB_BITS: u32 = 4;
/// 16 unit buckets + 16 sub-buckets for each octave 2^4 … 2^63.
const BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// A lock-free log-scale histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket a value lands in.
#[inline]
fn index_of(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // ≥ SUB_BITS
        let sub = ((v >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        SUBS + (msb - SUB_BITS) as usize * SUBS + sub
    }
}

/// The largest value that lands in bucket `index` (inclusive).
fn upper_bound(index: usize) -> u64 {
    if index < SUBS {
        index as u64
    } else {
        let i = index - SUBS;
        let shift = (i / SUBS) as u32; // msb − SUB_BITS
        let sub = (i % SUBS) as u64;
        let upper = ((SUBS as u64 + sub + 1) as u128) << shift;
        u64::try_from(upper - 1).unwrap_or(u64::MAX)
    }
}

impl Histogram {
    /// An empty histogram (≈ 8 KiB of buckets).
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Three relaxed atomic ops; hot-path safe.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[index_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples (for computing means externally).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample recorded, exactly (0 if empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Folds every sample of `other` into `self` — scrape-side
    /// aggregation, e.g. a cluster-wide latency distribution built from
    /// per-replica histograms. Bucket-exact: quantiles of the merged
    /// histogram carry the same 1/16 error bound as the inputs.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let c = theirs.load(Ordering::Relaxed);
            if c > 0 {
                mine.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// An upper estimate of the `q`-quantile (`0.0 < q ≤ 1.0`): the upper
    /// bound of the bucket holding the `⌈q·count⌉`-th smallest sample.
    /// Guaranteed ≥ the true quantile and within 1/16 relative error of
    /// it. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return upper_bound(i);
            }
        }
        upper_bound(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_geometry_is_contiguous() {
        // Every value maps to a bucket whose range contains it, and
        // bucket upper bounds are strictly increasing.
        let probes = [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            33,
            1000,
            4095,
            4096,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX,
        ];
        for &v in &probes {
            let i = index_of(v);
            assert!(v <= upper_bound(i), "value {v} above its bucket bound");
            if i > 0 {
                assert!(upper_bound(i - 1) < v, "value {v} below its bucket");
            }
        }
        for i in 1..BUCKETS {
            assert!(upper_bound(i - 1) < upper_bound(i));
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.max(), 15);
        assert_eq!(h.sum(), (0..16).sum::<u64>());
    }

    #[test]
    fn empty_quantile_is_zero() {
        assert_eq!(Histogram::new().quantile(0.99), 0);
    }

    #[test]
    fn quantile_bounds_from_above() {
        let h = Histogram::new();
        for v in [100u64, 200, 300, 4000, 50_000] {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((300..=320).contains(&p50), "p50 {p50} outside 1/16 band");
        let p999 = h.quantile(0.999);
        assert!(
            (50_000..=53_248).contains(&p999),
            "p999 {p999} outside band"
        );
    }
}
