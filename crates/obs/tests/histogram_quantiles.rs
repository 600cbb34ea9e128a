//! Property: histogram quantile estimates bound the true quantiles.
//!
//! The log-scale histogram reports, for the `q`-quantile, the upper bound
//! of the bucket holding the `⌈q·count⌉`-th smallest sample. Over random
//! workloads that must satisfy `true ≤ estimate ≤ true·17/16 + 1`: never
//! an underestimate (latency SLOs read the pessimistic side), never more
//! than one sub-bucket of overshoot.

use fastbft_obs::Histogram;
use fastbft_sim::{check, Choices};

/// The exact `q`-quantile under the same rank convention the histogram
/// uses: the `⌈q·n⌉`-th smallest sample (1-based, clamped into range).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Workloads spanning the interesting ranges: sub-16 exact buckets,
/// microsecond-scale latencies, and huge outliers.
fn workload(c: &mut Choices) -> Vec<u64> {
    c.vec(1..400, |c| match c.int(0..4u8) {
        0 => c.int(0..16u64),
        1 => c.int(16..4096u64),
        2 => c.int(4096..10_000_000u64),
        _ => c.int(1_000_000_000..u64::MAX / 2),
    })
}

/// For every tracked quantile, the estimate brackets the true value:
/// `true ≤ estimate ≤ true + true/16 + 1`.
#[test]
fn quantile_estimates_bound_true_quantiles() {
    check("quantile_estimates_bound_true_quantiles", 128, |c| {
        let samples = workload(c);
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        assert_eq!(h.count(), samples.len() as u64);
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            let truth = exact_quantile(&sorted, q);
            let estimate = h.quantile(q);
            assert!(
                estimate >= truth,
                "q={q} underestimated: {estimate} < true {truth}"
            );
            let slack = truth / 16 + 1;
            assert!(
                estimate <= truth.saturating_add(slack),
                "q={q} overshot the 1/16 band: {estimate} > true {truth} + {slack}"
            );
        }
    });
}

/// Sum and max are exact regardless of bucketing.
#[test]
fn sum_and_max_are_exact() {
    check("sum_and_max_are_exact", 128, |c| {
        let samples = c.vec(1..200, |c| c.int(0..1_000_000u64));
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        assert_eq!(h.sum(), samples.iter().sum::<u64>());
        assert_eq!(h.max(), *samples.iter().max().unwrap());
    });
}
