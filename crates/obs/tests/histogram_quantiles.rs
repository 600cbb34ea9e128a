//! Property: histogram quantile estimates bound the true quantiles.
//!
//! The log-scale histogram reports, for the `q`-quantile, the upper bound
//! of the bucket holding the `⌈q·count⌉`-th smallest sample. Over random
//! workloads that must satisfy `true ≤ estimate ≤ true·17/16 + 1`: never
//! an underestimate (latency SLOs read the pessimistic side), never more
//! than one sub-bucket of overshoot.

use fastbft_obs::Histogram;
use proptest::prelude::*;

/// The exact `q`-quantile under the same rank convention the histogram
/// uses: the `⌈q·n⌉`-th smallest sample (1-based, clamped into range).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Workloads spanning the interesting ranges: sub-16 exact buckets,
/// microsecond-scale latencies, and huge outliers.
fn workload() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            0u64..16,
            16u64..4096,
            4096u64..10_000_000,
            1_000_000_000u64..u64::MAX / 2,
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For every tracked quantile, the estimate brackets the true value:
    /// `true ≤ estimate ≤ true + true/16 + 1`.
    #[test]
    fn quantile_estimates_bound_true_quantiles(samples in workload()) {
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), samples.len() as u64);
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            let truth = exact_quantile(&sorted, q);
            let estimate = h.quantile(q);
            prop_assert!(
                estimate >= truth,
                "q={} underestimated: {} < true {}",
                q, estimate, truth
            );
            let slack = truth / 16 + 1;
            prop_assert!(
                estimate <= truth.saturating_add(slack),
                "q={} overshot the 1/16 band: {} > true {} + {}",
                q, estimate, truth, slack
            );
        }
    }

    /// Sum and max are exact regardless of bucketing.
    #[test]
    fn sum_and_max_are_exact(samples in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        prop_assert_eq!(h.sum(), samples.iter().sum::<u64>());
        prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
    }
}
