//! Order statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by the nearest-rank rule:
/// the `⌈q·len⌉`-th smallest sample — an actual observed value, never an
/// interpolation. `None` for an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of a list of measurements (mean of the two middle ones for an
/// even count). `None` for an empty list.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Which slice of a window speaks for it: the nearest-rank 5th percentile of
/// the per-slice figures (the 2nd lowest of 30, the lowest of up to 20).
pub const QUIET_QUANTILE: f64 = 0.05;

/// The figure of a window's quiet slices: the [`QUIET_QUANTILE`] of a list
/// of per-slice figures, an observed value. What the shared host adds to a
/// latency — a stolen core, a slower wake-up — comes and goes over seconds
/// and only ever adds, so a run's quietest slices say what the program costs
/// and repeat from run to run, where the median over slices follows how busy
/// the host happened to be. Not the minimum of a full-length window, which
/// one freak slice would set. `None` for an empty list.
pub fn quiet_f64(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as f64 * QUIET_QUANTILE).ceil() as usize;
    sorted.get(rank.saturating_sub(1)).copied()
}

/// The percentiles the benchmark reports for one latency distribution,
/// with the sample count they rest on.
#[derive(Clone, Debug, PartialEq)]
pub struct Percentiles {
    pub samples: usize,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

impl Percentiles {
    /// Sorts `samples` in place and summarises them; all-zero for an empty
    /// set (the caller reports the zero sample count alongside).
    pub fn of(samples: &mut [u64]) -> Percentiles {
        samples.sort_unstable();
        let q = |q| quantile(samples, q).unwrap_or(0);
        Percentiles {
            samples: samples.len(),
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
            max: samples.last().copied().unwrap_or(0),
        }
    }

    /// Whether at least ten samples lie beyond the `q`-quantile — the
    /// guide's condition for reporting a percentile at all.
    pub fn supports(&self, q: f64) -> bool {
        (self.samples as f64) * (1.0 - q) >= 10.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_observed_values() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), Some(50));
        assert_eq!(quantile(&sorted, 0.9), Some(90));
        assert_eq!(quantile(&sorted, 0.99), Some(99));
        assert_eq!(quantile(&sorted, 1.0), Some(100));
        assert_eq!(quantile(&sorted, 0.0), Some(1));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7], 0.99), Some(7));
    }

    #[test]
    fn percentiles_report_their_sample_count() {
        let mut samples = vec![30, 10, 20, 50, 40];
        let p = Percentiles::of(&mut samples);
        assert_eq!(p.samples, 5);
        assert_eq!((p.p50, p.p90, p.max), (30, 50, 50));
        // Five samples cannot support a p90: fewer than ten lie beyond it.
        assert!(!p.supports(0.9));
        let mut many: Vec<u64> = (0..1000).collect();
        let p = Percentiles::of(&mut many);
        assert!(p.supports(0.99));
        assert!(!p.supports(0.999));
        assert_eq!(Percentiles::of(&mut []).samples, 0);
    }

    #[test]
    fn the_quiet_figure_is_an_observed_low_slice_but_not_a_freak_minimum() {
        let thirty: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(quiet_f64(&thirty), Some(2.0));
        let fifteen: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(quiet_f64(&fifteen), Some(1.0));
        assert_eq!(quiet_f64(&[7.0, 5.0]), Some(5.0));
        assert_eq!(quiet_f64(&[]), None);
        // One second out of thirty that reads absurdly low does not set it.
        let mut freak = vec![500.0; 29];
        freak.push(90.0);
        assert_eq!(quiet_f64(&freak), Some(500.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_f64(&[]), None);
    }
}
