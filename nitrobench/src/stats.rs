//! Honest summary statistics.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, always with the
//! sample count. Shares keep their base: a share is reported next to the
//! count it divides by.

/// Percentiles a tail may be reported at, highest first.
const TAILS: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median, supported tail and count of one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// The median (mean of the two middle values for an even count).
    pub median: f64,
    /// `(q, value)`: the highest percentile in `TAILS` with at least
    /// [`MIN_BEYOND`] samples beyond it; `None` below 20 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `samples` (any order). `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = TAILS
            .iter()
            .find(|&&q| beyond(sorted.len(), q) >= MIN_BEYOND)
            .map(|&q| (q, quantile(&sorted, q)));
        Some(Self {
            count: sorted.len(),
            median: median_sorted(&sorted),
            tail,
        })
    }

    /// Human-readable form, e.g. `median 1.2 · p99 3.4 · n=2000`.
    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!(" · p{} {v:.4}", q * 100.0),
            None => String::new(),
        };
        format!("median {:.4}{tail} · n={}", self.median, self.count)
    }
}

/// Nearest-rank quantile of an ascending slice: the smallest value with
/// at least a `q` share of the sample at or below it. 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Whether percentile `q` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// Median of `values` (any order); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps decimal q (0.99 is not exact in binary) from
    // rounding a whole rank up.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n, shuffled deterministically so sorting is exercised.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: even p50 has only 9 beyond it.
        assert_eq!(Summary::of(&ramp(19)).unwrap().tail, None);
        // 20 samples: p50 (rank 10) has 10 beyond.
        assert_eq!(Summary::of(&ramp(20)).unwrap().tail, Some((0.5, 10.0)));
        // 100 samples: p90 (rank 90) has 10 beyond, p99 only 1.
        assert_eq!(Summary::of(&ramp(100)).unwrap().tail, Some((0.9, 90.0)));
        // 1000 samples: p99 (rank 990) has 10 beyond.
        assert_eq!(Summary::of(&ramp(1000)).unwrap().tail, Some((0.99, 990.0)));
        // 10000 samples: p99.9 (rank 9990) has 10 beyond.
        let s = Summary::of(&ramp(10_000)).unwrap();
        assert_eq!(s.tail, Some((0.999, 9990.0)));
        assert_eq!(s.count, 10_000);
        assert_eq!(s.median, 5000.5);
    }

    #[test]
    fn supports_matches_summary_tail() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn empty_sample_has_no_summary() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn share_keeps_zero_base_finite() {
        assert_eq!(share(0, 0), 0.0);
        assert_eq!(share(1, 4), 0.25);
    }
}
