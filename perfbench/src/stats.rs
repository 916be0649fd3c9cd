//! Order statistics over measured samples.

/// The median (mean of the middle pair for an even count); `0.0` when
/// there are no samples.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail of a sample: the value at the highest percentile that still
/// has at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile: the share of samples at or below it, in percent.
    pub percentile: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples strictly above the rank (at least [`TAIL_BEYOND`] unless
    /// the sample is too small, in which case the maximum is reported).
    pub beyond: usize,
}

/// Samples the tail percentile must leave above itself.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `samples` (see [`Tail`]). With `TAIL_BEYOND` or fewer
/// samples no such rank exists and the maximum is returned with the
/// number of samples actually beyond it (zero).
pub fn tail(samples: &[f64]) -> Tail {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = n.checked_sub(TAIL_BEYOND + 1).unwrap_or(n - 1);
    Tail {
        value: sorted[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
        beyond: n - 1 - rank,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);

        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&eleven);
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[5.0, 7.0, 6.0]);
        assert_eq!((t.value, t.beyond, t.percentile), (7.0, 0, 100.0));
    }
}
