//! Summary statistics for experiment series.

/// Five-number-plus-mean summary of a sample, the shape Figure 9's
/// box-plot-like panels report.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample variance.
    pub variance: f64,
}

impl Summary {
    /// An all-zero summary standing in for an empty sample (e.g. a series
    /// row where no trial succeeded).
    pub fn empty() -> Summary {
        Summary {
            n: 0,
            min: 0.0,
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
            max: 0.0,
            mean: 0.0,
            variance: 0.0,
        }
    }

    /// Computes the summary of a sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(values: &[u32]) -> Summary {
        assert!(!values.is_empty(), "summary of empty sample");
        // An in-place integer sort needs no scratch buffer, and equal
        // integers are interchangeable, so the order and every sum below
        // match a stable sort of the values as `f64`.
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let mean = sorted.iter().map(|&v| f64::from(v)).sum::<f64>() / n as f64;
        let variance = sorted
            .iter()
            .map(|&v| (f64::from(v) - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        Summary {
            n,
            min: f64::from(sorted[0]),
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: f64::from(sorted[n - 1]),
            mean,
            variance,
        }
    }
}

/// Linear-interpolated quantile of a sorted sample.
fn quantile(sorted: &[u32], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return f64::from(sorted[0]);
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    f64::from(sorted[lo]) * (1.0 - frac) + f64::from(sorted[hi]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1, 2, 3, 4, 5]);
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.variance, 2.0);
    }

    #[test]
    fn single_value() {
        let s = Summary::of(&[7]);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.q1, 7.0);
        assert_eq!(s.variance, 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::of(&[1, 2, 3, 4]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        let _ = Summary::of(&[]);
    }
}
