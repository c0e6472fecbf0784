//! Summary statistics and error metrics.
//!
//! The experiment harnesses report reconstruction quality (NMSE in dB),
//! classification accuracy and distribution summaries. This module keeps
//! those definitions in one place so every crate reports identically.
//!
//! # Example
//!
//! ```
//! use cim_simkit::stats::{nmse_db, Summary};
//!
//! let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.mean, 2.5);
//!
//! // A perfect reconstruction has NMSE of -inf dB; an all-zero estimate 0 dB.
//! let x = [1.0, -1.0];
//! assert_eq!(nmse_db(&x, &[0.0, 0.0]), 0.0);
//! ```

/// Descriptive statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a sample. Returns the all-zero summary for an
    /// empty slice.
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Summary::default();
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            std: var.sqrt(),
            min,
            max,
        }
    }
}

/// Population variance of a sample (0 for an empty slice).
pub fn variance(xs: &[f64]) -> f64 {
    let s = Summary::of(xs);
    s.std * s.std
}

/// The `q`-th percentile (0 ≤ q ≤ 100) using linear interpolation between
/// closest ranks.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN, or `q` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&q), "percentile out of range: {q}");
    assert!(!xs.iter().any(|x| x.is_nan()), "NaN in percentile input");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Mean squared error between a reference and an estimate.
///
/// # Panics
///
/// Panics if the lengths differ or the slices are empty.
pub fn mse(reference: &[f64], estimate: &[f64]) -> f64 {
    assert_eq!(reference.len(), estimate.len(), "mse length mismatch");
    assert!(!reference.is_empty(), "mse of empty slices");
    reference
        .iter()
        .zip(estimate)
        .map(|(r, e)| (r - e) * (r - e))
        .sum::<f64>()
        / reference.len() as f64
}

/// Root mean squared error.
///
/// # Panics
///
/// Panics if the lengths differ or the slices are empty.
pub fn rmse(reference: &[f64], estimate: &[f64]) -> f64 {
    mse(reference, estimate).sqrt()
}

/// Normalized mean squared error `‖x − x̂‖² / ‖x‖²` (linear scale).
///
/// # Panics
///
/// Panics if the lengths differ, the slices are empty, or the reference is
/// identically zero.
pub fn nmse(reference: &[f64], estimate: &[f64]) -> f64 {
    assert_eq!(reference.len(), estimate.len(), "nmse length mismatch");
    let num: f64 = reference
        .iter()
        .zip(estimate)
        .map(|(r, e)| (r - e) * (r - e))
        .sum();
    let den: f64 = reference.iter().map(|r| r * r).sum();
    assert!(den > 0.0, "nmse undefined for a zero reference signal");
    num / den
}

/// Normalized mean squared error in decibels: `10·log10(NMSE)`.
/// Returns `-inf` for an exact reconstruction.
///
/// # Panics
///
/// Same conditions as [`nmse`].
pub fn nmse_db(reference: &[f64], estimate: &[f64]) -> f64 {
    10.0 * nmse(reference, estimate).log10()
}

/// Peak signal-to-noise ratio in dB for signals with known peak value.
///
/// # Panics
///
/// Panics if the lengths differ or the slices are empty.
pub fn psnr_db(reference: &[f64], estimate: &[f64], peak: f64) -> f64 {
    let m = mse(reference, estimate);
    if m == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (peak * peak / m).log10()
    }
}

/// Classification accuracy: fraction of positions where the labels agree.
///
/// # Panics
///
/// Panics if the lengths differ or the slices are empty.
pub fn accuracy<T: PartialEq>(truth: &[T], predicted: &[T]) -> f64 {
    assert_eq!(truth.len(), predicted.len(), "accuracy length mismatch");
    assert!(!truth.is_empty(), "accuracy of empty slices");
    let correct = truth.iter().zip(predicted).filter(|(t, p)| t == p).count();
    correct as f64 / truth.len() as f64
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics if `xs` is empty or contains a non-positive value.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of empty sample");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geometric mean requires positive values");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std, 2.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_empty_is_default() {
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 25.0), 1.75);
    }

    #[test]
    fn error_metrics() {
        let x = [1.0, 2.0, 3.0];
        assert_eq!(mse(&x, &x), 0.0);
        assert_eq!(rmse(&x, &[2.0, 3.0, 4.0]), 1.0);
        assert_eq!(nmse(&[2.0, 0.0], &[0.0, 0.0]), 1.0);
        assert_eq!(nmse_db(&[2.0, 0.0], &[0.0, 0.0]), 0.0);
        assert!(nmse_db(&x, &x).is_infinite());
    }

    #[test]
    fn psnr_of_perfect_is_infinite() {
        let x = [0.5, 0.25];
        assert!(psnr_db(&x, &x, 1.0).is_infinite());
        // 1-bit error over the full scale: PSNR = 10 log10(1/mse).
        let p = psnr_db(&[1.0, 0.0], &[0.0, 0.0], 1.0);
        assert!((p - 10.0 * (2.0f64).log10()).abs() < 1e-9);
    }

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 2, 3, 4], &[1, 2, 0, 4]), 0.75);
        assert_eq!(accuracy(&["a"], &["a"]), 1.0);
    }

    #[test]
    fn geometric_mean_of_powers() {
        assert!((geometric_mean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn geometric_mean_rejects_nonpositive() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "zero reference")]
    fn nmse_rejects_zero_reference() {
        let _ = nmse(&[0.0, 0.0], &[1.0, 1.0]);
    }

    #[test]
    fn variance_matches_summary() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let s = Summary::of(&xs);
        assert!((variance(&xs) - s.std * s.std).abs() < 1e-12);
    }
}
