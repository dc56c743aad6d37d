//! Summary statistics for repeated measurements.

/// Mean / standard deviation / extremes of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample. Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "cannot summarize an empty sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary { n, mean, std: var.sqrt(), min, max }
    }

    /// Summarize integer samples.
    pub fn of_u64(samples: &[u64]) -> Summary {
        let floats: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        Summary::of(&floats)
    }

    /// `mean ± std` rendering.
    pub fn pm(&self) -> String {
        format!("{:.1} ± {:.1}", self.mean, self.std)
    }
}

/// Least-squares slope and intercept of `y` against `x` — used to check
/// "rounds ∝ log₂ ℓ"-style claims. Returns `(slope, intercept, r2)`.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64, f64) {
    assert_eq!(x.len(), y.len());
    assert!(x.len() >= 2, "need at least two points to fit");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let sxx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_res: f64 = x.iter().zip(y).map(|(a, b)| (b - (slope * a + intercept)).powi(2)).sum();
    let ss_tot: f64 = y.iter().map(|b| (b - my) * (b - my)).sum();
    let r2 = if ss_tot == 0.0 { 1.0 } else { 1.0 - ss_res / ss_tot };
    (slope, intercept, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.mean, 2.0);
        assert!((s.std - 1.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(s.pm().starts_with("2.0"));
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::of_u64(&[7]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn fit_recovers_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        let (slope, intercept, r2) = linear_fit(&x, &y);
        assert!((slope - 2.0).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_r2_degrades_with_noise() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        let (_, _, r2) = linear_fit(&x, &y);
        assert!(r2 < 1.0 && r2 > 0.0);
    }
}
