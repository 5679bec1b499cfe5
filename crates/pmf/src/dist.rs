//! Continuous samplers implemented over `rand`'s uniform primitives.
//!
//! The CVB heterogeneity generator (\[AlS00\]) needs gamma variates, the
//! Poisson arrival process needs exponential inter-arrival gaps, and the
//! cluster generator needs bounded uniforms. They are implemented here —
//! gamma via the Marsaglia–Tsang (2000) squeeze method — so that the only
//! external randomness dependency is `rand`'s core uniform generator and
//! sampling behaviour is pinned by this crate's own tests.

use rand::Rng;

/// A gamma distribution parameterized by shape `alpha` and scale `theta`
/// (mean `alpha·theta`, variance `alpha·theta²`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    alpha: f64,
    theta: f64,
}

impl Gamma {
    /// Creates a gamma distribution from shape and scale.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are finite and strictly positive.
    pub fn new(alpha: f64, theta: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "shape must be positive");
        assert!(theta.is_finite() && theta > 0.0, "scale must be positive");
        Self { alpha, theta }
    }

    /// The CVB parameterization: a gamma with the given `mean` and
    /// coefficient of variation `cv` (`alpha = 1/cv²`, `theta = mean·cv²`).
    ///
    /// \[AlS00\] characterizes task and machine heterogeneity exactly this
    /// way: means plus CVs, realized as gamma variates.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        assert!(cv.is_finite() && cv > 0.0, "cv must be positive");
        let alpha = 1.0 / (cv * cv);
        let theta = mean * cv * cv;
        Self::new(alpha, theta)
    }

    /// Shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Scale parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Distribution mean `alpha·theta`.
    pub fn mean(&self) -> f64 {
        self.alpha * self.theta
    }

    /// Distribution variance `alpha·theta²`.
    pub fn variance(&self) -> f64 {
        self.alpha * self.theta * self.theta
    }

    /// Draws one variate (Marsaglia–Tsang for `alpha >= 1`, with the
    /// standard `U^{1/alpha}` boost for `alpha < 1`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.alpha < 1.0 {
            // Boost: if X ~ Gamma(alpha+1, 1) and U ~ Uniform(0,1), then
            // X · U^{1/alpha} ~ Gamma(alpha, 1).
            let x = sample_shape_ge_one(self.alpha + 1.0, rng);
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            x * u.powf(1.0 / self.alpha) * self.theta
        } else {
            sample_shape_ge_one(self.alpha, rng) * self.theta
        }
    }
}

/// Marsaglia–Tsang for standard gamma with shape `alpha >= 1`, scale 1.
fn sample_shape_ge_one<R: Rng + ?Sized>(alpha: f64, rng: &mut R) -> f64 {
    debug_assert!(alpha >= 1.0);
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller (fresh pair each attempt; only the
        // first draw is used, which keeps the loop logic simple and the
        // acceptance rate is ~95% anyway).
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        // Squeeze test, then the full log test.
        if u < 1.0 - 0.0331 * (x * x) * (x * x) {
            return d * v3;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
            return d * v3;
        }
    }
}

/// An exponential distribution with the given rate `lambda`
/// (mean `1/lambda`) — the inter-arrival time of a Poisson process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution from its rate.
    ///
    /// # Panics
    ///
    /// Panics unless `lambda` is finite and strictly positive.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda > 0.0, "rate must be positive");
        Self { lambda }
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Distribution mean `1/lambda`.
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    /// Draws one variate by inverse transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        -u.ln() / self.lambda
    }
}

/// A uniform distribution on `[lo, hi)` (degenerate at `lo` when
/// `lo == hi`), kept as a tiny wrapper so cluster/workload configs can carry
/// validated ranges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo <= hi, "lo must not exceed hi");
        Self { lo, hi }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Distribution mean `(lo + hi) / 2`.
    pub fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Draws one variate.
    #[expect(
        clippy::float_cmp,
        reason = "degenerate-range guard on two stored bounds: gen_range panics on an empty range, and lo == hi holds exactly when both bounds were set to the same value"
    )]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.lo == self.hi {
            self.lo
        } else {
            rng.gen_range(self.lo..self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDEC0DE)
    }

    fn sample_stats(mut draw: impl FnMut(&mut StdRng) -> f64, n: usize) -> (f64, f64) {
        let mut r = rng();
        let samples: Vec<f64> = (0..n).map(|_| draw(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        (mean, var)
    }

    #[test]
    fn gamma_mean_and_variance_match_parameters() {
        let g = Gamma::new(4.0, 2.5); // mean 10, var 25
        let (mean, var) = sample_stats(|r| g.sample(r), 200_000);
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 25.0).abs() < 1.0, "var {var}");
    }

    #[test]
    fn gamma_shape_below_one_boost_path() {
        let g = Gamma::new(0.5, 2.0); // mean 1, var 2
        let (mean, var) = sample_stats(|r| g.sample(r), 200_000);
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 2.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn gamma_from_mean_cv_round_trips() {
        let g = Gamma::from_mean_cv(750.0, 0.25);
        assert!((g.mean() - 750.0).abs() < 1e-9);
        let cv = g.variance().sqrt() / g.mean();
        assert!((cv - 0.25).abs() < 1e-12);
    }

    #[test]
    fn gamma_samples_are_positive() {
        let g = Gamma::from_mean_cv(100.0, 0.5);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(g.sample(&mut r) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn gamma_rejects_zero_shape() {
        let _ = Gamma::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn gamma_from_mean_cv_rejects_zero_mean() {
        let _ = Gamma::from_mean_cv(0.0, 0.25);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let e = Exponential::new(0.125); // mean 8
        let (mean, _) = sample_stats(|r| e.sample(r), 200_000);
        assert!((mean - 8.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn exponential_samples_are_positive() {
        let e = Exponential::new(1.0 / 28.0);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(e.sample(&mut r) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn uniform_respects_bounds() {
        let u = Uniform::new(125.0, 135.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = u.sample(&mut r);
            assert!((125.0..135.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_midpoint() {
        let u = Uniform::new(1.0, 3.0);
        let (mean, _) = sample_stats(|r| u.sample(r), 100_000);
        assert!((mean - 2.0).abs() < 0.01);
        assert_eq!(u.mean(), 2.0);
    }

    #[test]
    fn degenerate_uniform_returns_bound() {
        let u = Uniform::new(5.0, 5.0);
        assert_eq!(u.sample(&mut rng()), 5.0);
    }

    #[test]
    #[should_panic(expected = "lo must not exceed hi")]
    fn uniform_rejects_inverted_bounds() {
        let _ = Uniform::new(2.0, 1.0);
    }
}
