//! Mann–Whitney U (Wilcoxon rank-sum) test — nonparametric significance
//! for "is variant A's missed-deadline distribution really lower than
//! B's?". The paper compares 50-trial box plots by eye; this makes the
//! comparisons quantitative without assuming normality.
//!
//! Implementation: U statistic with midranks for ties, normal
//! approximation with tie-corrected variance (standard for n ≥ ~20; the
//! experiment grids use n = 50 per cell).

/// Result of a two-sided Mann–Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannWhitney {
    /// The U statistic for the first sample.
    pub u: f64,
    /// Standardized z value (0 when the variance degenerates, e.g. all
    /// observations tied).
    pub z: f64,
    /// Two-sided p-value from the normal approximation.
    pub p_two_sided: f64,
    /// Effect direction: negative when the first sample tends lower.
    pub effect: f64,
}

impl MannWhitney {
    /// `true` at the conventional 5% level.
    pub fn significant(&self) -> bool {
        self.p_two_sided < 0.05
    }
}

/// Runs the test on two samples. Returns `None` when either sample is
/// empty or any value is non-finite.
///
/// ```
/// use ecds_stats::mann_whitney_u;
///
/// let filtered:   Vec<f64> = (0..50).map(|i| 320.0 + (i % 7) as f64).collect();
/// let unfiltered: Vec<f64> = (0..50).map(|i| 420.0 + (i % 9) as f64).collect();
/// let test = mann_whitney_u(&filtered, &unfiltered).unwrap();
/// assert!(test.significant());
/// assert!(test.effect < 0.0); // the filtered sample tends lower
/// ```
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> Option<MannWhitney> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    if a.iter().chain(b).any(|x| !x.is_finite()) {
        return None;
    }
    let n1 = a.len() as f64;
    let n2 = b.len() as f64;

    // Pool, sort, midrank.
    let mut pooled: Vec<(f64, usize)> = a
        .iter()
        .map(|&x| (x, 0usize))
        .chain(b.iter().map(|&x| (x, 1usize)))
        .collect();
    pooled.sort_by(|x, y| x.0.total_cmp(&y.0));
    let n = pooled.len();
    let mut ranks = vec![0.0f64; n];
    let mut tie_correction = 0.0f64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        #[expect(
            clippy::float_cmp,
            reason = "tie detection for midranks: the rank-sum test treats exactly equal observations as ties by definition, and the values are compared as stored"
        )]
        while j + 1 < n && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = midrank;
        }
        let t = (j - i + 1) as f64;
        tie_correction += t * t * t - t;
        i = j + 1;
    }

    let r1: f64 = pooled
        .iter()
        .zip(&ranks)
        .filter(|((_, group), _)| *group == 0)
        .map(|(_, &r)| r)
        .sum();
    let u1 = r1 - n1 * (n1 + 1.0) / 2.0;

    let mean_u = n1 * n2 / 2.0;
    let n_tot = n1 + n2;
    let var_u =
        n1 * n2 / 12.0 * ((n_tot + 1.0) - tie_correction / (n_tot * (n_tot - 1.0)).max(1.0));
    let (z, p) = if var_u <= 0.0 {
        (0.0, 1.0)
    } else {
        // Continuity correction toward the mean.
        let diff = u1 - mean_u;
        let corrected = diff - 0.5 * diff.signum();
        let z = corrected / var_u.sqrt();
        (z, 2.0 * normal_sf(z.abs()))
    };
    Some(MannWhitney {
        u: u1,
        z,
        p_two_sided: p.min(1.0),
        effect: u1 / (n1 * n2) - 0.5, // rank-biserial / 2, sign = direction
    })
}

/// Standard normal survival function via the Abramowitz–Stegun 7.1.26
/// erf approximation (|error| < 1.5e-7, ample for reporting p-values).
fn normal_sf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    0.5 * (1.0 - erf_approx(x))
}

fn erf_approx(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_are_not_significant() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = mann_whitney_u(&a, &a).unwrap();
        assert!(!r.significant());
        assert!(r.p_two_sided > 0.9);
        assert!((r.effect).abs() < 1e-9);
    }

    #[test]
    fn clearly_separated_samples_are_significant() {
        let a: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| 100.0 + i as f64).collect();
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.significant());
        assert!(r.p_two_sided < 1e-6);
        assert!(r.effect < -0.49, "a is uniformly lower: {}", r.effect);
    }

    #[test]
    fn direction_flips_with_order() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0];
        let ab = mann_whitney_u(&a, &b).unwrap();
        let ba = mann_whitney_u(&b, &a).unwrap();
        assert!(ab.effect < 0.0);
        assert!(ba.effect > 0.0);
        assert!((ab.p_two_sided - ba.p_two_sided).abs() < 1e-12);
    }

    #[test]
    fn all_tied_degenerates_gracefully() {
        let a = [5.0; 10];
        let b = [5.0; 12];
        let r = mann_whitney_u(&a, &b).unwrap();
        assert_eq!(r.z, 0.0);
        assert_eq!(r.p_two_sided, 1.0);
    }

    #[test]
    fn handles_partial_ties_with_midranks() {
        let a = [1.0, 2.0, 2.0, 3.0];
        let b = [2.0, 3.0, 3.0, 4.0];
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(
            r.p_two_sided > 0.05,
            "overlapping samples: p {}",
            r.p_two_sided
        );
        assert!(r.effect < 0.0);
    }

    #[test]
    fn empty_or_nan_inputs_rejected() {
        assert!(mann_whitney_u(&[], &[1.0]).is_none());
        assert!(mann_whitney_u(&[1.0], &[]).is_none());
        assert!(mann_whitney_u(&[f64::NAN], &[1.0]).is_none());
    }

    #[test]
    fn normal_sf_matches_known_values() {
        assert!((normal_sf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_sf(1.96) - 0.025).abs() < 5e-4);
        assert!((normal_sf(3.0) - 0.00135).abs() < 5e-5);
    }

    #[test]
    fn moderate_shift_has_moderate_p() {
        // Overlapping but shifted: p should be between the extremes.
        let a: Vec<f64> = (0..25).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..25).map(|i| i as f64 + 5.0).collect();
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_two_sided > 1e-6 && r.p_two_sided < 0.5);
    }
}
