//! ASCII box-and-whiskers rendering — the textual analogue of the paper's
//! Figures 2–6.
//!
//! Output format (one row per labeled series, shared horizontal scale):
//!
//! ```text
//! SQ/none      |        |-----[  ====|====  ]------|          * | median 375.5
//! ```
//!
//! `[` … `]` span Q1–Q3, `|` inside is the median, dashes are whiskers, and
//! `*` marks outliers (collapsed per side).

use crate::summary::BoxStats;

/// Renders labeled box plots on a shared scale, `width` columns wide
/// (minimum 20). Returns a multi-line string ending in a scale ruler.
pub fn render_boxplots(series: &[(String, BoxStats)], width: usize) -> String {
    let width = width.max(20);
    if series.is_empty() {
        return String::from("(no series)\n");
    }
    let lo = series
        .iter()
        .map(|(_, s)| s.min)
        .fold(f64::INFINITY, f64::min);
    let hi = series
        .iter()
        .map(|(_, s)| s.max)
        .fold(f64::NEG_INFINITY, f64::max);
    let span = if (hi - lo).abs() < f64::EPSILON {
        1.0
    } else {
        hi - lo
    };
    let label_width = series
        .iter()
        .map(|(l, _)| l.len())
        .max()
        .unwrap_or(0)
        .max(8);
    let col = |x: f64| -> usize { (((x - lo) / span) * (width - 1) as f64).round() as usize };

    let mut out = String::new();
    #[expect(
        clippy::expect_used,
        reason = "row buffer is built exclusively from ASCII bytes (spaces, '-', '=', '[', ']', '|', '*'); from_utf8 cannot fail"
    )]
    for (label, s) in series {
        let mut row = vec![b' '; width];
        // Whiskers.
        row[col(s.whisker_lo)..=col(s.whisker_hi)].fill(b'-');
        // Box.
        row[col(s.q1)..=col(s.q3)].fill(b'=');
        row[col(s.q1)] = b'[';
        row[col(s.q3)] = b']';
        row[col(s.median)] = b'|';
        // Outlier markers.
        if s.outliers_lo > 0 {
            row[col(s.min)] = b'*';
        }
        if s.outliers_hi > 0 {
            row[col(s.max)] = b'*';
        }
        out.push_str(&format!(
            "{label:<label_width$} {} median {:.1}\n",
            String::from_utf8(row).expect("ascii"),
            s.median
        ));
    }
    // Scale ruler.
    out.push_str(&format!(
        "{:<label_width$} {:<w2$}{:>w2$}\n",
        "",
        format!("{lo:.0}"),
        format!("{hi:.0}"),
        w2 = width / 2,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(samples: &[f64]) -> BoxStats {
        BoxStats::from_samples(samples).unwrap()
    }

    #[test]
    fn renders_one_row_per_series_plus_ruler() {
        let series = vec![
            ("a".to_string(), stats(&[1.0, 2.0, 3.0, 4.0, 5.0])),
            ("bb".to_string(), stats(&[2.0, 3.0, 4.0])),
        ];
        let out = render_boxplots(&series, 40);
        assert_eq!(out.lines().count(), 3);
        assert!(out.contains("median 3.0"));
    }

    #[test]
    fn median_marker_inside_box() {
        let series = vec![("x".to_string(), stats(&[0.0, 25.0, 50.0, 75.0, 100.0]))];
        let out = render_boxplots(&series, 60);
        let row = out.lines().next().unwrap();
        let open = row.find('[').unwrap();
        let close = row.find(']').unwrap();
        let med = row.find('|').unwrap();
        assert!(open < med && med < close);
    }

    #[test]
    fn outliers_marked_with_star() {
        let series = vec![("x".to_string(), stats(&[1.0, 2.0, 3.0, 4.0, 100.0]))];
        let out = render_boxplots(&series, 60);
        assert!(out.lines().next().unwrap().contains('*'));
    }

    #[test]
    fn degenerate_all_equal_does_not_panic() {
        let series = vec![("x".to_string(), stats(&[5.0; 10]))];
        let out = render_boxplots(&series, 30);
        assert!(out.contains("median 5.0"));
    }

    #[test]
    fn empty_series_has_placeholder() {
        assert_eq!(render_boxplots(&[], 40), "(no series)\n");
    }

    #[test]
    fn width_floor_is_enforced() {
        let series = vec![("x".to_string(), stats(&[1.0, 2.0, 3.0]))];
        // Tiny widths are clamped to 20 rather than panicking.
        let out = render_boxplots(&series, 1);
        assert!(out.lines().next().unwrap().len() >= 20);
    }
}
