//! Sparklines: one-line series rendering.
//!
//! Used by the Figure 2 harness to show the silhouette/Dunn curves as
//! compact in-terminal lines next to the numeric table.

/// Block characters from low to high.
const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders a series as a sparkline, min-max scaled over the series itself.
/// Empty input renders as an empty string; a constant series renders at
/// the lowest bar.
fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            if !(span > 0.0) || !v.is_finite() {
                BARS[0]
            } else {
                let idx = ((v - lo) / span * (BARS.len() - 1) as f64).round() as usize;
                BARS[idx.min(BARS.len() - 1)]
            }
        })
        .collect()
}

/// Renders a labelled sparkline with the numeric range appended, e.g.
/// `silhouette ▇▆▅▄▃▂▁ [0.04 .. 0.29]`.
pub fn labeled_sparkline(label: &str, values: &[f64]) -> String {
    if values.is_empty() {
        return format!("{label} (empty)");
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{label} {} [{lo:.3} .. {hi:.3}]", sparkline(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_series_renders_ramp() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 8);
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[7], '█');
        // Non-decreasing.
        for w in chars.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn constant_series_all_low() {
        let s = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(s, "▁▁▁");
    }

    #[test]
    fn empty_is_empty() {
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn nan_renders_lowest() {
        let s = sparkline(&[0.0, f64::NAN, 1.0]);
        assert_eq!(s.chars().nth(1), Some('▁'));
    }

    #[test]
    fn labeled_includes_range() {
        let s = labeled_sparkline("dunn", &[0.1, 0.5]);
        assert!(s.starts_with("dunn "));
        assert!(s.contains("[0.100 .. 0.500]"));
    }
}
