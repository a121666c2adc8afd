//! Unicode heatmap rendering.
//!
//! Renders 2-D value grids (the RSCA heatmap of Figure 4, the temporal
//! heatmaps of Figures 10–11) as shaded Unicode blocks in the terminal.
//! For diverging data (RSCA ∈ [−1, 1]) a signed ramp distinguishes under-
//! (`-`, `=`) from over-utilisation (`+`, `#`).

/// Shade characters for a sequential `[0, 1]` ramp (light → dark).
const SEQ_RAMP: [char; 5] = [' ', '░', '▒', '▓', '█'];

/// Characters for a diverging `[-1, 1]` ramp.
const DIV_RAMP: [char; 7] = ['=', '-', '·', ' ', '·', '+', '#'];

/// Maps a value in `[0, 1]` to a sequential shade.
fn seq_shade(v: f64) -> char {
    let v = v.clamp(0.0, 1.0);
    let idx = (v * (SEQ_RAMP.len() - 1) as f64).round() as usize;
    SEQ_RAMP[idx]
}

/// Maps a value in `[-1, 1]` to a diverging shade (negative = under-use).
fn div_shade(v: f64) -> char {
    let v = v.clamp(-1.0, 1.0);
    let idx = ((v + 1.0) / 2.0 * (DIV_RAMP.len() - 1) as f64).round() as usize;
    DIV_RAMP[idx]
}

/// Renders a sequential heatmap: one text row per data row, with optional
/// row labels. `rows[r][c] ∈ [0, 1]`.
pub fn render_sequential(rows: &[Vec<f64>], row_labels: Option<&[String]>) -> String {
    render(rows, row_labels, seq_shade)
}

/// Renders a diverging heatmap for `[-1, 1]` data (RSCA).
pub fn render_diverging(rows: &[Vec<f64>], row_labels: Option<&[String]>) -> String {
    render(rows, row_labels, div_shade)
}

fn render(rows: &[Vec<f64>], row_labels: Option<&[String]>, shade: impl Fn(f64) -> char) -> String {
    if let Some(labels) = row_labels {
        assert_eq!(labels.len(), rows.len(), "heatmap: label count mismatch");
    }
    let label_w = row_labels
        .map(|ls| ls.iter().map(|l| l.chars().count()).max().unwrap_or(0))
        .unwrap_or(0);
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        if let Some(labels) = row_labels {
            let l = &labels[r];
            out.push_str(l);
            for _ in l.chars().count()..label_w {
                out.push(' ');
            }
            out.push_str(" |");
        }
        for &v in row {
            out.push(shade(v));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_shade_endpoints() {
        assert_eq!(seq_shade(0.0), ' ');
        assert_eq!(seq_shade(1.0), '█');
        assert_eq!(seq_shade(2.0), '█'); // clamped
        assert_eq!(seq_shade(-1.0), ' ');
    }

    #[test]
    fn div_shade_sign_sensitivity() {
        assert_eq!(div_shade(-1.0), '=');
        assert_eq!(div_shade(1.0), '#');
        assert_eq!(div_shade(0.0), ' ');
        assert_ne!(div_shade(-0.8), div_shade(0.8));
    }

    #[test]
    fn render_shapes() {
        let rows = vec![vec![0.0, 1.0], vec![0.5, 0.5]];
        let s = render_sequential(&rows, None);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].chars().count(), 2);
    }

    #[test]
    fn labels_are_aligned() {
        let rows = vec![vec![0.1], vec![0.9]];
        let labels = vec!["a".to_string(), "long".to_string()];
        let s = render_diverging(&rows, Some(&labels));
        let lines: Vec<&str> = s.lines().collect();
        let bar0 = lines[0].find('|').unwrap();
        let bar1 = lines[1].find('|').unwrap();
        assert_eq!(bar0, bar1);
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn mismatched_labels_panic() {
        render_sequential(&[vec![0.0]], Some(&["a".to_string(), "b".to_string()]));
    }
}
