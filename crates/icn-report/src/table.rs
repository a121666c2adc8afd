//! Plain-text table rendering.
//!
//! Every experiment harness prints its rows through this renderer so the
//! regenerated tables (e.g. Table 1) are aligned and diff-friendly.

/// A simple left-aligned text table builder.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Row length must match the header.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Table {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "Table::row: expected {} cells, got {}",
            self.header.len(),
            cells.len()
        );
        self.rows.push(cells);
        self
    }

    /// Renders the table with a separator line under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, &w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                for _ in cell.chars().count()..w {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float compactly with the given number of decimals.
pub fn num(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "count"]);
        t.row(vec!["a", "1"]).row(vec!["longer-name", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // All data lines align "count" column at the same offset.
        let off = lines[0].find("count").unwrap();
        assert_eq!(lines[2].len().min(off), off.min(lines[2].len()));
    }

    #[test]
    #[should_panic(expected = "expected 2 cells")]
    fn wrong_arity_panics() {
        Table::new(vec!["a", "b"]).row(vec!["only-one"]);
    }

    #[test]
    fn empty_table_has_header_only() {
        let t = Table::new(vec!["x"]);
        assert_eq!(t.render().lines().count(), 2);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(num(1.23456, 2), "1.23");
    }
}
