//! Plain-text table rendering for the experiment harness.
//!
//! The paper reports results as bar charts and tables; our regenerators print
//! the underlying series as aligned text tables so `paper shape` vs
//! `measured` comparisons are easy to eyeball and to diff.

use std::fmt::Write as _;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use axi4mlir_support::fmtutil::TextTable;
///
/// let mut t = TextTable::new(vec!["config", "task-clock [ms]"]);
/// t.row(vec!["(64, 8, v1)".into(), "12.5".into()]);
/// t.row(vec!["(64, 16, v1)".into(), "4.2".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("config"));
/// assert!(rendered.lines().count() >= 4);
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Self { headers: headers.into_iter().map(str::to_owned).collect(), rows: Vec::new() }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width must match header width");
        self.rows.push(cells);
    }

    /// Renders the table with a header separator line.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}", width = widths[i]);
            }
            // Trim trailing padding on the last column.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Formats a float with engineering-friendly precision: 3 significant-ish
/// decimals for small values, fewer for large ones.
///
/// # Examples
///
/// ```
/// use axi4mlir_support::fmtutil::fmt_ms;
/// assert_eq!(fmt_ms(1234.5678), "1234.6");
/// assert_eq!(fmt_ms(12.345), "12.35");
/// assert_eq!(fmt_ms(0.01234), "0.012");
/// ```
pub fn fmt_ms(value: f64) -> String {
    if value >= 100.0 {
        format!("{value:.1}")
    } else if value >= 1.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.3}")
    }
}

/// Formats a ratio as `1.23x`.
///
/// # Examples
///
/// ```
/// use axi4mlir_support::fmtutil::fmt_speedup;
/// assert_eq!(fmt_speedup(1.654), "1.65x");
/// ```
pub fn fmt_speedup(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

/// Formats a fraction as a percentage: `0.56` becomes `56.0%`.
///
/// # Examples
///
/// ```
/// use axi4mlir_support::fmtutil::fmt_percent;
/// assert_eq!(fmt_percent(0.561), "56.1%");
/// ```
pub fn fmt_percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a", "bbbb"]);
        t.row(vec!["xxxxx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        // Header columns aligned to widest cell.
        assert!(lines[0].starts_with("a    "));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert_eq!(lines[2], "xxxxx  1");
        assert_eq!(lines[3], "y      22");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn float_formatting_bands() {
        assert_eq!(fmt_ms(250.0), "250.0");
        assert_eq!(fmt_ms(2.5), "2.50");
        assert_eq!(fmt_ms(0.25), "0.250");
        assert_eq!(fmt_speedup(2.0), "2.00x");
        assert_eq!(fmt_percent(0.1), "10.0%");
    }
}
