//! Plain-text tables for the experiments, printed like the paper's tables
//! so paper-vs-measured diffs are eyeball-able. Every cell keeps the
//! number it shows beside its text, so a test asserts on the very table an
//! experiment prints without parsing strings.

use std::fmt;

/// One table cell: the printed text and the number behind it.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The text as printed.
    pub text: String,
    /// The unrounded value the text shows; `None` for a label.
    pub value: Option<f64>,
}

impl Cell {
    /// A label: text with no number behind it.
    pub fn label(text: impl Into<String>) -> Self {
        Self { text: text.into(), value: None }
    }

    /// `value`, printed as `text`.
    pub fn num(value: f64, text: impl Into<String>) -> Self {
        Self { text: text.into(), value: Some(value) }
    }

    /// `value` printed with `decimals` digits after the point.
    pub fn fixed(value: f64, decimals: usize) -> Self {
        Self::num(value, format!("{value:.decimals$}"))
    }

    /// A probability printed as [`pct3`]; the value is the percentage.
    pub fn pct3(p: f64) -> Self {
        Self::num(p * 100.0, pct3(p))
    }
}

macro_rules! int_cells {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Self {
                Self::num(v as f64, v.to_string())
            }
        }
    )*};
}
int_cells!(u32, u64, usize);

/// Rows of cells under a header, printed (by `Display`) with right-aligned
/// columns. Columns added by [`Table::unprinted`] hold numbers an
/// experiment asserts but does not print.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<&'static str>,
    printed: usize,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table printing the columns of `header`.
    pub fn new(header: &[&'static str]) -> Self {
        Self { header: header.to_vec(), printed: header.len(), rows: Vec::new() }
    }

    /// Add columns that are kept for assertions but never printed.
    pub fn unprinted(mut self, header: &[&'static str]) -> Self {
        self.header.extend(header);
        self
    }

    /// Append one row. Panics on a row whose length differs from the
    /// header's.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.header.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// The numbers of the first column named `name`, top to bottom. Panics
    /// if there is no such column or it holds a label.
    pub fn column(&self, name: &str) -> Vec<f64> {
        let i = self.header.iter().position(|&h| h == name);
        let i = i.unwrap_or_else(|| panic!("no column {name:?} in {:?}", self.header));
        self.rows.iter().map(|row| row[i].value.expect("a number, not a label")).collect()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = self.rows.iter().map(|row| row.iter().map(|c| c.text.as_str()).collect());
        let lines: Vec<Vec<&str>> = std::iter::once(self.header.clone()).chain(rows).collect();
        let widths: Vec<usize> = (0..self.printed)
            .map(|i| lines.iter().map(|line| line[i].len()).max().unwrap_or(0))
            .collect();
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
        for (n, line) in lines.iter().enumerate() {
            if n == 1 {
                writeln!(f, "{rule}")?;
            }
            let cells: Vec<String> =
                widths.iter().zip(line).map(|(w, c)| format!("{c:>w$}")).collect();
            writeln!(f, "{}", cells.join("  "))?;
        }
        Ok(())
    }
}

/// Format a probability as the paper does: percent with three decimals.
pub fn pct3(p: f64) -> String {
    format!("{:.3}", p * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["n", "value"]).unprinted(&["hidden"]);
        t.row(vec![5u64.into(), 29u64.into(), 1u64.into()]);
        t.row(vec![Cell::label("10000"), 11000u64.into(), 2u64.into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('n'));
        assert!(!lines[0].contains("hidden"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("10000"));
        // all rows same width
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(t.column("value"), [29.0, 11000.0]);
        assert_eq!(t.column("hidden"), [1.0, 2.0]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct3(0.99500), "99.500");
        assert_eq!(pct3(0.7203849), "72.038");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Table::new(&["a", "b"]).row(vec![1u64.into()]);
    }
}
