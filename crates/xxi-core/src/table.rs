//! Plain-text table rendering for experiment output.
//!
//! Every experiment in `xxi-bench` regenerates one of the paper's tables
//! (or a table for a quantitative claim made in prose). This module renders
//! those tables consistently: left-aligned first column (row label),
//! right-aligned numeric columns, a header rule, and an optional caption.

use std::fmt::Write as _;

/// One table cell: the exact text that is rendered, plus the numeric
/// value behind it when the text is a plain finite number. The text is
/// authoritative for rendering (byte-identical output); the value is what
/// the JSON emitter exports as a typed cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Preformatted cell text, rendered verbatim.
    pub text: String,
    /// The cell parsed as a finite `f64`, when it is one (`"45.0"`,
    /// `"1999"`); decorated values (`"12.3x"`, `"180nm"`) stay text-only.
    pub value: Option<f64>,
}

impl Cell {
    /// Build a cell from preformatted text, deriving the typed value.
    pub fn new(text: impl Into<String>) -> Cell {
        let text = text.into();
        let value = text.trim().parse::<f64>().ok().filter(|v| v.is_finite());
        Cell { text, value }
    }
}

/// A simple column-aligned text table.
///
/// ```
/// use xxi_core::Table;
/// let mut t = Table::new(&["node", "P/chip (W)"]);
/// t.row(&["180nm".to_string(), "45.0".to_string()]);
/// let s = t.render();
/// assert!(s.contains("node"));
/// assert!(s.contains("180nm"));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
    caption: Option<String>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            caption: None,
        }
    }

    /// Attach a caption printed above the table.
    pub fn caption(mut self, c: impl Into<String>) -> Table {
        self.caption = Some(c.into());
        self
    }

    /// Append a row of preformatted cells. Short rows are padded with empty
    /// cells; long rows are a bug.
    pub fn row(&mut self, cells: &[String]) {
        assert!(
            cells.len() <= self.headers.len(),
            "row has {} cells but table has {} columns",
            cells.len(),
            self.headers.len()
        );
        let mut r: Vec<Cell> = cells.iter().map(Cell::new).collect();
        r.resize(self.headers.len(), Cell::new(""));
        self.rows.push(r);
    }

    /// Append a row of displayable values.
    pub fn row_display(&mut self, cells: &[&dyn std::fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows as typed cells.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// The caption, when one was attached.
    pub fn caption_text(&self) -> Option<&str> {
        self.caption.as_deref()
    }

    /// Render to a string. The first column is left-aligned; all other
    /// columns are right-aligned (they are almost always numeric).
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.text.len());
            }
        }

        let mut out = String::new();
        if let Some(c) = &self.caption {
            let _ = writeln!(out, "{c}");
        }
        // Header.
        for (i, h) in self.headers.iter().enumerate() {
            if i == 0 {
                let _ = write!(out, "{:<w$}", h, w = widths[i]);
            } else {
                let _ = write!(out, "  {:>w$}", h, w = widths[i]);
            }
        }
        out.push('\n');
        // Rule.
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        // Rows.
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i == 0 {
                    let _ = write!(out, "{:<w$}", cell.text, w = widths[i]);
                } else {
                    let _ = write!(out, "  {:>w$}", cell.text, w = widths[i]);
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render and print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a float with engineering-style precision: 3 significant-ish
/// decimals for small magnitudes, fewer for large.
pub fn fnum(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    let a = x.abs();
    if a >= 1000.0 {
        format!("{x:.0}")
    } else if a >= 100.0 {
        format!("{x:.1}")
    } else if a >= 1.0 {
        format!("{x:.2}")
    } else if a >= 0.001 {
        format!("{x:.4}")
    } else if a == 0.0 {
        "0".to_string()
    } else {
        format!("{x:.3e}")
    }
}

/// Format a ratio as a multiplicative factor, e.g. `123x`.
pub fn xfactor(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}x")
    } else if x >= 10.0 {
        format!("{x:.1}x")
    } else {
        format!("{x:.2}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_rule_rows() {
        let mut t = Table::new(&["name", "value"]).caption("Table X");
        t.row(&["a".into(), "1".into()]);
        t.row(&["bb".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "Table X");
        assert!(lines[1].starts_with("name"));
        assert!(lines[2].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("a"));
        assert!(lines[4].starts_with("bb"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn alignment_right_for_numeric_columns() {
        let mut t = Table::new(&["k", "val"]);
        t.row(&["x".into(), "5".into()]);
        t.row(&["y".into(), "500".into()]);
        let s = t.render();
        // Column width is 3 ("val"/"500"), so "5" appears right-aligned.
        assert!(s.contains("x    5"), "{s}");
        assert!(s.contains("y  500"), "{s}");
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(&["only".into()]);
        assert_eq!(t.render().lines().count(), 3);
    }

    #[test]
    #[should_panic]
    fn long_rows_panic() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fnum(123.45), "123.5");
        assert_eq!(fnum(1.2345), "1.23");
        assert_eq!(fnum(0.012345), "0.0123");
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(1e-9), "1.000e-9");
    }

    #[test]
    fn xfactor_ranges() {
        assert_eq!(xfactor(123.4), "123x");
        assert_eq!(xfactor(12.34), "12.3x");
        assert_eq!(xfactor(1.234), "1.23x");
    }

    #[test]
    fn cells_are_typed_when_numeric() {
        let mut t = Table::new(&["k", "v", "decorated"]);
        t.row(&["180nm".into(), "45.0".into(), "12.3x".into()]);
        let row = &t.rows()[0];
        assert_eq!(row[0].value, None);
        assert_eq!(row[1].value, Some(45.0));
        assert_eq!(row[2].value, None);
        assert_eq!(Cell::new("inf").value, None);
        assert_eq!(Cell::new("NaN").value, None);
        assert_eq!(Cell::new("1.000e-9").value, Some(1.0e-9));
    }

    #[test]
    fn row_display_accepts_mixed_types() {
        let mut t = Table::new(&["a", "b"]);
        t.row_display(&[&"label", &42]);
        assert!(t.render().contains("42"));
    }
}
