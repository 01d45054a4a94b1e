#![warn(missing_docs)]

//! # mfreport
//!
//! ASCII rendering for the reproduced tables and figures: aligned tables
//! (Tables 1–3) and horizontal paired bar charts (Figures 1–3, which in the
//! paper are black/white bar pairs per program×dataset). Machine-readable
//! reports go through the one JSON writer in [`json`].
//!
//! ```
//! use mfreport::Table;
//!
//! let mut t = Table::new(&["PROGRAM", "DATASET", "INSTRS/BREAK"]);
//! t.row(&["tomcatv", "-", "7461"]);
//! t.row(&["doduc", "tiny", "257"]);
//! let text = t.render();
//! assert!(text.contains("tomcatv"));
//! assert!(text.lines().count() >= 4);
//! ```

pub mod json;

/// A simple aligned ASCII table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width does not match header"
        );
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends a row of already-owned cells.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width does not match header"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[i] - cell.len()));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// A horizontal paired-bar chart: each entry draws two bars (the paper's
/// black/white pairs), scaled to a shared maximum.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BarChart {
    title: String,
    label_a: String,
    label_b: String,
    entries: Vec<(String, f64, f64)>,
}

impl BarChart {
    /// Creates a chart; `label_a`/`label_b` name the two bar series.
    pub fn new(title: &str, label_a: &str, label_b: &str) -> Self {
        BarChart {
            title: title.to_string(),
            label_a: label_a.to_string(),
            label_b: label_b.to_string(),
            entries: Vec::new(),
        }
    }

    /// Adds one labelled pair of values.
    pub fn entry(&mut self, label: &str, a: f64, b: f64) -> &mut Self {
        self.entries.push((label.to_string(), a, b));
        self
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the chart has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders with `width` character cells for the longest bar.
    pub fn render(&self, width: usize) -> String {
        let max = self
            .entries
            .iter()
            .flat_map(|(_, a, b)| [*a, *b])
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let label_w = self
            .entries
            .iter()
            .map(|(l, _, _)| l.len())
            .max()
            .unwrap_or(0)
            .max(8);
        let mut out = format!(
            "{}\n  (█ = {}, ░ = {})\n",
            self.title, self.label_a, self.label_b
        );
        for (label, a, b) in &self.entries {
            let cells_a = ((a / max) * width as f64).round() as usize;
            let cells_b = ((b / max) * width as f64).round() as usize;
            out.push_str(&format!(
                "{label:<label_w$} █{} {a:.1}\n",
                "█".repeat(cells_a)
            ));
            out.push_str(&format!(
                "{:<label_w$} ░{} {b:.1}\n",
                "",
                "░".repeat(cells_b)
            ));
        }
        out
    }
}

/// Formats a float with a sensible number of digits for tables (3
/// significant-ish digits, no scientific notation).
pub fn fmt_value(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats a 0..=1 fraction as a percentage.
pub fn fmt_percent(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["A", "LONGHEADER"]);
        t.row(&["xxxxxx", "1"]);
        t.row(&["y", "2"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Column 2 starts at the same offset in all rows.
        let pos = lines[0].find("LONGHEADER").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), pos);
        assert_eq!(lines[3].find('2').unwrap(), pos);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["A", "B"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn row_owned_works() {
        let mut t = Table::new(&["A"]);
        t.row_owned(vec!["v".to_string()]);
        assert!(t.render().contains('v'));
    }

    #[test]
    fn chart_scales_to_max() {
        let mut c = BarChart::new("Figure 1a", "no calls", "with calls");
        c.entry("tomcatv", 100.0, 50.0);
        c.entry("doduc", 25.0, 20.0);
        let text = c.render(40);
        assert!(text.contains("Figure 1a"));
        assert!(text.contains("tomcatv"));
        // The 100.0 bar renders at full width (plus leading cell).
        let full_bar = "█".repeat(41);
        assert!(text.contains(&full_bar));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn chart_handles_zero_values() {
        let mut c = BarChart::new("t", "a", "b");
        c.entry("zero", 0.0, 0.0);
        let text = c.render(10);
        assert!(text.contains("zero"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_value(1234.6), "1235");
        assert_eq!(fmt_value(56.78), "56.8");
        assert_eq!(fmt_value(3.456), "3.46");
        assert_eq!(fmt_percent(0.5), "50.0%");
    }
}
