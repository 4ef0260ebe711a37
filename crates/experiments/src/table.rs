//! Aligned-text and TSV table output.

use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A simple results table: header row plus data rows.
#[derive(Debug, Clone)]
pub struct Table {
    /// Identifier used for the TSV filename (e.g. `fig09`).
    pub id: String,
    /// Human title printed above the table.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows (stringified by the figure code).
    pub rows: Vec<Vec<String>>,
    /// When set, [`Table::emit`] also renders an ASCII bar chart of this
    /// column (values parsed leniently: `0.75`, `2.45x`, `41.3%`).
    pub chart_column: Option<usize>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, header: &[&str]) -> Table {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            chart_column: None,
        }
    }

    /// Enables the bar chart for `col` and returns `self` (builder style).
    pub fn with_chart(mut self, col: usize) -> Table {
        self.chart_column = Some(col);
        self
    }

    fn parse_cell(s: &str) -> Option<f64> {
        s.trim()
            .trim_end_matches('x')
            .trim_end_matches('%')
            .parse()
            .ok()
    }

    /// Renders an ASCII bar chart of one column (the paper's figures are
    /// bar charts; this gives the same at-a-glance shape in a terminal).
    pub fn render_chart(&self, col: usize) -> Option<String> {
        let values: Vec<(String, f64)> = self
            .rows
            .iter()
            .filter_map(|r| Some((r[0].clone(), Self::parse_cell(r.get(col)?)?)))
            .collect();
        if values.is_empty() {
            return None;
        }
        let max = values.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
        if max <= 0.0 {
            return None;
        }
        let name_w = values.iter().map(|(n, _)| n.len()).max().unwrap_or(8);
        let mut out = String::new();
        out.push_str(&format!(
            "   [{}]
",
            self.header[col]
        ));
        for (name, v) in &values {
            let width = ((v / max) * 40.0).round() as usize;
            out.push_str(&format!(
                "   {name:<name_w$} {:<40} {v:.2}
",
                "#".repeat(width)
            ));
        }
        Some(out)
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the aligned-text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}"));
                } else {
                    line.push_str(&format!("{cell:>w$}"));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints to stdout and writes `<dir>/<id>.tsv`.
    pub fn emit(&self, dir: &Path) {
        println!("{}", self.render());
        if let Some(col) = self.chart_column {
            if let Some(chart) = self.render_chart(col) {
                println!("{chart}");
            }
        }
        if fs::create_dir_all(dir).is_ok() {
            let file = dir.join(format!("{}.tsv", self.id));
            if let Ok(mut f) = fs::File::create(&file) {
                let _ = writeln!(f, "{}", self.header.join("\t"));
                for row in &self.rows {
                    let _ = writeln!(f, "{}", row.join("\t"));
                }
            }
        }
    }
}

/// Formats a ratio as e.g. `0.94`.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a fraction as a percentage, e.g. `41.3%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("t", "Title", &["workload", "x"]);
        t.push(vec!["a-long-name".into(), "1.00".into()]);
        t.push(vec!["b".into(), "12.50".into()]);
        let s = t.render();
        assert!(s.contains("== Title =="));
        assert!(s.contains("a-long-name"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows, plus title.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("t", "T", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }

    #[test]
    fn chart_scales_bars_to_max() {
        let mut t = Table::new("t", "T", &["w", "v"]).with_chart(1);
        t.push(vec!["a".into(), "1.00".into()]);
        t.push(vec!["b".into(), "2.00x".into()]);
        let chart = t.render_chart(1).unwrap();
        let lines: Vec<&str> = chart.lines().collect();
        let bars: Vec<usize> = lines[1..].iter().map(|l| l.matches('#').count()).collect();
        assert_eq!(bars[1], 40, "max value fills the scale");
        assert_eq!(bars[0], 20, "half value gets half the bar");
    }

    #[test]
    fn chart_handles_unparseable_columns() {
        let mut t = Table::new("t", "T", &["w", "v"]);
        t.push(vec!["a".into(), "n/a".into()]);
        assert!(t.render_chart(1).is_none());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(0.937), "0.94");
        assert_eq!(pct(0.4132), "41.3%");
    }
}
