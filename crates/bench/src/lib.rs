//! # xplacer-bench — harnesses regenerating the paper's tables & figures
//!
//! Each experiment of the paper's evaluation (§IV) lives in one module
//! under [`figs`] and returns a textual report; `reproduce_all` runs
//! every experiment in [`EXPERIMENTS`] order and collects the
//! paper-vs-measured comparison for `EXPERIMENTS.md`.
//!
//! Scale note: the simulator runs the paper's *workload structure* at
//! reduced input sizes where the originals are testbed-scale (1M-column
//! grids, 45000-character strings). Every report states its scaling; the
//! claims being reproduced are shapes — who wins, by what factor, where
//! crossovers fall — not absolute times.

pub mod access_path;
pub mod cli;
pub mod figs;
pub mod metrics_dump;

use std::fmt::Write as _;

/// Every experiment id, in the order `reproduce_all` runs and prints them.
pub const EXPERIMENTS: [&str; 12] = [
    "table1_api",
    "fig04_lulesh_diagnostic",
    "fig05_lulesh_maps",
    "fig06_lulesh_speedup",
    "fig07_sw_init_maps",
    "fig08_sw_diag_maps",
    "fig09_sw_speedup",
    "fig10_pathfinder_maps",
    "fig11_pathfinder_speedup",
    "table2_rodinia_findings",
    "table3_overhead",
    "ablation_page_size",
];

/// A labelled measurement grid: rows × columns of values, rendered as an
/// aligned text table.
pub struct Grid {
    pub title: String,
    pub col_names: Vec<String>,
    pub rows: Vec<(String, Vec<String>)>,
}

impl Grid {
    pub fn new(title: impl Into<String>, col_names: &[&str]) -> Self {
        Grid {
            title: title.into(),
            col_names: col_names.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of already-formatted cells.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        self.rows.push((label.into(), cells));
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.col_names.iter().map(|c| c.len()).collect();
        let mut label_w = 0usize;
        for (label, cells) in &self.rows {
            label_w = label_w.max(label.len());
            for (i, c) in cells.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = write!(out, "  {:label_w$}", "");
        for (i, c) in self.col_names.iter().enumerate() {
            let _ = write!(out, "  {:>w$}", c, w = widths[i]);
        }
        let _ = writeln!(out);
        for (label, cells) in &self.rows {
            let _ = write!(out, "  {label:label_w$}");
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "  {:>w$}", c, w = widths[i]);
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Section header used by every report.
pub fn header(id: &str, caption: &str) -> String {
    format!(
        "================================================================\n\
         {id}: {caption}\n\
         ================================================================\n"
    )
}

/// Format a speedup with two decimals and an `x` suffix.
pub fn fmt_speedup(s: f64) -> String {
    format!("{s:.2}x")
}

/// Format simulated nanoseconds as adaptive ms/s text.
pub fn fmt_time(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.0}us", ns / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_renders_aligned() {
        let mut g = Grid::new("demo", &["a", "bbbb"]);
        g.row("row1", vec!["1".into(), "2".into()]);
        g.row("longer-row", vec!["10".into(), "20".into()]);
        let r = g.render();
        assert!(r.contains("demo"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        // Columns align: both data lines have the same length.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_speedup(3.21987), "3.22x");
        assert_eq!(fmt_time(1_500_000.0), "1.5ms");
        assert_eq!(fmt_time(2.5e9), "2.50s");
        assert_eq!(fmt_time(900.0), "1us");
    }
}
