//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper has a regeneration binary under
//! `src/bin/` (see `DESIGN.md` for the experiment index and `EXPERIMENTS.md`
//! for the paper-vs-measured comparison). This library holds the common
//! pieces: workload construction, measurement records and plain-text table
//! rendering.

#![forbid(unsafe_code)]

use forest_graph::{generators, MultiGraph, SimpleGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named benchmark workload with its planted/exact arboricity bound.
pub struct Workload {
    /// Human-readable name.
    pub name: String,
    /// The graph.
    pub graph: MultiGraph,
    /// An upper bound on the arboricity used to parameterize the algorithms
    /// (exact for the planted/fat-path families).
    pub alpha_bound: usize,
}

/// Standard multigraph workload suite used by the table benchmarks.
pub fn multigraph_suite(seed: u64) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut suite = Vec::new();
    for &(n, k) in &[(128usize, 3usize), (256, 4), (256, 8)] {
        suite.push(Workload {
            name: format!("planted n={n} alpha<={k}"),
            graph: generators::planted_forest_union(n, k, &mut rng),
            alpha_bound: k,
        });
    }
    suite.push(Workload {
        name: "fat-path len=200 mult=4".to_string(),
        graph: generators::fat_path(200, 4),
        alpha_bound: 4,
    });
    suite.push(Workload {
        name: "grid 16x16".to_string(),
        graph: generators::grid(16, 16),
        alpha_bound: 2,
    });
    suite
}

/// Standard simple-graph workload suite (star-forest experiments need simple
/// graphs).
pub fn simple_suite(seed: u64) -> Vec<(String, SimpleGraph, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut suite = Vec::new();
    for &(n, k) in &[(128usize, 4usize), (256, 6), (256, 10)] {
        suite.push((
            format!("planted-simple n={n} alpha<={k}"),
            generators::planted_simple_arboricity(n, k, &mut rng),
            k,
        ));
    }
    suite.push((
        "complete K24".to_string(),
        SimpleGraph::try_from_multigraph(generators::complete_graph(24)).expect("simple"),
        12,
    ));
    suite
}

/// A plain-text table writer with aligned columns.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as the header).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            format!("| {} |", parts.join(" | "))
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (for downstream plotting).
    pub fn render_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with two decimals for table cells.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_nonempty_and_consistent() {
        let suite = multigraph_suite(1);
        assert!(suite.len() >= 4);
        for w in &suite {
            assert!(w.graph.num_edges() > 0);
            assert!(w.alpha_bound >= 1);
            assert!(forest_graph::matroid::arboricity(&w.graph) <= w.alpha_bound);
        }
        let simple = simple_suite(1);
        assert!(simple.len() >= 3);
        for (_, g, bound) in &simple {
            assert!(g.graph().is_simple());
            assert!(forest_graph::matroid::arboricity(g.graph()) <= *bound);
        }
    }

    #[test]
    fn text_table_renders_aligned_rows() {
        let mut t = TextTable::new(&["a", "long-header"]);
        t.row(vec!["1".to_string(), "2".to_string()]);
        t.row(vec!["300".to_string(), "4".to_string()]);
        let text = t.render();
        assert!(text.contains("long-header"));
        assert_eq!(text.lines().count(), 4);
        let csv = t.render_csv();
        assert!(csv.starts_with("a,long-header"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn text_table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["1".to_string()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f2(2.5), "2.50");
    }
}
