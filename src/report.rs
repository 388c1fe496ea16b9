//! Plain-text rendering of figures and tables for the benchmark binaries.

use crate::figures::{self, Figure, Table1Row};

/// Render a figure as an aligned text table (one column per series).
pub fn render_figure(fig: &Figure) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {} ({})\n", fig.title, fig.id));
    out.push_str(&format!("   x: {}   y: {}\n", fig.x_label, fig.y_label));
    // Header.
    let mut header = format!("{:>12}", "size");
    for s in &fig.series {
        header.push_str(&format!("  {:>24}", truncate(&s.name, 24)));
    }
    out.push_str(&header);
    out.push('\n');
    // All x values, in order (series may have identical grids).
    let xs: Vec<u64> = fig
        .series
        .first()
        .map(|s| s.points.iter().map(|p| p.x).collect())
        .unwrap_or_default();
    for x in xs {
        let mut line = format!("{:>12}", x);
        for s in &fig.series {
            match s.exact(x) {
                Some(y) => line.push_str(&format!("  {:>24.2}", y)),
                None => line.push_str(&format!("  {:>24}", "-")),
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Render a figure as CSV.
pub fn render_csv(fig: &Figure) -> String {
    let mut out = String::new();
    out.push_str("size");
    for s in &fig.series {
        out.push(',');
        out.push_str(&s.name.replace(',', ";"));
    }
    out.push('\n');
    let xs: Vec<u64> = fig
        .series
        .first()
        .map(|s| s.points.iter().map(|p| p.x).collect())
        .unwrap_or_default();
    for x in xs {
        out.push_str(&x.to_string());
        for s in &fig.series {
            out.push(',');
            if let Some(y) = s.exact(x) {
                out.push_str(&format!("{y:.4}"));
            }
        }
        out.push('\n');
    }
    out
}

/// Render Table 1.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<46}  {:<42}  {:<42}\n", "Metric", "GM", "MX"));
    out.push_str(&format!("{}\n", "-".repeat(134)));
    for r in rows {
        out.push_str(&format!("{:<46}  {:<42}  {:<42}\n", r.metric, r.gm, r.mx));
    }
    out
}

/// The paper ledger, `BENCH_paper.json`: Table 1 and every point of
/// figures 5a, 5b, 6, 7a, 7b, 8a and 8b, each `y` printed as the shortest
/// decimal that reads back to the same `f64`. Virtual time makes it
/// deterministic, so the committed file must regenerate byte for byte.
pub fn paper_ledger() -> String {
    let (f5a, f7a, f7b, f8a, f8b) = (
        figures::fig5a(),
        figures::fig7(true),
        figures::fig7(false),
        figures::fig8a(),
        figures::fig8b(),
    );
    let table1 = figures::table1_from(&f5a, &f7a, &f7b, &f8a, &f8b);
    let figs = [f5a, figures::fig5b(), figures::fig6(), f7a, f7b, f8a, f8b];

    let rows: Vec<String> = table1
        .iter()
        .map(|r| {
            format!(
                "    {{\"metric\": {}, \"gm\": {}, \"mx\": {}}}",
                json_str(r.metric),
                json_str(&r.gm),
                json_str(&r.mx)
            )
        })
        .collect();
    let figs: Vec<String> = figs
        .iter()
        .map(|fig| {
            let series: Vec<String> = fig
                .series
                .iter()
                .map(|s| {
                    let points: Vec<String> = s
                        .points
                        .iter()
                        .map(|p| format!("[{}, {}]", p.x, p.y))
                        .collect();
                    format!(
                        "      {{\"name\": {}, \"points\": [{}]}}",
                        json_str(&s.name),
                        points.join(", ")
                    )
                })
                .collect();
            format!(
                "    {{\"id\": {}, \"title\": {}, \"x_label\": {}, \"y_label\": {}, \"series\": [\n{}\n    ]}}",
                json_str(fig.id),
                json_str(fig.title),
                json_str(fig.x_label),
                json_str(fig.y_label),
                series.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"paper\",\n  \"table1\": [\n{}\n  ],\n  \"figures\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        figs.join(",\n")
    )
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knet_simcore::Series;

    fn tiny_fig() -> Figure {
        let mut a = Series::new("alpha");
        a.push(1, 1.5);
        a.push(2, 2.5);
        let mut b = Series::new("beta");
        b.push(1, 10.0);
        b.push(2, 20.0);
        Figure {
            id: "t",
            title: "test",
            x_label: "x",
            y_label: "y",
            series: vec![a, b],
        }
    }

    #[test]
    fn text_table_contains_all_points() {
        let txt = render_figure(&tiny_fig());
        assert!(txt.contains("alpha"));
        assert!(txt.contains("beta"));
        assert!(txt.contains("1.50"));
        assert!(txt.contains("20.00"));
    }

    #[test]
    fn csv_is_well_formed() {
        let csv = render_csv(&tiny_fig());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "size,alpha,beta");
        assert!(lines[1].starts_with("1,1.5000,10.0000"));
    }
}
