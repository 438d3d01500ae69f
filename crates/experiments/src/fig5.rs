//! Figure 5 — reduction of profiling cost per benchmark.
//!
//! Figure 5 is the bar-chart view of Table 1's final column: the per-kernel
//! reduction of profiling overhead (speed-up of the variable-observation
//! plan over the 35-observation baseline) plus the geometric mean. This
//! module derives those values from a Table 1 result and renders a plain
//! ASCII bar chart.

use crate::table1::Table1Result;

/// One bar of the chart.
#[derive(Debug, Clone, PartialEq)]
pub struct Bar {
    /// Benchmark name (or `"Geo-mean"`).
    pub label: String,
    /// Reduction of profiling cost (speed-up factor).
    pub reduction: f64,
}

/// The full Figure 5 data series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    /// Per-benchmark bars followed by the geometric mean.
    pub bars: Vec<Bar>,
}

impl Fig5Result {
    /// Derives the bars from a Table 1 result, sorted ascending by reduction
    /// as in the paper's figure.
    pub fn from_table1(table: &Table1Result) -> Self {
        let mut bars: Vec<Bar> = table
            .rows
            .iter()
            .filter_map(|row| {
                row.speedup.map(|s| Bar {
                    label: row.benchmark.clone(),
                    reduction: s,
                })
            })
            .collect();
        bars.sort_by(|a, b| {
            a.reduction
                .partial_cmp(&b.reduction)
                .expect("finite reductions")
        });
        if let Some(gm) = table.geometric_mean_speedup {
            bars.push(Bar {
                label: "Geo-mean".to_string(),
                reduction: gm,
            });
        }
        Fig5Result { bars }
    }

    /// Renders a plain ASCII bar chart (one row per benchmark).
    pub fn ascii_chart(&self) -> String {
        let max = self
            .bars
            .iter()
            .map(|b| b.reduction)
            .fold(0.0f64, f64::max)
            .max(1.0);
        let width = 50.0;
        let mut out = String::new();
        for bar in &self.bars {
            let filled = ((bar.reduction / max) * width).round().max(1.0) as usize;
            out.push_str(&format!(
                "{:<12} {:>7.2}x |{}\n",
                bar.label,
                bar.reduction,
                "#".repeat(filled)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::Table1Row;

    fn table_with(speedups: &[(&str, Option<f64>)]) -> Table1Result {
        let rows = speedups
            .iter()
            .map(|(name, speedup)| Table1Row {
                benchmark: name.to_string(),
                search_space: 1e9,
                lowest_common_rmse: 0.05,
                baseline_cost: Some(100.0),
                variable_cost: speedup.map(|s| 100.0 / s),
                speedup: *speedup,
            })
            .collect();
        Table1Result {
            rows,
            geometric_mean_speedup: Some(4.0),
        }
    }

    #[test]
    fn bars_are_sorted_and_end_with_the_geometric_mean() {
        let table = table_with(&[
            ("adi", Some(0.3)),
            ("gemver", Some(26.0)),
            ("mm", Some(1.1)),
        ]);
        let fig = Fig5Result::from_table1(&table);
        assert_eq!(fig.bars.len(), 4);
        assert_eq!(fig.bars[0].label, "adi");
        assert_eq!(fig.bars.last().unwrap().label, "Geo-mean");
        assert!(fig.bars[0].reduction <= fig.bars[1].reduction);
    }

    #[test]
    fn kernels_without_a_speedup_are_skipped() {
        let table = table_with(&[("adi", None), ("mvt", Some(1.2))]);
        let fig = Fig5Result::from_table1(&table);
        assert_eq!(fig.bars.len(), 2); // mvt + Geo-mean
    }

    #[test]
    fn ascii_chart_has_one_line_per_bar() {
        let table = table_with(&[("a", Some(2.0)), ("b", Some(8.0))]);
        let fig = Fig5Result::from_table1(&table);
        let chart = fig.ascii_chart();
        assert_eq!(chart.lines().count(), fig.bars.len());
        assert!(chart.contains('#'));
    }
}
