//! Sample summaries, metric names and the result line.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least ten samples beyond it (capped at p99), so a tail
//! figure is never read off a handful of points.

use std::collections::BTreeMap;

/// End-to-end metrics and their units, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("norm_cpu_ms_per_op", "ms"),
    ("cost_ratio", "ratio"),
    ("profile_cost_s", "sim_s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed for every workload (0 where the workload
/// does not exercise the layer).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("model.fit.calls", "count"),
    ("model.fit.busy_ms", "ms"),
    ("model.update.calls", "count"),
    ("model.update.busy_ms", "ms"),
    ("model.alc_scores.calls", "count"),
    ("model.alc_scores.candidates", "count"),
    ("model.alc_scores.busy_ms", "ms"),
    ("model.predict_batch.calls", "count"),
    ("model.predict_batch.busy_ms", "ms"),
    ("sim.measure.calls", "count"),
    ("sim.measure.busy_ms", "ms"),
    ("sim.cost_s", "sim_s"),
    ("data.generate.busy_ms", "ms"),
    ("learner.run.busy_ms", "ms"),
    ("learner.self_ms", "ms"),
    ("learner.obs_per_example", "ratio"),
    ("learner.quarantined", "count"),
    ("runner.units", "count"),
    ("runner.unit_ms.p50", "ms"),
    ("runner.unit_ms.p90", "ms"),
    ("runner.codec.encode_ms", "ms"),
    ("runner.codec.bytes", "bytes"),
    ("runner.ledger.write_ms", "ms"),
    ("runner.assemble_ms", "ms"),
    ("runner.report_write_ms", "ms"),
    ("runner.report_bytes", "bytes"),
    ("protocol.parse_us", "us"),
    ("engine.newsession.busy_ms.p50", "ms"),
    ("engine.newsession.busy_ms.p99", "ms"),
    ("engine.attach.busy_ms.p50", "ms"),
    ("engine.attach.busy_ms.p99", "ms"),
    ("engine.suggest.busy_ms.p50", "ms"),
    ("engine.suggest.busy_ms.p99", "ms"),
    ("engine.observe.busy_ms.p50", "ms"),
    ("engine.observe.busy_ms.p99", "ms"),
    ("engine.evictions", "count"),
    ("engine.restore_ratio", "ratio"),
    ("session.suggest.busy_ms", "ms"),
    ("session.apply.busy_ms", "ms"),
    ("session.serialize.busy_ms", "ms"),
    ("session.checkpoint_bytes", "bytes"),
    ("ledger.write_verified.busy_ms", "ms"),
    ("session.restore.busy_ms", "ms"),
    ("session.harvest.busy_ms", "ms"),
    ("warmstore.probe.calls", "count"),
    ("warmstore.hit_ratio", "ratio"),
    ("warmstore.restore_ms", "ms"),
    ("transport.newsession.overhead_ms.p50", "ms"),
    ("transport.attach.overhead_ms.p50", "ms"),
    ("transport.suggest.overhead_ms.p50", "ms"),
    ("transport.observe.overhead_ms.p50", "ms"),
    ("client.newsession_ms.p50", "ms"),
    ("client.newsession_ms.p99", "ms"),
    ("client.attach_ms.p50", "ms"),
    ("client.attach_ms.p99", "ms"),
    ("client.suggest_ms.p50", "ms"),
    ("client.suggest_ms.p99", "ms"),
    ("client.observe_ms.p50", "ms"),
    ("client.observe_ms.p99", "ms"),
];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_MARGIN: usize = 10;

/// Highest percentile reported.
pub const TAIL_CAP: f64 = 0.99;

/// The highest quantile with at least [`TAIL_MARGIN`] of `n` samples beyond
/// it: `1 − 10/n`, capped at p99. `None` when even the median lacks the
/// margin (`n < 20`).
pub fn tail_quantile(n: usize) -> Option<f64> {
    if n < 2 * TAIL_MARGIN {
        return None;
    }
    Some((1.0 - TAIL_MARGIN as f64 / n as f64).min(TAIL_CAP))
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q · n` samples at or below it, so `n − ceil(q·n)` samples lie
/// strictly beyond the returned rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median and tail of one latency population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The quantile the tail was read at (see [`tail_quantile`]).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

/// Summarizes samples; `None` when there are too few for a median with
/// the required margin.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let tail_q = tail_quantile(samples.len())?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        count: sorted.len(),
        p50: median(&sorted),
        tail_q,
        tail: quantile(&sorted, tail_q),
    })
}

/// Whether `name` is a valid metric or workload name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// An ordered set of named metrics with units.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records one metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name, or a non-finite value — both
    /// are bugs in the benchmark, not in the program under test.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.entries.insert(name.clone(), (value, unit));
        assert!(previous.is_none(), "metric {name} recorded twice");
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.get(name).map(|&(v, _)| v)
    }

    /// Iterates `(name, value, unit)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, &(v, u))| (n.as_str(), v, u))
    }
}

/// Renders the benchmark's result line: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(50_000), Some(0.99));
        for n in [20usize, 37, 100, 198, 999, 1000, 4321] {
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let q = tail_quantile(n).unwrap();
            let value = quantile(&sorted, q);
            let beyond = sorted.iter().filter(|&&v| v > value).count();
            assert!(beyond >= TAIL_MARGIN, "n={n} q={q} beyond={beyond}");
        }
    }

    #[test]
    fn quantiles_and_medians() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sorted, 0.5), 2.0);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(summarize(&[1.0; 10]), None);
        let s = summarize(&(1..=100).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.count, s.p50, s.tail_q, s.tail), (100, 50.5, 0.9, 90.0));
    }

    #[test]
    fn metric_names_are_validated() {
        for good in [
            "setup_s",
            "op_ms.p50",
            "engine.attach.busy_ms.p99",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "p/q",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_metric_names_are_refused() {
        Metrics::default().set("bad name", 1.0, "s");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 0.8127, "s");
        metrics.set("op_ms.p50", 1.25, "ms");
        assert_eq!(
            result_line(true, 1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"op_ms.p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
