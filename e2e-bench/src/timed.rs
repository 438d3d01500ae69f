//! Timing wrappers around a surrogate and a profiler.
//!
//! Both forward **every** trait method, including the defaulted ones: a
//! wrapper that left `alc_scores` to the trait default would silently swap
//! the dynamic tree's block-traversal scorer for the generic path, changing
//! both the timings and the bits. `tests/traced_identity.rs` pins this by
//! comparing traced learner runs with untraced ones for every family.

use alic_model::snapshot::Snapshot;
use alic_model::traits::{ActiveSurrogate, Prediction, SurrogateModel};
use alic_model::Result;
use alic_sim::profiler::{Measurement, Profiler};
use alic_sim::space::{Configuration, ParameterSpace};

use crate::trace::{count, span, tally};

/// A surrogate whose calls are recorded as `model.*` spans.
#[derive(Debug)]
pub struct TimedSurrogate {
    inner: Box<dyn ActiveSurrogate + Send>,
}

impl TimedSurrogate {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ActiveSurrogate + Send>) -> Self {
        TimedSurrogate { inner }
    }
}

impl SurrogateModel for TimedSurrogate {
    fn fit(&mut self, xs: &[&[f64]], ys: &[f64]) -> Result<()> {
        span("model.fit", || self.inner.fit(xs, ys))
    }

    fn update(&mut self, x: &[f64], y: f64) -> Result<()> {
        span("model.update", || self.inner.update(x, y))
    }

    fn predict(&self, x: &[f64]) -> Result<Prediction> {
        span("model.predict", || self.inner.predict(x))
    }

    fn predict_batch(&self, inputs: &[&[f64]]) -> Result<Vec<Prediction>> {
        span("model.predict_batch", || self.inner.predict_batch(inputs))
    }

    fn observation_count(&self) -> usize {
        self.inner.observation_count()
    }

    fn dimension(&self) -> Option<usize> {
        self.inner.dimension()
    }

    fn snapshot(&self) -> Result<Snapshot> {
        span("model.snapshot", || self.inner.snapshot())
    }
}

impl ActiveSurrogate for TimedSurrogate {
    fn alm_score(&self, candidate: &[f64]) -> Result<f64> {
        span("model.alm_score", || self.inner.alm_score(candidate))
    }

    fn alm_scores(&self, candidates: &[&[f64]]) -> Result<Vec<f64>> {
        span("model.alm_scores", || self.inner.alm_scores(candidates))
    }

    fn alc_score(&self, candidate: &[f64], reference: &[&[f64]]) -> Result<f64> {
        span("model.alc_score", || {
            self.inner.alc_score(candidate, reference)
        })
    }

    fn alc_scores(&self, candidates: &[&[f64]], reference: &[&[f64]]) -> Result<Vec<f64>> {
        count("model.alc_scores.candidates", candidates.len() as f64);
        span("model.alc_scores", || {
            self.inner.alc_scores(candidates, reference)
        })
    }
}

/// A profiler whose measurements are tallied as `sim.measure` (a campaign
/// takes over a million; one span each would dwarf the rest of the trace),
/// with their simulated cost summed into the `sim.cost_s` counter.
#[derive(Debug)]
pub struct TimedProfiler<P> {
    inner: P,
}

impl<P> TimedProfiler<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        TimedProfiler { inner }
    }
}

impl<P: Profiler> Profiler for TimedProfiler<P> {
    fn space(&self) -> &ParameterSpace {
        self.inner.space()
    }

    fn kernel_name(&self) -> &str {
        self.inner.kernel_name()
    }

    fn measure(&mut self, config: &Configuration) -> Measurement {
        let m = tally("sim.measure", || self.inner.measure(config));
        count("sim.cost_s", m.cost());
        m
    }

    fn true_mean(&self, config: &Configuration) -> f64 {
        self.inner.true_mean(config)
    }
}
