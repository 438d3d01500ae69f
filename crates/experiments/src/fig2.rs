//! Figure 2 — runtime versus unroll factor for `adi` with one sample each.
//!
//! The paper unrolls loop i1 of the `adi` benchmark between 1 and 30, takes a
//! single runtime sample per factor, and observes that the underlying pattern
//! (a plateau around 2.1 s that climbs past an unroll factor of ~10 and
//! levels off near 3.1 s) is visible to the human eye despite the noise. The
//! same sweep over the simulated `adi` kernel reproduces that shape.

use alic_sim::profiler::{Profiler, SimulatedProfiler};
use alic_sim::space::Configuration;
use alic_sim::spapt::{spapt_kernel, SpaptKernel};

/// One point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Unroll factor applied to loop i1.
    pub unroll: u32,
    /// Single observed runtime, in seconds.
    pub observed_runtime: f64,
    /// Ground-truth mean runtime, in seconds.
    pub true_mean: f64,
}

/// Result of the Figure 2 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Result {
    /// Points in unroll-factor order.
    pub points: Vec<SweepPoint>,
}

impl Fig2Result {
    /// Mean observed runtime over the low-unroll plateau (factors 1–8).
    pub fn plateau_level(&self) -> f64 {
        mean(
            self.points
                .iter()
                .filter(|p| p.unroll <= 8)
                .map(|p| p.observed_runtime),
        )
    }

    /// Mean observed runtime over the high-unroll plateau (factors 25–30).
    pub fn high_level(&self) -> f64 {
        mean(
            self.points
                .iter()
                .filter(|p| p.unroll >= 25)
                .map(|p| p.observed_runtime),
        )
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let collected: Vec<f64> = values.collect();
    if collected.is_empty() {
        0.0
    } else {
        collected.iter().sum::<f64>() / collected.len() as f64
    }
}

/// Runs the sweep: unroll factors 1..=30, one observation each.
pub fn run(seed: u64) -> Fig2Result {
    let spec = spapt_kernel(SpaptKernel::Adi);
    let mut profiler = SimulatedProfiler::new(spec, seed);
    let default_values: Vec<u32> = profiler.space().default_configuration().values().to_vec();
    let max_unroll = profiler.space().params()[0].max;
    let mut points = Vec::new();
    for unroll in 1..=max_unroll {
        let mut values = default_values.clone();
        values[0] = unroll;
        let configuration = Configuration::new(values);
        let observed = profiler.measure(&configuration).runtime;
        points.push(SweepPoint {
            unroll,
            observed_runtime: observed,
            true_mean: profiler.true_mean(&configuration),
        });
    }
    Fig2Result { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_unroll_factors() {
        let result = run(1);
        assert_eq!(result.points.len(), 30);
        assert_eq!(result.points.first().unwrap().unroll, 1);
        assert_eq!(result.points.last().unwrap().unroll, 30);
    }

    #[test]
    fn reproduces_the_plateau_then_climb_shape() {
        let result = run(2);
        let low = result.plateau_level();
        let high = result.high_level();
        assert!(
            low < 2.5,
            "low-unroll plateau should sit near 2.1 s, got {low}"
        );
        assert!(
            high - low > 0.6,
            "high-unroll level should climb by roughly 1 s, got {low} -> {high}"
        );
    }

    #[test]
    fn observations_track_the_truth_within_noise() {
        let result = run(3);
        for p in &result.points {
            assert!(p.observed_runtime > 0.0);
            assert!(
                (p.observed_runtime - p.true_mean).abs() < 0.8,
                "observation should stay within the noise envelope"
            );
        }
    }
}
