//! The profiler interface and its simulated implementation.
//!
//! Iterative compilation interacts with the outside world through exactly two
//! operations: *compile a configuration* and *run the resulting binary once,
//! obtaining one (noisy) runtime*. The [`Profiler`] trait captures that
//! interface; [`SimulatedProfiler`] implements it on top of the synthetic
//! kernel models of this crate, and a real harness driving an actual compiler
//! could implement the same trait without touching the learning code.

use std::collections::HashSet;

use alic_stats::rng::{seeded_stream, Rng as StatsRng};

use crate::cost::CompileCostModel;
use crate::kernel::KernelSpec;
use crate::noise::{NoiseModel, NoiseProfile};
use crate::space::{Configuration, ParameterSpace};
use crate::surface::ResponseSurface;

/// The result of compiling (if needed) and running a configuration once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// The observed runtime of this single run, in seconds.
    pub runtime: f64,
    /// The compilation time charged for this measurement, in seconds.
    ///
    /// Non-zero only for the first measurement of a configuration: binaries
    /// are cached afterwards, exactly as an iterative-compilation harness
    /// would cache them on disk.
    pub compile_time: f64,
    /// Whether this measurement triggered a (re)compilation.
    pub compiled: bool,
}

impl Measurement {
    /// Total cost charged for this measurement (compile + run), in seconds.
    pub fn cost(&self) -> f64 {
        self.runtime + self.compile_time
    }
}

/// Source of runtime observations for an iterative-compilation learner.
///
/// Implementations must charge realistic costs: the paper's evaluation metric
/// is the *cumulative compilation and runtime cost* of all profiling work
/// (§4.3), so every [`measure`](Profiler::measure) call reports the cost it
/// incurred.
pub trait Profiler {
    /// The tunable parameter space of the benchmark being profiled.
    fn space(&self) -> &ParameterSpace;

    /// Name of the benchmark being profiled.
    fn kernel_name(&self) -> &str;

    /// Compiles `config` if necessary and runs it once, returning the
    /// observed runtime and the charged cost.
    fn measure(&mut self, config: &Configuration) -> Measurement;

    /// Ground-truth mean runtime of `config`.
    ///
    /// Only available because this is a simulator; it is used exclusively
    /// for *evaluating* learned models (computing RMSE against the truth),
    /// never by the learners themselves.
    fn true_mean(&self, config: &Configuration) -> f64;
}

/// Simulated profiler for one kernel.
///
/// # Examples
///
/// ```
/// use alic_sim::profiler::{Profiler, SimulatedProfiler};
/// use alic_sim::spapt::{spapt_kernel, SpaptKernel};
///
/// let mut profiler = SimulatedProfiler::new(spapt_kernel(SpaptKernel::Mvt), 7);
/// let config = profiler.space().default_configuration();
/// let first = profiler.measure(&config);
/// let second = profiler.measure(&config);
/// assert!(first.compiled);
/// assert!(!second.compiled); // binary is cached
/// ```
#[derive(Debug, Clone)]
pub struct SimulatedProfiler {
    spec: KernelSpec,
    surface: ResponseSurface,
    noise: NoiseModel,
    cost: CompileCostModel,
    rng: StatsRng,
    compiled: HashSet<Configuration>,
    runs: u64,
    total_cost: f64,
}

impl SimulatedProfiler {
    /// Creates a profiler for `spec`. All randomness (measurement noise) is
    /// derived from `seed`, so two profilers with the same spec and seed
    /// produce identical measurement streams.
    pub fn new(spec: KernelSpec, seed: u64) -> Self {
        let surface = ResponseSurface::new(
            spec.space(),
            spec.base_runtime(),
            spec.surface_seed(),
            spec.shape_overrides(),
        );
        let noise = NoiseModel::new(spec.space(), *spec.noise(), spec.surface_seed());
        let cost = CompileCostModel::new(spec.base_compile_time());
        let rng = seeded_stream(seed, 0x9A0F);
        SimulatedProfiler {
            spec,
            surface,
            noise,
            cost,
            rng,
            compiled: HashSet::new(),
            runs: 0,
            total_cost: 0.0,
        }
    }

    /// The kernel specification backing this profiler.
    pub fn spec(&self) -> &KernelSpec {
        &self.spec
    }

    /// Rescales all noise magnitudes by `factor` (noise-robustness ablation).
    pub fn scale_noise(&mut self, factor: f64) {
        let scaled: NoiseProfile = self.spec.noise().scaled(factor);
        self.noise.set_profile(scaled);
    }

    /// Number of runs executed so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Cumulative compile + run cost charged so far, in seconds.
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// Number of distinct configurations compiled so far.
    pub fn distinct_compiled(&self) -> usize {
        self.compiled.len()
    }

    /// Compile time that would be charged for `config` (without running it).
    pub fn compile_time(&self, config: &Configuration) -> f64 {
        self.cost.compile_time(self.spec.space(), config)
    }
}

impl Profiler for SimulatedProfiler {
    fn space(&self) -> &ParameterSpace {
        self.spec.space()
    }

    fn kernel_name(&self) -> &str {
        self.spec.name()
    }

    fn measure(&mut self, config: &Configuration) -> Measurement {
        let newly_compiled = self.compiled.insert(config.clone());
        let compile_time = if newly_compiled {
            self.cost.compile_time(self.spec.space(), config)
        } else {
            0.0
        };
        let true_mean = self.surface.true_mean(config);
        let runtime = self.noise.sample(&mut self.rng, config, true_mean);
        self.runs += 1;
        self.total_cost += runtime + compile_time;
        Measurement {
            runtime,
            compile_time,
            compiled: newly_compiled,
        }
    }

    fn true_mean(&self, config: &Configuration) -> f64 {
        self.surface.true_mean(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseProfile;
    use crate::space::ParamSpec;
    use alic_stats::summary::Summary;

    fn toy_spec(noise: NoiseProfile) -> KernelSpec {
        KernelSpec::new(
            "toy",
            vec![ParamSpec::unroll("u1"), ParamSpec::unroll("u2")],
            1.0,
            0.5,
            noise,
        )
        .unwrap()
        .with_surface_seed(3)
    }

    #[test]
    fn compile_cost_is_charged_only_once_per_configuration() {
        let mut profiler = SimulatedProfiler::new(toy_spec(NoiseProfile::quiet()), 1);
        let config = Configuration::new(vec![10, 20]);
        let first = profiler.measure(&config);
        let second = profiler.measure(&config);
        assert!(first.compiled && first.compile_time > 0.0);
        assert!(!second.compiled && second.compile_time == 0.0);
        assert_eq!(profiler.distinct_compiled(), 1);
        assert_eq!(profiler.runs(), 2);
    }

    #[test]
    fn measurements_follow_the_ground_truth_under_quiet_noise() {
        let mut profiler = SimulatedProfiler::new(toy_spec(NoiseProfile::quiet()), 2);
        let config = Configuration::new(vec![5, 5]);
        let truth = profiler.true_mean(&config);
        let m = profiler.measure(&config);
        assert!((m.runtime - truth).abs() < 1e-3);
    }

    #[test]
    fn identical_seed_and_spec_replay_identical_streams() {
        let mut a = SimulatedProfiler::new(toy_spec(NoiseProfile::moderate()), 77);
        let mut b = SimulatedProfiler::new(toy_spec(NoiseProfile::moderate()), 77);
        let config = Configuration::new(vec![3, 9]);
        for _ in 0..10 {
            assert_eq!(a.measure(&config), b.measure(&config));
        }
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let mut a = SimulatedProfiler::new(toy_spec(NoiseProfile::moderate()), 1);
        let mut b = SimulatedProfiler::new(toy_spec(NoiseProfile::moderate()), 2);
        let config = Configuration::new(vec![3, 9]);
        let ya: Vec<f64> = (0..5).map(|_| a.measure(&config).runtime).collect();
        let yb: Vec<f64> = (0..5).map(|_| b.measure(&config).runtime).collect();
        assert_ne!(ya, yb);
    }

    #[test]
    fn total_cost_accumulates_compile_and_run_time() {
        let mut profiler = SimulatedProfiler::new(toy_spec(NoiseProfile::quiet()), 5);
        let a = Configuration::new(vec![1, 1]);
        let b = Configuration::new(vec![30, 30]);
        let m1 = profiler.measure(&a);
        let m2 = profiler.measure(&b);
        let m3 = profiler.measure(&a);
        let expected = m1.cost() + m2.cost() + m3.cost();
        assert!((profiler.total_cost() - expected).abs() < 1e-12);
    }

    #[test]
    fn repeated_measurements_average_to_the_truth() {
        let mut spec_noise = NoiseProfile::moderate();
        spec_noise.outlier_probability = 0.0;
        let mut profiler = SimulatedProfiler::new(toy_spec(spec_noise), 11);
        let config = Configuration::new(vec![15, 7]);
        let truth = profiler.true_mean(&config);
        let samples: Vec<f64> = (0..3000)
            .map(|_| profiler.measure(&config).runtime)
            .collect();
        let s = Summary::from_slice(&samples);
        assert!(
            (s.mean - truth).abs() < 0.02 * truth + 0.01,
            "sample mean {} vs truth {truth}",
            s.mean
        );
    }

    #[test]
    fn noise_scaling_increases_variance() {
        let config = Configuration::new(vec![8, 22]);
        let sample_variance = |factor: f64| {
            let mut profiler = SimulatedProfiler::new(toy_spec(NoiseProfile::moderate()), 13);
            profiler.scale_noise(factor);
            let xs: Vec<f64> = (0..800)
                .map(|_| profiler.measure(&config).runtime)
                .collect();
            Summary::from_slice(&xs).variance
        };
        assert!(sample_variance(4.0) > sample_variance(1.0));
    }
}
