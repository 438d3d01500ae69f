//! Compile-cost model.
//!
//! The paper measures training cost as "the cumulative compilation and
//! runtimes of any executables used in training" (§4.3). Compilation is not
//! free, and its cost grows with how aggressively the code is transformed:
//! larger unroll factors and deeper tiling produce more code for the compiler
//! to process. This module provides a simple, deterministic model of that
//! cost.

use crate::space::{Configuration, ParamKind, ParameterSpace};

/// Deterministic compile-time model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileCostModel {
    /// Compile time of the untuned configuration, in seconds.
    pub base_compile_time: f64,
    /// Additional relative cost when every unroll factor is at its maximum.
    pub unroll_weight: f64,
    /// Additional relative cost when every cache-tile exponent is maximal.
    pub tile_weight: f64,
    /// Additional relative cost when every register-tile factor is maximal.
    pub register_weight: f64,
}

impl CompileCostModel {
    /// Creates a model with the given base compile time and default
    /// transformation weights.
    pub fn new(base_compile_time: f64) -> Self {
        CompileCostModel {
            base_compile_time,
            unroll_weight: 0.8,
            tile_weight: 0.15,
            register_weight: 0.1,
        }
    }

    /// Compile time (seconds) for `config` in `space`.
    ///
    /// # Panics
    ///
    /// Panics if `config` has a different arity than `space`.
    pub fn compile_time(&self, space: &ParameterSpace, config: &Configuration) -> f64 {
        assert_eq!(
            config.len(),
            space.dimension(),
            "configuration arity does not match the parameter space"
        );
        let mut relative = 0.0;
        let mut unroll_count = 0usize;
        let mut tile_count = 0usize;
        let mut register_count = 0usize;
        for (spec, &v) in space.params().iter().zip(config.values()) {
            let t = if spec.max == spec.min {
                0.0
            } else {
                (v - spec.min) as f64 / (spec.max - spec.min) as f64
            };
            match spec.kind {
                ParamKind::Unroll => {
                    relative += self.unroll_weight * t;
                    unroll_count += 1;
                }
                ParamKind::CacheTile => {
                    relative += self.tile_weight * t;
                    tile_count += 1;
                }
                ParamKind::RegisterTile => {
                    relative += self.register_weight * t;
                    register_count += 1;
                }
            }
        }
        // Normalize so the maximal configuration costs roughly
        // (1 + unroll_weight + tile_weight + register_weight) × base,
        // independent of how many parameters of each kind exist.
        let normalizer =
            (unroll_count.max(1) + tile_count.max(1) + register_count.max(1)) as f64 / 3.0;
        self.base_compile_time * (1.0 + relative / normalizer)
    }
}

impl Default for CompileCostModel {
    fn default() -> Self {
        CompileCostModel::new(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamSpec, ParameterSpace};

    fn space() -> ParameterSpace {
        ParameterSpace::new(vec![
            ParamSpec::unroll("u1"),
            ParamSpec::unroll("u2"),
            ParamSpec::cache_tile("t1"),
            ParamSpec::register_tile("r1"),
        ])
        .unwrap()
    }

    #[test]
    fn minimal_configuration_costs_the_base_time() {
        let space = space();
        let model = CompileCostModel::new(2.0);
        let cost = model.compile_time(&space, &space.default_configuration());
        assert!((cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn more_unrolling_costs_more() {
        let space = space();
        let model = CompileCostModel::new(1.0);
        let low = model.compile_time(&space, &Configuration::new(vec![1, 1, 0, 1]));
        let high = model.compile_time(&space, &Configuration::new(vec![30, 30, 0, 1]));
        assert!(high > low);
    }

    #[test]
    fn cost_is_monotone_in_each_parameter() {
        let space = space();
        let model = CompileCostModel::new(1.5);
        let base = Configuration::new(vec![10, 10, 5, 8]);
        let base_cost = model.compile_time(&space, &base);
        for i in 0..4 {
            let mut values = base.values().to_vec();
            values[i] += 1;
            let bumped = model.compile_time(&space, &Configuration::new(values));
            assert!(bumped >= base_cost, "parameter {i} decreased compile cost");
        }
    }

    #[test]
    fn cost_stays_within_expected_band() {
        let space = space();
        let model = CompileCostModel::new(1.0);
        let max_config = Configuration::new(vec![30, 30, 11, 16]);
        let cost = model.compile_time(&space, &max_config);
        assert!(cost > 1.0 && cost < 3.0, "cost {cost} outside sane band");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn mismatched_arity_panics() {
        let space = space();
        CompileCostModel::default().compile_time(&space, &Configuration::new(vec![1]));
    }
}
