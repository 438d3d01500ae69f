//! The traced run must compute exactly what the untraced programs compute:
//! the timing wrappers forward every trait method (a missed defaulted
//! method would swap in the trait's generic path and change the bits).

use alic_core::experiment::ComparisonConfig;
use alic_core::learner::LearnerConfig;
use alic_core::plan::SamplingPlan;
use alic_core::runner::{self, CampaignSpec, KernelContext};
use alic_data::dataset::DatasetConfig;
use alic_e2e_bench::{campaign, trace};
use alic_model::SurrogateSpec;
use alic_sim::kernel::KernelSpec;
use alic_sim::noise::NoiseProfile;
use alic_sim::space::ParamSpec;

fn tiny_campaign(model: SurrogateSpec) -> CampaignSpec {
    let kernel = KernelSpec::new(
        "toy",
        vec![
            ParamSpec::unroll("u1"),
            ParamSpec::unroll("u2"),
            ParamSpec::cache_tile("t1"),
        ],
        1.0,
        0.5,
        NoiseProfile::moderate(),
    )
    .expect("valid toy kernel")
    .with_surface_seed(3);
    CampaignSpec::single(
        kernel,
        ComparisonConfig {
            learner: LearnerConfig {
                initial_examples: 3,
                initial_observations: 4,
                candidates_per_iteration: 12,
                max_iterations: 10,
                evaluate_every: 5,
                ..Default::default()
            },
            plans: vec![SamplingPlan::fixed(4), SamplingPlan::sequential(4)],
            repetitions: 2,
            model,
            dataset: DatasetConfig {
                configurations: 150,
                observations: 4,
                seed: 0,
            },
            train_size: 110,
            grid_resolution: 30,
            seed: 5,
        },
    )
}

#[test]
fn traced_units_equal_execute_unit_for_every_family() {
    for model in SurrogateSpec::all() {
        let spec = tiny_campaign(model);
        let ctx = KernelContext::prepare(&spec.kernels[0], &spec.base);
        let _ = trace::take();
        for index in 0..spec.unit_count() {
            let key = spec.unit(index);
            let plain = runner::execute_unit(&spec, &ctx, key).expect("untraced unit runs");
            let traced = campaign::traced_unit(&spec, &ctx, key).expect("traced unit runs");
            assert_eq!(plain, traced, "{model}: unit {index} differs when traced");
        }
        let trace = trace::take();
        assert!(
            trace.tally("sim.measure").0 > 0,
            "{model}: measurements were not tallied"
        );
        let totals = trace.totals();
        assert_eq!(
            totals["learner.run"].calls,
            spec.unit_count() as u64,
            "{model}"
        );
        assert!(
            totals["model.alc_scores"].calls > 0,
            "{model}: ALC scoring was not traced"
        );
        let run = totals["learner.run"];
        assert!(
            run.self_ns < run.busy_ns,
            "{model}: children cover part of the run"
        );
    }
}

#[test]
fn traced_campaign_writes_the_runner_report_bytes() {
    let spec = tiny_campaign(SurrogateSpec::dynatree(20));
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("traced-campaign");
    let traced = campaign::traced_campaign(&spec, &dir).expect("traced campaign runs");
    let expected = runner::run_campaign(&spec)
        .and_then(|report| report.to_json_string())
        .expect("in-memory campaign runs");
    assert_eq!(traced.report, expected + "\n");
    let totals = traced.trace.totals();
    assert_eq!(totals["runner.unit"].calls, spec.unit_count() as u64);
    assert_eq!(totals["data.generate"].calls, 1);
    assert!(traced.trace.counter("runner.report_bytes") > 0.0);
    std::fs::remove_dir_all(&dir).expect("the test owns its directory");
}
