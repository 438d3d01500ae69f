//! The fault plane's headline property: a campaign executed under a
//! randomized-but-budgeted chaos plan — torn ledger writes, transient I/O
//! and rename failures, panicking and erroring work units, NaN
//! observations, jitter-ladder exhaustion — plus a mid-run kill and resume,
//! heals to a report **byte-identical** to the fault-free run's.
//!
//! Two ingredients make this a theorem rather than a hope:
//!
//! * every fault is *transient and budgeted* (`FaultPlan` budgets), while
//!   every heal loop is *bounded but deeper* (`WRITE_ATTEMPTS` per write,
//!   `UNIT_ATTEMPTS` per unit per pass, `HEAL_PASSES` passes), so a bounded
//!   adversary is always out-lasted;
//! * every unit is a deterministic pure function of the campaign spec, so
//!   re-execution after a panic, error or quarantine reproduces the exact
//!   bytes the fault destroyed, and `ChaosProfiler` replays the true
//!   measurement after an injected NaN without advancing any other RNG
//!   stream.
//!
//! Every test here takes the fault plane's process-wide exclusive guard:
//! the plane is global, and a plan installed for one test must never leak
//! injections into a concurrently running one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::seq::SliceRandom;

use alic::core::experiment::ComparisonConfig;
use alic::core::learner::LearnerConfig;
use alic::core::plan::SamplingPlan;
use alic::core::runner::{self, CampaignLedger, CampaignSpec};
use alic::data::dataset::DatasetConfig;
use alic::model::gp::GpConfig;
use alic::model::SurrogateSpec;
use alic::sim::kernel::KernelSpec;
use alic::sim::noise::NoiseProfile;
use alic::sim::space::ParamSpec;
use alic::stats::fault::{self, FaultPlan, FaultSite};
use alic::stats::rng::seeded_rng;

fn toy_kernel(name: &str, surface_seed: u64) -> KernelSpec {
    KernelSpec::new(
        name,
        vec![ParamSpec::unroll("u1"), ParamSpec::unroll("u2")],
        1.0,
        0.5,
        NoiseProfile::moderate(),
    )
    .unwrap()
    .with_surface_seed(surface_seed)
}

/// One kernel × two models × three plans × one repetition = 6 units. The
/// exact GP is on the model axis so the jitter-exhaustion site has a
/// Cholesky ladder to break.
fn tiny_campaign() -> CampaignSpec {
    CampaignSpec::new(
        vec![toy_kernel("alpha", 3)],
        vec![
            SurrogateSpec::dynatree(15),
            SurrogateSpec::Gp(GpConfig::default()),
        ],
        ComparisonConfig {
            learner: LearnerConfig {
                initial_examples: 3,
                initial_observations: 4,
                candidates_per_iteration: 10,
                max_iterations: 8,
                evaluate_every: 4,
                ..Default::default()
            },
            plans: vec![
                SamplingPlan::fixed(4),
                SamplingPlan::one_observation(),
                SamplingPlan::sequential(4),
            ],
            repetitions: 1,
            model: SurrogateSpec::dynatree(15),
            dataset: DatasetConfig {
                configurations: 120,
                observations: 4,
                seed: 0,
            },
            train_size: 90,
            grid_resolution: 24,
            seed: 13,
        },
    )
}

/// The fault-free report, computed once under a clean (guarded) plane.
fn baseline_json() -> &'static str {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let _guard = fault::exclusive_clean();
        runner::run_campaign(&tiny_campaign())
            .expect("tiny campaign is internally consistent")
            .to_json_string()
            .expect("campaign report is finite")
    })
}

/// A chaos plan covering every injection site. The budgets are sized so the
/// bounded heal loops out-last even an adversarial roll sequence: at most
/// two unit-killing passes (each needs 3 same-pass faults on one unit out
/// of the 2+2+2 panic/eval/jitter budget) plus two torn-record passes fit
/// in `HEAL_PASSES = 4`, and the io+rename budget (2+2) is strictly below
/// the 5 attempts every atomic write retries, so no write — not even the
/// manifest, written outside the heal loop — can ever exhaust.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_site(FaultSite::WriteIo, 0.2, Some(2))
        .with_site(FaultSite::TornWrite, 0.2, Some(2))
        .with_site(FaultSite::RenameFail, 0.2, Some(2))
        .with_site(FaultSite::UnitPanic, 0.15, Some(2))
        .with_site(FaultSite::EvalError, 0.15, Some(2))
        .with_site(FaultSite::ObservationNan, 0.05, Some(20))
        .with_site(FaultSite::JitterExhaustion, 0.1, Some(2))
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #[test]
    fn chaotic_killed_resumed_campaign_heals_bit_identically(
        chaos_seed in 0u64..1_000_000,
        kill_fraction in 0.0f64..1.0,
        order_seed in 0u64..1_000_000,
    ) {
        // Baseline first: computing it takes the exclusive guard itself, and
        // the guard's mutex is not reentrant.
        let baseline = baseline_json();
        let spec = tiny_campaign();
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "alic-chaos-campaign-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let _guard = fault::exclusive(chaos_plan(chaos_seed));
        let ledger = CampaignLedger::open(&dir, &spec).unwrap();

        // Phase 1: a shuffled prefix of the unit range, then a simulated
        // SIGKILL — a stray tmp file and one record truncated mid-write.
        let mut indices: Vec<usize> = (0..spec.unit_count()).collect();
        indices.shuffle(&mut seeded_rng(order_seed));
        let kill = (indices.len() as f64 * kill_fraction) as usize;
        let outcome = runner::heal_campaign(&spec, &ledger, &indices[..kill]).unwrap();
        prop_assert!(outcome.is_healed(), "phase 1 failures: {:?}", outcome.failures);
        std::fs::write(dir.join("units").join("unit-000000.json.tmp"), "{torn").unwrap();
        if let Some(&victim) = indices[..kill].first() {
            let path = dir.join("units").join(format!("unit-{victim:06}.json"));
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        }

        // Phase 2: resume. The heal loop's recovery scan must quarantine the
        // truncated record and re-execute it alongside the remaining units.
        let completed = ledger.completed().unwrap();
        let remaining: Vec<usize> = (0..spec.unit_count())
            .filter(|i| !completed.contains(i))
            .collect();
        let outcome = runner::heal_campaign(&spec, &ledger, &remaining).unwrap();
        prop_assert!(outcome.is_healed(), "phase 2 failures: {:?}", outcome.failures);

        // The healed ledger merges — and writes through the still-chaotic
        // I/O path — to the byte-identical fault-free report.
        let report = runner::assemble_report(&spec, ledger.load_all(&spec).unwrap()).unwrap();
        prop_assert_eq!(report.to_json_string().unwrap().as_str(), baseline);
        ledger.write_report(&report).unwrap();
        let on_disk = std::fs::read_to_string(dir.join("report.json")).unwrap();
        prop_assert_eq!(on_disk.trim_end(), baseline);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn chaos_campaign_cli_heals_to_the_fault_free_report() {
    // The same property through the self-healing executor the campaign
    // binary runs, with the plan installed for the whole run.
    let baseline = baseline_json();
    let spec = tiny_campaign();
    let dir = std::env::temp_dir().join(format!("alic-chaos-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let _guard = fault::exclusive(chaos_plan(42));
    let ledger = CampaignLedger::open(&dir, &spec).unwrap();
    let outcome =
        runner::heal_campaign(&spec, &ledger, &(0..spec.unit_count()).collect::<Vec<_>>()).unwrap();
    assert!(outcome.is_healed(), "failures: {:?}", outcome.failures);
    let report = runner::assemble_report(&spec, ledger.load_all(&spec).unwrap()).unwrap();
    assert_eq!(report.to_json_string().unwrap().as_str(), baseline);
    assert!(report.failures.is_empty());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_faults_are_actually_firing() {
    // Guard against a silently inert plane: with rates this high over six
    // units, a run with zero injections would mean the sites are
    // disconnected, and the byte-identity above would be vacuous.
    let _baseline = baseline_json();
    let spec = tiny_campaign();
    let dir = std::env::temp_dir().join(format!("alic-chaos-fire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let _guard = fault::exclusive(
        FaultPlan::new(7)
            .with_site(FaultSite::TornWrite, 0.5, Some(2))
            .with_site(FaultSite::EvalError, 0.5, Some(2))
            .with_site(FaultSite::ObservationNan, 0.2, Some(10)),
    );
    let ledger = CampaignLedger::open(&dir, &spec).unwrap();
    let outcome =
        runner::heal_campaign(&spec, &ledger, &(0..spec.unit_count()).collect::<Vec<_>>()).unwrap();
    assert!(outcome.is_healed(), "failures: {:?}", outcome.failures);
    let fired: u64 = FaultSite::ALL.iter().map(|&s| fault::injections(s)).sum();
    assert!(fired > 0, "no chaos site ever fired");

    std::fs::remove_dir_all(&dir).unwrap();
}
