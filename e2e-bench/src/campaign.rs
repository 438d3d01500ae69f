//! The `campaign-laptop` workload: the paper's experiment through the
//! `campaign` binary, and its in-process traced twin.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::Stdio;
use std::time::Instant;

use alic_core::fault::ChaosProfiler;
use alic_core::learner::{ActiveLearner, LearnerConfig, LearnerRun};
use alic_core::runner::{
    self, codec, CampaignLedger, CampaignReport, CampaignSpec, KernelContext, UnitKey, UnitRecord,
};
use alic_experiments::{table1, CampaignOptions};
use alic_sim::profiler::SimulatedProfiler;
use alic_sim::spapt::SpaptKernel;
use alic_stats::rng::derive_seed;

use crate::calib::{Sampler, Tally};
use crate::proc::{cpu_s, kill_and_wait, program, threads, HwmSampler};
use crate::timed::{TimedProfiler, TimedSurrogate};
use crate::trace::{self, count, span, Trace};

/// The campaign's input: the paper's matrix over all eleven SPAPT kernels,
/// in the paper's order. It does not depend on the workload seed. Unit
/// seeds do not depend on a kernel's position, so a seeded kernel order
/// would leave every learning result unchanged. It would only change which
/// units run side by side, and that alone moved the median interval
/// between unit checkpoints by 11 % from seed to seed.
pub fn kernels() -> Vec<SpaptKernel> {
    SpaptKernel::all().to_vec()
}

/// The `campaign` arguments for `kernels` with its ledger at `dir`.
pub fn args(kernels: &[SpaptKernel], dir: &Path) -> Vec<String> {
    let names: Vec<&str> = kernels.iter().map(|k| k.name()).collect();
    vec![
        "laptop".into(),
        "--model".into(),
        "dynatree".into(),
        "--kernels".into(),
        names.join(","),
        "--dir".into(),
        dir.display().to_string(),
    ]
}

/// The campaign those arguments describe, parsed exactly as the binary
/// parses them.
pub fn spec(kernels: &[SpaptKernel], dir: &Path) -> CampaignSpec {
    CampaignOptions::parse_with_env(args(kernels, dir), None, None, None)
        .expect("benchmark arguments parse")
        .campaign_spec()
}

/// One invocation of the binary, spawn to exit.
#[derive(Debug)]
pub struct BinaryRun {
    /// Spawn to the unit-plan line (`running N units ...`).
    pub setup_s: f64,
    /// Spawn to exit.
    pub wall_s: f64,
    /// Whether it exited successfully.
    pub success: bool,
    /// Unit records in the ledger afterwards.
    pub units: usize,
    /// CPU seconds the binary used, spawn to exit, over all its threads.
    pub cpu_s: f64,
    /// Host-speed reference chunks run alongside it.
    pub reference: Tally,
    /// Peak resident memory, KiB.
    pub peak_kb: Option<u64>,
    /// The `report.json` bytes, when written.
    pub report: Option<String>,
}

/// Unit checkpoints in a ledger.
fn unit_records(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("units")).map_or(0, |entries| {
        entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
            .count()
    })
}

/// Runs the binary on a fresh ledger at `dir`.
///
/// # Errors
///
/// Spawn and I/O errors.
pub fn run_binary(bin: &Path, dir: &Path, kernels: &[SpaptKernel]) -> std::io::Result<BinaryRun> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let mut child = program(bin, threads())
        .args(args(kernels, dir))
        .stdout(Stdio::piped())
        .spawn()?;
    let sampler = HwmSampler::start(child.id());
    let reference = Sampler::start();
    let mut setup_s = None;
    let stdout = child.stdout.take().expect("stdout is piped");
    let read = BufReader::new(stdout).lines().try_for_each(|line| {
        let line = line?;
        if setup_s.is_none() && line.starts_with("running ") {
            setup_s = Some(start.elapsed().as_secs_f64());
        }
        Ok::<(), std::io::Error>(())
    });
    // Standard output closes as the process exits; until it is reaped its
    // stat still holds the CPU time of every thread.
    let cpu_s = cpu_s(child.id());
    if read.is_err() {
        kill_and_wait(&mut child);
    }
    let status = child.wait();
    let wall_s = start.elapsed().as_secs_f64();
    let peak_kb = sampler.finish();
    let reference = reference.finish();
    read?;
    let status = status?;
    Ok(BinaryRun {
        setup_s: setup_s.unwrap_or(wall_s),
        wall_s,
        success: status.success() && cpu_s.is_some(),
        units: unit_records(dir),
        cpu_s: cpu_s.unwrap_or(0.0),
        reference,
        peak_kb,
        report: std::fs::read_to_string(dir.join("report.json")).ok(),
    })
}

/// Set-up time alone: spawn to the unit-plan line on a fresh ledger, then
/// the process is killed.
///
/// # Errors
///
/// Spawn and I/O errors, or an exit before the plan line.
pub fn setup_probe(bin: &Path, dir: &Path, kernels: &[SpaptKernel]) -> std::io::Result<f64> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let mut child = program(bin, threads())
        .args(args(kernels, dir))
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut setup = None;
    for line in BufReader::new(stdout).lines() {
        if line?.starts_with("running ") {
            setup = Some(start.elapsed().as_secs_f64());
            break;
        }
    }
    kill_and_wait(&mut child);
    let _ = std::fs::remove_dir_all(dir);
    setup.ok_or_else(|| std::io::Error::other("campaign exited before its unit plan"))
}

/// What the checks and metrics read from a `report.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportSummary {
    /// The paper's Table 1 headline: the geometric-mean speed-up of the
    /// sequential plan over fixed-35 in profiling cost to the lowest common
    /// RMSE.
    pub learn_speedup: f64,
    /// Simulated seconds the sequential plan spends to reach that RMSE,
    /// summed over kernels.
    pub learn_cost_s: f64,
    /// Units the report records as failed.
    pub failed_units: usize,
}

/// Parses a report and computes its Table 1 rows exactly as the
/// `campaign` binary prints them.
///
/// # Errors
///
/// A message when the report does not parse or a kernel lacks a speed-up.
pub fn summarize_report(report: &str, spec: &CampaignSpec) -> Result<ReportSummary, String> {
    let report = CampaignReport::from_json_str(report).map_err(|e| e.to_string())?;
    let model = report.models.first().ok_or("report has no model")?;
    let outcomes: Vec<_> = report
        .outcomes_for_model(model)
        .into_iter()
        .cloned()
        .collect();
    let table = table1::rows_from_outcomes(&outcomes, &spec.base);
    let learn_speedup = table
        .geometric_mean_speedup
        .ok_or("no geometric-mean speed-up")?;
    let mut learn_cost_s = 0.0;
    for row in &table.rows {
        learn_cost_s += row.variable_cost.ok_or_else(|| {
            format!(
                "{}: sequential plan never reached the common RMSE",
                row.benchmark
            )
        })?;
    }
    Ok(ReportSummary {
        learn_speedup,
        learn_cost_s,
        failed_units: report.failures.len(),
    })
}

/// One work unit rebuilt from public APIs exactly as
/// `runner::execute_unit` builds it — same derived seeds, the same
/// `ChaosProfiler(SimulatedProfiler)` stack, the same model constructor —
/// with the surrogate and profiler wrapped in timing wrappers and the
/// learner run recorded as a `learner.run` span.
///
/// # Errors
///
/// Learner errors, as `execute_unit` returns them.
pub fn traced_unit(
    spec: &CampaignSpec,
    ctx: &KernelContext,
    key: UnitKey,
) -> alic_core::Result<LearnerRun> {
    let unit = spec.index_of(key);
    alic_core::fault::evaluator_fault(unit)?;
    alic_core::fault::maybe_unit_panic(unit);
    let config = &spec.base;
    let seed = derive_seed(config.seed, 1000 + key.repetition);
    let mut profiler = TimedProfiler::new(ChaosProfiler::new(SimulatedProfiler::new(
        spec.kernels[key.kernel].clone(),
        derive_seed(seed, 3),
    )));
    let learner_config = LearnerConfig {
        plan: config.plans[key.plan],
        seed: derive_seed(seed, 4),
        ..config.learner
    };
    let mut model = TimedSurrogate::new(spec.models[key.model].build(derive_seed(seed, 5)));
    let mut learner = ActiveLearner::new(learner_config, &mut profiler);
    span("learner.run", || {
        learner.run(&mut model, &ctx.dataset, &ctx.split)
    })
}

/// The traced twin of one binary invocation.
#[derive(Debug)]
pub struct TracedCampaign {
    /// `report.json` bytes.
    pub report: String,
    /// Every span and counter of the run.
    pub trace: Trace,
    /// Sequential-plan observations and distinct examples, summed.
    pub sequential_obs: (usize, usize),
    /// Observations dropped as non-finite, summed over units.
    pub quarantined: u64,
}

/// Runs the whole campaign in process, on the same worker-thread count as
/// the binary: kernel contexts in parallel, then every unit in parallel,
/// each unit checkpointed to a fresh ledger at `dir`, then the report
/// assembled and written.
///
/// # Errors
///
/// A message for any unit, ledger or report error.
pub fn traced_campaign(spec: &CampaignSpec, dir: &Path) -> Result<TracedCampaign, String> {
    let _ = std::fs::remove_dir_all(dir);
    let ledger = CampaignLedger::open(dir, spec).map_err(|e| e.to_string())?;
    let kernel_ids: Vec<usize> = (0..spec.kernels.len()).collect();
    let mut trace = Trace::default();
    let mut contexts = Vec::with_capacity(kernel_ids.len());
    for (ctx, t) in runner::map_units(&kernel_ids, |&k| {
        let ctx = span("data.generate", || {
            KernelContext::prepare(&spec.kernels[k], &spec.base)
        });
        (ctx, trace::take())
    }) {
        contexts.push(ctx);
        trace.merge(t);
    }
    let indices: Vec<usize> = (0..spec.unit_count()).collect();
    let units = runner::map_units(&indices, |&index| {
        let key = spec.unit(index);
        let record = span("runner.unit", || -> Result<UnitRecord, String> {
            let run = traced_unit(spec, &contexts[key.kernel], key).map_err(|e| e.to_string())?;
            let record = UnitRecord {
                index,
                kernel: spec.kernels[key.kernel].name().to_string(),
                model: spec.models[key.model].name().to_string(),
                plan: spec.base.plans[key.plan],
                repetition: key.repetition,
                run,
            };
            // `record` encodes and then writes atomically; the encode is
            // timed on its own so the write can be split out.
            let json = span("runner.codec.encode", || {
                codec::unit_record_to_json_string(&record)
            })
            .map_err(|e| e.to_string())?;
            count("runner.codec.bytes", (json.len() + 1) as f64);
            span("runner.ledger.record", || ledger.record(&record)).map_err(|e| e.to_string())?;
            Ok(record)
        });
        (record, trace::take())
    });
    let mut records = Vec::with_capacity(units.len());
    for (record, t) in units {
        records.push(record?);
        trace.merge(t);
    }
    let mut sequential_obs = (0, 0);
    let mut quarantined = 0;
    for record in &records {
        quarantined += record.run.ledger.quarantined();
        if record.plan.allows_revisits() {
            sequential_obs.0 += record.run.total_observations();
            sequential_obs.1 += record.run.distinct_examples();
        }
    }
    let report = span("runner.assemble", || runner::assemble_report(spec, records))
        .map_err(|e| e.to_string())?;
    let path =
        span("runner.report_write", || ledger.write_report(&report)).map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    count("runner.report_bytes", text.len() as f64);
    trace.merge(trace::take());
    Ok(TracedCampaign {
        report: text,
        trace,
        sequential_obs,
        quarantined,
    })
}
