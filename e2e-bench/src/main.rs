//! `alic-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the `campaign` and `alic-serve` binaries from this checkout, runs
//! one workload for `--seconds`, checks the outputs, and prints a readable
//! report followed by one JSON result line (always the last line of
//! standard output). `--trace 0` measures the binaries untraced and prints
//! the end-to-end metrics; `--trace 1` adds the in-process traced replay
//! and prints the per-layer metrics. See `README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use alic_e2e_bench::metrics::{self, median, summarize, Metrics, END_TO_END, LAYER_METRICS};
use alic_e2e_bench::serve::{Episode, Plan};
use alic_e2e_bench::trace::{self, Trace};
use alic_e2e_bench::{calib, campaign, proc, serve};

const WORKLOADS: [&str; 3] = ["campaign-laptop", "serve-cold", "serve-warm-churn"];

/// Donor harvests per warm-churn run; the median of their CPU time at
/// nominal host speed is the harvest part of `setup_s`.
const HARVESTS: usize = 5;

/// Spawn-to-ready probes per run. Each takes a few milliseconds, and a
/// single one swings by half from run to run on a shared host, so
/// `setup_s` takes the median of many.
const SETUP_PROBES: usize = 21;

const USAGE: &str = "usage: alic-e2e-bench --workload campaign-laptop|serve-cold|serve-warm-churn \
--seed N --seconds S --trace 0|1";

const VERBS: [&str; 4] = ["newsession", "attach", "suggest", "observe"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs a u64")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds needs 1..=600")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag or workload: {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The programs under test, built from this checkout.
struct Binaries {
    campaign: PathBuf,
    serve: PathBuf,
}

fn build(root: &Path) -> Result<Binaries, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--bin", "campaign", "--bin", "alic-serve"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the binaries failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    let bins = Binaries {
        campaign: target.join("release").join("campaign"),
        serve: target.join("release").join("alic-serve"),
    };
    for bin in [&bins.campaign, &bins.serve] {
        if !bin.is_file() {
            return Err(format!("{} was not built", bin.display()));
        }
    }
    Ok(bins)
}

/// A run's verdicts, counts and metrics, plus readable lines.
#[derive(Default)]
struct Outcome {
    checks: Vec<(&'static str, bool)>,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    notes: Vec<String>,
    trace: Option<Trace>,
}

impl Outcome {
    fn check(&mut self, name: &'static str, pass: bool) {
        self.checks.push((name, pass));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|&(_, pass)| pass)
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a per-layer latency population as `<name>.p50` and
    /// `<name>.p99`, with a readable note.
    fn latency(&mut self, name: &str, samples: &[f64]) {
        let (p50, tail, note) = latency_summary(name, samples);
        self.note(note);
        self.metrics.set(format!("{name}.p50"), p50, "ms");
        self.metrics.set(format!("{name}.p99"), tail, "ms");
    }
}

/// Median and tail of a per-layer latency population, with a note naming
/// the percentile the tail was read at: the highest the count supports,
/// the largest sample below 20 samples, and zeros for no samples.
fn latency_summary(name: &str, samples: &[f64]) -> (f64, f64, String) {
    let (p50, q, tail) = match summarize(samples) {
        Some(s) => (s.p50, s.tail_q, s.tail),
        None if !samples.is_empty() => {
            let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (median(samples), 1.0, max)
        }
        None => (0.0, 0.0, 0.0),
    };
    let note = format!(
        "{name}: p50 {p50:.4} ms, p{:.1} {tail:.4} ms over {} samples",
        100.0 * q,
        samples.len()
    );
    (p50, tail, note)
}

/// One independently measured part of a run: a campaign invocation or a
/// serve episode.
struct Part {
    /// Wall time of its timed phase.
    wall_s: f64,
    /// CPU seconds the program under test used in it.
    cpu_s: f64,
    /// Work units or rounds completed in it.
    ops: usize,
    /// Host-speed reference chunks run alongside it.
    reference: calib::Tally,
}

/// Sets `norm_cpu_ms_per_op`: per part, the program's CPU milliseconds per
/// op scaled to the nominal host speed by the reference chunks run
/// alongside; then the median over parts. The unscaled figures and the
/// wall-clock rate are printed for reading.
fn cpu_per_op(out: &mut Outcome, part: &str, ops: &str, parts: &[Part]) {
    let mut raw = Vec::new();
    let mut scaled = Vec::new();
    for p in parts {
        let per_op = 1e3 * p.cpu_s / p.ops.max(1) as f64;
        let chunk_ms = p.reference.chunk_ms().unwrap_or(f64::NAN);
        out.note(format!(
            "{part}: {:.3} s wall, {:.2} s CPU, {:.2} {ops}/s, {per_op:.4} CPU ms per op, \
             reference chunk {chunk_ms:.4} ms over {}",
            p.wall_s,
            p.cpu_s,
            p.ops as f64 / p.wall_s,
            p.reference.chunks
        ));
        raw.push(per_op);
        scaled.extend(p.reference.normalise(per_op));
    }
    out.note(format!(
        "CPU ms per op, median over parts: {:.4} as measured, {:.4} at nominal host speed",
        median(&raw),
        median(&scaled)
    ));
    let complete =
        !scaled.is_empty() && scaled.len() == parts.len() && raw.iter().all(|&r| r > 0.0);
    out.check("cpu-time-measured", complete);
    if complete {
        out.metrics.set("norm_cpu_ms_per_op", median(&scaled), "ms");
    }
}

/// Whether one more repetition, as long as the longest so far, would end
/// within `seconds` of `start`.
fn room_for(start: Instant, longest_s: f64, seconds: u64) -> bool {
    start.elapsed().as_secs_f64() + longest_s <= seconds as f64
}

fn mb(kb: &[u64]) -> f64 {
    let kb: Vec<f64> = kb.iter().map(|&k| k as f64).collect();
    if kb.is_empty() {
        0.0
    } else {
        median(&kb) / 1024.0
    }
}

fn campaign_workload(args: &Args, bins: &Binaries, work: &Path) -> std::io::Result<Outcome> {
    let kernels = campaign::kernels();
    let spec = campaign::spec(&kernels, work);
    let units = spec.unit_count() as u64;
    let names: Vec<&str> = kernels.iter().map(|k| k.name()).collect();
    let mut out = Outcome::default();
    out.note(format!("kernel order: {}", names.join(",")));
    let ledger = work.join("ledger");
    if args.trace {
        let run = campaign::run_binary(&bins.campaign, &ledger, &kernels)?;
        out.attempted = units;
        out.failed = units.saturating_sub(run.units as u64);
        out.check("binary-exit-ok", run.success);
        let traced = campaign::traced_campaign(&spec, &work.join("traced"));
        let traced = match traced {
            Ok(t) => t,
            Err(e) => {
                out.note(format!("traced campaign failed: {e}"));
                out.check("traced-run-ok", false);
                return Ok(out);
            }
        };
        out.check(
            "traced-report-equals-binary",
            run.report.as_deref() == Some(traced.report.as_str()),
        );
        campaign_layers(&mut out, traced);
        return Ok(out);
    }

    let mut setups = Vec::new();
    for _ in 0..SETUP_PROBES {
        setups.push(campaign::setup_probe(&bins.campaign, &ledger, &kernels)?);
    }
    let start = Instant::now();
    let mut runs: Vec<campaign::BinaryRun> = Vec::new();
    // Two runs at least, so the report is also checked against itself;
    // more only while the next one is expected to end within the budget.
    let mut longest: f64 = 0.0;
    while runs.len() < 2 || room_for(start, longest, args.seconds) {
        let run = campaign::run_binary(&bins.campaign, &ledger, &kernels)?;
        longest = longest.max(run.wall_s);
        setups.push(run.setup_s);
        runs.push(run);
    }
    let _ = std::fs::remove_dir_all(&ledger);
    out.attempted = units * runs.len() as u64;
    out.failed = runs
        .iter()
        .map(|r| units.saturating_sub(r.units as u64))
        .sum();
    out.check("binary-exit-ok", runs.iter().all(|r| r.success));
    let report = runs[0].report.clone().unwrap_or_default();
    out.check(
        "report-repeats-across-runs",
        runs.iter()
            .all(|r| r.report.as_deref() == Some(report.as_str())),
    );
    let summary = match campaign::summarize_report(&report, &spec) {
        Ok(summary) => summary,
        Err(e) => {
            out.note(format!("report unusable: {e}"));
            out.check("report-parses", false);
            return Ok(out);
        }
    };
    out.failed += summary.failed_units as u64 * runs.len() as u64;
    out.note(format!(
        "{} campaign runs of {units} units; learn_speedup {:?}, learn_cost_s {:?}",
        runs.len(),
        summary.learn_speedup,
        summary.learn_cost_s
    ));
    out.metrics.set("setup_s", median(&setups), "s");
    let parts: Vec<Part> = runs
        .iter()
        .map(|r| Part {
            wall_s: r.wall_s,
            cpu_s: r.cpu_s,
            ops: r.units,
            reference: r.reference,
        })
        .collect();
    cpu_per_op(&mut out, "campaign run", "units", &parts);
    out.metrics
        .set("cost_ratio", 1.0 / summary.learn_speedup, "ratio");
    out.metrics
        .set("profile_cost_s", summary.learn_cost_s, "sim_s");
    let peaks: Vec<u64> = runs.iter().filter_map(|r| r.peak_kb).collect();
    out.metrics.set("peak_rss_mb", mb(&peaks), "MB");
    Ok(out)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn campaign_layers(out: &mut Outcome, traced: campaign::TracedCampaign) {
    let t = &traced.trace;
    let totals = t.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let m = &mut out.metrics;
    for call in ["fit", "update", "alc_scores", "predict_batch"] {
        let tot = total(&format!("model.{call}"));
        m.set(format!("model.{call}.calls"), tot.calls as f64, "count");
        m.set(format!("model.{call}.busy_ms"), ms(tot.busy_ns), "ms");
    }
    m.set(
        "model.alc_scores.candidates",
        t.counter("model.alc_scores.candidates"),
        "count",
    );
    let (measures, measure_ns) = t.tally("sim.measure");
    m.set("sim.measure.calls", measures as f64, "count");
    m.set("sim.measure.busy_ms", ms(measure_ns), "ms");
    m.set("sim.cost_s", t.counter("sim.cost_s"), "sim_s");
    m.set(
        "data.generate.busy_ms",
        ms(total("data.generate").busy_ns),
        "ms",
    );
    m.set(
        "learner.run.busy_ms",
        ms(total("learner.run").busy_ns),
        "ms",
    );
    // Measurements are tallied, not spanned, and happen only inside runs.
    let learner_self = total("learner.run").self_ns.saturating_sub(measure_ns);
    m.set("learner.self_ms", ms(learner_self), "ms");
    let (obs, examples) = traced.sequential_obs;
    m.set(
        "learner.obs_per_example",
        obs as f64 / examples.max(1) as f64,
        "ratio",
    );
    m.set("learner.quarantined", traced.quarantined as f64, "count");
    let mut unit_ms = t.durations_ms("runner.unit");
    unit_ms.sort_by(f64::total_cmp);
    m.set("runner.units", unit_ms.len() as f64, "count");
    m.set("runner.unit_ms.p50", median(&unit_ms), "ms");
    m.set("runner.unit_ms.p90", metrics::quantile(&unit_ms, 0.9), "ms");
    let encode = total("runner.codec.encode").busy_ns;
    m.set("runner.codec.encode_ms", ms(encode), "ms");
    m.set(
        "runner.codec.bytes",
        t.counter("runner.codec.bytes"),
        "bytes",
    );
    // `CampaignLedger::record` encodes, then writes atomically.
    m.set(
        "runner.ledger.write_ms",
        ms(total("runner.ledger.record").busy_ns.saturating_sub(encode)),
        "ms",
    );
    m.set(
        "runner.assemble_ms",
        ms(total("runner.assemble").busy_ns),
        "ms",
    );
    m.set(
        "runner.report_write_ms",
        ms(total("runner.report_write").busy_ns),
        "ms",
    );
    m.set(
        "runner.report_bytes",
        t.counter("runner.report_bytes"),
        "bytes",
    );
    out.note(format!(
        "traced campaign: {} spans, learner self time {:.1} ms of {:.1} ms",
        t.spans.len(),
        ms(learner_self),
        ms(total("learner.run").busy_ns)
    ));
    out.trace = Some(traced.trace);
}

fn first_difference(a: &[Vec<String>], b: &[Vec<String>]) -> Option<(usize, usize)> {
    b.iter().enumerate().find_map(|(c, conn)| {
        conn.iter()
            .enumerate()
            .find(|&(i, reply)| a.get(c).and_then(|r| r.get(i)) != Some(reply))
            .map(|(i, _)| (c, i))
    })
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len().max(1) as f64).exp()
}

fn serve_workload(
    args: &Args,
    bins: &Binaries,
    work: &Path,
    plan: &Plan,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let names: Vec<&str> = plan.kernels.iter().map(|k| k.name()).collect();
    out.note(format!(
        "sessions: {} ({} connection(s), {} rounds each, max {} live)",
        names.join(","),
        plan.connections,
        plan.rounds,
        plan.max_sessions
    ));
    let mut harvests = Vec::new();
    let mut store: Option<Vec<u8>> = None;
    if plan.warm {
        let mut same = true;
        for _ in 0..HARVESTS {
            let harvest = serve::harvest(&bins.serve, &work.join("donors"), plan)?;
            out.note(format!(
                "donor harvest: {:.3} s wall, {:.3} CPU s at nominal host speed",
                harvest.wall_s, harvest.cpu_s
            ));
            harvests.push(harvest.cpu_s);
            same &= store.as_ref().is_none_or(|first| *first == harvest.store);
            store.get_or_insert(harvest.store);
        }
        out.check("donor-store-repeats", same);
    }
    let mut setups = Vec::new();
    if !args.trace {
        for _ in 0..SETUP_PROBES {
            setups.push(serve::setup_probe(
                &bins.serve,
                &work.join("probe"),
                plan,
                store.as_deref(),
            )?);
        }
    }
    let start = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut longest: f64 = 0.0;
    while episodes.is_empty() || room_for(start, longest, args.seconds) {
        let begun = Instant::now();
        episodes.push(serve::episode(
            &bins.serve,
            &work.join("serve"),
            plan,
            store.as_deref(),
        )?);
        longest = longest.max(begun.elapsed().as_secs_f64());
    }
    for e in &episodes {
        let (sent, failed) = e.sent_failed();
        out.attempted += sent;
        out.failed += failed;
    }
    let first = &episodes[0];
    out.check("daemon-exit-ok", episodes.iter().all(|e| e.clean_exit));
    out.check(
        "episodes-repeat",
        episodes.iter().all(|e| {
            e.streams() == first.streams()
                && e.best_ratios == first.best_ratios
                && e.profile_cost_s == first.profile_cost_s
        }),
    );
    let engine_dir = work.join("engine");
    let replies = serve::replay_engine(plan, &engine_dir, store.as_deref(), first)?;
    let binary: Vec<Vec<String>> = first
        .conns
        .iter()
        .map(|c| c.iter().map(|e| e.reply.clone()).collect())
        .collect();
    if let Some((c, i)) = first_difference(&replies, &binary) {
        out.note(format!(
            "connection {c} request {i} ({:?}): binary replied {:?}, in-process engine {:?}",
            first.conns[c][i].line,
            binary[c][i],
            replies[c].get(i)
        ));
    }
    out.check("replies-equal-in-process-engine", replies == binary);
    let engine_trace = trace::take();

    let rounds: usize = episodes.iter().map(|e| e.round_ms.len()).sum();
    out.note(format!(
        "{} episodes, {rounds} rounds, {} requests",
        episodes.len(),
        out.attempted
    ));
    let client: Vec<(&str, Vec<f64>)> = VERBS
        .iter()
        .map(|&v| (v, episodes.iter().flat_map(|e| e.verb_ms(v)).collect()))
        .collect();
    if !args.trace {
        setups.extend(episodes.iter().map(|e| e.setup_s));
        let harvest = if harvests.is_empty() {
            0.0
        } else {
            median(&harvests)
        };
        out.metrics.set("setup_s", harvest + median(&setups), "s");
        let parts: Vec<Part> = episodes
            .iter()
            .map(|e| Part {
                wall_s: e.phase_s,
                cpu_s: e.cpu_s,
                ops: e.round_ms.len(),
                reference: e.reference,
            })
            .collect();
        cpu_per_op(&mut out, "episode", "rounds", &parts);
        out.metrics
            .set("cost_ratio", geomean(&first.best_ratios), "ratio");
        out.metrics
            .set("profile_cost_s", first.profile_cost_s, "sim_s");
        let peaks: Vec<u64> = episodes.iter().filter_map(|e| e.peak_kb).collect();
        out.metrics.set("peak_rss_mb", mb(&peaks), "MB");
        // Per-verb client latencies, for reading only: not every workload
        // sends every verb, so they are per-layer metrics of the traced run.
        for (verb, samples) in &client {
            if !samples.is_empty() {
                out.note(latency_summary(&format!("client.{verb}_ms"), samples).2);
            }
        }
        return Ok(out);
    }

    let session_dir = work.join("sessions");
    let stats = serve::replay_sessions(plan, &session_dir, store.as_deref(), first, &engine_dir);
    let session_trace = trace::take();
    let stats = match stats {
        Ok(s) => s,
        Err(e) => {
            out.note(format!("session-level replay failed: {e}"));
            out.check("session-replay-ok", false);
            return Ok(out);
        }
    };
    out.check("session-layer-reproduces-suggest", stats.mismatches == 0);
    for (verb, samples) in &client {
        out.latency(&format!("client.{verb}_ms"), samples);
    }
    for (verb, samples) in &client {
        let name = format!("engine.{verb}.busy_ms");
        out.latency(&name, &engine_trace.durations_ms(&format!("engine.{verb}")));
        let engine_p50 = out.metrics.get(&format!("{name}.p50")).unwrap_or(0.0);
        let overhead = if samples.is_empty() {
            0.0
        } else {
            median(samples) - engine_p50
        };
        out.metrics
            .set(format!("transport.{verb}.overhead_ms.p50"), overhead, "ms");
    }
    let m = &mut out.metrics;
    let parses = engine_trace.counter("protocol.lines").max(1.0);
    m.set(
        "protocol.parse_us",
        engine_trace.counter("protocol.parse_ns") / parses / 1e3,
        "us",
    );
    m.set("engine.evictions", stats.evictions as f64, "count");
    m.set(
        "engine.restore_ratio",
        stats.restoring_attaches as f64 / stats.attaches.max(1) as f64,
        "ratio",
    );
    let totals = session_trace.totals();
    let busy = |name: &str| ms(totals.get(name).map_or(0, |t| t.busy_ns));
    for (metric, span) in [
        ("session.suggest.busy_ms", "session.suggest"),
        ("session.apply.busy_ms", "session.apply"),
        ("session.serialize.busy_ms", "session.serialize"),
        ("ledger.write_verified.busy_ms", "ledger.write_verified"),
        ("session.restore.busy_ms", "session.restore"),
        ("session.harvest.busy_ms", "session.harvest"),
        ("warmstore.restore_ms", "warmstore.restore"),
    ] {
        m.set(metric, busy(span), "ms");
    }
    m.set(
        "session.checkpoint_bytes",
        session_trace.counter("session.checkpoint_bytes"),
        "bytes",
    );
    m.set("warmstore.probe.calls", stats.probes as f64, "count");
    m.set(
        "warmstore.hit_ratio",
        stats.hits as f64 / stats.probes.max(1) as f64,
        "ratio",
    );
    out.note(format!(
        "session replay: {} attaches ({} restoring), {} evictions, {}/{} warm hits",
        stats.attaches, stats.restoring_attaches, stats.evictions, stats.hits, stats.probes
    ));
    let mut all = engine_trace;
    all.merge(session_trace);
    out.trace = Some(all);
    Ok(out)
}

fn run(args: &Args, bins: &Binaries, work: &Path) -> std::io::Result<Outcome> {
    match args.workload.as_str() {
        "campaign-laptop" => campaign_workload(args, bins, work),
        "serve-cold" => serve_workload(args, bins, work, &Plan::cold(args.seed)),
        _ => serve_workload(args, bins, work, &Plan::warm_churn(args.seed)),
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("alic-e2e-bench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let threads = if args.workload == "campaign-laptop" {
        proc::threads()
    } else {
        serve::SERVE_WORKERS
    };
    // The in-process replays use the same worker count as the binaries.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf();
    let bins = build(&root).unwrap_or_else(|e| {
        eprintln!("alic-e2e-bench: {e}");
        std::process::exit(1);
    });
    let work = root
        .join(".e2e-work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("alic-e2e-bench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let outcome = run(&args, &bins, &work);
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = outcome.unwrap_or_else(|e| {
        eprintln!("alic-e2e-bench: {} failed: {e}", args.workload);
        std::process::exit(1);
    });

    println!(
        "# workload {} seed {} threads {} seconds {} trace {}",
        args.workload,
        args.seed,
        threads,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, pass) in &outcome.checks {
        println!("# check {name}: {}", if *pass { "pass" } else { "FAIL" });
    }
    if let Some(trace) = outcome.trace.take() {
        let dir = root.join(".e2e-out");
        let path = dir.join(format!("{}.spans.tsv", args.workload));
        match std::fs::create_dir_all(&dir).and_then(|()| trace.write_tsv(&path)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
    }
    let correct = outcome.correct();
    let mut printed = Metrics::default();
    if correct {
        if args.trace {
            for &(name, unit) in LAYER_METRICS {
                printed.set(name, outcome.metrics.get(name).unwrap_or(0.0), unit);
            }
        } else {
            for &(name, unit) in END_TO_END {
                let value = outcome
                    .metrics
                    .get(name)
                    .expect("every workload measures every end-to-end metric");
                printed.set(name, value, unit);
            }
        }
        for (name, value, unit) in printed.iter() {
            println!("# {name} = {value:?} {unit}");
        }
    }
    println!(
        "{}",
        metrics::result_line(correct, outcome.attempted, outcome.failed, &printed)
    );
}
