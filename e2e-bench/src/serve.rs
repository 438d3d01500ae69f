//! The serve workloads: scripted clients driving the `alic-serve` binary
//! over stdio or TCP, and the in-process replays that check and trace them.
//!
//! A run repeats one *episode* — a fresh daemon on a fresh directory
//! driven by a fixed, seeded script — for as long as the run measures.
//! Every episode of a run sends the same requests, so each is checked
//! against the first, the first is replayed in process through
//! [`Engine::handle_line`], and per-request work does not drift with how
//! many episodes fit into the run.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

use alic_core::runner::ledger::write_verified;
use alic_core::warmstore::{WarmKey, WarmStore};
use alic_data::io::JsonValue;
use alic_model::snapshot::restore_snapshot;
use alic_model::SurrogateSpec;
use alic_serve::protocol::{self, format_config, format_cost, parse_config, parse_space};
use alic_serve::session::{TuningSession, WarmStart};
use alic_serve::{ConnState, Engine, ServeConfig};
use alic_sim::profiler::{Profiler, SimulatedProfiler};
use alic_sim::spapt::{spapt_kernel, SpaptKernel};
use alic_stats::rng::{derive_seed, seeded_rng, SmallRng};

use crate::calib::{self, Tally};
use crate::proc::{cpu_s, kill_and_wait, program, vm_hwm_kb};
use crate::trace::{count, span};

/// Name of the warm store file inside a serve directory.
const STORE_FILE: &str = "warm.json";

/// Configurations sampled (with a fixed seed) to find the reference
/// optimum a session's final best configuration is compared with.
const REFERENCE_SAMPLE: usize = 4096;

/// The script one run repeats.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// `--seed` passed to the daemon (per-session seeds derive from it).
    pub daemon_seed: u64,
    /// Kernel of each session, in creation order.
    pub kernels: Vec<SpaptKernel>,
    /// Model named in `newsession` (`None`: the daemon default).
    pub model: Option<&'static str>,
    /// `--max-sessions`.
    pub max_sessions: usize,
    /// Client connections (1 = stdio, 2 = TCP).
    pub connections: usize,
    /// Rounds (`[attach] suggest 1`, measure, `observe`) per connection.
    pub rounds: usize,
    /// Whether the daemon runs with a warm store.
    pub warm: bool,
    /// A host-speed reference chunk runs in every this many rounds. Each
    /// chunk evicts part of the daemon's cache, so short rounds get one
    /// less often.
    pub reference_every: usize,
    /// Observations per donor session harvested into the warm store at
    /// set-up (0: no donors).
    pub donor_rounds: usize,
}

/// RNG stream labels.
const STREAM_KERNELS: u64 = 0x6b;
const STREAM_DAEMON: u64 = 0x64;
const STREAM_PROFILER: u64 = 0x70;

fn shuffled(seed: u64, mut kernels: Vec<SpaptKernel>) -> Vec<SpaptKernel> {
    let mut rng = SmallRng::substream(seed, STREAM_KERNELS, 0);
    for i in (1..kernels.len()).rev() {
        kernels.swap(i, rng.gen_index(i + 1));
    }
    kernels
}

/// Worker threads of every daemon. With two, the surrogate's fine-grained
/// parallel sections spin between requests, and the daemon's CPU time per
/// round then depends on what else the host runs: a competing busy loop
/// moved it from 1.95 to 1.54 ms. With one it is the work alone.
pub const SERVE_WORKERS: usize = 1;

/// Kernels of the warm-churn sessions: small (mvt) to large (adi) spaces.
const CHURN_KERNELS: [SpaptKernel; 6] = [
    SpaptKernel::Adi,
    SpaptKernel::Atax,
    SpaptKernel::Gemver,
    SpaptKernel::Jacobi,
    SpaptKernel::Mvt,
    SpaptKernel::Lu,
];

impl Plan {
    /// `serve-cold`: one stdio client tunes a cold session of the daemon's
    /// default surrogate on each of the eleven SPAPT kernels, one after
    /// another in a seeded order, with room for all of them in the live
    /// table.
    pub fn cold(seed: u64) -> Plan {
        Plan {
            seed,
            daemon_seed: derive_seed(seed, STREAM_DAEMON),
            kernels: shuffled(seed, SpaptKernel::all().to_vec()),
            model: None,
            max_sessions: 16,
            connections: 1,
            rounds: 200,
            warm: false,
            reference_every: 4,
            donor_rounds: 0,
        }
    }

    /// `serve-warm-churn`: twelve warm-started GP sessions (two per
    /// kernel) over four live slots, driven round-robin by two TCP
    /// connections.
    pub fn warm_churn(seed: u64) -> Plan {
        let mut kernels = shuffled(seed, CHURN_KERNELS.to_vec());
        kernels.extend(kernels.clone());
        Plan {
            seed,
            daemon_seed: derive_seed(seed, STREAM_DAEMON),
            kernels,
            model: Some("gp"),
            max_sessions: 4,
            connections: 2,
            rounds: 60,
            warm: true,
            reference_every: 1,
            donor_rounds: 150,
        }
    }

    /// Daemon flags for a serve directory.
    fn flags(&self, dir: &Path, tcp: Option<&str>) -> Vec<String> {
        let mut flags = vec![
            "--dir".to_string(),
            dir.display().to_string(),
            "--seed".to_string(),
            self.daemon_seed.to_string(),
            "--max-sessions".to_string(),
            self.max_sessions.to_string(),
        ];
        if self.warm {
            flags.push("--warm-store".into());
            flags.push(dir.join(STORE_FILE).display().to_string());
        }
        if let Some(addr) = tcp {
            flags.push("--tcp".into());
            flags.push(addr.to_string());
        }
        flags
    }

    /// The in-process engine configuration equal to [`Plan::flags`].
    fn engine_config(&self, dir: &Path) -> ServeConfig {
        let mut config = ServeConfig::new(dir);
        config.seed = self.daemon_seed;
        config.max_live = self.max_sessions;
        if self.warm {
            config.warm_store = Some(dir.join(STORE_FILE));
        }
        config
    }

    fn newsession(&self, kernel: SpaptKernel) -> String {
        match self.model {
            Some(model) => format!("newsession {} spapt {model}", kernel.name()),
            None => format!("newsession {} spapt", kernel.name()),
        }
    }

    /// Each session's final `best` reply scored by [`best_ratio`], after
    /// the timed phase.
    fn best_ratios(&self, bests: &[(usize, String)]) -> Vec<f64> {
        bests
            .iter()
            .filter_map(|(j, reply)| best_ratio(reply, &self.profiler(*j)))
            .collect()
    }

    fn profiler(&self, session: usize) -> SimulatedProfiler {
        SimulatedProfiler::new(
            spapt_kernel(self.kernels[session]),
            derive_seed(self.seed, STREAM_PROFILER + session as u64),
        )
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Exchange {
    /// Request line.
    pub line: String,
    /// Reply line (empty when none arrived).
    pub reply: String,
    /// Send to reply, milliseconds.
    pub ms: f64,
    /// Interleaving group for the in-process replay (creation 0, round
    /// `r` is `r + 1`, closing requests last).
    pub group: usize,
}

impl Exchange {
    /// The request verb.
    pub fn verb(&self) -> &str {
        self.line.split_whitespace().next().unwrap_or("")
    }

    /// Whether the reply is a success.
    pub fn ok(&self) -> bool {
        self.reply.starts_with("ok")
    }
}

/// What one episode produced.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// Daemon spawn to its greeting.
    pub setup_s: f64,
    /// First request to last reply.
    pub phase_s: f64,
    /// Per connection, every exchange in order.
    pub conns: Vec<Vec<Exchange>>,
    /// Completed rounds' latency (request times only, measurement excluded).
    pub round_ms: Vec<f64>,
    /// CPU seconds the daemon used from the first request to the last
    /// reply of the timed phase.
    pub cpu_s: f64,
    /// The host-speed reference chunks the clients ran.
    pub reference: Tally,
    /// CPU seconds the daemon used from spawn to exit (stdio episodes).
    pub life_cpu_s: f64,
    /// Simulated profiling seconds the client spent measuring.
    pub profile_cost_s: f64,
    /// Per session: true mean of its final best configuration over the
    /// reference optimum.
    pub best_ratios: Vec<f64>,
    /// Daemon's peak resident memory, KiB (read before it is stopped).
    pub peak_kb: Option<u64>,
    /// Whether the daemon exited cleanly.
    pub clean_exit: bool,
}

impl Episode {
    /// Requests sent, and requests answered `err` or not at all.
    pub fn sent_failed(&self) -> (u64, u64) {
        let all = self.conns.iter().flatten();
        let sent = all.clone().count() as u64;
        (sent, all.filter(|e| !e.ok()).count() as u64)
    }

    /// Client-observed latencies of one verb.
    pub fn verb_ms(&self, verb: &str) -> Vec<f64> {
        self.conns
            .iter()
            .flatten()
            .filter(|e| e.verb() == verb)
            .map(|e| e.ms)
            .collect()
    }

    /// The request/reply streams without timings, for comparisons.
    pub fn streams(&self) -> Vec<Vec<(String, String)>> {
        self.conns
            .iter()
            .map(|c| {
                c.iter()
                    .map(|e| (e.line.clone(), e.reply.clone()))
                    .collect()
            })
            .collect()
    }
}

/// A line-protocol client over any reader/writer pair.
struct Client<R, W> {
    reader: R,
    writer: W,
    log: Vec<Exchange>,
    reference: Tally,
}

impl<R: BufRead, W: Write> Client<R, W> {
    fn new(reader: R, writer: W) -> Self {
        Client {
            reader,
            writer,
            log: Vec::new(),
            reference: Tally::default(),
        }
    }

    fn greeting(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        Ok(line.trim_end().to_string())
    }

    fn request(&mut self, line: String, group: usize) -> std::io::Result<String> {
        let start = Instant::now();
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let reply = reply.trim_end().to_string();
        self.log.push(Exchange {
            line,
            reply: reply.clone(),
            ms,
            group,
        });
        Ok(reply)
    }
}

/// One tuning round on the client's current session: `suggest 1`, measure
/// on the client's simulated profiler, `observe`. With `reference`, a
/// host-speed reference chunk runs on the client's thread between the two
/// requests, so it samples the host's speed where and when the daemon
/// runs. Returns the round's request time and the measurement's simulated
/// cost, or `None` when the suggestion failed.
fn round<R: BufRead, W: Write>(
    client: &mut Client<R, W>,
    profiler: &mut SimulatedProfiler,
    group: usize,
    reference: bool,
) -> std::io::Result<Option<(f64, f64)>> {
    let reply = client.request("suggest 1".into(), group)?;
    let suggest_ms = client.log.last().map_or(0.0, |e| e.ms);
    let Some(token) = reply.strip_prefix("ok suggest ").map(str::trim) else {
        return Ok(None);
    };
    let Ok(config) = parse_config(token) else {
        return Ok(None);
    };
    let measurement = profiler.measure(&config);
    if reference {
        client.reference.add(calib::chunk());
    }
    let reply = client.request(
        format!("observe {token} {}", format_cost(measurement.runtime)),
        group,
    )?;
    let observe_ms = client.log.last().map_or(0.0, |e| e.ms);
    Ok(reply
        .starts_with("ok observed")
        .then_some((suggest_ms + observe_ms, measurement.cost())))
}

/// The true mean of the configuration in a `best` reply over the kernel's
/// reference optimum (the lowest true mean over a fixed seeded sample of
/// its space).
fn best_ratio(reply: &str, profiler: &SimulatedProfiler) -> Option<f64> {
    let token = reply.strip_prefix("ok best ")?.split_whitespace().next()?;
    let config = parse_config(token).ok()?;
    let space = profiler.space();
    let mut rng = seeded_rng(0x7e5);
    let optimum = space
        .sample_distinct(&mut rng, REFERENCE_SAMPLE)
        .iter()
        .map(|c| profiler.true_mean(c))
        .fold(f64::INFINITY, f64::min);
    Some(profiler.true_mean(&config) / optimum)
}

fn session_id(reply: &str) -> Option<String> {
    reply
        .strip_prefix("ok session ")?
        .split_whitespace()
        .next()
        .map(str::to_string)
}

/// CPU seconds the daemon has used so far.
fn daemon_cpu_s(child: &Child) -> std::io::Result<f64> {
    cpu_s(child.id()).ok_or_else(|| std::io::Error::other("daemon CPU time unreadable"))
}

fn spawn_daemon(bin: &Path, flags: &[String], stdio: bool) -> std::io::Result<Child> {
    let mut cmd = program(bin, SERVE_WORKERS);
    // The daemon's stderr only carries its drain summary; the checks see
    // every failure through the replies and the exit status.
    cmd.args(flags).stderr(Stdio::null());
    if stdio {
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
    }
    cmd.spawn()
}

/// Fresh serve directory, with a pristine copy of the donor store when the
/// plan is warm.
fn fresh_dir(dir: &Path, store: Option<&[u8]>) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    if let Some(bytes) = store {
        std::fs::write(dir.join(STORE_FILE), bytes)?;
    }
    Ok(())
}

/// Runs one stdio episode: sessions one after another, `rounds` rounds
/// each, then `best`, then `quit`.
///
/// # Errors
///
/// Spawn and pipe errors.
pub fn stdio_episode(
    bin: &Path,
    dir: &Path,
    plan: &Plan,
    store: Option<&[u8]>,
) -> std::io::Result<Episode> {
    fresh_dir(dir, store)?;
    let start = Instant::now();
    let mut child = spawn_daemon(bin, &plan.flags(dir, None), true)?;
    let result = stdio_script(&mut child, plan, start);
    if result.is_err() {
        kill_and_wait(&mut child);
    }
    let (mut episode, bests) = result?;
    episode.clean_exit = child.wait()?.success();
    episode.best_ratios = plan.best_ratios(&bests);
    Ok(episode)
}

type Bests = Vec<(usize, String)>;

fn stdio_script(
    child: &mut Child,
    plan: &Plan,
    start: Instant,
) -> std::io::Result<(Episode, Bests)> {
    let stdin = child.stdin.take().expect("stdin is piped");
    let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut client = Client::new(stdout, stdin);
    let greeting = client.greeting()?;
    let mut episode = Episode {
        setup_s: start.elapsed().as_secs_f64(),
        ..Episode::default()
    };
    if !greeting.starts_with("ok ") {
        return Err(std::io::Error::other(format!("bad greeting {greeting:?}")));
    }
    let phase = Instant::now();
    let cpu_start = daemon_cpu_s(child)?;
    let mut bests = Vec::new();
    for session in 0..plan.kernels.len() {
        let mut profiler = plan.profiler(session);
        if session_id(&client.request(plan.newsession(plan.kernels[session]), 0)?).is_none() {
            continue;
        }
        for r in 0..plan.rounds {
            if let Some((ms, cost)) = round(
                &mut client,
                &mut profiler,
                r + 1,
                r % plan.reference_every == 0,
            )? {
                episode.round_ms.push(ms);
                episode.profile_cost_s += cost;
            }
        }
        bests.push((session, client.request("best".into(), plan.rounds + 1)?));
    }
    episode.phase_s = phase.elapsed().as_secs_f64();
    episode.cpu_s = daemon_cpu_s(child)? - cpu_start;
    episode.reference = client.reference;
    episode.peak_kb = vm_hwm_kb(child.id());
    client.request("quit".into(), plan.rounds + 2)?;
    // The daemon's output closes as it exits; until it is reaped its stat
    // still holds the CPU time of every thread.
    std::io::copy(&mut client.reader, &mut std::io::sink())?;
    episode.life_cpu_s = daemon_cpu_s(child)?;
    episode.conns = vec![client.log];
    Ok((episode, bests))
}

/// The donor script: one GP session per distinct kernel of `plan`, each
/// tuned for `plan.donor_rounds` rounds over stdio; `quit` harvests them
/// into the warm store.
fn donor_plan(plan: &Plan) -> Plan {
    let mut kernels = plan.kernels.clone();
    let mut seen = Vec::new();
    kernels.retain(|k| {
        let fresh = !seen.contains(k);
        seen.push(*k);
        fresh
    });
    Plan {
        seed: derive_seed(plan.seed, 0xd0),
        daemon_seed: derive_seed(plan.daemon_seed, 0xd0),
        max_sessions: kernels.len().max(1),
        kernels,
        model: plan.model,
        connections: 1,
        rounds: plan.donor_rounds,
        warm: true,
        reference_every: plan.reference_every,
        donor_rounds: 0,
    }
}

/// One donor harvest.
pub struct Harvest {
    /// Spawn to exit.
    pub wall_s: f64,
    /// The daemon's CPU seconds, spawn to exit, at nominal host speed
    /// (scaled by the reference chunks its rounds ran).
    pub cpu_s: f64,
    /// The warm store it wrote.
    pub store: Vec<u8>,
}

/// Set-up of a warm plan: harvests the donor sessions into a fresh warm
/// store through the binary.
///
/// # Errors
///
/// Spawn and I/O errors, or any failed donor request.
pub fn harvest(bin: &Path, dir: &Path, plan: &Plan) -> std::io::Result<Harvest> {
    let start = Instant::now();
    let episode = stdio_episode(bin, dir, &donor_plan(plan), None)?;
    let wall_s = start.elapsed().as_secs_f64();
    let (_, failed) = episode.sent_failed();
    let cpu_s = episode.reference.normalise(episode.life_cpu_s);
    let Some(cpu_s) = cpu_s.filter(|_| failed == 0 && episode.clean_exit) else {
        return Err(std::io::Error::other(format!(
            "donor harvest failed: {failed} request(s) failed"
        )));
    };
    Ok(Harvest {
        wall_s,
        cpu_s,
        store: std::fs::read(dir.join(STORE_FILE))?,
    })
}

/// Set-up time alone: daemon spawn on a fresh directory (with a pristine
/// store copy) to its greeting over the plan's transport, then the daemon
/// is killed.
///
/// # Errors
///
/// Spawn, connection and I/O errors, or a bad greeting.
pub fn setup_probe(
    bin: &Path,
    dir: &Path,
    plan: &Plan,
    store: Option<&[u8]>,
) -> std::io::Result<f64> {
    fresh_dir(dir, store)?;
    let tcp = plan.connections > 1;
    let addr = if tcp {
        Some(TcpListener::bind("127.0.0.1:0")?.local_addr()?.to_string())
    } else {
        None
    };
    let start = Instant::now();
    let mut child = spawn_daemon(bin, &plan.flags(dir, addr.as_deref()), !tcp)?;
    let greeted = match &addr {
        Some(addr) => connect(addr, &mut child).map(|_| ()),
        None => {
            let stdout = child.stdout.take().expect("stdout is piped");
            let mut line = String::new();
            BufReader::new(stdout).read_line(&mut line).and_then(|_| {
                if line.starts_with("ok ") {
                    Ok(())
                } else {
                    Err(std::io::Error::other(format!("bad greeting {line:?}")))
                }
            })
        }
    };
    let elapsed = start.elapsed().as_secs_f64();
    kill_and_wait(&mut child);
    greeted.map(|()| elapsed)
}

type TcpClient = Client<BufReader<TcpStream>, TcpStream>;

fn connect(addr: &str, child: &mut Child) -> std::io::Result<TcpClient> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                // A wedged daemon fails the run instead of hanging it.
                stream.set_read_timeout(Some(Duration::from_secs(60)))?;
                let reader = BufReader::new(stream.try_clone()?);
                let mut client = Client::new(reader, stream);
                let greeting = client.greeting()?;
                if !greeting.starts_with("ok ") {
                    return Err(std::io::Error::other(format!("bad greeting {greeting:?}")));
                }
                return Ok(client);
            }
            Err(e) => {
                if Instant::now() > deadline || child.try_wait()?.is_some() {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// What one connection of a TCP episode measured.
#[derive(Default)]
struct ConnOutcome {
    round_ms: Vec<f64>,
    profile_cost_s: f64,
    best: Bests,
}

/// Drives the sessions `own` (each an index into `plan.kernels` with its
/// session id) round-robin: `attach`, `suggest 1`, measure, `observe`;
/// then `attach` and `best` for each.
fn churn(
    client: &mut TcpClient,
    plan: &Plan,
    own: &[(usize, String)],
) -> std::io::Result<ConnOutcome> {
    let mut out = ConnOutcome::default();
    if own.is_empty() {
        return Ok(out);
    }
    let mut profilers: Vec<SimulatedProfiler> =
        own.iter().map(|(j, _)| plan.profiler(*j)).collect();
    for r in 0..plan.rounds {
        let slot = r % own.len();
        let reply = client.request(format!("attach {}", own[slot].1), r + 1)?;
        let attach_ms = client.log.last().map_or(0.0, |e| e.ms);
        if !reply.starts_with("ok attached") {
            continue;
        }
        if let Some((ms, cost)) = round(
            client,
            &mut profilers[slot],
            r + 1,
            r % plan.reference_every == 0,
        )? {
            out.round_ms.push(attach_ms + ms);
            out.profile_cost_s += cost;
        }
    }
    for (j, id) in own {
        client.request(format!("attach {id}"), plan.rounds + 1)?;
        out.best
            .push((*j, client.request("best".into(), plan.rounds + 1)?));
    }
    Ok(out)
}

/// Runs one TCP episode: the first connection creates every session in a
/// fixed order, then `plan.connections` connections churn their share of
/// the sessions concurrently, then the first sends `shutdown`.
///
/// # Errors
///
/// Spawn, connection and I/O errors.
pub fn tcp_episode(
    bin: &Path,
    dir: &Path,
    plan: &Plan,
    store: Option<&[u8]>,
) -> std::io::Result<Episode> {
    fresh_dir(dir, store)?;
    let addr = TcpListener::bind("127.0.0.1:0")?.local_addr()?.to_string();
    let start = Instant::now();
    let mut child = spawn_daemon(bin, &plan.flags(dir, Some(&addr)), false)?;
    let result = tcp_script(&addr, &mut child, plan, start);
    if result.is_err() {
        kill_and_wait(&mut child);
    }
    let (mut episode, bests) = result?;
    episode.clean_exit = child.wait()?.success();
    episode.best_ratios = plan.best_ratios(&bests);
    Ok(episode)
}

fn tcp_script(
    addr: &str,
    child: &mut Child,
    plan: &Plan,
    start: Instant,
) -> std::io::Result<(Episode, Bests)> {
    let mut first = connect(addr, child)?;
    let mut episode = Episode {
        setup_s: start.elapsed().as_secs_f64(),
        ..Episode::default()
    };
    let phase = Instant::now();
    let cpu_start = daemon_cpu_s(child)?;
    let mut owned: Vec<Vec<(usize, String)>> = vec![Vec::new(); plan.connections];
    for (j, &kernel) in plan.kernels.iter().enumerate() {
        if let Some(id) = session_id(&first.request(plan.newsession(kernel), 0)?) {
            owned[j % plan.connections].push((j, id));
        }
    }
    let mut clients = vec![first];
    for _ in 1..plan.connections {
        clients.push(connect(addr, child)?);
    }
    let outcomes: Vec<std::io::Result<ConnOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&owned)
            .map(|(client, own)| scope.spawn(move || churn(client, plan, own)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    episode.phase_s = phase.elapsed().as_secs_f64();
    episode.cpu_s = daemon_cpu_s(child)? - cpu_start;
    for client in &clients {
        episode.reference.merge(client.reference);
    }
    let mut best = Vec::new();
    for outcome in outcomes {
        let outcome = outcome?;
        episode.round_ms.extend(outcome.round_ms);
        episode.profile_cost_s += outcome.profile_cost_s;
        best.extend(outcome.best);
    }
    best.sort_by_key(|&(j, _)| j);
    episode.peak_kb = vm_hwm_kb(child.id());
    let mut first = clients.remove(0);
    // Closing the other connections first leaves `shutdown` the last
    // request the daemon sees.
    let others: Vec<Vec<Exchange>> = clients.into_iter().map(|c| c.log).collect();
    first.request("shutdown".into(), plan.rounds + 2)?;
    episode.conns.push(std::mem::take(&mut first.log));
    episode.conns.extend(others);
    Ok((episode, best))
}

/// Runs one episode over the plan's transport.
///
/// # Errors
///
/// As [`stdio_episode`] and [`tcp_episode`].
pub fn episode(
    bin: &Path,
    dir: &Path,
    plan: &Plan,
    store: Option<&[u8]>,
) -> std::io::Result<Episode> {
    if plan.connections > 1 {
        tcp_episode(bin, dir, plan, store)
    } else {
        stdio_episode(bin, dir, plan, store)
    }
}

/// The order the in-process replays feed an episode's requests in: each
/// connection's requests in its own order, merged across connections by
/// group (creation first, then round by round), which mirrors how the
/// concurrent clients interleave. Replies do not depend on the
/// interleaving (connections touch disjoint sessions); eviction order does.
pub fn replay_order(episode: &Episode) -> Vec<(usize, usize)> {
    let mut next = vec![0usize; episode.conns.len()];
    let mut order = Vec::new();
    while let Some(c) = (0..episode.conns.len())
        .filter(|&c| next[c] < episode.conns[c].len())
        .min_by_key(|&c| (episode.conns[c][next[c]].group, c))
    {
        order.push((c, next[c]));
        next[c] += 1;
    }
    order
}

fn engine_span(verb: &str) -> &'static str {
    match verb {
        "newsession" => "engine.newsession",
        "attach" => "engine.attach",
        "suggest" => "engine.suggest",
        "observe" => "engine.observe",
        "best" => "engine.best",
        _ => "engine.other",
    }
}

/// Replays an episode's exact request stream through [`Engine::handle_line`]
/// in process (same configuration, a fresh directory, a pristine store
/// copy), timing each request as an `engine.<verb>` span and each parse as
/// `protocol.parse_ns`. Returns the replies per connection.
///
/// # Errors
///
/// Directory and engine-open errors.
pub fn replay_engine(
    plan: &Plan,
    dir: &Path,
    store: Option<&[u8]>,
    episode: &Episode,
) -> std::io::Result<Vec<Vec<String>>> {
    fresh_dir(dir, store)?;
    let mut engine = Engine::open(plan.engine_config(dir)).map_err(std::io::Error::other)?;
    let mut states = vec![ConnState::new(); episode.conns.len()];
    let mut replies: Vec<Vec<String>> = episode
        .conns
        .iter()
        .map(|c| vec![String::new(); c.len()])
        .collect();
    for (c, i) in replay_order(episode) {
        let exchange = &episode.conns[c][i];
        let parse = Instant::now();
        let _ = std::hint::black_box(protocol::parse_request(exchange.line.trim()));
        count("protocol.parse_ns", parse.elapsed().as_nanos() as f64);
        count("protocol.lines", 1.0);
        let response = span(engine_span(exchange.verb()), || {
            engine.handle_line(&mut states[c], &exchange.line)
        });
        replies[c][i] = response.reply.unwrap_or_default();
    }
    Ok(replies)
}

/// Counts from the session-level replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionStats {
    /// `attach` requests.
    pub attaches: u64,
    /// `attach` requests that restored an evicted session.
    pub restoring_attaches: u64,
    /// Sessions evicted to make room.
    pub evictions: u64,
    /// Warm-store probes.
    pub probes: u64,
    /// Probes that found a donor.
    pub hits: u64,
    /// `suggest` replies the session layer did not reproduce.
    pub mismatches: u64,
}

fn checkpoint_seed(path: &Path) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = JsonValue::parse(&text).map_err(|e| e.to_string())?;
    let hex = doc
        .field("seed")
        .and_then(|v| v.as_str())
        .map_err(|e| e.to_string())?;
    u64::from_str_radix(hex, 16).map_err(|e| e.to_string())
}

struct Resident {
    session: TuningSession,
    last_touch: u64,
}

/// The session-level split of an episode: replays every session's log
/// through the public `TuningSession`, `write_verified`, `WarmStore` and
/// `restore_snapshot` calls in the engine's order (record, checkpoint,
/// apply; evict least recently used to make room, harvesting into the
/// store; restore from checkpoint on attach), as `session.*`, `ledger.*`
/// and `warmstore.*` spans. Session seeds are read from the checkpoints
/// the engine replay wrote under `engine_dir`.
///
/// # Errors
///
/// A message for any session, checkpoint or store error.
pub fn replay_sessions(
    plan: &Plan,
    dir: &Path,
    store: Option<&[u8]>,
    episode: &Episode,
    engine_dir: &Path,
) -> Result<SessionStats, String> {
    fresh_dir(dir, store).map_err(|e| e.to_string())?;
    let sessions_dir = dir.join("sessions");
    std::fs::create_dir_all(&sessions_dir).map_err(|e| e.to_string())?;
    let path = |id: &str| sessions_dir.join(format!("{id}.json"));
    let mut warm = plan.warm.then(|| WarmStore::open(dir.join(STORE_FILE)));
    let mut live: BTreeMap<String, Resident> = BTreeMap::new();
    let mut current: Vec<Option<String>> = vec![None; episode.conns.len()];
    let mut stats = SessionStats::default();
    let mut clock = 0u64;
    let checkpoint = |session: &TuningSession| -> Result<(), String> {
        let text =
            span("session.serialize", || session.to_checkpoint_string()).map_err(|e| e.render())?;
        count("session.checkpoint_bytes", text.len() as f64);
        span("ledger.write_verified", || {
            write_verified(&path(session.id()), &text)
        })
        .map_err(|e| e.to_string())
    };
    let make_room = |live: &mut BTreeMap<String, Resident>,
                     warm: &mut Option<WarmStore>,
                     stats: &mut SessionStats| {
        while live.len() >= plan.max_sessions.max(1) {
            let Some(victim) = live
                .iter()
                .min_by_key(|&(id, r)| (r.last_touch, id))
                .map(|(id, _)| id.clone())
            else {
                break;
            };
            let evicted = live.remove(&victim).expect("victim is resident");
            stats.evictions += 1;
            if let Some(store) = warm.as_mut() {
                if let Some((depth, snapshot)) =
                    span("session.harvest", || evicted.session.model_snapshot())
                {
                    let s = &evicted.session;
                    let key = WarmKey::new(s.kernel(), s.space(), s.spec().name(), "default");
                    store.insert(&key, depth, snapshot);
                }
            }
        }
    };
    for (c, i) in replay_order(episode) {
        let exchange = &episode.conns[c][i];
        if !exchange.ok() {
            continue;
        }
        clock += 1;
        let tokens: Vec<&str> = exchange.line.split_whitespace().collect();
        match tokens.as_slice() {
            ["newsession", kernel, space, rest @ ..] => {
                let spec = match rest.first() {
                    Some(name) => SurrogateSpec::from_name(name).ok_or("unknown model")?,
                    None => SurrogateSpec::default(),
                };
                let space = parse_space(space, kernel).map_err(|e| e.render())?;
                let id = session_id(&exchange.reply).ok_or("newsession reply has no id")?;
                let seed =
                    checkpoint_seed(&engine_dir.join("sessions").join(format!("{id}.json")))?;
                make_room(&mut live, &mut warm, &mut stats);
                let donor = warm.as_mut().and_then(|store| {
                    stats.probes += 1;
                    let key = WarmKey::new(kernel, &space, spec.name(), "default");
                    span("warmstore.probe", || store.probe(&key).cloned())
                });
                let session = match donor {
                    Some(entry) => {
                        stats.hits += 1;
                        span("warmstore.restore", || restore_snapshot(&entry.model))
                            .map_err(|e| e.to_string())?;
                        let start = WarmStart {
                            snapshot: entry.model,
                            observations: entry.observations,
                        };
                        TuningSession::new_warm(&id, *kernel, space, spec, seed, start)
                            .map_err(|e| e.render())?
                    }
                    None => TuningSession::new(&id, *kernel, space, spec, seed),
                };
                checkpoint(&session)?;
                live.insert(
                    id.clone(),
                    Resident {
                        session,
                        last_touch: clock,
                    },
                );
                current[c] = Some(id);
            }
            ["attach", id] => {
                stats.attaches += 1;
                if !live.contains_key(*id) {
                    stats.restoring_attaches += 1;
                    let text = std::fs::read_to_string(path(id)).map_err(|e| e.to_string())?;
                    let session = span("session.restore", || {
                        TuningSession::from_checkpoint_str(&text)
                    })
                    .map_err(|e| e.render())?;
                    make_room(&mut live, &mut warm, &mut stats);
                    live.insert(
                        id.to_string(),
                        Resident {
                            session,
                            last_touch: clock,
                        },
                    );
                }
                current[c] = Some(id.to_string());
            }
            _ => {}
        }
        let Some(resident) = current[c].as_ref().and_then(|id| live.get_mut(id)) else {
            continue;
        };
        resident.last_touch = clock;
        let session = &mut resident.session;
        match tokens.as_slice() {
            ["suggest", k] => {
                let k: usize = k.parse().map_err(|_| "bad suggest count")?;
                let configs =
                    span("session.suggest", || session.suggest(k)).map_err(|e| e.to_string())?;
                let rendered: Vec<String> = configs.iter().map(format_config).collect();
                if exchange.reply != format!("ok suggest {}", rendered.join(" ")) {
                    stats.mismatches += 1;
                }
            }
            ["observe", config, cost] => {
                let config = parse_config(config).map_err(|e| e.render())?;
                let cost: f64 = cost.parse().map_err(|_| "bad cost")?;
                span("session.apply", || session.record(config, cost));
                checkpoint(session)?;
                span("session.apply", || session.apply_last()).map_err(|e| e.to_string())?;
            }
            _ => {}
        }
    }
    Ok(stats)
}
