//! The request engine: session table, dispatch, durability, degradation.
//!
//! The engine is transport-agnostic — [`Engine::handle_line`] maps one
//! request line to one reply, and the stdin/TCP loops in [`crate::daemon`]
//! are thin shells around it. Its contracts:
//!
//! * **Replied ⇒ durable** (with the default `checkpoint_every = 1`): a
//!   mutating request is committed — a new session's header through the
//!   ledger's [`write_verified`], an observation as one journal record
//!   through [`append_verified`] — *before* the `ok` reply exists; on
//!   commit failure the mutation is rolled back and a structured `err`
//!   returned. The on-disk layout is described in [`crate::durable`].
//!   The converse does not hold — a kill between commit and reply can leave
//!   one acknowledged-looking observation on disk (at-least-once). Clients
//!   needing exactly-once re-`attach` and compare the reported observation
//!   count before retrying an unacknowledged `observe`.
//! * **Panic isolation**: dispatch runs under `catch_unwind`; a panicking
//!   request detaches the connection's live session (its on-disk
//!   checkpoint is unaffected) and yields `err panic`, like
//!   `heal_campaign` quarantines a panicking work unit.
//! * **Deadlines**: requests check a per-request deadline at safe points
//!   (never between a durable commit and its reply) and shed with
//!   `err deadline`.
//! * **Graceful degradation**: at most `max_live` sessions are resident;
//!   attaching one more evicts the least-recently-used idle session to its
//!   checkpoint. When even eviction fails (e.g. a failing disk), requests
//!   are shed with `err busy retry-after-ms <hint>`, the hint backing off
//!   exponentially (via [`RetryPolicy::SERVE_HINT`]) while the condition
//!   persists.
//! * **The degradation ladder** ([`HealthState`]): resource pressure walks
//!   the engine down `Healthy → SheddingWrites` (checkpoint writes failing:
//!   observes shed with `err degraded retry-after-ms`, reads still served)
//!   `→ ReadOnly` (eviction impossible: only `suggest`/`best`/`sessions`)
//!   `→ Draining` (terminal: state flushed, nothing new admitted). A
//!   successful probe write promotes the engine back to `Healthy`
//!   automatically. The `health` verb reports the state plus per-site
//!   injection and retry counters; `drain` flushes everything and reports
//!   per-session outcomes as one [`DrainSummary`].
//! * **Watchdog**: a request that has run longer than its deadline times
//!   [`ServeConfig::watchdog_grace`] when it returns is detached exactly
//!   like the panic path (`err stuck`).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use alic_core::runner::ledger::{
    append_verified, quarantine_file, truncate_to, write_atomic, write_verified,
};
use alic_core::runner::panic_message;
use alic_core::warmstore::{WarmKey, WarmStore};
use alic_data::io::JsonValue;
use alic_model::spec::SurrogateSpec;
use alic_sim::space::ParameterSpace;
use alic_stats::fault::{inject, injections, FaultSite};
use alic_stats::policy::{self, RetryPolicy};
use alic_stats::rng::derive_seed2;

use crate::durable::{
    journal_path, journal_record, journal_records, read_journal, DonorCache, DONORS_DIR,
};
use crate::protocol::{
    self, code, format_config, format_cost, sanitize, ErrReply, Request, MAX_LINE_BYTES,
};
use crate::session::{Header, TuningSession, WarmStart, SESSION_SCHEMA};

/// Subdirectory of the serve directory holding each session's header
/// (`<id>.json`) and journal (`<id>.log`).
pub const SESSIONS_DIR: &str = "sessions";

/// Default bound on resident live sessions.
pub const DEFAULT_MAX_LIVE: usize = 8;

/// Default per-request deadline.
pub const DEFAULT_DEADLINE: Duration = Duration::from_millis(2_000);

/// Default watchdog grace factor: a request is stuck once it runs longer
/// than `deadline × grace`.
pub const DEFAULT_WATCHDOG_GRACE: f64 = 4.0;

/// Relative path (under the serve directory) of the ladder's probe file:
/// one successful atomic write there proves the disk admits writes again.
pub const PROBE_FILE: &str = ".health-probe";

/// RNG stream label under which per-session seeds derive from the daemon
/// seed.
const STREAM_SESSION_SEED: u64 = 0x5e55;

/// Noise-regime label namespacing serve warm-store keys, so surrogates
/// trained under an incompatible featurization (the campaign's `"campaign"`
/// entries use its normalizers) never seed serve sessions.
const NOISE_REGIME: &str = "default";

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root of the checkpoint directory (`<dir>/sessions/<id>.json` and
    /// `.log`, `<dir>/donors/<hash>.json`).
    pub dir: PathBuf,
    /// Surrogate family for sessions that do not name one.
    pub default_model: SurrogateSpec,
    /// Base seed; per-session seeds derive from it and are checkpointed, so
    /// restarts (even with a different base seed) keep existing sessions'
    /// streams.
    pub seed: u64,
    /// Bound on resident live sessions before LRU eviction kicks in. Twice
    /// this many parsed warm donors stay cached.
    pub max_live: usize,
    /// Per-request deadline.
    pub deadline: Duration,
    /// Checkpoint cadence in observations. `1` (the default) gives the
    /// replied-⇒-durable guarantee; larger values trade a bounded window of
    /// acknowledged-but-volatile observations for fewer writes under load.
    pub checkpoint_every: usize,
    /// Optional warm-start store path. `None` (the default) disables warm
    /// starts entirely — every reply stays byte-identical to a build
    /// without the store.
    pub warm_store: Option<PathBuf>,
    /// Watchdog grace factor: a request that has run longer than
    /// `deadline × watchdog_grace` when it returns is stuck, and its session
    /// is detached. `0.0` disables the watchdog.
    pub watchdog_grace: f64,
}

impl ServeConfig {
    /// A default-configured engine rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            dir: dir.into(),
            default_model: SurrogateSpec::default(),
            seed: 0,
            max_live: DEFAULT_MAX_LIVE,
            deadline: DEFAULT_DEADLINE,
            checkpoint_every: 1,
            warm_store: None,
            watchdog_grace: DEFAULT_WATCHDOG_GRACE,
        }
    }
}

/// The engine's position on the degradation ladder, ordered by severity.
///
/// Demotions only ever move down the ladder (and never out of `Draining`);
/// a successful probe write promotes straight back to `Healthy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// All verbs served.
    Healthy,
    /// Checkpoint writes are failing: mutating verbs are shed with
    /// `err degraded retry-after-ms`, reads are still served from memory.
    SheddingWrites,
    /// Even eviction is impossible: only `suggest`/`best`/`sessions` (and
    /// the control verbs) are served.
    ReadOnly,
    /// Terminal: sessions are flushed and no new work is admitted.
    Draining,
}

impl HealthState {
    /// The wire label reported by the `health` verb.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::SheddingWrites => "shedding-writes",
            HealthState::ReadOnly => "read-only",
            HealthState::Draining => "draining",
        }
    }
}

/// Per-session outcome of one flush/drain pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlushOutcome {
    /// The session was dirty and its checkpoint was written.
    Flushed,
    /// The session had no volatile state.
    Clean,
    /// The checkpoint write failed; the payload is the structured error
    /// detail (the session stays resident and dirty).
    Failed(String),
}

impl FlushOutcome {
    /// Short wire label (`flushed` / `clean` / `failed`).
    pub fn label(&self) -> &'static str {
        match self {
            FlushOutcome::Flushed => "flushed",
            FlushOutcome::Clean => "clean",
            FlushOutcome::Failed(_) => "failed",
        }
    }
}

/// Structured result of draining or flushing the live table — the one
/// summary shared by the `drain` verb and both transports' shutdown paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Per-session outcomes in session-id order.
    pub outcomes: Vec<(String, FlushOutcome)>,
    /// Error from persisting the warm store, if any (advisory: warm-store
    /// damage never counts against the flush).
    pub warm_store_error: Option<String>,
}

impl DrainSummary {
    /// Sessions flushed or already clean.
    pub fn ok_count(&self) -> usize {
        self.outcomes.len() - self.failed_count()
    }

    /// Sessions whose final checkpoint write failed.
    pub fn failed_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, FlushOutcome::Failed(_)))
            .count()
    }

    /// The one-line headline form: `drained ok <n> failed <m>`.
    pub fn render(&self) -> String {
        format!(
            "drained ok {} failed {}",
            self.ok_count(),
            self.failed_count()
        )
    }

    /// The headline plus per-session outcomes:
    /// `drained ok <n> failed <m> [<id>=<outcome> ...] [warm-store=failed]`.
    pub fn render_detailed(&self) -> String {
        let mut out = self.render();
        for (id, outcome) in &self.outcomes {
            out.push(' ');
            out.push_str(id);
            out.push('=');
            out.push_str(outcome.label());
        }
        if self.warm_store_error.is_some() {
            out.push_str(" warm-store=failed");
        }
        out
    }
}

/// What the transport loop should do after writing the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep reading requests.
    Continue,
    /// Close this connection (`quit`).
    CloseConnection,
    /// Stop the whole daemon (`shutdown`).
    ShutdownDaemon,
}

/// One handled request: the reply line (if any) and the follow-up action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Reply line without trailing newline; `None` for blank input.
    pub reply: Option<String>,
    /// Transport follow-up.
    pub action: Action,
}

impl Response {
    fn text(reply: String, action: Action) -> Self {
        Response {
            reply: Some(reply),
            action,
        }
    }
}

/// Per-connection state: which session the connection is talking to.
#[derive(Debug, Clone, Default)]
pub struct ConnState {
    current: Option<String>,
}

impl ConnState {
    /// A fresh connection attached to nothing.
    pub fn new() -> Self {
        ConnState::default()
    }

    /// The attached session id, if any.
    pub fn current(&self) -> Option<&str> {
        self.current.as_deref()
    }
}

#[derive(Debug)]
struct LiveEntry {
    session: TuningSession,
    last_touch: u64,
    /// Observations whose journal records are committed on disk.
    durable: usize,
    /// Journal bytes those records span: the offset the next append starts
    /// at.
    journal_len: u64,
    /// The journal may hold bytes past `journal_len` (a failed append or
    /// rollback) that the next commit must cut off.
    stale_tail: bool,
}

impl LiveEntry {
    fn new(session: TuningSession, last_touch: u64, journal_len: u64) -> LiveEntry {
        LiveEntry {
            durable: session.observations(),
            session,
            last_touch,
            journal_len,
            stale_tail: false,
        }
    }

    /// Observations acknowledged but not yet in the journal.
    fn pending(&self) -> usize {
        self.session.observations() - self.durable
    }

    /// Whether the journal disagrees with memory.
    fn dirty(&self) -> bool {
        self.pending() > 0 || self.stale_tail
    }

    /// Appends the pending records to the journal of the header at `path`
    /// (cutting off any stale tail first), making memory and disk agree. A
    /// clean entry writes nothing.
    fn commit(&mut self, path: &Path) -> Result<(), ErrReply> {
        if !self.dirty() {
            return Ok(());
        }
        let records = journal_records(&self.session, self.durable);
        match append_verified(&journal_path(path), self.journal_len, &records) {
            Ok(len) => {
                self.journal_len = len;
                self.durable = self.session.observations();
                self.stale_tail = false;
                Ok(())
            }
            Err(e) => {
                self.stale_tail = true;
                Err(ErrReply::new(
                    code::IO,
                    format!("checkpointing {}: {e}", self.session.id()),
                ))
            }
        }
    }

    /// Takes back the newest observation, which the surrogate rejected:
    /// out of memory, and out of the journal if it was committed. A failed
    /// truncation leaves the tail stale for the next commit to cut.
    fn roll_back(&mut self, path: &Path) -> Result<(), ErrReply> {
        let index = self.session.observations() - 1;
        if self.durable > index {
            let (config, cost) = &self.session.log()[index];
            self.journal_len -= journal_record(index, config, *cost).len() as u64;
            self.durable = index;
            self.stale_tail = true;
        }
        self.session.unrecord();
        if self.stale_tail {
            truncate_to(&journal_path(path), self.journal_len).map_err(|e| {
                ErrReply::new(code::IO, format!("rolling back {}: {e}", self.session.id()))
            })?;
            self.stale_tail = false;
        }
        Ok(())
    }
}

/// The daemon's core: a bounded table of live sessions over a checkpoint
/// directory.
#[derive(Debug)]
pub struct Engine {
    config: ServeConfig,
    live: BTreeMap<String, LiveEntry>,
    clock: u64,
    next_id: u64,
    busy_streak: u32,
    warm: Option<WarmStore>,
    donors: DonorCache,
    state: HealthState,
    flush_failures: u64,
}

impl Engine {
    /// Opens (creating if necessary) the serve directory and scans existing
    /// checkpoints so new session ids never collide with old ones.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory cannot be created or scanned.
    pub fn open(config: ServeConfig) -> Result<Engine, String> {
        let sessions = config.dir.join(SESSIONS_DIR);
        std::fs::create_dir_all(&sessions)
            .map_err(|e| format!("cannot create {}: {e}", sessions.display()))?;
        let mut next_id = 0u64;
        let entries = std::fs::read_dir(&sessions)
            .map_err(|e| format!("cannot scan {}: {e}", sessions.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot scan {}: {e}", sessions.display()))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(n) = name
                .strip_prefix('s')
                .and_then(|rest| rest.strip_suffix(".json"))
                .filter(|digits| digits.len() == 6)
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                next_id = next_id.max(n + 1);
            }
        }
        // A corrupt store quarantines inside `open` and comes back empty,
        // so warm-start damage can never fail daemon startup.
        let warm = config.warm_store.as_deref().map(WarmStore::open);
        let donors = DonorCache::new(config.dir.join(DONORS_DIR), 2 * config.max_live.max(1));
        Ok(Engine {
            config,
            live: BTreeMap::new(),
            clock: 0,
            next_id,
            busy_streak: 0,
            warm,
            donors,
            state: HealthState::Healthy,
            flush_failures: 0,
        })
    }

    /// The engine's current position on the degradation ladder.
    pub fn health_state(&self) -> HealthState {
        self.state
    }

    /// Warm-store hit/miss/store counters (`None` when disabled).
    pub fn warm_counters(&self) -> Option<(u64, u64, u64)> {
        self.warm
            .as_ref()
            .map(|w| (w.hits(), w.misses(), w.stores()))
    }

    /// The engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of currently resident live sessions.
    pub fn live_sessions(&self) -> usize {
        self.live.len()
    }

    fn sessions_dir(&self) -> PathBuf {
        self.config.dir.join(SESSIONS_DIR)
    }

    fn session_path(&self, id: &str) -> PathBuf {
        self.sessions_dir().join(format!("{id}.json"))
    }

    /// Handles one raw input line and returns the reply plus transport
    /// action. Never panics: parsing is total and dispatch runs under
    /// `catch_unwind`.
    pub fn handle_line(&mut self, conn: &mut ConnState, line: &str) -> Response {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Response {
                reply: None,
                action: Action::Continue,
            };
        }
        if line.len() > MAX_LINE_BYTES {
            return Response::text(
                ErrReply::new(code::PARSE, format!("line exceeds {MAX_LINE_BYTES} bytes")).render(),
                Action::Continue,
            );
        }
        let request = match protocol::parse_request(trimmed) {
            Ok(request) => request,
            Err(e) => return Response::text(e.render(), Action::Continue),
        };
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| self.dispatch(conn, &request, started)));
        let grace = self.config.watchdog_grace;
        let limit = self.config.deadline.mul_f64(grace.max(0.0));
        if !limit.is_zero() && started.elapsed() > limit {
            // The request outlived deadline × grace: it wedged somewhere the
            // cooperative deadline checks cannot reach (a stalled syscall, a
            // pathological fit). The engine is single-owner and Rust has no
            // safe cancellation, so completion is the only enforcement
            // point: detach the session exactly like the panic path
            // (durable state is untouched; any reply the late work computed
            // is dropped, and at-least-once reconciliation on re-attach
            // covers a mutation that did commit).
            if let Some(id) = conn.current.take() {
                self.live.remove(&id);
            }
            return Response::text(
                ErrReply::new(
                    code::STUCK,
                    format!(
                        "request exceeded {grace}x its {}ms deadline (watchdog); \
                         session detached, re-attach to restore it",
                        self.config.deadline.as_millis()
                    ),
                )
                .render(),
                Action::Continue,
            );
        }
        match outcome {
            Ok(Ok((reply, action))) => Response::text(reply, action),
            Ok(Err(e)) => Response::text(e.render(), Action::Continue),
            Err(payload) => {
                // The live state the panicking request touched is suspect;
                // detach it. The on-disk checkpoint is intact (mutations
                // checkpoint before they apply), so a re-attach restores
                // the session to its last durable state.
                if let Some(id) = conn.current.take() {
                    self.live.remove(&id);
                }
                Response::text(
                    ErrReply::new(
                        code::PANIC,
                        format!(
                            "request panicked ({}); session detached, re-attach to restore it",
                            sanitize(&panic_message(payload.as_ref()))
                        ),
                    )
                    .render(),
                    Action::Continue,
                )
            }
        }
    }

    fn dispatch(
        &mut self,
        conn: &mut ConnState,
        request: &Request,
        started: Instant,
    ) -> Result<(String, Action), ErrReply> {
        // The chaos plane's panic site fires before any mutation, so an
        // injected panic is always clean: reply `err panic`, retry, heal.
        if inject(FaultSite::UnitPanic) {
            panic!("chaos: injected request panic");
        }
        // An injected stall sleeps past deadline × grace, so both the
        // cooperative deadline checks and the stuck check observe it.
        if inject(FaultSite::Stall) {
            let grace = self.config.watchdog_grace.max(1.0);
            std::thread::sleep(self.config.deadline.mul_f64(2.0 * grace));
        }
        self.clock += 1;
        self.admit(request)?;
        let deadline = self.config.deadline;
        let over_deadline = || started.elapsed() > deadline;
        let deadline_err = || {
            ErrReply::new(
                code::DEADLINE,
                format!("request exceeded its {}ms deadline", deadline.as_millis()),
            )
        };
        match request {
            Request::NewSession {
                kernel,
                space,
                model,
            } => {
                let spec = match model {
                    None => self.config.default_model,
                    Some(name) => SurrogateSpec::from_name(name).ok_or_else(|| {
                        ErrReply::new(
                            code::BAD_MODEL,
                            format!(
                                "unknown model {:?} (known: {})",
                                sanitize(name),
                                SurrogateSpec::names().join(", ")
                            ),
                        )
                    })?,
                };
                self.make_room()?;
                let id = format!("s{:06}", self.next_id);
                let seed = derive_seed2(self.config.seed, STREAM_SESSION_SEED, self.next_id);
                // Consult the warm store; a snapshot that fails to restore
                // degrades silently to a cold session.
                let mut session = self
                    .probe_warm(kernel, space, spec)
                    .and_then(|warm| {
                        TuningSession::new_warm(&id, kernel, space.clone(), spec, seed, warm).ok()
                    })
                    .unwrap_or_else(|| TuningSession::new(&id, kernel, space.clone(), spec, seed));
                let warm_obs = session.warm_observations();
                // Durable before acknowledged: the session exists on disk
                // before the client ever learns its id.
                let path = self.session_path(&id);
                if let Err(e) = self.create_durable(&path, &mut session) {
                    return Err(self.degrade_write(e));
                }
                let dim = space.dimension();
                self.next_id += 1;
                self.live
                    .insert(id.clone(), LiveEntry::new(session, self.clock, 0));
                conn.current = Some(id.clone());
                let reply = match warm_obs {
                    Some(n) => format!("ok session {id} dim {dim} warm {n}"),
                    None => format!("ok session {id} dim {dim}"),
                };
                Ok((reply, Action::Continue))
            }
            Request::Attach { id } => {
                self.ensure_live(id)?;
                conn.current = Some(id.clone());
                let n = self.live_ref(id)?.session.observations();
                Ok((format!("ok attached {id} obs {n}"), Action::Continue))
            }
            Request::Suggest { count } => {
                let id = attached(conn)?;
                self.ensure_live(&id)?;
                let entry = self.live_mut(&id)?;
                let configs = entry.session.suggest(*count).map_err(model_err)?;
                // Reads are side-effect free; shedding after the work is
                // done still protects the *connection's* latency budget.
                if over_deadline() {
                    return Err(deadline_err());
                }
                let mut reply = String::from("ok suggest");
                for c in &configs {
                    reply.push(' ');
                    reply.push_str(&format_config(c));
                }
                Ok((reply, Action::Continue))
            }
            Request::Observe { config, cost } => {
                let id = attached(conn)?;
                self.ensure_live(&id)?;
                // Validate everything and check the deadline *before* the
                // mutation: past this point the request always commits or
                // rolls back, never half-happens.
                self.live_ref(&id)?
                    .session
                    .space()
                    .validate(config)
                    .map_err(|e| ErrReply::new(code::BAD_CONFIG, e.to_string()))?;
                if over_deadline() {
                    return Err(deadline_err());
                }
                let path = self.session_path(&id);
                let cadence = self.config.checkpoint_every.max(1);
                let entry = self.live_mut(&id)?;
                entry.session.record(config.clone(), *cost);
                if entry.pending() >= cadence {
                    if let Err(e) = entry.commit(&path) {
                        entry.session.unrecord();
                        // A failing commit write is the ladder's entry
                        // point: demote and shed with a backoff hint.
                        return Err(self.degrade_write(e));
                    }
                }
                let mut rollback_write_failed = false;
                if let Err(model_failure) = entry.session.apply_last() {
                    // The model rejected the observation: roll it back in
                    // memory and in the journal, then commit what is still
                    // pending so disk and memory agree.
                    if entry
                        .roll_back(&path)
                        .and_then(|()| entry.commit(&path))
                        .is_ok()
                    {
                        if entry.session.rebuild().is_err() {
                            // The surrogate would not rebuild; drop the
                            // entry so the next attach replays from the
                            // (now correct) journal.
                            self.live.remove(&id);
                        }
                    } else {
                        // The rollback write failed, so the in-memory log
                        // is the only correct copy: the journal may still
                        // hold the rejected observation, or lack
                        // acknowledged ones at larger cadences. Keep the
                        // entry resident and dirty so a later checkpoint,
                        // eviction, or flush repairs the disk — dropping it
                        // here would resurrect the rejected observation (or
                        // lose acknowledged ones) on the next attach.
                        let _ = entry.session.rebuild();
                        rollback_write_failed = true;
                    }
                    if rollback_write_failed {
                        // The reply stays `err model` (the observation was
                        // rejected, not shed), but the disk is degraded.
                        self.demote(HealthState::SheddingWrites);
                    }
                    return Err(model_err(model_failure));
                }
                let n = entry.session.observations();
                // A successful admission write clears any shed streak.
                self.busy_streak = 0;
                Ok((format!("ok observed {n}"), Action::Continue))
            }
            Request::Best => {
                let id = attached(conn)?;
                self.ensure_live(&id)?;
                let entry = self.live_ref(&id)?;
                match entry.session.best() {
                    Some((config, cost)) => Ok((
                        format!("ok best {} {}", format_config(config), format_cost(cost)),
                        Action::Continue,
                    )),
                    None => Err(ErrReply::new(code::EMPTY, "no observations recorded yet")),
                }
            }
            Request::Checkpoint => {
                let id = attached(conn)?;
                self.ensure_live(&id)?;
                let path = self.session_path(&id);
                match self.live_mut(&id)?.commit(&path) {
                    Ok(()) => {
                        self.busy_streak = 0;
                        Ok((
                            format!("ok checkpoint {SESSIONS_DIR}/{id}.json"),
                            Action::Continue,
                        ))
                    }
                    Err(e) => Err(self.degrade_write(e)),
                }
            }
            Request::Sessions => {
                if inject(FaultSite::FdLimit) {
                    return Err(ErrReply::new(
                        code::IO,
                        "scanning sessions: chaos injected file-descriptor exhaustion",
                    ));
                }
                let mut ids: std::collections::BTreeSet<String> =
                    self.live.keys().cloned().collect();
                let entries = std::fs::read_dir(self.sessions_dir())
                    .map_err(|e| ErrReply::new(code::IO, format!("scanning sessions: {e}")))?;
                for entry in entries {
                    let entry = entry
                        .map_err(|e| ErrReply::new(code::IO, format!("scanning sessions: {e}")))?;
                    if let Some(name) = entry.file_name().to_str() {
                        if let Some(id) = name.strip_suffix(".json") {
                            if protocol::parse_session_id(id).is_ok() {
                                ids.insert(id.to_string());
                            }
                        }
                    }
                }
                let mut reply = String::from("ok sessions");
                for id in ids {
                    reply.push(' ');
                    reply.push_str(&id);
                }
                Ok((reply, Action::Continue))
            }
            Request::Health => {
                let mut inj = String::new();
                for site in FaultSite::ALL {
                    let n = injections(site);
                    if n > 0 {
                        if !inj.is_empty() {
                            inj.push(',');
                        }
                        inj.push_str(site.name());
                        inj.push(':');
                        inj.push_str(&n.to_string());
                    }
                }
                if inj.is_empty() {
                    inj.push_str("none");
                }
                let warm = match self.warm_counters() {
                    Some((h, m, s)) => format!("{h}/{m}/{s}"),
                    None => "off".to_string(),
                };
                Ok((
                    format!(
                        "ok health state={} live={} shed-streak={} flush-failed={} \
                         retry-sleeps={} inj={} warm={}",
                        self.state.label(),
                        self.live.len(),
                        self.busy_streak,
                        self.flush_failures,
                        policy::sleeps(),
                        inj,
                        warm
                    ),
                    Action::Continue,
                ))
            }
            Request::Drain => {
                let summary = self.drain();
                Ok((
                    format!("ok {}", summary.render_detailed()),
                    Action::Continue,
                ))
            }
            Request::Quit => {
                let _ = self.flush_all();
                Ok(("ok bye".to_string(), Action::CloseConnection))
            }
            Request::Shutdown => {
                let _ = self.flush_all();
                Ok(("ok shutdown".to_string(), Action::ShutdownDaemon))
            }
        }
    }

    /// The ladder's admission gate: control verbs always pass; otherwise the
    /// current [`HealthState`] decides which verbs are shed. While degraded
    /// (but not draining), a probe write first attempts automatic promotion
    /// back to `Healthy`.
    fn admit(&mut self, request: &Request) -> Result<(), ErrReply> {
        if matches!(
            request,
            Request::Sessions
                | Request::Health
                | Request::Drain
                | Request::Quit
                | Request::Shutdown
        ) {
            return Ok(());
        }
        if self.state == HealthState::Draining {
            return Err(ErrReply::new(
                code::DRAINING,
                "daemon is draining; state is flushed and no new work is admitted",
            ));
        }
        if self.state == HealthState::Healthy {
            return Ok(());
        }
        self.try_promote();
        match self.state {
            HealthState::Healthy => Ok(()),
            HealthState::SheddingWrites => match request {
                Request::NewSession { .. } | Request::Observe { .. } | Request::Checkpoint => {
                    Err(self.shed(
                        code::DEGRADED,
                        "shedding writes: checkpoint writes are failing; reads are still served",
                    ))
                }
                _ => Ok(()),
            },
            HealthState::ReadOnly => match request {
                Request::Suggest { .. } | Request::Best => Ok(()),
                Request::NewSession { .. } | Request::Attach { .. } => Err(self.shed(
                    code::BUSY,
                    "read-only: the live table cannot evict; only suggest/best/sessions are served",
                )),
                _ => Err(self.shed(
                    code::DEGRADED,
                    "read-only: the live table cannot evict; only suggest/best/sessions are served",
                )),
            },
            HealthState::Draining => Err(ErrReply::new(
                code::DRAINING,
                "daemon is draining; state is flushed and no new work is admitted",
            )),
        }
    }

    /// Demotes the ladder to `to` unless already at that severity or worse.
    /// Never demotes out of `Draining` (it is terminal) and never promotes —
    /// promotion is the probe's job.
    fn demote(&mut self, to: HealthState) {
        if self.state != HealthState::Draining && to > self.state {
            self.state = to;
        }
    }

    /// Attempts automatic promotion back to `Healthy`: one successful
    /// atomic write to the probe file proves the disk admits writes again.
    fn try_promote(&mut self) {
        if !matches!(
            self.state,
            HealthState::SheddingWrites | HealthState::ReadOnly
        ) {
            return;
        }
        let probe = self.config.dir.join(PROBE_FILE);
        if write_atomic(&probe, "alic-serve health probe\n").is_ok() {
            self.state = HealthState::Healthy;
            self.busy_streak = 0;
        }
    }

    /// Builds a load-shedding reply: bumps the shed streak and stamps the
    /// `retry-after-ms` hint from [`RetryPolicy::SERVE_HINT`], so the hint
    /// backs off exponentially while the condition persists and resets on
    /// the next successful admission.
    fn shed(&mut self, code: &'static str, why: &str) -> ErrReply {
        self.busy_streak = self.busy_streak.saturating_add(1);
        let hint = RetryPolicy::SERVE_HINT.hint_ms(self.busy_streak);
        ErrReply::new(code, format!("retry-after-ms {hint} ({why})"))
    }

    /// A failed admission write (checkpoint commit) demotes to
    /// `SheddingWrites` and sheds with a `degraded` backoff hint carrying
    /// the underlying error.
    fn degrade_write(&mut self, e: ErrReply) -> ErrReply {
        self.demote(HealthState::SheddingWrites);
        let msg = e.msg;
        self.shed(code::DEGRADED, &msg)
    }

    fn internal_missing(id: &str) -> ErrReply {
        ErrReply::new(
            code::INTERNAL,
            format!(
                "session {id} expected resident but missing from the live table; \
                 re-attach to restore it"
            ),
        )
    }

    /// Graceful lookup of a session the dispatch path has already ensured
    /// live: a bookkeeping slip fails this one request with `err internal`
    /// instead of poisoning the session through a panic.
    fn live_ref(&self, id: &str) -> Result<&LiveEntry, ErrReply> {
        self.live.get(id).ok_or_else(|| Self::internal_missing(id))
    }

    /// Mutable sibling of [`Engine::live_ref`].
    fn live_mut(&mut self, id: &str) -> Result<&mut LiveEntry, ErrReply> {
        self.live
            .get_mut(id)
            .ok_or_else(|| Self::internal_missing(id))
    }

    /// Makes `id` resident: a no-op when live, otherwise a restore from
    /// its header and journal (with LRU eviction to make room).
    fn ensure_live(&mut self, id: &str) -> Result<(), ErrReply> {
        if !self.live.contains_key(id) {
            let path = self.session_path(id);
            let (session, journal_len) = match self.restore(id, &path) {
                Ok(restored) => restored,
                Err(e) if e.code == code::CORRUPT => {
                    // Preserve the evidence and report structured
                    // corruption; the id is gone until re-created.
                    quarantine_session(&path).map_err(|qe| {
                        ErrReply::new(code::IO, format!("quarantining {id}: {qe}"))
                    })?;
                    return Err(ErrReply::new(
                        code::CORRUPT,
                        format!(
                            "checkpoint of {id} was damaged and quarantined to \
                             {id}.json.corrupt: {}",
                            e.msg
                        ),
                    ));
                }
                Err(e) => return Err(e),
            };
            self.make_room()?;
            self.live.insert(
                id.to_string(),
                LiveEntry::new(session, self.clock, journal_len),
            );
        }
        self.live_mut(id)?.last_touch = self.clock;
        Ok(())
    }

    /// Reads session `id` back from its header at `path`: a v2 header
    /// adopts its donor (cached, or parsed once from `donors/`) and replays
    /// its journal; a v1 checkpoint left by an older daemon replays its own
    /// log and is rewritten as header plus journal. Returns the session and
    /// its journal's committed length.
    fn restore(&mut self, id: &str, path: &Path) -> Result<(TuningSession, u64), ErrReply> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(ErrReply::new(
                    code::UNKNOWN_SESSION,
                    format!("no session {id} (see `sessions`)"),
                ));
            }
            Err(e) => return Err(ErrReply::new(code::IO, format!("reading {id}: {e}"))),
        };
        let corrupt = |detail: String| ErrReply::new(code::CORRUPT, detail);
        let doc =
            JsonValue::parse(&text).map_err(|e| corrupt(format!("unparseable checkpoint: {e}")))?;
        let schema = doc.field("schema").and_then(|v| v.as_str()).ok();
        let (session, journal_len) = if schema == Some(SESSION_SCHEMA) {
            let mut session = TuningSession::from_checkpoint_doc(&doc)?;
            let mut len = 0;
            if session.id() == id {
                len = self.create_durable(path, &mut session)?;
            }
            (session, len)
        } else {
            let header = Header::decode(&doc)?;
            let donor = match &header.donor {
                Some((hash, _)) => Some(self.donors.load(hash)?),
                None => None,
            };
            let bytes = match std::fs::read(journal_path(path)) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(corrupt(format!("the journal of {id} is missing")));
                }
                Err(e) => return Err(ErrReply::new(code::IO, format!("reading {id}: {e}"))),
            };
            let journal = read_journal(&bytes, &header.session).map_err(corrupt)?;
            (header.restore(donor, journal.log)?, journal.len)
        };
        if session.id() != id {
            return Err(corrupt(format!(
                "checkpoint of {id} claims id {}",
                session.id()
            )));
        }
        Ok((session, journal_len))
    }

    /// Writes the durable form of `session` beside `path`: its donor (once
    /// per content hash), its journal holding the records logged so far,
    /// and last its header, whose rename commits the session. Returns the
    /// journal's length.
    fn create_durable(
        &mut self,
        path: &Path,
        session: &mut TuningSession,
    ) -> Result<u64, ErrReply> {
        let donor = self.donors.store(session)?;
        let id = session.id().to_string();
        let io =
            |e: alic_core::CoreError| ErrReply::new(code::IO, format!("checkpointing {id}: {e}"));
        let journal = journal_records(session, 0);
        write_verified(&journal_path(path), &journal).map_err(io)?;
        write_verified(path, &session.header_string(donor.as_deref())?).map_err(io)?;
        Ok(journal.len() as u64)
    }

    /// Evicts least-recently-used sessions until a slot is free, flushing
    /// dirty ones to checkpoint first. Failure to evict is the `busy`
    /// shedding point.
    fn make_room(&mut self) -> Result<(), ErrReply> {
        let cap = self.config.max_live.max(1);
        while self.live.len() >= cap {
            // Select the victim by reference — ties on `last_touch` break
            // to the lexicographically smallest id — and clone the one
            // winning id, not every id per comparison.
            let Some(victim) = self
                .live
                .iter()
                .min_by_key(|&(id, entry)| (entry.last_touch, id))
                .map(|(id, _)| id.clone())
            else {
                return Err(ErrReply::new(
                    code::INTERNAL,
                    "live table at capacity yet empty; eviction bookkeeping slipped",
                ));
            };
            let path = self.session_path(&victim);
            if let Some(entry) = self.live.get_mut(&victim) {
                if let Err(e) = entry.commit(&path) {
                    // A table that cannot evict cannot admit: demote to
                    // read-only until the probe proves writes work again.
                    self.demote(HealthState::ReadOnly);
                    let msg = e.msg;
                    return Err(self.shed(
                        code::BUSY,
                        &format!("live-session table full and evicting {victim} failed: {msg}"),
                    ));
                }
            }
            // An evicted session's trained surrogate is exactly what the
            // warm store wants: harvest it as the entry goes.
            if let Some(entry) = self.live.remove(&victim) {
                Self::harvest_warm(&mut self.warm, &entry.session);
            }
        }
        self.busy_streak = 0;
        Ok(())
    }

    /// Builds the warm-store key for a session.
    fn warm_key(kernel: &str, space: &ParameterSpace, spec: SurrogateSpec) -> WarmKey {
        WarmKey::new(kernel, space, spec.name(), NOISE_REGIME)
    }

    /// Looks up a cached surrogate for a prospective session. `None` when
    /// the store is disabled or has no matching entry.
    fn probe_warm(
        &mut self,
        kernel: &str,
        space: &ParameterSpace,
        spec: SurrogateSpec,
    ) -> Option<WarmStart> {
        let store = self.warm.as_mut()?;
        let key = Self::warm_key(kernel, space, spec);
        let entry = store.probe(&key)?;
        Some(WarmStart {
            snapshot: entry.model.clone(),
            observations: entry.observations,
        })
    }

    /// Offers a session's trained surrogate to the warm store (associated
    /// fn so callers can split the borrow of `self.warm` from `self.live`).
    fn harvest_warm(warm: &mut Option<WarmStore>, session: &TuningSession) {
        let Some(store) = warm.as_mut() else { return };
        let Some((depth, snapshot)) = session.model_snapshot() else {
            return;
        };
        let key = Self::warm_key(session.kernel(), session.space(), session.spec());
        store.insert(&key, depth, snapshot);
    }

    /// Checkpoints every dirty live session (shutdown/EOF/drain path) and
    /// reports the per-session outcome as a [`DrainSummary`] instead of
    /// free-form stderr lines — the drain verb and both transports render
    /// the same structured `drained ok <n> failed <m>` summary. With the
    /// default cadence of 1 nothing is ever dirty here. Fitted live
    /// surrogates are also harvested into the warm store, which is then
    /// persisted — advisory, so store failures are carried in the summary
    /// but never counted against the flush.
    pub fn flush_all(&mut self) -> DrainSummary {
        let mut outcomes = Vec::new();
        let ids: Vec<String> = self.live.keys().cloned().collect();
        for id in ids {
            let path = self.session_path(&id);
            let Some(entry) = self.live.get_mut(&id) else {
                continue;
            };
            let outcome = if entry.dirty() {
                match entry.commit(&path) {
                    Ok(()) => FlushOutcome::Flushed,
                    Err(e) => {
                        self.flush_failures += 1;
                        FlushOutcome::Failed(e.msg)
                    }
                }
            } else {
                FlushOutcome::Clean
            };
            outcomes.push((id, outcome));
        }
        let mut warm_store_error = None;
        if self.warm.is_some() {
            for entry in self.live.values() {
                Self::harvest_warm(&mut self.warm, &entry.session);
            }
            if let Some(store) = &self.warm {
                if let Err(e) = store.save() {
                    warm_store_error =
                        Some(format!("saving warm store {}: {e}", store.path().display()));
                }
            }
        }
        DrainSummary {
            outcomes,
            warm_store_error,
        }
    }

    /// The drain protocol: stop admitting new work, flush every live
    /// session, and report per-session outcomes. After this the ladder is
    /// pinned at [`HealthState::Draining`] — only `sessions`, `health`,
    /// `drain`, `quit` and `shutdown` keep answering.
    pub fn drain(&mut self) -> DrainSummary {
        self.state = HealthState::Draining;
        self.flush_all()
    }
}

fn attached(conn: &ConnState) -> Result<String, ErrReply> {
    conn.current.clone().ok_or_else(|| {
        ErrReply::new(
            code::NO_SESSION,
            "no session attached (newsession or attach first)",
        )
    })
}

fn model_err(e: alic_model::ModelError) -> ErrReply {
    ErrReply::new(code::MODEL, e.to_string())
}

/// Moves a damaged session's header and journal aside as `*.corrupt`.
fn quarantine_session(path: &Path) -> alic_core::Result<()> {
    let journal = journal_path(path);
    if journal.exists() {
        quarantine_file(&journal)?;
    }
    quarantine_file(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::atomic::{AtomicUsize, Ordering};

    static CASE: AtomicUsize = AtomicUsize::new(0);

    fn temp_engine(label: &str) -> (Engine, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "alic-serve-engine-{label}-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = ServeConfig::new(&dir);
        config.default_model = SurrogateSpec::from_name("gp").unwrap();
        (Engine::open(config).unwrap(), dir)
    }

    fn ok(engine: &mut Engine, conn: &mut ConnState, line: &str) -> String {
        let response = engine.handle_line(conn, line);
        let reply = response.reply.expect("non-empty line yields a reply");
        assert!(reply.starts_with("ok "), "{line:?} -> {reply}");
        reply
    }

    fn err(engine: &mut Engine, conn: &mut ConnState, line: &str) -> String {
        let reply = engine.handle_line(conn, line).reply.unwrap();
        assert!(reply.starts_with("err "), "{line:?} -> {reply}");
        reply
    }

    #[test]
    fn full_session_lifecycle_over_the_wire() {
        let (mut engine, dir) = temp_engine("lifecycle");
        let mut conn = ConnState::new();
        let reply = ok(
            &mut engine,
            &mut conn,
            "newsession mvt u:unroll:1:9,t:cache-tile:0:5",
        );
        assert_eq!(reply, "ok session s000000 dim 2");
        assert!(dir.join(SESSIONS_DIR).join("s000000.json").exists());

        let suggest = ok(&mut engine, &mut conn, "suggest 2");
        assert_eq!(suggest.split_whitespace().count(), 4);
        ok(&mut engine, &mut conn, "observe 3,2 1.5");
        ok(&mut engine, &mut conn, "observe 4,1 1.25");
        assert_eq!(ok(&mut engine, &mut conn, "best"), "ok best 4,1 1.25");
        assert_eq!(
            ok(&mut engine, &mut conn, "checkpoint"),
            "ok checkpoint sessions/s000000.json"
        );
        assert_eq!(
            ok(&mut engine, &mut conn, "sessions"),
            "ok sessions s000000"
        );
        let response = engine.handle_line(&mut conn, "quit");
        assert_eq!(response.action, Action::CloseConnection);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn structured_errors_for_misuse() {
        let (mut engine, dir) = temp_engine("errors");
        let mut conn = ConnState::new();
        assert!(err(&mut engine, &mut conn, "best").starts_with("err no-session"));
        assert!(err(&mut engine, &mut conn, "attach s000009").starts_with("err unknown-session"));
        ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9");
        assert!(err(&mut engine, &mut conn, "best").starts_with("err empty"));
        assert!(err(&mut engine, &mut conn, "observe 99 1.0").starts_with("err bad-config"));
        assert!(err(&mut engine, &mut conn, "observe 3,3 1.0").starts_with("err bad-config"));
        assert!(
            err(&mut engine, &mut conn, "newsession mvt u:unroll bogusmodel")
                .starts_with("err bad-model")
        );
        assert!(engine.handle_line(&mut conn, "   ").reply.is_none());
        let long = "x".repeat(MAX_LINE_BYTES + 1);
        assert!(err(&mut engine, &mut conn, &long).starts_with("err "));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_resumes_sessions_with_identical_reads() {
        let (mut engine, dir) = temp_engine("restart");
        let mut conn = ConnState::new();
        ok(
            &mut engine,
            &mut conn,
            "newsession mvt u:unroll:1:20,t:cache-tile:0:6 gp",
        );
        for line in [
            "observe 3,2 4.0",
            "observe 9,1 3.1",
            "observe 14,5 2.8",
            "observe 6,3 3.4",
            "observe 18,0 2.9",
        ] {
            ok(&mut engine, &mut conn, line);
        }
        let best = ok(&mut engine, &mut conn, "best");
        let suggest = ok(&mut engine, &mut conn, "suggest 3");
        // Simulated SIGKILL: drop the engine with no shutdown handshake.
        drop(engine);

        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        assert_eq!(
            ok(&mut engine, &mut conn, "attach s000000"),
            "ok attached s000000 obs 5"
        );
        assert_eq!(ok(&mut engine, &mut conn, "best"), best);
        assert_eq!(ok(&mut engine, &mut conn, "suggest 3"), suggest);
        // Id allocation continues past restored sessions.
        let reply = ok(&mut engine, &mut conn, "newsession mvt u:unroll");
        assert!(reply.starts_with("ok session s000001 "), "{reply}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_eviction_bounds_live_sessions_transparently() {
        let (mut engine, dir) = temp_engine("lru");
        engine.config.max_live = 2;
        let mut conn = ConnState::new();
        ok(&mut engine, &mut conn, "newsession k0 u:unroll:1:9");
        ok(&mut engine, &mut conn, "observe 4 1.0");
        ok(&mut engine, &mut conn, "newsession k1 u:unroll:1:9");
        ok(&mut engine, &mut conn, "newsession k2 u:unroll:1:9");
        assert!(engine.live_sessions() <= 2);
        // The evicted session transparently reloads from its checkpoint.
        assert_eq!(
            ok(&mut engine, &mut conn, "attach s000000"),
            "ok attached s000000 obs 1"
        );
        assert_eq!(ok(&mut engine, &mut conn, "best"), "ok best 4 1.0");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_ties_on_last_touch_break_to_the_smallest_id() {
        let (mut engine, dir) = temp_engine("lru-tie");
        engine.config.max_live = 2;
        let mut conn = ConnState::new();
        ok(&mut engine, &mut conn, "newsession k0 u:unroll:1:9");
        ok(&mut engine, &mut conn, "newsession k1 u:unroll:1:9");
        // Force the tie the LRU clock normally prevents.
        for entry in engine.live.values_mut() {
            entry.last_touch = 7;
        }
        ok(&mut engine, &mut conn, "newsession k2 u:unroll:1:9");
        let resident: Vec<&String> = engine.live.keys().collect();
        assert_eq!(resident, ["s000001", "s000002"], "s000000 should evict");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_store_seeds_sessions_across_restarts() {
        let (mut engine, dir) = temp_engine("warm");
        engine.config.warm_store = Some(dir.join("warm.json"));
        engine.warm = Some(WarmStore::open(dir.join("warm.json")));
        let mut conn = ConnState::new();
        assert_eq!(
            ok(
                &mut engine,
                &mut conn,
                "newsession mvt u:unroll:1:9,t:cache-tile:0:5 gp"
            ),
            "ok session s000000 dim 2",
            "empty store: cold reply is byte-identical to a store-less build"
        );
        for line in [
            "observe 3,2 4.0",
            "observe 9,1 3.1",
            "observe 5,5 2.8",
            "observe 6,3 3.4",
            "observe 8,0 2.9",
        ] {
            ok(&mut engine, &mut conn, line);
        }
        assert_eq!(
            engine.handle_line(&mut conn, "quit").action,
            Action::CloseConnection
        );
        assert_eq!(engine.warm_counters(), Some((0, 1, 1)));
        drop(engine);

        let mut config = ServeConfig::new(&dir);
        config.default_model = SurrogateSpec::from_name("gp").unwrap();
        config.warm_store = Some(dir.join("warm.json"));
        let mut engine = Engine::open(config).unwrap();
        let mut conn = ConnState::new();
        // Same kernel/space/family: seeded from the cached surrogate.
        let reply = ok(
            &mut engine,
            &mut conn,
            "newsession mvt u:unroll:1:9,t:cache-tile:0:5 gp",
        );
        assert_eq!(reply, "ok session s000001 dim 2 warm 5");
        // Counters persist in the store file: 1 miss + 1 store from the
        // first process, plus this hit.
        assert_eq!(engine.warm_counters(), Some((1, 1, 1)));
        // Model-driven from observation zero, and still fully functional.
        ok(&mut engine, &mut conn, "suggest 2");
        ok(&mut engine, &mut conn, "observe 4,4 2.7");
        assert_eq!(ok(&mut engine, &mut conn, "best"), "ok best 4,4 2.7");
        // A different space shape misses and starts cold.
        let reply = ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:5 gp");
        assert_eq!(reply, "ok session s000002 dim 1");
        // Warm sessions survive a second restart through their checkpoint
        // alone (the store is advisory after creation).
        ok(&mut engine, &mut conn, "attach s000001");
        let suggest = ok(&mut engine, &mut conn, "suggest 3");
        drop(engine);
        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        assert_eq!(
            ok(&mut engine, &mut conn, "attach s000001"),
            "ok attached s000001 obs 1"
        );
        assert_eq!(ok(&mut engine, &mut conn, "suggest 3"), suggest);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_warm_store_degrades_to_cold_start() {
        let (engine, dir) = temp_engine("warm-corrupt");
        drop(engine);
        std::fs::write(dir.join("warm.json"), "{half a store").unwrap();
        let mut config = ServeConfig::new(&dir);
        config.default_model = SurrogateSpec::from_name("gp").unwrap();
        config.warm_store = Some(dir.join("warm.json"));
        let mut engine = Engine::open(config).unwrap();
        let mut conn = ConnState::new();
        assert_eq!(
            ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9"),
            "ok session s000000 dim 1"
        );
        assert!(dir.join("warm.json.corrupt").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoints_are_quarantined_with_structured_errors() {
        let (mut engine, dir) = temp_engine("corrupt");
        let mut conn = ConnState::new();
        ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9");
        drop(engine);
        let path = dir.join(SESSIONS_DIR).join("s000000.json");
        std::fs::write(&path, "{torn").unwrap();

        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        let reply = err(&mut engine, &mut conn, "attach s000000");
        assert!(reply.starts_with("err corrupt"), "{reply}");
        assert!(!path.exists());
        assert!(dir.join(SESSIONS_DIR).join("s000000.json.corrupt").exists());
        // The damaged id no longer resolves; the evidence is preserved.
        assert!(err(&mut engine, &mut conn, "attach s000000").starts_with("err unknown-session"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_deadline_sheds_requests_without_mutating() {
        let (mut engine, dir) = temp_engine("deadline");
        let mut conn = ConnState::new();
        ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9");
        engine.config.deadline = Duration::ZERO;
        assert!(err(&mut engine, &mut conn, "observe 4 1.0").starts_with("err deadline"));
        assert!(err(&mut engine, &mut conn, "suggest").starts_with("err deadline"));
        engine.config.deadline = DEFAULT_DEADLINE;
        // The shed observe left no trace.
        assert!(err(&mut engine, &mut conn, "best").starts_with("err empty"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
