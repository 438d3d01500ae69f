//! Deterministic, seeded fault-injection plane.
//!
//! Robustness work needs a fault model it can be *tested* against: "the
//! campaign survives torn writes" is only a claim until a test can tear
//! writes on demand, reproducibly. This module provides that plane for the
//! whole workspace:
//!
//! * a fixed set of [`FaultSite`]s — the places in the stack where faults
//!   can be injected (ledger I/O, unit execution, evaluator observations,
//!   GP factorization, serve-daemon connections),
//! * a [`FaultPlan`] describing, per site, an injection *rate* and an
//!   optional *budget* (maximum number of injections), parseable from the
//!   `ALIC_CHAOS=<seed>:<site>=<rate>[x<budget>],...` environment knob,
//! * a process-global activation switch ([`install`] / [`deactivate`]) with
//!   a branch-cheap [`inject`] query threaded through the instrumented
//!   sites.
//!
//! # Determinism
//!
//! Whether the *k*-th invocation of a site faults is a pure function of
//! `(plan seed, site, k)`: each query draws one uniform value from the
//! [`SmallRng`] substream keyed by site × invocation and compares it to the
//! site's rate. Re-running a serial workload under the same plan reproduces
//! the same fault pattern exactly. Under parallel execution the *assignment*
//! of invocation indices to work items depends on thread interleaving, but
//! the self-healing layers above are required to converge to byte-identical
//! output either way — that is precisely what `tests/chaos_campaign.rs`
//! asserts.
//!
//! # Budgets
//!
//! A site's budget bounds the total number of injections the plan will ever
//! perform at that site. Budgets are what make "heal completely, then
//! compare byte-for-byte" testable: bounded retry loops are guaranteed to
//! out-last a bounded adversary.
//!
//! The plane is inert unless a plan is installed (programmatically or via
//! `ALIC_CHAOS`); the fast path of [`inject`] is one relaxed atomic load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, RwLock};

use crate::rng::SmallRng;

/// The places in the stack where a fault can be injected.
///
/// The discriminants are stable identifiers: they key the per-site RNG
/// substreams, so reordering variants would silently change every fault
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultSite {
    /// `write_atomic` temporary-file write fails with a transient I/O error.
    WriteIo = 0,
    /// `write_atomic` tears the write: only a prefix of the payload lands.
    TornWrite = 1,
    /// `write_atomic` fails to rename the temporary file into place.
    RenameFail = 2,
    /// A campaign work unit panics mid-execution.
    UnitPanic = 3,
    /// The evaluator returns a transient error for a whole work unit.
    EvalError = 4,
    /// A single profiled observation comes back non-finite (NaN runtime).
    ObservationNan = 5,
    /// GP/SGP factorization exhausts its jitter ladder.
    JitterExhaustion = 6,
    /// A serve connection drops mid-line: the line in flight is lost and the
    /// peer sees EOF.
    ConnDrop = 7,
    /// A serve read tears: only a prefix of the line arrives before EOF.
    ShortRead = 8,
    /// A serve reply tears: only a prefix is written, then the socket errors.
    TornReply = 9,
    /// A ledger write fails with out-of-space (`ENOSPC`): the disk is full.
    Enospc = 10,
    /// A serve request stalls: it sleeps for twice its deadline times the
    /// watchdog grace factor (at least 1), so it trips the deadline and,
    /// unless the watchdog is disabled, replies `err stuck`.
    Stall = 11,
    /// File-descriptor exhaustion: opening or writing a file fails with
    /// `EMFILE`-style errors.
    FdLimit = 12,
}

/// Number of distinct fault sites.
pub const SITE_COUNT: usize = 13;

impl FaultSite {
    /// All sites, in identifier order.
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::WriteIo,
        FaultSite::TornWrite,
        FaultSite::RenameFail,
        FaultSite::UnitPanic,
        FaultSite::EvalError,
        FaultSite::ObservationNan,
        FaultSite::JitterExhaustion,
        FaultSite::ConnDrop,
        FaultSite::ShortRead,
        FaultSite::TornReply,
        FaultSite::Enospc,
        FaultSite::Stall,
        FaultSite::FdLimit,
    ];

    /// Stable index of this site (also its RNG substream label).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The short name used in `ALIC_CHAOS` specs.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WriteIo => "io",
            FaultSite::TornWrite => "torn",
            FaultSite::RenameFail => "rename",
            FaultSite::UnitPanic => "panic",
            FaultSite::EvalError => "eval",
            FaultSite::ObservationNan => "nan",
            FaultSite::JitterExhaustion => "jitter",
            FaultSite::ConnDrop => "conndrop",
            FaultSite::ShortRead => "shortread",
            FaultSite::TornReply => "tornreply",
            FaultSite::Enospc => "enospc",
            FaultSite::Stall => "stall",
            FaultSite::FdLimit => "fdlimit",
        }
    }

    /// Parses a short site name from an `ALIC_CHAOS` spec.
    pub fn from_name(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Injection parameters for one site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSpec {
    /// Probability in `[0, 1]` that any given invocation faults.
    pub rate: f64,
    /// Maximum number of injections ever performed at this site
    /// (`None` = unbounded).
    pub budget: Option<u64>,
}

/// A complete description of which faults to inject and how often.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    sites: [Option<SiteSpec>; SITE_COUNT],
}

impl FaultPlan {
    /// An empty plan (no sites armed) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: [None; SITE_COUNT],
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Arms `site` with the given rate and optional injection budget.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is not a probability in `[0, 1]`.
    pub fn with_site(mut self, site: FaultSite, rate: f64, budget: Option<u64>) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate must lie in [0, 1], got {rate}"
        );
        self.sites[site.index()] = Some(SiteSpec { rate, budget });
        self
    }

    /// The spec armed at `site`, if any.
    pub fn site(&self, site: FaultSite) -> Option<SiteSpec> {
        self.sites[site.index()]
    }

    /// Whether the `invocation`-th query at `site` rolls a fault under this
    /// plan, *ignoring budgets* — the pure deterministic core of the plane.
    pub fn would_inject(&self, site: FaultSite, invocation: u64) -> bool {
        match self.sites[site.index()] {
            None => false,
            Some(spec) => {
                let mut rng = SmallRng::substream(self.seed, site.index() as u64, invocation);
                rng.gen_range_f64(0.0, 1.0) < spec.rate
            }
        }
    }

    /// Parses a `<seed>:<site>=<rate>[x<budget>],...` spec, the format of
    /// the `ALIC_CHAOS` environment variable.
    ///
    /// # Examples
    ///
    /// ```
    /// use alic_stats::fault::{FaultPlan, FaultSite};
    /// let plan = FaultPlan::parse("42:torn=0.2x5,nan=0.05").unwrap();
    /// assert_eq!(plan.seed(), 42);
    /// assert_eq!(plan.site(FaultSite::TornWrite).unwrap().budget, Some(5));
    /// assert!(plan.site(FaultSite::WriteIo).is_none());
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let (seed_part, sites_part) = spec
            .split_once(':')
            .ok_or_else(|| format!("chaos spec {spec:?} is missing the '<seed>:' prefix"))?;
        let seed: u64 = seed_part
            .trim()
            .parse()
            .map_err(|_| format!("chaos seed {seed_part:?} is not a u64"))?;
        let mut plan = FaultPlan::new(seed);
        for entry in sites_part.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (name, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("chaos site entry {entry:?} is missing '='"))?;
            let site = FaultSite::from_name(name.trim()).ok_or_else(|| {
                let known: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
                format!(
                    "unknown chaos site {:?} (known sites: {})",
                    name.trim(),
                    known.join(", ")
                )
            })?;
            let (rate_part, budget) = match value.split_once('x') {
                Some((r, b)) => {
                    let budget: u64 = b
                        .trim()
                        .parse()
                        .map_err(|_| format!("chaos budget {b:?} is not a u64"))?;
                    (r, Some(budget))
                }
                None => (value, None),
            };
            let rate: f64 = rate_part
                .trim()
                .parse()
                .map_err(|_| format!("chaos rate {rate_part:?} is not a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("chaos rate {rate} must lie in [0, 1]"));
            }
            plan = plan.with_site(site, rate, budget);
        }
        Ok(plan)
    }
}

/// Mutable per-site state of an installed plan.
#[derive(Debug)]
struct SiteState {
    rate: f64,
    /// Remaining injections (`u64::MAX` = unbounded).
    remaining: AtomicU64,
    /// Invocation counter; each [`inject`] query consumes one index.
    invocations: AtomicU64,
    /// Total injections actually performed.
    injected: AtomicU64,
}

/// An installed plan plus its runtime counters.
#[derive(Debug)]
struct PlaneState {
    seed: u64,
    sites: [Option<SiteState>; SITE_COUNT],
}

impl PlaneState {
    fn from_plan(plan: &FaultPlan) -> PlaneState {
        PlaneState {
            seed: plan.seed,
            sites: plan.sites.map(|spec| {
                spec.map(|spec| SiteState {
                    rate: spec.rate,
                    remaining: AtomicU64::new(spec.budget.unwrap_or(u64::MAX)),
                    invocations: AtomicU64::new(0),
                    injected: AtomicU64::new(0),
                })
            }),
        }
    }
}

/// Fast-path switch: true iff a plane is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLANE: RwLock<Option<Arc<PlaneState>>> = RwLock::new(None);
static ENV_INIT: Once = Once::new();
/// Serializes tests that install a global plane (see [`exclusive`]).
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// The environment variable that arms the plane at process start.
pub const CHAOS_ENV: &str = "ALIC_CHAOS";

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var(CHAOS_ENV) {
            if spec.trim().is_empty() {
                return;
            }
            match FaultPlan::parse(&spec) {
                Ok(plan) => install(plan),
                // A malformed chaos spec silently doing nothing would defeat
                // the point of a chaos run; fail the process loudly instead.
                Err(msg) => panic!("invalid {CHAOS_ENV} spec: {msg}"),
            }
        }
    });
}

/// Installs `plan` as the process-global fault plane.
///
/// Counters and budgets start fresh. Replaces any previously installed plan.
pub fn install(plan: FaultPlan) {
    let state = Arc::new(PlaneState::from_plan(&plan));
    let mut slot = PLANE.write().unwrap_or_else(|e| e.into_inner());
    *slot = Some(state);
    ACTIVE.store(true, Ordering::Release);
}

/// Removes the installed fault plane; [`inject`] returns `false` afterwards.
pub fn deactivate() {
    let mut slot = PLANE.write().unwrap_or_else(|e| e.into_inner());
    ACTIVE.store(false, Ordering::Release);
    *slot = None;
}

/// Whether a fault plane is currently installed (after lazy `ALIC_CHAOS`
/// initialization).
pub fn is_active() -> bool {
    init_from_env();
    ACTIVE.load(Ordering::Acquire)
}

/// Queries the plane: should the current invocation of `site` fault?
///
/// Consumes one invocation index at the site, rolls the deterministic
/// substream for it, and charges the site's budget on a hit. Returns `false`
/// always when no plane is installed — the fast path is a single relaxed
/// atomic load.
pub fn inject(site: FaultSite) -> bool {
    init_from_env();
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    let plane = {
        let slot = PLANE.read().unwrap_or_else(|e| e.into_inner());
        match &*slot {
            Some(p) => Arc::clone(p),
            None => return false,
        }
    };
    let Some(state) = &plane.sites[site.index()] else {
        return false;
    };
    let invocation = state.invocations.fetch_add(1, Ordering::Relaxed);
    let mut rng = SmallRng::substream(plane.seed, site.index() as u64, invocation);
    if rng.gen_range_f64(0.0, 1.0) >= state.rate {
        return false;
    }
    // Budget check: only a successful decrement converts the roll into an
    // injection, so a plan can never exceed its per-site budget even under
    // concurrent queries.
    if state
        .remaining
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
        .is_err()
    {
        return false;
    }
    state.injected.fetch_add(1, Ordering::Relaxed);
    true
}

/// The seed of the currently installed fault plane, if any.
///
/// Retry policies ([`crate::policy`]) key their deterministic jitter
/// substreams off this seed so that a chaos run's sleep schedule is as
/// reproducible as its fault pattern.
pub fn plan_seed() -> Option<u64> {
    init_from_env();
    let slot = PLANE.read().unwrap_or_else(|e| e.into_inner());
    slot.as_ref().map(|p| p.seed)
}

/// Total injections performed at `site` by the installed plane (0 when no
/// plane is installed or the site is unarmed).
pub fn injections(site: FaultSite) -> u64 {
    let slot = PLANE.read().unwrap_or_else(|e| e.into_inner());
    match &*slot {
        Some(plane) => plane.sites[site.index()]
            .as_ref()
            .map_or(0, |s| s.injected.load(Ordering::Relaxed)),
        None => 0,
    }
}

/// RAII guard for tests that install a global plane.
///
/// Holding the guard serializes all such tests in the process (the plane is
/// process-global state) and guarantees deactivation on drop, even on
/// panic. Every test in a binary that installs a plane must go through
/// [`exclusive`] / [`exclusive_clean`] — tests that never touch the plane
/// need no guard, but must then not share a binary with chaos tests that
/// could perturb them.
#[derive(Debug)]
pub struct ChaosGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        deactivate();
    }
}

/// Installs `plan` under the test-serialization lock; the returned guard
/// deactivates the plane when dropped.
pub fn exclusive(plan: FaultPlan) -> ChaosGuard {
    let lock = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    install(plan);
    ChaosGuard { _lock: lock }
}

/// Takes the test-serialization lock with the plane *deactivated* — for
/// fault-free baseline phases inside chaos test binaries.
pub fn exclusive_clean() -> ChaosGuard {
    let lock = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    deactivate();
    ChaosGuard { _lock: lock }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_sites_rates_and_budgets() {
        let plan = FaultPlan::parse("7:io=0.5x3, torn=1.0, jitter=0x9").unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(
            plan.site(FaultSite::WriteIo),
            Some(SiteSpec {
                rate: 0.5,
                budget: Some(3)
            })
        );
        assert_eq!(
            plan.site(FaultSite::TornWrite),
            Some(SiteSpec {
                rate: 1.0,
                budget: None
            })
        );
        assert_eq!(
            plan.site(FaultSite::JitterExhaustion),
            Some(SiteSpec {
                rate: 0.0,
                budget: Some(9)
            })
        );
        assert_eq!(plan.site(FaultSite::UnitPanic), None);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "no-colon",
            "x:io=0.5",
            "1:bogus=0.5",
            "1:io",
            "1:io=2.0",
            "1:io=0.5xq",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn rolls_are_deterministic_in_site_and_invocation() {
        let plan = FaultPlan::new(99).with_site(FaultSite::TornWrite, 0.3, None);
        let a: Vec<bool> = (0..64)
            .map(|k| plan.would_inject(FaultSite::TornWrite, k))
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|k| plan.would_inject(FaultSite::TornWrite, k))
            .collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "rate 0.3 should hit within 64 rolls");
        assert!(
            a.iter().any(|&x| !x),
            "rate 0.3 should miss within 64 rolls"
        );
        // Unarmed sites never roll a fault.
        assert!(!plan.would_inject(FaultSite::WriteIo, 0));
    }

    #[test]
    fn name_roundtrip_covers_every_site() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::from_name(site.name()), Some(site));
        }
        assert_eq!(FaultSite::from_name("nonsense"), None);
    }

    #[test]
    fn connection_sites_have_stable_indices() {
        // The discriminants key the RNG substreams; these pins catch an
        // accidental reorder, which would silently change every fault
        // pattern (and every chaos test baseline) at once.
        assert_eq!(FaultSite::ConnDrop.index(), 7);
        assert_eq!(FaultSite::ShortRead.index(), 8);
        assert_eq!(FaultSite::TornReply.index(), 9);
        assert_eq!(FaultSite::Enospc.index(), 10);
        assert_eq!(FaultSite::Stall.index(), 11);
        assert_eq!(FaultSite::FdLimit.index(), 12);
        assert_eq!(FaultSite::ALL.len(), SITE_COUNT);
        let plan = FaultPlan::parse("3:conndrop=0.5x2,shortread=0.25,tornreply=1.0x1").unwrap();
        assert_eq!(
            plan.site(FaultSite::ConnDrop),
            Some(SiteSpec {
                rate: 0.5,
                budget: Some(2)
            })
        );
        assert_eq!(
            plan.site(FaultSite::TornReply),
            Some(SiteSpec {
                rate: 1.0,
                budget: Some(1)
            })
        );
    }

    #[test]
    fn global_plane_respects_rates_budgets_and_deactivation() {
        let guard = exclusive(
            FaultPlan::new(1)
                .with_site(FaultSite::EvalError, 1.0, Some(2))
                .with_site(FaultSite::UnitPanic, 0.0, None),
        );
        assert!(is_active());
        // Rate 1.0 with budget 2: exactly two injections, then dry.
        assert!(inject(FaultSite::EvalError));
        assert!(inject(FaultSite::EvalError));
        assert!(!inject(FaultSite::EvalError));
        assert_eq!(injections(FaultSite::EvalError), 2);
        // Rate 0.0 never fires; unarmed sites never fire.
        assert!(!inject(FaultSite::UnitPanic));
        assert!(!inject(FaultSite::TornWrite));
        drop(guard);
        assert!(!inject(FaultSite::EvalError));
    }

    #[test]
    fn pressure_sites_parse_and_expose_the_plan_seed() {
        let plan = FaultPlan::parse("17:enospc=0.4x3,stall=0.2,fdlimit=1.0x1").unwrap();
        assert_eq!(
            plan.site(FaultSite::Enospc),
            Some(SiteSpec {
                rate: 0.4,
                budget: Some(3)
            })
        );
        assert_eq!(
            plan.site(FaultSite::Stall),
            Some(SiteSpec {
                rate: 0.2,
                budget: None
            })
        );
        assert_eq!(
            plan.site(FaultSite::FdLimit),
            Some(SiteSpec {
                rate: 1.0,
                budget: Some(1)
            })
        );
        let guard = exclusive(plan);
        assert_eq!(plan_seed(), Some(17));
        drop(guard);
        assert_eq!(plan_seed(), None);
    }

    #[test]
    fn global_rolls_match_the_pure_plan() {
        let plan = FaultPlan::new(12345).with_site(FaultSite::WriteIo, 0.4, None);
        let expected: Vec<bool> = (0..32)
            .map(|k| plan.would_inject(FaultSite::WriteIo, k))
            .collect();
        let guard = exclusive(plan);
        let got: Vec<bool> = (0..32).map(|_| inject(FaultSite::WriteIo)).collect();
        assert_eq!(got, expected);
        drop(guard);
    }
}
