//! Resource-pressure survival: the degradation ladder, the drain protocol,
//! and the unified retry policy under randomized ENOSPC/stall schedules.
//!
//! The capstone property: a session driven through random out-of-space and
//! stall injections — with a client that retries through every structured
//! `err` — settles every request to a reply **byte-identical** to the
//! fault-free run's, ends the run back in the `healthy` ladder state, and a
//! final `drain` reports every session flushed with its header and journal
//! byte-identical to the fault-free run's. Replies under pressure are
//! thus a prefix-consistent degradation of the fault-free run: the shed
//! requests disappear, the settled ones are exactly the baseline's.
//!
//! The deterministic tests below pin the individual mechanisms: ladder
//! transitions (healthy → shedding-writes → healthy), the exponential
//! `retry-after-ms` hint and its reset, the watchdog's `err stuck`
//! detach/re-attach cycle, and the structured `drained ok <n> failed <m>`
//! failure report.
//!
//! Every test manipulates the process-global fault plane, so each takes
//! the plane's exclusive guard.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;

use alic::serve::{ConnState, Engine, HealthState, ServeConfig};
use alic::stats::fault::{self, FaultPlan, FaultSite};
use alic::stats::policy;

/// Bounded-but-deeper retry depth: the chaos budgets below total far less,
/// so every settle loop terminates with the budgets spent at the latest.
const MAX_TRIES: usize = 96;

const NEWSESSION: &str = "newsession mvt u:unroll:1:20,t:cache-tile:0:6 gp";
const SID: &str = "s000000";

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "alic-serve-pressure-{label}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The pressure config: a short deadline so injected stalls overrun it, a
/// tight watchdog grace so a stall (which sleeps 2 × deadline × grace)
/// stays short, and the default cadence of 1 so every acknowledged observe
/// is durable before its reply.
fn pressure_config(dir: &Path) -> ServeConfig {
    let mut config = ServeConfig::new(dir);
    config.deadline = Duration::from_millis(50);
    config.watchdog_grace = 3.0;
    config
}

/// The workload ends on an `observe`: its settled `ok` proves the ladder
/// re-admitted writes, i.e. the probe promoted the engine back to healthy.
fn workload() -> Vec<&'static str> {
    vec![
        "observe 3,2 4.0",
        "observe 9,1 3.1",
        "best",
        "observe 14,5 2.8",
        "suggest 2",
        "observe 6,3 3.4",
        "best",
        "observe 18,0 2.9",
    ]
}

/// The session's durable bytes: its header and its journal.
fn durable_bytes(dir: &Path) -> (String, String) {
    let read = |ext: &str| {
        std::fs::read_to_string(dir.join("sessions").join(format!("{SID}.{ext}"))).unwrap()
    };
    (read("json"), read("log"))
}

/// Fault-free replies plus the fault-free final header and journal bytes,
/// computed once under a clean (guarded) plane.
fn baseline() -> &'static (Vec<String>, (String, String)) {
    static BASELINE: OnceLock<(Vec<String>, (String, String))> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let _guard = fault::exclusive_clean();
        let dir = temp_dir("baseline");
        let mut engine = Engine::open(pressure_config(&dir)).unwrap();
        let mut conn = ConnState::new();
        let reply = engine.handle_line(&mut conn, NEWSESSION).reply.unwrap();
        assert!(reply.starts_with("ok session s000000 "), "{reply}");
        let replies = workload()
            .iter()
            .map(|line| {
                let reply = engine.handle_line(&mut conn, line).reply.unwrap();
                assert!(reply.starts_with("ok "), "{line:?} -> {reply}");
                reply
            })
            .collect();
        let checkpoint = durable_bytes(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        (replies, checkpoint)
    })
}

/// A pressure plan: out-of-space failures on the checkpoint writer at rate
/// 1.0, so with budget >= 5 the first commits exhaust
/// `RetryPolicy::LEDGER`'s attempts and trip the ladder, while the tail of
/// the budget is silently absorbed by the retries; occasional fd
/// exhaustion; and a small stall budget (each stall sleeps ~6x the
/// deadline, so rate and budget stay low to bound wall-clock).
fn pressure_plan(seed: u64, enospc: u64, stall: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_site(FaultSite::Enospc, 1.0, Some(enospc))
        .with_site(FaultSite::FdLimit, 0.2, Some(2))
        .with_site(FaultSite::Stall, 0.05, Some(stall))
}

/// Settles one workload line to its final `ok` reply, reconciling the
/// at-least-once window through `attach`'s observation count (an `observe`
/// whose commit landed before its reply was shed is settled, not retried).
/// Every structured `err` — degraded, busy, deadline, stuck, io — is
/// transient under a budgeted plan.
fn settle(engine: &mut Engine, conn: &mut ConnState, line: &str, obs_done: &mut usize) -> String {
    let attach = format!("attach {SID}");
    let prefix = format!("ok attached {SID} obs ");
    let is_observe = line.starts_with("observe ");
    for _ in 0..MAX_TRIES {
        let Some(reply) = engine.handle_line(conn, &attach).reply else {
            continue;
        };
        let Some(rest) = reply.strip_prefix(prefix.as_str()) else {
            continue; // structured err (degraded/stuck/busy/...): retry
        };
        let durable: usize = rest.parse().unwrap();
        if is_observe && durable == *obs_done + 1 {
            *obs_done += 1;
            return format!("ok observed {durable}");
        }
        assert_eq!(
            durable, *obs_done,
            "durable log diverged from the acknowledged prefix"
        );
        let Some(reply) = engine.handle_line(conn, line).reply else {
            continue;
        };
        if reply.starts_with("ok ") {
            if is_observe {
                *obs_done += 1;
            }
            return reply;
        }
    }
    panic!("{line:?} never settled under a budgeted plan")
}

/// Creates the workload's session, retrying through the pressure. A
/// `newsession` shed by the ladder commits nothing (the checkpoint write
/// failed before the id was consumed), but one the watchdog reports as
/// stuck (`err stuck` after an injected stall) may well have committed — so
/// the driver probes the `sessions` listing before re-creating, and
/// attaches to `s000000` if the first attempt already landed.
fn create_session(engine: &mut Engine, conn: &mut ConnState) {
    for _ in 0..MAX_TRIES {
        let reply = engine.handle_line(conn, NEWSESSION).reply.unwrap();
        if reply.starts_with("ok session ") {
            assert!(reply.starts_with("ok session s000000 "), "{reply}");
            return;
        }
        for _ in 0..MAX_TRIES {
            let Some(listing) = engine.handle_line(conn, "sessions").reply else {
                continue;
            };
            if listing == "ok sessions" {
                break; // nothing committed: safe to re-create
            }
            if listing.starts_with("ok sessions s000000") {
                let attach = engine.handle_line(conn, &format!("attach {SID}")).reply;
                if attach.is_some_and(|r| r.starts_with("ok attached ")) {
                    return;
                }
            }
        }
    }
    panic!("newsession never settled under a budgeted plan")
}

proptest! {
    #[test]
    fn pressured_session_settles_to_baseline_and_drains_clean(
        chaos_seed in 0u64..1_000_000,
        enospc in 1u64..16,
        stall in 0u64..2,
    ) {
        // Baseline first: it takes the (non-reentrant) exclusive guard.
        let (base_replies, base_checkpoint) = baseline();
        let dir = temp_dir("pressure");
        let _guard = fault::exclusive(pressure_plan(chaos_seed, enospc, stall));

        let mut engine = Engine::open(pressure_config(&dir)).unwrap();
        let mut conn = ConnState::new();
        create_session(&mut engine, &mut conn);
        let mut obs_done = 0usize;
        for (i, line) in workload().iter().enumerate() {
            let reply = settle(&mut engine, &mut conn, line, &mut obs_done);
            prop_assert_eq!(&reply, &base_replies[i], "op {} ({:?}) diverged", i, line);
        }

        // The pressure subsides (leftover budget would otherwise stall or
        // shed the control verbs below); what the chaos already proved —
        // the byte-identical settled replies — stands.
        fault::deactivate();

        // The final settled observe was admitted, so the ladder is back at
        // healthy whatever it walked through in between.
        prop_assert_eq!(engine.health_state(), HealthState::Healthy);
        let health = engine.handle_line(&mut conn, "health").reply.unwrap();
        prop_assert!(health.starts_with("ok health state=healthy "), "{}", health);

        // Drain: cadence 1 means nothing is dirty, so the drain reports
        // every session safe.
        let drained = engine.handle_line(&mut conn, "drain").reply.unwrap();
        prop_assert!(
            drained.starts_with("ok drained ok 1 failed 0"),
            "{}", drained
        );
        // Draining is terminal: no new work, reads included.
        let shed = engine.handle_line(&mut conn, "observe 1,1 9.9").reply.unwrap();
        prop_assert!(shed.starts_with("err draining "), "{}", shed);
        let health = engine.handle_line(&mut conn, "health").reply.unwrap();
        prop_assert!(health.starts_with("ok health state=draining "), "{}", health);

        // Every acknowledged observe survived into the journal, and header
        // and journal are byte-identical to the fault-free run's.
        let checkpoint = durable_bytes(&dir);
        prop_assert_eq!(&checkpoint.0, &base_checkpoint.0);
        prop_assert_eq!(&checkpoint.1, &base_checkpoint.1);
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Ladder transitions are observable through `health`, and the
/// `retry-after-ms` hint backs off exponentially across consecutive sheds
/// and resets after a successful admission (the satellite regression for
/// the unified `RetryPolicy::SERVE_HINT`).
#[test]
fn degraded_hints_back_off_and_reset_after_readmission() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("ladder");
    // Default config: the 2s deadline keeps the watchdog and cooperative
    // shedding out of this test's way.
    let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
    let mut conn = ConnState::new();
    let reply = engine.handle_line(&mut conn, NEWSESSION).reply.unwrap();
    assert!(reply.starts_with("ok session "), "{reply}");
    assert_eq!(engine.health_state(), HealthState::Healthy);
    let sleeps_before = policy::sleeps();

    // Every checkpoint write hits ENOSPC: the first observe exhausts the
    // ledger policy's 5 attempts and demotes the ladder to shedding-writes.
    fault::install(FaultPlan::new(3).with_site(FaultSite::Enospc, 1.0, Some(1000)));
    let reply = engine
        .handle_line(&mut conn, "observe 3,2 4.0")
        .reply
        .unwrap();
    assert!(
        reply.starts_with("err degraded retry-after-ms 50 "),
        "{reply}"
    );
    assert_eq!(engine.health_state(), HealthState::SheddingWrites);
    assert!(
        policy::sleeps() > sleeps_before,
        "the unified retry policy never slept while ENOSPC was firing"
    );

    // While degraded (and the probe still failing), consecutive write
    // attempts shed with an exponentially backed-off hint...
    for expected in ["100", "200", "400"] {
        let reply = engine
            .handle_line(&mut conn, "observe 3,2 4.0")
            .reply
            .unwrap();
        let prefix = format!("err degraded retry-after-ms {expected} ");
        assert!(reply.starts_with(&prefix), "want {prefix:?}, got {reply}");
    }
    // ...while reads keep answering (no observation committed yet, so the
    // read is `suggest`, which needs none).
    let reply = engine.handle_line(&mut conn, "suggest 1").reply.unwrap();
    assert!(
        reply.starts_with("ok suggest "),
        "shedding-writes must serve reads: {reply}"
    );
    let health = engine.handle_line(&mut conn, "health").reply.unwrap();
    assert!(
        health.starts_with("ok health state=shedding-writes "),
        "{health}"
    );

    // Disk recovers: the next admission probe promotes back to healthy,
    // the observe goes through, and the hint streak resets.
    fault::deactivate();
    let reply = engine
        .handle_line(&mut conn, "observe 3,2 4.0")
        .reply
        .unwrap();
    assert_eq!(reply, "ok observed 1");
    assert_eq!(engine.health_state(), HealthState::Healthy);

    fault::install(FaultPlan::new(5).with_site(FaultSite::Enospc, 1.0, Some(1000)));
    let reply = engine
        .handle_line(&mut conn, "observe 9,1 3.1")
        .reply
        .unwrap();
    assert!(
        reply.starts_with("err degraded retry-after-ms 50 "),
        "hint streak must reset after a successful admission: {reply}"
    );
    fault::deactivate();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The watchdog flags a stalled request, detaches its session like the
/// panic path, and a re-attach restores it from the durable checkpoint.
#[test]
fn watchdog_detaches_a_stalled_request_and_reattach_restores() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("watchdog");
    let mut config = pressure_config(&dir);
    config.deadline = Duration::from_millis(30);
    config.watchdog_grace = 2.0;
    let mut engine = Engine::open(config).unwrap();
    let mut conn = ConnState::new();
    engine.handle_line(&mut conn, NEWSESSION).reply.unwrap();
    for line in ["observe 3,2 4.0", "observe 9,1 3.1"] {
        let reply = engine.handle_line(&mut conn, line).reply.unwrap();
        assert!(reply.starts_with("ok observed "), "{reply}");
    }

    // One stall: the request sleeps ~4x its deadline, the watchdog (limit
    // 2x) flags it, and the engine enforces the flag on completion.
    fault::install(FaultPlan::new(9).with_site(FaultSite::Stall, 1.0, Some(1)));
    let reply = engine
        .handle_line(&mut conn, &format!("attach {SID}"))
        .reply
        .unwrap();
    assert!(reply.starts_with("err stuck "), "{reply}");
    fault::deactivate();

    // The stuck session was detached exactly like the panic path...
    let reply = engine.handle_line(&mut conn, "best").reply.unwrap();
    assert!(reply.starts_with("err no-session "), "{reply}");
    // ...and a re-attach restores it from its checkpoint, nothing lost.
    let reply = engine
        .handle_line(&mut conn, &format!("attach {SID}"))
        .reply
        .unwrap();
    assert_eq!(reply, format!("ok attached {SID} obs 2"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Stuck detection reads the clock when the request returns, so the verdict
/// cannot depend on thread scheduling: with a 1ms deadline and grace 1, a
/// request stalled for 2ms is stuck every time, and grace 0 disables the
/// check even for that stall.
#[test]
fn stuck_detection_is_deterministic() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("stuck");
    let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
    let mut conn = ConnState::new();
    engine.handle_line(&mut conn, NEWSESSION).reply.unwrap();
    let reply = engine
        .handle_line(&mut conn, "observe 3,2 4.0")
        .reply
        .unwrap();
    assert_eq!(reply, "ok observed 1");
    drop(engine);

    let stalled_attach = |grace: f64| {
        let mut config = ServeConfig::new(&dir);
        config.deadline = Duration::from_millis(1);
        config.watchdog_grace = grace;
        let mut engine = Engine::open(config).unwrap();
        let mut conn = ConnState::new();
        fault::install(FaultPlan::new(31).with_site(FaultSite::Stall, 1.0, Some(1)));
        let reply = engine
            .handle_line(&mut conn, &format!("attach {SID}"))
            .reply
            .unwrap();
        fault::deactivate();
        reply
    };
    for run in 0..20 {
        let reply = stalled_attach(1.0);
        assert!(reply.starts_with("err stuck "), "run {run}: {reply}");
    }
    for run in 0..20 {
        let reply = stalled_attach(0.0);
        assert_eq!(reply, format!("ok attached {SID} obs 1"), "run {run}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Drain failures are reported structurally — one `drained ok <n> failed
/// <m>` line naming each failed session — not as free-form stderr.
#[test]
fn drain_reports_failed_flushes_per_session() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("drainfail");
    let mut config = ServeConfig::new(&dir);
    config.checkpoint_every = 10; // keep the session dirty for the drain
    let mut engine = Engine::open(config).unwrap();
    let mut conn = ConnState::new();
    engine.handle_line(&mut conn, NEWSESSION).reply.unwrap();
    let reply = engine
        .handle_line(&mut conn, "observe 3,2 4.0")
        .reply
        .unwrap();
    assert_eq!(reply, "ok observed 1");

    // The flush hits a dead disk: the drain must say which session stayed
    // volatile instead of quietly exiting.
    fault::install(FaultPlan::new(13).with_site(FaultSite::Enospc, 1.0, Some(1000)));
    let reply = engine.handle_line(&mut conn, "drain").reply.unwrap();
    assert_eq!(reply, format!("ok drained ok 0 failed 1 {SID}=failed"));
    fault::deactivate();

    // Draining pins the ladder: recovery does not re-admit work.
    let reply = engine
        .handle_line(&mut conn, "observe 9,1 3.1")
        .reply
        .unwrap();
    assert!(reply.starts_with("err draining "), "{reply}");
    // A second drain with the disk back retries the flush and succeeds.
    let reply = engine.handle_line(&mut conn, "drain").reply.unwrap();
    assert_eq!(reply, format!("ok drained ok 1 failed 0 {SID}=flushed"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `fdlimit` site reaches the directory-scan path with a structured
/// reply, and `health` surfaces per-site injection counters.
#[test]
fn fdlimit_fails_sessions_scan_structurally_and_health_counts_it() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("fdlimit");
    let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
    let mut conn = ConnState::new();
    engine.handle_line(&mut conn, NEWSESSION).reply.unwrap();

    fault::install(FaultPlan::new(21).with_site(FaultSite::FdLimit, 1.0, Some(1)));
    let reply = engine.handle_line(&mut conn, "sessions").reply.unwrap();
    assert!(
        reply.starts_with("err io ") && reply.contains("file-descriptor exhaustion"),
        "{reply}"
    );
    let health = engine.handle_line(&mut conn, "health").reply.unwrap();
    assert!(health.contains("fdlimit:1"), "{health}");
    fault::deactivate();

    let reply = engine.handle_line(&mut conn, "sessions").reply.unwrap();
    assert_eq!(reply, format!("ok sessions {SID}"));
    std::fs::remove_dir_all(&dir).unwrap();
}
