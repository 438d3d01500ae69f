//! The serve session's durable form: a write-once header, an append-only
//! journal, and warm donors stored once by content hash.
//!
//! * **Every torn tail recovers.** A cold dynatree session and a warm gp
//!   session have their journal cut at every byte offset. After each
//!   restart the session reports exactly the records wholly before the cut,
//!   and its `suggest`/`best` replies equal those of the uninterrupted
//!   session at that observation count. A damaged record in the middle is
//!   quarantined as `corrupt` instead.
//! * **O(1) bytes per observe.** The header never changes after
//!   `newsession`, each observe appends at most 64 journal bytes, and two
//!   warm sessions of one kernel share one donor file, which must match
//!   its hash to seed a restore.
//! * **v1 checkpoints upgrade.** A self-contained checkpoint written by an
//!   older daemon attaches with the live session's replies and is left as
//!   header plus journal.
//! * **Rejected observations leave no record.** When the model rejects an
//!   observation after its record was appended, the record is cut off.
//!
//! Every test takes the fault plane's exclusive guard; only the rollback
//! test arms a fault, for one request.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use alic::data::io::JsonValue;
use alic::model::SurrogateSpec;
use alic::serve::protocol::{parse_config, parse_space};
use alic::serve::session::{TuningSession, WarmStart};
use alic::serve::{ConnState, Engine, ServeConfig};
use alic::stats::fault::{self, FaultPlan, FaultSite};

const KERNEL: &str = "mvt";
const SPACE: &str = "u:unroll:1:20,t:cache-tile:0:6";

/// Observations that fit the surrogate and then update it.
const OBSERVES: [&str; 8] = [
    "3,2 4.0",
    "9,1 3.1",
    "14,5 2.8",
    "6,3 3.4",
    "18,0 2.9",
    "11,4 3.05",
    "2,6 3.7",
    "16,2 2.75",
];

/// The observations the warm sessions' donor was trained on.
const DONOR_OBSERVES: [&str; 6] = [
    "4,1 3.9", "8,2 3.3", "12,3 2.9", "16,4 3.0", "20,5 3.6", "10,6 3.2",
];

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "alic-serve-journal-{label}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> ServeConfig {
    let mut config = ServeConfig::new(dir);
    config.warm_store = Some(dir.join("warm.json"));
    config
}

fn send(engine: &mut Engine, conn: &mut ConnState, line: &str) -> String {
    engine.handle_line(conn, line).reply.unwrap()
}

fn ok(engine: &mut Engine, conn: &mut ConnState, line: &str) -> String {
    let reply = send(engine, conn, line);
    assert!(reply.starts_with("ok "), "{line:?} -> {reply}");
    reply
}

fn header(dir: &Path, id: &str) -> PathBuf {
    dir.join("sessions").join(format!("{id}.json"))
}

fn journal(dir: &Path, id: &str) -> PathBuf {
    dir.join("sessions").join(format!("{id}.log"))
}

/// Trains a gp session on [`DONOR_OBSERVES`] and harvests it into the warm
/// store, so the next gp `newsession` of [`KERNEL`] starts warm.
fn harvest_donor(engine: &mut Engine, conn: &mut ConnState) {
    ok(engine, conn, &format!("newsession {KERNEL} {SPACE} gp"));
    for obs in DONOR_OBSERVES {
        ok(engine, conn, &format!("observe {obs}"));
    }
    ok(engine, conn, "quit");
}

/// The attached session's `suggest 1` and `best` replies.
fn reads(engine: &mut Engine, conn: &mut ConnState) -> (String, String) {
    (send(engine, conn, "suggest 1"), send(engine, conn, "best"))
}

/// Creates a session of `model` (asserting it starts `warm` or cold) and
/// feeds it [`OBSERVES`], returning its [`reads`] after each prefix of them
/// (index k: after k observations).
fn live_run(
    engine: &mut Engine,
    conn: &mut ConnState,
    model: &str,
    warm: bool,
) -> Vec<(String, String)> {
    let reply = ok(
        engine,
        conn,
        &format!("newsession {KERNEL} {SPACE} {model}"),
    );
    assert_eq!(reply.ends_with(" warm 6"), warm, "{reply}");
    let mut refs = Vec::new();
    for obs in OBSERVES {
        refs.push(reads(engine, conn));
        ok(engine, conn, &format!("observe {obs}"));
    }
    refs.push(reads(engine, conn));
    refs
}

/// Cuts session `id`'s journal at every byte offset and restarts on each
/// cut; returns the number of offsets covered.
fn every_cut_recovers(dir: &Path, id: &str, refs: &[(String, String)]) -> usize {
    let full = std::fs::read(journal(dir, id)).unwrap();
    assert_eq!(full.iter().filter(|&&b| b == b'\n').count(), OBSERVES.len());
    for cut in 0..=full.len() {
        std::fs::write(journal(dir, id), &full[..cut]).unwrap();
        let whole = full[..cut].iter().filter(|&&b| b == b'\n').count();
        let mut engine = Engine::open(ServeConfig::new(dir)).unwrap();
        let mut conn = ConnState::new();
        assert_eq!(
            send(&mut engine, &mut conn, &format!("attach {id}")),
            format!("ok attached {id} obs {whole}"),
            "{id} cut at byte {cut}"
        );
        assert_eq!(
            reads(&mut engine, &mut conn),
            refs[whole],
            "{id} cut at byte {cut}: replies diverged from the uninterrupted session"
        );
    }
    std::fs::write(journal(dir, id), &full).unwrap();
    full.len() + 1
}

#[test]
fn every_torn_journal_tail_recovers_the_acknowledged_prefix() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("torn");
    let mut engine = Engine::open(config(&dir)).unwrap();
    let mut conn = ConnState::new();
    let cold = live_run(&mut engine, &mut conn, "dynatree", false);
    harvest_donor(&mut engine, &mut conn);
    let warm = live_run(&mut engine, &mut conn, "gp", true);
    drop(engine);

    let offsets =
        every_cut_recovers(&dir, "s000000", &cold) + every_cut_recovers(&dir, "s000002", &warm);
    assert!(offsets > 2 * 8 * 25, "{offsets} offsets");

    // A damaged record in the middle is not a torn tail: the session is
    // quarantined whole.
    let log = std::fs::read_to_string(journal(&dir, "s000002")).unwrap();
    let second = log.find('\n').unwrap() + 1;
    let digit = second + log[second..].find(' ').unwrap() + 3;
    let flipped = if &log[digit..=digit] == "0" { "1" } else { "0" };
    let damaged = format!("{}{flipped}{}", &log[..digit], &log[digit + 1..]);
    std::fs::write(journal(&dir, "s000002"), damaged).unwrap();
    let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
    let mut conn = ConnState::new();
    let reply = send(&mut engine, &mut conn, "attach s000002");
    assert!(reply.starts_with("err corrupt "), "{reply}");
    assert!(!header(&dir, "s000002").exists());
    assert!(dir.join("sessions/s000002.json.corrupt").exists());
    assert!(dir.join("sessions/s000002.log.corrupt").exists());
    let reply = send(&mut engine, &mut conn, "attach s000002");
    assert!(reply.starts_with("err unknown-session "), "{reply}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_observe_appends_a_bounded_record_and_donors_are_stored_once() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("bytes");
    let mut engine = Engine::open(config(&dir)).unwrap();
    let mut conn = ConnState::new();
    harvest_donor(&mut engine, &mut conn);
    let reply = ok(
        &mut engine,
        &mut conn,
        &format!("newsession {KERNEL} {SPACE} gp"),
    );
    assert_eq!(reply, "ok session s000001 dim 2 warm 6");
    let written = std::fs::read(header(&dir, "s000001")).unwrap();
    let mut len = std::fs::metadata(journal(&dir, "s000001")).unwrap().len();
    assert_eq!(len, 0);
    for i in 0..50u32 {
        let (u, t) = (1 + i % 20, i / 20);
        let cost = 2.0 + f64::from((u as i32 - 9).pow(2) + (t as i32 - 3).pow(2)) / 50.0;
        let reply = ok(&mut engine, &mut conn, &format!("observe {u},{t} {cost}"));
        assert_eq!(reply, format!("ok observed {}", i + 1));
        let grown = std::fs::metadata(journal(&dir, "s000001")).unwrap().len();
        assert!(
            grown > len && grown - len <= 64,
            "observe {i}: {len} -> {grown} bytes"
        );
        len = grown;
    }
    assert_eq!(std::fs::read(header(&dir, "s000001")).unwrap(), written);

    let reply = ok(
        &mut engine,
        &mut conn,
        &format!("newsession {KERNEL} {SPACE} gp"),
    );
    assert_eq!(reply, "ok session s000002 dim 2 warm 6");
    let donors: Vec<_> = std::fs::read_dir(dir.join("donors")).unwrap().collect();
    assert_eq!(
        donors.len(),
        1,
        "two warm sessions of one donor share its file"
    );
    drop(engine);

    // A donor that no longer matches its hash cannot seed a restore.
    let donor = donors[0].as_ref().unwrap().path();
    let text = std::fs::read_to_string(&donor).unwrap();
    std::fs::write(&donor, &text[..text.len() / 2]).unwrap();
    let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
    let mut conn = ConnState::new();
    let reply = send(&mut engine, &mut conn, "attach s000001");
    assert!(reply.starts_with("err corrupt "), "{reply}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The v1 checkpoint an older daemon would have written for the live
/// session `id` of `dir`, rebuilt from its header, donor and observations.
fn v1_checkpoint(dir: &Path, id: &str, model: &str, observes: &[&str]) -> String {
    let doc = JsonValue::parse(&std::fs::read_to_string(header(dir, id)).unwrap()).unwrap();
    let seed = u64::from_str_radix(doc.field("seed").unwrap().as_str().unwrap(), 16).unwrap();
    let space = parse_space(SPACE, KERNEL).unwrap();
    let spec = SurrogateSpec::from_name(model).unwrap();
    let mut session = match doc.field("warm") {
        Err(_) => TuningSession::new(id, KERNEL, space, spec, seed),
        Ok(warm) => {
            let hash = warm.field("donor").unwrap().as_str().unwrap();
            let donor = dir.join("donors").join(format!("{hash}.json"));
            let snapshot = JsonValue::parse(&std::fs::read_to_string(donor).unwrap()).unwrap();
            let observations = warm.field("observations").unwrap().as_usize().unwrap();
            let start = WarmStart {
                snapshot,
                observations,
            };
            TuningSession::new_warm(id, KERNEL, space, spec, seed, start).unwrap()
        }
    };
    for obs in observes {
        let (config, cost) = obs.split_once(' ').unwrap();
        session.record(parse_config(config).unwrap(), cost.parse().unwrap());
        session.apply_last().unwrap();
    }
    session.to_checkpoint_string().unwrap()
}

#[test]
fn v1_checkpoints_attach_identically_and_are_rewritten_as_header_plus_journal() {
    let _guard = fault::exclusive_clean();
    let live = temp_dir("v1-live");
    let mut engine = Engine::open(config(&live)).unwrap();
    let mut conn = ConnState::new();
    harvest_donor(&mut engine, &mut conn);
    let warm = live_run(&mut engine, &mut conn, "gp", true);
    ok(&mut engine, &mut conn, "attach s000000");
    let cold = reads(&mut engine, &mut conn);
    drop(engine);

    let old = temp_dir("v1-old");
    std::fs::create_dir_all(old.join("sessions")).unwrap();
    let sessions = [
        ("s000000", &DONOR_OBSERVES[..], cold),
        ("s000001", &OBSERVES[..], warm[OBSERVES.len()].clone()),
    ];
    for (id, observes, _) in &sessions {
        let text = v1_checkpoint(&live, id, "gp", observes);
        assert!(text.contains("alic-serve-session/v1"));
        std::fs::write(header(&old, id), text).unwrap();
    }
    for restart in 0..2 {
        let mut engine = Engine::open(ServeConfig::new(&old)).unwrap();
        let mut conn = ConnState::new();
        for (id, observes, expected) in &sessions {
            assert_eq!(
                send(&mut engine, &mut conn, &format!("attach {id}")),
                format!("ok attached {id} obs {}", observes.len()),
                "restart {restart}"
            );
            assert_eq!(
                &reads(&mut engine, &mut conn),
                expected,
                "{id}, restart {restart}"
            );
            let text = std::fs::read_to_string(header(&old, id)).unwrap();
            assert!(
                text.contains("alic-serve-session/v2"),
                "{id} was not upgraded"
            );
            let log = std::fs::read_to_string(journal(&old, id)).unwrap();
            assert_eq!(log.lines().count(), observes.len());
        }
    }
    assert_eq!(std::fs::read_dir(old.join("donors")).unwrap().count(), 1);
    std::fs::remove_dir_all(&live).unwrap();
    std::fs::remove_dir_all(&old).unwrap();
}

/// At the default cadence the observation is journaled before the model
/// sees it; when the model rejects it, its record is cut back out, so a
/// restart never resurrects it.
#[test]
fn a_rejected_observation_is_cut_from_the_journal() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("rollback");
    let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
    let mut conn = ConnState::new();
    ok(
        &mut engine,
        &mut conn,
        &format!("newsession {KERNEL} {SPACE} gp"),
    );
    for obs in &OBSERVES[..3] {
        ok(&mut engine, &mut conn, &format!("observe {obs}"));
    }
    let before = std::fs::read(journal(&dir, "s000000")).unwrap();
    // The fourth observation triggers the first fit, which fails.
    fault::install(FaultPlan::new(5).with_site(FaultSite::JitterExhaustion, 1.0, Some(1)));
    let reply = send(&mut engine, &mut conn, &format!("observe {}", OBSERVES[3]));
    fault::deactivate();
    assert!(reply.starts_with("err model "), "{reply}");
    assert_eq!(std::fs::read(journal(&dir, "s000000")).unwrap(), before);
    drop(engine);

    let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
    let mut conn = ConnState::new();
    assert_eq!(
        send(&mut engine, &mut conn, "attach s000000"),
        "ok attached s000000 obs 3"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
