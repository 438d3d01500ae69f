//! The on-disk form of a serve session: a write-once header, an
//! append-only journal, and content-addressed warm donors.
//!
//! ```text
//! <dir>/
//!   sessions/
//!     s000000.json     # header: id, kernel, model, seed, space [, warm]
//!     s000000.log      # journal: one checksummed record per observation
//!   donors/
//!     3f9c0e1a2b4d5c6e.json   # a warm donor snapshot, named by its hash
//! ```
//!
//! The header ([`HEADER_SCHEMA`](crate::session::HEADER_SCHEMA)) is written
//! once, at `newsession`. A warm session's header names its donor by the
//! 16-hex content hash of the donor file, which is written once however
//! many sessions adopt it. Every observation then appends one journal
//! record of about 30 bytes: `observe` costs O(1) bytes, not a rewrite of
//! the whole log and the donor.
//!
//! A journal record is one line, `<values> <cost> <check>\n`:
//!
//! * `<values>` — the configuration, comma-joined;
//! * `<cost>` — the cost's IEEE-754 bits as 16 hex digits, so it
//!   round-trips exactly;
//! * `<check>` — 8 hex digits of [`hash_bytes`] over `<values> <cost>`,
//!   salted by the record's ordinal, so a damaged, dropped or reordered
//!   record cannot pass.
//!
//! Recovery keeps every whole record. An unterminated tail is a torn
//! append that was never acknowledged; it is dropped, and the next append
//! cuts it off. A terminated record that fails its check is damage, and
//! the session is quarantined as `corrupt`.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use alic_core::runner::ledger::write_verified;
use alic_data::io::JsonValue;
use alic_model::snapshot::Snapshot;
use alic_sim::space::Configuration;
use alic_stats::rng::{derive_seed, hash_bytes};

use crate::protocol::{code, ErrReply};
use crate::session::TuningSession;

/// Subdirectory of the serve directory holding the content-addressed warm
/// donors.
pub const DONORS_DIR: &str = "donors";

/// Salt of donor content hashes (ASCII `donor`).
const SALT_DONOR: u64 = 0x0064_6f6e_6f72;

/// Salt of journal record checks, combined with the record's ordinal
/// (ASCII `journal`).
const SALT_RECORD: u64 = 0x006a_6f75_726e_616c;

/// The journal next to a session header: `<id>.json` → `<id>.log`.
pub(crate) fn journal_path(header: &Path) -> PathBuf {
    header.with_extension("log")
}

/// One journal record: the `index`-th observation (0-based) as a
/// checksummed, newline-terminated line.
pub(crate) fn journal_record(index: usize, config: &Configuration, cost: f64) -> String {
    let values: Vec<String> = config.values().iter().map(u32::to_string).collect();
    let body = format!("{} {:016x}", values.join(","), cost.to_bits());
    let check = record_check(index, body.as_bytes());
    format!("{body} {check:08x}\n")
}

/// Journal records `from..` of a session's log, concatenated.
pub(crate) fn journal_records(session: &TuningSession, from: usize) -> String {
    session.log()[from..]
        .iter()
        .enumerate()
        .map(|(i, (config, cost))| journal_record(from + i, config, *cost))
        .collect()
}

fn record_check(index: usize, body: &[u8]) -> u32 {
    hash_bytes(derive_seed(SALT_RECORD, index as u64), body) as u32
}

/// A recovered journal: the observations of its whole records and the byte
/// length they span (the committed offset the next append starts at).
#[derive(Debug)]
pub(crate) struct Journal {
    /// Observations in arrival order.
    pub(crate) log: Vec<(Configuration, f64)>,
    /// Bytes covered by whole records.
    pub(crate) len: u64,
}

/// Recovers the journal `bytes` of `session` (whose space validates every
/// record). An unterminated tail is dropped.
///
/// # Errors
///
/// A message naming the first whole record that is damaged.
pub(crate) fn read_journal(bytes: &[u8], session: &TuningSession) -> Result<Journal, String> {
    let mut log = Vec::new();
    let mut pos = 0;
    while let Some(end) = bytes[pos..].iter().position(|&b| b == b'\n') {
        let line = &bytes[pos..pos + end];
        let record = parse_record(log.len(), line)
            .and_then(|(config, cost)| session.checked_observation(config, cost))
            .map_err(|e| format!("journal record {} at byte {pos}: {e}", log.len() + 1))?;
        log.push(record);
        pos += end + 1;
    }
    Ok(Journal {
        log,
        len: pos as u64,
    })
}

fn parse_record(index: usize, line: &[u8]) -> Result<(Configuration, f64), String> {
    let line = std::str::from_utf8(line).map_err(|_| "not UTF-8".to_string())?;
    let (body, check) = line.rsplit_once(' ').ok_or("missing check")?;
    let check = u32::from_str_radix(check, 16).map_err(|_| "malformed check")?;
    if check != record_check(index, body.as_bytes()) {
        return Err("check mismatch".to_string());
    }
    let (values, bits) = body.split_once(' ').ok_or("missing cost")?;
    let values = values
        .split(',')
        .map(|v| v.parse::<u32>())
        .collect::<Result<Vec<u32>, _>>()
        .map_err(|_| "malformed configuration")?;
    let bits = u64::from_str_radix(bits, 16).map_err(|_| "malformed cost")?;
    Ok((Configuration::new(values), f64::from_bits(bits)))
}

/// The content hash naming a donor file: 16 hex digits of [`hash_bytes`]
/// over the file's bytes.
pub(crate) fn donor_hash(text: &str) -> String {
    format!("{:016x}", hash_bytes(SALT_DONOR, text.as_bytes()))
}

/// Parsed warm donors, shared by every session that adopted them and
/// evicted least-recently-used first past a fixed capacity.
#[derive(Debug)]
pub(crate) struct DonorCache {
    dir: PathBuf,
    capacity: usize,
    /// Most recently used last.
    entries: VecDeque<(String, Arc<Snapshot>)>,
}

impl DonorCache {
    /// An empty cache of donors stored under `dir`, holding at most
    /// `capacity` parsed documents.
    pub(crate) fn new(dir: PathBuf, capacity: usize) -> DonorCache {
        DonorCache {
            dir,
            capacity: capacity.max(1),
            entries: VecDeque::new(),
        }
    }

    fn path(&self, hash: &str) -> PathBuf {
        self.dir.join(format!("{hash}.json"))
    }

    fn touch(&mut self, hash: &str) -> Option<Arc<Snapshot>> {
        let at = self.entries.iter().position(|(h, _)| h == hash)?;
        let entry = self.entries.remove(at)?;
        let doc = Arc::clone(&entry.1);
        self.entries.push_back(entry);
        Some(doc)
    }

    fn insert(&mut self, hash: String, doc: Arc<Snapshot>) {
        if self.entries.len() >= self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((hash, doc));
    }

    /// Stores the donor a warm session adopted and returns its hash
    /// (`None` for a cold session). A donor already cached is not
    /// rewritten, and the session is switched to the cached copy;
    /// otherwise the donor file is written (verified) and the session's
    /// copy is cached.
    ///
    /// # Errors
    ///
    /// An `io` reply when the donor cannot be serialized or written.
    pub(crate) fn store(
        &mut self,
        session: &mut TuningSession,
    ) -> Result<Option<String>, ErrReply> {
        let Some(doc) = session.donor().cloned() else {
            return Ok(None);
        };
        let text = doc
            .to_json_string()
            .map(|s| s + "\n")
            .map_err(|e| ErrReply::new(code::IO, format!("serializing donor: {e}")))?;
        let hash = donor_hash(&text);
        if let Some(shared) = self.touch(&hash) {
            session.share_donor(shared);
            return Ok(Some(hash));
        }
        std::fs::create_dir_all(&self.dir).map_err(|e| {
            ErrReply::new(code::IO, format!("creating {}: {e}", self.dir.display()))
        })?;
        write_verified(&self.path(&hash), &text)
            .map_err(|e| ErrReply::new(code::IO, format!("writing donor {hash}: {e}")))?;
        self.insert(hash.clone(), doc);
        Ok(Some(hash))
    }

    /// The donor named `hash`: from memory, or read, checked against its
    /// hash and parsed once.
    ///
    /// # Errors
    ///
    /// `corrupt` when the file is missing, does not match its hash or does
    /// not parse; `io` when it cannot be read.
    pub(crate) fn load(&mut self, hash: &str) -> Result<Arc<Snapshot>, ErrReply> {
        if let Some(doc) = self.touch(hash) {
            return Ok(doc);
        }
        let path = self.path(hash);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(ErrReply::new(
                    code::CORRUPT,
                    format!("donor {hash} is missing"),
                ))
            }
            Err(e) => {
                return Err(ErrReply::new(
                    code::IO,
                    format!("reading donor {hash}: {e}"),
                ))
            }
        };
        if donor_hash(&text) != hash {
            return Err(ErrReply::new(
                code::CORRUPT,
                format!("donor {hash} does not match its hash"),
            ));
        }
        let doc = JsonValue::parse(&text)
            .map_err(|e| ErrReply::new(code::CORRUPT, format!("donor {hash}: {e}")))?;
        let doc = Arc::new(doc);
        self.insert(hash.to_string(), Arc::clone(&doc));
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use alic_model::spec::SurrogateSpec;
    use alic_sim::space::{ParamKind, ParamSpec, ParameterSpace};

    fn session() -> TuningSession {
        let space = ParameterSpace::new(vec![
            ParamSpec::new("u1", ParamKind::Unroll, 1, 12),
            ParamSpec::new("t1", ParamKind::CacheTile, 0, 6),
        ])
        .unwrap();
        TuningSession::new("s000000", "mvt", space, SurrogateSpec::Mean, 1)
    }

    #[test]
    fn records_round_trip_costs_exactly_and_stay_small() {
        let mut s = session();
        for (i, cost) in [4.0, 0.1 + 0.2, 1e-300, 12.345678901234567]
            .iter()
            .enumerate()
        {
            s.record(Configuration::new(vec![12, i as u32]), *cost);
        }
        let text = journal_records(&s, 0);
        assert!(text.lines().all(|l| l.len() < 32), "{text}");
        let journal = read_journal(text.as_bytes(), &s).unwrap();
        assert_eq!(journal.len, text.len() as u64);
        assert_eq!(journal.log.len(), 4);
        for ((c, y), (c2, y2)) in journal.log.iter().zip(s.log()) {
            assert_eq!(c, c2);
            assert_eq!(y.to_bits(), y2.to_bits());
        }
    }

    #[test]
    fn torn_tails_drop_and_damage_or_reordering_fails() {
        let mut s = session();
        s.record(Configuration::new(vec![3, 2]), 4.0);
        s.record(Configuration::new(vec![5, 1]), 3.5);
        let text = journal_records(&s, 0);
        let first = text.find('\n').unwrap() + 1;
        for cut in 0..text.len() {
            let journal = read_journal(&text.as_bytes()[..cut], &s).unwrap();
            let whole = usize::from(cut >= first);
            assert_eq!(journal.log.len(), whole, "cut {cut}");
        }
        let swapped = format!("{}{}", &text[first..], &text[..first]);
        assert!(read_journal(swapped.as_bytes(), &s).is_err());
        let damaged = text.replacen("3,2", "3,3", 1);
        assert!(read_journal(damaged.as_bytes(), &s).is_err());
    }
}
