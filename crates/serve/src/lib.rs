//! `alic-serve` — the autotuning daemon.
//!
//! Turns the batch experiment stack into a long-lived service: a persistent
//! process speaking a hand-rolled line-based text protocol over stdin or
//! TCP, where each tuning session owns a live incremental surrogate
//! (PR 3/5 made updates cheap enough for interactive use).
//!
//! The headline property is **crash safety**, built from the same pieces as
//! the self-healing campaign runner:
//!
//! * every acknowledged mutation is durable before the reply is written —
//!   a session is a write-once header plus an append-only journal of
//!   observation records ([`durable`]), written through the campaign
//!   ledger's retrying, read-back-verifying writers, so a SIGKILLed daemon
//!   restarts and resumes every session with **bit-identical** surrogate
//!   state (the journal is an event log replayed through the deterministic
//!   fit/update paths, not serialized model internals);
//! * read-only requests (`suggest`, `best`) are pure functions of durable
//!   state, so their replies are byte-identical before and after a restart;
//! * every request runs under a deadline with panic isolation
//!   (`catch_unwind`, like `heal_campaign`) — one poisoned session is
//!   detached and later restored from its checkpoint, never taking the
//!   process down;
//! * malformed input always yields a structured `err <code> <msg>` reply;
//! * under load the daemon degrades gracefully: the live-session table is
//!   bounded with LRU idle eviction to checkpoint, and requests that cannot
//!   be served are shed with an explicit `busy` reply carrying a
//!   retry-after hint;
//! * under *resource pressure* it walks an explicit degradation ladder
//!   (healthy → shedding-writes → read-only → draining) instead of failing
//!   randomly: persistent checkpoint-write failures shed writes while reads
//!   keep answering, eviction failures go read-only, and a successful probe
//!   write promotes back to healthy ([`engine::HealthState`]);
//! * `health` reports the ladder state plus fault/retry counters, `drain`
//!   (or SIGTERM, in both transports) stops admission and flushes every
//!   session with a structured per-session outcome report
//!   ([`engine::DrainSummary`]);
//! * a request that returns after blowing through its deadline by a grace
//!   factor (`--watchdog-grace`) is stuck: its session is detached like
//!   the panic path and restored from its checkpoint on re-attach.
//!
//! The `alic_stats::fault` chaos plane reaches into the daemon end to end:
//! the connection layer has injection sites for dropped connections
//! mid-line, short reads, and torn replies (see [`chaos`]), on top of the
//! ledger-level write faults the checkpoints inherit.
//!
//! See the crate's `README.md` "Serving" section for the protocol
//! reference, the session lifecycle, and the checkpoint directory layout.

#![warn(missing_docs)]

pub mod chaos;
pub mod daemon;
pub mod durable;
pub mod engine;
pub mod protocol;
pub mod session;
pub mod term;

pub use engine::{
    Action, ConnState, DrainSummary, Engine, FlushOutcome, HealthState, Response, ServeConfig,
};
pub use protocol::{ErrReply, Request, PROTOCOL_VERSION};
pub use session::TuningSession;
