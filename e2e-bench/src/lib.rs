//! End-to-end benchmark of the `campaign` and `alic-serve` binaries.
//!
//! The untraced run times the real binaries from outside; a separate traced
//! run rebuilds the same work in process from the crates' public APIs and
//! records spans around each layer's calls. See `README.md` in this
//! directory for the workloads, the metrics and how to run both modes.

pub mod calib;
pub mod campaign;
pub mod metrics;
pub mod proc;
pub mod serve;
pub mod timed;
pub mod trace;
