//! End-to-end benchmark of the InjectaBLE reproduction.
//!
//! The harness runs the experiment binaries as users do: one subprocess,
//! one worker, a seed, a JSON artefact. It checks every artefact, and
//! prints each metric by name with its unit. See `README.md` for the
//! workloads, the metrics and their bounds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artefact;
pub mod catalogue;
pub mod compare;
pub mod json;
pub mod report;
pub mod run;
pub mod runner;
pub mod stats;
