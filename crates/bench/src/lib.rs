//! Experiment harness reproducing the InjectaBLE evaluation (paper §VII).
//!
//! Each sensitivity experiment runs many independent *trials*. One trial is
//! the paper's unit of measurement: establish a fresh connection between a
//! victim Peripheral and a Central, synchronise the attacker, inject once
//! per connection event, and count **injection attempts before the first
//! confirmed success** (Figure 9's metric).
//!
//! The binaries in `src/bin/` regenerate each panel of Figure 9 plus the
//! scenario/countermeasure tables; see `DESIGN.md` §4 for the index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results. Each sweep
//! binary hands [`run_point`] a seed base and a trial closure per sweep
//! point; the campaign engine does the rest.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod cli;
pub mod report;
pub mod rig;
pub mod stats;
pub mod telemetry;
pub mod trial;
pub mod wallclock;

pub use campaign::{run_campaign_with, run_point, CampaignConfig, CampaignRun, SeriesAccumulator};
pub use cli::Cli;
pub use report::{print_series, print_series_to, SeriesReport};
pub use stats::Summary;
pub use telemetry::{TelemetryMode, TimingBlock, TrialMetrics};
pub use trial::{
    attack, build_trial, run_built, run_trial, StallWatchdog, TrialConfig, TrialOutcome,
};
