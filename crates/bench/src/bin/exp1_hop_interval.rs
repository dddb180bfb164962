//! Figure 9, experiment 1: injection attempts vs Hop Interval (paper §VII-A).
//!
//! 25 injection trials per hop interval in {25, 50, 75, 100, 125, 150};
//! geometry: 2 m equilateral triangle; injected frame: the 22-byte bulb
//! Write Request.

use bench::{print_series_to, run_point, run_trial, Cli, TrialConfig};
use ble_scenario::ScenarioBuilder;

fn main() {
    let cli = Cli::parse(25);
    let base = cli.seed_base(1_000);
    let cfg = TrialConfig::default();
    let mut rows = Vec::new();
    for hop_interval in [25u16, 50, 75, 100, 125, 150] {
        rows.push(run_point(
            &cli,
            "exp1_hop_interval",
            "hop_interval",
            f64::from(hop_interval),
            base + u64::from(hop_interval),
            |seed| {
                run_trial(
                    ScenarioBuilder::paper_rig(seed).hop_interval(hop_interval),
                    &cfg,
                )
            },
        ));
        eprintln!("hop interval {hop_interval}: done");
    }
    print_series_to(
        "exp1_hop_interval",
        "Experiment 1 — Hop Interval (paper Fig. 9, panel 1)",
        &rows,
        cli.json.as_deref(),
    );
}
