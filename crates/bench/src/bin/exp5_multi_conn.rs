//! Experiment 5: injection success vs concurrent connection count.
//!
//! The paper's experiments attack a Central with a single connection; this
//! sweep loads the Central's fixed connection slots with 1–8 concurrent
//! peripherals (slot-pooled multi-connection host) and aims the attacker at
//! the *newest* connection. The metric stays Figure 9's: injection attempts
//! before the first confirmed success. Establishment is serialised by the
//! Central, so the swept axis is "how many live connections share the
//! Central's radio and packet pool while the attack runs".

use bench::{print_series_to, run_point, run_trial, Cli, TelemetryMode, TrialConfig};
use ble_scenario::ScenarioBuilder;

fn main() {
    let cli = Cli::parse(25);
    let base = cli.seed_base(5_000);
    let cfg = TrialConfig {
        telemetry: TelemetryMode::Off,
        ..TrialConfig::default()
    };
    let mut rows = Vec::new();
    for conns in [1usize, 2, 4, 8] {
        rows.push(run_point(
            &cli,
            "exp5_multi_conn",
            "connections",
            conns as f64,
            base + conns as u64,
            |seed| {
                run_trial(
                    ScenarioBuilder::paper_rig(seed).multi_peripheral(conns),
                    &cfg,
                )
            },
        ));
        eprintln!("connections {conns}: done");
    }
    print_series_to(
        "exp5_multi_conn",
        "Experiment 5 — Concurrent connections (slot-pooled Central)",
        &rows,
        cli.json.as_deref(),
    );
}
