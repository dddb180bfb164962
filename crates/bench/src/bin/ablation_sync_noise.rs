//! Attacker-quality ablation: how the sniffer's anchor-timestamp noise
//! drives the injection cost.
//!
//! This isolates the mechanism behind the hop-interval sensitivity
//! (EXPERIMENTS.md, experiment 1 discussion): the attacker transmits at
//! `anchor + interval − w_attacker`; its timing error must stay inside the
//! margin `w_slave − w_attacker`, which is only a few µs at small hop
//! intervals. Better timestamps ⇒ cheaper attacks.

use bench::{print_series_to, run_point, run_trial, Cli, TrialConfig};
use ble_scenario::ScenarioBuilder;

fn main() {
    let cli = Cli::parse(25);
    let base = cli.seed_base(13_000);
    let cfg = TrialConfig::default();
    let mut rows = Vec::new();
    for noise_us in [0.5f64, 2.0, 4.0, 8.0, 16.0] {
        let rig = |seed| {
            ScenarioBuilder::paper_rig(seed)
                .hop_interval(25) // the tightest margin of experiment 1
                .attacker_anchor_noise_us(noise_us)
        };
        rows.push(run_point(
            &cli,
            "ablation_sync_noise",
            "noise_us",
            noise_us,
            base + (noise_us * 10.0) as u64,
            |seed| run_trial(rig(seed), &cfg),
        ));
        eprintln!("anchor noise {noise_us} µs: done");
    }
    print_series_to(
        "ablation_sync_noise",
        "Ablation — attacker anchor-timestamp noise (hop interval 25)",
        &rows,
        cli.json.as_deref(),
    );
}
