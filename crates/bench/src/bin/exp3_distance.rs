//! Figure 9, experiment 3: injection attempts vs attacker distance
//! (paper §VII-C). Bulb and phone 2 m apart (hop interval 36, the paper's
//! smartphone default); attacker from 1 m to 10 m.

use bench::{print_series_to, run_point, run_trial, Cli, TrialConfig};
use ble_scenario::ScenarioBuilder;

fn main() {
    let cli = Cli::parse(25);
    let base = cli.seed_base(3_000);
    let cfg = TrialConfig::default();
    let mut rows = Vec::new();
    for distance in [1.0f64, 2.0, 4.0, 6.0, 8.0, 10.0] {
        let rig = |seed| {
            ScenarioBuilder::paper_rig(seed)
                .hop_interval(36)
                .attacker_distance(distance)
        };
        rows.push(run_point(
            &cli,
            "exp3_distance",
            "distance_m",
            distance,
            base + distance as u64,
            |seed| run_trial(rig(seed), &cfg),
        ));
        eprintln!("distance {distance} m: done");
    }
    print_series_to(
        "exp3_distance",
        "Experiment 3 — Attacker distance (paper Fig. 9, panel 3)",
        &rows,
        cli.json.as_deref(),
    );
}
