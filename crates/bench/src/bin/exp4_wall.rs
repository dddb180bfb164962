//! Figure 9, wall experiment: injection attempts with the attacker behind
//! a wall at 2–8 m (paper §VII-C, final paragraph).

use bench::{print_series_to, run_point, run_trial, Cli, TrialConfig};
use ble_scenario::ScenarioBuilder;

fn main() {
    let cli = Cli::parse(25);
    let base = cli.seed_base(4_000);
    let cfg = TrialConfig {
        sim_budget: simkit::Duration::from_secs(240),
        ..TrialConfig::default()
    };
    let mut rows = Vec::new();
    for distance in [2.0f64, 4.0, 6.0, 8.0] {
        let rig = |seed| {
            ScenarioBuilder::paper_rig(seed)
                .hop_interval(36)
                .attacker_distance(distance)
                .wall_db(8.0)
        };
        rows.push(run_point(
            &cli,
            "exp4_wall",
            "distance_m",
            distance,
            base + distance as u64,
            |seed| run_trial(rig(seed), &cfg),
        ));
        eprintln!("wall distance {distance} m: done");
    }
    print_series_to(
        "exp4_wall",
        "Experiment 4 — Attacker behind a wall (paper Fig. 9, panel 4)",
        &rows,
        cli.json.as_deref(),
    );
}
