//! Experiment 6: injection success vs dense-band background load.
//!
//! The paper's testbed is a quiet lab: the victim connection is the only
//! traffic in the 2.4 GHz band. This sweep drops the same rig into a dense
//! hall (path-loss exponent 3.4) shared with 8–512 background connection
//! pairs hopping the 37 data channels, and measures what channel occupancy
//! does to the attack: injection attempts to first success, the band's
//! co-channel collision rate, and how many `RxStart` events the sharded
//! medium schedules per frame (the quantity the channel-sharding rework
//! keeps independent of world size).

use bench::{build_trial, print_series_to, run_built, run_point, Cli, TrialConfig};
use ble_phy::Environment;
use ble_scenario::ScenarioBuilder;
use simkit::Duration;

fn main() {
    let cli = Cli::parse(10);
    let base = cli.seed_base(6_000);
    let cfg = TrialConfig {
        sim_budget: Duration::from_secs(20),
        ..TrialConfig::default()
    };
    let mut rows = Vec::new();
    for pairs in [8usize, 32, 128, 512] {
        let row = run_point(
            &cli,
            "exp6_dense_band",
            "background_pairs",
            pairs as f64,
            base + pairs as u64,
            |seed| {
                let rig = ScenarioBuilder::paper_rig(seed)
                    .environment(Environment::dense_hall())
                    .background_pairs(pairs)
                    .delivery_tracker(128);
                let mut sc = build_trial(rig, &cfg);
                let mut outcome = run_built(&mut sc, &cfg);
                // The band statistics ride along as counters: frames put on
                // the air (every transmitter, attacker included), `RxStart`
                // events the medium scheduled, and receptions corrupted by
                // an overlapping frame.
                if let (Some(metrics), Some(reg)) = (outcome.metrics.as_mut(), sc.metrics()) {
                    let totals = sc.delivery_totals().expect("tracker was enabled");
                    metrics.counters = vec![
                        ("tx_frames", totals.tx_frames),
                        ("scheduled_rx_starts", totals.scheduled_rx_starts),
                        ("collisions", reg.lock().counter("phy.collision")),
                    ];
                }
                outcome
            },
        );
        let frames = row.counter("tx_frames").max(1) as f64;
        let collisions = row.counter("collisions") as f64 / frames;
        let scheduled = row.counter("scheduled_rx_starts") as f64 / frames;
        rows.push(
            row.with_extra("co_channel_collision_rate", collisions)
                .with_extra("mean_scheduled_rx_starts", scheduled),
        );
        eprintln!("background_pairs {pairs}: done");
    }
    print_series_to(
        "exp6_dense_band",
        "Experiment 6 — Dense-band background load (channel-sharded medium)",
        &rows,
        cli.json.as_deref(),
    );
}
