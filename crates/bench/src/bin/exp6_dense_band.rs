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

use bench::telemetry::phase_profile_from_registry;
use bench::trial::{STALL_TICKS, SYNC_BUDGET};
use bench::{
    attack, print_series_to, run_point, Bounce, Cli, StallWatchdog, TrialConfig, TrialMetrics,
    TrialOutcome,
};
use ble_devices::Lightbulb;
use ble_phy::Environment;
use ble_scenario::{ScenarioBuilder, TelemetryMode};
use ble_telemetry::SpanKind;
use simkit::Duration;

/// One dense-band trial: paper rig plus `pairs` background pairs in the
/// dense hall; inject until the first confirmed success or the budget runs
/// out. The trial's band statistics ride along as counters: frames put on
/// the air (every transmitter, attacker included), `RxStart` events the
/// medium scheduled, and receptions corrupted by an overlapping frame. Its
/// `trial-sync`/`trial-follow` spans report where the simulated time goes.
fn run_dense_trial(seed: u64, pairs: usize, cfg: &TrialConfig) -> TrialOutcome {
    let mut sc = ScenarioBuilder::paper_rig(seed)
        .environment(Environment::dense_hall())
        .background_pairs(pairs)
        .delivery_tracker(128)
        .telemetry(TelemetryMode::Metrics)
        .build();
    let mut attempts = None;
    let mut effect_observed = false;
    // No span clock: the phases report simulated time only, so the hot
    // path reads no clock and the wall columns stay 0.
    let sync_span = sc.world.span_enter(SpanKind::TrialSync, 0);
    let synced = sc.wait_synchronised(SYNC_BUDGET);
    sc.world.span_exit(sync_span);
    if synced {
        // Dense-band collisions can cycle the victim connection while the
        // attacker injects blind; the bulb re-advertises and the Central
        // reconnects on its own, so a stalled attacker only needs its scan
        // restarted.
        let follow_span = sc.world.span_enter(SpanKind::TrialFollow, 0);
        attempts = attack(
            &mut sc,
            cfg,
            Some(StallWatchdog::new(STALL_TICKS, Bounce::Resync)),
        );
        sc.world.span_exit(follow_span);
        effect_observed = sc.victim::<Lightbulb>().app.pings > 0;
    }
    sc.world.flush_telemetry();
    let totals = sc.delivery_totals().expect("tracker was enabled");
    let reg = sc.metrics().expect("the trial runs with metrics").lock();
    TrialOutcome {
        attempts,
        sim_seconds: sc.now().as_micros_f64() / 1e6,
        effect_observed,
        metrics: Some(TrialMetrics {
            phase_profile: phase_profile_from_registry(&reg),
            counters: vec![
                ("tx_frames", totals.tx_frames),
                ("scheduled_rx_starts", totals.scheduled_rx_starts),
                ("collisions", reg.counter("phy.collision")),
            ],
            ..TrialMetrics::default()
        }),
        telemetry_downgraded: false,
    }
}

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
            |seed| run_dense_trial(seed, pairs, &cfg),
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
