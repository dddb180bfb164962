//! Ablation of the paper's first countermeasure (§VIII): shrinking the
//! Slave's receive-window widening.
//!
//! Paper: *"by reducing the duration of the widening windows the
//! possibility for an attacker to inject a frame at the right time will be
//! mechanically reduced … the rate of successful injection will decrease
//! due to the collision with a legitimate frame. However … such an approach
//! … could have side effects on the reliability and stability of the
//! communications."*
//!
//! We sweep the widening scale and report both sides of that trade-off:
//! the attacker's cost (attempts to first success, success rate within the
//! budget) and the victim's health (`victim_drops`: connection drops summed
//! over the row's trials, a `[metric]` line and a JSON extra). The stall
//! watchdog stays off here: a harness bounce would be counted as a victim
//! drop.

use bench::trial::SYNC_BUDGET;
use bench::{attack, print_series_to, run_point, Cli, TrialConfig, TrialMetrics, TrialOutcome};
use ble_devices::Lightbulb;
use ble_scenario::ScenarioBuilder;
use simkit::Duration;

/// One trial at widening scale `scale`. A trial that never synchronises
/// is a failure in the requested-trial denominator, like everywhere else.
fn run_widening_trial(seed: u64, scale: f64, cfg: &TrialConfig) -> TrialOutcome {
    let mut sc = ScenarioBuilder::paper_rig(seed)
        .widening_scale(scale)
        .build();
    let attempts = if sc.wait_synchronised(SYNC_BUDGET) {
        attack(&mut sc, cfg, None)
    } else {
        None
    };
    let bulb = sc.victim::<Lightbulb>();
    TrialOutcome {
        attempts,
        sim_seconds: sc.now().as_micros_f64() / 1e6,
        effect_observed: bulb.app.pings > 0,
        metrics: Some(TrialMetrics {
            counters: vec![("victim_drops", bulb.disconnections as u64)],
            ..TrialMetrics::default()
        }),
        telemetry_downgraded: false,
    }
}

fn main() {
    let cli = Cli::parse(25);
    let base = cli.seed_base(9_000);
    let cfg = TrialConfig {
        sim_budget: Duration::from_secs(60),
        ..TrialConfig::default()
    };
    let mut rows = Vec::new();
    for (i, scale) in [1.0f64, 0.75, 0.5, 0.25, 0.1].into_iter().enumerate() {
        let row = run_point(
            &cli,
            "ablation_widening",
            "widening_scale",
            scale,
            base + i as u64,
            |seed| run_widening_trial(seed, scale, &cfg),
        );
        let drops = row.counter("victim_drops") as f64;
        rows.push(row.with_extra("victim_drops", drops));
        eprintln!("widening scale {scale}: done");
    }
    print_series_to(
        "ablation_widening",
        "Ablation — reduced window widening (paper §VIII, countermeasure 1)",
        &rows,
        cli.json.as_deref(),
    );
    println!("Reading: smaller widening ⇒ the injection needs more attempts (or");
    println!("fails outright), while victim connection drops rise — the paper's");
    println!("predicted reliability cost of the countermeasure.");
}
