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
//! watchdog stays off here, because its bounces would mix harness drops
//! into the attack phase's; the set-up wait's own bounces are subtracted.

use bench::trial::SYNC_BUDGET;
use bench::{attack, print_series_to, run_point, Cli, TrialConfig, TrialMetrics, TrialOutcome};
use ble_devices::Lightbulb;
use ble_scenario::{Scenario, ScenarioBuilder};
use simkit::Duration;

/// The victim's connection drops, less the set-up wait's bounces, which
/// are the harness's and not the countermeasure's.
fn victim_drops(sc: &Scenario) -> u64 {
    let drops = sc.victim::<Lightbulb>().disconnections as u64;
    drops.saturating_sub(u64::from(sc.bounces))
}

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
    TrialOutcome {
        attempts,
        sim_seconds: sc.now().as_micros_f64() / 1e6,
        effect_observed: sc.victim::<Lightbulb>().app.pings > 0,
        metrics: Some(TrialMetrics {
            counters: vec![("victim_drops", victim_drops(&sc))],
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

#[cfg(test)]
mod tests {
    use super::*;
    use bench::trial::trial_seed;

    #[test]
    fn a_set_up_bounce_is_not_a_victim_drop() {
        let mut sc = ScenarioBuilder::paper_rig(trial_seed(9_000, 0)).build();
        assert!(sc.wait_synchronised(SYNC_BUDGET));
        // After this bounce, the set-up wait finds the re-established link
        // unfollowed and bounces it again. The victim sees every bounce as
        // a drop, and the trial counts none of them.
        sc.bounce_target();
        sc.run_for(Duration::from_secs(1));
        assert!(sc.wait_synchronised(SYNC_BUDGET));
        assert!(sc.bounces > 1, "the set-up wait did not bounce");
        let drops = sc.victim::<Lightbulb>().disconnections;
        assert_eq!(drops as u64, u64::from(sc.bounces));
        assert_eq!(victim_drops(&sc), 0);
    }
}
