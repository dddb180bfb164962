//! Experiment 5: injection success vs concurrent connection count.
//!
//! The paper's experiments attack a Central with a single connection; this
//! sweep loads the Central's fixed connection slots with 1–8 concurrent
//! peripherals (slot-pooled multi-connection host) and aims the attacker at
//! the *newest* connection. The metric stays Figure 9's: injection attempts
//! before the first confirmed success. Establishment is serialised by the
//! Central, so the swept axis is "how many live connections share the
//! Central's radio and packet pool while the attack runs".

use bench::trial::STALL_TICKS;
use bench::{
    attack, print_series_to, run_point, Bounce, Cli, StallWatchdog, TrialConfig, TrialOutcome,
};
use ble_devices::Lightbulb;
use ble_host::ConnHandle;
use ble_scenario::{Scenario, ScenarioBuilder};
use simkit::Duration;

/// Sync-phase ticks (100 ms each) without a followed connection before
/// the target link is bounced.
const UNFOLLOWED_TICKS: u32 = 30;

/// Builds a trial's world with `conns` Central slots and aims the
/// attacker at the newest one. Returns the scenario and the target handle.
fn build_multi_conn(seed: u64, conns: usize) -> (Scenario, ConnHandle) {
    let mut sc = ScenarioBuilder::paper_rig(seed)
        .multi_peripheral(conns)
        .build();
    // Aim before the world runs: the sniffer must see the target's
    // CONNECT_IND, and establishment is serialised with the victim first.
    let target = if conns > 1 {
        *sc.extra_conn_handles
            .last()
            .expect("multi_peripheral(n>1) yields extra handles")
    } else {
        sc.central().conn_handles()[0]
    };
    assert!(sc.aim_attacker_at(target), "fresh handle cannot be stale");
    (sc, target)
}

/// One multi-connection trial: bring up `conns` concurrent connections,
/// aim the attacker at the newest one, inject until the first confirmed
/// success or the budget runs out.
fn run_multi_conn_trial(seed: u64, conns: usize, cfg: &TrialConfig) -> TrialOutcome {
    let (mut sc, target) = build_multi_conn(seed, conns);
    // Serial establishment: every slot must hold a live connection before
    // the attack phase starts, or the row would not measure `conns`
    // concurrent connections at all.
    let mut synced = sc.wait_connections(conns, Duration::from_secs(120));
    if synced {
        // Attacker synchronisation against the target connection. The
        // sniffer scans one advertising channel at a time, so it usually
        // misses the target's one CONNECT_IND during serial bring-up — and
        // an established slot never sends another. Bounce the target link
        // whenever the attacker has gone a while without following: the
        // slot auto-reconnects with a fresh CONNECT_IND for the sniffer.
        let deadline = sc.now() + Duration::from_secs(120);
        let mut watchdog = StallWatchdog::new(UNFOLLOWED_TICKS, Bounce::Slot(target.index()));
        synced = loop {
            if sc.now() >= deadline {
                break false;
            }
            sc.run_for(Duration::from_millis(100));
            let following = sc
                .attacker()
                .connection()
                .map(|c| c.has_slave_seq())
                .unwrap_or(false);
            if following && sc.live_connections() >= conns {
                break true;
            }
            watchdog.tick(&mut sc);
        };
    }
    let mut attempts = None;
    let mut effect_observed = false;
    if synced {
        // The Central re-establishes dropped slots on its own (fresh
        // CONNECT_IND), so a desynchronised attacker only needs its scan
        // restarted.
        attempts = attack(
            &mut sc,
            cfg,
            Some(StallWatchdog::new(STALL_TICKS, Bounce::Resync)),
        );
        // Observable effect on the *target* peripheral's application.
        effect_observed = if conns > 1 {
            sc.extra_peripheral::<Lightbulb>(conns - 2).app.pings > 0
        } else {
            sc.victim::<Lightbulb>().app.pings > 0
        };
    }
    TrialOutcome {
        attempts,
        sim_seconds: sc.now().as_micros_f64() / 1e6,
        effect_observed,
        metrics: None,
        telemetry_downgraded: false,
    }
}

fn main() {
    let cli = Cli::parse(25);
    let base = cli.seed_base(5_000);
    let cfg = TrialConfig::default();
    let mut rows = Vec::new();
    for conns in [1usize, 2, 4, 8] {
        rows.push(run_point(
            &cli,
            "exp5_multi_conn",
            "connections",
            conns as f64,
            base + conns as u64,
            |seed| run_multi_conn_trial(seed, conns, &cfg),
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

#[cfg(test)]
mod tests {
    use super::*;
    use bench::trial::trial_seed;

    /// Trials whose set-up once wedged: a sibling slot's transmission
    /// abandoned an initiating slot's `CONNECT_IND` on the shared radio, and
    /// that slot stayed `scanning` for the rest of the budget.
    /// `(seed base, trial index, connections)`.
    const SETUP_WEDGES: [(u64, u64, usize); 6] = [
        (5002, 22, 2),
        (5004, 12, 4),
        (5004, 13, 4),
        (5004, 17, 4),
        (5008, 4, 8),
        (5008, 7, 8),
    ];

    /// Trials whose target slot wedged the same way after the sniffer-sync
    /// watchdog bounced it, so the attacker never followed.
    const BOUNCE_WEDGES: [(u64, u64, usize); 3] = [(5004, 24, 4), (5008, 3, 8), (5008, 13, 8)];

    #[test]
    fn abandoned_connect_ind_does_not_wedge_set_up() {
        for (base, i, conns) in SETUP_WEDGES {
            let (mut sc, _) = build_multi_conn(trial_seed(base, i), conns);
            sc.wait_connections(conns, Duration::from_secs(120));
            let central = sc.central();
            for handle in central.conn_handles() {
                let state = central.ll_for(handle).map(|ll| ll.state_name());
                assert_eq!(
                    state,
                    Some("connected"),
                    "base {base} trial {i}: slot {} is not connected",
                    handle.index()
                );
            }
        }
    }

    #[test]
    fn bounced_target_reconnects_and_the_attack_succeeds() {
        let cfg = TrialConfig::default();
        for (base, i, conns) in BOUNCE_WEDGES {
            let outcome = run_multi_conn_trial(trial_seed(base, i), conns, &cfg);
            assert!(
                outcome.attempts.is_some(),
                "base {base} trial {i}: no confirmed injection"
            );
        }
    }
}
