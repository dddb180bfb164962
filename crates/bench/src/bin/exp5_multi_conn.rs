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
use ble_devices::{Central, Lightbulb};
use ble_host::ConnHandle;
use ble_link::LinkLayer;
use ble_phy::{NodeId, World};
use ble_scenario::{Scenario, ScenarioBuilder};
use injectable::Attacker;
use simkit::{Duration, Instant};

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

/// The Link Layer of the Central's connection slot `slot`, while the slot
/// holds a connection (a bounce releases it until the slot reconnects).
fn slot_ll(w: &World, central: NodeId, slot: usize) -> Option<&LinkLayer> {
    let central = w.node::<Central>(central)?;
    central.ll_for(central.conn_manager().handle_at(slot)?)
}

/// Synchronises the attacker on the link in Central slot `slot`: runs
/// until the attacker follows it with the Slave's sequence bits while all
/// `conns` slots are live, and stops at the event that makes both hold
/// (see [`World::run_until_or`]). Returns `false` at `deadline`.
///
/// The sniffer follows a link only from its `CONNECT_IND`, which it can
/// miss because it scans one advertising channel at a time, and a link
/// that stays up never sends another. So once the target link has run its
/// first connection event with the attacker following nothing, the link
/// is bounced for a fresh `CONNECT_IND`, and the loop runs until it is
/// down before it looks again. It waits for that first event rather than
/// the Central's `TxDone`, because the sniffer decodes the `CONNECT_IND` a
/// propagation delay after the Central has sent it.
fn sync_attacker(sc: &mut Scenario, slot: usize, conns: usize, deadline: Instant) -> bool {
    let central = sc.central_id;
    let attacker = sc.attacker_id.expect("scene has an attacker");
    let synced = |w: &World| {
        w.node::<Attacker>(attacker)
            .and_then(Attacker::connection)
            .is_some_and(|c| c.has_slave_seq())
            && w.node::<Central>(central)
                .is_some_and(|c| c.live_connections() >= conns)
    };
    let unfollowed = |w: &World| {
        w.node::<Attacker>(attacker)
            .is_some_and(|a| a.connection().is_none())
            && slot_ll(w, central, slot)
                .and_then(LinkLayer::connection_info)
                .is_some_and(|c| c.next_event_counter >= 1)
    };
    let synced_or_unfollowed = |w: &World| synced(w) || unfollowed(w);
    let down = |w: &World| slot_ll(w, central, slot).is_none_or(|ll| !ll.is_connected());
    loop {
        if !sc.world.run_until_or(deadline, synced_or_unfollowed) {
            return false;
        }
        if synced(&sc.world) {
            return true;
        }
        Bounce::Slot(slot).apply(sc);
        if !sc.world.run_until_or(deadline, down) {
            return false;
        }
    }
}

/// One multi-connection trial: bring up `conns` concurrent connections,
/// aim the attacker at the newest one, inject until the first confirmed
/// success or the budget runs out.
fn run_multi_conn_trial(seed: u64, conns: usize, cfg: &TrialConfig) -> TrialOutcome {
    let (mut sc, target) = build_multi_conn(seed, conns);
    // Serial establishment: every slot must hold a live connection before
    // the attack phase starts, or the row would not measure `conns`
    // concurrent connections at all.
    let budget = Duration::from_secs(120);
    let synced = sc.wait_connections(conns, budget) && {
        let deadline = sc.now() + budget;
        sync_attacker(&mut sc, target.index(), conns, deadline)
    };
    let mut attempts = None;
    let mut effect_observed = false;
    if synced {
        // A sniffer that loses the target while its link stays up gets no
        // fresh CONNECT_IND from a scan restart alone, so a stall bounces
        // the target slot.
        attempts = attack(
            &mut sc,
            cfg,
            Some(StallWatchdog::new(
                STALL_TICKS,
                Bounce::Slot(target.index()),
            )),
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

    /// 8-connection trials whose attacker lost the target while its link
    /// stayed up, and idled to the end of the budget while the attack's
    /// watchdog only restarted the scan (`Bounce::Resync`).
    const LOST_WHILE_UP: [(u64, u64, usize); 3] = [(2032, 20, 8), (2032, 40, 8), (12353, 34, 8)];

    /// Trials whose set-up ends with the target the last slot up and its
    /// `CONNECT_IND` missed by the sniffer, one per multi-link row.
    const UNFOLLOWED_SET_UPS: [(u64, u64, usize); 3] = [(5002, 2, 2), (5004, 2, 4), (5008, 1, 8)];

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
        for (base, i, conns) in BOUNCE_WEDGES.into_iter().chain(LOST_WHILE_UP) {
            let outcome = run_multi_conn_trial(trial_seed(base, i), conns, &cfg);
            assert!(
                outcome.attempts.is_some(),
                "base {base} trial {i}: no confirmed injection"
            );
        }
    }

    #[test]
    fn an_unfollowed_target_is_bounced_at_its_first_connection_event() {
        for (base, i, conns) in UNFOLLOWED_SET_UPS {
            let (mut sc, target) = build_multi_conn(trial_seed(base, i), conns);
            assert!(sc.wait_connections(conns, Duration::from_secs(120)));
            let up = sc.now();
            let info = sc
                .central()
                .ll_for(target)
                .and_then(LinkLayer::connection_info)
                .expect("the target slot is up");
            assert_eq!(info.next_event_counter, 0, "base {base} trial {i}");
            let first_anchor =
                up + ble_link::timing::transmit_window_offset(info.params.win_offset);
            // Bounced at its first anchor, the link sends its TERMINATE_IND
            // at the next event and is down once that frame has gone out.
            let deadline = first_anchor + info.params.interval() + Duration::from_millis(1);
            let before = sc.central().disconnections;
            assert!(!sync_attacker(&mut sc, target.index(), conns, deadline));
            assert_eq!(
                sc.central().disconnections,
                before + 1,
                "base {base} trial {i}: the target was not bounced by {deadline:?}"
            );
            assert!(
                slot_ll(&sc.world, sc.central_id, target.index()).is_none(),
                "base {base} trial {i}: the target slot is still held"
            );
        }
    }
}
