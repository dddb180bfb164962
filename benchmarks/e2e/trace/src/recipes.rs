//! In-process replicas of the workloads' trial recipes, built from the
//! simulator's public API with a [`Probe`] around every call into a layer.
//!
//! Each function mirrors one experiment binary's trial step for step: the
//! same builder knobs, the same polling ticks, the same watchdogs, the
//! same fold. `trace.replica_agreement` checks the mirror against the
//! binary's own artefact at every run; below 1 means a binary's recipe
//! changed and this file has to follow it.

use bench::trial::{canonical_write_payload, TrialOutcome};
use bench::{SeriesAccumulator, TrialMetrics};
use ble_devices::Lightbulb;
use ble_link::Llid;
use ble_phy::{Environment, PhyMode};
use ble_scenario::{Scenario, ScenarioBuilder, TelemetryMode};
use ble_telemetry::SpanKind;
use injectable::{Attacker, Mission, ResyncPolicy};
use simkit::{Duration, FaultPlan, FrameLossRule, Instant, InterferenceBurst};

use crate::probe::{Phase, Probe};

/// How a replica pass configures its worlds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Setup {
    /// Attach the in-memory metrics sink (else telemetry is off).
    pub metrics: bool,
    /// Enable the medium's delivery tracker (exp6 always has it).
    pub tracker: bool,
}

/// Per-packet rows the delivery tracker keeps (exp6's setting).
const TRACKER_ROWS: usize = 128;

/// The trial of one workload at one sweep point.
pub fn trial(
    workload: &str,
    parameter: &str,
    value: f64,
    seed: u64,
    setup: Setup,
    probe: &mut Probe,
    acc: &mut SeriesAccumulator,
) {
    match workload {
        "fig9-sweep" => paper_trial(&fig9_rig(value), seed, setup, probe, acc),
        "fault-storm" => paper_trial(&fault_rig(parameter, value), seed, setup, probe, acc),
        "multi-conn" => multi_conn_trial(value as usize, seed, setup, probe, acc),
        "dense-band" => dense_trial(value as usize, seed, setup, probe, acc),
        other => unreachable!("no recipe for workload {other}"),
    }
}

/// Whether the workload's binary runs with the metrics sink attached.
pub fn binary_metrics(workload: &str) -> bool {
    workload != "multi-conn"
}

fn telemetry(setup: Setup) -> TelemetryMode {
    if setup.metrics {
        TelemetryMode::Metrics
    } else {
        TelemetryMode::Off
    }
}

fn with_tracker(b: ScenarioBuilder, setup: Setup) -> ScenarioBuilder {
    if setup.tracker {
        b.delivery_tracker(TRACKER_ROWS)
    } else {
        b
    }
}

fn following(sc: &Scenario) -> bool {
    sc.attacker()
        .connection()
        .map(|c| c.has_slave_seq())
        .unwrap_or(false)
}

fn restart_resync(sc: &mut Scenario, probe: &mut Probe) {
    let id = sc.attacker_id.expect("the paper rig has an attacker");
    sc.world
        .with_node_ctx::<Attacker, _>(id, |a, ctx| a.restart_resync(ctx));
    probe.note_restart();
}

fn arm(sc: &mut Scenario) {
    sc.attacker_mut().arm(Mission::InjectRaw {
        llid: Llid::StartOrComplete,
        payload: canonical_write_payload(),
        wanted_successes: 1,
    });
}

/// `Scenario::wait_synchronised`, with each 100 ms tick attributed to the
/// connection or to the attacker's synchronisation, whichever it waits on.
fn wait_synchronised(sc: &mut Scenario, budget: Duration, probe: &mut Probe) -> bool {
    let deadline = sc.now() + budget;
    while sc.now() < deadline {
        let phase = if sc.central().ll.is_connected() {
            Phase::Sync
        } else {
            Phase::Connect
        };
        probe.run_for(phase, sc, Duration::from_millis(100));
        if sc.central().ll.is_connected() && following(sc) {
            return true;
        }
    }
    false
}

/// The `bench::rig::RigConfig` knobs the paper-rig binaries vary.
struct PaperRig {
    hop_interval: u16,
    faults: Option<FaultPlan>,
    resync: Option<ResyncPolicy>,
    budget: Duration,
}

/// `exp1_hop_interval`: `TrialConfig::new` with the hop interval set.
fn fig9_rig(hop_interval: f64) -> PaperRig {
    PaperRig {
        hop_interval: hop_interval as u16,
        faults: None,
        resync: None,
        budget: Duration::from_secs(120),
    }
}

/// `ablation_faults`: its `base_cfg`, plus the row's plan (none on the
/// zero rows, which are the unimpaired controls).
fn fault_rig(parameter: &str, level: f64) -> PaperRig {
    const FAULT_SPAN_US: u64 = 95_000_000;
    let faults = (level > 0.0).then(|| {
        if parameter == "burst_duty" {
            (0..37u8).fold(FaultPlan::seeded(0xB0057), |plan, channel| {
                plan.with_burst(InterferenceBurst::duty_cycle(
                    channel,
                    Instant::ZERO,
                    Duration::from_micros(FAULT_SPAN_US),
                    Duration::from_millis(100),
                    level,
                    -42.0,
                ))
            })
        } else {
            (0..37u8).fold(FaultPlan::seeded(0x1055), |plan, channel| {
                plan.with_loss(FrameLossRule {
                    from: Instant::ZERO,
                    until: Instant::from_micros(FAULT_SPAN_US),
                    channel: Some(channel),
                    loss_prob: level,
                    corrupt_prob: level * 0.5,
                })
            })
        }
    });
    PaperRig {
        hop_interval: 36,
        faults,
        resync: Some(ResyncPolicy {
            campaign_hops: 900,
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_secs(2),
            max_retries: 4,
        }),
        budget: Duration::from_secs(60),
    }
}

/// `bench::run_trial` through `ExperimentRig::with_telemetry`.
fn paper_trial(
    rig: &PaperRig,
    seed: u64,
    setup: Setup,
    probe: &mut Probe,
    acc: &mut SeriesAccumulator,
) {
    let wall_start = bench::wallclock::Stopwatch::start();
    let mut b = ScenarioBuilder::paper_rig(seed)
        .telemetry(telemetry(setup))
        .span_clock(bench::wallclock::monotonic_ns)
        .hop_interval(rig.hop_interval)
        .attacker_distance(2.0)
        .central_distance(2.0)
        .victim_sca_ppm(50.0)
        .attacker_sca_ppm(20.0)
        .widening_scale(1.0)
        .attacker_tx_dbm(bench::rig::ATTACKER_TX_DBM)
        .phy(PhyMode::Le1M);
    if let Some(plan) = &rig.faults {
        b = b.faults(plan.clone());
    }
    if let Some(policy) = &rig.resync {
        b = b.attacker_resync(policy.clone());
    }
    let mut sc = with_tracker(b, setup).build();
    // `ExperimentRig` reads the control handle right after the build.
    let _control = sc.victim_control_handle();
    let registry = sc.metrics().cloned();
    let sync_span = sc.world.span_enter(SpanKind::TrialSync, 0);
    let synced = wait_synchronised(&mut sc, Duration::from_secs(30), probe);
    sc.world.span_exit(sync_span);
    let sync_wall_s = wall_start.elapsed_s();
    let mut attempts = None;
    let mut attack_wall_s = 0.0;
    let mut effect_observed = false;
    if synced {
        arm(&mut sc);
        let deadline = sc.now() + rig.budget;
        let mut stalled = 0u32;
        let follow_span = sc.world.span_enter(SpanKind::TrialFollow, 0);
        while sc.now() < deadline {
            probe.run_for(Phase::Attack, &mut sc, Duration::from_millis(200));
            let attacker = sc.attacker();
            if attacker.stats().successes() >= 1 {
                attempts = attacker.stats().attempts_to_first_success();
                break;
            }
            if attacker.resync_exhausted() {
                break;
            }
            // bench::trial's StallTracker: 10 unsynchronised ticks bounce.
            if attacker.connection().is_some() {
                stalled = 0;
                continue;
            }
            stalled += 1;
            if stalled < 10 {
                continue;
            }
            stalled = 0;
            if sc.central().ll.is_connected() {
                sc.central_mut().ll.request_disconnect(0x13);
            }
            probe.note_bounce();
            restart_resync(&mut sc, probe);
        }
        sc.world.span_exit(follow_span);
        attack_wall_s = wall_start.elapsed_s() - sync_wall_s;
        probe.enter(Phase::Fold, &sc);
        let verify_span = sc.world.span_enter(SpanKind::TrialVerify, 0);
        effect_observed = sc.victim::<Lightbulb>().app.pings > 0;
        sc.world.span_exit(verify_span);
    } else {
        probe.enter(Phase::Fold, &sc);
    }
    sc.world.flush_telemetry();
    let metrics =
        registry.map(|reg| TrialMetrics::from_registry(&reg.lock(), sync_wall_s, attack_wall_s));
    acc.fold(&TrialOutcome {
        attempts,
        sim_seconds: sc.now().as_micros_f64() / 1e6,
        effect_observed,
        metrics,
        telemetry_downgraded: sc.telemetry_downgraded,
    });
    probe.end_trial(&mut sc);
}

/// `exp5_multi_conn`'s `run_multi_conn_trial`.
fn multi_conn_trial(
    conns: usize,
    seed: u64,
    setup: Setup,
    probe: &mut Probe,
    acc: &mut SeriesAccumulator,
) {
    let b = ScenarioBuilder::paper_rig(seed)
        .multi_peripheral(conns)
        .telemetry(telemetry(setup));
    let mut sc = with_tracker(b, setup).build();
    let target = if conns > 1 {
        *sc.extra_conn_handles
            .last()
            .expect("multi_peripheral(n>1) yields extra handles")
    } else {
        sc.central().conn_handles()[0]
    };
    assert!(sc.aim_attacker_at(target), "fresh handle cannot be stale");
    let mut attempts = None;
    let mut effect_observed = false;
    // Scenario::wait_connections(conns, 120 s).
    let deadline = sc.now() + Duration::from_secs(120);
    while sc.now() < deadline && sc.live_connections() < conns {
        probe.run_for(Phase::Connect, &mut sc, Duration::from_millis(100));
    }
    let connected = sc.live_connections() >= conns;
    let synced = connected && {
        let deadline = sc.now() + Duration::from_secs(120);
        let mut unfollowed = 0u32;
        loop {
            if sc.now() >= deadline {
                break false;
            }
            probe.run_for(Phase::Sync, &mut sc, Duration::from_millis(100));
            if following(&sc) && sc.live_connections() >= conns {
                break true;
            }
            if sc.attacker().connection().is_some() {
                unfollowed = 0;
                continue;
            }
            unfollowed += 1;
            if unfollowed >= 30 {
                unfollowed = 0;
                if let Some(current) = sc.central().conn_manager().handle_at(target.index()) {
                    sc.bounce_connection(current);
                }
                probe.note_bounce();
                restart_resync(&mut sc, probe);
            }
        }
    };
    if synced {
        arm(&mut sc);
        let deadline = sc.now() + Duration::from_secs(120);
        let mut stalled = 0u32;
        while sc.now() < deadline {
            probe.run_for(Phase::Attack, &mut sc, Duration::from_millis(200));
            if sc.attacker().stats().successes() >= 1 {
                attempts = sc.attacker().stats().attempts_to_first_success();
                break;
            }
            if sc.attacker().resync_exhausted() {
                break;
            }
            if sc.attacker().connection().is_some() {
                stalled = 0;
                continue;
            }
            stalled += 1;
            if stalled >= 10 {
                stalled = 0;
                restart_resync(&mut sc, probe);
            }
        }
        probe.enter(Phase::Fold, &sc);
        effect_observed = if conns > 1 {
            sc.extra_peripheral::<Lightbulb>(conns - 2).app.pings > 0
        } else {
            sc.victim::<Lightbulb>().app.pings > 0
        };
    } else {
        probe.enter(Phase::Fold, &sc);
    }
    acc.fold(&TrialOutcome {
        attempts,
        sim_seconds: sc.now().as_micros_f64() / 1e6,
        effect_observed,
        metrics: None,
        telemetry_downgraded: false,
    });
    probe.end_trial(&mut sc);
}

/// `exp6_dense_band`'s `run_dense_trial`.
fn dense_trial(
    pairs: usize,
    seed: u64,
    setup: Setup,
    probe: &mut Probe,
    acc: &mut SeriesAccumulator,
) {
    // The binary always tracks delivery; `setup.tracker` cannot add to it.
    let mut sc = ScenarioBuilder::paper_rig(seed)
        .environment(Environment::dense_hall())
        .background_pairs(pairs)
        .delivery_tracker(TRACKER_ROWS)
        .telemetry(telemetry(setup))
        .build();
    let mut attempts = None;
    let mut effect_observed = false;
    if wait_synchronised(&mut sc, Duration::from_secs(30), probe) {
        arm(&mut sc);
        let deadline = sc.now() + Duration::from_secs(20);
        let mut stalled = 0u32;
        while sc.now() < deadline {
            probe.run_for(Phase::Attack, &mut sc, Duration::from_millis(200));
            if sc.attacker().stats().successes() >= 1 {
                attempts = sc.attacker().stats().attempts_to_first_success();
                break;
            }
            if sc.attacker().resync_exhausted() {
                break;
            }
            if sc.attacker().connection().is_some() {
                stalled = 0;
                continue;
            }
            stalled += 1;
            if stalled >= 10 {
                stalled = 0;
                restart_resync(&mut sc, probe);
            }
        }
        probe.enter(Phase::Fold, &sc);
        effect_observed = sc.victim::<Lightbulb>().app.pings > 0;
    } else {
        probe.enter(Phase::Fold, &sc);
    }
    // The binary's band statistics: flush, delivery totals, collisions.
    sc.world.flush_telemetry();
    let _band = (
        sc.delivery_totals().expect("tracker was enabled"),
        sc.metrics()
            .map(|reg| reg.lock().counter("phy.collision"))
            .unwrap_or(0),
    );
    acc.fold(&TrialOutcome {
        attempts,
        sim_seconds: sc.now().as_micros_f64() / 1e6,
        effect_observed,
        metrics: None,
        telemetry_downgraded: false,
    });
    probe.end_trial(&mut sc);
}
