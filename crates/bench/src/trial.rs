//! One injection trial = one data point of Figure 9.
//!
//! Every experiment's attack phase is the same loop, [`attack`]: arm the
//! injection, poll the attacker in 200 ms ticks, and stop at the first
//! confirmed success, when the attacker's bounded resync gives up, or at
//! the budget. A [`StallWatchdog`] restarts a desynchronised attacker;
//! each experiment picks its tick count and what a bounce drops first.
//! [`run_trial`] wraps the loop with the paper rig's set-up, spans and
//! metric capture; binaries whose worlds need more set-up (exp5's
//! multi-connection Central) or report other numbers (exp6's band
//! statistics) call [`attack`] from their own trial function.

use ble_devices::Lightbulb;
use ble_link::Llid;
use ble_scenario::{Scenario, ScenarioBuilder};
use ble_telemetry::SpanKind;
use injectable::{Attacker, Mission};
use simkit::Duration;

use crate::telemetry::{TelemetryMode, TrialMetrics};

/// Simulated time a trial may spend bringing the connection up and
/// synchronising the attacker before it counts as a failure.
pub const SYNC_BUDGET: Duration = Duration::from_secs(30);

/// Polling tick of the attack loop.
const ATTACK_TICK: Duration = Duration::from_millis(200);

/// Unsynchronised attack-loop ticks tolerated before a bounce.
pub const STALL_TICKS: u32 = 10;

/// The attack phase of a trial: what to inject and for how long. The scene
/// itself is a [`ScenarioBuilder`] each trial closure builds from its seed.
#[derive(Debug, Clone)]
pub struct TrialConfig {
    /// Raw Link-Layer payload to inject.
    pub payload: Vec<u8>,
    /// LLID for the injected frame.
    pub llid: Llid,
    /// Give up after this much simulated attack time.
    pub sim_budget: Duration,
    /// Telemetry capture mode (default: in-memory metrics).
    pub telemetry: TelemetryMode,
}

impl Default for TrialConfig {
    /// The canonical bulb write payload, a 120 s budget and metrics on.
    fn default() -> Self {
        TrialConfig {
            payload: canonical_write_payload(),
            llid: Llid::StartOrComplete,
            sim_budget: Duration::from_secs(120),
            telemetry: TelemetryMode::default(),
        }
    }
}

/// The paper's canonical injected frame: the ATT Write Request that turns
/// the lightbulb off, L2CAP framed (§VII-A). Padded so the whole frame is
/// 22 bytes on the air like the paper's.
pub fn canonical_write_payload() -> Vec<u8> {
    // Frame = 1 preamble + 4 AA + 2 header + LL payload + 3 CRC bytes.
    // 22 bytes over the air → LL payload of 12 bytes:
    // 4 (L2CAP) + 3 (ATT write hdr) + 5 (value).
    // Value: bulb "ping" command padded to 5 bytes keeps an observable,
    // acknowledged effect.
    let att = ble_host::att::AttPdu::WriteRequest {
        handle: 6, // the bulb control characteristic in the standard rig
        value: ble_devices::bulb_payloads::ping_padded(5),
    }
    .to_bytes();
    let frags = ble_host::l2cap::fragment(ble_host::l2cap::CID_ATT, &att, 27);
    assert_eq!(frags.len(), 1);
    frags.into_iter().next().expect("single fragment").1
}

/// A raw filler payload of an exact Link-Layer payload size (for the
/// payload-size sweep). Shaped like an L2CAP frame so victims parse it
/// harmlessly.
pub fn raw_payload_of_len(len: usize) -> Vec<u8> {
    assert!(len >= 1);
    let mut v = vec![0xEE; len];
    if len >= 4 {
        // Plausible L2CAP header: length + a CID nobody listens on.
        let sdu_len = (len - 4) as u16;
        v[0..2].copy_from_slice(&sdu_len.to_le_bytes());
        v[2..4].copy_from_slice(&0x00FFu16.to_le_bytes());
    }
    v
}

/// Outcome of one trial.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// Attempts before the first confirmed success; `None` if the budget
    /// ran out first.
    pub attempts: Option<u32>,
    /// Simulated seconds consumed.
    pub sim_seconds: f64,
    /// Whether the injected command observably reached the application.
    pub effect_observed: bool,
    /// Telemetry metrics, when the trial ran with a metrics sink.
    pub metrics: Option<TrialMetrics>,
    /// Whether a requested JSONL telemetry sink could not be opened and the
    /// trial silently ran with metrics only.
    pub telemetry_downgraded: bool,
}

impl TrialOutcome {
    /// An *unconfirmed effect*: the injected command observably reached the
    /// application, but the attacker's success heuristic never confirmed an
    /// attempt (e.g. it lost the connection before the Slave's response).
    /// These trials are neither successes nor clean failures and are
    /// surfaced separately in [`crate::SeriesReport`].
    pub fn unconfirmed_effect(&self) -> bool {
        self.effect_observed && self.attempts.is_none()
    }
}

/// What a [`StallWatchdog`] drops before restarting the attacker's scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bounce {
    /// Nothing: the Central re-establishes a dropped link on its own, so a
    /// desynchronised attacker only needs its scan restarted.
    Resync,
    /// The Central's link, so a fresh `CONNECT_REQ` reaches the sniffer.
    /// This is what the paper's operators did when the attacker lost a
    /// connection that cycled while it was injecting blind.
    Central,
    /// The connection in this Central slot. Each bounce bumps the slot's
    /// generation, so the current handle is looked up at bounce time.
    Slot(usize),
}

/// Watchdog over a trial loop's ticks: counts ticks in a row on which the
/// attacker follows no connection and bounces after `limit` of them.
///
/// The Central's own connection state is deliberately **not** consulted:
/// an earlier revision only counted ticks while the Central was connected,
/// which meant a simultaneous Central + attacker outage reset the counter
/// every tick and the bounce never fired — the trial then idled until its
/// whole budget was burned.
#[derive(Debug, Clone)]
pub struct StallWatchdog {
    limit: u32,
    stalled: u32,
    bounce: Bounce,
}

impl StallWatchdog {
    /// Bounces with `bounce` after `limit` unsynchronised ticks in a row.
    pub fn new(limit: u32, bounce: Bounce) -> Self {
        StallWatchdog {
            limit,
            stalled: 0,
            bounce,
        }
    }

    /// Records one tick. Returns `true` when the stall has lasted long
    /// enough to bounce (and starts counting afresh).
    fn note(&mut self, attacker_synced: bool) -> bool {
        if attacker_synced {
            self.stalled = 0;
            return false;
        }
        self.stalled += 1;
        if self.stalled >= self.limit {
            self.stalled = 0;
            return true;
        }
        false
    }

    /// Records one tick of `sc` and bounces when the stall is long enough.
    pub fn tick(&mut self, sc: &mut Scenario) {
        if !self.note(sc.attacker().connection().is_some()) {
            return;
        }
        match self.bounce {
            Bounce::Resync => {}
            Bounce::Central => {
                if sc.central().ll.is_connected() {
                    sc.central_mut().ll.request_disconnect(0x13);
                }
            }
            Bounce::Slot(slot) => {
                if let Some(current) = sc.central().conn_manager().handle_at(slot) {
                    sc.bounce_connection(current);
                }
            }
        }
        // Restart the scan in case the resync loop went quiet (a no-op
        // while the attacker is already scanning or following).
        let attacker_id = sc.attacker_id.expect("scene has an attacker");
        sc.world
            .with_node_ctx::<Attacker, _>(attacker_id, |a, ctx| a.restart_resync(ctx));
    }
}

/// The attack loop: arms a one-shot injection of `cfg.payload` and runs
/// 200 ms ticks until the first confirmed success, until the attacker's
/// bounded resync runs out of retries (the trial is then lost and burning
/// the rest of the budget would not change that), or for
/// `cfg.sim_budget`. `watchdog` runs after every tick that did not stop
/// the loop. Returns the attempts before the first success.
pub fn attack(
    sc: &mut Scenario,
    cfg: &TrialConfig,
    mut watchdog: Option<StallWatchdog>,
) -> Option<u32> {
    sc.attacker_mut().arm(Mission::InjectRaw {
        llid: cfg.llid,
        payload: cfg.payload.clone(),
        wanted_successes: 1,
    });
    let deadline = sc.now() + cfg.sim_budget;
    while sc.now() < deadline {
        sc.run_for(ATTACK_TICK);
        let attacker = sc.attacker();
        if attacker.stats().successes() >= 1 {
            return attacker.stats().attempts_to_first_success();
        }
        if attacker.resync_exhausted() {
            return None;
        }
        if let Some(watchdog) = watchdog.as_mut() {
            watchdog.tick(sc);
        }
    }
    None
}

/// Runs one paper-rig trial to its first confirmed injection: builds
/// `rig` with `cfg.telemetry`, synchronises, runs [`attack`] with a
/// 10-tick watchdog that bounces the Central, and checks the bulb.
pub fn run_trial(rig: ScenarioBuilder, cfg: &TrialConfig) -> TrialOutcome {
    let wall_start = crate::wallclock::Stopwatch::start();
    // Sinks attach before node bootstrap; a failed JSONL sink degrades the
    // trial to metrics-only, recorded so report rows can flag that the
    // artefact the user asked for does not exist. Spans read the
    // quarantined harness clock (R8) and are no-ops without a sink.
    let mut sc = rig
        .telemetry(cfg.telemetry.clone())
        .span_clock(crate::wallclock::monotonic_ns)
        .build();
    let registry = sc.metrics().cloned();
    let sync_span = sc.world.span_enter(SpanKind::TrialSync, 0);
    let synced = sc.wait_synchronised(SYNC_BUDGET);
    sc.world.span_exit(sync_span);
    let sync_wall_s = wall_start.elapsed_s();
    let mut attempts = None;
    let mut effect_observed = false;
    let mut attack_wall_s = 0.0;
    if synced {
        let follow_span = sc.world.span_enter(SpanKind::TrialFollow, 0);
        attempts = attack(
            &mut sc,
            cfg,
            Some(StallWatchdog::new(STALL_TICKS, Bounce::Central)),
        );
        sc.world.span_exit(follow_span);
        attack_wall_s = wall_start.elapsed_s() - sync_wall_s;
        // The verify span closes before the flush below, or its exit
        // record would miss the registry snapshot.
        let verify_span = sc.world.span_enter(SpanKind::TrialVerify, 0);
        effect_observed = sc.victim::<Lightbulb>().app.pings > 0;
        sc.world.span_exit(verify_span);
    }
    sc.world.flush_telemetry();
    TrialOutcome {
        attempts,
        sim_seconds: sc.now().as_micros_f64() / 1e6,
        effect_observed,
        metrics: registry
            .map(|reg| TrialMetrics::from_registry(&reg.lock(), sync_wall_s, attack_wall_s)),
        telemetry_downgraded: sc.telemetry_downgraded,
    }
}

/// Seed for trial `i` of a series with seed base `base`: a golden-ratio
/// stride (`i · 2⁶⁴/φ`, wrapping) away from the base.
///
/// The stride decorrelates neighbouring trials' RNG streams far better
/// than consecutive integers would, while staying a pure function of
/// `(base, i)` so a single trial of a series can be replayed in isolation.
/// Distinct indices map to distinct seeds (the odd stride is invertible
/// modulo 2⁶⁴), so trials within a series never collide.
pub fn trial_seed(base: u64, i: u64) -> u64 {
    base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_point;
    use crate::cli::Cli;

    fn paper_trial(seed: u64, cfg: &TrialConfig) -> TrialOutcome {
        run_trial(ScenarioBuilder::paper_rig(seed), cfg)
    }

    #[test]
    fn canonical_payload_gives_22_byte_frame() {
        let p = canonical_write_payload();
        // LL payload 12 → 1+4+2+12+3 = 22 bytes over the air.
        assert_eq!(p.len(), 12);
    }

    #[test]
    fn raw_payload_sizes() {
        for len in [1usize, 4, 9, 14, 16, 27] {
            assert_eq!(raw_payload_of_len(len).len(), len);
        }
    }

    #[test]
    fn one_trial_succeeds_quickly_at_close_range() {
        let out = paper_trial(42, &TrialConfig::default());
        assert!(out.attempts.is_some(), "trial must succeed: {out:?}");
        assert!(out.attempts.unwrap() <= 50);
        assert!(out.effect_observed, "padded ping must reach the bulb app");
        // Default mode is Metrics: the trial must carry a metric block with
        // the attack-phase histograms populated.
        let metrics = out.metrics.expect("default telemetry mode is Metrics");
        assert!(metrics.events_total > 0);
        assert!(metrics.events_per_sec > 0.0);
        let lead = metrics.lead_time.expect("injection attempts were made");
        assert!(lead.count() >= 1);
        let anchor = metrics.anchor_error.expect("anchors were observed");
        assert!(anchor.count() >= 1);
    }

    #[test]
    fn trial_phases_land_in_the_phase_profile() {
        let out = paper_trial(42, &TrialConfig::default());
        let metrics = out.metrics.expect("default telemetry mode is Metrics");
        let phase = |name: &str| {
            metrics
                .phase_profile
                .iter()
                .find(|p| p.phase == name)
                .copied()
                .unwrap_or_else(|| panic!("phase {name} missing: {:?}", metrics.phase_profile))
        };
        let sync = phase("trial-sync");
        assert_eq!(sync.count, 1);
        assert!(sync.sim_ns > 0, "sync phase consumes simulated time");
        let follow = phase("trial-follow");
        assert_eq!(follow.count, 1);
        assert!(follow.sim_ns > 0);
        let verify = phase("trial-verify");
        assert_eq!(verify.count, 1);
        // Verification is a pure state read: zero simulated time.
        assert_eq!(verify.sim_ns, 0);
        // The attacker and PHY layers report under the trial phases. (No
        // `ll-procedure` row: a clean close-range trial exchanges no LL
        // control PDUs — that span is covered by the ble-link tests.)
        assert!(phase("attacker-scan").count >= 1);
        assert!(phase("attacker-follow").count >= 1);
        assert!(phase("attacker-inject").count >= 1);
        assert!(phase("channel-airtime").count > 10);
        // Airtime nests under the trial phases, so the trial phases' self
        // time is strictly less than their total.
        assert!(follow.self_sim_ns < follow.sim_ns);
    }

    #[test]
    fn telemetry_off_yields_no_metrics() {
        let cfg = TrialConfig {
            telemetry: TelemetryMode::Off,
            ..TrialConfig::default()
        };
        assert!(paper_trial(43, &cfg).metrics.is_none());
    }

    #[test]
    fn telemetry_mode_does_not_perturb_the_simulation() {
        let off = TrialConfig {
            telemetry: TelemetryMode::Off,
            ..TrialConfig::default()
        };
        let a = paper_trial(44, &off);
        let b = paper_trial(44, &TrialConfig::default());
        assert_eq!(a.attempts, b.attempts, "telemetry must be observation-only");
        assert_eq!(a.sim_seconds, b.sim_seconds);
    }

    #[test]
    fn trial_seeds_are_deterministic_and_collision_free() {
        // Pure function of (base, i).
        assert_eq!(trial_seed(7, 3), trial_seed(7, 3));
        assert_eq!(trial_seed(7, 0), 7);
        // Golden-ratio stride, not consecutive integers.
        assert_ne!(trial_seed(7, 1), 8);
        assert_eq!(trial_seed(7, 1), 7u64.wrapping_add(0x9E37_79B9_7F4A_7C15));
        // No collisions across a series far larger than any real sweep.
        #[allow(clippy::disallowed_types)] // scratch set in test code; R7 exempts #[cfg(test)]
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(trial_seed(42, i)), "seed collision at i={i}");
        }
    }

    #[test]
    fn stall_tracker_bounces_even_when_the_central_is_also_down() {
        // Regression: the old watchdog only counted ticks while the Central
        // was connected, so a simultaneous Central + attacker outage never
        // bounced and the trial idled its whole budget away. The watchdog
        // must fire from attacker desynchronisation alone.
        let mut stall = StallWatchdog::new(STALL_TICKS, Bounce::Central);
        for _ in 0..STALL_TICKS - 1 {
            assert!(!stall.note(false));
        }
        assert!(stall.note(false), "bounce fires after the threshold");
        // …and the counter restarts cleanly afterwards.
        assert!(!stall.note(false));
        // A synced tick resets the stall: the full threshold is required
        // again before the next bounce.
        assert!(!stall.note(true));
        for _ in 0..STALL_TICKS - 1 {
            assert!(!stall.note(false));
        }
        assert!(stall.note(false));
    }

    #[test]
    fn unconfirmed_effect_requires_effect_without_confirmation() {
        let mut out = TrialOutcome {
            attempts: None,
            sim_seconds: 1.0,
            effect_observed: true,
            metrics: None,
            telemetry_downgraded: false,
        };
        assert!(out.unconfirmed_effect());
        out.attempts = Some(3);
        assert!(!out.unconfirmed_effect());
        out.attempts = None;
        out.effect_observed = false;
        assert!(!out.unconfirmed_effect());
    }

    #[test]
    fn jsonl_sink_failure_is_recorded_as_a_downgrade() {
        let cfg = TrialConfig {
            sim_budget: Duration::from_secs(30),
            // A path whose parent cannot exist: JsonlSink::create must fail.
            telemetry: TelemetryMode::Jsonl(
                std::path::Path::new("/proc/definitely/not/writable/trial.jsonl").to_path_buf(),
            ),
            ..TrialConfig::default()
        };
        let out = paper_trial(45, &cfg);
        assert!(out.telemetry_downgraded, "failed sink must be recorded");
        assert!(out.metrics.is_some(), "metrics still ride along");
        // A healthy trial never reports a downgrade.
        assert!(!paper_trial(45, &TrialConfig::default()).telemetry_downgraded);
    }

    #[test]
    fn parallel_trials_are_deterministic() {
        let cli = Cli::from_args(Vec::new(), 4);
        let cfg = TrialConfig::default();
        let run = || run_point(&cli, "test", "p", 1.0, 7, |seed| paper_trial(seed, &cfg));
        let (a, b) = (run(), run());
        assert_eq!(a.raw, b.raw);
        assert_eq!(a.succeeded, b.succeeded);
        assert_eq!(a.trials, 4);
        assert_eq!(a.panicked_trials, 0);
    }

    /// A mild but non-trivial impairment plan: every fault family is
    /// represented, yet the trial still succeeds at close range.
    fn mild_fault_plan() -> simkit::FaultPlan {
        use simkit::{DriftExcursion, FadingEpisode, FrameLossRule, Instant, InterferenceBurst};
        simkit::FaultPlan::seeded(0xFA17)
            .with_loss(FrameLossRule {
                from: Instant::ZERO,
                until: Instant::from_micros(60_000_000),
                channel: None,
                loss_prob: 0.05,
                corrupt_prob: 0.05,
            })
            .with_fading(FadingEpisode {
                from: Instant::from_micros(2_000_000),
                until: Instant::from_micros(4_000_000),
                extra_loss_db: 6.0,
            })
            .with_burst(InterferenceBurst::duty_cycle(
                9,
                Instant::ZERO,
                simkit::Duration::from_secs(60),
                simkit::Duration::from_millis(50),
                0.2,
                -40.0,
            ))
            .with_drift(DriftExcursion {
                node_label: "phone".into(),
                from: Instant::from_micros(5_000_000),
                until: Instant::from_micros(8_000_000),
                extra_ppm: 200.0,
            })
    }

    fn short_budget() -> TrialConfig {
        TrialConfig {
            sim_budget: Duration::from_secs(30),
            ..TrialConfig::default()
        }
    }

    #[test]
    fn same_seed_and_fault_plan_reproduce_the_trial_exactly() {
        let run = || {
            let rig = ScenarioBuilder::paper_rig(46).faults(mild_fault_plan());
            run_trial(rig, &short_budget())
        };
        let (a, b) = (run(), run());
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.effect_observed, b.effect_observed);
        let (ma, mb) = (
            a.metrics.expect("metrics on"),
            b.metrics.expect("metrics on"),
        );
        assert_eq!(ma.events_total, mb.events_total);
    }

    #[test]
    fn empty_fault_plan_is_a_true_no_op() {
        let rig = ScenarioBuilder::paper_rig(47).faults(simkit::FaultPlan::seeded(999));
        let a = run_trial(rig, &short_budget());
        let b = paper_trial(47, &short_budget());
        assert_eq!(a.attempts, b.attempts, "empty plan must not perturb");
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.effect_observed, b.effect_observed);
        let (ma, mb) = (
            a.metrics.expect("metrics on"),
            b.metrics.expect("metrics on"),
        );
        assert_eq!(ma.events_total, mb.events_total);
    }

    #[test]
    fn parallel_trials_survive_a_panicking_trial() {
        // The runner panics on two chosen seeds, in debug and release
        // alike. The point must contain the panics, count them against the
        // requested denominator, and keep every other trial's outcome in
        // seed order.
        let cli = Cli::from_args(Vec::new(), 4);
        let cfg = TrialConfig::default();
        let doomed = [trial_seed(99, 1), trial_seed(99, 3)];
        let row = run_point(&cli, "test", "p", 1.0, 99, |seed| {
            assert!(!doomed.contains(&seed), "fixture panic at seed {seed}");
            paper_trial(seed, &cfg)
        });
        assert_eq!(row.trials, 4);
        assert_eq!(row.panicked_trials, 2, "every panicked trial is counted");
        // The same point without the fixture: trials 0 and 2 are the
        // survivors above, with the same outcomes.
        let clean = run_point(&cli, "test", "p", 1.0, 99, |seed| paper_trial(seed, &cfg));
        assert_eq!(clean.panicked_trials, 0);
        assert_eq!(clean.succeeded, 4, "close-range trials all succeed");
        assert_eq!(row.succeeded, 2);
        assert_eq!(row.raw, [clean.raw[0], clean.raw[2]]);
    }
}
