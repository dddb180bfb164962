//! One injection trial = one data point of Figure 9.
//!
//! A trial is built, then run. [`build_trial`] turns a scene description
//! into a [`Scenario`] with the trial's telemetry, and [`run_built`] runs
//! the paper's recipe on it: [`Scenario::wait_synchronised`] brings every
//! link up and stops at the event that lets the attacker follow the
//! target with the Slave's sequence bits, [`attack`] arms the injection
//! at that instant and stops at the event that records the deciding
//! verdict, and the target's bulb tells whether the command took effect.
//! Both waits run through [`Scenario::run_bouncing`]: they stop exactly
//! at the deciding event, so no simulated time runs past a decision, and
//! they bounce the target ([`Scenario::bounce_target`]) at the event where
//! the attacker follows nothing while the link runs. [`run_trial`] is the
//! two steps in one call, and every sweep binary runs its trials through it
//! or through the two steps, except `ablation_widening`, which composes the
//! set-up wait with an [`attack`] that does not bounce.

use std::cell::Cell;

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

/// The attack phase of a trial: what to inject and for how long. The scene
/// itself is a [`ScenarioBuilder`] each trial closure builds from its seed.
#[derive(Debug, Clone)]
pub struct TrialConfig {
    /// Raw Link-Layer payload to inject, as a start or complete L2CAP
    /// frame.
    pub payload: Vec<u8>,
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

/// The attack loop: arms a one-shot injection of `cfg.payload` and runs
/// the world until the event that gives the first confirmed success, until
/// the event at which the attacker's bounded resync runs out of retries
/// (the trial is then lost and burning the rest of the budget would not
/// change that), or for `cfg.sim_budget`. With `bounce`, the run bounces
/// the target at the event where the attacker loses it (see
/// [`Scenario::run_bouncing`]). Returns the attempts before the first
/// success.
pub fn attack(sc: &mut Scenario, cfg: &TrialConfig, bounce: bool) -> Option<u32> {
    sc.attacker_mut().arm(Mission::InjectRaw {
        llid: Llid::StartOrComplete,
        payload: cfg.payload.clone(),
        wanted_successes: 1,
    });
    let decided = |a: &Attacker| a.stats().successes() >= 1 || a.resync_exhausted();
    let deadline = sc.now() + cfg.sim_budget;
    let stopped = if bounce {
        sc.run_bouncing(deadline, |_, a| decided(a))
    } else {
        let attacker = sc.attacker_id.expect("scene has an attacker");
        sc.world.run_until_or(deadline, |w| {
            w.node::<Attacker>(attacker).is_some_and(decided)
        })
    };
    if stopped {
        sc.attacker().stats().attempts_to_first_success()
    } else {
        None
    }
}

thread_local! {
    /// How many trials the next trial built and run on this thread stands
    /// for in its span wall columns: 1 outside the campaign engine, and
    /// inside it the chunk's length for a chunk's first trial and 0 for the
    /// others, which read no span clock.
    static SPAN_WEIGHT: Cell<u64> = const { Cell::new(1) };
}

/// Runs `f` with the span weight `weight` on this thread (see
/// [`span_weight`]), restoring the previous weight afterwards. `f` must
/// not unwind.
pub(crate) fn with_span_weight<T>(weight: u64, f: impl FnOnce() -> T) -> T {
    let outer = SPAN_WEIGHT.replace(weight);
    let out = f();
    SPAN_WEIGHT.set(outer);
    out
}

/// How many trials the next trial built and run on this thread stands for
/// in its span wall columns (0: it reads no span clock).
pub(crate) fn span_weight() -> u64 {
    SPAN_WEIGHT.get()
}

/// The build step of a trial: builds `rig` with `cfg.telemetry`.
///
/// Inside the campaign engine only a chunk's first trial installs the span
/// clock (see [`run_built`]); called anywhere else, the trial times every
/// span. Spans are no-ops with telemetry off.
pub fn build_trial(rig: ScenarioBuilder, cfg: &TrialConfig) -> Scenario {
    // Sinks attach before node bootstrap; a failed JSONL sink degrades the
    // trial to metrics-only, recorded so report rows can flag that the
    // artefact the user asked for does not exist. Spans read the
    // quarantined harness clock (R8) only in a timed trial.
    let rig = rig.telemetry(cfg.telemetry.clone());
    if span_weight() > 0 {
        rig.span_clock(crate::wallclock::monotonic_ns).build()
    } else {
        rig.build()
    }
}

/// The run step of a trial, on a scene from [`build_trial`]: synchronises,
/// runs a bouncing [`attack`], and checks the target's bulb.
///
/// Inside the campaign engine a chunk's first trial multiplies its phase
/// rows' `wall_ns`/`self_wall_ns` by the chunk's length, so a row's wall
/// columns estimate all its trials; the others report 0 wall.
pub fn run_built(sc: &mut Scenario, cfg: &TrialConfig) -> TrialOutcome {
    let wall_start = crate::wallclock::Stopwatch::start();
    let weight = span_weight();
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
        attempts = attack(sc, cfg, true);
        sc.world.span_exit(follow_span);
        attack_wall_s = wall_start.elapsed_s() - sync_wall_s;
        // The verify span closes before the flush below, or its exit
        // record would miss the registry snapshot.
        let verify_span = sc.world.span_enter(SpanKind::TrialVerify, 0);
        effect_observed = sc.target::<Lightbulb>().app.pings > 0;
        sc.world.span_exit(verify_span);
    }
    sc.world.flush_telemetry();
    TrialOutcome {
        attempts,
        sim_seconds: sc.now().as_micros_f64() / 1e6,
        effect_observed,
        metrics: registry.map(|reg| {
            let mut metrics = TrialMetrics::from_registry(&reg.lock(), sync_wall_s, attack_wall_s);
            for [.., wall_ns, self_wall_ns] in &mut metrics.timing.spans {
                *wall_ns = wall_ns.saturating_mul(weight);
                *self_wall_ns = self_wall_ns.saturating_mul(weight);
            }
            metrics
        }),
        telemetry_downgraded: sc.telemetry_downgraded,
    }
}

/// Runs one trial to its first confirmed injection: [`build_trial`], then
/// [`run_built`].
pub fn run_trial(rig: ScenarioBuilder, cfg: &TrialConfig) -> TrialOutcome {
    run_built(&mut build_trial(rig, cfg), cfg)
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
    use injectable::ResyncPolicy;
    use simkit::{FaultPlan, FrameLossRule, Instant};

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
        assert!(metrics.events_per_sec > 0.0);
        assert!(
            metrics.timing.lead_time.count() >= 1,
            "injection attempts were made"
        );
        assert!(
            metrics.timing.anchor_error.count() >= 1,
            "anchors were observed"
        );
    }

    #[test]
    fn trial_phases_land_in_the_phase_profile() {
        // A JSONL trace rides along with the metrics, so the trial's own
        // transmissions can be counted.
        let trace =
            std::env::temp_dir().join(format!("bench_trial_phases_{}.jsonl", std::process::id()));
        let cfg = TrialConfig {
            telemetry: TelemetryMode::Jsonl(trace.clone()),
            ..TrialConfig::default()
        };
        let out = paper_trial(42, &cfg);
        let text = std::fs::read_to_string(&trace).expect("the trial wrote its trace");
        std::fs::remove_file(&trace).ok();
        let transmissions = text
            .lines()
            .filter_map(ble_telemetry::parse_line)
            .filter(|r| matches!(r.event, ble_telemetry::TelemetryEvent::TxStart { .. }))
            .count();
        assert!(!out.telemetry_downgraded);
        let metrics = out.metrics.expect("metrics ride along with a trace");
        let phases = metrics.timing.phase_profile();
        let phase = |name: &str| {
            phases
                .iter()
                .find(|p| p.phase == name)
                .copied()
                .unwrap_or_else(|| panic!("phase {name} missing: {phases:?}"))
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
        // One airtime span per transmission; the flush closes the span of
        // a frame still on the air when the trial stops.
        assert!(transmissions > 0);
        assert_eq!(
            phase("channel-airtime").count,
            u64::try_from(transmissions).unwrap()
        );
        // Airtime nests under the trial phases, so the trial phases' self
        // time is strictly less than their total.
        assert!(follow.self_sim_ns < follow.sim_ns);
    }

    /// `ablation_faults`' loss plan: every data-channel frame lost with
    /// probability `p`, and the survivors corrupted with `p/2`.
    fn loss_plan(p: f64) -> FaultPlan {
        (0..37u8).fold(FaultPlan::seeded(0x1055), |plan, channel| {
            plan.with_loss(FrameLossRule {
                from: Instant::ZERO,
                until: Instant::from_micros(95_000_000),
                channel: Some(channel),
                loss_prob: p,
                corrupt_prob: p * 0.5,
            })
        })
    }

    /// `ablation_faults`' resync policy.
    fn tight_resync() -> ResyncPolicy {
        ResyncPolicy {
            campaign_hops: 900,
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_secs(2),
            max_retries: 4,
        }
    }

    /// The attack loop as it ran before it stopped at the deciding event,
    /// without bounces: arm, then decide at the end of each 200 ms tick.
    fn polled_attack(sc: &mut Scenario, cfg: &TrialConfig) -> Option<u32> {
        sc.attacker_mut().arm(Mission::InjectRaw {
            llid: Llid::StartOrComplete,
            payload: cfg.payload.clone(),
            wanted_successes: 1,
        });
        let deadline = sc.now() + cfg.sim_budget;
        while sc.now() < deadline {
            sc.run_for(Duration::from_millis(200));
            let attacker = sc.attacker();
            if attacker.stats().successes() >= 1 {
                return attacker.stats().attempts_to_first_success();
            }
            if attacker.resync_exhausted() {
                return None;
            }
        }
        None
    }

    /// What one seed's exact attack did, once checked against the polled
    /// reference run from the same arming instant.
    struct Decided {
        attempts: Option<u32>,
        exhausted: bool,
    }

    /// Builds `rig` twice and synchronises both; if they synchronised,
    /// runs [`attack`] without bounces on one and [`polled_attack`] on the
    /// other, and checks that both decide alike and that a success's
    /// verdict record is the exact run's last record.
    fn exact_matches_polled(rig: impl Fn() -> Scenario, cfg: &TrialConfig, label: &str) -> Decided {
        use ble_telemetry::{RingBufferSink, TelemetryEvent, Verdict};

        let (mut exact, mut polled) = (rig(), rig());
        let sink = RingBufferSink::new(1 << 17);
        let ring = sink.handle();
        exact.world.add_telemetry_sink(Box::new(sink));
        let synced = exact.wait_synchronised(SYNC_BUDGET);
        assert_eq!(synced, polled.wait_synchronised(SYNC_BUDGET), "{label}");
        assert_eq!(exact.now(), polled.now(), "{label}: same arming instant");
        if !synced {
            return Decided {
                attempts: None,
                exhausted: false,
            };
        }
        let attempts = attack(&mut exact, cfg, false);
        let reference = polled_attack(&mut polled, cfg);
        assert_eq!(attempts, reference, "{label}");
        let ring = ring.lock();
        assert_eq!(ring.evicted(), 0, "{label}: the ring holds the trial");
        if attempts.is_some() {
            let verdict = ring
                .iter()
                .find(|r| {
                    matches!(
                        r.event,
                        TelemetryEvent::HeuristicVerdict {
                            verdict: Verdict::Success,
                            ..
                        }
                    )
                })
                .expect("a confirmed success records its verdict");
            assert_eq!(verdict.at, exact.now(), "{label}");
            assert!(ring.iter().all(|r| r.at <= exact.now()), "{label}");
        }
        drop(ring);
        Decided {
            attempts,
            exhausted: exact.attacker().resync_exhausted(),
        }
    }

    #[test]
    fn the_exact_stop_decides_as_polling_from_the_same_arming_instant() {
        let cfg = TrialConfig {
            telemetry: TelemetryMode::Off,
            ..TrialConfig::default()
        };
        let mut successes = 0;
        for hop in [25, 150] {
            for i in 0..50 {
                let rig = || {
                    ScenarioBuilder::paper_rig(trial_seed(2_300, i))
                        .hop_interval(hop)
                        .telemetry(TelemetryMode::Off)
                        .build()
                };
                let label = format!("hop {hop}, trial {i}");
                let decided = exact_matches_polled(rig, &cfg, &label);
                successes += usize::from(decided.attempts.is_some());
            }
        }
        assert!(successes >= 90, "{successes} of 100 trials succeeded");
    }

    #[test]
    fn the_exact_stop_keeps_bounces_and_exhaustion_on_a_lossy_channel() {
        // Heavy data-channel loss: the attacker keeps losing the
        // connection. With ablation_faults' resync policy, a bouncing
        // attack bounces the target; with a one-retry policy and no
        // bounces, the resync runs out. Without bounces, both policies'
        // stops must decide as the polled loop does.
        let loss = loss_plan(0.6);
        let patient = tight_resync();
        let brief = ResyncPolicy {
            campaign_hops: 30,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(200),
            max_retries: 1,
        };
        let cfg = TrialConfig {
            sim_budget: Duration::from_secs(60),
            telemetry: TelemetryMode::Off,
            ..TrialConfig::default()
        };
        let (mut bounced, mut exhausted) = (0, 0);
        for i in 0..20 {
            for (policy, bounce) in [(&patient, true), (&brief, false)] {
                let rig = || {
                    ScenarioBuilder::paper_rig(trial_seed(2_400, i))
                        .attacker_resync(policy.clone())
                        .faults(loss.clone())
                        .telemetry(TelemetryMode::Off)
                        .build()
                };
                let label = format!("lossy trial {i}, {policy:?}");
                let decided = exact_matches_polled(rig, &cfg, &label);
                exhausted += usize::from(decided.exhausted && decided.attempts.is_none());
                if bounce {
                    let mut sc = rig();
                    if sc.wait_synchronised(SYNC_BUDGET) {
                        let set_up_bounces = sc.bounces;
                        attack(&mut sc, &cfg, true);
                        bounced += usize::from(sc.bounces > set_up_bounces);
                    }
                }
            }
        }
        assert!(bounced > 0, "no trial bounced the target");
        assert!(exhausted > 0, "no trial exhausted its resync");
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
    fn mild_fault_plan() -> FaultPlan {
        use simkit::{DriftExcursion, FadingEpisode, InterferenceBurst};
        FaultPlan::seeded(0xFA17)
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
                Duration::from_secs(60),
                Duration::from_millis(50),
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

    /// Runs one trial of `rig` with [`short_budget`], and returns its
    /// outcome and the telemetry events its registry counted.
    fn counted_trial(rig: ScenarioBuilder) -> (TrialOutcome, u64) {
        let cfg = short_budget();
        let mut sc = build_trial(rig, &cfg);
        let out = run_built(&mut sc, &cfg);
        let registry = sc.metrics().expect("metrics on").lock();
        (out, registry.get(ble_telemetry::Counter::TelemetryEvents))
    }

    #[test]
    fn same_seed_and_fault_plan_reproduce_the_trial_exactly() {
        let run = || counted_trial(ScenarioBuilder::paper_rig(46).faults(mild_fault_plan()));
        let ((a, a_events), (b, b_events)) = (run(), run());
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.effect_observed, b.effect_observed);
        assert!(a_events > 0);
        assert_eq!(a_events, b_events);
    }

    #[test]
    fn empty_fault_plan_is_a_true_no_op() {
        let (a, a_events) =
            counted_trial(ScenarioBuilder::paper_rig(47).faults(FaultPlan::seeded(999)));
        let (b, b_events) = counted_trial(ScenarioBuilder::paper_rig(47));
        assert_eq!(a.attempts, b.attempts, "empty plan must not perturb");
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.effect_observed, b.effect_observed);
        assert_eq!(a_events, b_events);
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

    /// Runs one trial of `rig` with metrics on, and with a ring sink too
    /// when `traced`, and returns the registry it publishes. The ring
    /// attaches between the build and run steps, so every record the
    /// trial's run emits goes through the sink path. At span weight 0 no
    /// span clock is installed, so the wall columns read 0 and the whole
    /// registry is deterministic.
    fn published_registry(rig: ScenarioBuilder, traced: bool) -> ble_telemetry::MetricsRegistry {
        use ble_telemetry::RingBufferSink;

        let cfg = short_budget();
        let mut sc = with_span_weight(0, || build_trial(rig, &cfg));
        let registry = sc.metrics().cloned().expect("metrics on");
        let ring = traced.then(|| {
            let sink = RingBufferSink::new(64);
            let ring = sink.handle();
            sc.world.add_telemetry_sink(Box::new(sink));
            ring
        });
        with_span_weight(0, || run_built(&mut sc, &cfg));
        if let Some(ring) = ring {
            let ring = ring.lock();
            let seen = u64::try_from(ring.len()).unwrap() + ring.evicted();
            assert!(seen > 64, "the sink saw the trial: {seen} records");
        }
        let published = registry.lock().clone();
        published
    }

    #[test]
    fn metrics_only_publishes_what_a_traced_trial_publishes() {
        // `{:?}` prints every counter, span total and histogram field,
        // floats in their shortest round-trip form, so equal renderings
        // are bit-for-bit equal registries.
        use ble_telemetry::{Counter, Hist};

        let same = |label: &str, rig: &dyn Fn() -> ScenarioBuilder| {
            let metered = published_registry(rig(), false);
            let traced = published_registry(rig(), true);
            assert_eq!(format!("{metered:?}"), format!("{traced:?}"), "{label}");
            metered
        };
        let paper = same("paper rig", &|| {
            ScenarioBuilder::paper_rig(trial_seed(1_000, 3))
        });
        assert!(paper.hist(Hist::LeadUs).is_some_and(|h| h.count() > 0));
        assert_eq!(paper.span_totals(SpanKind::TrialFollow)[0], 1);
        // ablation_faults' 0.35 loss row: per-frame loss and corruption.
        let loss = loss_plan(0.35);
        let lossy = same("loss row", &|| {
            ScenarioBuilder::paper_rig(trial_seed(11_006, 0))
                .attacker_resync(tight_resync())
                .faults(loss.clone())
        });
        assert!(lossy.get(Counter::FaultFramesLost) > 0);
        assert!(lossy.get(Counter::FaultFramesCorrupted) > 0);
        let dense = same("dense band", &|| {
            ScenarioBuilder::paper_rig(trial_seed(6_008, 0))
                .environment(ble_phy::Environment::dense_hall())
                .background_pairs(8)
        });
        assert!(dense.get(Counter::SimNodes) > 16);
    }

    /// exp5 set-ups that once wedged: a sibling slot's transmission
    /// abandoned an initiating slot's `CONNECT_IND` on the shared radio,
    /// and that slot stayed `scanning` for the rest of the budget.
    /// `(seed base, trial index, connections)`.
    const SETUP_WEDGES: [(u64, u64, usize); 6] = [
        (5002, 22, 2),
        (5004, 12, 4),
        (5004, 13, 4),
        (5004, 17, 4),
        (5008, 4, 8),
        (5008, 7, 8),
    ];

    /// exp5 trials whose target slot wedged like [`SETUP_WEDGES`] after the
    /// set-up wait bounced it, so the attacker never followed.
    const BOUNCE_WEDGES: [(u64, u64, usize); 3] = [(5004, 24, 4), (5008, 3, 8), (5008, 13, 8)];

    /// 8-connection exp5 trials whose attacker lost the target while its
    /// link stayed up, and idled to the end of the budget while the
    /// attack's watchdog only restarted the scan.
    const LOST_WHILE_UP: [(u64, u64, usize); 3] = [(2032, 20, 8), (2032, 40, 8), (12353, 34, 8)];

    /// exp5 set-ups that end with the target the last slot up and its
    /// `CONNECT_IND` missed by the sniffer, one per multi-link row.
    const UNFOLLOWED_SET_UPS: [(u64, u64, usize); 3] = [(5002, 2, 2), (5004, 2, 4), (5008, 1, 8)];

    #[test]
    fn set_ups_that_once_wedged_synchronise() {
        let multi_conn = SETUP_WEDGES.map(|(base, i, conns)| {
            let rig = ScenarioBuilder::paper_rig(trial_seed(base, i)).multi_peripheral(conns);
            (format!("base {base} trial {i}"), rig)
        });
        // Trials of `ablation_faults`' 0.6 loss row that never
        // synchronised within the budget until the set-up wait bounced an
        // unfollowed target.
        let loss = loss_plan(0.6);
        let lossy = [12, 55, 66, 68].map(|i| {
            let rig = ScenarioBuilder::paper_rig(trial_seed(11_104, i))
                .attacker_resync(tight_resync())
                .faults(loss.clone());
            (format!("loss 0.6 trial {i}"), rig)
        });
        for (label, rig) in multi_conn.into_iter().chain(lossy) {
            let mut sc = rig.build();
            assert!(sc.wait_synchronised(SYNC_BUDGET), "{label}: no sync");
            let central = sc.central();
            for handle in central.conn_handles() {
                let state = central.ll_for(handle).map(ble_link::LinkLayer::state_name);
                assert_eq!(
                    state,
                    Some("connected"),
                    "{label}: slot {} is not connected",
                    handle.index()
                );
            }
        }
    }

    #[test]
    fn bounced_target_reconnects_and_the_attack_succeeds() {
        let cfg = TrialConfig {
            telemetry: TelemetryMode::Off,
            ..TrialConfig::default()
        };
        for (base, i, conns) in BOUNCE_WEDGES.into_iter().chain(LOST_WHILE_UP) {
            let rig = ScenarioBuilder::paper_rig(trial_seed(base, i)).multi_peripheral(conns);
            let outcome = run_trial(rig, &cfg);
            assert!(
                outcome.attempts.is_some(),
                "base {base} trial {i}: no confirmed injection"
            );
        }
    }

    #[test]
    fn a_target_lost_after_arming_is_bounced_at_the_loss() {
        use ble_telemetry::{RingBufferSink, TelemetryEvent};

        // exp1's hop-150 trial 203: the attacker loses the link after
        // arming, and the attack bounces it once before it succeeds.
        let rig = || {
            let mut sc = ScenarioBuilder::paper_rig(trial_seed(1_150, 203))
                .hop_interval(150)
                .telemetry(TelemetryMode::Off)
                .build();
            assert!(sc.wait_synchronised(SYNC_BUDGET));
            sc
        };
        let cfg = TrialConfig {
            telemetry: TelemetryMode::Off,
            ..TrialConfig::default()
        };
        let mut sc = rig();
        let set_up_bounces = sc.bounces;
        let sink = RingBufferSink::new(1 << 16);
        let ring = sink.handle();
        sc.world.add_telemetry_sink(Box::new(sink));
        assert!(attack(&mut sc, &cfg, true).is_some(), "the attack recovers");
        assert!(sc.bounces > set_up_bounces, "the attack bounced the target");
        let lost = ring
            .lock()
            .iter()
            .find(|r| matches!(r.event, TelemetryEvent::SnifferLost { .. }))
            .expect("the attacker lost the target")
            .at;
        // The same trial, its budget ending one microsecond before the loss
        // and at the loss: the target's disconnect is requested in between.
        let bounces_by = |end: Instant| {
            let mut sc = rig();
            let cfg = TrialConfig {
                sim_budget: end - sc.now(),
                ..cfg.clone()
            };
            assert_eq!(attack(&mut sc, &cfg, true), None);
            assert_eq!(sc.now(), end);
            sc.bounces - set_up_bounces
        };
        assert_eq!(bounces_by(lost - Duration::from_micros(1)), 0);
        assert_eq!(bounces_by(lost), 1, "no bounce at the loss");
    }

    #[test]
    fn an_outage_of_both_the_central_and_the_attacker_does_not_idle_the_budget() {
        // The attack is armed while the target link is down and the
        // attacker follows nothing. The Central reconnects on its own, and
        // when the sniffer misses that CONNECT_IND the attack must bounce
        // the new link rather than wait out its budget.
        use ble_devices::Central;

        let cfg = TrialConfig {
            sim_budget: Duration::from_secs(30),
            telemetry: TelemetryMode::Off,
            ..TrialConfig::default()
        };
        let mut bounced = 0;
        for i in 0..8 {
            let mut sc = ScenarioBuilder::paper_rig(trial_seed(3_000, i))
                .telemetry(TelemetryMode::Off)
                .build();
            assert!(sc.wait_synchronised(SYNC_BUDGET), "trial {i}");
            sc.bounce_target();
            let (central, attacker) = (sc.central_id, sc.attacker_id.expect("an attacker"));
            let both_down = sc
                .world
                .run_until_or(sc.now() + Duration::from_secs(1), |w| {
                    w.node::<Central>(central)
                        .is_some_and(|c| !c.ll.is_connected())
                        && w.node::<Attacker>(attacker)
                            .is_some_and(|a| a.connection().is_none())
                });
            assert!(both_down, "trial {i}");
            let before = sc.bounces;
            assert!(attack(&mut sc, &cfg, true).is_some(), "trial {i} idled");
            bounced += usize::from(sc.bounces > before);
        }
        assert!(bounced > 0, "no trial needed a bounce");
    }

    #[test]
    fn an_unfollowed_target_is_bounced_at_its_first_connection_event() {
        use ble_devices::Central;

        for (base, i, conns) in UNFOLLOWED_SET_UPS {
            let mut sc = ScenarioBuilder::paper_rig(trial_seed(base, i))
                .multi_peripheral(conns)
                .build();
            let central = sc.central_id;
            let all_up = sc.world.run_until_or(sc.now() + SYNC_BUDGET, |w| {
                w.node::<Central>(central)
                    .is_some_and(|c| c.live_connections() >= conns)
            });
            assert!(all_up, "base {base} trial {i}");
            let up = sc.now();
            let target = *sc.extra_conn_handles.last().expect("a multi-link scene");
            let info = sc
                .central()
                .ll_for(target)
                .and_then(ble_link::LinkLayer::connection_info)
                .expect("the target slot is up");
            assert_eq!(info.next_event_counter, 0, "base {base} trial {i}");
            let first_anchor =
                up + ble_link::timing::transmit_window_offset(info.params.win_offset);
            // Bounced at its first anchor, the link sends its TERMINATE_IND
            // at the next event and is down once that frame has gone out.
            let deadline = first_anchor + info.params.interval() + Duration::from_millis(1);
            let before = sc.central().disconnections;
            assert!(!sc.wait_synchronised(deadline - up));
            assert_eq!(
                sc.central().disconnections,
                before + 1,
                "base {base} trial {i}: the target was not bounced by {deadline:?}"
            );
            assert_eq!(sc.bounces, 1, "base {base} trial {i}");
            assert!(
                sc.central()
                    .conn_manager()
                    .handle_at(sc.target_slot())
                    .is_none(),
                "base {base} trial {i}: the target slot is still held"
            );
        }
    }
}
