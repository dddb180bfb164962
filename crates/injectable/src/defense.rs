//! Defensive monitoring (paper §VIII, third countermeasure).
//!
//! The paper proposes non-intrusive detection: *"An Intrusion Detection
//! System designed to monitor BLE Link Layer could be able to detect, at
//! the right instant, the presence of double frames: the legitimate Master
//! frame and the attacker one"*, and cites behavioural detectors keyed on
//! *"variations in the timing between packet emissions"*.
//!
//! [`InjectionDetector`] is such a monitor: a passive radio node that
//! follows a connection exactly like the attacker's sniffer does, predicts
//! each anchor point, and raises alerts on the attack's observable
//! signatures:
//!
//! * **Early anchor** — the event's first frame starts well before the
//!   drift-compensated anchor prediction. A legitimate Master drifts a few
//!   µs per interval; an InjectaBLE frame arrives a whole window-widening
//!   early (tens of µs).
//! * **Double anchor** — two Master-side frames observed around one anchor
//!   (the injected frame and the legitimate one), possible when the frames
//!   do not fully overlap.
//! * **Response-timing mismatch** — the Slave answers 150 µs after a frame
//!   end that does not match the observed Master frame.
//!
//! The detector maintains an exponentially-weighted estimate of the
//! connection's true interval (as the attacker cannot help being measured
//! against the Master's clock, neither can the monitor), giving µs-level
//! anchor predictions after a few events.

use ble_link::DataPdu;
use ble_phy::{AccessFilter, Channel, NodeCtx, RadioEvent, RadioListener, TimerKey};
use ble_telemetry::{AlertKind, TelemetryEvent};
use simkit::{Duration, Instant};

use crate::tracked::{ConnectionSniffer, SnifferEvent, TrackedConnection};

const T_EVENT: u64 = 0xB0;
const T_CLOSE: u64 = 0xB1;
const T_SCAN_HOP: u64 = 0xB2;

/// One raised alert.
#[derive(Debug, Clone, PartialEq)]
pub enum Alert {
    /// The event's anchor frame arrived earlier than any legitimate drift
    /// allows.
    EarlyAnchor {
        /// When the suspicious frame started.
        at: Instant,
        /// How much earlier than predicted, in microseconds.
        early_us: f64,
    },
    /// Two Master-side frames around a single anchor point.
    DoubleAnchor {
        /// Start of the first (suspect) frame.
        first: Instant,
        /// Start of the second frame.
        second: Instant,
    },
    /// The Slave's response is not 150 µs after the observed Master frame.
    ResponseTimingMismatch {
        /// Expected response start.
        expected: Instant,
        /// Observed response start.
        observed: Instant,
    },
}

/// Detector tuning.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Anchor earliness (µs) beyond which an alert fires. Legitimate drift
    /// between consecutive anchors is `±(SCAm+SCAs) ppm × interval`, a few
    /// µs; injected frames arrive a full window widening (≥ 32 µs) early.
    pub early_anchor_threshold_us: f64,
    /// Tolerance (µs) around `frame end + 150 µs` for the response check.
    pub response_tolerance_us: f64,
    /// Events to observe before arming detection (estimator warm-up).
    pub warmup_events: u32,
    /// Degrade gracefully under abnormal clock drift (off by default, which
    /// preserves the strict paper behaviour): the early-anchor band widens
    /// with the recently observed prediction error, so a connection whose
    /// clocks wander beyond the ±200 ppm correction clamp raises no false
    /// `EarlyAnchor` alerts — while a genuine injection, arriving a full
    /// window widening early, still exceeds the (capped) widened band.
    pub adaptive_widening: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            early_anchor_threshold_us: 15.0,
            response_tolerance_us: 8.0,
            warmup_events: 8,
            adaptive_widening: false,
        }
    }
}

/// Passive Link-Layer intrusion detector for InjectaBLE-style injection.
///
/// Add it to a simulation as a fourth, silent node and inspect
/// [`InjectionDetector::alerts`] afterwards. See
/// `crates/bench/src/bin/ids_detection.rs` for the detection-rate
/// experiment.
pub struct InjectionDetector {
    cfg: DetectorConfig,
    sniffer: ConnectionSniffer,
    conn: Option<TrackedConnection>,
    /// EWMA of the interval correction factor (measured / nominal).
    interval_correction: f64,
    events_observed: u32,
    alerts: Vec<Alert>,
    scanning_pos: usize,
    window_frames: Vec<(Instant, Instant, bool)>,
    window_deadline_armed: bool,
    timer_gen: u64,
    expected_gen: [u64; 3],
    /// Predicted anchor of the currently open window (true-time estimate).
    predicted_anchor: Instant,
    /// EWMA of recent |anchor prediction error| (µs); feeds the widened
    /// band when [`DetectorConfig::adaptive_widening`] is on.
    band_us: f64,
}

impl InjectionDetector {
    /// Creates a detector monitoring any connection (or lock it to a slave
    /// with [`InjectionDetector::for_slave`]).
    pub fn new(cfg: DetectorConfig) -> Self {
        InjectionDetector {
            cfg,
            sniffer: ConnectionSniffer::new(),
            conn: None,
            interval_correction: 1.0,
            events_observed: 0,
            alerts: Vec::new(),
            scanning_pos: 0,
            window_frames: Vec::new(),
            window_deadline_armed: false,
            timer_gen: 0,
            expected_gen: [0; 3],
            predicted_anchor: Instant::ZERO,
            band_us: 0.0,
        }
    }

    /// Effective early-anchor threshold: the configured base, plus — when
    /// adaptive widening is on — a band tracking the recent prediction
    /// error, capped at twice the base so a genuine injection (a full
    /// window widening, tens of µs early) still clears it.
    fn effective_threshold_us(&self) -> f64 {
        let base = self.cfg.early_anchor_threshold_us;
        if self.cfg.adaptive_widening {
            base + (1.5 * self.band_us).min(2.0 * base)
        } else {
            base
        }
    }

    /// Feeds one observed prediction error into the adaptive band. Errors
    /// beyond any plausible drift (several thresholds) are excluded so an
    /// injected frame cannot widen its own hiding place.
    fn note_prediction_error(&mut self, early_us: f64) {
        if !self.cfg.adaptive_widening {
            return;
        }
        let mag = early_us.abs();
        if mag < 4.0 * self.cfg.early_anchor_threshold_us {
            self.band_us = 0.7 * self.band_us + 0.3 * mag;
        }
    }

    /// Restricts monitoring to connections with this slave.
    pub fn for_slave(mut self, slave: ble_link::DeviceAddress) -> Self {
        self.sniffer = ConnectionSniffer::for_slave(slave);
        self
    }

    /// Starts scanning for a connection to monitor.
    pub fn start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.scan(ctx, 0);
    }

    /// Alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Connection events observed so far.
    pub fn events_observed(&self) -> u32 {
        self.events_observed
    }

    /// Whether the monitor is currently following a connection.
    pub fn is_monitoring(&self) -> bool {
        self.conn.is_some()
    }

    fn arm(&mut self, ctx: &mut NodeCtx<'_>, reference: Instant, delay: Duration, p: u64) {
        self.timer_gen += 1;
        self.expected_gen[(p - T_EVENT) as usize] = self.timer_gen;
        ctx.set_timer_local_from(reference, delay, TimerKey(p | (self.timer_gen << 8)));
    }

    fn timer_purpose(&self, key: TimerKey) -> Option<u64> {
        let p = key.0 & 0xFF;
        if !(T_EVENT..=T_SCAN_HOP).contains(&p) {
            return None;
        }
        (self.expected_gen[(p - T_EVENT) as usize] == key.0 >> 8).then_some(p)
    }

    fn scan(&mut self, ctx: &mut NodeCtx<'_>, pos: usize) {
        self.scanning_pos = pos;
        ctx.stop_rx();
        ctx.start_rx(
            Channel::ADVERTISING[pos],
            AccessFilter::One(ble_phy::AccessAddress::ADVERTISING),
            ble_phy::ADVERTISING_CRC_INIT,
        );
        let now = ctx.now();
        self.arm(ctx, now, Duration::from_millis(9), T_SCAN_HOP);
    }

    fn schedule_window(&mut self, ctx: &mut NodeCtx<'_>) {
        let correction = self.interval_correction;
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        let plan = conn.plan_next();
        // Open generously early (widening + margin) and close well after.
        let corrected = plan.delay_from_anchor.mul_f64(correction);
        let lead = plan.widening + Duration::from_micros(120);
        let anchor = conn.last_anchor;
        self.predicted_anchor = anchor + corrected;
        self.window_frames.clear();
        self.window_deadline_armed = false;
        self.arm(ctx, anchor.saturating_sub(lead), corrected, T_EVENT);
    }

    fn open_window(&mut self, ctx: &mut NodeCtx<'_>) {
        let Some(conn) = self.conn.as_ref() else {
            return;
        };
        ctx.stop_rx();
        ctx.start_rx(
            conn.current_channel,
            AccessFilter::One(conn.params.access_address),
            conn.params.crc_init,
        );
        let now = ctx.now();
        self.arm(ctx, now, Duration::from_micros(3_000), T_CLOSE);
    }

    fn close_window(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.stop_rx();
        self.analyse_window(ctx);
        let lost = {
            let Some(conn) = self.conn.as_mut() else {
                return;
            };
            if self.window_frames.is_empty() {
                conn.missed_event();
            }
            conn.missed_streak > 24
        };
        if lost {
            self.conn = None;
            self.scan(ctx, 0);
            return;
        }
        self.schedule_window(ctx);
    }

    /// Post-event analysis: the detection rules.
    fn analyse_window(&mut self, ctx: &mut NodeCtx<'_>) {
        let frames = std::mem::take(&mut self.window_frames);
        let threshold_us = self.effective_threshold_us();
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        let Some(&(first_start, first_end, _)) = frames.first() else {
            return;
        };
        self.events_observed += 1;
        let warmed_up = self.events_observed > self.cfg.warmup_events;

        // Update the drift-compensated interval estimate from consecutive
        // clean observations.
        let early_us = self.predicted_anchor.signed_delta_ns(first_start) as f64 / 1_000.0;
        if warmed_up && early_us > threshold_us {
            self.alerts.push(Alert::EarlyAnchor {
                at: first_start,
                early_us,
            });
            ctx.emit(|| TelemetryEvent::DetectorAlert {
                kind: AlertKind::EarlyAnchor,
                magnitude_us: early_us,
            });
        } else {
            // Treat as legitimate: refine the interval correction.
            let predicted = self.predicted_anchor;
            let nominal = predicted.signed_delta_ns(conn.last_anchor) as f64;
            if nominal > 0.0 {
                let measured = first_start.signed_delta_ns(conn.last_anchor) as f64;
                let ratio = measured / nominal;
                if (0.995..=1.005).contains(&ratio) {
                    let updated =
                        0.9 * self.interval_correction + 0.1 * (self.interval_correction * ratio);
                    // Clocks cannot disagree by more than ±200 ppm; clamping
                    // keeps a single attack-displaced anchor from poisoning
                    // the estimator (and alarming forever after).
                    self.interval_correction = updated.clamp(0.9998, 1.0002);
                }
            }
        }
        conn.observe_anchor(first_start);
        self.note_prediction_error(early_us);

        // Double anchor: a second Master-side frame starting within the
        // window-widening span of the first, *before* any response slot.
        if frames.len() >= 2 {
            let (second_start, _, _) = frames[1];
            let gap_ns = second_start.signed_delta_ns(first_end);
            // A legitimate Slave response starts IFS (150 µs) after the
            // first frame; anything substantially earlier is a second,
            // overlapping-or-adjacent anchor frame.
            if warmed_up && (0..120_000).contains(&gap_ns) {
                self.alerts.push(Alert::DoubleAnchor {
                    first: first_start,
                    second: second_start,
                });
                ctx.emit(|| TelemetryEvent::DetectorAlert {
                    kind: AlertKind::DoubleAnchor,
                    magnitude_us: gap_ns as f64 / 1_000.0,
                });
            }
            // Response-timing check on the *last* frame pair: response must
            // trail its predecessor by exactly IFS.
            if frames.len() >= 2 {
                let (resp_start, _, _) = frames[frames.len() - 1];
                let (_, prev_end, _) = frames[frames.len() - 2];
                let expected = prev_end + Duration::from_micros(150);
                let delta_us = resp_start.signed_delta_ns(expected).unsigned_abs() as f64 / 1_000.0;
                if warmed_up && delta_us > self.cfg.response_tolerance_us && gap_ns >= 120_000 {
                    self.alerts.push(Alert::ResponseTimingMismatch {
                        expected,
                        observed: resp_start,
                    });
                    ctx.emit(|| TelemetryEvent::DetectorAlert {
                        kind: AlertKind::ResponseTimingMismatch,
                        magnitude_us: delta_us,
                    });
                }
            }
        }
    }
}

impl RadioListener for InjectionDetector {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.start(ctx);
    }

    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        match event {
            RadioEvent::Timer { key, .. } => match self.timer_purpose(key) {
                Some(T_SCAN_HOP) if self.conn.is_none() => {
                    let next = (self.scanning_pos + 1) % 3;
                    self.scan(ctx, next);
                }
                Some(T_EVENT) => self.open_window(ctx),
                Some(T_CLOSE) => self.close_window(ctx),
                _ => {}
            },
            RadioEvent::FrameReceived(frame) => {
                if self.conn.is_none() {
                    if let SnifferEvent::ConnectionDetected(tracked) = self.sniffer.process(&frame)
                    {
                        self.conn = Some(*tracked);
                        self.interval_correction = 1.0;
                        self.events_observed = 0;
                        self.band_us = 0.0;
                        self.schedule_window(ctx);
                    }
                    return;
                }
                // Within a monitoring window: record (start, end, crc_ok).
                self.window_frames
                    .push((frame.start, frame.end, frame.crc_ok));
                // Keep tracking control procedures so we stay synchronised.
                if let (Some(conn), true) = (self.conn.as_mut(), frame.crc_ok) {
                    if self.window_frames.len() % 2 == 1 {
                        if let Ok(pdu) = DataPdu::from_bytes(&frame.pdu) {
                            if pdu.header.llid == ble_link::Llid::Control {
                                if let Ok(ctrl) = ble_link::ControlPdu::from_bytes(&pdu.payload) {
                                    if conn.observe_master_control(&ctrl) {
                                        self.conn = None;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_thresholds_are_sane() {
        let cfg = DetectorConfig::default();
        // Legit drift per 45 ms interval at 100 ppm is 4.5 µs — below the
        // early-anchor threshold; a 36 µs widening jump is far above it.
        assert!(cfg.early_anchor_threshold_us > 5.0);
        assert!(cfg.early_anchor_threshold_us < 32.0);
    }

    #[test]
    fn alerts_start_empty() {
        let d = InjectionDetector::new(DetectorConfig::default());
        assert!(d.alerts().is_empty());
        assert!(!d.is_monitoring());
        assert_eq!(d.events_observed(), 0);
    }

    #[test]
    fn strict_threshold_ignores_the_observed_errors() {
        let mut d = InjectionDetector::new(DetectorConfig::default());
        let base = d.cfg.early_anchor_threshold_us;
        for e in [3.0, 9.0, 18.0, 24.0] {
            d.note_prediction_error(e);
            assert_eq!(d.effective_threshold_us(), base);
        }
    }

    #[test]
    fn adaptive_band_absorbs_a_gradual_drift_ramp() {
        // A drift excursion ramps the per-event anchor error past the
        // strict 15 µs threshold. The strict detector would alert from
        // 18 µs on; the adaptive band must stay ahead of the ramp.
        let mut d = InjectionDetector::new(DetectorConfig {
            adaptive_widening: true,
            ..DetectorConfig::default()
        });
        let strict = DetectorConfig::default().early_anchor_threshold_us;
        let mut strict_would_alert = 0;
        for e in [3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0] {
            if e > strict {
                strict_would_alert += 1;
            }
            assert!(
                e <= d.effective_threshold_us(),
                "adaptive band must absorb a {e} µs drift error \
                 (threshold {})",
                d.effective_threshold_us()
            );
            d.note_prediction_error(e);
        }
        assert!(
            strict_would_alert >= 3,
            "the ramp must stress the strict detector"
        );
    }

    #[test]
    fn adaptive_band_still_catches_a_sudden_injection() {
        // The widened band is capped at 3x the base threshold; an injected
        // frame arriving a full widening (here 150 µs) early always clears
        // it, and the outlier is excluded from the band update.
        let mut d = InjectionDetector::new(DetectorConfig {
            adaptive_widening: true,
            ..DetectorConfig::default()
        });
        for e in [6.0, 12.0, 18.0, 24.0] {
            d.note_prediction_error(e);
        }
        let before = d.effective_threshold_us();
        assert!(150.0 > before, "injection exceeds the widened band");
        d.note_prediction_error(150.0);
        assert_eq!(
            d.effective_threshold_us(),
            before,
            "an injection-sized outlier must not widen its own hiding place"
        );
    }
}
