//! The typed telemetry vocabulary.
//!
//! Every observable moment in the stack — PHY activity, Link-Layer timing,
//! attacker decisions, detector alerts — is one [`TelemetryEvent`] variant.
//! The enum is deliberately flat and field-poor: events are emitted on hot
//! paths, so variants carry `Copy`-able scalars wherever possible and only
//! allocate for the one textual payload, [`TelemetryEvent::NodeAdded`]'s
//! label.
//!
//! `TelemetryEvent` is covered by the xtask R4 exhaustive-match rule: code
//! matching on it must not use a `_` wildcard arm, so adding a variant here
//! is a compile-time-visible change at every consumer (see DEVELOPMENT.md,
//! "Telemetry & metrics").

use std::fmt;

use simkit::{Duration, Instant};

use crate::span::SpanKind;

/// Which side of the connection an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkRole {
    /// The connection initiator (the paper's Central/Master).
    Master,
    /// The connection acceptor (the paper's Peripheral/Slave).
    Slave,
}

impl LinkRole {
    /// Stable wire name, used by the JSONL codec.
    pub fn as_str(self) -> &'static str {
        match self {
            LinkRole::Master => "master",
            LinkRole::Slave => "slave",
        }
    }

    /// Inverse of [`LinkRole::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "master" => Some(LinkRole::Master),
            "slave" => Some(LinkRole::Slave),
            _ => None,
        }
    }
}

/// Outcome of the paper's eq. 7 success heuristic for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Response timing and SN/NESN both matched: injection won the race.
    Success,
    /// A response arrived but failed the timing or sequence-bit check.
    Rejected,
    /// No slave response observed inside the listen window.
    NoResponse,
}

impl Verdict {
    /// Stable wire name, used by the JSONL codec.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Success => "success",
            Verdict::Rejected => "rejected",
            Verdict::NoResponse => "no-response",
        }
    }

    /// Inverse of [`Verdict::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "success" => Some(Verdict::Success),
            "rejected" => Some(Verdict::Rejected),
            "no-response" => Some(Verdict::NoResponse),
            _ => None,
        }
    }
}

/// Category of a §VIII injection-detector alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// A master anchor arrived earlier than the connection history allows.
    EarlyAnchor,
    /// Two master-side anchors inside one connection event.
    DoubleAnchor,
    /// Slave response timing inconsistent with the observed master frame.
    ResponseTimingMismatch,
}

impl AlertKind {
    /// Stable wire name, used by the JSONL codec.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertKind::EarlyAnchor => "early-anchor",
            AlertKind::DoubleAnchor => "double-anchor",
            AlertKind::ResponseTimingMismatch => "response-timing",
        }
    }

    /// Inverse of [`AlertKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "early-anchor" => Some(AlertKind::EarlyAnchor),
            "double-anchor" => Some(AlertKind::DoubleAnchor),
            "response-timing" => Some(AlertKind::ResponseTimingMismatch),
            _ => None,
        }
    }
}

/// Why the attacker's sniffer stopped following a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossReason {
    /// A LL_TERMINATE_IND was observed.
    Terminated,
    /// Too many consecutive connection events went silent.
    MissedEvents,
    /// The connection died while an injection campaign was in flight.
    DuringInjection,
}

impl LossReason {
    /// Stable wire name, used by the JSONL codec.
    pub fn as_str(self) -> &'static str {
        match self {
            LossReason::Terminated => "terminated",
            LossReason::MissedEvents => "missed-events",
            LossReason::DuringInjection => "during-injection",
        }
    }

    /// Inverse of [`LossReason::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "terminated" => Some(LossReason::Terminated),
            "missed-events" => Some(LossReason::MissedEvents),
            "during-injection" => Some(LossReason::DuringInjection),
            _ => None,
        }
    }
}

/// Category of an injected medium fault (see `simkit::FaultPlan`).
///
/// Covered by the xtask R4 exhaustive-match rule like [`TelemetryEvent`]:
/// adding a fault category forces every consumer to decide how to treat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A scheduled interference burst (WiFi-coexistence style jamming).
    Interference,
    /// A frame dropped before the receiver achieved sync.
    Loss,
    /// A frame delivered with injected bit errors (CRC failure).
    Corruption,
    /// A deep-fade episode adding path loss on every link.
    Fading,
    /// A transient clock-drift excursion on one endpoint.
    Drift,
}

impl FaultKind {
    /// Stable wire name, used by the JSONL codec.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Interference => "interference",
            FaultKind::Loss => "loss",
            FaultKind::Corruption => "corruption",
            FaultKind::Fading => "fading",
            FaultKind::Drift => "drift",
        }
    }

    /// Inverse of [`FaultKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "interference" => Some(FaultKind::Interference),
            "loss" => Some(FaultKind::Loss),
            "corruption" => Some(FaultKind::Corruption),
            "fading" => Some(FaultKind::Fading),
            "drift" => Some(FaultKind::Drift),
            _ => None,
        }
    }
}

/// One typed telemetry event.
///
/// Variants group by layer: simulation meta, PHY, Link Layer, attacker,
/// detector, host, injected faults and spans.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    // --- simulation meta ---------------------------------------------------
    /// A node joined the simulation. Emitted (or replayed) so sinks can map
    /// record node indices back to human labels.
    NodeAdded {
        /// The node's configured label, e.g. `"bulb"` or `"attacker"`.
        label: String,
    },

    // --- PHY ---------------------------------------------------------------
    /// A transmission started on the medium.
    TxStart {
        /// Data/advertising channel index (0–39).
        channel: u8,
        /// Access address the frame is sent under.
        access_address: u32,
        /// PDU length in bytes (header + payload).
        pdu_len: u32,
        /// When the last bit leaves the antenna.
        end: Instant,
    },
    /// A transmission finished (same node as the preceding `TxStart`).
    TxEnd,
    /// A receiver locked onto a preamble (first-lock-wins).
    RxLock {
        /// Channel the receiver locked on.
        channel: u8,
    },
    /// A receiver abandoned its lock for a stronger late arrival (capture
    /// effect).
    Relock {
        /// Channel involved.
        channel: u8,
    },
    /// A reception completed and was delivered to the node.
    RxEnd {
        /// Channel received on.
        channel: u8,
        /// Access address of the received frame.
        access_address: u32,
        /// Whether the CRC check passed.
        crc_ok: bool,
        /// Number of overlapping transmissions during the reception.
        interferers: u32,
    },
    /// Overlapping transmissions corrupted a reception (collision that the
    /// capture effect did not resolve).
    Collision {
        /// Channel on which the collision happened.
        channel: u8,
        /// Number of interfering transmissions.
        interferers: u32,
    },
    /// A locked reception accumulated more interferers than the medium's
    /// inline buffer holds, spilling onto the heap — a pathological
    /// co-channel pile-up worth observing in dense worlds (one event per
    /// spilled interferer).
    InterferenceSpill {
        /// Channel on which the pile-up happened.
        channel: u8,
    },

    // --- Link Layer --------------------------------------------------------
    /// A connection-event anchor point: the master's first transmission of
    /// the event, or the slave's reception of it.
    Anchor {
        /// Whose anchor this is.
        role: LinkRole,
        /// Channel of the connection event.
        channel: u8,
        /// The anchor instant (frame start on air).
        at: Instant,
    },
    /// The slave opened its widened receive window (paper eq. 5).
    WindowOpen {
        /// Channel being listened on.
        channel: u8,
        /// The widening applied on each side of the expected anchor.
        widening: Duration,
        /// How long the slave will listen before declaring the event missed.
        deadline: Duration,
    },
    /// Channel-selection hop for the next connection event.
    Hop {
        /// The unmapped→mapped channel chosen by CSA#1.
        channel: u8,
        /// The connection event counter the hop is for.
        event_counter: u16,
    },
    /// Sequence-bit state after processing a received data PDU.
    SnNesn {
        /// Whose state this is.
        role: LinkRole,
        /// Current sequence number bit.
        sn: bool,
        /// Current next-expected-sequence-number bit.
        nesn: bool,
    },
    /// A CRC failure at the Link Layer (frame dropped before processing).
    CrcFail {
        /// Channel on which the bad frame arrived.
        channel: u8,
    },
    /// An LL Control PDU was processed.
    LlControl {
        /// The control opcode (e.g. `0x02` LL_TERMINATE_IND).
        opcode: u8,
    },
    /// A connection reached the established state (CONNECT_IND accepted).
    ConnectionEstablished {
        /// The connection's access address.
        access_address: u32,
        /// The negotiated connection interval.
        interval: Duration,
    },
    /// A connection closed.
    ConnectionClosed {
        /// Spec error code (e.g. `0x08` connection timeout).
        reason: u8,
    },

    // --- attacker ----------------------------------------------------------
    /// The attacker's sniffer synchronised onto a connection.
    SnifferSync {
        /// Access address of the followed connection.
        access_address: u32,
    },
    /// The attacker's sniffer lost the connection.
    SnifferLost {
        /// Why it was lost.
        reason: LossReason,
    },
    /// An injection attempt was fired.
    InjectionAttempt {
        /// Channel injected on.
        channel: u8,
        /// Lead time: how far before the legitimate anchor's expected window
        /// start the injected frame begins (larger = safer race win).
        lead: Duration,
    },
    /// The eq. 7 heuristic classified a finished attempt.
    HeuristicVerdict {
        /// The verdict.
        verdict: Verdict,
        /// Total attempts so far in this campaign (this one included).
        attempts_total: u64,
    },
    /// Anchor-prediction quality: signed error between the attacker's
    /// predicted master anchor and the observed one, in microseconds.
    AnchorPrediction {
        /// `observed − predicted`, µs (negative = anchor came early).
        error_us: f64,
    },
    /// Inter-frame-spacing delta: observed slave response start minus the
    /// eq. 7 expected start (`t_a + d_a + 150 µs`), in microseconds.
    IfsDelta {
        /// Signed delta, µs.
        delta_us: f64,
    },
    /// The attacker hijacked a connection role (§VII MiTM/takeover).
    Takeover {
        /// The role that was usurped.
        role: LinkRole,
    },
    /// A resync scan campaign ran out of hops without finding the
    /// connection again.
    ResyncFailed {
        /// Scan campaigns run since the connection was lost, this one
        /// included.
        campaigns: u32,
        /// The radio-quiet backoff before the next campaign; `None` once
        /// the retries are spent and the attacker gives up.
        backoff: Option<Duration>,
    },

    // --- detector ----------------------------------------------------------
    /// The §VIII IDS raised an alert.
    DetectorAlert {
        /// Alert category.
        kind: AlertKind,
        /// The timing anomaly magnitude in microseconds, where applicable
        /// (0 for purely structural alerts).
        magnitude_us: f64,
    },

    // --- host: connection slots & packet pool ------------------------------
    /// The packet pool refused an allocation (capacity or QoS policy).
    PoolExhausted {
        /// Pool client index (= connection slot) that was refused.
        client: u32,
    },
    /// The fixed-slot connection manager had no free slot to hand out.
    SlotDenied,
    /// A connection slot reached the established state.
    ConnEstablished {
        /// Raw `ConnHandle` encoding (`index | generation << 8`).
        handle: u32,
    },
    /// A connection slot was released; its handles are now stale.
    ConnReleased {
        /// Raw `ConnHandle` encoding (`index | generation << 8`).
        handle: u32,
    },
    /// The packet pool's high-water mark advanced (at most once per
    /// distinct occupancy level, so bounded by the pool capacity per run).
    PoolHighWater {
        /// Most buffers simultaneously in use so far.
        in_use: u32,
    },

    // --- injected faults ---------------------------------------------------
    /// An interference burst window opened (`active: true`) or closed on a
    /// channel, as scheduled by the installed `FaultPlan`.
    FaultBurst {
        /// Channel being jammed.
        channel: u8,
        /// Received interference power at the victims, dBm.
        power_dbm: f64,
        /// Whether the burst window just opened (else it closed).
        active: bool,
    },
    /// A plan-wide fault episode (fading or drift) started or ended.
    FaultEpisode {
        /// Which impairment the episode injects
        /// ([`FaultKind::Fading`] or [`FaultKind::Drift`]).
        kind: FaultKind,
        /// Episode magnitude: extra dB for fading, extra ppm for drift.
        magnitude: f64,
        /// Whether the episode just started (else it ended).
        active: bool,
    },
    /// A single frame was sacrificed to the fault plan
    /// ([`FaultKind::Loss`] or [`FaultKind::Corruption`]).
    FaultFrame {
        /// Which impairment hit the frame.
        kind: FaultKind,
        /// Channel the frame was on.
        channel: u8,
    },

    // --- spans -------------------------------------------------------------
    /// A hierarchical span opened (see the `span` module). The matching
    /// [`TelemetryEvent::SpanExit`] carries the measured durations.
    SpanEnter {
        /// Span instance id (matches the eventual exit).
        id: u32,
        /// What the span measures.
        kind: SpanKind,
        /// Kind-specific detail scalar (channel index for
        /// [`SpanKind::ChannelAirtime`], LL opcode for
        /// [`SpanKind::LlProcedure`], 0 otherwise).
        detail: u32,
    },
    /// A hierarchical span closed. Totals cover enter→exit; `self_*` net out
    /// directly nested spans. Wall-clock fields come from the injected
    /// quarantined clock and are **excluded from byte-identity** (neutralised
    /// by `cargo xtask gate` like `trials_per_sec`).
    SpanExit {
        /// Span instance id (matches the earlier enter).
        id: u32,
        /// What the span measured.
        kind: SpanKind,
        /// Kind-specific detail scalar (same as the enter's).
        detail: u32,
        /// Total simulation nanoseconds.
        sim_ns: u64,
        /// Total wall-clock nanoseconds (0 without an injected clock).
        wall_ns: u64,
        /// Simulation nanoseconds net of child spans.
        self_sim_ns: u64,
        /// Wall-clock nanoseconds net of child spans.
        self_wall_ns: u64,
    },
}

impl TelemetryEvent {
    /// The event's short name: the JSONL `kind` field, and the label the
    /// `timeline` renderer prints.
    pub fn tag(&self) -> &'static str {
        match self {
            TelemetryEvent::NodeAdded { .. } => "node",
            TelemetryEvent::TxStart { .. } => "tx-start",
            TelemetryEvent::TxEnd => "tx-end",
            TelemetryEvent::RxLock { .. } => "rx-lock",
            TelemetryEvent::Relock { .. } => "relock",
            TelemetryEvent::RxEnd { .. } => "rx-end",
            TelemetryEvent::Collision { .. } => "collision",
            TelemetryEvent::InterferenceSpill { .. } => "interference-spill",
            TelemetryEvent::Anchor { .. } => "anchor",
            TelemetryEvent::WindowOpen { .. } => "window-open",
            TelemetryEvent::Hop { .. } => "hop",
            TelemetryEvent::SnNesn { .. } => "sn-nesn",
            TelemetryEvent::CrcFail { .. } => "crc-fail",
            TelemetryEvent::LlControl { .. } => "ll-control",
            TelemetryEvent::ConnectionEstablished { .. } => "connected",
            TelemetryEvent::ConnectionClosed { .. } => "disconnect",
            TelemetryEvent::SnifferSync { .. } => "sniff-sync",
            TelemetryEvent::SnifferLost { .. } => "sniff-lost",
            TelemetryEvent::InjectionAttempt { .. } => "inject",
            TelemetryEvent::HeuristicVerdict { .. } => "inject-outcome",
            TelemetryEvent::AnchorPrediction { .. } => "anchor-error",
            TelemetryEvent::IfsDelta { .. } => "ifs-delta",
            TelemetryEvent::Takeover { .. } => "takeover",
            TelemetryEvent::ResyncFailed { .. } => "resync-failed",
            TelemetryEvent::DetectorAlert { .. } => "alert",
            TelemetryEvent::PoolExhausted { .. } => "pool-exhausted",
            TelemetryEvent::SlotDenied => "slot-denied",
            TelemetryEvent::ConnEstablished { .. } => "conn-established",
            TelemetryEvent::ConnReleased { .. } => "conn-released",
            TelemetryEvent::PoolHighWater { .. } => "pool-high-water",
            TelemetryEvent::FaultBurst { .. } => "fault-burst",
            TelemetryEvent::FaultEpisode { .. } => "fault-episode",
            TelemetryEvent::FaultFrame { .. } => "fault-frame",
            TelemetryEvent::SpanEnter { .. } => "span-enter",
            TelemetryEvent::SpanExit { .. } => "span-exit",
        }
    }
}

impl fmt::Display for TelemetryEvent {
    /// Human-readable detail text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryEvent::NodeAdded { label } => write!(f, "node '{label}' added"),
            TelemetryEvent::TxStart {
                channel,
                access_address,
                pdu_len,
                end,
            } => write!(
                f,
                "ch={channel} aa={access_address:#010x} len={pdu_len} end={end}"
            ),
            TelemetryEvent::TxEnd => write!(f, "tx complete"),
            TelemetryEvent::RxLock { channel } => write!(f, "locked ch={channel}"),
            TelemetryEvent::Relock { channel } => {
                write!(f, "capture relock ch={channel}")
            }
            TelemetryEvent::RxEnd {
                channel,
                access_address,
                crc_ok,
                interferers,
            } => write!(
                f,
                "ch={channel} aa={access_address:#010x} crc_ok={crc_ok} interferers={interferers}"
            ),
            TelemetryEvent::Collision {
                channel,
                interferers,
            } => write!(f, "ch={channel} interferers={interferers}"),
            TelemetryEvent::InterferenceSpill { channel } => {
                write!(f, "interference spill ch={channel}")
            }
            TelemetryEvent::Anchor { role, channel, at } => {
                write!(f, "{} anchor ch={channel} at={at}", role.as_str())
            }
            TelemetryEvent::WindowOpen {
                channel,
                widening,
                deadline,
            } => write!(f, "ch={channel} widening={widening} deadline={deadline}"),
            TelemetryEvent::Hop {
                channel,
                event_counter,
            } => write!(f, "ch={channel} event={event_counter}"),
            TelemetryEvent::SnNesn { role, sn, nesn } => {
                write!(f, "{} sn={} nesn={}", role.as_str(), sn, nesn)
            }
            TelemetryEvent::CrcFail { channel } => write!(f, "ch={channel}"),
            TelemetryEvent::LlControl { opcode } => write!(f, "opcode={opcode:#04x}"),
            TelemetryEvent::ConnectionEstablished {
                access_address,
                interval,
            } => write!(f, "aa={access_address:#010x} interval={interval}"),
            TelemetryEvent::ConnectionClosed { reason } => {
                write!(f, "reason={reason:#04x}")
            }
            TelemetryEvent::SnifferSync { access_address } => {
                write!(f, "following aa={access_address:#010x}")
            }
            TelemetryEvent::SnifferLost { reason } => {
                write!(f, "lost: {}", reason.as_str())
            }
            TelemetryEvent::InjectionAttempt { channel, lead } => {
                write!(f, "ch={channel} lead={lead}")
            }
            TelemetryEvent::HeuristicVerdict {
                verdict,
                attempts_total,
            } => write!(f, "{} (attempt #{attempts_total})", verdict.as_str()),
            TelemetryEvent::AnchorPrediction { error_us } => {
                write!(f, "error={error_us:+.3}µs")
            }
            TelemetryEvent::IfsDelta { delta_us } => write!(f, "delta={delta_us:+.3}µs"),
            TelemetryEvent::Takeover { role } => {
                write!(f, "usurped {}", role.as_str())
            }
            TelemetryEvent::ResyncFailed {
                campaigns,
                backoff: Some(backoff),
            } => write!(f, "campaign {campaigns} empty; backing off {backoff}"),
            TelemetryEvent::ResyncFailed {
                campaigns,
                backoff: None,
            } => write!(f, "gave up after {campaigns} scan campaigns"),
            TelemetryEvent::DetectorAlert { kind, magnitude_us } => {
                write!(f, "{} magnitude={magnitude_us:.3}µs", kind.as_str())
            }
            TelemetryEvent::PoolExhausted { client } => {
                write!(f, "pool refused client={client}")
            }
            TelemetryEvent::SlotDenied => write!(f, "no free connection slot"),
            TelemetryEvent::ConnEstablished { handle } => {
                write!(f, "conn#{}.{} up", handle & 0xFF, handle >> 8)
            }
            TelemetryEvent::ConnReleased { handle } => {
                write!(f, "conn#{}.{} released", handle & 0xFF, handle >> 8)
            }
            TelemetryEvent::PoolHighWater { in_use } => {
                write!(f, "high water in_use={in_use}")
            }
            TelemetryEvent::FaultBurst {
                channel,
                power_dbm,
                active,
            } => write!(
                f,
                "burst {} ch={channel} power={power_dbm:.1}dBm",
                if *active { "on" } else { "off" }
            ),
            TelemetryEvent::FaultEpisode {
                kind,
                magnitude,
                active,
            } => write!(
                f,
                "{} {} magnitude={magnitude:.1}",
                kind.as_str(),
                if *active { "start" } else { "end" }
            ),
            TelemetryEvent::FaultFrame { kind, channel } => {
                write!(f, "{} ch={channel}", kind.as_str())
            }
            TelemetryEvent::SpanEnter { id, kind, detail } => {
                write!(f, "{} #{id} detail={detail}", kind.as_str())
            }
            TelemetryEvent::SpanExit {
                id,
                kind,
                detail,
                sim_ns,
                wall_ns,
                self_sim_ns,
                self_wall_ns,
            } => write!(
                f,
                "{} #{id} detail={detail} sim={sim_ns}ns (self {self_sim_ns}ns) wall={wall_ns}ns (self {self_wall_ns}ns)",
                kind.as_str()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip() {
        for role in [LinkRole::Master, LinkRole::Slave] {
            assert_eq!(LinkRole::parse(role.as_str()), Some(role));
        }
        for v in [Verdict::Success, Verdict::Rejected, Verdict::NoResponse] {
            assert_eq!(Verdict::parse(v.as_str()), Some(v));
        }
        for k in [
            AlertKind::EarlyAnchor,
            AlertKind::DoubleAnchor,
            AlertKind::ResponseTimingMismatch,
        ] {
            assert_eq!(AlertKind::parse(k.as_str()), Some(k));
        }
        for r in [
            LossReason::Terminated,
            LossReason::MissedEvents,
            LossReason::DuringInjection,
        ] {
            assert_eq!(LossReason::parse(r.as_str()), Some(r));
        }
        for k in [
            FaultKind::Interference,
            FaultKind::Loss,
            FaultKind::Corruption,
            FaultKind::Fading,
            FaultKind::Drift,
        ] {
            assert_eq!(FaultKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(LinkRole::parse("nonsense"), None);
        assert_eq!(FaultKind::parse("nonsense"), None);
    }

    #[test]
    fn tags_match_legacy_trace_vocabulary() {
        let anchor = TelemetryEvent::Anchor {
            role: LinkRole::Master,
            channel: 12,
            at: Instant::from_micros(100),
        };
        assert_eq!(anchor.tag(), "anchor");
        let inject = TelemetryEvent::InjectionAttempt {
            channel: 3,
            lead: Duration::from_micros(40),
        };
        assert_eq!(inject.tag(), "inject");
        assert_eq!(TelemetryEvent::TxEnd.tag(), "tx-end");
    }

    #[test]
    fn display_is_informative() {
        let e = TelemetryEvent::WindowOpen {
            channel: 7,
            widening: Duration::from_micros(32),
            deadline: Duration::from_micros(1000),
        };
        let s = format!("{e}");
        assert!(s.contains("ch=7"), "{s}");
        assert!(s.contains("widening"), "{s}");
    }
}
