//! Hierarchical span tracing over the telemetry bus.
//!
//! A *span* is a named interval with a begin and an end, carrying both the
//! simulation-time duration (deterministic, byte-identical across
//! equally-seeded runs) and a wall-clock duration read through an injected
//! clock (see [`crate::Telemetry::set_span_clock`]) so profiling never leaks
//! `std::time` into this crate (lint rule R8 — the only sanctioned clock
//! lives in `bench::wallclock`). Airtime spans carry simulated time only
//! (see [`SpanKind::wall_timed`]).
//!
//! Spans ride the existing [`crate::TelemetryEvent`] bus as
//! [`crate::TelemetryEvent::SpanEnter`] / [`crate::TelemetryEvent::SpanExit`]
//! records, so the metrics block and every sink (ring, JSONL) see them with
//! no new plumbing, and the emit discipline is identical: with telemetry off
//! a span enter/exit is a branch-and-return that never reads the clock, never
//! touches the stack and never allocates.
//!
//! Nesting is LIFO **per node**: a node's radio does one thing at a time, so
//! its spans nest strictly; spans of *different* nodes (and the node-less
//! harness spans) interleave freely on the shared stack, and exit removes
//! the matching frame wherever it sits. Self-time attribution charges a
//! closed span's total to the frame directly beneath it at exit.

use simkit::Instant;

/// Identifier of one span instance. `SpanId::DISABLED` (0) is returned by
/// enter when telemetry is off; exiting it is a no-op, so callers never
/// need to branch on whether telemetry is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The sentinel id handed out while telemetry is disabled.
    pub const DISABLED: SpanId = SpanId(0);

    /// Raw wire value (0 = disabled sentinel, never emitted).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from its wire value (JSONL decoding).
    pub fn from_raw(raw: u32) -> SpanId {
        SpanId(raw)
    }

    /// Whether this is the disabled sentinel.
    pub fn is_disabled(self) -> bool {
        self.0 == 0
    }
}

/// The closed span vocabulary. Like the other wire enums this is
/// deliberately finite — the JSONL codec round-trips `as_str`/`parse`
/// exactly, and the xtask R4 exhaustive-match rule makes adding a phase a
/// compile-visible change at every consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Trial phase: establishing the victim connection and synchronising
    /// the attacker's sniffer.
    TrialSync,
    /// Trial phase: the main attack loop (the attacker follows the
    /// connection and fires injection attempts).
    TrialFollow,
    /// Trial phase: end-of-trial verification (effect observation and
    /// metric collection).
    TrialVerify,
    /// Attacker: scanning data channels for a connection to follow.
    AttackerScan,
    /// Attacker: passively following a synchronised connection.
    AttackerFollow,
    /// Attacker: one injection window, from the transmitted forged frame to
    /// the eq. 7 verdict on it.
    AttackerInject,
    /// PHY: one transmission occupying a channel (detail = channel index).
    /// Simulated time only: it reads no wall clock.
    ChannelAirtime,
    /// Link Layer: processing one LL control PDU (detail = opcode).
    LlProcedure,
}

/// Metric names under which a kind's aggregates land in the
/// [`crate::MetricsRegistry`] (see [`SpanKind::metric_names`]).
#[derive(Debug, Clone, Copy)]
pub struct SpanMetricNames {
    /// Closed-span count.
    pub count: &'static str,
    /// Total simulation nanoseconds.
    pub sim_ns: &'static str,
    /// Simulation nanoseconds net of child spans.
    pub self_sim_ns: &'static str,
    /// Total wall-clock nanoseconds (0 without an injected clock).
    pub wall_ns: &'static str,
    /// Wall-clock nanoseconds net of child spans.
    pub self_wall_ns: &'static str,
}

impl SpanKind {
    /// Every kind, in a fixed order ([`SpanKind::index`] indexes into it).
    pub const ALL: [SpanKind; 8] = [
        SpanKind::TrialSync,
        SpanKind::TrialFollow,
        SpanKind::TrialVerify,
        SpanKind::AttackerScan,
        SpanKind::AttackerFollow,
        SpanKind::AttackerInject,
        SpanKind::ChannelAirtime,
        SpanKind::LlProcedure,
    ];

    /// Position in [`SpanKind::ALL`] (used for fixed-size tally arrays).
    pub fn index(self) -> usize {
        match self {
            SpanKind::TrialSync => 0,
            SpanKind::TrialFollow => 1,
            SpanKind::TrialVerify => 2,
            SpanKind::AttackerScan => 3,
            SpanKind::AttackerFollow => 4,
            SpanKind::AttackerInject => 5,
            SpanKind::ChannelAirtime => 6,
            SpanKind::LlProcedure => 7,
        }
    }

    /// Stable wire name, used by the JSONL codec.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::TrialSync => "trial-sync",
            SpanKind::TrialFollow => "trial-follow",
            SpanKind::TrialVerify => "trial-verify",
            SpanKind::AttackerScan => "attacker-scan",
            SpanKind::AttackerFollow => "attacker-follow",
            SpanKind::AttackerInject => "attacker-inject",
            SpanKind::ChannelAirtime => "channel-airtime",
            SpanKind::LlProcedure => "ll-procedure",
        }
    }

    /// Inverse of [`SpanKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "trial-sync" => Some(SpanKind::TrialSync),
            "trial-follow" => Some(SpanKind::TrialFollow),
            "trial-verify" => Some(SpanKind::TrialVerify),
            "attacker-scan" => Some(SpanKind::AttackerScan),
            "attacker-follow" => Some(SpanKind::AttackerFollow),
            "attacker-inject" => Some(SpanKind::AttackerInject),
            "channel-airtime" => Some(SpanKind::ChannelAirtime),
            "ll-procedure" => Some(SpanKind::LlProcedure),
            _ => None,
        }
    }

    /// Whether spans of this kind read the wall clock. A `channel-airtime`
    /// span stays open while every other node runs, until its frame leaves
    /// the air, so its wall time would time their work, and overlapping
    /// frames would time it many times over: it carries simulated time
    /// only, and its wall columns read 0.
    pub fn wall_timed(self) -> bool {
        match self {
            SpanKind::ChannelAirtime => false,
            SpanKind::TrialSync
            | SpanKind::TrialFollow
            | SpanKind::TrialVerify
            | SpanKind::AttackerScan
            | SpanKind::AttackerFollow
            | SpanKind::AttackerInject
            | SpanKind::LlProcedure => true,
        }
    }

    /// The registry metric names this kind's closed spans aggregate under.
    pub fn metric_names(self) -> SpanMetricNames {
        macro_rules! names {
            ($base:literal) => {
                SpanMetricNames {
                    count: concat!("span.", $base, ".count"),
                    sim_ns: concat!("span.", $base, ".sim_ns"),
                    self_sim_ns: concat!("span.", $base, ".self_sim_ns"),
                    wall_ns: concat!("span.", $base, ".wall_ns"),
                    self_wall_ns: concat!("span.", $base, ".self_wall_ns"),
                }
            };
        }
        match self {
            SpanKind::TrialSync => names!("trial_sync"),
            SpanKind::TrialFollow => names!("trial_follow"),
            SpanKind::TrialVerify => names!("trial_verify"),
            SpanKind::AttackerScan => names!("attacker_scan"),
            SpanKind::AttackerFollow => names!("attacker_follow"),
            SpanKind::AttackerInject => names!("attacker_inject"),
            SpanKind::ChannelAirtime => names!("channel_airtime"),
            SpanKind::LlProcedure => names!("ll_procedure"),
        }
    }
}

/// One open span on the tracker stack.
#[derive(Debug, Clone)]
struct Frame {
    id: u32,
    kind: SpanKind,
    detail: u32,
    node: Option<u32>,
    enter_sim: Instant,
    enter_wall_ns: u64,
    child_sim_ns: u64,
    child_wall_ns: u64,
}

/// A closed span, ready to be emitted as a
/// [`crate::TelemetryEvent::SpanExit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedSpan {
    /// The span's instance id.
    pub id: SpanId,
    /// Simulation time at which the span closed.
    pub exit_at: Instant,
    /// What the span measured.
    pub kind: SpanKind,
    /// Kind-specific detail scalar (channel index, LL opcode, 0).
    pub detail: u32,
    /// The node the span was attributed to at enter.
    pub node: Option<u32>,
    /// Total simulation nanoseconds between enter and exit.
    pub sim_ns: u64,
    /// Total wall-clock nanoseconds (0 without an injected clock).
    pub wall_ns: u64,
    /// Simulation nanoseconds net of directly nested spans.
    pub self_sim_ns: u64,
    /// Wall-clock nanoseconds net of directly nested spans.
    pub self_wall_ns: u64,
}

/// The span bookkeeping: an id counter, the open-frame stack and the
/// injected wall clock. Owned by [`crate::Telemetry`]; the dispatcher is
/// responsible for the disabled-path branch *before* touching the tracker.
#[derive(Debug, Default)]
pub(crate) struct SpanTracker {
    next_id: u32,
    stack: Vec<Frame>,
    clock: Option<fn() -> u64>,
}

impl SpanTracker {
    /// Installs the wall clock (monotonic nanoseconds). Without one, every
    /// wall duration reads 0 — sim-time attribution still works.
    pub(crate) fn set_clock(&mut self, clock: fn() -> u64) {
        self.clock = Some(clock);
    }

    /// The wall clock for a span of `kind`: 0 without a clock or for a
    /// kind that is not [`SpanKind::wall_timed`].
    fn wall_now(&self, kind: SpanKind) -> u64 {
        match self.clock {
            Some(clock) if kind.wall_timed() => clock(),
            _ => 0,
        }
    }

    /// Opens a span and returns its id (never the disabled sentinel).
    pub(crate) fn enter(
        &mut self,
        at: Instant,
        node: Option<u32>,
        kind: SpanKind,
        detail: u32,
    ) -> SpanId {
        self.next_id = self.next_id.wrapping_add(1);
        if self.next_id == 0 {
            self.next_id = 1;
        }
        let id = self.next_id;
        self.stack.push(Frame {
            id,
            kind,
            detail,
            node,
            enter_sim: at,
            enter_wall_ns: self.wall_now(kind),
            child_sim_ns: 0,
            child_wall_ns: 0,
        });
        SpanId(id)
    }

    /// Closes the span with the given id, wherever it sits on the stack
    /// (LIFO per node; frames of other nodes may sit above it). Returns
    /// `None` for an unknown id — e.g. one already closed by
    /// [`SpanTracker::close_all`].
    pub(crate) fn exit(&mut self, at: Instant, id: SpanId) -> Option<ClosedSpan> {
        if id.is_disabled() {
            return None;
        }
        let idx = self.stack.iter().rposition(|f| f.id == id.0)?;
        let frame = self.stack.remove(idx);
        Some(self.close(at, frame, idx))
    }

    /// Closes every open span, topmost first (end-of-run balancing: sinks
    /// always see an exit for every enter).
    pub(crate) fn close_all(&mut self, at: Instant) -> Vec<ClosedSpan> {
        let mut closed = Vec::with_capacity(self.stack.len());
        while let Some(frame) = self.stack.pop() {
            let idx = self.stack.len();
            closed.push(self.close(at, frame, idx));
        }
        closed
    }

    /// Number of currently open spans.
    pub(crate) fn open(&self) -> usize {
        self.stack.len()
    }

    fn close(&mut self, at: Instant, frame: Frame, idx: usize) -> ClosedSpan {
        let sim_ns = at.as_nanos().saturating_sub(frame.enter_sim.as_nanos());
        let wall_ns = self
            .wall_now(frame.kind)
            .saturating_sub(frame.enter_wall_ns);
        // Charge this span's total to the frame directly beneath its old
        // position, so that frame's eventual self-time nets it out. A span
        // without wall time passes its children's wall time on instead.
        let charged_wall_ns = if frame.kind.wall_timed() {
            wall_ns
        } else {
            frame.child_wall_ns
        };
        if idx > 0 {
            if let Some(parent) = self.stack.get_mut(idx - 1) {
                parent.child_sim_ns = parent.child_sim_ns.saturating_add(sim_ns);
                parent.child_wall_ns = parent.child_wall_ns.saturating_add(charged_wall_ns);
            }
        }
        ClosedSpan {
            id: SpanId(frame.id),
            exit_at: at,
            kind: frame.kind,
            detail: frame.detail,
            node: frame.node,
            sim_ns,
            wall_ns,
            self_sim_ns: sim_ns.saturating_sub(frame.child_sim_ns),
            self_wall_ns: wall_ns.saturating_sub(frame.child_wall_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> Instant {
        Instant::from_micros(us)
    }

    #[test]
    fn wire_names_round_trip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(SpanKind::parse("nonsense"), None);
    }

    #[test]
    fn kind_indices_match_all_order() {
        for (i, kind) in SpanKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn metric_names_are_kind_scoped_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in SpanKind::ALL {
            let names = kind.metric_names();
            for name in [
                names.count,
                names.sim_ns,
                names.self_sim_ns,
                names.wall_ns,
                names.self_wall_ns,
            ] {
                assert!(name.starts_with("span."), "{name}");
                assert!(seen.insert(name), "duplicate metric name {name}");
            }
        }
    }

    #[test]
    fn nested_spans_attribute_self_time() {
        let mut t = SpanTracker::default();
        let outer = t.enter(at(0), None, SpanKind::TrialSync, 0);
        let inner = t.enter(at(10), Some(1), SpanKind::ChannelAirtime, 7);
        let inner_closed = t.exit(at(40), inner).expect("inner closes");
        assert_eq!(inner_closed.sim_ns, 30_000);
        assert_eq!(inner_closed.self_sim_ns, 30_000);
        assert_eq!(inner_closed.detail, 7);
        assert_eq!(inner_closed.node, Some(1));
        let outer_closed = t.exit(at(100), outer).expect("outer closes");
        assert_eq!(outer_closed.sim_ns, 100_000);
        assert_eq!(outer_closed.self_sim_ns, 70_000, "child time netted out");
        assert_eq!(t.open(), 0);
    }

    #[test]
    fn cross_node_interleaving_exits_out_of_order() {
        // Two nodes' airtime spans overlap: A enters first, exits first,
        // while B is still open above it on the shared stack.
        let mut t = SpanTracker::default();
        let a = t.enter(at(0), Some(0), SpanKind::ChannelAirtime, 1);
        let b = t.enter(at(5), Some(1), SpanKind::ChannelAirtime, 2);
        let a_closed = t.exit(at(20), a).expect("a closes from mid-stack");
        assert_eq!(a_closed.sim_ns, 20_000);
        let b_closed = t.exit(at(30), b).expect("b closes");
        assert_eq!(b_closed.sim_ns, 25_000);
        // A's total was charged to nothing (it had no frame beneath it);
        // B's self time is its own full duration.
        assert_eq!(b_closed.self_sim_ns, 25_000);
    }

    #[test]
    fn wall_clock_is_injected_not_ambient() {
        static TICKS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        fn fake_clock() -> u64 {
            TICKS.fetch_add(100, std::sync::atomic::Ordering::Relaxed)
        }
        let mut t = SpanTracker::default();
        // No clock: wall durations are 0.
        let s = t.enter(at(0), None, SpanKind::TrialSync, 0);
        let closed = t.exit(at(50), s).expect("closes");
        assert_eq!(closed.wall_ns, 0);
        // Injected clock: monotone fake readings produce real deltas.
        t.set_clock(fake_clock);
        let s = t.enter(at(50), None, SpanKind::TrialFollow, 0);
        let closed = t.exit(at(90), s).expect("closes");
        assert_eq!(closed.wall_ns, 100, "one 100-tick step between reads");
        assert_eq!(closed.sim_ns, 40_000);
        // An airtime span reads no clock, and passes the wall time of a
        // span nested in it on to the span beneath it.
        let follow = t.enter(at(90), None, SpanKind::TrialFollow, 0);
        let air = t.enter(at(90), Some(1), SpanKind::ChannelAirtime, 3);
        let inject = t.enter(at(91), Some(2), SpanKind::AttackerInject, 0);
        let inject = t.exit(at(92), inject).expect("closes");
        let air = t.exit(at(95), air).expect("closes");
        let follow = t.exit(at(99), follow).expect("closes");
        assert_eq!(inject.wall_ns, 100);
        assert_eq!((air.wall_ns, air.self_wall_ns), (0, 0));
        assert_eq!(air.sim_ns, 5_000);
        assert_eq!(
            follow.wall_ns, 300,
            "four clock reads, none by the airtime span"
        );
        assert_eq!(
            follow.self_wall_ns, 200,
            "the nested inject span is netted out"
        );
    }

    #[test]
    fn unknown_and_disabled_ids_are_no_ops() {
        let mut t = SpanTracker::default();
        assert_eq!(t.exit(at(1), SpanId::DISABLED), None);
        assert_eq!(t.exit(at(1), SpanId::from_raw(42)), None);
        let s = t.enter(at(0), None, SpanKind::TrialSync, 0);
        assert!(t.exit(at(1), s).is_some());
        assert_eq!(t.exit(at(2), s), None, "double exit is rejected");
    }

    #[test]
    fn close_all_drains_topmost_first() {
        let mut t = SpanTracker::default();
        let a = t.enter(at(0), None, SpanKind::TrialSync, 0);
        let b = t.enter(at(10), Some(2), SpanKind::AttackerScan, 0);
        let closed = t.close_all(at(100));
        assert_eq!(closed.len(), 2);
        assert_eq!(closed.first().map(|c| c.id), Some(b));
        assert_eq!(closed.get(1).map(|c| c.id), Some(a));
        // The outer span still nets out the inner one's time.
        assert_eq!(closed.get(1).map(|c| c.self_sim_ns), Some(10_000));
        assert_eq!(t.open(), 0);
    }
}
