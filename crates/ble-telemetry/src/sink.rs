//! The sink trait and the per-simulation dispatcher.

use simkit::Instant;

use crate::event::TelemetryEvent;
use crate::metrics::{Counter, MetricsRegistry, SharedRegistry};
use crate::span::{ClosedSpan, SpanId, SpanKind, SpanTracker};

/// One emitted record: when, who, what.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRecord {
    /// Simulation time of the event.
    pub at: Instant,
    /// Index of the emitting node (`None` for simulation-global events).
    /// Labels for indices arrive in the stream as
    /// [`TelemetryEvent::NodeAdded`] records.
    pub node: Option<u32>,
    /// The event itself.
    pub event: TelemetryEvent,
}

/// A consumer of telemetry records.
///
/// Sink `emit` implementations sit on the simulation hot path, so they must
/// not panic (xtask R1 applies) and should avoid allocation where possible.
/// Sinks are `Send` so that a world carrying them can move between threads.
pub trait TelemetrySink: Send {
    /// Consumes one record. Records arrive in simulation-time order.
    fn emit(&mut self, record: &TelemetryRecord);

    /// Flushes any buffered output (e.g. an OS file buffer). Called at the
    /// end of a run; a no-op by default.
    fn flush(&mut self) {}
}

/// The per-simulation dispatcher: the world's metrics block, when on, and
/// a (usually empty) set of trace sinks.
///
/// Emit sites go through [`Telemetry::is_enabled`] or the deferred-build
/// pattern so that, with neither metrics nor a sink on, an emit compiles
/// to a branch-and-return — the event value is never constructed.
///
/// # Example
///
/// ```
/// use ble_telemetry::{RingBufferSink, Telemetry, TelemetryEvent, TelemetryRecord};
/// use simkit::Instant;
///
/// let mut telemetry = Telemetry::default();
/// assert!(!telemetry.is_enabled());
///
/// let registry = telemetry.enable_metrics(std::iter::empty());
/// let sink = RingBufferSink::new(16);
/// let ring = sink.handle();
/// telemetry.add_sink(Box::new(sink));
/// telemetry.emit_record(&TelemetryRecord {
///     at: Instant::ZERO,
///     node: None,
///     event: TelemetryEvent::TxEnd,
/// });
/// assert_eq!(ring.lock().len(), 1);
/// telemetry.flush_at(Instant::ZERO);
/// assert_eq!(registry.lock().counter("telemetry.events"), 1);
/// ```
#[derive(Default)]
pub struct Telemetry {
    sinks: Vec<Box<dyn TelemetrySink>>,
    /// The block every record is tallied into, and the handle a flush
    /// publishes it to.
    metrics: Option<(MetricsRegistry, SharedRegistry)>,
    spans: SpanTracker,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("sinks", &self.sinks.len())
            .field("metrics", &self.metrics.is_some())
            .field("open_spans", &self.spans.open())
            .finish()
    }
}

impl Telemetry {
    /// Whether the metrics block or any sink is on. Hot emit sites check
    /// this before building an event.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_some() || !self.sinks.is_empty()
    }

    /// Turns on a fresh metrics block, tallies `replay` into it (the
    /// records emitted before this call that it should count), and returns
    /// the handle every later [`Telemetry::flush_at`] publishes the block
    /// to. Calling it again starts a new block behind a new handle.
    pub fn enable_metrics(
        &mut self,
        replay: impl IntoIterator<Item = TelemetryEvent>,
    ) -> SharedRegistry {
        let mut block = MetricsRegistry::new();
        for event in replay {
            block.tally(&event);
        }
        let handle = SharedRegistry::default();
        self.metrics = Some((block, handle.clone()));
        handle
    }

    /// Attaches a sink. Sinks receive every record emitted after attachment,
    /// in order.
    pub fn add_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        self.sinks.push(sink);
    }

    /// Tallies a record into the metrics block and fans it out to every
    /// sink.
    pub fn emit_record(&mut self, record: &TelemetryRecord) {
        if let Some((block, _)) = &mut self.metrics {
            block.tally(&record.event);
        }
        for sink in &mut self.sinks {
            sink.emit(record);
        }
    }

    /// Installs the wall clock used for span wall-time attribution — a
    /// monotonic-nanoseconds function injected by the harness so this crate
    /// never reads `std::time` itself (the only sanctioned clock lives in
    /// the `bench::wallclock` quarantine, lint rule R8). Without a clock,
    /// span wall durations read 0 and sim-time attribution still works.
    pub fn set_span_clock(&mut self, clock: fn() -> u64) {
        self.spans.set_clock(clock);
    }

    /// Opens a span and emits its [`TelemetryEvent::SpanEnter`] record.
    ///
    /// With telemetry off this is a branch-and-return: no id is consumed,
    /// no clock is read, nothing is pushed, and the returned
    /// [`SpanId::DISABLED`] sentinel makes the matching
    /// [`Telemetry::span_exit`] a no-op too.
    #[inline]
    pub fn span_enter(
        &mut self,
        at: Instant,
        node: Option<u32>,
        kind: SpanKind,
        detail: u32,
    ) -> SpanId {
        if !self.is_enabled() {
            return SpanId::DISABLED;
        }
        let id = self.spans.enter(at, node, kind, detail);
        let record = TelemetryRecord {
            at,
            node,
            event: TelemetryEvent::SpanEnter {
                id: id.raw(),
                kind,
                detail,
            },
        };
        self.emit_record(&record);
        id
    }

    /// Closes a span and emits its [`TelemetryEvent::SpanExit`] record with
    /// sim-time and wall-clock totals plus self-time (net of nested spans).
    /// No-op for [`SpanId::DISABLED`] or an id already closed (e.g. by the
    /// end-of-run [`Telemetry::flush_at`]).
    #[inline]
    pub fn span_exit(&mut self, at: Instant, id: SpanId) {
        if id.is_disabled() || !self.is_enabled() {
            return;
        }
        if let Some(closed) = self.spans.exit(at, id) {
            self.emit_closed_span(&closed);
        }
    }

    fn emit_closed_span(&mut self, closed: &ClosedSpan) {
        let record = TelemetryRecord {
            at: closed.exit_at,
            node: closed.node,
            event: TelemetryEvent::SpanExit {
                id: closed.id.raw(),
                kind: closed.kind,
                detail: closed.detail,
                sim_ns: closed.sim_ns,
                wall_ns: closed.wall_ns,
                self_sim_ns: closed.self_sim_ns,
                self_wall_ns: closed.self_wall_ns,
            },
        };
        self.emit_record(&record);
    }

    /// Number of spans currently open (test/diagnostic aid).
    pub fn open_spans(&self) -> usize {
        self.spans.open()
    }

    /// Closes every still-open span (topmost first) so the metrics block
    /// and the sinks always see a balanced enter/exit stream, publishes the
    /// block's tallies to its handle, and flushes every sink. Called by the
    /// world at end of run; read the handle only after it.
    pub fn flush_at(&mut self, at: Instant) {
        for closed in self.spans.close_all(at) {
            self.emit_closed_span(&closed);
        }
        if let Some((block, handle)) = &mut self.metrics {
            if block.get(Counter::TelemetryEvents) != 0 {
                handle.lock().absorb(block);
            }
        }
        for sink in &mut self.sinks {
            sink.flush();
        }
    }
}
