//! Structured telemetry for the InjectaBLE simulation stack.
//!
//! The paper's contribution is µs-scale timing behaviour — window widening
//! (eq. 5), the injection-point race, and the §VIII detector that keys on
//! inter-frame timing. This crate is the stack's one event log: a typed
//! event vocabulary ([`TelemetryEvent`]), the world's metrics block, and a
//! sink abstraction ([`TelemetrySink`]) for traces.
//!
//! The dispatcher ([`Telemetry`]) owns the metrics block, a
//! [`MetricsRegistry`] of counters, span totals and fixed-bucket
//! microsecond histograms (injection lead time, anchor prediction error,
//! IFS deltas). When it is on, [`MetricsRegistry::tally`] counts every
//! record, and a flush publishes the block into the [`SharedRegistry`]
//! the caller holds. Two sinks ship for traces:
//!
//! - [`RingBufferSink`] — a bounded in-memory ring for test assertions;
//! - [`JsonlSink`] — one JSON object per line, for offline analysis and the
//!   `timeline` renderer in the bench crate.
//!
//! Telemetry is **zero-cost when disabled**: emit sites take a closure, and
//! the dispatcher returns before building the event when neither the
//! metrics block nor a sink is on. The bench crate's `telemetry`
//! microbenchmark verifies the disabled path is a branch-and-return.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::cast_possible_truncation
    )
)]

pub mod delivery;
pub mod event;
pub mod jsonl;
pub mod metrics;
pub mod ring;
pub mod sink;
pub mod span;

pub use delivery::{DeliveryTotals, DeliveryTracker, PacketDelivery};
pub use event::{AlertKind, FaultKind, LinkRole, LossReason, TelemetryEvent, Verdict};
pub use jsonl::{parse_line, JsonlSink};
pub use metrics::{
    Counter, Hist, HistSummary, HistogramUs, MetricsRegistry, SharedRegistry, SpanTotals,
};
pub use ring::{RingBuffer, RingBufferSink, SharedRing};
pub use sink::{Telemetry, TelemetryRecord, TelemetrySink};
pub use span::{ClosedSpan, SpanId, SpanKind, SpanMetricNames};
