//! The emit path production takes — `NodeCtx::emit` and
//! `NodeCtx::span_enter` through the world into its `Telemetry` — in its
//! three states: nothing on, the metrics block only, and trace sinks.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

use ble_phy::{
    AccessAddress, AccessFilter, Channel, Environment, NodeConfig, NodeCtx, NodeId, Position,
    RadioEvent, RadioListener, RawFrame, TimerKey, World, ADVERTISING_CRC_INIT,
};
use ble_telemetry::{
    RingBufferSink, SharedRegistry, SharedRing, SpanKind, TelemetryEvent, TelemetryRecord,
};
use simkit::{Duration, SimRng};

/// Sends a short frame every 500 µs inside a span, then emits one event
/// through [`NodeCtx::emit`], counting how often that closure runs.
#[derive(Default)]
struct Beacon {
    sent: u64,
    built: u64,
}

impl RadioListener for Beacon {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer_local(Duration::from_micros(500), TimerKey(1));
    }

    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        let RadioEvent::Timer { .. } = event else {
            return;
        };
        ctx.set_timer_local(Duration::from_micros(500), TimerKey(1));
        let span = ctx.span_enter(SpanKind::AttackerInject, 0);
        let frame = RawFrame::new(
            AccessAddress::ADVERTISING,
            vec![0x42; 8],
            ADVERTISING_CRC_INIT,
        );
        ctx.transmit(Channel::advertising_wrapped(0), frame);
        self.sent += 1;
        ctx.span_exit(span);
        let built = &mut self.built;
        ctx.emit(|| {
            *built += 1;
            TelemetryEvent::AnchorPrediction { error_us: 1.5 }
        });
    }
}

/// Keeps its receiver open on the beacon's channel.
struct Listener;

impl RadioListener for Listener {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        listen(ctx);
    }

    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::FrameReceived(_) = event {
            listen(ctx);
        }
    }
}

fn listen(ctx: &mut NodeCtx<'_>) {
    ctx.start_rx(
        Channel::advertising_wrapped(0),
        AccessFilter::Any,
        ADVERTISING_CRC_INIT,
    );
}

/// Builds the two-node world, lets `attach` turn telemetry on between the
/// nodes joining and starting, runs 20 ms and flushes. Returns the world
/// and the beacon's id.
fn run(attach: impl FnOnce(&mut World)) -> (World, NodeId) {
    let mut world = World::new(Environment::indoor_default(), SimRng::seed_from(11));
    let beacon = world.add_node(
        NodeConfig::new("beacon", Position::ORIGIN),
        Beacon::default(),
    );
    let listener = world.add_node(
        NodeConfig::new("listener", Position::new(3.0, 0.0)),
        Listener,
    );
    attach(&mut world);
    world.start(listener);
    world.start(beacon);
    world.run_for(Duration::from_millis(20));
    world.flush_telemetry();
    (world, beacon)
}

fn ring(world: &mut World) -> SharedRing {
    let sink = RingBufferSink::new(1 << 16);
    let ring = sink.handle();
    world.add_telemetry_sink(Box::new(sink));
    ring
}

fn records(ring: &SharedRing) -> Vec<TelemetryRecord> {
    let ring = ring.lock();
    assert_eq!(ring.evicted(), 0, "the ring must hold the whole run");
    ring.iter().cloned().collect()
}

#[test]
fn disabled_dispatcher_never_builds_the_event() {
    let (world, beacon) = run(|_| {});
    let beacon = world.node::<Beacon>(beacon).unwrap();
    assert!(
        beacon.sent >= 30,
        "the beacon must keep sending: {}",
        beacon.sent
    );
    assert_eq!(beacon.built, 0, "event closure ran with telemetry off");
}

#[test]
fn records_fan_out_to_every_sink() {
    let mut rings = Vec::new();
    let (world, beacon) = run(|w| rings.extend([ring(w), ring(w)]));
    let (a, b) = (records(&rings[0]), records(&rings[1]));
    assert_eq!(a, b, "both sinks see the same records in the same order");
    let beacon = world.node::<Beacon>(beacon).unwrap();
    assert_eq!(beacon.built, beacon.sent);
    let count = |pred: fn(&TelemetryEvent) -> bool| a.iter().filter(|r| pred(&r.event)).count();
    assert_eq!(count(|e| matches!(e, TelemetryEvent::NodeAdded { .. })), 2);
    let sent = usize::try_from(beacon.sent).unwrap();
    assert_eq!(count(|e| matches!(e, TelemetryEvent::TxStart { .. })), sent);
    // The beacon's own span, besides the medium's channel-airtime span.
    assert_eq!(
        count(|e| matches!(
            e,
            TelemetryEvent::SpanEnter {
                kind: SpanKind::AttackerInject,
                ..
            }
        )),
        sent
    );
    assert_eq!(
        count(|e| matches!(e, TelemetryEvent::AnchorPrediction { .. })),
        sent
    );
}

#[test]
fn metrics_only_tallies_every_record_a_sink_would_see() {
    let mut registry: Option<SharedRegistry> = None;
    let (metered, beacon) = run(|w| registry = Some(w.enable_metrics()));
    let mut shared_ring = None;
    let (traced, _) = run(|w| shared_ring = Some(ring(w)));
    let trace = records(&shared_ring.unwrap());
    let reg = registry.unwrap();
    let reg = reg.lock();
    assert_eq!(
        reg.counter("telemetry.events"),
        u64::try_from(trace.len()).unwrap(),
        "one tally per record the twin world's sink received"
    );
    let count = |pred: fn(&TelemetryEvent) -> bool| {
        u64::try_from(trace.iter().filter(|r| pred(&r.event)).count()).unwrap()
    };
    assert_eq!(
        reg.counter("sim.nodes"),
        count(|e| matches!(e, TelemetryEvent::NodeAdded { .. }))
    );
    assert_eq!(
        reg.counter("phy.tx"),
        count(|e| matches!(e, TelemetryEvent::TxStart { .. }))
    );
    assert_eq!(
        reg.counter("span.enters"),
        count(|e| matches!(e, TelemetryEvent::SpanEnter { .. }))
    );
    assert_eq!(
        reg.counter("phy.rx"),
        count(|e| matches!(e, TelemetryEvent::RxEnd { .. }))
    );
    let built = metered.node::<Beacon>(beacon).unwrap().built;
    assert!(built > 0, "metrics alone must run the emit closures");
    assert_eq!(traced.node::<Beacon>(beacon).unwrap().built, built);
    assert_eq!(
        reg.hist(ble_telemetry::Hist::AnchorErrorUs)
            .map(|h| h.count()),
        Some(built)
    );
}
