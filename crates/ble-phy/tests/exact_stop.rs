//! `World::run_until_or`: a run stopped at the event that makes a
//! predicate hold, then resumed, is the run that never stopped.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

use ble_phy::{
    AccessAddress, AccessFilter, Channel, Environment, NodeConfig, NodeCtx, NodeId, Position,
    RadioEvent, RadioListener, RawFrame, TimerKey, World, ADVERTISING_CRC_INIT,
};
use ble_telemetry::{RingBufferSink, SharedRing, TelemetryRecord};
use simkit::{Duration, Instant, SimRng};

/// Sends a short frame on its timer every 500 µs and notes when.
#[derive(Default)]
struct Beacon {
    sent: u64,
    last_sent_at: Option<Instant>,
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
        let frame = RawFrame::new(
            AccessAddress::ADVERTISING,
            vec![0x42; 8],
            ADVERTISING_CRC_INIT,
        );
        ctx.transmit(Channel::advertising_wrapped(0), frame);
        self.sent += 1;
        self.last_sent_at = Some(ctx.now());
    }
}

/// Keeps its receiver open on the beacons' channel.
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

/// Two beacons whose timers fire at the same instants (the first started
/// pops first), a listener between them, and a ring sink on every record.
/// Returns the world, the ring and the two beacons' ids.
fn world() -> (World, SharedRing, [NodeId; 2]) {
    let mut world = World::new(Environment::indoor_default(), SimRng::seed_from(5));
    let first = world.add_node(
        NodeConfig::new("first", Position::ORIGIN),
        Beacon::default(),
    );
    let second = world.add_node(
        NodeConfig::new("second", Position::new(6.0, 0.0)),
        Beacon::default(),
    );
    let listener = world.add_node(
        NodeConfig::new("listener", Position::new(3.0, 1.0)),
        Listener,
    );
    let sink = RingBufferSink::new(1 << 16);
    let ring = sink.handle();
    world.add_telemetry_sink(Box::new(sink));
    world.start(listener);
    world.start(first);
    world.start(second);
    (world, ring, [first, second])
}

fn records(ring: &SharedRing) -> Vec<TelemetryRecord> {
    let ring = ring.lock();
    assert_eq!(ring.evicted(), 0, "the ring must hold the whole run");
    ring.iter().cloned().collect()
}

fn sent(world: &World, id: NodeId) -> u64 {
    world.node::<Beacon>(id).unwrap().sent
}

const END: Instant = Instant::from_micros(20_000);

#[test]
fn a_stopped_and_resumed_run_delivers_the_records_of_a_plain_run() {
    let (mut plain, plain_ring, _) = world();
    plain.run_until(END);

    let (mut stopped, stopped_ring, [first, second]) = world();
    let stop = |w: &World| sent(w, first) >= 5;
    assert!(
        stopped.run_until_or(END, stop),
        "the predicate fires mid-run"
    );
    // The clock stands at the deciding event: the first beacon's fifth
    // send. The second beacon's timer at that instant is still queued.
    let decided_at = stopped.node::<Beacon>(first).unwrap().last_sent_at;
    assert_eq!(Some(stopped.now()), decided_at);
    assert_eq!(stopped.now(), Instant::from_micros(2_500));
    assert_eq!(sent(&stopped, first), 5);
    assert_eq!(
        sent(&stopped, second),
        4,
        "same-instant event stays pending"
    );
    let at_stop = records(&stopped_ring).len();

    stopped.run_until(END);
    assert_eq!(sent(&stopped, second), sent(&plain, second));
    let (plain_records, stopped_records) = (records(&plain_ring), records(&stopped_ring));
    assert!(at_stop < plain_records.len());
    assert_eq!(stopped_records, plain_records);
    assert_eq!(stopped.now(), plain.now());
}

#[test]
fn a_predicate_that_already_holds_returns_without_stepping() {
    let (mut world, ring, [first, _]) = world();
    world.run_until(Instant::from_micros(1_200));
    let (now, seen) = (world.now(), records(&ring).len());
    assert!(world.run_until_or(END, |w| sent(w, first) >= 2));
    assert_eq!(world.now(), now);
    assert_eq!(records(&ring).len(), seen, "no event ran");
}

#[test]
fn a_predicate_that_never_holds_runs_to_the_end() {
    let (mut world, _, [first, _]) = world();
    let mut checks = 0u64;
    let stopped = world.run_until_or(END, |w| {
        checks += 1;
        sent(w, first) > 1_000
    });
    assert!(!stopped);
    assert_eq!(world.now(), END);
    // Checked once before the first step, then once per event.
    assert!(checks > 2 * sent(&world, first), "{checks} checks");
}
