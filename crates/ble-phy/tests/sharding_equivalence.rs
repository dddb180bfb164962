//! Sharded vs full-broadcast delivery equivalence.
//!
//! [`DeliveryMode::FullBroadcast`] schedules an `RxStart` at every node for
//! every frame — the medium's original O(nodes) behaviour, retained as the
//! oracle. [`DeliveryMode::Sharded`] keys every node's edge when the frame
//! leaves but queues it only once it can act: at once for a reachable
//! listener on the channel that is locked or whose filter matches the
//! frame, otherwise when the receiver locks, retunes or re-filters before
//! the edge fires. The two must be **event-for-event identical**: the
//! sharded path may only skip edges the broadcast path would have
//! discarded without any state or RNG effect.
//!
//! The oracle check runs randomized dense worlds — nodes that transmit,
//! retune, and close their receivers at random times on random channels —
//! under both modes at fixed seeds and compares every telemetry record
//! plus every node's received-event log. Frames carry either a fixed
//! payload or mixed 1–255 B payloads, so frames also end out of start
//! order and are collected out of order. Worlds use both the indoor
//! environment (cull never fires) and the dense hall at stadium scale (cull
//! active on far pairs), so equivalence is pinned on both sides of the
//! horizon.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

use ble_phy::{
    AccessAddress, AccessFilter, Channel, DeliveryMode, Environment, NodeConfig, NodeCtx, Position,
    RadioEvent, RadioListener, RawFrame, TimerKey, World,
};
use ble_telemetry::RingBufferSink;
use simkit::{Duration, Instant, SimRng};

const AA: AccessAddress = AccessAddress::new(0x50C2_33A1);
const CRC_INIT: u32 = 0xABCDEF;

/// A node that transmits, retunes, closes its receiver, or idles at random
/// (from its own forked RNG), recording every radio event it observes. The
/// action stream is a pure function of the event schedule and the node's
/// RNG, so any divergence between delivery modes cascades into the log.
struct Chatterbox {
    marker: u8,
    payload: Payload,
    log: Vec<String>,
}

/// Payload lengths of a randomized world's frames.
#[derive(Clone, Copy)]
enum Payload {
    /// Every frame carries 12 bytes, so frames end in the order they start.
    Fixed,
    /// Each frame draws 1–255 bytes (up to ~2.1 ms on air), so a long frame
    /// outlives short ones that started after it.
    Mixed,
}

impl Payload {
    /// Spread of the gap between a node's actions. Mixed worlds act ten
    /// times less often so that some ~1 ms locks complete before their
    /// receiver retunes, transmits or closes.
    fn max_gap_us(self) -> u64 {
        match self {
            Payload::Fixed => 300,
            Payload::Mixed => 3_000,
        }
    }
}

impl Chatterbox {
    fn new(marker: u8, payload: Payload) -> Self {
        Chatterbox {
            marker,
            payload,
            log: Vec::new(),
        }
    }
}

impl RadioListener for Chatterbox {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        self.log.push(format!("{event:?}"));
        if let RadioEvent::Timer { .. } = event {
            let channel = Channel::data_wrapped(u8::try_from(ctx.rng().below(37)).unwrap());
            match ctx.rng().below(10) {
                0..=3 if !ctx.is_transmitting() => {
                    let len = match self.payload {
                        Payload::Fixed => 12,
                        Payload::Mixed => 1 + usize::try_from(ctx.rng().below(255)).unwrap(),
                    };
                    let frame = RawFrame::new(AA, vec![self.marker; len], CRC_INIT);
                    ctx.transmit(channel, frame);
                }
                4..=7 if !ctx.is_transmitting() => {
                    ctx.start_rx(channel, AccessFilter::Any, CRC_INIT);
                }
                8 => ctx.stop_rx(),
                _ => {}
            }
            let delay = 50 + ctx.rng().below(self.payload.max_gap_us());
            ctx.set_timer_local(Duration::from_micros(delay), TimerKey(1));
        }
    }
}

/// Builds and runs one randomized world; returns its telemetry records and
/// every node's event log, both rendered to strings.
fn run_world(
    seed: u64,
    nodes: usize,
    span_m: f64,
    env: Environment,
    payload: Payload,
    mode: DeliveryMode,
) -> Vec<String> {
    let mut sim = World::new(env, SimRng::seed_from(seed));
    sim.set_delivery_mode(mode);
    let sink = RingBufferSink::new(usize::MAX);
    let ring = sink.handle();
    sim.add_telemetry_sink(Box::new(sink));
    // Positions come from a dedicated RNG so both modes build the same
    // geometry without touching the world's stream.
    let mut layout = SimRng::seed_from(seed ^ 0x9E37_79B9);
    let mut ids = Vec::new();
    for i in 0..nodes {
        let x = layout.below(1_000) as f64 / 1_000.0 * span_m;
        let y = layout.below(1_000) as f64 / 1_000.0 * span_m;
        let marker = u8::try_from(i % 251).unwrap();
        ids.push(sim.add_node(
            NodeConfig::new(format!("n{i}"), Position::new(x, y)),
            Chatterbox::new(marker, payload),
        ));
    }
    // Staggered first ticks so transmissions overlap but never start in
    // lockstep.
    for (i, id) in ids.iter().enumerate() {
        sim.with_ctx(*id, |ctx| {
            ctx.set_timer_local(Duration::from_micros(10 + 7 * i as u64), TimerKey(1));
        });
    }
    sim.run_for(Duration::from_millis(50));
    let ring = ring.lock();
    assert_eq!(ring.evicted(), 0, "the ring must keep every record");
    let mut out: Vec<String> = ring.iter().map(|r| format!("{r:?}")).collect();
    for id in ids {
        let node = sim.node::<Chatterbox>(id).expect("chatterbox");
        out.push(format!("--- node {}", node.marker));
        out.extend(node.log.iter().cloned());
    }
    out
}

#[test]
fn sharded_delivery_matches_the_broadcast_oracle_indoors() {
    // Indoor scale: every pair is far inside the cull horizon, so this
    // pins pure scheduling equivalence (listener index + late edges).
    for payload in [Payload::Fixed, Payload::Mixed] {
        for seed in [3u64, 41, 1234] {
            let world =
                |mode| run_world(seed, 16, 30.0, Environment::indoor_default(), payload, mode);
            let broadcast = world(DeliveryMode::FullBroadcast);
            let sharded = world(DeliveryMode::Sharded);
            assert!(
                broadcast.iter().any(|l| l.contains("RxEnd")),
                "world must actually deliver frames (seed {seed})"
            );
            assert_eq!(
                broadcast, sharded,
                "sharded delivery diverged from the broadcast oracle (seed {seed})"
            );
        }
    }
}

#[test]
fn sharded_delivery_matches_the_broadcast_oracle_with_active_culling() {
    // Stadium scale in the dense hall: the ~300 m cull horizon cuts
    // through the node cloud, so both reachable and culled pairs are
    // exercised — the cull must fire identically in both modes.
    for payload in [Payload::Fixed, Payload::Mixed] {
        for seed in [7u64, 99] {
            let world = |mode| run_world(seed, 24, 800.0, Environment::dense_hall(), payload, mode);
            assert_eq!(
                world(DeliveryMode::FullBroadcast),
                world(DeliveryMode::Sharded),
                "culling diverged between delivery modes (seed {seed})"
            );
        }
    }
}

/// A listener pinned to one channel, re-opening after every frame.
struct PinnedListener {
    channel: Channel,
    received: u64,
}

impl RadioListener for PinnedListener {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.start_rx(self.channel, AccessFilter::Any, CRC_INIT);
    }
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::FrameReceived(f) = event {
            if f.crc_ok {
                self.received += 1;
            }
            ctx.start_rx(self.channel, AccessFilter::Any, CRC_INIT);
        }
    }
}

/// A beacon hopping through the data channels, one frame per tick.
struct Hopper {
    next: u8,
}

impl RadioListener for Hopper {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer_local(Duration::from_micros(400), TimerKey(1));
    }
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::Timer { .. } = event {
            if !ctx.is_transmitting() {
                let frame = RawFrame::new(AA, vec![0xC3; 12], CRC_INIT);
                ctx.transmit(Channel::data_wrapped(self.next), frame);
                self.next = (self.next + 1) % 37;
            }
            ctx.set_timer_local(Duration::from_micros(400), TimerKey(1));
        }
    }
}

fn run_dense(mode: DeliveryMode, nodes: usize) -> ble_telemetry::DeliveryTotals {
    let mut sim = World::new(Environment::indoor_default(), SimRng::seed_from(11));
    sim.set_delivery_mode(mode);
    sim.enable_delivery_tracker(64);
    let mut ids = Vec::new();
    for i in 0..nodes {
        let x = (i % 12) as f64 * 2.0;
        let y = (i / 12) as f64 * 2.0;
        let cfg = NodeConfig::new(format!("l{i}"), Position::new(x, y));
        ids.push(sim.add_node(
            cfg,
            PinnedListener {
                channel: Channel::data_wrapped(u8::try_from(i % 37).unwrap()),
                received: 0,
            },
        ));
    }
    let hopper = sim.add_node(
        NodeConfig::new("hopper", Position::new(5.0, 5.0)),
        Hopper { next: 0 },
    );
    ids.push(hopper);
    for id in ids {
        sim.start(id);
    }
    sim.run_for(Duration::from_millis(100));
    sim.delivery_tracker().expect("tracker enabled").totals()
}

#[test]
fn sharded_mode_schedules_an_order_of_magnitude_fewer_rx_starts() {
    // 128 listeners pinned across the 37 data channels plus one hopping
    // beacon: broadcast schedules 128 edges per frame, sharded only the
    // 3–4 listeners sharing the frame's channel. The issue's acceptance
    // floor is 5×; the measured ratio here is ~30×.
    let broadcast = run_dense(DeliveryMode::FullBroadcast, 128);
    let sharded = run_dense(DeliveryMode::Sharded, 128);
    assert_eq!(
        broadcast.frames_delivered, sharded.frames_delivered,
        "both modes must deliver the same frames"
    );
    assert!(sharded.frames_delivered > 0, "world must deliver frames");
    assert!(
        broadcast.scheduled_rx_starts >= 5 * sharded.scheduled_rx_starts,
        "sharding must cut scheduled RxStarts at least 5x \
         (broadcast {} vs sharded {})",
        broadcast.scheduled_rx_starts,
        sharded.scheduled_rx_starts
    );
}

// Forced deferral. The worlds above listen with `AccessFilter::Any`, so
// every reachable listener's edge acts at once and is queued at transmit.
// The worlds below filter for one of a few access addresses, so most
// edges are deferred (left off the queue at transmit), and they force the
// moments at which a deferred edge starts to act: a receiver that locks,
// opens or re-filters after the frame left and before (or exactly when)
// it arrives, with arrivals that tie at receivers equidistant from a
// transmitter. Each world runs under both delivery modes and must match
// the broadcast oracle record for record.

const AAS: [AccessAddress; 3] = [
    AccessAddress::new(0x8E89_BED6),
    AccessAddress::new(0x50C2_33A1),
    AccessAddress::new(0x71A4_0C5E),
];

/// One step of a [`Scripted`] node, fired by a timer at an absolute instant.
#[derive(Clone, Copy)]
enum Step {
    Transmit(Channel, AccessAddress),
    Listen(Channel, AccessFilter),
}

/// A node that runs a fixed script and logs every radio event it sees.
struct Scripted {
    steps: Vec<(Instant, Step)>,
    log: Vec<String>,
}

impl RadioListener for Scripted {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for (key, (at, _)) in self.steps.iter().enumerate() {
            ctx.set_timer_at(*at, TimerKey(key as u64));
        }
    }

    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        self.log.push(format!("{event:?}"));
        if let RadioEvent::Timer { key, .. } = event {
            match self
                .steps
                .get(usize::try_from(key.0).unwrap())
                .map(|(_, step)| *step)
            {
                Some(Step::Transmit(channel, aa)) => {
                    ctx.transmit(channel, RawFrame::new(aa, [0x5A; 8], CRC_INIT));
                }
                Some(Step::Listen(channel, filter)) => ctx.start_rx(channel, filter, CRC_INIT),
                None => {}
            }
        }
    }
}

/// One node of a scripted world: position, transmit power and script.
struct Actor {
    at: Position,
    tx_dbm: f64,
    steps: Vec<(Instant, Step)>,
}

impl Actor {
    fn new(at: Position, steps: Vec<(Instant, Step)>) -> Self {
        Actor {
            at,
            tx_dbm: 0.0,
            steps,
        }
    }
}

/// A scripted world's rendered telemetry and node logs, and its ledger.
struct Outcome {
    log: Vec<String>,
    rows: Vec<(u64, ble_telemetry::PacketDelivery)>,
}

/// Runs scripted `actors` (started in `start_order`) in the indoor
/// environment, which fades every frame, so that a reordered draw shows.
fn run_scripted(actors: Vec<Actor>, start_order: &[usize], mode: DeliveryMode) -> Outcome {
    let mut sim = World::new(Environment::indoor_default(), SimRng::seed_from(17));
    sim.set_delivery_mode(mode);
    sim.enable_delivery_tracker(64);
    let sink = RingBufferSink::new(usize::MAX);
    let ring = sink.handle();
    sim.add_telemetry_sink(Box::new(sink));
    let ids: Vec<_> = actors
        .into_iter()
        .enumerate()
        .map(|(i, a)| {
            let cfg = NodeConfig::new(format!("s{i}"), a.at).with_tx_power(a.tx_dbm);
            let node = Scripted {
                steps: a.steps,
                log: Vec::new(),
            };
            sim.add_node(cfg, node)
        })
        .collect();
    for &i in start_order {
        sim.start(ids[i]);
    }
    sim.run_for(Duration::from_millis(2));
    let mut log: Vec<String> = ring.lock().iter().map(|r| format!("{r:?}")).collect();
    for (i, id) in ids.iter().enumerate() {
        log.push(format!("--- node {i}"));
        log.extend(
            sim.node::<Scripted>(*id)
                .expect("scripted")
                .log
                .iter()
                .cloned(),
        );
    }
    let rows = sim.delivery_tracker().expect("tracker").packets().collect();
    Outcome { log, rows }
}

/// Runs a scripted world under both modes, asserts they match, and returns
/// the sharded run.
fn scripted_in_both_modes(actors: impl Fn() -> Vec<Actor>, start_order: &[usize]) -> Outcome {
    let broadcast = run_scripted(actors(), start_order, DeliveryMode::FullBroadcast);
    let sharded = run_scripted(actors(), start_order, DeliveryMode::Sharded);
    assert_eq!(
        broadcast.log, sharded.log,
        "sharded delivery diverged from the broadcast oracle"
    );
    sharded
}

fn ch(index: u8) -> Channel {
    Channel::new(index).expect("valid channel")
}

fn at_us(us: u64) -> Instant {
    Instant::from_micros(us)
}

/// 3 km from the origin: ~10 µs of flight.
const FAR: Position = Position::new(3_000.0, 0.0);

/// A +20 dBm transmitter at [`FAR`] that sends one AAS[1] frame on
/// channel 5 at 100 µs.
fn far_sender() -> Actor {
    Actor {
        at: FAR,
        tx_dbm: 20.0,
        steps: vec![(at_us(100), Step::Transmit(ch(5), AAS[1]))],
    }
}

#[test]
fn a_receiver_locking_before_a_deferred_arrival_draws_it_as_interference() {
    // The receiver at the origin filters for AAS[0]. A far frame for AAS[1]
    // leaves at 100 µs, so its edge is deferred; a near AAS[0] frame locks
    // the receiver at 105 µs, before the far frame arrives at ~110 µs.
    // Locked, the receiver must draw the far frame as interference, as the
    // broadcast oracle's unconditional edge does. With the lock at 115 µs
    // instead, the deferred edge has already fired as a no-op and is never
    // queued. The near transmitter never listens.
    for (lock_us, late) in [(105, true), (115, false)] {
        let rows = scripted_in_both_modes(
            || {
                vec![
                    Actor::new(
                        Position::ORIGIN,
                        vec![(at_us(10), Step::Listen(ch(5), AccessFilter::One(AAS[0])))],
                    ),
                    far_sender(),
                    Actor::new(
                        Position::new(1.0, 0.0),
                        vec![(at_us(lock_us), Step::Transmit(ch(5), AAS[0]))],
                    ),
                ]
            },
            &[0, 1, 2],
        )
        .rows;
        let far_frame = rows[0].1;
        assert_eq!(
            (far_frame.scheduled, far_frame.suppressed),
            if late { (1, 1) } else { (0, 2) },
            "lock at {lock_us} µs"
        );
    }
}

#[test]
fn a_receiver_refiltering_mid_flight_releases_the_deferred_edge() {
    // The receiver filters for AAS[0] when a far AAS[1] frame leaves at
    // 100 µs. Re-filtering for AAS[1] before the arrival (105 µs) queues
    // the deferred edge, and the receiver locks when it fires; re-filtering
    // for AAS[2], or well after the arrival, hears nothing. At the
    // arrival's exact instant, or just after it, the receiver locks late,
    // through `start_rx`'s own scan, as it does under the oracle; at the
    // exact instant the frame's own edge has not fired yet, and must not
    // draw the frame a second time, so it is never queued.
    let env = Environment::indoor_default();
    let arrival = at_us(100) + env.propagation_delay(FAR, Position::ORIGIN);
    for (refilter_at, aa, late, heard) in [
        (at_us(105), AAS[1], true, 1),
        (arrival, AAS[1], false, 1),
        (at_us(105), AAS[2], false, 0),
        (arrival + Duration::from_nanos(1), AAS[1], false, 1),
        (arrival + Duration::from_micros(5), AAS[1], false, 0),
    ] {
        let rows = scripted_in_both_modes(
            || {
                vec![
                    Actor::new(
                        Position::ORIGIN,
                        vec![
                            (at_us(10), Step::Listen(ch(5), AccessFilter::One(AAS[0]))),
                            (refilter_at, Step::Listen(ch(5), AccessFilter::One(aa))),
                        ],
                    ),
                    far_sender(),
                ]
            },
            &[0, 1],
        )
        .rows;
        let frame = rows[0].1;
        let expected = if late { (1, 0) } else { (0, 1) };
        assert_eq!(
            ((frame.scheduled, frame.suppressed), frame.heard),
            (expected, heard),
            "re-filter for {aa:?} at {refilter_at:?}"
        );
    }
}

/// The `RxLock` records of node `node` in a scripted log: one per lock and
/// one per relock.
fn locks_of(log: &[String], node: usize) -> usize {
    let record = format!("node: Some({node}), event: RxLock ");
    log.iter().filter(|l| l.contains(&record)).count()
}

#[test]
fn a_receiver_opening_at_a_frames_exact_arrival_instant_matches_the_oracle() {
    // The receiver at the origin stays idle until exactly the instant the
    // far AAS[1] frame arrives, then opens for AAS[1]. Its timer was set
    // before the frame left, so it fires before the frame's own edge, and
    // `start_rx` locks late onto the frame: one `RxLock`, and the
    // frame's edge, keyed after the timer, must not draw it again.
    //
    // With `near`, a 1 m transmitter's AAS[1] frame arrived 1 µs earlier,
    // inside the late-lock grace, so the receiver locks onto that one
    // instead. The far frame's edge then acts on that lock: it has not
    // fired at the open, so it is queued under its reserved key and draws
    // the far frame as interference, where the oracle's edge draws it.
    let env = Environment::indoor_default();
    let arrival = at_us(100) + env.propagation_delay(FAR, Position::ORIGIN);
    for near in [false, true] {
        let outcome = scripted_in_both_modes(
            || {
                let mut actors = vec![
                    Actor::new(
                        Position::ORIGIN,
                        vec![(arrival, Step::Listen(ch(5), AccessFilter::One(AAS[1])))],
                    ),
                    far_sender(),
                ];
                if near {
                    actors.push(Actor::new(
                        Position::new(1.0, 0.0),
                        vec![(
                            arrival - Duration::from_micros(1),
                            Step::Transmit(ch(5), AAS[1]),
                        )],
                    ));
                }
                actors
            },
            &[0, 1, 2][..if near { 3 } else { 2 }],
        );
        assert_eq!(locks_of(&outcome.log, 0), 1, "near frame: {near}");
        let far_frame = outcome.rows[0].1;
        let (heard, scheduled) = if near { (0, 1) } else { (1, 0) };
        assert_eq!(
            (far_frame.heard, far_frame.scheduled),
            (heard, scheduled),
            "near frame: {near}"
        );
        if near {
            assert_eq!(outcome.rows[1].1.heard, 1, "the near frame is heard");
        }
    }
}

#[test]
fn a_lock_at_a_deferred_arrivals_instant_orders_like_the_oracle() {
    // Receivers r (filters AAS[0]) and s (filters AAS[1]) sit 150 m from
    // transmitter a (AAS[1]), and r sits 150 m from transmitter b
    // (AAS[0]): a's and b's frames leave at the same instant, so both of
    // r's arrivals tie, and so do r's and s's arrivals of a's frame.
    // r's edge for a's frame is deferred. If b transmitted first, r locks
    // on b's frame at the tie, before a's deferred edge's key: queued
    // under its reserved id, that edge must draw before s's lock on a's
    // frame, exactly where the oracle draws it. If a transmitted first,
    // the deferred edge's key has passed when r locks, and it stays a
    // no-op and is never queued. s's deferred edge for b's frame, which
    // reaches s later, is queued by s's lock either way.
    let d = 150.0;
    for b_first in [true, false] {
        let order: &[usize] = if b_first {
            &[0, 1, 3, 2]
        } else {
            &[0, 1, 2, 3]
        };
        let rows = scripted_in_both_modes(
            || {
                vec![
                    Actor::new(
                        Position::ORIGIN,
                        vec![(at_us(10), Step::Listen(ch(7), AccessFilter::One(AAS[0])))],
                    ),
                    Actor::new(
                        Position::new(-d, d),
                        vec![(at_us(10), Step::Listen(ch(7), AccessFilter::One(AAS[1])))],
                    ),
                    Actor::new(
                        Position::new(-d, 0.0),
                        vec![(at_us(100), Step::Transmit(ch(7), AAS[1]))],
                    ),
                    Actor::new(
                        Position::new(0.0, -d),
                        vec![(at_us(100), Step::Transmit(ch(7), AAS[0]))],
                    ),
                ]
            },
            order,
        )
        .rows;
        // Rows in transmit order.
        let (a_row, b_row) = if b_first {
            (rows[1].1, rows[0].1)
        } else {
            (rows[0].1, rows[1].1)
        };
        // b never listens; r's edge for a's frame is queued late, or never.
        let a_expected = if b_first { (2, 1) } else { (1, 2) };
        assert_eq!(
            (a_row.scheduled, a_row.suppressed),
            a_expected,
            "b first: {b_first}"
        );
        assert_eq!(
            (b_row.scheduled, b_row.suppressed),
            (2, 1),
            "b first: {b_first}"
        );
    }
}

/// A transmitter of the grid family: at random instants on a 250 ns grid
/// (150 µs apart on average), sends a 2–12 byte frame for one of [`AAS`]
/// on one of two channels. It never listens, so it never opens a receiver
/// while a frame is in flight.
struct GridTx {
    log: Vec<String>,
}

/// A receiver of the grid family: always listening, re-filtering for a
/// random access address (now and then any) at random grid instants and
/// after every frame. A fixed receiver stays on its own channel, with
/// timers 250 µs apart on average; a retuning one hops to the other grid
/// channel at every timer, at most 25 µs apart, so it often opens on a
/// channel after a frame left and before it arrives.
struct GridRx {
    channel: Channel,
    retune: bool,
    log: Vec<String>,
}

impl GridRx {
    /// Grid slots to the next timer, at most.
    fn max_slots(&self) -> u64 {
        if self.retune {
            100
        } else {
            2_000
        }
    }
}

const GRID_SLOT_NS: u64 = 250;

/// A random grid instant 1–`max_slots` slots after now.
fn next_slot(ctx: &mut NodeCtx<'_>, max_slots: u64) -> Instant {
    let slot = ctx.now().as_nanos() / GRID_SLOT_NS + 1 + ctx.rng().below(max_slots);
    Instant::from_nanos(slot * GRID_SLOT_NS)
}

fn random_filter(ctx: &mut NodeCtx<'_>) -> AccessFilter {
    match ctx.rng().below(4) {
        0 => AccessFilter::Any,
        k => AccessFilter::One(AAS[usize::try_from(k).unwrap() - 1]),
    }
}

impl RadioListener for GridTx {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let at = next_slot(ctx, 40);
        ctx.set_timer_at(at, TimerKey(1));
    }

    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        self.log.push(format!("{event:?}"));
        if let RadioEvent::Timer { .. } = event {
            if !ctx.is_transmitting() {
                let channel = Channel::data_wrapped(u8::try_from(ctx.rng().below(2)).unwrap());
                let aa = AAS[usize::try_from(ctx.rng().below(3)).unwrap()];
                let len = 2 + usize::try_from(ctx.rng().below(11)).unwrap();
                ctx.transmit(channel, RawFrame::new(aa, vec![0xA5; len], CRC_INIT));
            }
            let at = next_slot(ctx, 1_200);
            ctx.set_timer_at(at, TimerKey(1));
        }
    }
}

impl RadioListener for GridRx {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let filter = random_filter(ctx);
        ctx.start_rx(self.channel, filter, CRC_INIT);
        let at = next_slot(ctx, self.max_slots());
        ctx.set_timer_at(at, TimerKey(1));
    }

    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        self.log.push(format!("{event:?}"));
        match event {
            RadioEvent::Timer { .. } => {
                if self.retune {
                    self.channel = Channel::data_wrapped(1 - self.channel.index());
                }
                let filter = random_filter(ctx);
                ctx.start_rx(self.channel, filter, CRC_INIT);
                let at = next_slot(ctx, self.max_slots());
                ctx.set_timer_at(at, TimerKey(1));
            }
            RadioEvent::FrameReceived(_) => {
                let filter = random_filter(ctx);
                ctx.start_rx(self.channel, filter, CRC_INIT);
            }
            _ => {}
        }
    }
}

/// Side of the grid family's square world.
const GRID_SIDE: usize = 5;

/// Builds and runs one grid world: a [`GRID_SIDE`]² grid at 150 m spacing
/// (500 ns of flight to each neighbour, two grid slots), transmitters on
/// even cells and receivers on odd ones, so that every receiver's
/// neighbours are transmitters at equal distance. `retune` makes every
/// receiver a retuning one (see [`GridRx`]). Returns the rendered records
/// and logs, the ledger, and the run totals.
fn run_grid(
    seed: u64,
    retune: bool,
    mode: DeliveryMode,
) -> (
    Vec<String>,
    Vec<(u64, ble_telemetry::PacketDelivery)>,
    ble_telemetry::DeliveryTotals,
) {
    let mut sim = World::new(Environment::indoor_default(), SimRng::seed_from(seed));
    sim.set_delivery_mode(mode);
    sim.enable_delivery_tracker(1 << 20);
    let sink = RingBufferSink::new(usize::MAX);
    let ring = sink.handle();
    sim.add_telemetry_sink(Box::new(sink));
    let mut ids = Vec::new();
    for i in 0..GRID_SIDE * GRID_SIDE {
        let (col, row) = (i % GRID_SIDE, i / GRID_SIDE);
        let cfg = NodeConfig::new(
            format!("g{i}"),
            Position::new(col as f64 * 150.0, row as f64 * 150.0),
        );
        let id = if (col + row).is_multiple_of(2) {
            sim.add_node(cfg, GridTx { log: Vec::new() })
        } else {
            let channel = Channel::data_wrapped(u8::try_from(i % 2).unwrap());
            sim.add_node(
                cfg,
                GridRx {
                    channel,
                    retune,
                    log: Vec::new(),
                },
            )
        };
        ids.push(id);
    }
    for &id in &ids {
        sim.start(id);
    }
    sim.run_for(Duration::from_millis(20));
    let mut out: Vec<String> = ring.lock().iter().map(|r| format!("{r:?}")).collect();
    for (i, &id) in ids.iter().enumerate() {
        out.push(format!("--- node {i}"));
        let log = sim
            .node::<GridTx>(id)
            .map(|n| &n.log)
            .or_else(|| sim.node::<GridRx>(id).map(|n| &n.log))
            .expect("grid node");
        out.extend(log.iter().cloned());
    }
    let tracker = sim.delivery_tracker().expect("tracker");
    (out, tracker.packets().collect(), tracker.totals())
}

#[test]
fn deferred_edges_on_a_tied_grid_match_the_broadcast_oracle() {
    for (seed, retune) in [
        (5u64, false),
        (23, false),
        (808, false),
        (1, true),
        (5, true),
    ] {
        let (broadcast, _, _) = run_grid(seed, retune, DeliveryMode::FullBroadcast);
        let (sharded, rows, totals) = run_grid(seed, retune, DeliveryMode::Sharded);
        assert_eq!(
            broadcast, sharded,
            "deferred delivery diverged from the broadcast oracle (seed {seed}, retune {retune})"
        );
        // A retuning receiver abandons most receptions before their end.
        let heard = if retune { "RxLock" } else { "FrameReceived" };
        assert!(
            broadcast.iter().any(|l| l.contains(heard)),
            "world must hear frames (seed {seed}, retune {retune})"
        );
        assert!(
            totals.late_rx_starts > 0,
            "edges must be queued late (seed {seed}, retune {retune}): {totals:?}"
        );
        assert_eq!(rows.len() as u64, totals.tx_frames, "no ledger eviction");
    }
}

#[test]
fn every_frames_peers_split_into_the_three_delivery_classes() {
    // Each of a frame's peers, the grid's other nodes, lands in exactly
    // one class, in both modes, also when an edge was queued after
    // transmit.
    let peers = u32::try_from(GRID_SIDE * GRID_SIDE - 1).unwrap();
    for mode in [DeliveryMode::Sharded, DeliveryMode::FullBroadcast] {
        let (_, rows, totals) = run_grid(1, true, mode);
        assert!(!rows.is_empty());
        for (id, p) in &rows {
            assert_eq!(
                p.scheduled + p.culled + p.suppressed,
                peers,
                "frame #{id} under {mode:?}: {p:?}"
            );
        }
        assert_eq!(
            totals.scheduled_rx_starts
                + totals.culled_unreachable
                + totals.suppressed_not_listening,
            u64::from(peers) * totals.tx_frames,
            "{mode:?}: {totals:?}"
        );
        if mode == DeliveryMode::FullBroadcast {
            assert!(rows.iter().all(|(_, p)| p.scheduled == peers));
        }
    }
}
