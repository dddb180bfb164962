//! Sharded vs full-broadcast delivery equivalence.
//!
//! [`DeliveryMode::FullBroadcast`] schedules an `RxStart` at every node for
//! every frame — the medium's original O(nodes) behaviour, retained as the
//! oracle. [`DeliveryMode::Sharded`] only schedules edges at current
//! listeners that clear the reachability cull, catching late openers with a
//! pending-arrival scan. The two must be **event-for-event identical**: the
//! sharded path may only skip edges the broadcast path would have discarded
//! without any state or RNG effect.
//!
//! The oracle check runs randomized dense worlds — nodes that transmit,
//! retune, and close their receivers at random times on random channels —
//! under both modes at fixed seeds and compares the full telemetry trace
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
use simkit::{Duration, SimRng};

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

/// Builds and runs one randomized world; returns the telemetry trace and
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
    sim.enable_trace();
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
    let mut out: Vec<String> = sim
        .trace()
        .records()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
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
    // pins pure scheduling equivalence (listener index + pending scan).
    for payload in [Payload::Fixed, Payload::Mixed] {
        for seed in [3u64, 41, 1234] {
            let world =
                |mode| run_world(seed, 16, 30.0, Environment::indoor_default(), payload, mode);
            let broadcast = world(DeliveryMode::FullBroadcast);
            let sharded = world(DeliveryMode::Sharded);
            assert!(
                broadcast
                    .iter()
                    .any(|l| l.contains("RxEnd") || l.contains("rx-end")),
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
