//! Behavioural tests of the radio medium: delivery, timing, the
//! first-lock-wins race and capture-effect collision resolution — the exact
//! semantics the InjectaBLE attack depends on.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

use ble_phy::{
    AccessAddress, AccessFilter, Channel, Environment, NodeConfig, NodeCtx, Position, RadioEvent,
    RadioListener, RawFrame, ReceivedFrame, TimerKey, World,
};
use simkit::{DriftClock, Duration, Instant, SimRng};

/// A scriptable listener: records every event and optionally reacts.
/// Scripts are installed before the recorder is moved into the world;
/// recorded events are read back through [`World::node`] afterwards.
#[derive(Default)]
struct Recorder {
    events: Vec<RadioEvent>,
    /// Frames to transmit when a given timer key fires: (key, channel, frame).
    on_timer_tx: Vec<(u64, Channel, RawFrame)>,
    /// Open RX on this channel/filter when timer fires: (key, channel, filter, crc_init).
    on_timer_rx: Vec<(u64, Channel, AccessFilter, u32)>,
    /// Close the receiver when a timer with this key fires.
    on_timer_stop: Vec<u64>,
}

impl Recorder {
    fn received(&self) -> Vec<&ReceivedFrame> {
        self.events
            .iter()
            .filter_map(|e| match e {
                RadioEvent::FrameReceived(f) => Some(f),
                _ => None,
            })
            .collect()
    }
    fn syncs(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, RadioEvent::SyncDetected { .. }))
            .count()
    }
}

impl RadioListener for Recorder {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::Timer { key, .. } = &event {
            let actions_tx: Vec<_> = self
                .on_timer_tx
                .iter()
                .filter(|(k, _, _)| *k == key.0)
                .cloned()
                .collect();
            for (_, ch, frame) in actions_tx {
                ctx.transmit(ch, frame);
            }
            let actions_rx: Vec<_> = self
                .on_timer_rx
                .iter()
                .filter(|(k, _, _, _)| *k == key.0)
                .cloned()
                .collect();
            for (_, ch, filter, crc_init) in actions_rx {
                ctx.start_rx(ch, filter, crc_init);
            }
            if self.on_timer_stop.contains(&key.0) {
                ctx.stop_rx();
            }
        }
        self.events.push(event);
    }
}

fn ideal_sim() -> World {
    World::new(Environment::ideal(), SimRng::seed_from(42))
}

fn recorder(sim: &World, id: ble_phy::NodeId) -> &Recorder {
    sim.node::<Recorder>(id).expect("node is a Recorder")
}

const AA: AccessAddress = AccessAddress::new(0x50C2_33A1);
const CH: Channel = match Channel::new(5) {
    Some(c) => c,
    None => unreachable!(),
};

fn frame(bytes: &[u8]) -> RawFrame {
    RawFrame::new(AA, bytes.to_vec(), 0xABCDEF)
}

#[test]
fn world_is_send() {
    fn assert_send<T: Send>(_: &T) {}
    let sim = ideal_sim();
    assert_send(&sim);
}

#[test]
fn typed_node_access_downcasts() {
    let mut sim = ideal_sim();
    let id = sim.add_node(NodeConfig::new("r", Position::ORIGIN), Recorder::default());
    assert!(sim.node::<Recorder>(id).is_some());
    assert!(sim.node_mut::<Recorder>(id).is_some());
    struct Other;
    impl RadioListener for Other {
        fn on_event(&mut self, _ctx: &mut NodeCtx<'_>, _event: RadioEvent) {}
    }
    assert!(sim.node::<Other>(id).is_none());
    sim.node_mut::<Recorder>(id)
        .unwrap()
        .on_timer_tx
        .push((1, CH, frame(&[1])));
    let got = sim.with_node_ctx::<Recorder, usize>(id, |rec, ctx| {
        assert_eq!(ctx.node_id(), id);
        rec.on_timer_tx.len()
    });
    assert_eq!(got, Some(1));
}

#[test]
fn on_start_is_dispatched_by_world_start() {
    struct Starter {
        started: bool,
    }
    impl RadioListener for Starter {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            self.started = true;
            ctx.set_timer_local(Duration::from_micros(10), TimerKey(3));
        }
        fn on_event(&mut self, _ctx: &mut NodeCtx<'_>, _event: RadioEvent) {}
    }
    let mut sim = ideal_sim();
    let id = sim.add_node(
        NodeConfig::new("s", Position::ORIGIN),
        Starter { started: false },
    );
    assert!(!sim.node::<Starter>(id).unwrap().started);
    sim.start(id);
    assert!(sim.node::<Starter>(id).unwrap().started);
}

#[test]
fn frame_is_delivered_with_correct_timing_and_content() {
    let mut sim = ideal_sim();
    let tx_id = sim.add_node(
        NodeConfig::new("tx", Position::new(0.0, 0.0)),
        Recorder::default(),
    );
    let rx_id = sim.add_node(
        NodeConfig::new("rx", Position::new(2.0, 0.0)),
        Recorder::default(),
    );
    sim.with_ctx(rx_id, |ctx| {
        ctx.start_rx(CH, AccessFilter::One(AA), 0xABCDEF)
    });
    let handle = sim.with_ctx(tx_id, |ctx| ctx.transmit(CH, frame(&[1, 2, 3, 4])));
    sim.run_for(Duration::from_millis(1));

    let rx = recorder(&sim, rx_id);
    let frames = rx.received();
    assert_eq!(frames.len(), 1);
    let f = frames[0];
    assert_eq!(f.pdu, vec![1, 2, 3, 4]);
    assert!(f.crc_ok);
    assert_eq!(f.access_address, AA);
    // 1+4+4+3 = 12 bytes → 96 µs on LE 1M.
    assert_eq!((f.end - f.start).as_micros(), 96);
    assert_eq!(handle.end - handle.start, f.end - f.start);
    // Propagation at 2 m is ~7 ns.
    assert!(f.start.signed_delta_ns(handle.start).abs() < 20);
    assert_eq!(rx.syncs(), 1);

    // The transmitter got TxDone at frame end.
    let tx = recorder(&sim, tx_id);
    assert!(tx
        .events
        .iter()
        .any(|e| matches!(e, RadioEvent::TxDone { at } if *at == handle.end)));
}

#[test]
fn wrong_access_address_is_filtered_but_promiscuous_hears_it() {
    let mut sim = ideal_sim();
    let tx_id = sim.add_node(NodeConfig::new("tx", Position::ORIGIN), Recorder::default());
    let s1 = sim.add_node(
        NodeConfig::new("strict", Position::new(1.0, 0.0)),
        Recorder::default(),
    );
    let s2 = sim.add_node(
        NodeConfig::new("sniffer", Position::new(1.0, 1.0)),
        Recorder::default(),
    );
    sim.with_ctx(s1, |ctx| {
        ctx.start_rx(CH, AccessFilter::One(AccessAddress::new(0xDEAD_BEEF)), 0)
    });
    sim.with_ctx(s2, |ctx| ctx.start_rx(CH, AccessFilter::Any, 0xABCDEF));
    sim.with_ctx(tx_id, |ctx| ctx.transmit(CH, frame(&[9])));
    sim.run_for(Duration::from_millis(1));

    assert!(recorder(&sim, s1).received().is_empty());
    let sniffer = recorder(&sim, s2);
    assert_eq!(sniffer.received().len(), 1);
    assert!(sniffer.received()[0].crc_ok, "matching crc_init validates");
}

#[test]
fn wrong_crc_init_fails_crc_check() {
    let mut sim = ideal_sim();
    let t = sim.add_node(NodeConfig::new("tx", Position::ORIGIN), Recorder::default());
    let r = sim.add_node(
        NodeConfig::new("rx", Position::new(1.0, 0.0)),
        Recorder::default(),
    );
    sim.with_ctx(r, |ctx| ctx.start_rx(CH, AccessFilter::One(AA), 0x111111));
    sim.with_ctx(t, |ctx| ctx.transmit(CH, frame(&[1])));
    sim.run_for(Duration::from_millis(1));
    let rx = recorder(&sim, r);
    assert_eq!(rx.received().len(), 1);
    assert!(!rx.received()[0].crc_ok);
}

#[test]
fn different_channel_is_not_received() {
    let mut sim = ideal_sim();
    let t = sim.add_node(NodeConfig::new("tx", Position::ORIGIN), Recorder::default());
    let r = sim.add_node(
        NodeConfig::new("rx", Position::new(1.0, 0.0)),
        Recorder::default(),
    );
    sim.with_ctx(r, |ctx| {
        ctx.start_rx(Channel::new(6).unwrap(), AccessFilter::Any, 0)
    });
    sim.with_ctx(t, |ctx| ctx.transmit(CH, frame(&[1])));
    sim.run_for(Duration::from_millis(1));
    assert!(recorder(&sim, r).received().is_empty());
}

#[test]
fn first_frame_wins_the_lock_and_survives_when_stronger() {
    // The InjectaBLE race in miniature: an "attacker" transmits slightly
    // before the "master"; the receiver locks the attacker frame. With the
    // attacker much closer (ideal env = hard 0 dB capture threshold), the
    // attacker frame survives the collision.
    let mut sim = ideal_sim();
    let mut attacker = Recorder::default();
    attacker.on_timer_tx.push((1, CH, frame(&[0xAA; 4])));
    let mut master = Recorder::default();
    master.on_timer_tx.push((1, CH, frame(&[0x55; 4])));

    let a = sim.add_node(
        NodeConfig::new("attacker", Position::new(0.5, 0.0)),
        attacker,
    );
    let m = sim.add_node(NodeConfig::new("master", Position::new(4.0, 0.0)), master);
    let s = sim.add_node(
        NodeConfig::new("slave", Position::new(0.0, 0.0)),
        Recorder::default(),
    );

    // Script: attacker transmits at t=100 µs, master at t=130 µs (collides:
    // attacker frame is 96 µs long), slave listens from t=0.
    sim.with_ctx(s, |ctx| ctx.start_rx(CH, AccessFilter::One(AA), 0xABCDEF));
    sim.with_ctx(a, |ctx| {
        ctx.set_timer_at(Instant::from_micros(100), TimerKey(1));
    });
    sim.with_ctx(m, |ctx| {
        ctx.set_timer_at(Instant::from_micros(130), TimerKey(1));
    });
    sim.run_for(Duration::from_millis(1));

    let slave = recorder(&sim, s);
    let frames = slave.received();
    assert_eq!(frames.len(), 1, "only the locked frame is delivered");
    assert_eq!(frames[0].pdu, vec![0xAA; 4], "attacker frame won the race");
    assert!(frames[0].crc_ok, "attacker is closer: capture survives");
    assert!(
        frames[0]
            .start
            .signed_delta_ns(Instant::from_micros(100))
            .abs()
            < 100
    );
}

#[test]
fn locked_frame_is_corrupted_when_interferer_is_stronger() {
    let mut sim = ideal_sim();
    // Attacker far (8 m), master very close (0.5 m): master's frame crushes
    // the attacker's during the overlap.
    let mut attacker = Recorder::default();
    attacker.on_timer_tx.push((1, CH, frame(&[0xAA; 4])));
    let mut master = Recorder::default();
    master.on_timer_tx.push((1, CH, frame(&[0x55; 4])));

    let a = sim.add_node(
        NodeConfig::new("attacker", Position::new(8.0, 0.0)),
        attacker,
    );
    let m = sim.add_node(NodeConfig::new("master", Position::new(0.5, 0.0)), master);
    let s = sim.add_node(
        NodeConfig::new("slave", Position::ORIGIN),
        Recorder::default(),
    );

    sim.with_ctx(s, |ctx| ctx.start_rx(CH, AccessFilter::One(AA), 0xABCDEF));
    sim.with_ctx(a, |ctx| {
        ctx.set_timer_at(Instant::from_micros(100), TimerKey(1));
    });
    sim.with_ctx(m, |ctx| {
        ctx.set_timer_at(Instant::from_micros(130), TimerKey(1));
    });
    sim.run_for(Duration::from_millis(1));

    let slave = recorder(&sim, s);
    let frames = slave.received();
    assert_eq!(frames.len(), 1);
    assert!(
        frames[0]
            .start
            .signed_delta_ns(Instant::from_micros(100))
            .abs()
            < 100,
        "still locked first frame"
    );
    assert!(
        !frames[0].crc_ok,
        "strong interferer corrupts the locked frame"
    );
}

#[test]
fn corrupted_pdus_always_fail_crc_even_with_matching_crc_init() {
    // Regression guard: the receiver opened with the *same* CRC init the
    // transmitter used (rx_crc_init == tx_crc_init), so the init comparison
    // alone would report `crc_ok = true` — the collision path must still
    // force `crc_ok = false` on every frame whose bits it flips, and every
    // `crc_ok` frame must arrive bit-exact.
    let sent = [0xAA_u8; 4];
    let mut corrupted_seen = 0u32;
    for seed in 0..50u64 {
        let mut sim = World::new(Environment::ideal(), SimRng::seed_from(seed));
        let mut attacker = Recorder::default();
        attacker.on_timer_tx.push((1, CH, frame(&sent)));
        let mut master = Recorder::default();
        master.on_timer_tx.push((1, CH, frame(&[0x55; 4])));
        // Attacker far, master close: the locked attacker frame loses the
        // capture race and is corrupted before delivery.
        let a = sim.add_node(
            NodeConfig::new("attacker", Position::new(8.0, 0.0)),
            attacker,
        );
        let m = sim.add_node(NodeConfig::new("master", Position::new(0.5, 0.0)), master);
        let s = sim.add_node(
            NodeConfig::new("slave", Position::ORIGIN),
            Recorder::default(),
        );
        sim.with_ctx(s, |ctx| ctx.start_rx(CH, AccessFilter::One(AA), 0xABCDEF));
        sim.with_ctx(a, |ctx| {
            ctx.set_timer_at(Instant::from_micros(100), TimerKey(1));
        });
        sim.with_ctx(m, |ctx| {
            ctx.set_timer_at(Instant::from_micros(130), TimerKey(1));
        });
        sim.run_for(Duration::from_millis(1));
        for f in recorder(&sim, s).received() {
            if f.pdu[..] != sent {
                corrupted_seen += 1;
                assert!(!f.crc_ok, "corrupted PDU must fail CRC (seed {seed})");
            }
            if f.crc_ok {
                assert_eq!(
                    &f.pdu[..],
                    &sent,
                    "crc_ok frames must be delivered bit-exact (seed {seed})"
                );
            }
        }
    }
    assert!(
        corrupted_seen > 0,
        "the sweep must exercise the corruption path"
    );
}

#[test]
fn non_overlapping_frames_both_delivered() {
    let mut sim = ideal_sim();
    let mut a_rec = Recorder::default();
    a_rec.on_timer_tx.push((1, CH, frame(&[1])));
    let mut b_rec = Recorder::default();
    b_rec.on_timer_tx.push((1, CH, frame(&[2])));
    let a = sim.add_node(NodeConfig::new("a", Position::new(1.0, 0.0)), a_rec);
    let b = sim.add_node(NodeConfig::new("b", Position::new(0.0, 1.0)), b_rec);
    let r = sim.add_node(NodeConfig::new("rx", Position::ORIGIN), Recorder::default());
    sim.with_ctx(r, |ctx| ctx.start_rx(CH, AccessFilter::One(AA), 0xABCDEF));
    sim.with_ctx(a, |ctx| {
        ctx.set_timer_at(Instant::from_micros(100), TimerKey(1));
    });
    sim.with_ctx(b, |ctx| {
        ctx.set_timer_at(Instant::from_micros(400), TimerKey(1));
    });
    sim.run_for(Duration::from_millis(1));
    let rx = recorder(&sim, r);
    let frames = rx.received();
    assert_eq!(frames.len(), 2);
    assert!(frames.iter().all(|f| f.crc_ok));
}

#[test]
fn late_rx_open_within_grace_still_locks() {
    let mut sim = ideal_sim();
    let mut tx_rec = Recorder::default();
    tx_rec.on_timer_tx.push((1, CH, frame(&[7; 8])));
    // Receiver opens 1.5 µs *after* the frame's leading edge: within the
    // 2 µs quarter-preamble grace.
    let mut rx_rec = Recorder::default();
    rx_rec
        .on_timer_rx
        .push((2, CH, AccessFilter::One(AA), 0xABCDEF));
    let t = sim.add_node(NodeConfig::new("tx", Position::new(1.0, 0.0)), tx_rec);
    let r = sim.add_node(NodeConfig::new("rx", Position::ORIGIN), rx_rec);
    sim.with_ctx(t, |ctx| {
        ctx.set_timer_at(Instant::from_micros(100), TimerKey(1));
    });
    sim.with_ctx(r, |ctx| {
        ctx.set_timer_at(Instant::from_nanos(101_500), TimerKey(2));
    });
    sim.run_for(Duration::from_millis(1));
    let rx = recorder(&sim, r);
    assert_eq!(rx.received().len(), 1, "grace lock must catch the frame");
    assert!(rx.received()[0].crc_ok);
    assert_eq!(rx.syncs(), 1);
}

#[test]
fn late_rx_open_beyond_grace_misses_the_frame() {
    let mut sim = ideal_sim();
    let mut tx_rec = Recorder::default();
    tx_rec.on_timer_tx.push((1, CH, frame(&[7; 8])));
    let mut rx_rec = Recorder::default();
    rx_rec
        .on_timer_rx
        .push((2, CH, AccessFilter::One(AA), 0xABCDEF));
    let t = sim.add_node(NodeConfig::new("tx", Position::new(1.0, 0.0)), tx_rec);
    let r = sim.add_node(NodeConfig::new("rx", Position::ORIGIN), rx_rec);
    sim.with_ctx(t, |ctx| {
        ctx.set_timer_at(Instant::from_micros(100), TimerKey(1));
    });
    // 10 µs late: preamble is gone.
    sim.with_ctx(r, |ctx| {
        ctx.set_timer_at(Instant::from_micros(110), TimerKey(2));
    });
    sim.run_for(Duration::from_millis(1));
    assert!(recorder(&sim, r).received().is_empty());
}

#[test]
fn transmitting_node_cannot_receive_concurrently() {
    let mut sim = ideal_sim();
    let mut a_rec = Recorder::default();
    a_rec.on_timer_tx.push((1, CH, frame(&[1; 20])));
    let mut b_rec = Recorder::default();
    b_rec.on_timer_tx.push((1, CH, frame(&[2; 20])));
    let a = sim.add_node(NodeConfig::new("a", Position::ORIGIN), a_rec);
    let b = sim.add_node(NodeConfig::new("b", Position::new(1.0, 0.0)), b_rec);
    // Both transmit at the same instant; neither receives the other.
    sim.with_ctx(a, |ctx| {
        ctx.set_timer_at(Instant::from_micros(100), TimerKey(1));
    });
    sim.with_ctx(b, |ctx| {
        ctx.set_timer_at(Instant::from_micros(100), TimerKey(1));
    });
    sim.run_for(Duration::from_millis(1));
    assert!(recorder(&sim, a).received().is_empty());
    assert!(recorder(&sim, b).received().is_empty());
}

#[test]
fn out_of_range_frame_is_not_locked() {
    let mut env = Environment::ideal();
    env.path_loss_exponent = 4.0; // harsh environment
    let mut sim = World::new(env, SimRng::seed_from(1));
    let t = sim.add_node(
        NodeConfig::new("tx", Position::ORIGIN).with_tx_power(-20.0),
        Recorder::default(),
    );
    let r = sim.add_node(
        NodeConfig::new("rx", Position::new(500.0, 0.0)),
        Recorder::default(),
    );
    sim.with_ctx(r, |ctx| ctx.start_rx(CH, AccessFilter::Any, 0));
    sim.with_ctx(t, |ctx| ctx.transmit(CH, frame(&[1])));
    sim.run_for(Duration::from_millis(1));
    assert!(recorder(&sim, r).received().is_empty());
}

#[test]
fn drifting_clock_shifts_timer_firing() {
    let mut sim = ideal_sim();
    let fast = sim.add_node(
        NodeConfig::new("fast", Position::ORIGIN).with_clock(DriftClock::new(200.0, 200.0)),
        Recorder::default(),
    );
    sim.with_ctx(fast, |ctx| {
        ctx.set_timer_local(Duration::from_millis(100), TimerKey(9));
    });
    sim.run_for(Duration::from_millis(200));
    let rec = recorder(&sim, fast);
    let at = rec
        .events
        .iter()
        .find_map(|e| match e {
            RadioEvent::Timer { key, at } if key.0 == 9 => Some(*at),
            _ => None,
        })
        .expect("timer fired");
    // 200 ppm fast over 100 ms → fires ~20 µs early.
    let early_ns = Instant::from_millis_helper(100).signed_delta_ns(at);
    assert!(
        early_ns > 15_000 && early_ns < 25_000,
        "early by {early_ns} ns"
    );
}

trait InstantExt {
    fn from_millis_helper(ms: u64) -> Instant;
}
impl InstantExt for Instant {
    fn from_millis_helper(ms: u64) -> Instant {
        Instant::from_micros(ms * 1000)
    }
}

#[test]
fn capture_model_probabilistic_band_gives_mixed_outcomes() {
    // With the default (soft) capture model and equal powers, collisions
    // sometimes corrupt and sometimes don't — the paper's "phase difference"
    // luck. Run many independent seeds and check both outcomes occur.
    let mut survived = 0;
    let mut corrupted = 0;
    for seed in 0..60 {
        let mut sim = World::new(Environment::indoor_default(), SimRng::seed_from(seed));
        let mut a_rec = Recorder::default();
        a_rec.on_timer_tx.push((1, CH, frame(&[0xAA; 16])));
        let mut m_rec = Recorder::default();
        m_rec.on_timer_tx.push((1, CH, frame(&[0x55; 16])));
        let a = sim.add_node(NodeConfig::new("a", Position::new(2.0, 0.0)), a_rec);
        let m = sim.add_node(NodeConfig::new("m", Position::new(0.0, 2.0)), m_rec);
        let s = sim.add_node(NodeConfig::new("s", Position::ORIGIN), Recorder::default());
        sim.with_ctx(s, |ctx| ctx.start_rx(CH, AccessFilter::One(AA), 0xABCDEF));
        sim.with_ctx(a, |ctx| {
            ctx.set_timer_at(Instant::from_micros(100), TimerKey(1));
        });
        sim.with_ctx(m, |ctx| {
            ctx.set_timer_at(Instant::from_micros(140), TimerKey(1));
        });
        sim.run_for(Duration::from_millis(1));
        let s_rec = recorder(&sim, s);
        let frames = s_rec.received();
        assert_eq!(frames.len(), 1);
        if frames[0].crc_ok {
            survived += 1;
        } else {
            corrupted += 1;
        }
    }
    assert!(survived > 5, "some collisions must survive ({survived})");
    assert!(corrupted > 5, "some collisions must corrupt ({corrupted})");
}

/// Runs the same scenario under both delivery modes and asserts identical
/// observable behaviour — the listener-index maintenance tests below all
/// use this so every edge case is pinned against the broadcast oracle.
fn in_both_modes(scenario: impl Fn(ble_phy::DeliveryMode) -> Vec<String>) {
    let broadcast = scenario(ble_phy::DeliveryMode::FullBroadcast);
    let sharded = scenario(ble_phy::DeliveryMode::Sharded);
    assert_eq!(broadcast, sharded, "delivery modes diverged");
}

/// Ideal long-range setup: no fading (deterministic), transmitter powerful
/// enough to be heard 3 km away, where propagation takes ~10 µs — a wide
/// window for a receiver to open or close between `TxStart` and arrival.
fn long_range_world(mode: ble_phy::DeliveryMode) -> World {
    let mut sim = World::new(Environment::ideal(), SimRng::seed_from(9));
    sim.set_delivery_mode(mode);
    sim
}

const FAR: Position = Position::new(3_000.0, 0.0);

fn far_tx(sim: &mut World) -> ble_phy::NodeId {
    let mut tx = Recorder::default();
    tx.on_timer_tx.push((1, CH, frame(&[1, 2, 3, 4])));
    let id = sim.add_node(NodeConfig::new("tx", FAR).with_tx_power(20.0), tx);
    sim.with_ctx(id, |ctx| {
        ctx.set_timer_at(Instant::from_micros(100), TimerKey(1));
    });
    id
}

fn rx_log(sim: &World, id: ble_phy::NodeId) -> Vec<String> {
    recorder(sim, id)
        .events
        .iter()
        .map(|e| format!("{e:?}"))
        .collect()
}

#[test]
fn receiver_closing_between_tx_start_and_arrival_misses_the_frame() {
    // The frame leaves the antenna at t=100 µs and arrives ~10 µs later;
    // the receiver closes at t=105 µs, in between. Under sharded delivery
    // the RxStart edge was already scheduled (the node was listening at
    // transmit time) — it must arrive at a closed radio and do nothing,
    // exactly as the broadcast oracle's unconditional edge does.
    in_both_modes(|mode| {
        let mut sim = long_range_world(mode);
        far_tx(&mut sim);
        let mut rx = Recorder::default();
        rx.on_timer_stop.push(2);
        let r = sim.add_node(NodeConfig::new("rx", Position::ORIGIN), rx);
        sim.with_ctx(r, |ctx| ctx.start_rx(CH, AccessFilter::One(AA), 0xABCDEF));
        sim.with_ctx(r, |ctx| {
            ctx.set_timer_at(Instant::from_micros(105), TimerKey(2));
        });
        sim.run_for(Duration::from_millis(1));
        assert!(
            recorder(&sim, r).received().is_empty(),
            "a closed receiver must miss the in-flight frame"
        );
        assert_eq!(recorder(&sim, r).syncs(), 0);
        rx_log(&sim, r)
    });
}

#[test]
fn receiver_closing_and_reopening_before_arrival_hears_the_frame_once() {
    // Close at t=103 µs, reopen (same channel) at t=106 µs, arrival at
    // ~t=110 µs. Sharded delivery must not queue the edge twice on the
    // reopen (`release_edges` skips a receiver already in the frame's
    // scheduled set) — a duplicate would make the receiver treat its own
    // locked frame as interference.
    in_both_modes(|mode| {
        let mut sim = long_range_world(mode);
        far_tx(&mut sim);
        let mut rx = Recorder::default();
        rx.on_timer_stop.push(2);
        rx.on_timer_rx
            .push((3, CH, AccessFilter::One(AA), 0xABCDEF));
        let r = sim.add_node(NodeConfig::new("rx", Position::ORIGIN), rx);
        sim.with_ctx(r, |ctx| ctx.start_rx(CH, AccessFilter::One(AA), 0xABCDEF));
        sim.with_ctx(r, |ctx| {
            ctx.set_timer_at(Instant::from_micros(103), TimerKey(2));
            ctx.set_timer_at(Instant::from_micros(106), TimerKey(3));
        });
        sim.run_for(Duration::from_millis(1));
        let rec = recorder(&sim, r);
        assert_eq!(rec.received().len(), 1, "exactly one delivery");
        assert!(rec.received()[0].crc_ok, "no phantom self-interference");
        assert_eq!(rec.syncs(), 1, "exactly one sync edge");
        rx_log(&sim, r)
    });
}

#[test]
fn receiver_opening_after_tx_start_hears_the_in_flight_frame() {
    // The receiver was deaf when the frame left the antenna and opens at
    // t=105 µs, before the ~t=110 µs arrival. Broadcast delivery scheduled
    // the edge unconditionally; sharded delivery must queue it, under the
    // id reserved at transmit, when `start_rx` opens the receiver.
    in_both_modes(|mode| {
        let mut sim = long_range_world(mode);
        far_tx(&mut sim);
        let mut rx = Recorder::default();
        rx.on_timer_rx
            .push((2, CH, AccessFilter::One(AA), 0xABCDEF));
        let r = sim.add_node(NodeConfig::new("rx", Position::ORIGIN), rx);
        sim.with_ctx(r, |ctx| {
            ctx.set_timer_at(Instant::from_micros(105), TimerKey(2));
        });
        sim.run_for(Duration::from_millis(1));
        let rec = recorder(&sim, r);
        assert_eq!(
            rec.received().len(),
            1,
            "the late edge must catch the frame"
        );
        assert!(rec.received()[0].crc_ok);
        assert_eq!(rec.syncs(), 1);
        rx_log(&sim, r)
    });
}

#[test]
fn retune_mid_reception_drops_the_lock_and_follows_the_new_channel() {
    // The receiver locks a frame on CH at t≈100 µs, retunes to channel 6
    // mid-reception (t=150 µs), and a second transmitter fires on channel 6
    // at t=300 µs. The abandoned lock must deliver nothing; the new channel
    // must deliver — and the listener index must have moved the node so
    // sharded delivery schedules the second frame at all.
    in_both_modes(|mode| {
        let ch6 = Channel::new(6).unwrap();
        let mut sim = World::new(Environment::ideal(), SimRng::seed_from(4));
        sim.set_delivery_mode(mode);
        let mut t1 = Recorder::default();
        t1.on_timer_tx.push((1, CH, frame(&[0xAA; 20])));
        let a = sim.add_node(NodeConfig::new("t1", Position::new(1.0, 0.0)), t1);
        let mut t2 = Recorder::default();
        t2.on_timer_tx.push((1, ch6, frame(&[0xBB; 4])));
        let b = sim.add_node(NodeConfig::new("t2", Position::new(0.0, 1.0)), t2);
        let mut rx = Recorder::default();
        rx.on_timer_rx
            .push((2, ch6, AccessFilter::One(AA), 0xABCDEF));
        let r = sim.add_node(NodeConfig::new("rx", Position::ORIGIN), rx);
        sim.with_ctx(r, |ctx| ctx.start_rx(CH, AccessFilter::One(AA), 0xABCDEF));
        sim.with_ctx(a, |ctx| {
            ctx.set_timer_at(Instant::from_micros(100), TimerKey(1));
        });
        sim.with_ctx(r, |ctx| {
            ctx.set_timer_at(Instant::from_micros(150), TimerKey(2));
        });
        sim.with_ctx(b, |ctx| {
            ctx.set_timer_at(Instant::from_micros(300), TimerKey(1));
        });
        sim.run_for(Duration::from_millis(1));
        let rec = recorder(&sim, r);
        assert_eq!(rec.received().len(), 1, "only the channel-6 frame lands");
        assert_eq!(rec.received()[0].pdu, vec![0xBB; 4]);
        rx_log(&sim, r)
    });
}

// Release-build fallback: debug builds assert half-duplex instead.
#[cfg(not(debug_assertions))]
#[test]
fn ignored_start_rx_keeps_the_listener_index_consistent() {
    // A node requests start_rx mid-transmission: a release build ignores
    // the request. The node must not appear in the listener index — a
    // frame transmitted later on that channel is missed until the node
    // genuinely reopens, identically in both modes.
    in_both_modes(|mode| {
        let mut sim = World::new(Environment::ideal(), SimRng::seed_from(8));
        sim.set_delivery_mode(mode);
        let mut busy = Recorder::default();
        busy.on_timer_tx.push((1, CH, frame(&[0x11; 20]))); // 224 µs airtime
        busy.on_timer_rx
            .push((2, CH, AccessFilter::One(AA), 0xABCDEF)); // ignored: still Tx
        busy.on_timer_rx
            .push((3, CH, AccessFilter::One(AA), 0xABCDEF)); // real reopen
        let s = sim.add_node(NodeConfig::new("busy", Position::ORIGIN), busy);
        let mut peer = Recorder::default();
        peer.on_timer_tx.push((1, CH, frame(&[0x22; 4])));
        let p = sim.add_node(NodeConfig::new("peer", Position::new(1.0, 0.0)), peer);
        sim.with_ctx(s, |ctx| {
            ctx.set_timer_at(Instant::from_micros(100), TimerKey(1)); // Tx 100..324 µs
            ctx.set_timer_at(Instant::from_micros(150), TimerKey(2)); // ignored
            ctx.set_timer_at(Instant::from_micros(400), TimerKey(3)); // reopen
        });
        sim.with_ctx(p, |ctx| {
            ctx.set_timer_at(Instant::from_micros(350), TimerKey(1)); // while s is deaf
        });
        sim.run_for(Duration::from_millis(1));
        let rec = recorder(&sim, s);
        assert!(
            rec.received().is_empty(),
            "the ignored start_rx must not leave the node listening"
        );
        // After the real reopen, a second peer frame lands.
        sim.with_ctx(p, |ctx| {
            ctx.set_timer_at(Instant::from_micros(1_500), TimerKey(1));
        });
        sim.run_for(Duration::from_millis(1));
        let rec = recorder(&sim, s);
        assert_eq!(rec.received().len(), 1, "reopened radio hears the frame");
        assert_eq!(rec.received()[0].pdu, vec![0x22; 4]);
        rx_log(&sim, s)
    });
}

// Release-build fallback: debug builds assert half-duplex instead.
#[cfg(not(debug_assertions))]
#[test]
fn abandoned_frame_still_lands_and_raises_no_tx_done() {
    // A node starts frame B 100 µs into its frame A. A release build's
    // radio abandons A, yet A stays on the air to its full end, so a
    // receiver already locked onto it decodes it whole. Only B raises
    // `TxDone`: the machine that sent A never hears that its frame ended.
    in_both_modes(|mode| {
        let ch6 = Channel::new(6).unwrap();
        let mut sim = World::new(Environment::ideal(), SimRng::seed_from(8));
        sim.set_delivery_mode(mode);
        let mut busy = Recorder::default();
        busy.on_timer_tx.push((1, CH, frame(&[0x11; 20]))); // A: 224 µs
        busy.on_timer_tx.push((2, ch6, frame(&[0x22; 4]))); // B: 96 µs
        let s = sim.add_node(NodeConfig::new("busy", Position::ORIGIN), busy);
        let r = sim.add_node(
            NodeConfig::new("rx", Position::new(1.0, 0.0)),
            Recorder::default(),
        );
        sim.with_ctx(r, |ctx| ctx.start_rx(CH, AccessFilter::One(AA), 0xABCDEF));
        sim.with_ctx(s, |ctx| {
            ctx.set_timer_at(Instant::from_micros(100), TimerKey(1)); // A: 100..324 µs
            ctx.set_timer_at(Instant::from_micros(200), TimerKey(2)); // B: 200..296 µs
        });
        sim.run_for(Duration::from_millis(1));
        let rec = recorder(&sim, r);
        assert_eq!(rec.received().len(), 1, "the abandoned frame is delivered");
        let a = rec.received()[0];
        assert!(a.crc_ok, "the abandoned frame arrives whole");
        assert_eq!(a.pdu, vec![0x11; 20]);
        assert_eq!(a.end.as_nanos() / 1_000, 324, "A lasts to its full end");
        let tx_done: Vec<_> = recorder(&sim, s)
            .events
            .iter()
            .filter_map(|e| match e {
                RadioEvent::TxDone { at } => Some(at.as_nanos()),
                _ => None,
            })
            .collect();
        assert_eq!(tx_done, vec![296_000], "one TxDone, for B; none for A");
        rx_log(&sim, r)
    });
}

#[test]
fn delivery_order_is_stable_across_identically_seeded_worlds() {
    // Regression for the `txs: HashMap → BTreeMap` migration (determinism
    // pass): with several transmissions in flight, the medium iterates the
    // active-transmission table while drawing per-candidate fading from the
    // shared RNG. The table now iterates in ascending tx-id order, so two
    // identically-seeded worlds must produce byte-identical event streams —
    // including the fading-dependent corrupt/survive verdicts — no matter
    // how many candidates overlap.
    fn run_world(seed: u64) -> Vec<String> {
        // indoor_default has log-normal fading: every interference candidate
        // consumes RNG, so a wrong iteration order shows up in the stream.
        let mut sim = World::new(Environment::indoor_default(), SimRng::seed_from(seed));
        let mut ids = Vec::new();
        for (i, (x, y)) in [(1.0, 0.0), (2.0, 1.0), (3.0, -1.0), (4.0, 2.0)]
            .iter()
            .enumerate()
        {
            let mut tx = Recorder::default();
            let marker = u8::try_from(i + 1).unwrap();
            tx.on_timer_tx.push((1, CH, frame(&[marker; 6])));
            ids.push(sim.add_node(NodeConfig::new(format!("tx{i}"), Position::new(*x, *y)), tx));
        }
        let rx = sim.add_node(NodeConfig::new("rx", Position::ORIGIN), Recorder::default());
        sim.with_ctx(rx, |ctx| ctx.start_rx(CH, AccessFilter::One(AA), 0xABCDEF));
        // Staggered starts 30 µs apart: all four frames overlap in the air,
        // so the interference scan sees multiple candidates at once.
        for (i, id) in ids.iter().enumerate() {
            sim.with_ctx(*id, |ctx| {
                ctx.set_timer_at(Instant::from_micros(100 + 30 * i as u64), TimerKey(1));
            });
        }
        sim.run_for(Duration::from_millis(2));
        let events = &recorder(&sim, rx).events;
        assert!(!events.is_empty(), "receiver must observe the pile-up");
        events.iter().map(|e| format!("{e:?}")).collect()
    }
    for seed in [7u64, 99, 12345] {
        assert_eq!(
            run_world(seed),
            run_world(seed),
            "identically-seeded worlds diverged at seed {seed}"
        );
    }
}

#[test]
fn long_frame_still_interferes_after_a_later_short_frame_is_collected() {
    // Frames end out of start order: a 255-byte frame (100..2204 µs) starts
    // before a 1-byte one (200..272 µs). The short frame's retention passes
    // first (272 µs + 1 ms); the long one must still be retained and
    // corrupt a lock that opens at 1500 µs. Without the long frame the same
    // lock is clean, so the corruption is its interference.
    const AA2: AccessAddress = AccessAddress::new(0x71A4_0C5E);
    let scenario = |mode: ble_phy::DeliveryMode, long_frame: bool| {
        let mut sim = World::new(Environment::ideal(), SimRng::seed_from(5));
        sim.set_delivery_mode(mode);
        let mut long = Recorder::default();
        if long_frame {
            long.on_timer_tx.push((1, CH, frame(&[0x11; 255])));
        }
        let l = sim.add_node(NodeConfig::new("long", Position::new(0.5, 0.0)), long);
        let mut short = Recorder::default();
        short.on_timer_tx.push((1, CH, frame(&[0x22])));
        let s = sim.add_node(NodeConfig::new("short", Position::new(0.0, 1.0)), short);
        let mut victim = Recorder::default();
        victim
            .on_timer_tx
            .push((1, CH, RawFrame::new(AA2, [0x33; 4], 0xABCDEF)));
        let v = sim.add_node(NodeConfig::new("victim", Position::new(8.0, 0.0)), victim);
        let mut rx = Recorder::default();
        rx.on_timer_rx
            .push((2, CH, AccessFilter::One(AA2), 0xABCDEF));
        let r = sim.add_node(NodeConfig::new("rx", Position::ORIGIN), rx);
        for (id, at_us) in [(l, 100), (s, 200), (v, 1_500)] {
            sim.with_ctx(id, |ctx| {
                ctx.set_timer_at(Instant::from_micros(at_us), TimerKey(1));
            });
        }
        sim.with_ctx(r, |ctx| {
            ctx.set_timer_at(Instant::from_micros(1_400), TimerKey(2));
        });
        sim.run_for(Duration::from_millis(3));
        let rec = recorder(&sim, r);
        assert_eq!(rec.received().len(), 1, "the victim frame is delivered");
        assert_eq!(rec.received()[0].pdu.len(), 4, "the lock is on the victim");
        assert_eq!(
            rec.received()[0].crc_ok,
            !long_frame,
            "the long frame decides the lock's fate"
        );
        rx_log(&sim, r)
    };
    in_both_modes(|mode| scenario(mode, true));
    in_both_modes(|mode| scenario(mode, false));
}
