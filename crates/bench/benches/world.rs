//! World construction and medium-dispatch microbenchmarks.
//!
//! `construct` prices standing up the full three-node experiment rig
//! (environment, nodes, connection bootstrap) — the fixed cost every trial
//! pays before a single radio event fires. `dispatch_timers` prices the
//! scheduler's hot path: popping an event and handing it to the owning
//! node, isolated from protocol work by using self-rescheduling timers.
//! `dispatch_frames` adds the radio path (transmit → propagation → lock →
//! delivery) between two nodes.

use ble_phy::{
    AccessAddress, AccessFilter, Channel, Environment, NodeConfig, NodeCtx, Position, RadioEvent,
    RadioListener, RawFrame, Simulation, TimerKey,
};
use ble_scenario::ScenarioBuilder;
use criterion::{criterion_group, criterion_main, Criterion};
use simkit::{Duration, SimRng};

/// Re-arms its own timer forever: every dispatched event costs one timer
/// pop + one schedule, nothing else.
struct Ticker {
    period: Duration,
}

impl RadioListener for Ticker {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::Timer { .. } = event {
            ctx.set_timer_local(self.period, TimerKey(1));
        }
    }
}

/// Transmits a short frame whenever its timer fires; the peer listens.
struct Beacon {
    period: Duration,
}

impl RadioListener for Beacon {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::Timer { .. } = event {
            ctx.set_timer_local(self.period, TimerKey(1));
            if !ctx.is_transmitting() {
                let frame = RawFrame::new(
                    AccessAddress::ADVERTISING,
                    vec![0u8; 12],
                    ble_phy::ADVERTISING_CRC_INIT,
                );
                ctx.transmit(Channel::advertising_wrapped(0), frame);
            }
        }
    }
}

/// Keeps the receiver open on the advertising channel.
struct Sink;

impl RadioListener for Sink {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::FrameReceived(_) = event {
            ctx.start_rx(
                Channel::advertising_wrapped(0),
                AccessFilter::Any,
                ble_phy::ADVERTISING_CRC_INIT,
            );
        }
    }
}

fn bench_construct(c: &mut Criterion) {
    c.bench_function("world/construct_rig", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            std::hint::black_box(ScenarioBuilder::paper_rig(seed).build());
        });
    });
}

fn bench_dispatch_timers(c: &mut Criterion) {
    // Four nodes each firing every 10 µs → each run_for(1 ms) dispatches
    // ~400 timer events through the medium.
    let mut sim = Simulation::new(Environment::indoor_default(), SimRng::seed_from(7));
    let mut ids = Vec::new();
    for i in 0..4 {
        let id = sim.add_node(
            NodeConfig::new(format!("t{i}"), Position::new(i as f64, 0.0)),
            Ticker {
                period: Duration::from_micros(10),
            },
        );
        ids.push(id);
    }
    for &id in &ids {
        sim.with_ctx(id, |ctx| {
            ctx.set_timer_local(Duration::from_micros(10), TimerKey(1));
        });
    }
    c.bench_function("world/dispatch_timers_1ms", |b| {
        b.iter(|| {
            sim.run_for(Duration::from_millis(1));
            std::hint::black_box(sim.now());
        });
    });
}

fn bench_dispatch_frames(c: &mut Criterion) {
    let mut sim = Simulation::new(Environment::indoor_default(), SimRng::seed_from(9));
    let tx = sim.add_node(
        NodeConfig::new("beacon", Position::new(0.0, 0.0)),
        Beacon {
            period: Duration::from_micros(500),
        },
    );
    let rx = sim.add_node(NodeConfig::new("sink", Position::new(2.0, 0.0)), Sink);
    sim.with_ctx(tx, |ctx| {
        ctx.set_timer_local(Duration::from_micros(500), TimerKey(1));
    });
    sim.with_ctx(rx, |ctx| {
        ctx.start_rx(
            Channel::advertising_wrapped(0),
            AccessFilter::Any,
            ble_phy::ADVERTISING_CRC_INIT,
        );
    });
    c.bench_function("world/dispatch_frames_10ms", |b| {
        b.iter(|| {
            sim.run_for(Duration::from_millis(10));
            std::hint::black_box(sim.now());
        });
    });
}

criterion_group!(
    benches,
    bench_construct,
    bench_dispatch_timers,
    bench_dispatch_frames
);
criterion_main!(benches);
