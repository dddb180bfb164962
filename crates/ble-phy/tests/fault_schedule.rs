//! Lazy replay of fault-plan boundaries.
//!
//! The medium keeps one pending queue event per plan item and computes each
//! episode boundary when the previous one fires. These tests pin that the
//! telemetry it produces is exactly the arithmetic schedule of the plan —
//! every window of every burst train, with no cap on train length — and
//! that the queue stays shallow however long the trains are.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

use ble_phy::{Environment, NodeConfig, NodeCtx, Position, RadioEvent, RadioListener, World};
use ble_telemetry::{
    FaultKind, MetricsSink, RingBufferSink, TelemetryEvent, TelemetryRecord, TelemetrySink,
};
use simkit::{
    DriftExcursion, Duration, FadingEpisode, FaultPlan, Instant, InterferenceBurst, SimRng,
};

/// A node that never transmits: gives drift excursions a label to resolve.
struct Idle;

impl RadioListener for Idle {
    fn on_event(&mut self, _ctx: &mut NodeCtx<'_>, _event: RadioEvent) {}
}

const PROBE: &str = "probe";

fn world_with(plan: FaultPlan, sink: Box<dyn TelemetrySink>) -> World {
    let mut world = World::new(Environment::indoor_default(), SimRng::seed_from(3));
    world.add_node(NodeConfig::new(PROBE, Position::ORIGIN), Idle);
    world.add_telemetry_sink(sink);
    world.install_faults(plan);
    world
}

#[test]
fn burst_train_longer_than_4096_windows_reports_every_window() {
    let train = InterferenceBurst::duty_cycle(
        5,
        Instant::ZERO,
        Duration::from_secs(10),
        Duration::from_millis(1),
        0.5,
        -40.0,
    );
    assert_eq!(train.repeats, 10_000);
    let sink = MetricsSink::new();
    let registry = sink.handle();
    let mut world = world_with(FaultPlan::seeded(1).with_burst(train), Box::new(sink));
    world.run_for(Duration::from_secs(11));
    world.flush_telemetry();
    assert_eq!(registry.lock().counter("fault.bursts"), 10_000);
    assert!(
        world.queue_high_water() <= 2,
        "one pending edge per train, got {}",
        world.queue_high_water()
    );
}

/// The telemetry one plan item must produce, in order, computed from the
/// plan's own arithmetic (`window_start`, `on_time`, episode bounds).
fn item_edges(plan: &FaultPlan, probe: u32) -> Vec<Vec<TelemetryRecord>> {
    let rec = |at, node, event| TelemetryRecord { at, node, event };
    let mut items = Vec::new();
    for d in plan.drift.iter().filter(|d| d.node_label == PROBE) {
        items.push(
            [(d.from, true), (d.until, false)]
                .map(|(at, active)| {
                    let event = TelemetryEvent::FaultEpisode {
                        kind: FaultKind::Drift,
                        magnitude: d.extra_ppm,
                        active,
                    };
                    rec(at, Some(probe), event)
                })
                .to_vec(),
        );
    }
    for f in &plan.fading {
        items.push(
            [(f.from, true), (f.until, false)]
                .map(|(at, active)| {
                    let event = TelemetryEvent::FaultEpisode {
                        kind: FaultKind::Fading,
                        magnitude: f.extra_loss_db,
                        active,
                    };
                    rec(at, None, event)
                })
                .to_vec(),
        );
    }
    for b in &plan.bursts {
        let windows = if b.period.is_zero() { 1 } else { b.repeats };
        let mut edges = Vec::new();
        for k in 0..windows {
            let start = b.window_start(k).expect("window inside the train");
            for (at, active) in [(start, true), (start.saturating_add(b.on_time), false)] {
                let event = TelemetryEvent::FaultBurst {
                    channel: b.channel,
                    power_dbm: b.power_dbm,
                    active,
                };
                edges.push(rec(at, None, event));
            }
        }
        items.push(edges);
    }
    items
}

/// Merges per-item edge lists the way a FIFO-tied event queue replays them
/// when each item's next edge is scheduled as its previous one fires: ties
/// at one instant go to the edge that was scheduled first.
fn replay(items: Vec<Vec<TelemetryRecord>>) -> Vec<TelemetryRecord> {
    let mut next_seq = 0u64;
    // (at, schedule sequence, item, edge index)
    let mut pending: Vec<(Instant, u64, usize, usize)> = Vec::new();
    for (i, edges) in items.iter().enumerate() {
        if let Some(first) = edges.first() {
            pending.push((first.at, next_seq, i, 0));
            next_seq += 1;
        }
    }
    let mut out = Vec::new();
    while let Some(pos) = (0..pending.len()).min_by_key(|&p| (pending[p].0, pending[p].1)) {
        let (_, _, i, n) = pending.swap_remove(pos);
        out.push(items[i][n].clone());
        if let Some(next) = items[i].get(n + 1) {
            pending.push((next.at, next_seq, i, n + 1));
            next_seq += 1;
        }
    }
    out
}

fn random_plan(rng: &mut SimRng) -> FaultPlan {
    let mut plan = FaultPlan::seeded(rng.below(1 << 32));
    // Coarse grids make boundaries of different items collide often, so
    // the tie order at one instant is exercised, not just the time order.
    let at = |rng: &mut SimRng| Instant::from_micros(250 * rng.below(80));
    for _ in 0..rng.below(5) {
        let period = match rng.below(4) {
            0 => Duration::ZERO,
            1 => Duration::from_micros(1 + rng.below(3_000)),
            _ => Duration::from_micros(250 * (1 + rng.below(4))),
        };
        let on_time = if period.is_zero() {
            Duration::from_micros(rng.below(2_000))
        } else {
            match rng.below(4) {
                0 => Duration::ZERO,
                1 => period,
                _ => period.mul_f64(rng.uniform()),
            }
        };
        plan = plan.with_burst(InterferenceBurst {
            channel: u8::try_from(rng.below(40)).expect("channel fits"),
            first: at(rng),
            period,
            on_time,
            repeats: u32::try_from(1 + rng.below(40)).expect("repeats fit"),
            power_dbm: rng.uniform_range(-80.0, -20.0),
        });
    }
    for _ in 0..rng.below(3) {
        let from = at(rng);
        plan = plan.with_fading(FadingEpisode {
            from,
            until: from.saturating_add(Duration::from_micros(250 * rng.below(40))),
            extra_loss_db: rng.uniform_range(1.0, 30.0),
        });
    }
    for _ in 0..rng.below(3) {
        let from = at(rng);
        let label = if rng.chance(0.5) { PROBE } else { "ghost" };
        plan = plan.with_drift(DriftExcursion {
            node_label: label.into(),
            from,
            until: from.saturating_add(Duration::from_micros(250 * rng.below(40))),
            extra_ppm: rng.uniform_range(-500.0, 500.0),
        });
    }
    plan
}

#[test]
fn lazy_schedule_replays_the_arithmetic_plan_exactly() {
    let mut rng = SimRng::seed_from(0xFA_0175);
    let mut compared = 0usize;
    // Shapes the random plans must cover: duty 0, duty 1 (a window closes
    // at the instant the next opens), single shot, fading, unknown label.
    let mut seen = [false; 5];
    for case in 0..200 {
        let plan = random_plan(&mut rng);
        for b in &plan.bursts {
            seen[0] |= b.on_time.is_zero() && !b.period.is_zero();
            seen[1] |= b.on_time == b.period && !b.period.is_zero() && b.repeats > 1;
            seen[2] |= b.period.is_zero();
        }
        seen[3] |= !plan.fading.is_empty();
        seen[4] |= plan.drift.iter().any(|d| d.node_label != PROBE);
        let expected = replay(item_edges(&plan, 0));
        let sink = RingBufferSink::new(1 << 16);
        let ring = sink.handle();
        let mut world = world_with(plan.clone(), Box::new(sink));
        // Longest possible plan: 20 ms start + 40 × 3 ms train, or 30 ms
        // for an episode; run well past it.
        world.run_for(Duration::from_millis(200));
        let got: Vec<TelemetryRecord> = ring
            .lock()
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    TelemetryEvent::FaultBurst { .. } | TelemetryEvent::FaultEpisode { .. }
                )
            })
            .cloned()
            .collect();
        assert_eq!(got, expected, "case {case}: plan {plan:?}");
        let items = u64::try_from(plan.bursts.len() + plan.fading.len() + plan.drift.len())
            .expect("item count fits");
        assert!(
            world.queue_high_water() <= items.max(1),
            "case {case}: high water {} over {items} items",
            world.queue_high_water()
        );
        compared += got.len();
    }
    assert_eq!(seen, [true; 5], "plan shapes not all covered");
    assert!(
        compared > 2_000,
        "the random plans must exercise many edges: {compared}"
    );
}
