//! Zero-allocation budget for the steady-state frame pipeline, and the
//! allocation budget of one paper-rig trial's fixed costs.
//!
//! A counting global allocator wraps `System`; after a warm-up window has
//! grown every queue and buffer to capacity, a steady stream of
//! Tx → medium → Rx deliveries (no collision, telemetry off) must perform
//! **zero** heap allocations. This pins the inline-`Pdu` rework: any future
//! `Vec`/`clone()` reintroduced on the delivery path trips this test. A
//! dense band of background pairs holds the sharded medium's own
//! bookkeeping (retained frames, per-channel lists, scheduled sets) to the
//! same budget.
//! A second budget caps what a Figure 9 trial allocates outside the
//! simulation itself: building its world, flushing its metrics sink, and
//! folding its metrics into a report row.
//!
//! Kept as its own integration-test binary so the global allocator does not
//! leak into unrelated tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use bench::trial::{trial_seed, SYNC_BUDGET};
use bench::{
    attack, build_trial, SeriesAccumulator, TelemetryMode, TrialConfig, TrialMetrics, TrialOutcome,
};
use ble_host::gatt::props;
use ble_host::{GattServer, HostStack, Uuid};
use ble_link::{AddressType, DeviceAddress, LinkLayerDelegate};
use ble_phy::{
    AccessAddress, AccessFilter, Channel, Environment, NodeConfig, NodeCtx, Pdu, Position,
    RadioEvent, RadioListener, RawFrame, TimerKey, World,
};
use ble_scenario::{BackgroundRx, BackgroundSchedule, BackgroundTx, ScenarioBuilder};
use ble_telemetry::{TelemetryEvent, TelemetryRecord, TelemetrySink};
use simkit::{Duration, FaultPlan, Instant, InterferenceBurst, SimRng};

thread_local! {
    // Armed only on the measuring thread, only across the steady-state
    // window. Counting process-wide instead makes the test flaky: the
    // libtest harness thread occasionally allocates (channel buffering)
    // concurrently with the measured window and the budget blames the
    // simulation for it.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    // The count is per thread too, so a test that counts a whole trial's
    // allocations never lands in a concurrent zero-allocation window.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Returns whether the current thread is inside a measured window.
///
/// `try_with` so a (de)allocation during thread teardown — after the TLS
/// slot is destroyed — is simply not counted instead of aborting.
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

/// Counts one allocation when the current thread is armed.
fn count_allocation() {
    if counting() {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Allocations counted on this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Counts every allocation and reallocation on the armed thread, then
/// defers to `System`.
struct CountingAllocator;

// SAFETY: pure pass-through to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Transmits a fixed 22-byte frame every 500 µs. With `spans` set it brackets
/// each transmission in a span enter/exit pair — with no sink attached both
/// calls must stay on the branch-and-return path.
struct Beacon {
    pdu: Pdu,
    sent: u64,
    spans: bool,
}

impl RadioListener for Beacon {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::Timer { .. } = event {
            ctx.set_timer_local(Duration::from_micros(500), TimerKey(1));
            if !ctx.is_transmitting() {
                self.sent += 1;
                let span = if self.spans {
                    Some(ctx.span_enter(ble_telemetry::SpanKind::AttackerInject, 0))
                } else {
                    None
                };
                let frame = RawFrame::new(
                    AccessAddress::ADVERTISING,
                    self.pdu.clone(),
                    ble_phy::ADVERTISING_CRC_INIT,
                );
                ctx.transmit(Channel::advertising_wrapped(0), frame);
                if let Some(span) = span {
                    ctx.span_exit(span);
                }
            }
        }
    }
}

/// Counts good deliveries and re-opens the receive window.
struct Sink {
    received: u64,
}

impl RadioListener for Sink {
    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::FrameReceived(frame) = event {
            if frame.crc_ok {
                self.received += 1;
            }
            ctx.start_rx(
                Channel::advertising_wrapped(0),
                AccessFilter::Any,
                ble_phy::ADVERTISING_CRC_INIT,
            );
        }
    }
}

/// Counts burst boundary records emitted inside the measured window.
static BURST_EDGES: AtomicU64 = AtomicU64::new(0);

/// A telemetry sink whose `emit` touches nothing but [`BURST_EDGES`].
struct BurstEdges;

impl TelemetrySink for BurstEdges {
    fn emit(&mut self, record: &TelemetryRecord) {
        if counting() && matches!(record.event, TelemetryEvent::FaultBurst { .. }) {
            BURST_EDGES.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Builds the beacon→sink scene, warms it up, then measures allocations
/// over a steady-state delivery window. `faults` (when given) is installed
/// before the warm-up; `spans` additionally installs a span clock and opens
/// a span pair around every transmission (disabled path unless `sink` is
/// given); `sink` (when given) is attached before the plan is installed.
fn measure_steady_state_with(
    faults: Option<FaultPlan>,
    spans: bool,
    sink: Option<Box<dyn TelemetrySink>>,
) -> (u64, u64) {
    let mut pdu = Pdu::new();
    pdu.try_extend_from_slice(&[0xC3; 22]).expect("22 B fits");

    let mut sim = World::new(Environment::indoor_default(), SimRng::seed_from(5));
    if spans {
        // The clock must never be read on the disabled path; a counting
        // clock would not allocate anyway, but a constant keeps the test
        // honest about what the budget covers.
        fn fixed_clock() -> u64 {
            7
        }
        sim.set_span_clock(fixed_clock);
    }
    let tx = sim.add_node(
        NodeConfig::new("beacon", Position::new(0.0, 0.0)),
        Beacon {
            pdu,
            sent: 0,
            spans,
        },
    );
    let rx = sim.add_node(
        NodeConfig::new("sink", Position::new(2.0, 0.0)),
        Sink { received: 0 },
    );
    if let Some(sink) = sink {
        sim.add_telemetry_sink(sink);
    }
    if let Some(plan) = faults {
        sim.install_faults(plan);
    }
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

    // Warm-up: grow the event queue, tombstone set, and node scratch
    // buffers to their steady-state capacity.
    sim.run_for(Duration::from_millis(100));
    let received_before = sim.node::<Sink>(rx).expect("sink").received;
    assert!(received_before > 10, "warm-up must deliver frames");

    // Steady state: ~100 further deliveries must not touch the heap.
    let before = allocations();
    COUNTING.with(|c| c.set(true));
    sim.run_for(Duration::from_millis(50));
    COUNTING.with(|c| c.set(false));
    let delta = allocations() - before;
    let received = sim.node::<Sink>(rx).expect("sink").received - received_before;
    (delta, received)
}

fn measure_steady_state(faults: Option<FaultPlan>) -> (u64, u64) {
    measure_steady_state_with(faults, false, None)
}

#[test]
fn steady_state_frame_delivery_allocates_nothing() {
    let (delta, received) = measure_steady_state(None);
    assert!(
        received >= 90,
        "steady state must keep delivering: {received}"
    );
    assert_eq!(
        delta, 0,
        "steady-state frame delivery must not allocate ({delta} allocations over {received} deliveries)"
    );

    // An installed-but-empty FaultPlan must stay on the same zero-allocation
    // budget: every hot-path fault query is a single branch when the plan is
    // empty, so the delivery pipeline may not touch the heap either.
    let (delta, received) = measure_steady_state(Some(FaultPlan::default()));
    assert!(
        received >= 90,
        "steady state with an empty plan must keep delivering: {received}"
    );
    assert_eq!(
        delta, 0,
        "an empty FaultPlan must not add allocations ({delta} over {received} deliveries)"
    );
}

/// Received frames summed over the background receivers in `pairs`.
fn background_received(sim: &World, pairs: &[(ble_phy::NodeId, ble_phy::NodeId)]) -> u64 {
    pairs
        .iter()
        .map(|(_, rx)| sim.node::<BackgroundRx>(*rx).expect("receiver").received)
        .sum()
}

#[test]
fn dense_band_delivery_allocates_nothing_after_warm_up() {
    // 66 background pairs in the dense hall, laid out like the dense-band
    // workload's: each receiver filters for its own pair's access address,
    // so most `RxStart` edges stay off the queue until their receiver
    // locks, frames come and go on all 37 data channels, and node ids run
    // past 128, where a frame's scheduled set needs heap words. After
    // warm-up, the frame ring, the channel lists and the recycled scheduled
    // sets must all have reached their capacity: each set is sized to the
    // world's node count when its frame leaves, so an edge queued late,
    // for any node, never grows it.
    const PAIRS: u64 = 66;
    let mut sim = World::new(Environment::dense_hall(), SimRng::seed_from(21));
    let mut pairs = Vec::new();
    for k in 0..PAIRS {
        let period_us = 7_500 + (k * 977) % 7_500;
        let schedule = BackgroundSchedule {
            aa: AccessAddress::new(0xB000_0000 + u32::try_from(k).expect("fits")),
            crc_init: 0x0B_0B00 + u32::try_from(k).expect("fits"),
            start_channel: u8::try_from(k % 37).expect("fits"),
            hop: u8::try_from(1 + (k * 7) % 36).expect("fits"),
            period: Duration::from_micros(period_us),
            phase: Duration::from_micros(period_us + (k * 1_571) % period_us),
        };
        let (x, y) = (8.0 + (k % 9) as f64 * 12.0, 8.0 + (k / 9) as f64 * 12.0);
        let tx = sim.add_node(
            NodeConfig::new(format!("bgtx{k}"), Position::new(x, y)),
            BackgroundTx::new(schedule),
        );
        let rx = sim.add_node(
            NodeConfig::new(format!("bgrx{k}"), Position::new(x + 1.0, y)),
            BackgroundRx::new(schedule),
        );
        pairs.push((tx, rx));
    }
    for (tx, rx) in &pairs {
        sim.start(*rx);
        sim.start(*tx);
    }

    sim.run_for(Duration::from_millis(400));
    let received_before = background_received(&sim, &pairs);
    assert!(received_before > 1_000, "warm-up must deliver frames");

    let before = allocations();
    COUNTING.with(|c| c.set(true));
    sim.run_for(Duration::from_millis(200));
    COUNTING.with(|c| c.set(false));
    let delta = allocations() - before;
    let received = background_received(&sim, &pairs) - received_before;
    assert!(received >= 800, "the band must keep delivering: {received}");
    assert_eq!(
        delta, 0,
        "dense-band delivery must not allocate ({delta} allocations over {received} deliveries)"
    );
}

/// Moves every queued outgoing fragment of `from` into `to`, reusing one
/// scratch buffer — exactly what the Link Layer does at connection events.
fn shuttle(from: &mut HostStack, to: &mut HostStack, scratch: &mut Vec<u8>) {
    while let Some(llid) = from.poll_outgoing(scratch) {
        to.on_data(llid, scratch);
    }
}

/// One round of duplex host traffic: an unacknowledged ATT Write Command
/// one way, a Handle Value Notification the other, application events
/// drained on both sides (returning their pooled value buffers).
fn host_round(a: &mut HostStack, b: &mut HostStack, handle: u16, scratch: &mut Vec<u8>) {
    a.write_command(handle, &[0x01, 0x99, 0, 0, 0]);
    shuttle(a, b, scratch);
    b.notify(handle, &[0x42; 5]);
    shuttle(b, a, scratch);
    while a.poll_event().is_some() {}
    while b.poll_event().is_some() {}
}

#[test]
fn steady_state_host_queuing_allocates_nothing() {
    // Two host stacks wired back-to-back through the `LinkLayerDelegate`
    // seam (no radio: the budget under test is the ATT/L2CAP queuing path
    // by itself). Buffers crossing the seam are borrowed from each stack's
    // `PacketPool`; after a warm-up has grown every queue, scratch buffer,
    // and attribute value to capacity, a sustained duplex write/notify
    // stream must never touch the heap.
    let mk = |seed: u8| {
        HostStack::new(
            DeviceAddress::new([seed; 6], AddressType::Public),
            GattServer::new(),
            SimRng::seed_from(u64::from(seed)),
        )
    };
    let mut a = mk(0xA1);
    let mut b = mk(0xB2);
    let handle = b
        .server_mut()
        .service(Uuid::short(0xFFE0))
        .characteristic(
            Uuid::short(0xFFE1),
            props::READ | props::WRITE | props::WRITE_WITHOUT_RESPONSE,
            vec![0],
        )
        .finish();

    let mut scratch = Vec::new();
    for _ in 0..50 {
        host_round(&mut a, &mut b, handle, &mut scratch);
    }

    let before = allocations();
    COUNTING.with(|c| c.set(true));
    for _ in 0..200 {
        host_round(&mut a, &mut b, handle, &mut scratch);
    }
    COUNTING.with(|c| c.set(false));
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state host queuing must not allocate ({delta} allocations over 200 duplex rounds)"
    );
    assert_eq!(
        b.server().value(handle),
        Some(&[0x01, 0x99, 0, 0, 0][..]),
        "the writes must actually land"
    );
    let stats = a.pool().stats();
    assert_eq!(
        stats.free, stats.capacity,
        "steady state must return every pooled buffer"
    );
}

#[test]
fn burst_boundaries_reschedule_without_allocating() {
    // A 1 ms-period burst train on a channel the beacon never uses: its
    // boundary edges fire and schedule their successors all through the
    // measured window. Each firing pops one queue entry and pushes one, so
    // the heap's capacity is reused and the budget stays at zero.
    let train = InterferenceBurst::duty_cycle(
        9,
        Instant::ZERO,
        Duration::from_secs(1),
        Duration::from_millis(1),
        0.5,
        -40.0,
    );
    let before = BURST_EDGES.load(Ordering::Relaxed);
    let (delta, received) = measure_steady_state_with(
        Some(FaultPlan::seeded(3).with_burst(train)),
        false,
        Some(Box::new(BurstEdges)),
    );
    let edges = BURST_EDGES.load(Ordering::Relaxed) - before;
    assert!(
        received >= 90,
        "steady state must keep delivering: {received}"
    );
    assert!(edges > 50, "burst edges must fire in the window: {edges}");
    assert_eq!(
        delta, 0,
        "rescheduling burst edges must not allocate ({delta} allocations over {received} deliveries)"
    );
}

#[test]
fn disabled_spans_with_an_installed_clock_allocate_nothing() {
    // The span layer's zero-cost claim: a span clock is installed (as the
    // experiment rig always does) but no sink is attached, so every
    // enter/exit pair on the delivery path must be a branch-and-return —
    // no id counter, no stack frame, no clock read, no heap.
    let (delta, received) = measure_steady_state_with(None, true, None);
    assert!(
        received >= 90,
        "steady state with spans must keep delivering: {received}"
    );
    assert_eq!(
        delta, 0,
        "disabled spans must not allocate ({delta} allocations over {received} deliveries)"
    );
}

/// Runs `f` with counting armed and returns its result and allocation count.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, allocations() - before)
}

/// Trials the build budget averages over.
const BUDGET_TRIALS: u64 = 2_000;

/// Mean allocations per paper-rig trial, over [`BUDGET_TRIALS`] seeds at
/// seed base 1000, in three steps: building the scene with
/// `bench::build_trial`, flushing its telemetry, and
/// `TrialMetrics::from_registry` plus `SeriesAccumulator::fold`. The trial
/// itself runs as `bench::run_built` runs it, uncounted.
fn trial_step_allocations(mode: TelemetryMode) -> [f64; 3] {
    let cfg = TrialConfig {
        telemetry: mode,
        ..TrialConfig::default()
    };
    let mut acc = SeriesAccumulator::new(BUDGET_TRIALS);
    let mut totals = [0u64; 3];
    for i in 0..BUDGET_TRIALS {
        let (mut sc, build) =
            counted(|| build_trial(ScenarioBuilder::paper_rig(trial_seed(1_000, i)), &cfg));
        let registry = sc.metrics().cloned();
        let sync_span = sc.world.span_enter(ble_telemetry::SpanKind::TrialSync, 0);
        let synced = sc.wait_synchronised(SYNC_BUDGET);
        sc.world.span_exit(sync_span);
        let mut attempts = None;
        if synced {
            let follow_span = sc.world.span_enter(ble_telemetry::SpanKind::TrialFollow, 0);
            attempts = attack(&mut sc, &cfg, true);
            sc.world.span_exit(follow_span);
        }
        let ((), flush) = counted(|| sc.world.flush_telemetry());
        let ((), fold) = counted(|| {
            acc.fold(&TrialOutcome {
                attempts,
                sim_seconds: sc.now().as_micros_f64() / 1e6,
                effect_observed: false,
                metrics: registry
                    .as_ref()
                    .map(|reg| TrialMetrics::from_registry(&reg.lock(), 0.0, 0.0)),
                telemetry_downgraded: false,
            });
        });
        for (total, n) in totals.iter_mut().zip([build, flush, fold]) {
            *total += n;
        }
    }
    assert_eq!(acc.completed(), BUDGET_TRIALS);
    totals.map(|n| n as f64 / BUDGET_TRIALS as f64)
}

#[test]
fn paper_rig_trial_fixed_costs_stay_within_budget() {
    // Measured means (build, flush, fold): 36.5, 1.0, 1.0 with metrics on
    // and a 34.5 build with telemetry off; each build bound is its mean
    // plus 2.5, and the fold bound its mean plus 1. The fold's one
    // allocation is the boxed `TimingBlock`. A host stack that pre-fills
    // its 32-buffer packet pool adds 33 allocations per stack (two per
    // world); a string-keyed registry adds ~17 to the flush; a registry
    // attached as a boxed sink adds 2 to the build, and replaying each
    // joined node's label into it adds 3, as does cloning each label for a
    // `NodeAdded` that telemetry, still off while the nodes are added,
    // never emits; heap histograms, each with its own copy of the bucket
    // bounds, and a name-keyed phase profile added 5 to the fold.
    let [build, flush, fold] = trial_step_allocations(TelemetryMode::Metrics);
    let [build_off, flush_off, fold_off] = trial_step_allocations(TelemetryMode::Off);
    eprintln!("metrics: build {build}, flush {flush}, fold {fold}");
    eprintln!("off:     build {build_off}, flush {flush_off}, fold {fold_off}");
    assert!(
        build <= 39.0,
        "paper-rig build with metrics: {build} allocations"
    );
    assert!(flush <= 2.0, "metrics flush: {flush} allocations");
    assert!(
        fold <= 2.0,
        "metrics extraction and fold: {fold} allocations"
    );
    assert!(
        build_off <= 37.0,
        "paper-rig build, telemetry off: {build_off} allocations"
    );
    assert_eq!(
        flush_off, 0.0,
        "with telemetry off there is nothing to flush"
    );
}
