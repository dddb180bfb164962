//! Counters, gauges and fixed-bucket microsecond histograms.
//!
//! A [`MetricsRegistry`] is one fixed-layout block: a `u64` slot per
//! [`Counter`] the [`MetricsSink`] writes, five per [`SpanKind`], two
//! gauges and five [`Hist`] histograms created on first use. One sorted
//! name table maps every metric name to its slot, so reading by name and
//! iterating in name order work as they did on the old string-keyed maps,
//! while the sink and the bench rig address slots directly. Filling,
//! reading and dropping a trial's registry touches no map.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::event::{FaultKind, TelemetryEvent, Verdict};
use crate::sink::{TelemetryRecord, TelemetrySink};
use crate::span::SpanKind;

/// Default histogram bucket upper bounds, in microseconds. Chosen around
/// the paper's timing scales: sub-µs clock error, the ±5 µs heuristic
/// tolerance, 150 µs IFS, ms-scale connection intervals.
pub const DEFAULT_BOUNDS_US: [f64; 16] = [
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0,
    20_000.0, 50_000.0,
];

/// A fixed-bucket histogram of microsecond *magnitudes*.
///
/// Signed inputs (anchor error, IFS delta) are recorded as `|v|`; the
/// histogram answers "how large are the timing deviations", not their sign
/// (the signed values are still available per-event in a JSONL trace).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramUs {
    bounds: Vec<f64>,
    /// One count per bound, plus a final overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for HistogramUs {
    fn default() -> Self {
        HistogramUs::with_bounds(&DEFAULT_BOUNDS_US)
    }
}

/// Summary statistics extracted from a [`HistogramUs`].
///
/// Quantiles are upper-bound estimates: the bucket boundary at or above the
/// requested rank (exact for values landing on boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Exact mean of the recorded magnitudes.
    pub mean: f64,
    /// Median estimate (bucket upper bound).
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// Exact smallest recorded magnitude.
    pub min: f64,
    /// Exact largest recorded magnitude.
    pub max: f64,
}

impl HistogramUs {
    /// A histogram with the given ascending bucket upper bounds.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        let counts = vec![0; bounds.len().saturating_add(1)];
        HistogramUs {
            bounds: bounds.to_vec(),
            counts,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// Records one value (magnitude is taken; see the type docs).
    pub fn record(&mut self, value_us: f64) {
        let v = value_us.abs();
        if !v.is_finite() {
            return;
        }
        self.count = self.count.saturating_add(1);
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let slot = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        if let Some(c) = self.counts.get_mut(slot) {
            *c = c.saturating_add(1);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Exact sum of recorded magnitudes.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact smallest recorded magnitude (`+inf` when empty).
    pub fn min_value(&self) -> f64 {
        self.min
    }

    /// Exact largest recorded magnitude (0 when empty).
    pub fn max_value(&self) -> f64 {
        self.max
    }

    /// Rebuilds a histogram from previously-extracted parts (the campaign
    /// checkpoint round-trip). Returns `None` when the shape is inconsistent
    /// (`counts` must be one longer than `bounds` for the overflow bucket,
    /// and the per-bucket counts must total `count`).
    pub fn from_parts(
        bounds: Vec<f64>,
        counts: Vec<u64>,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    ) -> Option<Self> {
        if counts.len() != bounds.len().saturating_add(1) {
            return None;
        }
        let mut total = 0u64;
        for c in &counts {
            total = total.saturating_add(*c);
        }
        if total != count {
            return None;
        }
        Some(HistogramUs {
            bounds,
            counts,
            count,
            sum,
            min,
            max,
        })
    }

    /// Upper-bound quantile estimate: the first bucket boundary at which the
    /// cumulative count reaches `q` of the total (the exact maximum for the
    /// overflow bucket). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(*c);
            if cum as f64 >= target {
                return match self.bounds.get(i) {
                    Some(b) => *b,
                    None => self.max,
                };
            }
        }
        self.max
    }

    /// Resets all recorded values, keeping the bucket layout.
    pub fn clear(&mut self) {
        for c in &mut self.counts {
            *c = 0;
        }
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = 0.0;
    }

    /// Folds another histogram into this one. Returns `false` (and leaves
    /// `self` untouched) when the bucket layouts differ.
    pub fn merge(&mut self, other: &HistogramUs) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        true
    }

    /// Summary statistics (zeros when empty).
    pub fn summary(&self) -> HistSummary {
        if self.count == 0 {
            return HistSummary::default();
        }
        HistSummary {
            count: self.count,
            mean: self.sum / self.count as f64,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            min: self.min,
            max: self.max,
        }
    }
}

/// Every counter the [`MetricsSink`] writes, in name order. Each has one
/// `u64` slot in a [`MetricsRegistry`] and is named after its metric:
/// `AttackAttempts` is `attack.attempts`, `PhyRxCrcBad` is `phy.rx_crc_bad`.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    AttackAttempts,
    AttackNoResponse,
    AttackRejected,
    AttackSnifferLost,
    AttackSnifferSync,
    AttackSuccess,
    AttackTakeover,
    DetectorAlerts,
    FaultBursts,
    FaultEpisodes,
    FaultFramesCorrupted,
    FaultFramesLost,
    HostConnEstablished,
    HostConnReleased,
    HostPoolExhausted,
    HostSlotDenied,
    LinkAnchor,
    LinkConnected,
    LinkControlPdu,
    LinkCrcFail,
    LinkDisconnect,
    LinkHop,
    LinkSnNesn,
    LinkWindowOpen,
    PhyCollision,
    PhyInterferenceSpill,
    PhyRelock,
    PhyRx,
    PhyRxCrcBad,
    PhyRxLock,
    PhyTx,
    SimNodes,
    SpanEnters,
    TelemetryEvents,
    TelemetryRaw,
}

const COUNTERS: usize = 35;

impl Counter {
    fn index(self) -> usize {
        // xtask-allow: R2 — a fieldless enum's discriminant is its declaration index, lossless in usize
        self as usize
    }
}

/// Every histogram the [`MetricsSink`] records, in name order (µs
/// magnitudes). Each has one lazily created slot in a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// `attack.anchor_error_us`: the attacker's anchor-prediction error.
    AnchorErrorUs,
    /// `attack.ifs_delta_us`: observed Slave-response IFS deviation.
    IfsDeltaUs,
    /// `attack.lead_us`: injection lead before the predicted anchor.
    LeadUs,
    /// `detector.magnitude_us`: the timing deviation behind each alert.
    DetectorMagnitudeUs,
    /// `link.widening_us`: receive-window widening.
    WideningUs,
}

const HISTS: usize = 5;

impl Hist {
    fn index(self) -> usize {
        // xtask-allow: R2 — a fieldless enum's discriminant is its declaration index, lossless in usize
        self as usize
    }
}

/// The sink's two gauges, in name order.
#[derive(Debug, Clone, Copy)]
enum Gauge {
    /// `host.pool_high_water`: a running maximum, set only once a pool
    /// reported occupancy.
    PoolHighWater,
    /// `sim.last_event_us`: simulation time of the latest event.
    LastEventUs,
}

const GAUGES: usize = 2;

impl Gauge {
    fn index(self) -> usize {
        // xtask-allow: R2 — a fieldless enum's discriminant is its declaration index, lossless in usize
        self as usize
    }
}

/// Closed-span totals of one [`SpanKind`], in
/// [`crate::SpanMetricNames`] field order: count, sim_ns, self_sim_ns,
/// wall_ns, self_wall_ns.
pub type SpanTotals = [u64; 5];

const COUNT: usize = 0;
const SIM_NS: usize = 1;
const SELF_SIM_NS: usize = 2;
const WALL_NS: usize = 3;
const SELF_WALL_NS: usize = 4;

/// Where a metric name lives in the block.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Counter(Counter),
    /// A kind's totals and a position in its [`SpanTotals`].
    Span(SpanKind, usize),
    Gauge(Gauge),
    Hist(Hist),
}

/// The one name table: every metric the sink writes, sorted by name (the
/// lookup binary-searches it and iteration walks it in order).
#[rustfmt::skip]
static NAMES: [(&str, Slot); 82] = [
    ("attack.anchor_error_us", Slot::Hist(Hist::AnchorErrorUs)),
    ("attack.attempts", Slot::Counter(Counter::AttackAttempts)),
    ("attack.ifs_delta_us", Slot::Hist(Hist::IfsDeltaUs)),
    ("attack.lead_us", Slot::Hist(Hist::LeadUs)),
    ("attack.no_response", Slot::Counter(Counter::AttackNoResponse)),
    ("attack.rejected", Slot::Counter(Counter::AttackRejected)),
    ("attack.sniffer_lost", Slot::Counter(Counter::AttackSnifferLost)),
    ("attack.sniffer_sync", Slot::Counter(Counter::AttackSnifferSync)),
    ("attack.success", Slot::Counter(Counter::AttackSuccess)),
    ("attack.takeover", Slot::Counter(Counter::AttackTakeover)),
    ("detector.alerts", Slot::Counter(Counter::DetectorAlerts)),
    ("detector.magnitude_us", Slot::Hist(Hist::DetectorMagnitudeUs)),
    ("fault.bursts", Slot::Counter(Counter::FaultBursts)),
    ("fault.episodes", Slot::Counter(Counter::FaultEpisodes)),
    ("fault.frames_corrupted", Slot::Counter(Counter::FaultFramesCorrupted)),
    ("fault.frames_lost", Slot::Counter(Counter::FaultFramesLost)),
    ("host.conn_established", Slot::Counter(Counter::HostConnEstablished)),
    ("host.conn_released", Slot::Counter(Counter::HostConnReleased)),
    ("host.pool_exhausted", Slot::Counter(Counter::HostPoolExhausted)),
    ("host.pool_high_water", Slot::Gauge(Gauge::PoolHighWater)),
    ("host.slot_denied", Slot::Counter(Counter::HostSlotDenied)),
    ("link.anchor", Slot::Counter(Counter::LinkAnchor)),
    ("link.connected", Slot::Counter(Counter::LinkConnected)),
    ("link.control_pdu", Slot::Counter(Counter::LinkControlPdu)),
    ("link.crc_fail", Slot::Counter(Counter::LinkCrcFail)),
    ("link.disconnect", Slot::Counter(Counter::LinkDisconnect)),
    ("link.hop", Slot::Counter(Counter::LinkHop)),
    ("link.sn_nesn", Slot::Counter(Counter::LinkSnNesn)),
    ("link.widening_us", Slot::Hist(Hist::WideningUs)),
    ("link.window_open", Slot::Counter(Counter::LinkWindowOpen)),
    ("phy.collision", Slot::Counter(Counter::PhyCollision)),
    ("phy.interference_spill", Slot::Counter(Counter::PhyInterferenceSpill)),
    ("phy.relock", Slot::Counter(Counter::PhyRelock)),
    ("phy.rx", Slot::Counter(Counter::PhyRx)),
    ("phy.rx_crc_bad", Slot::Counter(Counter::PhyRxCrcBad)),
    ("phy.rx_lock", Slot::Counter(Counter::PhyRxLock)),
    ("phy.tx", Slot::Counter(Counter::PhyTx)),
    ("sim.last_event_us", Slot::Gauge(Gauge::LastEventUs)),
    ("sim.nodes", Slot::Counter(Counter::SimNodes)),
    ("span.attacker_follow.count", Slot::Span(SpanKind::AttackerFollow, COUNT)),
    ("span.attacker_follow.self_sim_ns", Slot::Span(SpanKind::AttackerFollow, SELF_SIM_NS)),
    ("span.attacker_follow.self_wall_ns", Slot::Span(SpanKind::AttackerFollow, SELF_WALL_NS)),
    ("span.attacker_follow.sim_ns", Slot::Span(SpanKind::AttackerFollow, SIM_NS)),
    ("span.attacker_follow.wall_ns", Slot::Span(SpanKind::AttackerFollow, WALL_NS)),
    ("span.attacker_inject.count", Slot::Span(SpanKind::AttackerInject, COUNT)),
    ("span.attacker_inject.self_sim_ns", Slot::Span(SpanKind::AttackerInject, SELF_SIM_NS)),
    ("span.attacker_inject.self_wall_ns", Slot::Span(SpanKind::AttackerInject, SELF_WALL_NS)),
    ("span.attacker_inject.sim_ns", Slot::Span(SpanKind::AttackerInject, SIM_NS)),
    ("span.attacker_inject.wall_ns", Slot::Span(SpanKind::AttackerInject, WALL_NS)),
    ("span.attacker_scan.count", Slot::Span(SpanKind::AttackerScan, COUNT)),
    ("span.attacker_scan.self_sim_ns", Slot::Span(SpanKind::AttackerScan, SELF_SIM_NS)),
    ("span.attacker_scan.self_wall_ns", Slot::Span(SpanKind::AttackerScan, SELF_WALL_NS)),
    ("span.attacker_scan.sim_ns", Slot::Span(SpanKind::AttackerScan, SIM_NS)),
    ("span.attacker_scan.wall_ns", Slot::Span(SpanKind::AttackerScan, WALL_NS)),
    ("span.channel_airtime.count", Slot::Span(SpanKind::ChannelAirtime, COUNT)),
    ("span.channel_airtime.self_sim_ns", Slot::Span(SpanKind::ChannelAirtime, SELF_SIM_NS)),
    ("span.channel_airtime.self_wall_ns", Slot::Span(SpanKind::ChannelAirtime, SELF_WALL_NS)),
    ("span.channel_airtime.sim_ns", Slot::Span(SpanKind::ChannelAirtime, SIM_NS)),
    ("span.channel_airtime.wall_ns", Slot::Span(SpanKind::ChannelAirtime, WALL_NS)),
    ("span.enters", Slot::Counter(Counter::SpanEnters)),
    ("span.ll_procedure.count", Slot::Span(SpanKind::LlProcedure, COUNT)),
    ("span.ll_procedure.self_sim_ns", Slot::Span(SpanKind::LlProcedure, SELF_SIM_NS)),
    ("span.ll_procedure.self_wall_ns", Slot::Span(SpanKind::LlProcedure, SELF_WALL_NS)),
    ("span.ll_procedure.sim_ns", Slot::Span(SpanKind::LlProcedure, SIM_NS)),
    ("span.ll_procedure.wall_ns", Slot::Span(SpanKind::LlProcedure, WALL_NS)),
    ("span.trial_follow.count", Slot::Span(SpanKind::TrialFollow, COUNT)),
    ("span.trial_follow.self_sim_ns", Slot::Span(SpanKind::TrialFollow, SELF_SIM_NS)),
    ("span.trial_follow.self_wall_ns", Slot::Span(SpanKind::TrialFollow, SELF_WALL_NS)),
    ("span.trial_follow.sim_ns", Slot::Span(SpanKind::TrialFollow, SIM_NS)),
    ("span.trial_follow.wall_ns", Slot::Span(SpanKind::TrialFollow, WALL_NS)),
    ("span.trial_sync.count", Slot::Span(SpanKind::TrialSync, COUNT)),
    ("span.trial_sync.self_sim_ns", Slot::Span(SpanKind::TrialSync, SELF_SIM_NS)),
    ("span.trial_sync.self_wall_ns", Slot::Span(SpanKind::TrialSync, SELF_WALL_NS)),
    ("span.trial_sync.sim_ns", Slot::Span(SpanKind::TrialSync, SIM_NS)),
    ("span.trial_sync.wall_ns", Slot::Span(SpanKind::TrialSync, WALL_NS)),
    ("span.trial_verify.count", Slot::Span(SpanKind::TrialVerify, COUNT)),
    ("span.trial_verify.self_sim_ns", Slot::Span(SpanKind::TrialVerify, SELF_SIM_NS)),
    ("span.trial_verify.self_wall_ns", Slot::Span(SpanKind::TrialVerify, SELF_WALL_NS)),
    ("span.trial_verify.sim_ns", Slot::Span(SpanKind::TrialVerify, SIM_NS)),
    ("span.trial_verify.wall_ns", Slot::Span(SpanKind::TrialVerify, WALL_NS)),
    ("telemetry.events", Slot::Counter(Counter::TelemetryEvents)),
    ("telemetry.raw", Slot::Counter(Counter::TelemetryRaw)),
];

fn slot(name: &str) -> Option<Slot> {
    let i = NAMES.binary_search_by(|(n, _)| (*n).cmp(name)).ok()?;
    NAMES.get(i).map(|(_, slot)| *slot)
}

/// Registry of named counters, gauges and histograms: one fixed-layout
/// block, addressed by name through the name table or by [`Counter`],
/// [`SpanKind`] and [`Hist`]. A name outside the table has no slot:
/// writing it does nothing and reading it gives 0 or `None`.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    counters: [u64; COUNTERS],
    spans: [SpanTotals; SpanKind::ALL.len()],
    gauges: [Option<f64>; GAUGES],
    histograms: [Option<HistogramUs>; HISTS],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: [0; COUNTERS],
            spans: [[0; 5]; SpanKind::ALL.len()],
            gauges: [None; GAUGES],
            histograms: Default::default(),
        }
    }
}

/// Shared handle to a registry (the simulation owns the [`MetricsSink`];
/// the caller keeps the handle). Thread-safe so that a world carrying the
/// sink stays [`Send`].
#[derive(Debug, Clone, Default)]
pub struct SharedRegistry(Arc<Mutex<MetricsRegistry>>);

impl SharedRegistry {
    /// Locks the registry for reading or writing. Lock poisoning is
    /// recovered (`into_inner`): metrics are observation-only state, and
    /// the worst a panicking writer leaves behind is one missing update.
    pub fn lock(&self) -> MutexGuard<'_, MetricsRegistry> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry behind a shared handle.
    pub fn shared() -> SharedRegistry {
        SharedRegistry(Arc::new(Mutex::new(Self::new())))
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increments a counter (or a `span.*` total) by `n`, saturating.
    pub fn add(&mut self, name: &str, n: u64) {
        let slot = match slot(name) {
            Some(Slot::Counter(c)) => self.counters.get_mut(c.index()),
            Some(Slot::Span(kind, i)) => {
                self.spans.get_mut(kind.index()).and_then(|t| t.get_mut(i))
            }
            Some(Slot::Gauge(_) | Slot::Hist(_)) | None => None,
        };
        if let Some(c) = slot {
            *c = c.saturating_add(n);
        }
    }

    /// Current counter (or `span.*` total) value; 0 if never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        slot(name).and_then(|s| self.count_at(s)).unwrap_or(0)
    }

    fn count_at(&self, slot: Slot) -> Option<u64> {
        match slot {
            Slot::Counter(c) => Some(self.get(c)),
            Slot::Span(kind, i) => self.span_totals(kind).get(i).copied(),
            Slot::Gauge(_) | Slot::Hist(_) => None,
        }
    }

    /// A counter's value.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters.get(counter.index()).copied().unwrap_or(0)
    }

    /// The closed-span totals of one kind.
    pub fn span_totals(&self, kind: SpanKind) -> SpanTotals {
        self.spans.get(kind.index()).copied().unwrap_or_default()
    }

    /// Sets a gauge to the latest value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        if let Some(Slot::Gauge(g)) = slot(name) {
            self.set(g, value);
        }
    }

    /// Current gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let Some(Slot::Gauge(g)) = slot(name) else {
            return None;
        };
        self.gauges.get(g.index()).copied().flatten()
    }

    /// Records a microsecond observation into a named histogram (created
    /// with the default buckets on first use).
    pub fn observe_us(&mut self, name: &str, value_us: f64) {
        if let Some(Slot::Hist(h)) = slot(name) {
            self.record(h, value_us);
        }
    }

    /// A named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramUs> {
        let Some(Slot::Hist(h)) = slot(name) else {
            return None;
        };
        self.hist(h)
    }

    /// A histogram, if any observation was recorded.
    pub fn hist(&self, hist: Hist) -> Option<&HistogramUs> {
        self.histograms.get(hist.index())?.as_ref()
    }

    /// Iterates the non-zero counters (`span.*` totals included) in name
    /// order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        NAMES.iter().filter_map(|&(name, slot)| {
            let n = self.count_at(slot)?;
            (n != 0).then_some((name, n))
        })
    }

    /// Iterates the set gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        NAMES.iter().filter_map(|&(name, slot)| {
            let Slot::Gauge(g) = slot else { return None };
            Some((name, self.gauges.get(g.index()).copied().flatten()?))
        })
    }

    /// Iterates the recorded histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &HistogramUs)> + '_ {
        NAMES.iter().filter_map(|&(name, slot)| {
            let Slot::Hist(h) = slot else { return None };
            Some((name, self.hist(h)?))
        })
    }

    /// Folds another registry into this one: counters add, gauges take the
    /// other's value, histograms merge (skipping incompatible layouts).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.add_counts_and_gauges(other);
        for (mine, theirs) in self.histograms.iter_mut().zip(&other.histograms) {
            let Some(h) = theirs else { continue };
            match mine {
                Some(m) => {
                    m.merge(h);
                }
                None => *mine = Some(h.clone()),
            }
        }
    }

    /// Drains a sink's buffer into this registry: counters and span totals
    /// add (and read 0 in `buf` afterwards), set gauges overwrite, and each
    /// non-empty histogram moves into an empty slot or merges into a filled
    /// one. The move is bit-identical to merging into a fresh histogram:
    /// `0.0 + sum` is `sum`, and min and max start at +∞ and 0.0 over
    /// non-negative magnitudes.
    fn absorb(&mut self, buf: &mut MetricsRegistry) {
        self.add_counts_and_gauges(buf);
        buf.counters = [0; COUNTERS];
        buf.spans = [[0; 5]; SpanKind::ALL.len()];
        for (mine, theirs) in self.histograms.iter_mut().zip(&mut buf.histograms) {
            let Some(h) = theirs.as_mut().filter(|h| !h.is_empty()) else {
                continue;
            };
            match mine {
                Some(m) => {
                    m.merge(h);
                    h.clear();
                }
                None => *mine = theirs.take(),
            }
        }
    }

    fn add_counts_and_gauges(&mut self, other: &MetricsRegistry) {
        let mine = self
            .counters
            .iter_mut()
            .chain(self.spans.iter_mut().flatten());
        let theirs = other.counters.iter().chain(other.spans.iter().flatten());
        for (m, t) in mine.zip(theirs) {
            *m = m.saturating_add(*t);
        }
        for (m, t) in self.gauges.iter_mut().zip(other.gauges) {
            if t.is_some() {
                *m = t;
            }
        }
    }

    fn bump(&mut self, counter: Counter) {
        if let Some(c) = self.counters.get_mut(counter.index()) {
            *c = c.saturating_add(1);
        }
    }

    fn add_span(&mut self, kind: SpanKind, totals: SpanTotals) {
        if let Some(mine) = self.spans.get_mut(kind.index()) {
            for (m, t) in mine.iter_mut().zip(totals) {
                *m = m.saturating_add(t);
            }
        }
    }

    fn set(&mut self, gauge: Gauge, value: f64) {
        if let Some(g) = self.gauges.get_mut(gauge.index()) {
            *g = Some(value);
        }
    }

    /// Raises a running-maximum gauge; readings of 0 leave it unset.
    fn raise(&mut self, gauge: Gauge, value: f64) {
        if let Some(g) = self.gauges.get_mut(gauge.index()) {
            if value > g.unwrap_or(0.0) {
                *g = Some(value);
            }
        }
    }

    fn record(&mut self, hist: Hist, value_us: f64) {
        if let Some(h) = self.histograms.get_mut(hist.index()) {
            h.get_or_insert_with(HistogramUs::default).record(value_us);
        }
    }
}

/// A [`TelemetrySink`] that folds every event into a [`MetricsRegistry`].
///
/// The event→metric mapping is an exhaustive match (xtask R4): adding a
/// [`TelemetryEvent`] variant forces a decision here about how it is
/// counted.
///
/// Tallies are buffered in a private registry block and only folded into
/// the shared registry on [`TelemetrySink::flush`] (or drop): `emit` sits
/// on the simulation hot path and touches no lock. A flush is one
/// slot-wise add under the lock. Read the registry only after flushing the
/// world's sinks.
#[derive(Debug)]
pub struct MetricsSink {
    registry: SharedRegistry,
    buf: MetricsRegistry,
}

impl MetricsSink {
    /// A sink feeding a fresh shared registry.
    pub fn new() -> Self {
        Self::with_registry(MetricsRegistry::shared())
    }

    /// A sink feeding an existing registry.
    pub fn with_registry(registry: SharedRegistry) -> Self {
        MetricsSink {
            registry,
            buf: MetricsRegistry::new(),
        }
    }

    /// The shared registry this sink feeds. Buffered tallies become
    /// visible here after [`TelemetrySink::flush`].
    pub fn handle(&self) -> SharedRegistry {
        self.registry.clone()
    }

    /// Drains the buffered tallies into the shared registry.
    fn fold_into_registry(&mut self) {
        if self.buf.get(Counter::TelemetryEvents) == 0 {
            return;
        }
        self.registry.lock().absorb(&mut self.buf);
    }
}

impl Default for MetricsSink {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for MetricsSink {
    fn drop(&mut self) {
        self.fold_into_registry();
    }
}

impl TelemetrySink for MetricsSink {
    fn emit(&mut self, record: &TelemetryRecord) {
        let b = &mut self.buf;
        b.bump(Counter::TelemetryEvents);
        b.set(Gauge::LastEventUs, record.at.as_micros_f64());
        match &record.event {
            TelemetryEvent::NodeAdded { .. } => b.bump(Counter::SimNodes),
            TelemetryEvent::TxStart { .. } => b.bump(Counter::PhyTx),
            TelemetryEvent::TxEnd => {}
            TelemetryEvent::RxLock { .. } => b.bump(Counter::PhyRxLock),
            TelemetryEvent::Relock { .. } => b.bump(Counter::PhyRelock),
            TelemetryEvent::RxEnd { crc_ok, .. } => {
                b.bump(Counter::PhyRx);
                if !crc_ok {
                    b.bump(Counter::PhyRxCrcBad);
                }
            }
            TelemetryEvent::Collision { .. } => b.bump(Counter::PhyCollision),
            TelemetryEvent::InterferenceSpill { .. } => b.bump(Counter::PhyInterferenceSpill),
            TelemetryEvent::Anchor { .. } => b.bump(Counter::LinkAnchor),
            TelemetryEvent::WindowOpen { widening, .. } => {
                b.bump(Counter::LinkWindowOpen);
                b.record(Hist::WideningUs, widening.as_micros_f64());
            }
            TelemetryEvent::Hop { .. } => b.bump(Counter::LinkHop),
            TelemetryEvent::SnNesn { .. } => b.bump(Counter::LinkSnNesn),
            TelemetryEvent::CrcFail { .. } => b.bump(Counter::LinkCrcFail),
            TelemetryEvent::LlControl { .. } => b.bump(Counter::LinkControlPdu),
            TelemetryEvent::ConnectionEstablished { .. } => b.bump(Counter::LinkConnected),
            TelemetryEvent::ConnectionClosed { .. } => b.bump(Counter::LinkDisconnect),
            TelemetryEvent::SnifferSync { .. } => b.bump(Counter::AttackSnifferSync),
            TelemetryEvent::SnifferLost { .. } => b.bump(Counter::AttackSnifferLost),
            TelemetryEvent::InjectionAttempt { lead, .. } => {
                b.bump(Counter::AttackAttempts);
                b.record(Hist::LeadUs, lead.as_micros_f64());
            }
            TelemetryEvent::HeuristicVerdict { verdict, .. } => b.bump(match verdict {
                Verdict::Success => Counter::AttackSuccess,
                Verdict::Rejected => Counter::AttackRejected,
                Verdict::NoResponse => Counter::AttackNoResponse,
            }),
            TelemetryEvent::AnchorPrediction { error_us } => {
                b.record(Hist::AnchorErrorUs, *error_us);
            }
            TelemetryEvent::IfsDelta { delta_us } => b.record(Hist::IfsDeltaUs, *delta_us),
            TelemetryEvent::Takeover { .. } => b.bump(Counter::AttackTakeover),
            TelemetryEvent::DetectorAlert { magnitude_us, .. } => {
                b.bump(Counter::DetectorAlerts);
                b.record(Hist::DetectorMagnitudeUs, *magnitude_us);
            }
            TelemetryEvent::PoolExhausted { .. } => b.bump(Counter::HostPoolExhausted),
            TelemetryEvent::SlotDenied => b.bump(Counter::HostSlotDenied),
            TelemetryEvent::ConnEstablished { .. } => b.bump(Counter::HostConnEstablished),
            TelemetryEvent::ConnReleased { .. } => b.bump(Counter::HostConnReleased),
            TelemetryEvent::PoolHighWater { in_use } => {
                b.raise(Gauge::PoolHighWater, f64::from(*in_use));
            }
            TelemetryEvent::FaultBurst { active, .. } => {
                if *active {
                    b.bump(Counter::FaultBursts);
                }
            }
            TelemetryEvent::FaultEpisode { active, .. } => {
                if *active {
                    b.bump(Counter::FaultEpisodes);
                }
            }
            TelemetryEvent::FaultFrame { kind, .. } => b.bump(match kind {
                FaultKind::Loss => Counter::FaultFramesLost,
                FaultKind::Corruption => Counter::FaultFramesCorrupted,
                // Burst/fading/drift faults are episodic, not per-frame; a
                // mislabelled frame event still counts as a lost frame.
                FaultKind::Interference | FaultKind::Fading | FaultKind::Drift => {
                    Counter::FaultFramesLost
                }
            }),
            TelemetryEvent::SpanEnter { .. } => b.bump(Counter::SpanEnters),
            TelemetryEvent::SpanExit {
                kind,
                sim_ns,
                wall_ns,
                self_sim_ns,
                self_wall_ns,
                ..
            } => b.add_span(*kind, [1, *sim_ns, *self_sim_ns, *wall_ns, *self_wall_ns]),
            TelemetryEvent::Raw { .. } => b.bump(Counter::TelemetryRaw),
        }
    }

    fn flush(&mut self) {
        self.fold_into_registry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{Duration, Instant};

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        let mut h = HistogramUs::with_bounds(&[1.0, 10.0, 100.0]);
        h.record(1.0); // lands in [.., 1.0]
        h.record(1.000_001); // lands in (1.0, 10.0]
        h.record(10.0); // boundary: (1.0, 10.0]
        h.record(100.0); // boundary: (10.0, 100.0]
        h.record(1_000.0); // overflow
        assert_eq!(h.bucket_counts(), &[1, 2, 1, 1]);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn negative_values_record_their_magnitude() {
        let mut h = HistogramUs::with_bounds(&[5.0, 50.0]);
        h.record(-3.0);
        h.record(-30.0);
        assert_eq!(h.bucket_counts(), &[1, 1, 0]);
        let s = h.summary();
        assert!((s.mean - 16.5).abs() < 1e-9);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 30.0);
    }

    #[test]
    fn non_finite_values_are_dropped() {
        let mut h = HistogramUs::default();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert!(h.is_empty());
        assert_eq!(h.summary(), HistSummary::default());
    }

    #[test]
    fn quantiles_step_through_bucket_bounds() {
        let mut h = HistogramUs::with_bounds(&[1.0, 2.0, 5.0]);
        for _ in 0..50 {
            h.record(0.7); // bucket ≤1
        }
        for _ in 0..40 {
            h.record(1.5); // bucket ≤2
        }
        for _ in 0..10 {
            h.record(4.0); // bucket ≤5
        }
        assert_eq!(h.quantile(0.25), 1.0);
        assert_eq!(h.quantile(0.50), 1.0);
        assert_eq!(h.quantile(0.75), 2.0);
        assert_eq!(h.quantile(0.95), 5.0);
        // Overflow values report the exact max.
        h.record(77.0);
        assert_eq!(h.quantile(1.0), 77.0);
    }

    #[test]
    fn merge_requires_identical_layouts() {
        let mut a = HistogramUs::with_bounds(&[1.0, 2.0]);
        let mut b = HistogramUs::with_bounds(&[1.0, 2.0]);
        a.record(0.5);
        b.record(1.5);
        b.record(9.0);
        assert!(a.merge(&b));
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket_counts(), &[1, 1, 1]);
        let other_layout = HistogramUs::with_bounds(&[3.0]);
        assert!(!a.merge(&other_layout));
        assert_eq!(a.count(), 3, "failed merge must not corrupt");
    }

    #[test]
    fn from_parts_round_trips_a_populated_histogram() {
        let mut h = HistogramUs::with_bounds(&[1.0, 10.0, 100.0]);
        h.record(0.5);
        h.record(7.0);
        h.record(250.0);
        let rebuilt = HistogramUs::from_parts(
            h.bounds().to_vec(),
            h.bucket_counts().to_vec(),
            h.count(),
            h.sum(),
            h.min_value(),
            h.max_value(),
        )
        .expect("consistent parts");
        assert_eq!(rebuilt, h);
        // A merge after the round-trip behaves like a merge before it.
        let mut a = h.clone();
        let mut b = rebuilt;
        assert!(a.merge(&h) && b.merge(&h));
        assert_eq!(a, b);
        // Inconsistent parts are rejected, not silently accepted: a bucket
        // total that disagrees with `count`, and a counts vector whose
        // length does not match `bounds.len() + 1`.
        assert!(HistogramUs::from_parts(vec![1.0], vec![1, 2], 4, 0.0, 0.0, 0.0).is_none());
        assert!(HistogramUs::from_parts(vec![1.0], vec![1], 1, 0.0, 0.0, 0.0).is_none());
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        r.inc("phy.tx");
        r.add("phy.tx", 2);
        assert_eq!(r.counter("phy.tx"), 3);
        assert_eq!(r.get(Counter::PhyTx), 3);
        assert_eq!(r.counter("missing"), 0);
        r.set_gauge("sim.last_event_us", 1.5);
        r.set_gauge("sim.last_event_us", 2.5);
        assert_eq!(r.gauge("sim.last_event_us"), Some(2.5));
        r.observe_us("attack.lead_us", 3.0);
        assert_eq!(
            r.histogram("attack.lead_us").map(HistogramUs::count),
            Some(1)
        );

        let mut other = MetricsRegistry::new();
        other.add("phy.tx", 10);
        other.set_gauge("sim.last_event_us", 9.0);
        other.observe_us("attack.lead_us", 4.0);
        r.merge(&other);
        assert_eq!(r.counter("phy.tx"), 13);
        assert_eq!(r.gauge("sim.last_event_us"), Some(9.0));
        assert_eq!(r.hist(Hist::LeadUs).map(HistogramUs::count), Some(2));

        // A name outside the table has no slot: writes change nothing.
        let before = r.clone();
        r.inc("missing");
        r.set_gauge("missing", 1.0);
        r.observe_us("missing", 1.0);
        r.add("attack.lead_us", 1); // a histogram name is not a counter
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("missing"), None);
        assert!(r.histogram("missing").is_none());
        assert!(r.counters().eq(before.counters()));
        assert!(r.gauges().eq(before.gauges()));
        assert!(r.histograms().eq(before.histograms()));
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let mut r = MetricsRegistry::new();
        r.add("phy.tx", u64::MAX - 1);
        r.add("phy.tx", 5);
        assert_eq!(r.counter("phy.tx"), u64::MAX);
    }

    #[test]
    fn sink_classifies_events() {
        let sink = MetricsSink::new();
        let reg = sink.handle();
        let mut sink = sink;
        {
            let mut emit = |event: TelemetryEvent| {
                sink.emit(&TelemetryRecord {
                    at: Instant::from_micros(10),
                    node: Some(0),
                    event,
                });
            };
            emit(TelemetryEvent::InjectionAttempt {
                channel: 3,
                lead: Duration::from_micros(40),
            });
            emit(TelemetryEvent::HeuristicVerdict {
                verdict: Verdict::Success,
                attempts_total: 1,
            });
            emit(TelemetryEvent::AnchorPrediction { error_us: -2.0 });
            emit(TelemetryEvent::RxEnd {
                channel: 1,
                access_address: 0x1,
                crc_ok: false,
                interferers: 1,
            });
        }
        // Tallies are buffered until the sink flushes.
        assert_eq!(reg.lock().counter("telemetry.events"), 0);
        sink.flush();
        let reg = reg.lock();
        assert_eq!(reg.counter("telemetry.events"), 4);
        assert_eq!(reg.counter("attack.attempts"), 1);
        assert_eq!(reg.counter("attack.success"), 1);
        assert_eq!(reg.counter("phy.rx_crc_bad"), 1);
        assert_eq!(
            reg.histogram("attack.lead_us").map(HistogramUs::count),
            Some(1)
        );
        assert_eq!(
            reg.histogram("attack.anchor_error_us")
                .map(HistogramUs::count),
            Some(1)
        );
        assert_eq!(reg.gauge("sim.last_event_us"), Some(10.0));
    }

    #[test]
    fn span_exits_fold_into_kind_scoped_counters() {
        let mut sink = MetricsSink::new();
        let reg = sink.handle();
        sink.emit(&TelemetryRecord {
            at: Instant::from_micros(1),
            node: None,
            event: TelemetryEvent::SpanEnter {
                id: 1,
                kind: SpanKind::TrialSync,
                detail: 0,
            },
        });
        sink.emit(&TelemetryRecord {
            at: Instant::from_micros(9),
            node: None,
            event: TelemetryEvent::SpanExit {
                id: 1,
                kind: SpanKind::TrialSync,
                detail: 0,
                sim_ns: 8_000,
                wall_ns: 120,
                self_sim_ns: 6_000,
                self_wall_ns: 100,
            },
        });
        sink.flush();
        let reg = reg.lock();
        assert_eq!(reg.counter("span.enters"), 1);
        assert_eq!(reg.counter("span.trial_sync.count"), 1);
        assert_eq!(reg.counter("span.trial_sync.sim_ns"), 8_000);
        assert_eq!(reg.counter("span.trial_sync.self_sim_ns"), 6_000);
        assert_eq!(reg.counter("span.trial_sync.wall_ns"), 120);
        assert_eq!(reg.counter("span.trial_sync.self_wall_ns"), 100);
        assert_eq!(reg.counter("span.trial_follow.count"), 0);
    }

    #[test]
    fn dropping_the_sink_folds_buffered_tallies() {
        let mut sink = MetricsSink::new();
        let reg = sink.handle();
        sink.emit(&TelemetryRecord {
            at: Instant::from_micros(5),
            node: None,
            event: TelemetryEvent::TxEnd,
        });
        drop(sink);
        assert_eq!(reg.lock().counter("telemetry.events"), 1);
        assert_eq!(reg.lock().gauge("sim.last_event_us"), Some(5.0));
    }

    #[test]
    fn repeated_flushes_do_not_double_count() {
        let mut sink = MetricsSink::new();
        let reg = sink.handle();
        sink.emit(&TelemetryRecord {
            at: Instant::from_micros(1),
            node: None,
            event: TelemetryEvent::AnchorPrediction { error_us: 2.0 },
        });
        sink.flush();
        sink.flush();
        let reg = reg.lock();
        assert_eq!(reg.counter("telemetry.events"), 1);
        assert_eq!(
            reg.histogram("attack.anchor_error_us")
                .map(HistogramUs::count),
            Some(1)
        );
    }

    #[test]
    fn iteration_is_name_sorted_regardless_of_insertion_order() {
        // The registry backs experiment artefacts: its iteration order must
        // be a pure function of the metric names, never of the order the
        // simulation happened to first touch them (determinism pass).
        let mut fwd = MetricsRegistry::new();
        fwd.inc("attack.attempts");
        fwd.inc("telemetry.raw");
        fwd.set_gauge("host.pool_high_water", 1.0);
        fwd.set_gauge("sim.last_event_us", 2.0);
        fwd.observe_us("attack.anchor_error_us", 1.0);
        fwd.observe_us("link.widening_us", 2.0);
        let mut rev = MetricsRegistry::new();
        rev.observe_us("link.widening_us", 2.0);
        rev.observe_us("attack.anchor_error_us", 1.0);
        rev.set_gauge("sim.last_event_us", 2.0);
        rev.set_gauge("host.pool_high_water", 1.0);
        rev.inc("telemetry.raw");
        rev.inc("attack.attempts");
        let names = |r: &MetricsRegistry| {
            (
                r.counters().map(|(k, _)| k).collect::<Vec<_>>(),
                r.gauges().map(|(k, _)| k).collect::<Vec<_>>(),
                r.histograms().map(|(k, _)| k).collect::<Vec<_>>(),
            )
        };
        assert_eq!(names(&fwd), names(&rev));
        assert_eq!(
            fwd.counters().map(|(k, _)| k).collect::<Vec<_>>(),
            vec!["attack.attempts", "telemetry.raw"],
            "counters iterate in name order"
        );
    }

    /// Every counter name the sink has ever written, as the string-keyed
    /// registry's fold listed them.
    const SINK_COUNTERS: [&str; 35] = [
        "telemetry.events",
        "sim.nodes",
        "phy.tx",
        "phy.rx_lock",
        "phy.relock",
        "phy.rx",
        "phy.rx_crc_bad",
        "phy.collision",
        "phy.interference_spill",
        "link.anchor",
        "link.window_open",
        "link.hop",
        "link.sn_nesn",
        "link.crc_fail",
        "link.control_pdu",
        "link.connected",
        "link.disconnect",
        "attack.sniffer_sync",
        "attack.sniffer_lost",
        "attack.attempts",
        "attack.success",
        "attack.rejected",
        "attack.no_response",
        "attack.takeover",
        "detector.alerts",
        "host.pool_exhausted",
        "host.slot_denied",
        "host.conn_established",
        "host.conn_released",
        "fault.bursts",
        "fault.episodes",
        "fault.frames_lost",
        "fault.frames_corrupted",
        "telemetry.raw",
        "span.enters",
    ];

    /// The counters the traced benchmark replica reads after every trial
    /// (`TRIAL_COUNTERS` in `benchmarks/e2e/trace/src/probe.rs`).
    const TRACE_TRIAL_COUNTERS: [&str; 16] = [
        "telemetry.events",
        "sim.nodes",
        "phy.collision",
        "link.anchor",
        "link.crc_fail",
        "link.control_pdu",
        "link.disconnect",
        "attack.attempts",
        "attack.success",
        "attack.sniffer_lost",
        "host.conn_established",
        "host.pool_exhausted",
        "host.slot_denied",
        "fault.bursts",
        "fault.frames_lost",
        "fault.frames_corrupted",
    ];

    const SINK_HISTOGRAMS: [&str; 5] = [
        "link.widening_us",
        "attack.lead_us",
        "attack.anchor_error_us",
        "attack.ifs_delta_us",
        "detector.magnitude_us",
    ];

    fn span_names() -> Vec<&'static str> {
        SpanKind::ALL
            .into_iter()
            .flat_map(|kind| {
                let n = kind.metric_names();
                [n.count, n.sim_ns, n.self_sim_ns, n.wall_ns, n.self_wall_ns]
            })
            .collect()
    }

    #[test]
    fn every_name_the_sink_writes_resolves_to_its_own_slot() {
        // An unknown name reads 0, so a typo in the table would silently
        // zero a metric. Give every counter a distinct value and read each
        // one back: a missing name reads 0 and two names sharing a slot
        // read the same sum.
        let counters: Vec<&str> = SINK_COUNTERS.into_iter().chain(span_names()).collect();
        let mut r = MetricsRegistry::new();
        for (value, name) in (1u64..).zip(&counters) {
            r.add(name, value);
        }
        for (value, name) in (1u64..).zip(&counters) {
            assert_eq!(r.counter(name), value, "{name}");
        }
        for name in TRACE_TRIAL_COUNTERS {
            assert!(SINK_COUNTERS.contains(&name), "{name}");
            assert_ne!(r.counter(name), 0, "{name}");
        }
        // The lookup binary-searches the table, and `counters()` walks it.
        assert!(NAMES.windows(2).all(|w| w[0].0 < w[1].0));
        let names: Vec<&str> = r.counters().map(|(name, _)| name).collect();
        assert_eq!(names.len(), counters.len());
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        for kind in SpanKind::ALL {
            let n = kind.metric_names();
            let expected = [n.count, n.sim_ns, n.self_sim_ns, n.wall_ns, n.self_wall_ns]
                .map(|name| r.counter(name));
            assert_eq!(r.span_totals(kind), expected, "{}", kind.as_str());
        }
        for (value, name) in [(1.0, "sim.last_event_us"), (2.0, "host.pool_high_water")] {
            r.set_gauge(name, value);
            assert_eq!(r.gauge(name), Some(value), "{name}");
        }
        for (i, name) in SINK_HISTOGRAMS.into_iter().enumerate() {
            for _ in 0..=i {
                r.observe_us(name, 1.0);
            }
        }
        for (i, name) in SINK_HISTOGRAMS.into_iter().enumerate() {
            let count = r.histogram(name).map(HistogramUs::count);
            assert_eq!(count, Some(i as u64 + 1), "{name}");
        }
        assert_eq!(r.counter("phy.tx_typo"), 0);
        assert_eq!(
            NAMES.len(),
            counters.len() + 2 + SINK_HISTOGRAMS.len(),
            "the table holds exactly the names the sink writes"
        );
    }

    /// A varied event stream: counters, span totals, both gauges and three
    /// histograms.
    fn stream(seed: u32) -> Vec<TelemetryRecord> {
        (0..40u32)
            .map(|i| {
                let v = f64::from(i.wrapping_mul(seed) % 97);
                let event = match (i + seed) % 6 {
                    0 => TelemetryEvent::InjectionAttempt {
                        channel: 3,
                        lead: Duration::from_micros(u64::from(i)),
                    },
                    1 => TelemetryEvent::AnchorPrediction { error_us: -v },
                    2 => TelemetryEvent::WindowOpen {
                        channel: 1,
                        widening: Duration::from_micros(u64::from(seed)),
                        deadline: Duration::from_micros(500),
                    },
                    3 => TelemetryEvent::PoolHighWater { in_use: i % 5 },
                    4 => TelemetryEvent::SpanExit {
                        id: i,
                        kind: SpanKind::ChannelAirtime,
                        detail: 0,
                        sim_ns: u64::from(i) * 1_000,
                        wall_ns: 7,
                        self_sim_ns: u64::from(i),
                        self_wall_ns: 3,
                    },
                    _ => TelemetryEvent::RxEnd {
                        channel: 1,
                        access_address: 0x1,
                        crc_ok: i % 2 == 0,
                        interferers: 0,
                    },
                };
                TelemetryRecord {
                    at: Instant::from_micros(u64::from(i)),
                    node: None,
                    event,
                }
            })
            .collect()
    }

    fn fed(streams: &[&[TelemetryRecord]]) -> MetricsRegistry {
        let mut sink = MetricsSink::new();
        let reg = sink.handle();
        for stream in streams {
            for record in *stream {
                sink.emit(record);
            }
            sink.flush();
        }
        drop(sink);
        let r = reg.lock().clone();
        r
    }

    #[test]
    fn merging_two_registries_matches_one_fed_both_streams() {
        let (a, b) = (stream(3), stream(11));
        let mut merged = fed(&[&a]);
        merged.merge(&fed(&[&b]));
        let both = fed(&[&a, &b]);
        assert!(merged.counters().eq(both.counters()));
        assert!(merged.gauges().eq(both.gauges()));
        let counts = |r: &MetricsRegistry| {
            r.histograms()
                .map(|(name, h)| (name, h.count(), h.bucket_counts().to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&merged), counts(&both));
        assert_eq!(counts(&both).len(), 3);
    }

    #[test]
    fn flushing_moves_a_histogram_bit_identically_to_a_fresh_merge() {
        let records = stream(5);
        let mut expected = HistogramUs::default();
        for record in &records {
            if let TelemetryEvent::AnchorPrediction { error_us } = record.event {
                expected.record(error_us);
            }
        }
        let mut fresh = HistogramUs::default();
        assert!(fresh.merge(&expected));
        let r = fed(&[&records]);
        let moved = r.hist(Hist::AnchorErrorUs).expect("recorded");
        assert_eq!(moved, &fresh);
        assert_eq!(moved.sum().to_bits(), fresh.sum().to_bits());
        assert_eq!(moved.min_value().to_bits(), fresh.min_value().to_bits());
        assert_eq!(moved.max_value().to_bits(), fresh.max_value().to_bits());
    }
}
