//! Counters and fixed-bucket microsecond histograms.
//!
//! A [`MetricsRegistry`] is one fixed-layout block: a `u64` slot per
//! [`Counter`], five per [`SpanKind`] and one [`HistogramUs`] per
//! [`Hist`]. A world's [`crate::Telemetry`] owns one block and
//! [`MetricsRegistry::tally`]s every record into it; a flush publishes the
//! block into a [`SharedRegistry`]. One sorted name table maps every
//! counter name to its slot for reading by name, while the bench rig
//! addresses slots directly. Filling, reading and dropping a trial's
//! registry touches no map and no heap.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::event::{FaultKind, TelemetryEvent, Verdict};
use crate::span::SpanKind;

/// Histogram bucket upper bounds, in microseconds: the one layout of every
/// [`HistogramUs`]. Chosen around the paper's timing scales: sub-µs clock
/// error, the ±5 µs heuristic tolerance, 150 µs IFS, ms-scale connection
/// intervals.
pub const BOUNDS_US: [f64; 16] = [
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0,
    20_000.0, 50_000.0,
];

/// A fixed-bucket histogram of microsecond *magnitudes*, one count per
/// [`BOUNDS_US`] bucket plus an overflow bucket. A plain value: recording,
/// merging and copying one touch no heap.
///
/// Signed inputs (anchor error, IFS delta) are recorded as `|v|`; the
/// histogram answers "how large are the timing deviations", not their sign
/// (the signed values are still available per-event in a JSONL trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramUs {
    /// One count per bound, plus a final overflow bucket.
    counts: [u64; BOUNDS_US.len() + 1],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for HistogramUs {
    fn default() -> Self {
        HistogramUs {
            counts: [0; BOUNDS_US.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
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
        let slot = BOUNDS_US
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(BOUNDS_US.len());
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
    pub fn bucket_counts(&self) -> &[u64; BOUNDS_US.len() + 1] {
        &self.counts
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
    /// checkpoint round-trip), or `None` when the parts are not a state
    /// recording could reach: the per-bucket counts must total `count`,
    /// `sum` and `max` must be finite, and `min` must be +∞ when nothing
    /// was recorded and a finite value no greater than `max` otherwise.
    pub fn from_parts(
        counts: [u64; BOUNDS_US.len() + 1],
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    ) -> Option<Self> {
        let total = counts.iter().fold(0u64, |t, c| t.saturating_add(*c));
        let extremes = if count == 0 {
            min == f64::INFINITY
        } else {
            min.is_finite() && min <= max
        };
        (total == count && sum.is_finite() && max.is_finite() && extremes).then_some(HistogramUs {
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
                return BOUNDS_US.get(i).copied().unwrap_or(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &HistogramUs) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine = mine.saturating_add(theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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

/// Every counter the registry tallies, in name order. Each has one `u64`
/// slot in a [`MetricsRegistry`] and is named after its metric:
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
}

const COUNTERS: usize = 34;

impl Counter {
    fn index(self) -> usize {
        // xtask-allow: R2 — a fieldless enum's discriminant is its declaration index, lossless in usize
        self as usize
    }
}

/// Every histogram the registry records (µs magnitudes). Each has one
/// slot in a [`MetricsRegistry`].
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

/// Closed-span totals of one [`SpanKind`], in
/// [`crate::SpanMetricNames`] field order: count, sim_ns, self_sim_ns,
/// wall_ns, self_wall_ns.
pub type SpanTotals = [u64; 5];

const COUNT: usize = 0;
const SIM_NS: usize = 1;
const SELF_SIM_NS: usize = 2;
const WALL_NS: usize = 3;
const SELF_WALL_NS: usize = 4;

/// Where a counter name lives in the block.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Counter(Counter),
    /// A kind's totals and a position in its [`SpanTotals`].
    Span(SpanKind, usize),
}

/// The one name table: every counter and span total, sorted by name (the
/// lookup binary-searches it).
#[rustfmt::skip]
static NAMES: [(&str, Slot); 74] = [
    ("attack.attempts", Slot::Counter(Counter::AttackAttempts)),
    ("attack.no_response", Slot::Counter(Counter::AttackNoResponse)),
    ("attack.rejected", Slot::Counter(Counter::AttackRejected)),
    ("attack.sniffer_lost", Slot::Counter(Counter::AttackSnifferLost)),
    ("attack.sniffer_sync", Slot::Counter(Counter::AttackSnifferSync)),
    ("attack.success", Slot::Counter(Counter::AttackSuccess)),
    ("attack.takeover", Slot::Counter(Counter::AttackTakeover)),
    ("detector.alerts", Slot::Counter(Counter::DetectorAlerts)),
    ("fault.bursts", Slot::Counter(Counter::FaultBursts)),
    ("fault.episodes", Slot::Counter(Counter::FaultEpisodes)),
    ("fault.frames_corrupted", Slot::Counter(Counter::FaultFramesCorrupted)),
    ("fault.frames_lost", Slot::Counter(Counter::FaultFramesLost)),
    ("host.conn_established", Slot::Counter(Counter::HostConnEstablished)),
    ("host.conn_released", Slot::Counter(Counter::HostConnReleased)),
    ("host.pool_exhausted", Slot::Counter(Counter::HostPoolExhausted)),
    ("host.slot_denied", Slot::Counter(Counter::HostSlotDenied)),
    ("link.anchor", Slot::Counter(Counter::LinkAnchor)),
    ("link.connected", Slot::Counter(Counter::LinkConnected)),
    ("link.control_pdu", Slot::Counter(Counter::LinkControlPdu)),
    ("link.crc_fail", Slot::Counter(Counter::LinkCrcFail)),
    ("link.disconnect", Slot::Counter(Counter::LinkDisconnect)),
    ("link.hop", Slot::Counter(Counter::LinkHop)),
    ("link.sn_nesn", Slot::Counter(Counter::LinkSnNesn)),
    ("link.window_open", Slot::Counter(Counter::LinkWindowOpen)),
    ("phy.collision", Slot::Counter(Counter::PhyCollision)),
    ("phy.interference_spill", Slot::Counter(Counter::PhyInterferenceSpill)),
    ("phy.relock", Slot::Counter(Counter::PhyRelock)),
    ("phy.rx", Slot::Counter(Counter::PhyRx)),
    ("phy.rx_crc_bad", Slot::Counter(Counter::PhyRxCrcBad)),
    ("phy.rx_lock", Slot::Counter(Counter::PhyRxLock)),
    ("phy.tx", Slot::Counter(Counter::PhyTx)),
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
];

fn slot(name: &str) -> Option<Slot> {
    let i = NAMES.binary_search_by(|(n, _)| (*n).cmp(name)).ok()?;
    NAMES.get(i).map(|(_, slot)| *slot)
}

/// The world's metrics: one fixed-layout block of counters, span totals
/// and histograms, filled by [`MetricsRegistry::tally`] and read by
/// [`Counter`], [`SpanKind`] and [`Hist`], or a counter by name.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    counters: [u64; COUNTERS],
    spans: [SpanTotals; SpanKind::ALL.len()],
    histograms: [HistogramUs; HISTS],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: [0; COUNTERS],
            spans: [[0; 5]; SpanKind::ALL.len()],
            histograms: [HistogramUs::default(); HISTS],
        }
    }
}

/// Shared handle to a registry: a world's [`crate::Telemetry`] publishes
/// its block here on flush, and the caller reads it. Thread-safe so that
/// a world holding it stays [`Send`].
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

    /// A counter (or `span.*` total) by name; 0 for a name outside the
    /// table.
    pub fn counter(&self, name: &str) -> u64 {
        match slot(name) {
            Some(Slot::Counter(c)) => self.get(c),
            Some(Slot::Span(kind, i)) => self.span_totals(kind).get(i).copied().unwrap_or(0),
            None => 0,
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

    /// A histogram, if any observation was recorded.
    pub fn hist(&self, hist: Hist) -> Option<&HistogramUs> {
        self.histograms.get(hist.index()).filter(|h| !h.is_empty())
    }

    /// Tallies one event: `telemetry.events`, plus the counter, span
    /// totals or histogram the event maps to.
    ///
    /// The event→metric mapping is this one exhaustive match (xtask R4):
    /// adding a [`TelemetryEvent`] variant forces a decision here about
    /// how it is counted. It is always inlined, so an emit site that
    /// builds a known variant compiles to that variant's slot updates.
    #[inline(always)]
    pub fn tally(&mut self, event: &TelemetryEvent) {
        self.bump(Counter::TelemetryEvents);
        match event {
            TelemetryEvent::NodeAdded { .. } => self.bump(Counter::SimNodes),
            TelemetryEvent::TxStart { .. } => self.bump(Counter::PhyTx),
            TelemetryEvent::TxEnd => {}
            TelemetryEvent::RxLock { .. } => self.bump(Counter::PhyRxLock),
            TelemetryEvent::Relock { .. } => self.bump(Counter::PhyRelock),
            TelemetryEvent::RxEnd { crc_ok, .. } => {
                self.bump(Counter::PhyRx);
                if !crc_ok {
                    self.bump(Counter::PhyRxCrcBad);
                }
            }
            TelemetryEvent::Collision { .. } => self.bump(Counter::PhyCollision),
            TelemetryEvent::InterferenceSpill { .. } => self.bump(Counter::PhyInterferenceSpill),
            TelemetryEvent::Anchor { .. } => self.bump(Counter::LinkAnchor),
            TelemetryEvent::WindowOpen { widening, .. } => {
                self.bump(Counter::LinkWindowOpen);
                self.record(Hist::WideningUs, widening.as_micros_f64());
            }
            TelemetryEvent::Hop { .. } => self.bump(Counter::LinkHop),
            TelemetryEvent::SnNesn { .. } => self.bump(Counter::LinkSnNesn),
            TelemetryEvent::CrcFail { .. } => self.bump(Counter::LinkCrcFail),
            TelemetryEvent::LlControl { .. } => self.bump(Counter::LinkControlPdu),
            TelemetryEvent::ConnectionEstablished { .. } => self.bump(Counter::LinkConnected),
            TelemetryEvent::ConnectionClosed { .. } => self.bump(Counter::LinkDisconnect),
            TelemetryEvent::SnifferSync { .. } => self.bump(Counter::AttackSnifferSync),
            TelemetryEvent::SnifferLost { .. } => self.bump(Counter::AttackSnifferLost),
            TelemetryEvent::InjectionAttempt { lead, .. } => {
                self.bump(Counter::AttackAttempts);
                self.record(Hist::LeadUs, lead.as_micros_f64());
            }
            TelemetryEvent::HeuristicVerdict { verdict, .. } => self.bump(match verdict {
                Verdict::Success => Counter::AttackSuccess,
                Verdict::Rejected => Counter::AttackRejected,
                Verdict::NoResponse => Counter::AttackNoResponse,
            }),
            TelemetryEvent::AnchorPrediction { error_us } => {
                self.record(Hist::AnchorErrorUs, *error_us);
            }
            TelemetryEvent::IfsDelta { delta_us } => self.record(Hist::IfsDeltaUs, *delta_us),
            TelemetryEvent::Takeover { .. } => self.bump(Counter::AttackTakeover),
            TelemetryEvent::ResyncFailed { .. } => {}
            TelemetryEvent::DetectorAlert { magnitude_us, .. } => {
                self.bump(Counter::DetectorAlerts);
                self.record(Hist::DetectorMagnitudeUs, *magnitude_us);
            }
            TelemetryEvent::PoolExhausted { .. } => self.bump(Counter::HostPoolExhausted),
            TelemetryEvent::SlotDenied => self.bump(Counter::HostSlotDenied),
            TelemetryEvent::ConnEstablished { .. } => self.bump(Counter::HostConnEstablished),
            TelemetryEvent::ConnReleased { .. } => self.bump(Counter::HostConnReleased),
            TelemetryEvent::PoolHighWater { .. } => {}
            TelemetryEvent::FaultBurst { active, .. } => {
                if *active {
                    self.bump(Counter::FaultBursts);
                }
            }
            TelemetryEvent::FaultEpisode { active, .. } => {
                if *active {
                    self.bump(Counter::FaultEpisodes);
                }
            }
            TelemetryEvent::FaultFrame { kind, .. } => self.bump(match kind {
                FaultKind::Loss => Counter::FaultFramesLost,
                FaultKind::Corruption => Counter::FaultFramesCorrupted,
                // Burst/fading/drift faults are episodic, not per-frame; a
                // mislabelled frame event still counts as a lost frame.
                FaultKind::Interference | FaultKind::Fading | FaultKind::Drift => {
                    Counter::FaultFramesLost
                }
            }),
            TelemetryEvent::SpanEnter { .. } => self.bump(Counter::SpanEnters),
            TelemetryEvent::SpanExit {
                kind,
                sim_ns,
                wall_ns,
                self_sim_ns,
                self_wall_ns,
                ..
            } => self.add_span(*kind, [1, *sim_ns, *self_sim_ns, *wall_ns, *self_wall_ns]),
        }
    }

    /// Publishes a block's tallies into this registry and empties the
    /// block: counters and span totals add and histograms merge, and then
    /// `block` reads as a new registry.
    pub(crate) fn absorb(&mut self, block: &mut MetricsRegistry) {
        let mine = self
            .counters
            .iter_mut()
            .chain(self.spans.iter_mut().flatten());
        let theirs = block.counters.iter().chain(block.spans.iter().flatten());
        for (m, t) in mine.zip(theirs) {
            *m = m.saturating_add(*t);
        }
        for (mine, theirs) in self.histograms.iter_mut().zip(&block.histograms) {
            mine.merge(theirs);
        }
        *block = MetricsRegistry::default();
    }

    /// Counts `n` [`TelemetryEvent::NodeAdded`] records, as `n` calls of
    /// [`MetricsRegistry::tally`] would, without building them.
    pub fn tally_nodes_added(&mut self, n: u64) {
        self.add(Counter::TelemetryEvents, n);
        self.add(Counter::SimNodes, n);
    }

    #[inline]
    fn bump(&mut self, counter: Counter) {
        self.add(counter, 1);
    }

    #[inline]
    fn add(&mut self, counter: Counter, n: u64) {
        if let Some(c) = self.counters.get_mut(counter.index()) {
            *c = c.saturating_add(n);
        }
    }

    #[inline]
    fn add_span(&mut self, kind: SpanKind, totals: SpanTotals) {
        if let Some(mine) = self.spans.get_mut(kind.index()) {
            for (m, t) in mine.iter_mut().zip(totals) {
                *m = m.saturating_add(t);
            }
        }
    }

    #[inline]
    fn record(&mut self, hist: Hist, value_us: f64) {
        if let Some(h) = self.histograms.get_mut(hist.index()) {
            h.record(value_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{Telemetry, TelemetryRecord};
    use simkit::{Duration, Instant};

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        let mut h = HistogramUs::default();
        h.record(0.5); // boundary: [.., 0.5]
        h.record(0.500_001); // lands in (0.5, 1.0]
        h.record(1.0); // boundary: (0.5, 1.0]
        h.record(50_000.0); // boundary: the last bound's bucket
        h.record(50_000.001); // overflow
        let mut expected = [0; BOUNDS_US.len() + 1];
        expected[0] = 1;
        expected[1] = 2;
        expected[BOUNDS_US.len() - 1] = 1;
        expected[BOUNDS_US.len()] = 1;
        assert_eq!(h.bucket_counts(), &expected);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn negative_values_record_their_magnitude() {
        let mut h = HistogramUs::default();
        h.record(-3.0);
        h.record(-30.0);
        let bucket = |bound: f64| BOUNDS_US.iter().position(|b| *b == bound).unwrap();
        assert_eq!(h.bucket_counts()[bucket(5.0)], 1);
        assert_eq!(h.bucket_counts()[bucket(50.0)], 1);
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
        let mut h = HistogramUs::default();
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
        h.record(77_000.0);
        assert_eq!(h.quantile(1.0), 77_000.0);
    }

    #[test]
    fn merge_adds_counts_and_keeps_the_extremes() {
        let mut a = HistogramUs::default();
        let mut b = HistogramUs::default();
        a.record(0.5);
        b.record(1.5);
        b.record(90_000.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket_counts().iter().sum::<u64>(), 3);
        assert_eq!((a.min_value(), a.max_value()), (0.5, 90_000.0));
        // An empty histogram is the merge's identity, bit for bit.
        let before = a;
        a.merge(&HistogramUs::default());
        assert_eq!(a.sum().to_bits(), before.sum().to_bits());
        assert_eq!(a, before);
    }

    #[test]
    fn from_parts_round_trips_a_populated_histogram() {
        let mut h = HistogramUs::default();
        h.record(0.5);
        h.record(7.0);
        h.record(250_000.0);
        let parts = |h: &HistogramUs| {
            HistogramUs::from_parts(
                *h.bucket_counts(),
                h.count(),
                h.sum(),
                h.min_value(),
                h.max_value(),
            )
        };
        let rebuilt = parts(&h).expect("consistent parts");
        assert_eq!(rebuilt, h);
        assert_eq!(parts(&HistogramUs::default()), Some(HistogramUs::default()));
        // A merge after the round-trip behaves like a merge before it.
        let (mut a, mut b) = (h, rebuilt);
        a.merge(&h);
        b.merge(&h);
        assert_eq!(a, b);
    }

    #[test]
    fn from_parts_rejects_states_no_recording_reaches() {
        let mut one = [0; BOUNDS_US.len() + 1];
        one[3] = 1;
        let none = [0; BOUNDS_US.len() + 1];
        let inf = f64::INFINITY;
        assert!(HistogramUs::from_parts(one, 1, 4.0, 4.0, 4.0).is_some());
        // Bucket counts that disagree with `count`.
        assert!(HistogramUs::from_parts(one, 2, 4.0, 4.0, 4.0).is_none());
        // A sum or max that is not finite: a `NaN` mean is not JSON.
        assert!(HistogramUs::from_parts(one, 1, f64::NAN, 4.0, 4.0).is_none());
        assert!(HistogramUs::from_parts(one, 1, inf, 4.0, 4.0).is_none());
        assert!(HistogramUs::from_parts(one, 1, 4.0, 4.0, inf).is_none());
        assert!(HistogramUs::from_parts(one, 1, 4.0, 4.0, f64::NAN).is_none());
        // A recorded histogram's min is finite and no greater than its max.
        assert!(HistogramUs::from_parts(one, 1, 4.0, inf, 4.0).is_none());
        assert!(HistogramUs::from_parts(one, 1, 4.0, f64::NAN, 4.0).is_none());
        assert!(HistogramUs::from_parts(one, 1, 4.0, 5.0, 4.0).is_none());
        // An empty one's min is +∞.
        assert!(HistogramUs::from_parts(none, 0, 0.0, inf, 0.0).is_some());
        assert!(HistogramUs::from_parts(none, 0, 0.0, 0.0, 0.0).is_none());
        assert!(HistogramUs::from_parts(none, 0, 0.0, f64::NAN, 0.0).is_none());
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        for _ in 0..3 {
            r.tally(&TelemetryEvent::TxStart {
                channel: 1,
                access_address: 0x1,
                pdu_len: 2,
                end: Instant::ZERO,
            });
        }
        assert_eq!(r.counter("phy.tx"), 3);
        assert_eq!(r.get(Counter::PhyTx), 3);
        assert_eq!(r.counter("missing"), 0);
        r.tally(&TelemetryEvent::InjectionAttempt {
            channel: 3,
            lead: Duration::from_micros(3),
        });
        assert_eq!(r.hist(Hist::LeadUs).map(HistogramUs::count), Some(1));
        assert_eq!(r.get(Counter::TelemetryEvents), 4);
        // The registry keeps no gauges: a pool's high-water mark is a trace
        // record only, counted as an event and nothing else.
        r.tally(&TelemetryEvent::PoolHighWater { in_use: 9 });
        assert_eq!(r.counter("host.pool_high_water"), 0);
        assert_eq!(r.get(Counter::TelemetryEvents), 5);
        // A histogram name is not a counter name.
        assert_eq!(r.counter("attack.lead_us"), 0);
    }

    #[test]
    fn nodes_added_count_as_their_tallied_records_would() {
        let mut tallied = MetricsRegistry::new();
        for label in ["phone", "bulb", "attacker"] {
            tallied.tally(&TelemetryEvent::NodeAdded {
                label: label.into(),
            });
        }
        let mut counted = MetricsRegistry::new();
        counted.tally_nodes_added(3);
        for name in ["sim.nodes", "telemetry.events"] {
            assert_eq!(counted.counter(name), 3, "{name}");
            assert_eq!(counted.counter(name), tallied.counter(name), "{name}");
        }
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let mut r = MetricsRegistry::new();
        r.counters[Counter::PhyTx.index()] = u64::MAX - 1;
        for _ in 0..5 {
            r.tally(&TelemetryEvent::TxStart {
                channel: 1,
                access_address: 0x1,
                pdu_len: 2,
                end: Instant::ZERO,
            });
        }
        assert_eq!(r.counter("phy.tx"), u64::MAX);
        let mut published = MetricsRegistry::new();
        published.absorb(&mut r.clone());
        published.absorb(&mut r);
        assert_eq!(published.get(Counter::PhyTx), u64::MAX);
    }

    /// A world's telemetry with the metrics block on, fed `records`.
    fn telemetry_fed(records: &[TelemetryRecord]) -> (Telemetry, SharedRegistry) {
        let mut t = Telemetry::default();
        let reg = t.enable_metrics(0);
        for record in records {
            t.emit_record(record);
        }
        (t, reg)
    }

    fn at(us: u64, event: TelemetryEvent) -> TelemetryRecord {
        TelemetryRecord {
            at: Instant::from_micros(us),
            node: Some(0),
            event,
        }
    }

    #[test]
    fn sink_classifies_events() {
        let (mut t, reg) = telemetry_fed(&[
            at(
                10,
                TelemetryEvent::InjectionAttempt {
                    channel: 3,
                    lead: Duration::from_micros(40),
                },
            ),
            at(
                10,
                TelemetryEvent::HeuristicVerdict {
                    verdict: Verdict::Success,
                    attempts_total: 1,
                },
            ),
            at(10, TelemetryEvent::AnchorPrediction { error_us: -2.0 }),
            at(
                10,
                TelemetryEvent::RxEnd {
                    channel: 1,
                    access_address: 0x1,
                    crc_ok: false,
                    interferers: 1,
                },
            ),
        ]);
        // Tallies stay in the world's block until the world flushes.
        assert_eq!(reg.lock().counter("telemetry.events"), 0);
        t.flush_at(Instant::ZERO);
        let reg = reg.lock();
        assert_eq!(reg.counter("telemetry.events"), 4);
        assert_eq!(reg.counter("attack.attempts"), 1);
        assert_eq!(reg.counter("attack.success"), 1);
        assert_eq!(reg.counter("phy.rx_crc_bad"), 1);
        assert_eq!(reg.hist(Hist::LeadUs).map(HistogramUs::count), Some(1));
        assert_eq!(
            reg.hist(Hist::AnchorErrorUs).map(HistogramUs::count),
            Some(1)
        );
    }

    #[test]
    fn span_exits_fold_into_kind_scoped_counters() {
        let mut r = MetricsRegistry::new();
        r.tally(&TelemetryEvent::SpanEnter {
            id: 1,
            kind: SpanKind::TrialSync,
            detail: 0,
        });
        r.tally(&TelemetryEvent::SpanExit {
            id: 1,
            kind: SpanKind::TrialSync,
            detail: 0,
            sim_ns: 8_000,
            wall_ns: 120,
            self_sim_ns: 6_000,
            self_wall_ns: 100,
        });
        assert_eq!(r.counter("span.enters"), 1);
        assert_eq!(r.counter("span.trial_sync.count"), 1);
        assert_eq!(r.counter("span.trial_sync.sim_ns"), 8_000);
        assert_eq!(r.counter("span.trial_sync.self_sim_ns"), 6_000);
        assert_eq!(r.counter("span.trial_sync.wall_ns"), 120);
        assert_eq!(r.counter("span.trial_sync.self_wall_ns"), 100);
        assert_eq!(r.counter("span.trial_follow.count"), 0);
    }

    #[test]
    fn repeated_flushes_do_not_double_count() {
        let (mut t, reg) =
            telemetry_fed(&[at(1, TelemetryEvent::AnchorPrediction { error_us: 2.0 })]);
        t.flush_at(Instant::ZERO);
        t.flush_at(Instant::ZERO);
        let reg = reg.lock();
        assert_eq!(reg.counter("telemetry.events"), 1);
        assert_eq!(
            reg.hist(Hist::AnchorErrorUs).map(HistogramUs::count),
            Some(1)
        );
    }

    /// Every counter name, as the string-keyed registry's fold listed
    /// them.
    const SINK_COUNTERS: [&str; 34] = [
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

    #[test]
    fn every_name_the_sink_writes_resolves_to_its_own_slot() {
        // An unknown name reads 0, so a typo in the table would silently
        // zero a metric. Give every slot a distinct value and read each
        // name back: a missing name reads 0 and two names sharing a slot
        // read the same value.
        let mut r = MetricsRegistry::new();
        for (value, c) in (1u64..).zip(r.counters.iter_mut()) {
            *c = value;
        }
        for (value, c) in (100u64..).zip(r.spans.iter_mut().flatten()) {
            *c = value;
        }
        let mut seen: Vec<u64> = SINK_COUNTERS.iter().map(|n| r.counter(n)).collect();
        for kind in SpanKind::ALL {
            let n = kind.metric_names();
            let by_name = [n.count, n.sim_ns, n.self_sim_ns, n.wall_ns, n.self_wall_ns]
                .map(|name| r.counter(name));
            assert_eq!(r.span_totals(kind), by_name, "{}", kind.as_str());
            seen.extend(by_name);
        }
        assert!(seen.iter().all(|&v| v != 0), "{seen:?}");
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            NAMES.len(),
            "the table holds exactly these names"
        );
        for name in TRACE_TRIAL_COUNTERS {
            assert!(SINK_COUNTERS.contains(&name), "{name}");
        }
        // `Counter` is declared in name order, so a counter's slot is its
        // rank among the table's counter names.
        let counter_names = NAMES
            .iter()
            .filter(|(_, slot)| matches!(slot, Slot::Counter(_)))
            .map(|(name, _)| *name);
        for (value, name) in (1u64..).zip(counter_names) {
            assert_eq!(r.counter(name), value, "{name}");
        }
        // The lookup binary-searches the table.
        assert!(NAMES.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(r.counter("phy.tx_typo"), 0);
    }

    /// A varied event stream: counters, span totals and three histograms.
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
                at(u64::from(i), event)
            })
            .collect()
    }

    /// The published registry of a world fed each stream in turn, flushing
    /// after each.
    fn fed(streams: &[&[TelemetryRecord]]) -> MetricsRegistry {
        let (mut t, reg) = telemetry_fed(&[]);
        for stream in streams {
            for record in *stream {
                t.emit_record(record);
            }
            t.flush_at(Instant::ZERO);
        }
        let r = reg.lock().clone();
        r
    }

    #[test]
    fn merging_two_registries_matches_one_fed_both_streams() {
        // Two flushes into one handle: the second merges into histograms
        // the first filled. It must match one flush of both streams.
        let (a, b) = (stream(3), stream(11));
        let merged = fed(&[&a, &b]);
        let both: Vec<TelemetryRecord> = a.iter().chain(&b).cloned().collect();
        let once = fed(&[&both]);
        assert_eq!(merged.counters, once.counters);
        assert_eq!(merged.spans, once.spans);
        let counts = |r: &MetricsRegistry| r.histograms.map(|h| (h.count(), *h.bucket_counts()));
        assert_eq!(counts(&merged), counts(&once));
        assert_eq!(once.histograms.iter().filter(|h| !h.is_empty()).count(), 3);
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
        fresh.merge(&expected);
        let r = fed(&[&records]);
        let moved = r.hist(Hist::AnchorErrorUs).expect("recorded");
        assert_eq!(moved, &fresh);
        assert_eq!(moved.sum().to_bits(), expected.sum().to_bits());
        assert_eq!(moved.min_value().to_bits(), expected.min_value().to_bits());
        assert_eq!(moved.max_value().to_bits(), expected.max_value().to_bits());
        // Nothing recorded reads as no histogram.
        assert!(r.hist(Hist::DetectorMagnitudeUs).is_none());
    }
}
