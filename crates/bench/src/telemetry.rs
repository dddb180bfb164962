//! Per-trial telemetry capture: sink selection, phase timing and the
//! metric block that rides along in experiment report rows.

use ble_telemetry::{Counter, Hist, HistogramUs, MetricsRegistry, SpanKind, SpanTotals};

pub use ble_scenario::TelemetryMode;

/// Per-phase span attribution: one row per [`SpanKind`] that closed at
/// least once during a trial (or a series, after merging).
///
/// Sim-time fields are deterministic (byte-identical across equally-seeded
/// runs); the wall-clock fields come from the quarantined span clock and
/// are excluded from byte-identity (`cargo xtask gate` neutralises
/// `wall_ns`/`self_wall_ns` like `trials_per_sec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseProfile {
    /// The span kind's wire name (e.g. `"trial-sync"`).
    pub phase: &'static str,
    /// Closed spans of this kind.
    pub count: u64,
    /// Total simulation nanoseconds.
    pub sim_ns: u64,
    /// Simulation nanoseconds net of child spans.
    pub self_sim_ns: u64,
    /// Total wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Wall-clock nanoseconds net of child spans.
    pub self_wall_ns: u64,
}

/// A trial's timing in the registry's own layout: the attacker's two
/// timing histograms and every [`SpanKind`]'s closed-span totals. A
/// series row's block is the merge of its trials' blocks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimingBlock {
    /// Anchor-prediction-error histogram (µs magnitudes, attacker side).
    pub anchor_error: HistogramUs,
    /// Injection lead-time histogram (µs before the predicted anchor).
    pub lead_time: HistogramUs,
    /// Closed-span totals, in [`SpanKind::ALL`] order.
    pub spans: [SpanTotals; SpanKind::ALL.len()],
}

impl TimingBlock {
    /// Copies the block out of a registry.
    pub fn from_registry(reg: &MetricsRegistry) -> Self {
        let hist = |h| reg.hist(h).copied().unwrap_or_default();
        TimingBlock {
            anchor_error: hist(Hist::AnchorErrorUs),
            lead_time: hist(Hist::LeadUs),
            spans: SpanKind::ALL.map(|kind| reg.span_totals(kind)),
        }
    }

    /// Folds another block into this one.
    pub fn merge(&mut self, other: &TimingBlock) {
        self.anchor_error.merge(&other.anchor_error);
        self.lead_time.merge(&other.lead_time);
        let theirs = other.spans.iter().flatten();
        for (mine, theirs) in self.spans.iter_mut().flatten().zip(theirs) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// The phase rows: one per kind that closed a span, in
    /// [`SpanKind::ALL`] order.
    pub fn phase_profile(&self) -> Vec<PhaseProfile> {
        SpanKind::ALL
            .into_iter()
            .zip(self.spans)
            .filter(|(_, [count, ..])| *count != 0)
            .map(
                |(kind, [count, sim_ns, self_sim_ns, wall_ns, self_wall_ns])| PhaseProfile {
                    phase: kind.as_str(),
                    count,
                    sim_ns,
                    self_sim_ns,
                    wall_ns,
                    self_wall_ns,
                },
            )
            .collect()
    }
}

/// Metrics extracted from one trial's registry after the run.
#[derive(Debug, Clone, Default)]
pub struct TrialMetrics {
    /// The trial's histograms and span totals, boxed so that a
    /// [`crate::TrialOutcome`] stays small by value.
    pub timing: Box<TimingBlock>,
    /// Total telemetry events emitted during the trial.
    pub events_total: u64,
    /// Telemetry events per wall-clock second over the whole trial.
    pub events_per_sec: f64,
    /// Experiment-defined per-trial event counts (exp6's band statistics,
    /// the widening ablation's victim drops). A row sums them by name into
    /// [`crate::SeriesReport::counters`]; names are plain identifiers.
    pub counters: Vec<(&'static str, u64)>,
}

impl TrialMetrics {
    /// Builds the per-trial block from a registry snapshot and the two
    /// experiment-phase wall-clock timings, which price `events_per_sec`.
    pub fn from_registry(reg: &MetricsRegistry, sync_wall_s: f64, attack_wall_s: f64) -> Self {
        let events_total = reg.get(Counter::TelemetryEvents);
        let wall = (sync_wall_s + attack_wall_s).max(1e-9);
        TrialMetrics {
            timing: Box::new(TimingBlock::from_registry(reg)),
            events_total,
            events_per_sec: events_total as f64 / wall,
            counters: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use ble_telemetry::TelemetryEvent;
    use simkit::Duration;

    #[test]
    fn trial_metrics_from_registry() {
        let mut reg = MetricsRegistry::new();
        reg.tally(&TelemetryEvent::InjectionAttempt {
            channel: 3,
            lead: Duration::from_micros(36),
        });
        reg.tally(&TelemetryEvent::AnchorPrediction { error_us: 4.0 });
        for _ in 0..498 {
            reg.tally(&TelemetryEvent::TxEnd);
        }
        let m = TrialMetrics::from_registry(&reg, 1.0, 1.0);
        assert_eq!(m.events_total, 500);
        assert!((m.events_per_sec - 250.0).abs() < 1e-9);
        assert_eq!(m.timing.lead_time.count(), 1);
        assert_eq!(m.timing.anchor_error.count(), 1);
    }

    /// The block of a registry that closed one 1 µs span of each kind.
    fn spans_closed(kinds: &[SpanKind]) -> TimingBlock {
        let mut reg = MetricsRegistry::new();
        for &kind in kinds {
            reg.tally(&TelemetryEvent::SpanExit {
                id: 1,
                kind,
                detail: 0,
                sim_ns: 1_000,
                wall_ns: 50,
                self_sim_ns: 800,
                self_wall_ns: 40,
            });
        }
        TimingBlock::from_registry(&reg)
    }

    #[test]
    fn phase_profile_skips_unclosed_kinds_and_merges_by_kind() {
        let block = spans_closed(&[SpanKind::TrialSync]);
        let rows = block.phase_profile();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].phase, "trial-sync");
        assert_eq!(rows[0].sim_ns, 1_000);

        let mut acc = TimingBlock::default();
        acc.merge(&block);
        acc.merge(&block);
        let rows = acc.phase_profile();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].sim_ns, 2_000);
        assert_eq!(rows[0].self_wall_ns, 80);
    }

    #[test]
    fn merged_phase_rows_sort_in_kind_order() {
        // First trial only saw the follow phase; canonical order must not
        // depend on that accident.
        let mut acc = spans_closed(&[SpanKind::TrialFollow]);
        acc.merge(&spans_closed(&[SpanKind::TrialFollow, SpanKind::TrialSync]));
        assert_eq!(
            acc.phase_profile()
                .iter()
                .map(|r| r.phase)
                .collect::<Vec<_>>(),
            vec!["trial-sync", "trial-follow"]
        );
    }
}
