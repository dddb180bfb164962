//! PHY-side interpreter for [`simkit::FaultPlan`]s.
//!
//! [`FaultState`] is the medium's resident copy of an installed plan: it
//! owns the plan, a **private** RNG seeded from [`FaultPlan::seed`] and the
//! label→node resolution for drift excursions.
//!
//! Episode boundaries reach telemetry as *edges* read lazily from the plan:
//! [`FaultState::edge`] computes edge `n` of a plan item arithmetically, and
//! the medium keeps at most one pending queue event per item, scheduling
//! edge `n + 1` only when edge `n` fires. A burst train of any length costs
//! one queue slot and no memory per window.
//!
//! Determinism contract (see the `simkit::fault` module docs): the fault
//! layer never draws from the world or node RNG streams, and when no plan
//! is installed every query here is a single branch on [`FaultState::enabled`]
//! — no draws, no allocation, no scheduled events.

use ble_telemetry::{FaultKind, TelemetryEvent};
use simkit::{Duration, FaultPlan, Instant, SimRng};

use crate::radio::NodeId;

/// The installed fault plan plus its private RNG and resolved drift targets.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: SimRng,
    /// Drift excursions resolved to node ids: `(node, index into plan.drift)`.
    drift_targets: Vec<(NodeId, usize)>,
    enabled: bool,
}

impl FaultState {
    /// The no-plan state: every hot-path query is one branch.
    pub(crate) fn disabled() -> FaultState {
        FaultState {
            plan: FaultPlan::default(),
            rng: SimRng::seed_from(0),
            drift_targets: Vec::new(),
            enabled: false,
        }
    }

    /// Builds the resident state for `plan`. `resolve` maps a node label to
    /// its id (drift excursions naming unknown labels are ignored).
    pub(crate) fn install(plan: FaultPlan, resolve: impl Fn(&str) -> Option<NodeId>) -> FaultState {
        let enabled = !plan.is_empty();
        let rng = SimRng::seed_from(plan.seed);
        let drift_targets = plan
            .drift
            .iter()
            .enumerate()
            .filter_map(|(i, d)| Some((resolve(&d.node_label)?, i)))
            .collect();
        FaultState {
            plan,
            rng,
            drift_targets,
            enabled,
        }
    }

    /// Number of plan items with telemetry edges: resolved drift
    /// excursions, then fading episodes, then burst trains — the item
    /// numbering [`FaultState::edge`] uses.
    pub(crate) fn item_count(&self) -> usize {
        self.drift_targets.len() + self.plan.fading.len() + self.plan.bursts.len()
    }

    /// Edge `n` of plan item `item`: when it fires, the node it is
    /// attributed to, and the telemetry it emits. `None` once the item has
    /// no edge `n`.
    ///
    /// Even edges open an episode and odd edges close it. A drift excursion
    /// or fading episode has exactly two edges; a burst train's edge `2k`
    /// opens window `k` at [`simkit::InterferenceBurst::window_start`] and
    /// edge `2k + 1` closes it `on_time` later (a zero-period train is a
    /// single window, as in its overlap arithmetic). Edges of one item are
    /// non-decreasing in time as long as the train's `period ≥ on_time`.
    pub(crate) fn edge(
        &self,
        item: usize,
        n: u64,
    ) -> Option<(Instant, Option<NodeId>, TelemetryEvent)> {
        let active = n.is_multiple_of(2);
        let two_edges = |from: Instant, until: Instant| match n {
            0 => Some(from),
            1 => Some(until),
            _ => None,
        };
        if let Some(&(node, idx)) = self.drift_targets.get(item) {
            let d = self.plan.drift.get(idx)?;
            let event = TelemetryEvent::FaultEpisode {
                kind: FaultKind::Drift,
                magnitude: d.extra_ppm,
                active,
            };
            return Some((two_edges(d.from, d.until)?, Some(node), event));
        }
        let item = item.checked_sub(self.drift_targets.len())?;
        if let Some(f) = self.plan.fading.get(item) {
            let event = TelemetryEvent::FaultEpisode {
                kind: FaultKind::Fading,
                magnitude: f.extra_loss_db,
                active,
            };
            return Some((two_edges(f.from, f.until)?, None, event));
        }
        let b = self
            .plan
            .bursts
            .get(item.checked_sub(self.plan.fading.len())?)?;
        let k = u32::try_from(n / 2).ok()?;
        if k > 0 && b.period.is_zero() {
            return None;
        }
        let start = b.window_start(k)?;
        let at = if active {
            start
        } else {
            start.saturating_add(b.on_time)
        };
        let event = TelemetryEvent::FaultBurst {
            channel: b.channel,
            power_dbm: b.power_dbm,
            active,
        };
        Some((at, None, event))
    }

    /// Whether any impairment is installed. Hot paths gate on this before
    /// touching anything else.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether a frame arriving on `channel` at `at` is sacrificed to a
    /// loss rule (receiver never achieves sync). Draws from the fault RNG
    /// once per applicable rule.
    pub(crate) fn draw_loss(&mut self, at: Instant, channel: u8) -> bool {
        let mut lost = false;
        for rule in &self.plan.losses {
            if rule.applies(at, channel) && self.rng.chance(rule.loss_prob) {
                lost = true;
            }
        }
        lost
    }

    /// Whether a frame delivered on `channel` at `at` is corrupted by a
    /// loss rule (bit errors, CRC failure). Draws from the fault RNG once
    /// per applicable rule.
    pub(crate) fn draw_corruption(&mut self, at: Instant, channel: u8) -> bool {
        let mut corrupted = false;
        for rule in &self.plan.losses {
            if rule.applies(at, channel) && self.rng.chance(rule.corrupt_prob) {
                corrupted = true;
            }
        }
        corrupted
    }

    /// Burst interference overlapping a locked reception `[start, end]` on
    /// `channel`: `(power_dbm, overlap)` per active burst train.
    pub(crate) fn burst_interference(
        &self,
        channel: u8,
        start: Instant,
        end: Instant,
        mut push: impl FnMut(f64, Duration),
    ) {
        for b in &self.plan.bursts {
            if b.channel != channel {
                continue;
            }
            let overlap = b.overlap_with(start, end);
            if !overlap.is_zero() {
                push(b.power_dbm, overlap);
            }
        }
    }

    /// Total extra attenuation from fading episodes active at `at`, in dB.
    pub(crate) fn fading_db(&self, at: Instant) -> f64 {
        self.plan.fading_db_at(at)
    }

    /// Applies any drift excursion active on `node` at `at` to a locally
    /// timed delay: the delay is stretched by `extra_ppm` parts-per-million
    /// (shrunk for negative ppm).
    pub(crate) fn drift_adjusted(&self, node: NodeId, at: Instant, delay: Duration) -> Duration {
        let mut ppm = 0.0f64;
        for (target, idx) in &self.drift_targets {
            if *target != node {
                continue;
            }
            if let Some(d) = self.plan.drift.get(*idx) {
                if d.active_at(at) {
                    ppm += d.extra_ppm;
                }
            }
        }
        if ppm == 0.0 {
            delay
        } else {
            delay.mul_f64(1.0 + ppm * 1e-6)
        }
    }
}
