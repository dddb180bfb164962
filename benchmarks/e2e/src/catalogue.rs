//! The workloads and the metric names the benchmark declares. The
//! self-tests hold this table and `BENCHMARK.json` to the same names.

/// One sweep point of an experiment binary: the artefact row it writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// The swept parameter's name (the row's `parameter`).
    pub parameter: &'static str,
    /// The swept value (the row's `value`).
    pub value: f64,
    /// What the binary adds to its seed base for this point's trials.
    pub seed_offset: u64,
}

const fn pt(parameter: &'static str, value: f64, seed_offset: u64) -> Point {
    Point {
        parameter,
        value,
        seed_offset,
    }
}

/// One workload: an experiment binary and how much of it a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// The experiment binary it runs.
    pub binary: &'static str,
    /// The binary's own seed base, used when no `--seed` is given.
    pub default_seed: u64,
    /// The artefact rows, in order.
    pub points: &'static [Point],
    /// Trials per point in one timed chunk (about one second of work).
    pub chunk_trials: u64,
    /// Trials per point the traced replica samples.
    pub trace_trials: u64,
    /// Lowest acceptable success fraction over the success window.
    pub success_floor: f64,
}

/// The benchmark's workloads, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig9-sweep",
        binary: "exp1_hop_interval",
        default_seed: 1_000,
        points: &[
            pt("hop_interval", 25.0, 25),
            pt("hop_interval", 50.0, 50),
            pt("hop_interval", 75.0, 75),
            pt("hop_interval", 100.0, 100),
            pt("hop_interval", 125.0, 125),
            pt("hop_interval", 150.0, 150),
        ],
        chunk_trials: 5_000,
        trace_trials: 2_000,
        success_floor: 0.99,
    },
    Workload {
        name: "multi-conn",
        binary: "exp5_multi_conn",
        default_seed: 5_000,
        points: &[
            pt("connections", 1.0, 1),
            pt("connections", 2.0, 2),
            pt("connections", 4.0, 4),
            pt("connections", 8.0, 8),
        ],
        chunk_trials: 50,
        trace_trials: 40,
        success_floor: 0.80,
    },
    Workload {
        name: "dense-band",
        binary: "exp6_dense_band",
        default_seed: 6_000,
        points: &[
            pt("background_pairs", 8.0, 8),
            pt("background_pairs", 32.0, 32),
            pt("background_pairs", 128.0, 128),
            pt("background_pairs", 512.0, 512),
        ],
        chunk_trials: 6,
        trace_trials: 6,
        success_floor: 0.95,
    },
    Workload {
        name: "fault-storm",
        binary: "ablation_faults",
        default_seed: 11_000,
        points: &[
            pt("burst_duty", 0.0, 0),
            pt("burst_duty", 0.2, 1),
            pt("burst_duty", 0.4, 2),
            pt("burst_duty", 0.6, 3),
            pt("burst_duty", 0.8, 4),
            pt("loss_prob", 0.0, 100),
            pt("loss_prob", 0.2, 101),
            pt("loss_prob", 0.35, 102),
            pt("loss_prob", 0.5, 103),
            pt("loss_prob", 0.6, 104),
        ],
        chunk_trials: 100,
        trace_trials: 100,
        success_floor: 0.90,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics: every untraced run prints all of them.
pub const END_TO_END: [Metric; 4] = [
    m("trials_per_s", "trials/s", Higher),
    m("peak_rss_mb", "MB", Lower),
    m("setup_s", "s", Lower),
    m("success_frac", "fraction", Higher),
];

/// Per-layer metrics: every traced run prints all of them.
pub const PER_LAYER: [Metric; 46] = [
    // ble-scenario build + simkit::fault install
    m("scenario.build_us_p50", "us", Lower),
    m("scenario.build_us_p99", "us", Lower),
    m("scenario.world_kb", "kB", Lower),
    m("scenario.nodes", "count", Lower),
    m("phase.build.share", "fraction", Lower),
    m("fault.bursts_per_trial", "count", Lower),
    m("fault.frames_lost_per_trial", "count", Lower),
    m("fault.frames_corrupted_per_trial", "count", Lower),
    // simkit queue + ble-phy World stepping
    m("world.sim_s_per_wall_s", "s/s", Higher),
    m("world.sim_ms_per_trial", "ms", Lower),
    m("world.run_for_calls_per_trial", "count", Lower),
    m("phase.connect.share", "fraction", Lower),
    m("phase.sync.share", "fraction", Lower),
    m("phase.attack.share", "fraction", Lower),
    m("phase.connect.sim_ms", "ms", Lower),
    m("phase.sync.sim_ms", "ms", Lower),
    m("phase.attack.sim_ms", "ms", Lower),
    // ble-phy medium
    m("medium.frames_per_trial", "count", Lower),
    m("medium.rx_starts_per_frame", "count", Lower),
    m("medium.culled_per_frame", "count", Higher),
    m("medium.delivered_per_rx_start", "fraction", Higher),
    m("medium.host_ns_per_frame", "ns", Lower),
    m("phy.collisions_per_frame", "count", Lower),
    // ble-link
    m("link.anchors_per_trial", "count", Lower),
    m("link.crc_fail_per_anchor", "fraction", Lower),
    m("link.disconnects_per_trial", "count", Lower),
    m("link.control_pdus_per_trial", "count", Lower),
    // ble-host + ble-devices
    m("host.conn_established_per_trial", "count", Lower),
    m("host.pool_exhausted_per_trial", "count", Lower),
    m("host.slot_denied_per_trial", "count", Lower),
    // injectable
    m("attack.attempts_per_trial", "count", Lower),
    m("attack.success_per_attempt", "fraction", Higher),
    m("attack.sniffer_lost_per_trial", "count", Lower),
    m("attack.resync_restarts_per_trial", "count", Lower),
    m("attack.bounces_per_trial", "count", Lower),
    // ble-telemetry
    m("telemetry.events_per_trial", "count", Lower),
    m("telemetry.overhead_frac", "fraction", Lower),
    // bench campaign + report
    m("bench.fold_ns_per_trial", "ns", Lower),
    m("bench.outcome_bytes_per_trial", "bytes", Lower),
    m("bench.speedup_2t", "x", Higher),
    m("phase.fold.share", "fraction", Lower),
    // the trace itself
    m("trial.wall_us_p50", "us", Lower),
    m("trial.wall_us_p99", "us", Lower),
    m("trace.samples", "count", Higher),
    m("trace.overhead_frac", "fraction", Lower),
    m("trace.replica_agreement", "fraction", Higher),
];
