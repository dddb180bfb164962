//! Spans recorded by the replica around each call into a layer.
//!
//! A trial is one root span (`trial`) whose children cover it end to end:
//! `build` (the scenario builder, fault install included), then `connect`,
//! `sync` and `attack` (the `run_for` loops, each attributed to what it
//! waits on; consecutive calls of one phase merge into one span), then
//! `fold` (verdict, metric flush, accumulator fold). Every span carries the
//! trial seed as its id.
//!
//! A timed probe reads the wall clock at span boundaries only. A counting
//! probe instead snapshots public counters there: the medium's delivery
//! totals, the attacker's attempt count and the harness's own bounce and
//! restart tallies, plus, on the root span, the trial's metrics registry.

use ble_scenario::Scenario;

/// A child span's phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `ScenarioBuilder::build`.
    Build,
    /// `run_for` while the victim connection is not up yet.
    Connect,
    /// `run_for` while the attacker is not following yet.
    Sync,
    /// `run_for` in the armed attack loop.
    Attack,
    /// Verdict, telemetry flush and accumulator fold.
    Fold,
}

impl Phase {
    /// Every phase, in trial order.
    pub const ALL: [Phase; 5] = [
        Phase::Build,
        Phase::Connect,
        Phase::Sync,
        Phase::Attack,
        Phase::Fold,
    ];

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::Connect => "connect",
            Phase::Sync => "sync",
            Phase::Attack => "attack",
            Phase::Fold => "fold",
        }
    }

    /// Whether the phase steps the world.
    pub fn steps(self) -> bool {
        matches!(self, Phase::Connect | Phase::Sync | Phase::Attack)
    }
}

/// Counters snapshotted at every span boundary of a counting probe.
pub const SPAN_COUNTERS: [&str; 7] = [
    "medium.tx_frames",
    "medium.scheduled_rx_starts",
    "medium.culled_unreachable",
    "medium.frames_delivered",
    "attack.attempts",
    "harness.bounces",
    "harness.resync_restarts",
];

/// Metrics-registry counters read once per trial, after the fold's flush.
pub const TRIAL_COUNTERS: [&str; 16] = [
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

/// Index of a name in [`SPAN_COUNTERS`] (panics on a typo at first use).
pub fn span_counter(name: &str) -> usize {
    SPAN_COUNTERS
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("no span counter {name}"))
}

/// Index of a name in [`TRIAL_COUNTERS`].
pub fn trial_counter(name: &str) -> usize {
    TRIAL_COUNTERS
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("no trial counter {name}"))
}

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The trial's seed: the id every span of the trial shares.
    pub trial: u64,
    /// Index of the sweep point.
    pub point: usize,
    /// `None` for the root `trial` span.
    pub phase: Option<Phase>,
    /// Wall-clock start (ns, process-local epoch; 0 when not timed).
    pub start_ns: u64,
    /// Wall-clock duration (ns; 0 when not timed).
    pub wall_ns: u64,
    /// Simulated time covered (ns).
    pub sim_ns: u64,
    /// `run_for` calls inside the span.
    pub calls: u32,
    /// [`SPAN_COUNTERS`] deltas (zero when not counting).
    pub counts: [u64; SPAN_COUNTERS.len()],
}

#[derive(Debug)]
struct Open {
    span: Span,
    sim_at: u64,
    counts_at: [u64; SPAN_COUNTERS.len()],
}

/// Records the spans of a replica pass.
#[derive(Debug)]
pub struct Probe {
    timed: bool,
    counting: bool,
    /// Closed spans, in close order (a trial's children, then its root).
    pub spans: Vec<Span>,
    /// [`TRIAL_COUNTERS`] per trial, in trial order (counting probes).
    pub trial_counts: Vec<[u64; TRIAL_COUNTERS.len()]>,
    /// Largest VmRSS growth across a point's first build (kB; counting
    /// probes).
    pub world_kb: u64,
    root: Option<Open>,
    child: Option<Open>,
    harness: [u64; 2],
    rss_before_kb: Option<u64>,
}

impl Probe {
    /// A probe that records nothing: the untraced replica.
    pub fn off() -> Probe {
        Probe::new(false, false)
    }

    /// A probe reading the wall clock at span boundaries.
    pub fn timed() -> Probe {
        Probe::new(true, false)
    }

    /// A probe snapshotting counters at span boundaries.
    pub fn counting() -> Probe {
        Probe::new(false, true)
    }

    fn new(timed: bool, counting: bool) -> Probe {
        Probe {
            timed,
            counting,
            spans: Vec::new(),
            trial_counts: Vec::new(),
            world_kb: 0,
            root: None,
            child: None,
            harness: [0; 2],
            rss_before_kb: None,
        }
    }

    fn on(&self) -> bool {
        self.timed || self.counting
    }

    fn clock(&self) -> u64 {
        if self.timed {
            bench::wallclock::monotonic_ns()
        } else {
            0
        }
    }

    fn snapshot(&self, sc: Option<&Scenario>) -> [u64; SPAN_COUNTERS.len()] {
        let mut c = [0; SPAN_COUNTERS.len()];
        if !self.counting {
            return c;
        }
        if let Some(sc) = sc {
            if let Some(t) = sc.delivery_totals() {
                c[0] = t.tx_frames;
                c[1] = t.scheduled_rx_starts;
                c[2] = t.culled_unreachable;
                c[3] = t.frames_delivered;
            }
            if sc.attacker_id.is_some() {
                c[4] = u64::from(sc.attacker().stats().attempts_total);
            }
        }
        c[5] = self.harness[0];
        c[6] = self.harness[1];
        c
    }

    fn open(&self, trial: u64, point: usize, phase: Option<Phase>, sc: Option<&Scenario>) -> Open {
        let sim_at = sc.map_or(0, |s| s.now().as_nanos());
        Open {
            span: Span {
                trial,
                point,
                phase,
                start_ns: self.clock(),
                wall_ns: 0,
                sim_ns: 0,
                calls: 0,
                counts: [0; SPAN_COUNTERS.len()],
            },
            sim_at,
            counts_at: self.snapshot(sc),
        }
    }

    fn close(&mut self, mut open: Open, sc: Option<&Scenario>) {
        let now = self.clock();
        open.span.wall_ns = now.saturating_sub(open.span.start_ns);
        open.span.sim_ns = sc.map_or(0, |s| s.now().as_nanos()) - open.sim_at;
        let counts = self.snapshot(sc);
        for (d, (a, b)) in open
            .span
            .counts
            .iter_mut()
            .zip(counts.iter().zip(open.counts_at))
        {
            *d = a - b;
        }
        self.spans.push(open.span);
    }

    /// Starts trial `seed` of point `point` and opens its `build` span.
    pub fn begin_trial(&mut self, seed: u64, point: usize, first_of_point: bool) {
        if !self.on() {
            return;
        }
        self.harness = [0; 2];
        if self.counting && first_of_point {
            self.rss_before_kb = vm_rss_kb();
        }
        self.root = Some(self.open(seed, point, None, None));
        self.child = Some(self.open(seed, point, Some(Phase::Build), None));
    }

    /// Moves the trial into `phase`, closing the current span unless it is
    /// already that phase.
    pub fn enter(&mut self, phase: Phase, sc: &Scenario) {
        if !self.on()
            || self
                .child
                .as_ref()
                .is_some_and(|c| c.span.phase == Some(phase))
        {
            return;
        }
        if let Some(child) = self.child.take() {
            // The build span closes at a point's first trial's first
            // boundary: that is where the world's memory shows.
            let after_build = child.span.phase == Some(Phase::Build);
            self.close(child, Some(sc));
            if let Some(before) = self.rss_before_kb.take().filter(|_| after_build) {
                let after = vm_rss_kb().unwrap_or(before);
                self.world_kb = self.world_kb.max(after.saturating_sub(before));
            }
        }
        let (trial, point) = self
            .root
            .as_ref()
            .map_or((0, 0), |r| (r.span.trial, r.span.point));
        self.child = Some(self.open(trial, point, Some(phase), Some(sc)));
    }

    /// One `run_for(d)` call attributed to `phase`.
    pub fn run_for(&mut self, phase: Phase, sc: &mut Scenario, d: simkit::Duration) {
        self.enter(phase, sc);
        sc.run_for(d);
        if let Some(child) = self.child.as_mut() {
            child.span.calls += 1;
        }
    }

    /// The harness bounced the connection.
    pub fn note_bounce(&mut self) {
        self.harness[0] += 1;
    }

    /// The harness restarted the attacker's resync campaign.
    pub fn note_restart(&mut self) {
        self.harness[1] += 1;
    }

    /// Closes the trial: its last child, then the root, which sums its
    /// children's calls and counts. A counting probe then flushes the
    /// metrics sink (the binaries without one never do) and reads the
    /// registry.
    pub fn end_trial(&mut self, sc: &mut Scenario) {
        if !self.on() {
            return;
        }
        if let Some(child) = self.child.take() {
            self.close(child, Some(sc));
        }
        let Some(mut root) = self.root.take() else {
            return;
        };
        root.span.calls = self
            .spans
            .iter()
            .rev()
            .take_while(|s| s.phase.is_some() && s.trial == root.span.trial)
            .map(|s| s.calls)
            .sum();
        self.close(root, Some(sc));
        if self.counting {
            sc.world.flush_telemetry();
            let mut counts = [0; TRIAL_COUNTERS.len()];
            if let Some(reg) = sc.metrics() {
                let reg = reg.lock();
                for (c, name) in counts.iter_mut().zip(TRIAL_COUNTERS) {
                    *c = reg.counter(name);
                }
            }
            self.trial_counts.push(counts);
        }
    }
}

/// Resident set size of this process (kB), from `/proc/self/status`.
pub fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix("VmRSS:")?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    })
}
