//! `e2e-trace`: the benchmark's traced run, one workload at a time.
//!
//! `e2e run --trace 1` builds and runs this. It samples the
//! first K trials of every sweep point at the workload's seeds and replays
//! them in-process with the binary's recipe (see `recipes.rs`):
//!
//! - a counting pass (metrics sink and delivery tracker on) gives the
//!   deterministic counts;
//! - then, until the time budget is spent, a traced pass and an untraced
//!   pass in the binary's own configuration (their wall-time ratio is the
//!   tracing overhead), an untraced pass with the telemetry setting flipped
//!   (the telemetry overhead), and the binary itself at K trials on one and
//!   on two workers.
//!
//! The spans of the first traced pass, with the counting pass's counts, are
//! written to `target/e2e/trace-<workload>.jsonl`.

mod probe;
mod recipes;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

use bench::trial::trial_seed;
use bench::wallclock::Stopwatch;
use bench::SeriesAccumulator;
use e2e::artefact::check_rows;
use e2e::catalogue::{workload, Workload, PER_LAYER};
use e2e::report::RunResult;
use e2e::run::{same_outcomes, Options};
use e2e::runner::{invoke, work_dir};
use e2e::stats::{median, percentile, ratio};

use probe::{span_counter, trial_counter, Phase, Probe, Span, SPAN_COUNTERS, TRIAL_COUNTERS};
use recipes::{binary_metrics, Setup};

/// Allowed distance of the summed phase shares from 1.
const SHARE_TOLERANCE: f64 = 0.02;

/// `(succeeded, raw attempts)` per sweep point.
type Outcomes = Vec<(u64, Vec<u64>)>;

/// One replay of the sampled trials.
struct Pass {
    wall_s: f64,
    outcomes: Outcomes,
    probe: Probe,
}

fn replay(w: &Workload, base: u64, k: u64, setup: Setup, mut probe: Probe) -> Pass {
    let clock = Stopwatch::start();
    let mut outcomes = Vec::new();
    for (index, point) in w.points.iter().enumerate() {
        let mut acc = SeriesAccumulator::new(k);
        for i in 0..k {
            let seed = trial_seed(base + point.seed_offset, i);
            probe.begin_trial(seed, index, i == 0);
            recipes::trial(
                w.name,
                point.parameter,
                point.value,
                seed,
                setup,
                &mut probe,
                &mut acc,
            );
        }
        let row = acc.report(point.parameter, point.value);
        outcomes.push((
            row.succeeded,
            row.raw.iter().map(|&a| u64::from(a)).collect(),
        ));
    }
    Pass {
        wall_s: clock.elapsed_s(),
        outcomes,
        probe,
    }
}

/// Wall-time sums of the traced passes.
#[derive(Default)]
struct Timing {
    trial_us: Vec<f64>,
    build_us: Vec<f64>,
    /// `[point][phase]` span wall (ns); the last column is the root.
    wall_ns: Vec<[f64; Phase::ALL.len() + 1]>,
    passes: u64,
}

impl Timing {
    fn add(&mut self, spans: &[Span], points: usize) {
        self.wall_ns.resize(points, [0.0; Phase::ALL.len() + 1]);
        for s in spans {
            let col = s.phase.map_or(Phase::ALL.len(), |p| p as usize);
            self.wall_ns[s.point][col] += s.wall_ns as f64;
            match s.phase {
                None => self.trial_us.push(s.wall_ns as f64 / 1e3),
                Some(Phase::Build) => self.build_us.push(s.wall_ns as f64 / 1e3),
                Some(_) => {}
            }
        }
        self.passes += 1;
    }

    fn total(&self, col: usize) -> f64 {
        self.wall_ns.iter().map(|r| r[col]).sum()
    }

    fn share(&self, phase: Phase) -> f64 {
        ratio(self.total(phase as usize), self.total(Phase::ALL.len()))
    }
}

/// Sums over the counting pass.
struct Counts {
    trials: f64,
    sim_ns: [f64; Phase::ALL.len()],
    calls: f64,
    span: [f64; SPAN_COUNTERS.len()],
    registry: [f64; TRIAL_COUNTERS.len()],
}

impl Counts {
    fn of(probe: &Probe) -> Counts {
        let mut c = Counts {
            trials: probe.trial_counts.len() as f64,
            sim_ns: [0.0; Phase::ALL.len()],
            calls: 0.0,
            span: [0.0; SPAN_COUNTERS.len()],
            registry: [0.0; TRIAL_COUNTERS.len()],
        };
        for s in &probe.spans {
            match s.phase {
                Some(p) => c.sim_ns[p as usize] += s.sim_ns as f64,
                None => {
                    c.calls += f64::from(s.calls);
                    for (sum, v) in c.span.iter_mut().zip(s.counts) {
                        *sum += v as f64;
                    }
                }
            }
        }
        for t in &probe.trial_counts {
            for (sum, v) in c.registry.iter_mut().zip(t) {
                *sum += *v as f64;
            }
        }
        c
    }

    fn span(&self, name: &str) -> f64 {
        self.span[span_counter(name)]
    }

    fn reg(&self, name: &str) -> f64 {
        self.registry[trial_counter(name)]
    }

    fn per_trial(&self, v: f64) -> f64 {
        ratio(v, self.trials)
    }

    fn sim_ns(&self) -> f64 {
        self.sim_ns.iter().sum()
    }
}

fn trace(w: &'static Workload, opts: &Options) -> Result<RunResult, String> {
    let base = opts.seed.unwrap_or(w.default_seed);
    let k = opts.scaled(w.trace_trials);
    let points = w.points.len();
    let mut problems = Vec::new();

    let sample = invoke(w, k, base, 1)?;
    problems.extend(
        check_rows(w, &sample.rows, k)
            .into_iter()
            .map(|p| format!("sample: {p}")),
    );
    let single = invoke(w, 1, base, 1)?;
    problems.extend(
        check_rows(w, &single.rows, 1)
            .into_iter()
            .map(|p| format!("set-up: {p}")),
    );
    let agrees = |o: &Outcomes| -> usize {
        o.iter()
            .zip(&sample.rows)
            .filter(|((ok, raw), row)| *ok == row.succeeded && *raw == row.raw)
            .count()
    };

    let counted = replay(
        w,
        base,
        k,
        Setup {
            metrics: true,
            tracker: true,
        },
        Probe::counting(),
    );
    let agreement = agrees(&counted.outcomes) as f64 / points as f64;
    let counts = Counts::of(&counted.probe);
    let exact = Setup {
        metrics: binary_metrics(w.name),
        tracker: false,
    };
    let flipped = Setup {
        metrics: !exact.metrics,
        ..exact
    };

    let clock = Stopwatch::start();
    let mut timing = Timing::default();
    let (mut trace_ratio, mut telemetry_ratio, mut speedup) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Vec<Span>> = None;
    loop {
        let started = clock.elapsed_s();
        // Alternate which pass runs first, so drift in machine load does
        // not always favour the same side of the ratio.
        let (traced, untraced) = if timing.passes % 2 == 0 {
            let t = replay(w, base, k, exact, Probe::timed());
            (t, replay(w, base, k, exact, Probe::off()))
        } else {
            let u = replay(w, base, k, exact, Probe::off());
            (replay(w, base, k, exact, Probe::timed()), u)
        };
        trace_ratio.push(traced.wall_s / untraced.wall_s - 1.0);
        // The binary's telemetry mode against telemetry off: zero for a
        // binary that already runs with it off.
        telemetry_ratio.push(if exact.metrics {
            let off = replay(w, base, k, flipped, Probe::off());
            if off.outcomes != untraced.outcomes {
                problems.push("telemetry changed trial outcomes".into());
            }
            untraced.wall_s / off.wall_s - 1.0
        } else {
            0.0
        });
        let one = invoke(w, k, base, 1)?;
        let two = invoke(w, k, base, 2)?;
        speedup.push(one.wall_s / two.wall_s);
        for (what, inv) in [("one-worker", &one), ("two-worker", &two)] {
            if !same_outcomes(&inv.rows, &sample.rows) {
                problems.push(format!("{what} rerun of the sample disagrees with it"));
            }
        }
        if traced.outcomes != untraced.outcomes || counted.outcomes != untraced.outcomes {
            problems.push("replica passes disagree on trial outcomes".into());
        }
        timing.add(&traced.probe.spans, points);
        if first.is_none() {
            if !same_structure(&traced.probe.spans, &counted.probe.spans) {
                problems.push("traced and counting passes recorded different spans".into());
            }
            first = Some(traced.probe.spans);
        }
        let took = clock.elapsed_s() - started;
        if opts.quick || clock.elapsed_s() + took > opts.seconds {
            break;
        }
    }
    // A check that fails on every repetition is reported once.
    problems.sort();
    problems.dedup();
    let spans = first.expect("the loop runs at least once");
    let share_sum: f64 = Phase::ALL.iter().map(|p| timing.share(*p)).sum();
    if (share_sum - 1.0).abs() > SHARE_TOLERANCE {
        problems.push(format!("phase shares sum to {share_sum}"));
    }
    write_trace(w, &spans, &counted.probe)?;
    print_point_shares(w, &timing, k);

    let n = (k * points as u64) as f64;
    let frames = counts.span("medium.tx_frames");
    let stepping_ns: f64 = Phase::ALL
        .iter()
        .filter(|p| p.steps())
        .map(|p| timing.total(*p as usize))
        .sum();
    let rss_growth_kb = sample.peak_rss_kb().saturating_sub(single.peak_rss_kb());
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    v.insert("scenario.build_us_p50", percentile(&timing.build_us, 0.5));
    v.insert("scenario.build_us_p99", percentile(&timing.build_us, 0.99));
    v.insert("scenario.world_kb", counted.probe.world_kb as f64);
    v.insert("scenario.nodes", counts.per_trial(counts.reg("sim.nodes")));
    v.insert(
        "fault.bursts_per_trial",
        counts.per_trial(counts.reg("fault.bursts")),
    );
    v.insert(
        "fault.frames_lost_per_trial",
        counts.per_trial(counts.reg("fault.frames_lost")),
    );
    v.insert(
        "fault.frames_corrupted_per_trial",
        counts.per_trial(counts.reg("fault.frames_corrupted")),
    );
    v.insert(
        "world.sim_s_per_wall_s",
        ratio(counts.sim_ns() * timing.passes as f64, stepping_ns),
    );
    v.insert(
        "world.sim_ms_per_trial",
        counts.per_trial(counts.sim_ns()) / 1e6,
    );
    v.insert(
        "world.run_for_calls_per_trial",
        counts.per_trial(counts.calls),
    );
    let sim_ms = |p: Phase| counts.per_trial(counts.sim_ns[p as usize]) / 1e6;
    v.insert("phase.connect.sim_ms", sim_ms(Phase::Connect));
    v.insert("phase.sync.sim_ms", sim_ms(Phase::Sync));
    v.insert("phase.attack.sim_ms", sim_ms(Phase::Attack));
    v.insert("phase.build.share", timing.share(Phase::Build));
    v.insert("phase.connect.share", timing.share(Phase::Connect));
    v.insert("phase.sync.share", timing.share(Phase::Sync));
    v.insert("phase.attack.share", timing.share(Phase::Attack));
    v.insert("phase.fold.share", timing.share(Phase::Fold));
    v.insert("medium.frames_per_trial", counts.per_trial(frames));
    v.insert(
        "medium.rx_starts_per_frame",
        ratio(counts.span("medium.scheduled_rx_starts"), frames),
    );
    v.insert(
        "medium.culled_per_frame",
        ratio(counts.span("medium.culled_unreachable"), frames),
    );
    v.insert(
        "medium.delivered_per_rx_start",
        ratio(
            counts.span("medium.frames_delivered"),
            counts.span("medium.scheduled_rx_starts"),
        ),
    );
    v.insert(
        "medium.host_ns_per_frame",
        ratio(stepping_ns / timing.passes as f64, frames),
    );
    v.insert(
        "phy.collisions_per_frame",
        ratio(counts.reg("phy.collision"), frames),
    );
    v.insert(
        "link.anchors_per_trial",
        counts.per_trial(counts.reg("link.anchor")),
    );
    v.insert(
        "link.crc_fail_per_anchor",
        ratio(counts.reg("link.crc_fail"), counts.reg("link.anchor")),
    );
    v.insert(
        "link.disconnects_per_trial",
        counts.per_trial(counts.reg("link.disconnect")),
    );
    v.insert(
        "link.control_pdus_per_trial",
        counts.per_trial(counts.reg("link.control_pdu")),
    );
    v.insert(
        "host.conn_established_per_trial",
        counts.per_trial(counts.reg("host.conn_established")),
    );
    v.insert(
        "host.pool_exhausted_per_trial",
        counts.per_trial(counts.reg("host.pool_exhausted")),
    );
    v.insert(
        "host.slot_denied_per_trial",
        counts.per_trial(counts.reg("host.slot_denied")),
    );
    v.insert(
        "attack.attempts_per_trial",
        counts.per_trial(counts.reg("attack.attempts")),
    );
    v.insert(
        "attack.success_per_attempt",
        ratio(counts.reg("attack.success"), counts.reg("attack.attempts")),
    );
    v.insert(
        "attack.sniffer_lost_per_trial",
        counts.per_trial(counts.reg("attack.sniffer_lost")),
    );
    v.insert(
        "attack.resync_restarts_per_trial",
        counts.per_trial(counts.span("harness.resync_restarts")),
    );
    v.insert(
        "attack.bounces_per_trial",
        counts.per_trial(counts.span("harness.bounces")),
    );
    v.insert(
        "telemetry.events_per_trial",
        counts.per_trial(counts.reg("telemetry.events")),
    );
    v.insert("telemetry.overhead_frac", median(&telemetry_ratio));
    v.insert(
        "bench.fold_ns_per_trial",
        ratio(timing.total(Phase::Fold as usize), n * timing.passes as f64),
    );
    v.insert(
        "bench.outcome_bytes_per_trial",
        rss_growth_kb as f64 * 1024.0 / n,
    );
    v.insert("bench.speedup_2t", median(&speedup));
    v.insert("trial.wall_us_p50", percentile(&timing.trial_us, 0.5));
    v.insert("trial.wall_us_p99", percentile(&timing.trial_us, 0.99));
    v.insert("trace.samples", timing.trial_us.len() as f64);
    v.insert("trace.overhead_frac", median(&trace_ratio));
    v.insert("trace.replica_agreement", agreement);

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            (
                *m,
                v.remove(m.name)
                    .unwrap_or_else(|| panic!("{} not computed", m.name)),
            )
        })
        .collect();
    assert!(v.is_empty(), "computed but not declared: {:?}", v.keys());
    Ok(RunResult {
        workload: w.name,
        problems,
        attempted: timing.trial_us.len() as u64,
        failed: sample.panicked(),
        metrics,
    })
}

/// Whether two passes recorded the same spans (trials, phases, simulated
/// time, calls): the counting pass's counts then belong to the traced
/// pass's timings.
fn same_structure(a: &[Span], b: &[Span]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.trial, x.point, x.phase, x.sim_ns, x.calls)
                == (y.trial, y.point, y.phase, y.sim_ns, y.calls)
        })
}

fn print_point_shares(w: &Workload, timing: &Timing, k: u64) {
    for (point, row) in w.points.iter().zip(&timing.wall_ns) {
        let root = row[Phase::ALL.len()];
        let shares: Vec<String> = Phase::ALL
            .iter()
            .map(|p| format!("{} {:.3}", p.name(), ratio(row[*p as usize], root)))
            .collect();
        println!(
            "[trace] {} {}={}: {} (mean trial {:.1} us)",
            w.name,
            point.parameter,
            point.value,
            shares.join(" "),
            ratio(root / 1e3, (timing.passes * k) as f64),
        );
    }
}

/// Writes the first traced pass's spans, with the counting pass's counts,
/// one JSON object per line.
fn write_trace(w: &Workload, timed: &[Span], counted: &Probe) -> Result<(), String> {
    let path = work_dir().join(format!("trace-{}.jsonl", w.name));
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(work_dir()).map_err(fail)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(fail)?);
    let mut roots = counted.trial_counts.iter();
    for (t, c) in timed.iter().zip(&counted.spans) {
        let point = &w.points[t.point];
        let counts: Vec<String> = SPAN_COUNTERS
            .iter()
            .zip(c.counts)
            .map(|(name, v)| format!("\"{name}\":{v}"))
            .collect();
        let mut line = format!(
            "{{\"id\":{},\"span\":\"{}\",\"parent\":{},\"point\":\"{}={}\",\"start_ns\":{},\
             \"wall_ns\":{},\"sim_ns\":{},\"calls\":{},\"counts\":{{{}}}",
            t.trial,
            t.phase.map_or("trial", Phase::name),
            if t.phase.is_some() {
                "\"trial\""
            } else {
                "null"
            },
            point.parameter,
            point.value,
            t.start_ns,
            t.wall_ns,
            t.sim_ns,
            t.calls,
            counts.join(","),
        );
        if t.phase.is_none() {
            let registry: Vec<String> = TRIAL_COUNTERS
                .iter()
                .zip(roots.next().into_iter().flatten())
                .map(|(name, v)| format!("\"{name}\":{v}"))
                .collect();
            line.push_str(&format!(",\"registry\":{{{}}}", registry.join(",")));
        }
        line.push_str("}\n");
        out.write_all(line.as_bytes()).map_err(fail)?;
    }
    out.flush().map_err(fail)?;
    eprintln!("[trace] {} spans -> {}", timed.len(), path.display());
    Ok(())
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<(&'static Workload, Options), String> {
    let mut w = None;
    let mut opts = Options {
        seed: None,
        seconds: 0.0,
        quick: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                w = Some(workload(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => opts.seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok((w.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)).and_then(|(w, opts)| trace(w, &opts)) {
        Ok(result) => {
            result.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e-trace: {e}");
            ExitCode::FAILURE
        }
    }
}
