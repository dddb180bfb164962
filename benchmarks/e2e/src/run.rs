//! The end-to-end run: a check chunk at `--seed`, then set-up runs and
//! repeats of the timed chunk until the time budget is spent.

use crate::artefact::{check_floor, check_rows, success_frac, Row};
use crate::catalogue::{Workload, END_TO_END};
use crate::report::RunResult;
use crate::runner::{invoke, Stopwatch};
use crate::stats::median;

/// Seconds measured per workload unless `--seconds` says otherwise. The
/// self-tests hold `run_seconds` in `BENCHMARK.json` to this value.
pub const RUN_SECONDS: f64 = 25.0;

/// Repeats of the timed chunk every full run makes, whatever its budget.
pub const MIN_REPEATS: u64 = 5;

/// `--quick` shrinks every per-point trial count by this factor.
pub const QUICK_DIVISOR: u64 = 50;

/// How one measurement is run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Seed base of the checked inputs (`None`: the binary's own).
    pub seed: Option<u64>,
    /// Time budget for the measured part (s).
    pub seconds: f64,
    /// Tiny trial counts, one repetition of everything, no time budget and
    /// no success floor.
    pub quick: bool,
}

impl Options {
    /// Per-point trial count for a full-size count of `n`.
    pub fn scaled(&self, n: u64) -> u64 {
        if self.quick {
            (n / QUICK_DIVISOR).max(1)
        } else {
            n
        }
    }
}

/// Measures `w` end to end. `Err` means the benchmark could not run (a
/// binary failed to start or exit cleanly); a wrong output is a problem in
/// the returned result.
///
/// The timed chunk is the same trial set in every run: the binary's default
/// seed. One chunk of `multi-conn` or `dense-band` costs a quarter more or
/// less depending on its seed, so seed-drawn chunks would time the draw as
/// much as the program. `--seed` picks the check chunk instead: the same
/// trial count at that seed, run once, untimed, with every output check.
pub fn run_e2e(w: &'static Workload, opts: &Options) -> Result<RunResult, String> {
    let per_point = opts.scaled(w.chunk_trials);
    let trials = per_point * w.points.len() as u64;
    let min_repeats = if opts.quick { 1 } else { MIN_REPEATS };
    let mut problems = Vec::new();
    let clock = Stopwatch::start();

    let seed = opts.seed.unwrap_or(w.default_seed);
    let check = invoke(w, per_point, seed, 1)?;
    problems.extend(labelled(
        &format!("check chunk (seed {seed})"),
        check_rows(w, &check.rows, per_point),
    ));
    let (mut attempted, mut failed) = (trials, check.panicked());

    let (mut walls, mut rss_mb, mut setup_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut first_setup, mut first_timed) = (None, None);
    let mut last_wall = 0.0;
    let mut i = 0u64;
    while i < min_repeats || (!opts.quick && clock.elapsed_s() + last_wall <= opts.seconds) {
        // Set-up: one trial per point, before every chunk so that its
        // median spans the run like the chunks' does. This is the fixed
        // cost of an invocation (process start, first worlds, artefact
        // write).
        let setup = invoke(w, 1, w.default_seed, 1)?;
        let inv = invoke(w, per_point, w.default_seed, 1)?;
        eprintln!(
            "[e2e] {} chunk {i}: {trials} trials in {:.3} s (set-up {:.4} s)",
            w.name, inv.wall_s, setup.wall_s
        );
        setup_walls.push(setup.wall_s);
        walls.push(inv.wall_s);
        rss_mb.push(inv.peak_rss_kb() as f64 / 1024.0);
        attempted += trials + w.points.len() as u64;
        failed += setup.panicked() + inv.panicked();
        last_wall = setup.wall_s + inv.wall_s;
        check_repeat(w, "set-up", setup.rows, 1, &mut first_setup, &mut problems);
        check_repeat(
            w,
            "timed chunk",
            inv.rows,
            per_point,
            &mut first_timed,
            &mut problems,
        );
        i += 1;
    }
    let timed = first_timed.expect("the loop runs at least once");
    if !opts.quick {
        problems.extend(check_floor(
            w,
            success_frac(timed.iter().chain(&check.rows)),
        ));
    }
    // Every repeat does the same work, so time beyond the fastest one is
    // interference from the host, not the program.
    let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let values = [
        trials as f64 / fastest,
        median(&rss_mb),
        median(&setup_walls),
        success_frac(&timed),
    ];
    // A check that fails on every repeat is reported once.
    problems.sort();
    problems.dedup();
    Ok(RunResult {
        workload: w.name,
        problems,
        attempted,
        failed,
        metrics: END_TO_END.iter().copied().zip(values).collect(),
    })
}

fn labelled(what: &str, problems: Vec<String>) -> impl Iterator<Item = String> + '_ {
    problems.into_iter().map(move |p| format!("{what}: {p}"))
}

/// Checks one invocation's rows at `per_point` trials per point, and that
/// they repeat the outcomes of the first invocation at the same seed.
fn check_repeat(
    w: &Workload,
    what: &str,
    rows: Vec<Row>,
    per_point: u64,
    first: &mut Option<Vec<Row>>,
    problems: &mut Vec<String>,
) {
    problems.extend(labelled(what, check_rows(w, &rows, per_point)));
    match first {
        Some(f) if !same_outcomes(f, &rows) => {
            problems.push(format!("{what}: repeats at one seed disagree"));
        }
        Some(_) => {}
        None => *first = Some(rows),
    }
}

/// Whether two artefacts hold the same sim-deterministic outcomes.
pub fn same_outcomes(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.outcome() == y.outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artefact::parse_rows;
    use crate::catalogue::workload;

    #[test]
    fn quick_scaling_never_reaches_zero() {
        let quick = Options {
            seed: None,
            seconds: 0.0,
            quick: true,
        };
        assert_eq!(quick.scaled(5_000), 100);
        assert_eq!(quick.scaled(6), 1);
        assert_eq!(
            Options {
                quick: false,
                ..quick
            }
            .scaled(6),
            6
        );
    }

    #[test]
    fn a_repeat_with_other_outcomes_fails() {
        let w = workload("multi-conn").unwrap();
        let row = |succeeded: u64, raw: &str| {
            format!(
                r#"{{"parameter":"connections","value":VALUE,"succeeded":{succeeded},"trials":2,"min":1,"q1":1,"median":1,"q3":1,"max":1,"raw":{raw},"peak_rss_kb":3000}}"#
            )
        };
        let doc = |r: String| {
            let rows: Vec<String> = [1, 2, 4, 8]
                .iter()
                .map(|v| r.replace("VALUE", &v.to_string()))
                .collect();
            parse_rows(&format!("[{}]", rows.join(","))).unwrap()
        };
        let mut first = None;
        let mut problems = Vec::new();
        check_repeat(w, "t", doc(row(2, "[1,1]")), 2, &mut first, &mut problems);
        check_repeat(w, "t", doc(row(2, "[1,1]")), 2, &mut first, &mut problems);
        assert_eq!(problems, Vec::<String>::new());
        check_repeat(w, "t", doc(row(1, "[1]")), 2, &mut first, &mut problems);
        assert_eq!(problems, ["t: repeats at one seed disagree"]);
    }
}
