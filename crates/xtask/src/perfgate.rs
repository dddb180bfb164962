//! `cargo xtask perfgate` — the performance/behaviour regression gate.
//!
//! `cargo xtask determinism` proves each binary agrees with *itself* across
//! runs; this task proves the current tree agrees with the *committed
//! baselines* under `benchmarks/baselines/`. It builds the workspace in
//! release mode, runs every JSON-emitting experiment binary at its fixed
//! default seed, flattens the `BENCH_<name>.json` artefact into scalar
//! metrics, and compares each metric against the baseline artefact:
//!
//! - **Sim-deterministic metrics** (success counts, attempt quartiles,
//!   histogram percentiles, span `sim_ns`/`self_sim_ns`, the
//!   `panicked_trials` counter, …) must match **exactly** — they are pure
//!   functions of the seed, so any drift is a behaviour change that needs
//!   a deliberate `--update-baselines`. `panicked_trials` is emitted only
//!   when non-zero, so a trial starting to panic surfaces as a
//!   missing-metric failure against a clean baseline.
//! - **Wall-clock metrics** (`trials_per_sec`, `events_per_sec`,
//!   `peak_rss_kb`, span `wall_ns`/`self_wall_ns`) get a generous relative
//!   tolerance plus an absolute noise floor, and are skipped entirely when
//!   absent on either side (e.g. `peak_rss_kb` off Linux). They catch
//!   order-of-magnitude slowdowns without flaking on machine variance.
//!
//! On failure the gate names the first regressed metric with both values
//! and the rule it broke. `--update-baselines` re-captures the current
//! artefacts as the new baselines (review the diff before committing).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Every JSON-emitting experiment binary (the `json: true` rows of the
/// determinism matrix). Non-JSON binaries have no artefact to gate.
const PERF_BINARIES: &[&str] = &[
    "exp1_hop_interval",
    "exp2_payload_size",
    "exp3_distance",
    "exp4_wall",
    "ablation_phy2m",
    "ablation_sync_noise",
    "ablation_widening",
    "ablation_faults",
    "exp5_multi_conn",
    "exp6_dense_band",
];

/// The per-push fast subset: one Figure 9 sweep and two ablations, one of
/// them with its own trial function — cheap enough for every push, broad
/// enough to catch a behaviour drift before the weekly full run does.
const FAST_SUBSET: &[&str] = &["exp1_hop_interval", "ablation_phy2m", "ablation_widening"];

/// How a metric is allowed to move relative to its baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    /// Sim-deterministic: any difference is a regression.
    Exact,
    /// Wall-clock throughput: only a *drop* beyond tolerance regresses.
    HigherBetter,
    /// Wall-clock cost: only a *rise* beyond tolerance regresses.
    LowerBetter,
}

/// The comparison rule for one metric class.
#[derive(Clone, Copy, Debug)]
struct MetricSpec {
    direction: Direction,
    /// Allowed relative movement in the bad direction (0.5 = 50%).
    rel_tol: f64,
    /// Absolute difference below which movement is never a regression
    /// (same unit as the metric). Keeps tiny baselines from tripping the
    /// relative rule on noise.
    noise_floor: f64,
}

const EXACT: MetricSpec = MetricSpec {
    direction: Direction::Exact,
    rel_tol: 0.0,
    noise_floor: 0.0,
};

/// Classifies a flattened metric key by its leaf field name. Every wall
/// field named here mirrors the neutralisation list in
/// `determinism::normalize_json`; anything else in the artefact is
/// sim-deterministic by construction.
fn spec_for(key: &str) -> MetricSpec {
    let leaf = key.rsplit('.').next().unwrap_or(key);
    match leaf {
        "trials_per_sec" | "events_per_sec" => MetricSpec {
            direction: Direction::HigherBetter,
            rel_tol: 0.90,
            noise_floor: 50.0,
        },
        "peak_rss_kb" => MetricSpec {
            direction: Direction::LowerBetter,
            rel_tol: 0.50,
            noise_floor: 4096.0,
        },
        "wall_ns" | "self_wall_ns" => MetricSpec {
            direction: Direction::LowerBetter,
            rel_tol: 9.0,
            noise_floor: 10_000_000.0,
        },
        _ => EXACT,
    }
}

/// Whether a metric may be silently absent on one side (wall metrics vary
/// by platform; sim metrics may not appear or vanish without a baseline
/// refresh).
fn optional(key: &str) -> bool {
    spec_for(key).direction != Direction::Exact
}

// ---------------------------------------------------------------------------
// Minimal JSON reader. The artefacts are produced by our own hand-rolled
// writer (`bench::report::rows_to_json`), so this reader only needs the subset
// that writer emits: objects, arrays, strings without escapes, numbers,
// and `null`. Kept here rather than pulling in a JSON dependency.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Self {
        Reader {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "byte {}: expected `{}`, found {:?}",
                self.pos,
                b as char,
                other.map(|c| c as char)
            )),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Json::Null)
                } else {
                    Err(format!("byte {}: bad literal", self.pos))
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "byte {}: unexpected {:?}",
                self.pos,
                other.map(|c| c as char)
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "byte {}: expected `,` or `}}`, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "byte {}: expected `,` or `]`, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'"' {
            self.pos += 1;
        }
        if self.pos >= self.bytes.len() {
            return Err("unterminated string".into());
        }
        let s = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.pos += 1;
        Ok(s)
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("byte {start}: bad number `{text}`"))
    }
}

fn parse_json(s: &str) -> Result<Json, String> {
    let mut r = Reader::new(s);
    let v = r.value()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(format!("trailing content at byte {}", r.pos));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Flattening and comparison.
// ---------------------------------------------------------------------------

/// Flattened view of one artefact: numeric metrics by dotted path, plus the
/// string fields (`parameter`, `phase`, …) as `path=value` shape tokens so a
/// renamed sweep or phase fails loudly rather than comparing garbage.
#[derive(Debug, Default)]
struct Flat {
    nums: Vec<(String, f64)>,
    shape: Vec<String>,
}

fn flatten(v: &Json, prefix: &str, out: &mut Flat) {
    match v {
        // `null` (e.g. `peak_rss_kb` off Linux, absent histograms) flattens
        // to nothing: the key is simply missing on that side.
        Json::Null => {}
        Json::Num(n) => out.nums.push((prefix.to_string(), *n)),
        Json::Str(s) => out.shape.push(format!("{prefix}={s}")),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                // Phase-profile rows are keyed by phase name, not position,
                // so a newly-instrumented phase shifts nothing else.
                let label = phase_name(item)
                    .map(|p| format!("{prefix}[{p}]"))
                    .unwrap_or_else(|| format!("{prefix}[{i}]"));
                flatten(item, &label, out);
            }
        }
        Json::Obj(fields) => {
            for (k, item) in fields {
                let label = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(item, &label, out);
            }
        }
    }
}

fn phase_name(v: &Json) -> Option<&str> {
    if let Json::Obj(fields) = v {
        for (k, val) in fields {
            if k == "phase" {
                if let Json::Str(s) = val {
                    return Some(s);
                }
            }
        }
    }
    None
}

/// Outcome of gating one artefact against its baseline.
#[derive(Debug)]
struct GateStats {
    /// Metrics compared (exact or within tolerance).
    compared: usize,
    /// Wall metrics skipped because one side lacked them.
    skipped: usize,
}

/// Pure comparison core: baseline artefact text vs current artefact text.
/// Returns the gate stats on pass; on failure, the first regressed metric
/// with both values, the rule it broke, and the total regression count.
fn compare_artefacts(name: &str, baseline: &str, current: &str) -> Result<GateStats, String> {
    let base = parse_json(baseline).map_err(|e| format!("baseline for {name} unreadable: {e}"))?;
    let cur =
        parse_json(current).map_err(|e| format!("current artefact for {name} unreadable: {e}"))?;
    let mut fb = Flat::default();
    flatten(&base, "", &mut fb);
    let mut fc = Flat::default();
    flatten(&cur, "", &mut fc);

    // Shape first: string fields (parameter names, phase names) and any
    // appearing/vanishing sim metric mean the artefact no longer describes
    // the same experiment — that needs a baseline refresh, not a tolerance.
    if fb.shape != fc.shape {
        let diff = first_list_divergence(&fb.shape, &fc.shape);
        return Err(format!(
            "{name}: artefact shape changed ({diff}); if intended, run \
             `cargo xtask perfgate --update-baselines` and commit the diff"
        ));
    }
    let base_keys: Vec<&str> = fb.nums.iter().map(|(k, _)| k.as_str()).collect();
    let cur_keys: Vec<&str> = fc.nums.iter().map(|(k, _)| k.as_str()).collect();
    let mut skipped = 0usize;
    for k in &base_keys {
        if !cur_keys.contains(k) {
            if optional(k) {
                skipped += 1;
            } else {
                return Err(format!(
                    "{name}: metric `{k}` present in baseline but missing from \
                     the current artefact; if intended, run `cargo xtask \
                     perfgate --update-baselines`"
                ));
            }
        }
    }
    for k in &cur_keys {
        if !base_keys.contains(k) {
            if optional(k) {
                skipped += 1;
            } else {
                return Err(format!(
                    "{name}: new metric `{k}` absent from the baseline; run \
                     `cargo xtask perfgate --update-baselines` and commit the diff"
                ));
            }
        }
    }

    let mut compared = 0usize;
    let mut first_fail: Option<String> = None;
    let mut fails = 0usize;
    for (key, base_val) in &fb.nums {
        let Some((_, cur_val)) = fc.nums.iter().find(|(k, _)| k == key) else {
            continue; // optional wall metric, already counted as skipped
        };
        compared += 1;
        if let Some(msg) = regression(key, *base_val, *cur_val) {
            fails += 1;
            if first_fail.is_none() {
                first_fail = Some(msg);
            }
        }
    }
    match first_fail {
        Some(msg) => Err(format!("{name}: {fails} metric(s) regressed; first: {msg}")),
        None => Ok(GateStats { compared, skipped }),
    }
}

/// Applies the metric's rule; `Some(diff message)` when it regresses.
fn regression(key: &str, base: f64, cur: f64) -> Option<String> {
    let spec = spec_for(key);
    match spec.direction {
        Direction::Exact => {
            if base != cur {
                Some(format!(
                    "`{key}` baseline {base} != current {cur} (sim-deterministic, \
                     exact match required)"
                ))
            } else {
                None
            }
        }
        Direction::HigherBetter => {
            if base - cur > spec.noise_floor && cur < base * (1.0 - spec.rel_tol) {
                Some(format!(
                    "`{key}` dropped {base} -> {cur} (allowed: >= {:.1} after \
                     {:.0}% tolerance)",
                    base * (1.0 - spec.rel_tol),
                    spec.rel_tol * 100.0
                ))
            } else {
                None
            }
        }
        Direction::LowerBetter => {
            if cur - base > spec.noise_floor && cur > base * (1.0 + spec.rel_tol) {
                Some(format!(
                    "`{key}` rose {base} -> {cur} (allowed: <= {:.1} after \
                     {:.0}% tolerance)",
                    base * (1.0 + spec.rel_tol),
                    spec.rel_tol * 100.0
                ))
            } else {
                None
            }
        }
    }
}

/// First position where two string lists disagree, for shape diffs.
fn first_list_divergence(a: &[String], b: &[String]) -> String {
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if x != y {
            return format!("entry {i}: baseline `{x}` vs current `{y}`");
        }
    }
    if a.len() > b.len() {
        format!("baseline has extra `{}`", a[b.len()])
    } else if b.len() > a.len() {
        format!("current has extra `{}`", b[a.len()])
    } else {
        "(identical?)".into()
    }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct Config {
    root: PathBuf,
    fast: bool,
    trials: u32,
    update: bool,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        root: crate::default_root()?,
        fast: false,
        // Must match the trial count the committed baselines were captured
        // with; a mismatch fails loudly on the exact `trials` metric.
        trials: 5,
        update: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => cfg.fast = true,
            "--update-baselines" => cfg.update = true,
            "--trials" => {
                let v = it.next().ok_or("--trials needs a number")?;
                cfg.trials = v.parse().map_err(|_| format!("bad --trials value `{v}`"))?;
            }
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                cfg.root = PathBuf::from(v);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cfg)
}

fn baseline_path(cfg: &Config, name: &str) -> PathBuf {
    cfg.root
        .join("benchmarks")
        .join("baselines")
        .join(format!("BENCH_{name}.json"))
}

/// Runs one binary and returns its artefact text.
fn capture_artefact(cfg: &Config, name: &str, out_dir: &Path) -> Result<String, String> {
    let bin = cfg.root.join("target").join("release").join(name);
    let json_path = out_dir.join(format!("BENCH_{name}.json"));
    let output = Command::new(&bin)
        .arg(cfg.trials.to_string())
        .arg("--json")
        .arg(&json_path)
        .current_dir(&cfg.root)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{name} exited with {} — stderr tail:\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
                .lines()
                .rev()
                .take(5)
                .collect::<Vec<_>>()
                .join("\n")
        ));
    }
    std::fs::read_to_string(&json_path)
        .map_err(|e| format!("{name} wrote no artefact at {}: {e}", json_path.display()))
}

pub fn run(args: &[String]) -> ExitCode {
    let cfg = match parse_args(args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("xtask perfgate: {msg}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!("[perfgate] building release binaries…");
    let status = Command::new("cargo")
        .args(["build", "--release", "-p", "bench"])
        .current_dir(&cfg.root)
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("xtask perfgate: release build failed ({s})");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("xtask perfgate: cannot run cargo: {e}");
            return ExitCode::FAILURE;
        }
    }

    let out_dir = cfg.root.join("target").join("perfgate");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("xtask perfgate: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    let mut failures = 0usize;
    let mut covered = 0usize;
    for name in PERF_BINARIES {
        if cfg.fast && !FAST_SUBSET.contains(name) {
            continue;
        }
        covered += 1;
        let current = match capture_artefact(&cfg, name, &out_dir) {
            Ok(text) => text,
            Err(msg) => {
                eprintln!("[perfgate] FAIL {name}: {msg}");
                failures += 1;
                continue;
            }
        };
        let base_path = baseline_path(&cfg, name);
        if cfg.update {
            if let Some(parent) = base_path.parent() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("xtask perfgate: cannot create {}: {e}", parent.display());
                    return ExitCode::FAILURE;
                }
            }
            match std::fs::write(&base_path, &current) {
                Ok(()) => println!("[perfgate] baseline updated: {}", base_path.display()),
                Err(e) => {
                    eprintln!("[perfgate] FAIL {name}: cannot write baseline: {e}");
                    failures += 1;
                }
            }
            continue;
        }
        let baseline = match std::fs::read_to_string(&base_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!(
                    "[perfgate] FAIL {name}: no baseline at {} ({e}); run \
                     `cargo xtask perfgate --update-baselines` and commit it",
                    base_path.display()
                );
                failures += 1;
                continue;
            }
        };
        match compare_artefacts(name, &baseline, &current) {
            Ok(stats) => println!(
                "[perfgate] ok {name} ({} metrics compared, {} wall metrics skipped)",
                stats.compared, stats.skipped
            ),
            Err(msg) => {
                eprintln!("[perfgate] FAIL {msg}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("xtask perfgate: {failures} of {covered} binaries regressed");
        ExitCode::FAILURE
    } else if cfg.update {
        println!("xtask perfgate: {covered} baselines captured");
        ExitCode::SUCCESS
    } else {
        println!("xtask perfgate: {covered} binaries within baseline envelope");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature artefact in exactly the shape `bench::report::rows_to_json`
    /// emits: one row with histogram, wall metrics, and a phase profile.
    fn artefact(mean: f64, trials_per_sec: f64, wall_ns: u64) -> String {
        format!(
            "[\n  {{\"parameter\":\"hop\",\"value\":36,\"succeeded\":5,\
             \"trials\":5,\"min\":1,\"q1\":1,\"median\":2,\"q3\":3,\"max\":4,\
             \"mean\":{mean:.3},\"variance\":1.300,\"raw\":[1, 2, 2, 3, 4],\
             \"anchor_error_us\":{{\"count\":5,\"mean\":4.100,\"p50\":4,\
             \"p90\":6,\"p95\":6,\"p99\":6,\"min\":3.000,\"max\":6.000}},\
             \"lead_time_us\":null,\"events_per_sec\":1000.0,\
             \"trials_per_sec\":{trials_per_sec:.1},\"peak_rss_kb\":3000,\
             \"phase_profile\":[{{\"phase\":\"trial-sync\",\"count\":5,\
             \"sim_ns\":500000000,\"self_sim_ns\":498000000,\
             \"wall_ns\":{wall_ns},\"self_wall_ns\":{wall_ns}}}]}}\n]\n"
        )
    }

    #[test]
    fn identical_artefacts_pass() {
        let a = artefact(2.2, 4000.0, 100_000);
        let stats = compare_artefacts("exp1", &a, &a).expect("identical must pass");
        assert!(stats.compared > 15, "flattening found {}", stats.compared);
        assert_eq!(stats.skipped, 0);
    }

    #[test]
    fn doctored_sim_metric_fails_exactly() {
        let base = artefact(2.2, 4000.0, 100_000);
        let doctored = artefact(2.4, 4000.0, 100_000);
        let err = compare_artefacts("exp1", &base, &doctored).unwrap_err();
        assert!(err.contains("`[0].mean`"), "{err}");
        assert!(err.contains("2.2"), "{err}");
        assert!(err.contains("2.4"), "{err}");
        assert!(err.contains("exact match required"), "{err}");
    }

    #[test]
    fn wall_metrics_tolerate_machine_variance() {
        let base = artefact(2.2, 4000.0, 100_000_000);
        // Half the throughput and 4x the span wall time: noisy, not fatal.
        let noisy = artefact(2.2, 2000.0, 400_000_000);
        compare_artefacts("exp1", &base, &noisy).expect("within tolerance");
        // A 100x throughput collapse is a real regression.
        let collapsed = artefact(2.2, 40.0, 100_000_000);
        let err = compare_artefacts("exp1", &base, &collapsed).unwrap_err();
        assert!(err.contains("trials_per_sec"), "{err}");
        assert!(err.contains("dropped"), "{err}");
    }

    #[test]
    fn wall_rise_beyond_tolerance_fails() {
        let base = artefact(2.2, 4000.0, 100_000_000);
        // 20x the span wall time breaks the 10x envelope.
        let slow = artefact(2.2, 4000.0, 2_000_000_000);
        let err = compare_artefacts("exp1", &base, &slow).unwrap_err();
        assert!(err.contains("wall_ns"), "{err}");
        assert!(err.contains("rose"), "{err}");
    }

    #[test]
    fn tiny_wall_times_sit_under_the_noise_floor() {
        // 100x relative rise but only 99µs absolute: under the 10ms floor.
        let base = artefact(2.2, 4000.0, 1_000);
        let cur = artefact(2.2, 4000.0, 100_000);
        compare_artefacts("exp1", &base, &cur).expect("noise floor absorbs it");
    }

    #[test]
    fn missing_wall_metric_is_skipped_missing_sim_metric_fails() {
        let base = artefact(2.2, 4000.0, 100_000);
        // `peak_rss_kb:null` (non-Linux baseline) flattens to absent.
        let no_rss = base.replace("\"peak_rss_kb\":3000", "\"peak_rss_kb\":null");
        let stats = compare_artefacts("exp1", &base, &no_rss).expect("wall absence is fine");
        assert_eq!(stats.skipped, 1);
        // A vanished sim metric is a shape change, not noise.
        let no_median = base.replace("\"median\":2,", "");
        let err = compare_artefacts("exp1", &base, &no_median).unwrap_err();
        assert!(err.contains("[0].median"), "{err}");
        assert!(err.contains("--update-baselines"), "{err}");
    }

    #[test]
    fn renamed_phase_is_a_shape_change() {
        let base = artefact(2.2, 4000.0, 100_000);
        let renamed = base.replace("trial-sync", "trial-warmup");
        let err = compare_artefacts("exp1", &base, &renamed).unwrap_err();
        assert!(err.contains("shape changed"), "{err}");
        assert!(err.contains("--update-baselines"), "{err}");
    }

    #[test]
    fn phase_rows_key_by_name_not_position() {
        let mut f = Flat::default();
        let v = parse_json(
            "{\"phase_profile\":[{\"phase\":\"trial-sync\",\"sim_ns\":5},\
             {\"phase\":\"trial-follow\",\"sim_ns\":7}]}",
        )
        .unwrap();
        flatten(&v, "", &mut f);
        let keys: Vec<&str> = f.nums.iter().map(|(k, _)| k.as_str()).collect();
        assert!(
            keys.contains(&"phase_profile[trial-sync].sim_ns"),
            "{keys:?}"
        );
        assert!(
            keys.contains(&"phase_profile[trial-follow].sim_ns"),
            "{keys:?}"
        );
    }

    #[test]
    fn reader_handles_the_writer_subset() {
        let v = parse_json("[{\"a\":1.5,\"b\":null,\"c\":[1, 2],\"d\":\"x\"}]").unwrap();
        let Json::Arr(items) = v else { panic!("array") };
        let Json::Obj(fields) = &items[0] else {
            panic!("object")
        };
        assert_eq!(fields[0], ("a".into(), Json::Num(1.5)));
        assert_eq!(fields[1], ("b".into(), Json::Null));
        assert!(parse_json("[1, 2] trailing").is_err());
        assert!(parse_json("{\"open\":").is_err());
    }

    #[test]
    fn first_regressed_metric_is_named_with_total_count() {
        let base = artefact(2.2, 4000.0, 100_000);
        let doctored = artefact(2.2, 4000.0, 100_000)
            .replace("\"succeeded\":5", "\"succeeded\":4")
            .replace("\"median\":2", "\"median\":3");
        let err = compare_artefacts("exp1", &base, &doctored).unwrap_err();
        assert!(err.contains("2 metric(s) regressed"), "{err}");
        assert!(err.contains("first:"), "{err}");
    }

    #[test]
    fn fast_subset_is_a_subset_of_the_matrix() {
        for name in FAST_SUBSET {
            assert!(
                PERF_BINARIES.contains(name),
                "fast-subset binary {name} missing from the matrix"
            );
        }
    }

    #[test]
    fn wall_classification_matches_the_determinism_neutral_list() {
        // The fields determinism neutralises are exactly the fields the gate
        // treats as tolerant; everything else is exact.
        for key in [
            "[0].trials_per_sec",
            "[0].events_per_sec",
            "[0].peak_rss_kb",
            "[0].phase_profile[trial-sync].wall_ns",
            "[0].phase_profile[trial-sync].self_wall_ns",
        ] {
            assert_ne!(spec_for(key).direction, Direction::Exact, "{key}");
        }
        for key in [
            "[0].mean",
            "[0].phase_profile[trial-sync].sim_ns",
            "[0].phase_profile[trial-sync].self_sim_ns",
            "[0].anchor_error_us.p95",
            // Trial-accounting counters are sim-deterministic: a panicked
            // trial at a fixed seed is a code regression, never noise, so
            // the gate holds them exact (and `panicked_trials` appearing
            // where the baseline has none is a missing-metric failure,
            // which is the point).
            "[0].panicked_trials",
            "[0].trials",
            "[0].succeeded",
        ] {
            assert_eq!(spec_for(key).direction, Direction::Exact, "{key}");
        }
    }
}
