//! `cargo xtask determinism` — the runtime divergence oracle.
//!
//! The lint rules (R7–R9) catch nondeterminism *sources* statically; this
//! task proves the *outcome*: it builds the workspace in release mode, runs
//! every experiment binary twice at its fixed default seed, and — for the
//! binaries that fan trials out over [`run_trials_parallel`] — additionally
//! at 1 and 4 worker threads via the `BENCH_THREADS` override. Two sweeps
//! also run a fifth leg through the streaming `--campaign` runner, which
//! must reproduce the in-memory artefact byte-for-byte. Any byte
//! divergence in the normalised stdout or `--json` artefact fails the task
//! with a diff excerpt naming the first divergent line.
//!
//! Three artefact fields are *defined* as wall-clock measurements and are
//! neutralised before comparison (`trials_per_sec`, `peak_rss_kb`,
//! `events_per_sec` — see `bench::report::SeriesReport`); `[artefact]`
//! stdout lines carry filesystem paths and are dropped. Everything else —
//! every statistic the paper's figures rest on — must be byte-identical.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// One experiment binary under test.
struct BinSpec {
    /// Binary name under `target/release/`.
    name: &'static str,
    /// Whether the binary takes `<trials> [--json <path>]` arguments.
    /// `false` means it runs with no arguments (fixed internal scenarios).
    takes_trials: bool,
    /// Whether the binary writes a `--json` artefact worth comparing.
    json: bool,
    /// Whether trials fan out over `run_trials_parallel` (gets the extra
    /// 1-vs-N-thread runs).
    parallel: bool,
}

/// Every oracle-covered binary. `timeline` is excluded: it is a narrated
/// demo trace, not an experiment, and emits no artefact.
const BINARIES: &[BinSpec] = &[
    BinSpec {
        name: "exp1_hop_interval",
        takes_trials: true,
        json: true,
        parallel: true,
    },
    BinSpec {
        name: "exp2_payload_size",
        takes_trials: true,
        json: true,
        parallel: true,
    },
    BinSpec {
        name: "exp3_distance",
        takes_trials: true,
        json: true,
        parallel: true,
    },
    BinSpec {
        name: "exp4_wall",
        takes_trials: true,
        json: true,
        parallel: true,
    },
    BinSpec {
        name: "ablation_phy2m",
        takes_trials: true,
        json: true,
        parallel: true,
    },
    BinSpec {
        name: "ablation_sync_noise",
        takes_trials: true,
        json: true,
        parallel: true,
    },
    BinSpec {
        name: "ablation_widening",
        takes_trials: true,
        json: true,
        parallel: false,
    },
    BinSpec {
        name: "ablation_faults",
        takes_trials: true,
        json: true,
        parallel: true,
    },
    BinSpec {
        name: "scenarios",
        takes_trials: false,
        json: false,
        parallel: false,
    },
    BinSpec {
        name: "encrypted_countermeasure",
        takes_trials: true,
        json: false,
        parallel: false,
    },
    BinSpec {
        name: "ids_detection",
        takes_trials: true,
        json: false,
        parallel: false,
    },
    BinSpec {
        name: "exp5_multi_conn",
        takes_trials: true,
        json: true,
        parallel: false,
    },
    BinSpec {
        name: "exp6_dense_band",
        takes_trials: true,
        json: true,
        parallel: false,
    },
];

/// The per-push fast subset: one parallel sweep, one ablation, the
/// scenario acceptance binary, the fault ablation (the only binary that
/// installs fault plans) and the dense band (the only one that drives the
/// medium at ~1,000 nodes) — enough to catch a reintroduced nondeterminism
/// source without the full sweep's wall time.
const FAST_SUBSET: &[&str] = &[
    "exp1_hop_interval",
    "ablation_phy2m",
    "scenarios",
    "ablation_faults",
    "exp6_dense_band",
];

/// Binaries that additionally run through the streaming campaign path
/// (`--campaign` with a fresh checkpoint directory). The campaign run must
/// match the in-memory run `a` byte-for-byte — the two aggregation paths
/// are different code folding the same trials, so any drift between them
/// is a real accounting bug, not wall-clock noise.
const CAMPAIGN_BINS: &[&str] = &["exp1_hop_interval", "exp2_payload_size"];

/// Labels for the runs of one binary. Runs `a`/`b` share an environment
/// (same-seed double run); `t1`/`t4` pin the worker-thread count; `camp`
/// re-runs the sweep through the streaming campaign runner.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RunKind {
    A,
    B,
    Threads1,
    Threads4,
    Campaign,
}

impl RunKind {
    fn label(self) -> &'static str {
        match self {
            RunKind::A => "a",
            RunKind::B => "b",
            RunKind::Threads1 => "t1",
            RunKind::Threads4 => "t4",
            RunKind::Campaign => "camp",
        }
    }

    /// The `BENCH_THREADS` value this run pins, if any.
    fn threads(self) -> Option<&'static str> {
        match self {
            RunKind::Threads1 => Some("1"),
            RunKind::Threads4 => Some("4"),
            RunKind::A | RunKind::B | RunKind::Campaign => None,
        }
    }
}

/// Captured, normalised output of one run.
struct RunOutput {
    label: &'static str,
    stdout: String,
    json: Option<String>,
}

pub fn run(args: &[String]) -> ExitCode {
    let cfg = match parse_args(args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("xtask determinism: {msg}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!("[determinism] building release binaries…");
    let status = Command::new("cargo")
        .args(["build", "--release", "-p", "bench"])
        .current_dir(&cfg.root)
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("xtask determinism: release build failed ({s})");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("xtask determinism: cannot run cargo: {e}");
            return ExitCode::FAILURE;
        }
    }

    let out_dir = cfg.root.join("target").join("determinism");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!(
            "xtask determinism: cannot create {}: {e}",
            out_dir.display()
        );
        return ExitCode::FAILURE;
    }

    let mut failures = 0usize;
    let mut covered = 0usize;
    for spec in BINARIES {
        if cfg.fast && !FAST_SUBSET.contains(&spec.name) {
            continue;
        }
        covered += 1;
        match check_binary(&cfg, spec, &out_dir) {
            Ok(()) => {}
            Err(msg) => {
                eprintln!("[determinism] FAIL {}: {msg}", spec.name);
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("xtask determinism: {failures} of {covered} binaries diverged");
        ExitCode::FAILURE
    } else {
        println!("xtask determinism: {covered} binaries byte-identical across runs");
        ExitCode::SUCCESS
    }
}

struct Config {
    root: PathBuf,
    fast: bool,
    trials: u32,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        root: crate::default_root()?,
        fast: false,
        trials: 5,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => cfg.fast = true,
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

/// Runs one binary's full run matrix and compares every pair that must
/// agree: `a == b` (same-seed double run) and, for parallel binaries,
/// `a == t1 == t4` (thread-count independence).
fn check_binary(cfg: &Config, spec: &BinSpec, out_dir: &Path) -> Result<(), String> {
    let mut kinds = vec![RunKind::A, RunKind::B];
    if spec.parallel {
        kinds.push(RunKind::Threads1);
        kinds.push(RunKind::Threads4);
    }
    if CAMPAIGN_BINS.contains(&spec.name) {
        kinds.push(RunKind::Campaign);
    }
    let mut runs = Vec::new();
    for kind in kinds {
        runs.push(run_once(cfg, spec, kind, out_dir)?);
    }
    for pair in runs.windows(2) {
        compare_runs(spec.name, &pair[0], &pair[1])?;
    }
    println!(
        "[determinism] ok {} ({} runs, stdout {:016x}{})",
        spec.name,
        runs.len(),
        fnv1a(runs[0].stdout.as_bytes()),
        runs[0]
            .json
            .as_ref()
            .map(|j| format!(", json {:016x}", fnv1a(j.as_bytes())))
            .unwrap_or_default(),
    );
    Ok(())
}

fn run_once(
    cfg: &Config,
    spec: &BinSpec,
    kind: RunKind,
    out_dir: &Path,
) -> Result<RunOutput, String> {
    let bin = cfg.root.join("target").join("release").join(spec.name);
    let json_path = out_dir.join(format!("{}_{}.json", spec.name, kind.label()));
    let mut cmd = Command::new(&bin);
    cmd.current_dir(&cfg.root);
    if spec.takes_trials {
        cmd.arg(cfg.trials.to_string());
    }
    if spec.json {
        cmd.arg("--json").arg(&json_path);
    }
    if kind == RunKind::Campaign {
        // A fresh checkpoint directory per run: the leg proves the
        // streaming aggregation path, not resume (the CI smoke job and
        // the bench integration tests cover resume).
        let cp_dir = out_dir.join(format!("{}_campaign_cp", spec.name));
        let _ = std::fs::remove_dir_all(&cp_dir);
        cmd.arg("--campaign").arg("--checkpoint-dir").arg(&cp_dir);
    }
    if let Some(threads) = kind.threads() {
        cmd.env("BENCH_THREADS", threads);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !output.status.success() {
        return Err(format!(
            "run {} exited with {} — stderr tail:\n{}",
            kind.label(),
            output.status,
            tail(&String::from_utf8_lossy(&output.stderr), 5)
        ));
    }
    let stdout = normalize_stdout(&String::from_utf8_lossy(&output.stdout));
    std::fs::write(
        out_dir.join(format!("{}_{}.stdout", spec.name, kind.label())),
        &stdout,
    )
    .map_err(|e| format!("cannot record stdout: {e}"))?;
    let json = if spec.json {
        let raw = std::fs::read_to_string(&json_path).map_err(|e| {
            format!(
                "run {} wrote no artefact at {}: {e}",
                kind.label(),
                json_path.display()
            )
        })?;
        Some(normalize_json(&raw))
    } else {
        None
    };
    Ok(RunOutput {
        label: kind.label(),
        stdout,
        json,
    })
}

/// Byte-compares two runs' normalised outputs, reporting the first
/// divergent line of whichever stream differs.
fn compare_runs(bin: &str, a: &RunOutput, b: &RunOutput) -> Result<(), String> {
    if a.stdout != b.stdout {
        return Err(format!(
            "stdout diverges between runs `{}` and `{}`:\n{}",
            a.label,
            b.label,
            first_divergence(&a.stdout, &b.stdout)
        ));
    }
    if a.json != b.json {
        let (ja, jb) = (
            a.json.as_deref().unwrap_or(""),
            b.json.as_deref().unwrap_or(""),
        );
        return Err(format!(
            "JSON artefact diverges between runs `{}` and `{}` of {bin}:\n{}",
            a.label,
            b.label,
            first_divergence(ja, jb)
        ));
    }
    Ok(())
}

/// The diff excerpt: the first line where the two texts disagree, with its
/// 1-based line number and both versions.
fn first_divergence(a: &str, b: &str) -> String {
    let mut la = a.lines();
    let mut lb = b.lines();
    let mut n = 0u32;
    loop {
        n += 1;
        match (la.next(), lb.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (Some(x), Some(y)) => {
                return format!("  line {n}:\n  - {x}\n  + {y}");
            }
            (Some(x), None) => return format!("  line {n} only in first run:\n  - {x}"),
            (None, Some(y)) => return format!("  line {n} only in second run:\n  + {y}"),
            (None, None) => return "  (no textual divergence — lengths differ?)".into(),
        }
    }
}

/// Drops `[artefact] <path>` lines: they name the run-specific output path,
/// which legitimately differs between runs.
fn normalize_stdout(raw: &str) -> String {
    let mut out = String::new();
    for line in raw.lines() {
        if line.starts_with("[artefact]") {
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Neutralises the wall-clock-defined artefact fields (`trials_per_sec`,
/// `peak_rss_kb`, `events_per_sec`, and the span profile's `wall_ns` /
/// `self_wall_ns`) so the comparison covers exactly the
/// simulation-deterministic content.
///
/// Field matching is exact: the needle includes the opening quote, so
/// `wall_ns` does not also swallow `self_wall_ns` (each is listed).
fn normalize_json(raw: &str) -> String {
    let mut s = raw.to_string();
    for field in [
        "trials_per_sec",
        "peak_rss_kb",
        "events_per_sec",
        "wall_ns",
        "self_wall_ns",
    ] {
        s = neutralize_field(&s, field);
    }
    s
}

/// Replaces every `"<field>":<number-or-null>` value with `0`.
fn neutralize_field(s: &str, field: &str) -> String {
    let needle = format!("\"{field}\":");
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find(&needle) {
        let after = pos + needle.len();
        out.push_str(&rest[..after]);
        out.push('0');
        let tail = &rest[after..];
        let end = tail
            .find(|c: char| {
                !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'n' || c == 'u' || c == 'l')
            })
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// FNV-1a 64-bit, for the one-line per-binary fingerprint in the report.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Last `n` lines of a string (for stderr excerpts on run failure).
fn tail(s: &str, n: usize) -> String {
    let lines: Vec<&str> = s.lines().collect();
    let start = lines.len().saturating_sub(n);
    lines[start..].join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artefact_lines_are_dropped_from_stdout() {
        let raw = "header\n[artefact] /tmp/x_a.json\nrow 1\n";
        assert_eq!(normalize_stdout(raw), "header\nrow 1\n");
    }

    #[test]
    fn wall_clock_fields_are_neutralised() {
        let raw = r#"{"mean":2.000,"events_per_sec":2293891.9,"trials_per_sec":4165.5,"peak_rss_kb":3256}"#;
        let n = normalize_json(raw);
        assert_eq!(
            n,
            r#"{"mean":2.000,"events_per_sec":0,"trials_per_sec":0,"peak_rss_kb":0}"#
        );
        // `null` RSS (non-Linux) normalises to the same bytes as a number.
        let raw_null = r#"{"peak_rss_kb":null,"x":1}"#;
        assert_eq!(normalize_json(raw_null), r#"{"peak_rss_kb":0,"x":1}"#);
    }

    #[test]
    fn span_wall_fields_are_neutralised_but_sim_fields_kept() {
        let raw = r#"{"phase":"trial-sync","count":1,"sim_ns":100000000,"self_sim_ns":99648000,"wall_ns":104802,"self_wall_ns":98975}"#;
        let n = normalize_json(raw);
        assert_eq!(
            n,
            r#"{"phase":"trial-sync","count":1,"sim_ns":100000000,"self_sim_ns":99648000,"wall_ns":0,"self_wall_ns":0}"#
        );
    }

    #[test]
    fn neutralisation_preserves_simulation_fields() {
        let raw = r#"{"median":2,"variance":0.667,"raw":[2, 3, 1],"events_per_sec":1.5}"#;
        let n = normalize_json(raw);
        assert!(n.contains(r#""median":2"#));
        assert!(n.contains(r#""raw":[2, 3, 1]"#));
        assert!(n.contains(r#""events_per_sec":0"#));
    }

    #[test]
    fn first_divergence_names_the_line() {
        let a = "same\nalpha\ntail\n";
        let b = "same\nbeta\ntail\n";
        let d = first_divergence(a, b);
        assert!(d.contains("line 2"), "{d}");
        assert!(d.contains("- alpha"));
        assert!(d.contains("+ beta"));
        // One-sided tails are reported too.
        let d = first_divergence("x\ny\n", "x\n");
        assert!(d.contains("only in first run"));
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn fast_subset_is_a_subset_of_the_matrix() {
        for name in FAST_SUBSET {
            assert!(
                BINARIES.iter().any(|b| b.name == *name),
                "fast-subset binary {name} missing from the matrix"
            );
        }
    }

    #[test]
    fn campaign_bins_take_trials_and_write_artefacts() {
        for name in CAMPAIGN_BINS {
            let spec = BINARIES
                .iter()
                .find(|b| b.name == *name)
                .unwrap_or_else(|| panic!("campaign binary {name} missing from the matrix"));
            // The campaign leg compares the --json artefact against run
            // `a`, so the binary must produce one (and accept a trial
            // count so the leg stays cheap).
            assert!(spec.takes_trials && spec.json && spec.parallel, "{name}");
        }
    }
}
