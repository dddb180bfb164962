//! `cargo xtask gate` — the release-run gate.
//!
//! The lint rules (R7–R9) catch nondeterminism *sources* statically; this
//! task proves the *outcome* and holds it against the committed baselines
//! in `benchmarks/baselines/`, in one pass. It builds `bench` in release
//! once, then runs each experiment binary's legs once, at the binary's
//! fixed default seed and [`TRIALS`] trials per point:
//!
//! - `a` and `b`, a same-seed double run, for every binary;
//! - `t1` and `t4`, pinned to 1 and 4 campaign workers through
//!   `BENCH_THREADS`, for the sweeps;
//! - `resume`, for exp1, exp2 and exp6: a simulated kill
//!   (`--checkpoint-dir D --campaign-max-chunks 1`), then a run that
//!   resumes from the sidecars the kill left in the same fresh `D`.
//!
//! Every leg's stdout and `--json` artefact must equal leg `a`'s byte for
//! byte after the one normaliser ([`crate::determinism`]). Leg `a` is then
//! held against its baseline: a sweep's `BENCH_<name>.json` by the rules
//! of [`crate::perfgate`], a stdout-only binary's `BENCH_<name>.txt` byte
//! for byte.
//!
//! `--update-baselines` writes leg `a`'s outputs as the baselines instead
//! (review the diff before committing); a binary whose legs disagree gets
//! no baseline, and a baseline whose normalised content did not move is
//! left as it is. Every leg's outputs land in `target/gate/` for post-mortem
//! diffs, and the kill/resume sidecars in `target/gate/checkpoints/<name>/`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::determinism::{first_divergence, fnv1a, normalize_json, normalize_stdout};
use crate::perfgate::compare_artefacts;

/// Trials per sweep point. Must match the count the committed baselines
/// were captured with; a mismatch fails loudly on the exact `trials` metric.
const TRIALS: &str = "5";

/// What a binary writes, which decides its legs and its baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Takes a trial count and writes a `--json` artefact. Its points fan
    /// trials out over the campaign engine's workers, so it also runs the
    /// thread legs.
    Sweep,
    /// A sweep that also runs the kill/resume leg.
    Resumable,
    /// Writes stdout only.
    Stdout,
}

impl Kind {
    fn legs(self) -> &'static [Leg] {
        match self {
            Kind::Sweep => &[Leg::A, Leg::B, Leg::Threads1, Leg::Threads4],
            Kind::Resumable => &[Leg::A, Leg::B, Leg::Threads1, Leg::Threads4, Leg::Resume],
            Kind::Stdout => &[Leg::A, Leg::B],
        }
    }

    fn writes_json(self) -> bool {
        matches!(self, Kind::Sweep | Kind::Resumable)
    }
}

/// Every gated binary. `timeline` and `profile` are left out: a narrated
/// demo trace and a profile renderer, not experiments.
const BINARIES: [(&str, Kind); 13] = [
    ("exp1_hop_interval", Kind::Resumable),
    ("exp2_payload_size", Kind::Resumable),
    ("exp3_distance", Kind::Sweep),
    ("exp4_wall", Kind::Sweep),
    ("exp5_multi_conn", Kind::Sweep),
    ("exp6_dense_band", Kind::Resumable),
    ("ablation_phy2m", Kind::Sweep),
    ("ablation_sync_noise", Kind::Sweep),
    ("ablation_widening", Kind::Sweep),
    ("ablation_faults", Kind::Sweep),
    ("scenarios", Kind::Stdout),
    ("encrypted_countermeasure", Kind::Stdout),
    ("ids_detection", Kind::Stdout),
];

/// One leg of a binary's run matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Leg {
    A,
    B,
    Threads1,
    Threads4,
    Resume,
}

impl Leg {
    fn label(self) -> &'static str {
        match self {
            Leg::A => "a",
            Leg::B => "b",
            Leg::Threads1 => "t1",
            Leg::Threads4 => "t4",
            Leg::Resume => "resume",
        }
    }

    /// The `BENCH_THREADS` value this leg pins, if any.
    fn threads(self) -> Option<&'static str> {
        match self {
            Leg::Threads1 => Some("1"),
            Leg::Threads4 => Some("4"),
            Leg::A | Leg::B | Leg::Resume => None,
        }
    }
}

/// One leg's outputs: its normalised stdout and, for sweeps, its artefact
/// as written.
struct Run {
    leg: Leg,
    stdout: String,
    json: Option<String>,
}

/// Byte-compares a leg with leg `a` through the one normaliser, naming the
/// first divergent line of whichever stream differs.
fn compare_legs(a: &Run, other: &Run) -> Result<(), String> {
    let label = other.leg.label();
    if a.stdout != other.stdout {
        return Err(format!(
            "stdout diverges between legs `a` and `{label}` (- a, + {label}):\n{}",
            first_divergence(&a.stdout, &other.stdout)
        ));
    }
    let ja = a.json.as_deref().map(normalize_json).unwrap_or_default();
    let jo = other
        .json
        .as_deref()
        .map(normalize_json)
        .unwrap_or_default();
    if ja != jo {
        return Err(format!(
            "JSON artefact diverges between legs `a` and `{label}` (- a, + {label}):\n{}",
            first_divergence(&ja, &jo)
        ));
    }
    Ok(())
}

/// A stdout-only binary's leg `a` against its baseline, byte for byte.
fn compare_stdout(baseline: &str, current: &str) -> Result<(), String> {
    if baseline == current {
        return Ok(());
    }
    Err(format!(
        "stdout differs from the baseline (- baseline, + leg a):\n{}\nif intended, \
         run `cargo xtask gate --update-baselines` and commit the diff",
        first_divergence(baseline, current)
    ))
}

/// Writes leg `a`'s output `current` as the baseline at `path`, unless
/// the committed baseline already holds the same content and passes: a
/// stdout baseline (normalised when it was written) byte for byte, and a
/// JSON artefact, given with leg `b`'s as `rerun`, after
/// [`normalize_json`] and under [`compare_artefacts`]' wall rules. Returns
/// whether the file was written.
fn update_baseline(path: &Path, current: &str, rerun: Option<&str>) -> Result<bool, String> {
    if let Ok(baseline) = std::fs::read_to_string(path) {
        let holds = match rerun {
            Some(rerun) => {
                normalize_json(&baseline) == normalize_json(current)
                    && compare_artefacts(&baseline, current, rerun).is_ok()
            }
            None => baseline == current,
        };
        if holds {
            return Ok(false);
        }
    }
    std::fs::write(path, current).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(true)
}

struct Gate {
    root: PathBuf,
    /// `target/gate/`: every leg's outputs and the kill/resume sidecars.
    out: PathBuf,
    update: bool,
}

fn parse_args(args: &[String]) -> Result<Gate, String> {
    let mut root = None;
    let mut update = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--update-baselines" => update = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                root = Some(PathBuf::from(v));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let root = root.map_or_else(crate::default_root, Ok)?;
    Ok(Gate {
        out: root.join("target").join("gate"),
        root,
        update,
    })
}

impl Gate {
    fn json_path(&self, name: &str, leg: Leg) -> PathBuf {
        self.out.join(format!("{name}_{}.json", leg.label()))
    }

    fn checkpoint_dir(&self, name: &str) -> PathBuf {
        self.out.join("checkpoints").join(name)
    }

    fn baseline_path(&self, name: &str, kind: Kind) -> PathBuf {
        let ext = if kind.writes_json() { "json" } else { "txt" };
        self.root
            .join("benchmarks")
            .join("baselines")
            .join(format!("BENCH_{name}.{ext}"))
    }

    /// The process launches of one leg, in order. Every leg is one launch
    /// except `resume`: a kill after one merged chunk per point, then a
    /// launch that resumes from the sidecars the kill left.
    fn launches(&self, name: &str, kind: Kind, leg: Leg) -> Vec<Command> {
        let launch = || {
            let mut cmd = Command::new(self.root.join("target").join("release").join(name));
            // Every binary gets the trial count; `scenarios` runs fixed
            // internal scenarios and ignores its arguments.
            cmd.current_dir(&self.root).arg(TRIALS);
            if kind.writes_json() {
                cmd.arg("--json").arg(self.json_path(name, leg));
            }
            if let Some(threads) = leg.threads() {
                cmd.env("BENCH_THREADS", threads);
            }
            cmd
        };
        let mut first = launch();
        if leg != Leg::Resume {
            return vec![first];
        }
        let dir = self.checkpoint_dir(name);
        first
            .arg("--checkpoint-dir")
            .arg(&dir)
            .args(["--campaign-max-chunks", "1"]);
        let mut resume = launch();
        resume.arg("--checkpoint-dir").arg(&dir);
        vec![first, resume]
    }

    /// Runs one leg's launches through `exec` (which returns a launch's
    /// stdout) and collects the last launch's outputs. The kill/resume leg
    /// starts from an empty checkpoint directory, so the kill never resumes
    /// an earlier gate's sidecars.
    fn run_leg(
        &self,
        name: &str,
        kind: Kind,
        leg: Leg,
        exec: &mut dyn FnMut(&mut Command) -> Result<String, String>,
    ) -> Result<Run, String> {
        let label = leg.label();
        if leg == Leg::Resume {
            let dir = self.checkpoint_dir(name);
            if dir.exists() {
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| format!("cannot empty {}: {e}", dir.display()))?;
            }
        }
        let mut stdout = String::new();
        for mut cmd in self.launches(name, kind, leg) {
            stdout = exec(&mut cmd).map_err(|e| format!("leg `{label}`: {e}"))?;
        }
        let stdout = normalize_stdout(&stdout);
        let stdout_path = self.out.join(format!("{name}_{label}.stdout"));
        std::fs::write(&stdout_path, &stdout)
            .map_err(|e| format!("cannot write {}: {e}", stdout_path.display()))?;
        let json = if kind.writes_json() {
            let path = self.json_path(name, leg);
            let text = std::fs::read_to_string(&path).map_err(|e| {
                format!("leg `{label}` wrote no artefact at {}: {e}", path.display())
            })?;
            Some(text)
        } else {
            None
        };
        Ok(Run { leg, stdout, json })
    }

    /// Runs one binary's legs, compares each with leg `a`, then holds `a`
    /// against its baseline or, under `--update-baselines`, writes it.
    /// `Ok` carries the one-line report.
    fn check(&self, name: &str, kind: Kind) -> Result<String, String> {
        let runs = kind
            .legs()
            .iter()
            .map(|&leg| self.run_leg(name, kind, leg, &mut exec))
            .collect::<Result<Vec<_>, _>>()?;
        let (a, b) = (&runs[0], &runs[1]);
        for other in &runs[1..] {
            compare_legs(a, other)?;
        }
        let json_print = a
            .json
            .as_deref()
            .map(|j| format!(", json {:016x}", fnv1a(normalize_json(j).as_bytes())))
            .unwrap_or_default();
        let legs = format!(
            "{} legs identical (stdout {:016x}{json_print})",
            runs.len(),
            fnv1a(a.stdout.as_bytes())
        );
        let path = self.baseline_path(name, kind);
        let current = a.json.as_deref().unwrap_or(&a.stdout);
        if self.update {
            return if update_baseline(&path, current, b.json.as_deref())? {
                Ok(format!("{legs}; baseline written to {}", path.display()))
            } else {
                Ok(format!("{legs}; baseline unchanged"))
            };
        }
        let baseline = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "no baseline at {} ({e}); run `cargo xtask gate \
                 --update-baselines` and commit it",
                path.display()
            )
        })?;
        let (Some(ja), Some(jb)) = (&a.json, &b.json) else {
            compare_stdout(&baseline, &a.stdout)?;
            return Ok(format!("{legs}; stdout matches the baseline"));
        };
        let stats = compare_artefacts(&baseline, ja, jb)?;
        let summed = stats
            .summed_ms
            .map(|(base, cur)| format!("; summed wall {cur:.2} ms vs baseline {base:.2} ms"))
            .unwrap_or_default();
        Ok(format!(
            "{legs}; {} metrics within the baseline, {} wall metrics skipped{summed}",
            stats.compared, stats.skipped
        ))
    }
}

/// Runs one launch to completion and returns its stdout.
fn exec(cmd: &mut Command) -> Result<String, String> {
    let program = Path::new(cmd.get_program()).display().to_string();
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {program}: {e}"))?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let lines: Vec<&str> = stderr.lines().collect();
        return Err(format!(
            "{program} exited with {} — stderr tail:\n{}",
            output.status,
            lines[lines.len().saturating_sub(5)..].join("\n")
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

pub fn run(args: &[String]) -> ExitCode {
    let gate = match parse_args(args) {
        Ok(gate) => gate,
        Err(msg) => {
            eprintln!("xtask gate: {msg}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!("[gate] building release binaries…");
    let status = Command::new("cargo")
        .args(["build", "--release", "-p", "bench"])
        .current_dir(&gate.root)
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("xtask gate: release build failed ({s})");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("xtask gate: cannot run cargo: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::create_dir_all(&gate.out) {
        eprintln!("xtask gate: cannot create {}: {e}", gate.out.display());
        return ExitCode::FAILURE;
    }

    let mut failures = 0usize;
    for (name, kind) in BINARIES {
        match gate.check(name, kind) {
            Ok(report) => println!("[gate] ok {name}: {report}"),
            Err(msg) => {
                eprintln!("[gate] FAIL {name}: {msg}");
                failures += 1;
            }
        }
    }

    let total = BINARIES.len();
    if failures > 0 {
        eprintln!("xtask gate: {failures} of {total} binaries failed");
        ExitCode::FAILURE
    } else if gate.update {
        println!("xtask gate: {total} baselines checked, moved ones rewritten");
        ExitCode::SUCCESS
    } else {
        println!("xtask gate: {total} binaries identical across legs and within their baselines");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stdout_baseline_mismatch_names_the_first_divergent_line() {
        let baseline = "=== IDS ===\nclean : runs flagged 0/5\nunder attack : runs flagged 5/5\n";
        compare_stdout(baseline, baseline).expect("identical stdout passes");
        let current = baseline.replace("flagged 5/5", "flagged 4/5");
        let err = compare_stdout(baseline, &current).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("- under attack : runs flagged 5/5"), "{err}");
        assert!(err.contains("+ under attack : runs flagged 4/5"), "{err}");
        assert!(err.contains("--update-baselines"), "{err}");
    }

    /// Runs [`update_baseline`] over a baseline file holding `committed`
    /// and returns whether it wrote, and the file's bytes after. A JSON
    /// baseline is refreshed with `current` as both legs' artefact.
    fn refresh(json: bool, committed: &str, current: &str) -> (bool, String) {
        let ext = if json { "json" } else { "txt" };
        let path = std::env::temp_dir().join(format!(
            "xtask_gate_baseline_{}_{ext}.{ext}",
            std::process::id()
        ));
        std::fs::write(&path, committed).unwrap();
        let written = update_baseline(&path, current, json.then_some(current)).unwrap();
        let after = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        (written, after)
    }

    #[test]
    fn a_json_baseline_is_rewritten_only_when_its_content_moved() {
        let committed = r#"[{"succeeded":5,"trials_per_sec":1200.5,"peak_rss_kb":3400}]"#;
        // Wall fields alone moved, within their rules: the committed bytes
        // stay.
        let wall_only = r#"[{"succeeded":5,"trials_per_sec":990.1,"peak_rss_kb":3512}]"#;
        assert_eq!(
            refresh(true, committed, wall_only),
            (false, committed.to_string())
        );
        // A wall field past its rule fails the gate, so the refresh writes
        // it although the normalised content is the same.
        let past_rule = r#"[{"succeeded":5,"trials_per_sec":990.1,"peak_rss_kb":9000}]"#;
        assert!(compare_artefacts(committed, past_rule, past_rule).is_err());
        assert_eq!(
            refresh(true, committed, past_rule),
            (true, past_rule.to_string())
        );
        let moved = r#"[{"succeeded":4,"trials_per_sec":990.1,"peak_rss_kb":3512}]"#;
        assert_eq!(refresh(true, committed, moved), (true, moved.to_string()));
    }

    #[test]
    fn a_stdout_baseline_is_rewritten_only_when_its_content_moved() {
        let committed = "=== IDS ===\nunder attack : runs flagged 5/5\n";
        assert_eq!(
            refresh(false, committed, committed),
            (false, committed.to_string())
        );
        let moved = committed.replace("5/5", "4/5");
        assert_eq!(refresh(false, committed, &moved), (true, moved));
    }

    #[test]
    fn a_missing_baseline_is_written() {
        let path = std::env::temp_dir().join(format!(
            "xtask_gate_missing_baseline_{}.txt",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        assert!(update_baseline(&path, "row\n", None).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "row\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_kill_resume_leg_resumes_from_the_same_fresh_directory() {
        let root = std::env::temp_dir().join(format!("xtask_gate_resume_{}", std::process::id()));
        let gate = Gate {
            out: root.join("target").join("gate"),
            root: root.clone(),
            update: false,
        };
        let name = "exp1_hop_interval";
        let dir = gate.checkpoint_dir(name);
        let (stale, sidecar) = (dir.join("stale.jsonl"), dir.join("point.jsonl"));
        let json = gate.json_path(name, Leg::Resume);
        // A sidecar left by an earlier gate must not be resumed.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&stale, "{}\n").unwrap();

        let mut seen = Vec::new();
        let mut fake = |cmd: &mut Command| {
            let args: Vec<String> = cmd
                .get_args()
                .map(|a| a.to_string_lossy().into_owned())
                .collect();
            seen.push((args, stale.exists(), sidecar.exists()));
            // The kill leaves a sidecar; each launch writes the artefact.
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&sidecar, "{}\n").unwrap();
            std::fs::write(&json, "[]\n").unwrap();
            Ok(format!("row\n[artefact] {}\n", json.display()))
        };
        let run = gate
            .run_leg(name, Kind::Resumable, Leg::Resume, &mut fake)
            .unwrap();

        let (d, j) = (dir.display().to_string(), json.display().to_string());
        let kill = [
            "5",
            "--json",
            &j,
            "--checkpoint-dir",
            &d,
            "--campaign-max-chunks",
            "1",
        ];
        let resume = ["5", "--json", &j, "--checkpoint-dir", &d];
        // The kill starts from an empty directory; the resume sees its sidecar.
        assert_eq!(
            seen,
            [
                (kill.map(String::from).to_vec(), false, false),
                (resume.map(String::from).to_vec(), false, true)
            ]
        );
        assert_eq!(run.stdout, "row\n");
        assert_eq!(run.json.as_deref(), Some("[]\n"));
        std::fs::remove_dir_all(&root).ok();
    }
}
