//! Building the experiment binaries and running one invocation of a
//! workload's binary as a timed subprocess.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::artefact::{parse_rows, Row};
use crate::catalogue::{Workload, WORKLOADS};

/// The repository root (this package lives in `benchmarks/e2e`).
pub fn repo_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    here.ancestors()
        .nth(2)
        .expect("benchmarks/e2e sits two levels below the root")
        .to_path_buf()
}

/// Where cargo puts release builds: `CARGO_TARGET_DIR` (relative to the
/// working directory, as cargo reads it) or the root's `target/`.
pub fn target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map(|cwd| cwd.join(&dir))
            .unwrap_or_else(|_| PathBuf::from(dir)),
        None => repo_root().join("target"),
    }
}

/// Scratch directory for artefacts and traces.
pub fn work_dir() -> PathBuf {
    repo_root().join("target").join("e2e")
}

/// A started wall-clock timer. The harness prices whole subprocesses, so
/// it reads host time directly; the simulator crates' R8 quarantine
/// (`bench::wallclock`) is not linked into this std-only package.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts timing now.
    #[allow(clippy::disallowed_methods)]
    pub fn start() -> Stopwatch {
        Stopwatch(std::time::Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Runs `cargo <args>` against the repository and fails on a non-zero
/// exit. Cargo's own errors go straight to stderr.
fn cargo(args: &[&str]) -> Result<(), String> {
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(args)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("`cargo {}` failed ({status})", args.join(" ")))
    }
}

/// Release-builds the package at `manifest` (relative to the repository
/// root) into [`target_dir`]. Not timed.
fn build(manifest: &str, extra: &[&str]) -> Result<(), String> {
    let manifest = repo_root().join(manifest);
    let target = target_dir();
    let (Some(manifest), Some(target)) = (manifest.to_str(), target.to_str()) else {
        return Err("repository path is not UTF-8".into());
    };
    let mut args = vec![
        "build",
        "--release",
        "--quiet",
        "--manifest-path",
        manifest,
        "--target-dir",
        target,
    ];
    args.extend_from_slice(extra);
    cargo(&args)
}

/// Builds the workloads' experiment binaries.
pub fn build_binaries() -> Result<(), String> {
    let mut args = vec!["-p", "bench"];
    for w in &WORKLOADS {
        args.extend(["--bin", w.binary]);
    }
    build("Cargo.toml", &args)
}

/// Builds the traced replica (`trace/`), returning its executable.
pub fn build_tracer() -> Result<PathBuf, String> {
    build("benchmarks/e2e/trace/Cargo.toml", &[])?;
    Ok(target_dir().join("release").join("e2e-trace"))
}

/// One finished invocation of a workload's binary.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// The artefact rows.
    pub rows: Vec<Row>,
    /// Subprocess wall time, spawn to exit (s).
    pub wall_s: f64,
}

impl Invocation {
    /// Largest row peak RSS (kB).
    pub fn peak_rss_kb(&self) -> u64 {
        self.rows
            .iter()
            .filter_map(|r| r.peak_rss_kb)
            .max()
            .unwrap_or(0)
    }

    /// Trials that panicked.
    pub fn panicked(&self) -> u64 {
        self.rows.iter().map(|r| r.panicked).sum()
    }
}

/// Runs `w`'s binary with `per_point` trials per point from seed base
/// `seed` on `threads` worker threads, timing the whole subprocess, and
/// reads back its artefact. The artefact file is removed first, so a stale
/// one can never stand in for a run that wrote nothing.
pub fn invoke(w: &Workload, per_point: u64, seed: u64, threads: u32) -> Result<Invocation, String> {
    let dir = work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let out = dir.join(format!("{}.json", w.binary));
    match std::fs::remove_file(&out) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("{}: {e}", out.display())),
    }
    let bin = target_dir().join("release").join(w.binary);
    let sw = Stopwatch::start();
    let output = Command::new(&bin)
        .arg(per_point.to_string())
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--json")
        .arg(&out)
        .env("BENCH_THREADS", threads.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let wall_s = sw.elapsed_s();
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!(
            "{} {per_point} --seed {seed} failed ({}): {}",
            w.binary,
            output.status,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let rows = parse_rows(&text).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(Invocation { rows, wall_s })
}
