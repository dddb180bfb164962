//! Workspace automation tasks, invoked as `cargo xtask <task>`.
//!
//! * `lint` — a custom static-analysis pass enforcing the
//!   protocol-robustness and determinism rules R1–R9 described in
//!   `DEVELOPMENT.md`. It is written against a minimal hand-rolled lexer
//!   ([`lexer`]) because the workspace builds fully offline — no `syn`, no
//!   network. `lint --waivers` audits every `// xtask-allow` comment
//!   instead, failing on waivers without a `— reason` suffix.
//! * `gate` — the release-run gate: builds release once, runs every
//!   experiment binary's legs (same-seed double run, 1 vs. 4 worker
//!   threads, kill then resume), fails on any byte divergence between
//!   legs, and holds the outputs against `benchmarks/baselines/`. Its
//!   normaliser lives in [`determinism`], its baseline rules in
//!   [`perfgate`].
//!
//! Exit status: 0 when clean, 1 on any violation/divergence/regression (or
//! I/O failure), so CI can gate on either task directly.

#![forbid(unsafe_code)]

mod determinism;
mod gate;
mod perfgate;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::rules::{self, RuleSet};

/// Crates whose `src/` is held to all the hot-path rules: the protocol hot
/// path. `ble-telemetry` qualifies because its sinks run inline on that hot
/// path (every PHY/LL event passes through [`TelemetrySink::emit`]), and
/// `json-reader` because it parses files a kill can tear or a user can
/// hand-edit.
const PROTOCOL_CRATES: &[&str] = &[
    "ble-link",
    "ble-phy",
    "ble-crypto",
    "ble-telemetry",
    "json-reader",
];

/// Crates exempt from the hot-path rules R1–R3 (still checked for R4 and
/// the determinism rules). `injectable` and `bench` are attack tooling and
/// measurement harnesses — they may assert; `ble-invariants` is the audited
/// sink for masked casts; `simkit` is simulation infrastructure whose time
/// operators are the checked arithmetic the protocol crates rely on; the
/// device/host crates model application behaviour, not the radio hot path.
const R1_EXEMPT_NOTE: &[&str] = &[
    "injectable",
    "bench",
    "ble-invariants",
    "simkit",
    "ble-devices",
    "ble-host",
    "ble-scenario",
];

/// Crates that consume the `World` arena: rule R5 bans the pre-arena
/// `Rc<RefCell<…>>` node-graph pattern from their `src/`, `tests/`,
/// `benches/` and `src/bin/` trees. The workspace-level `examples/` and
/// `tests/` directories are held to the same rule (see [`lint`]).
const R5_ARENA_CONSUMERS: &[&str] = &["bench", "injectable", "ble-devices", "ble-scenario"];

/// Crates whose `pub` structs face the radio frame pipeline: rule R6 bans
/// `Vec<u8>` fields there so the zero-allocation delivery path cannot
/// silently regrow heap buffers (use the inline `ble_phy::Pdu` instead).
const R6_FRAME_FACING: &[&str] = &["ble-phy", "ble-host"];

/// Crates whose `src/` carries simulation-order-sensitive state: rule R7
/// bans `HashMap`/`HashSet` there, because anything iterated in hash order
/// (delivery scans, RNG-consuming interference loops, report aggregation)
/// silently breaks seed-for-seed replay the moment two entries coexist.
const R7_ORDER_SENSITIVE: &[&str] = &[
    "ble-phy",
    "ble-link",
    "ble-host",
    "simkit",
    "injectable",
    "ble-scenario",
    "bench",
];

/// Files exempt from R7: the reporting module aggregates *after* the
/// simulation has finished and emits through sorted (`BTreeMap`) or
/// seed-ordered structures only — audited whenever this list changes.
const R7_EXEMPT_FILES: &[&str] = &["crates/bench/src/report.rs"];

/// The single wall-clock quarantine: rule R8 bans `std::time::Instant` /
/// `SystemTime` everywhere else. Throughput and RSS pricing call into this
/// module; simulation logic never reads host time at all.
const R8_QUARANTINE_FILES: &[&str] = &["crates/bench/src/wallclock.rs"];

/// The ruleset for trees outside any crate's `src/` (workspace `examples/`
/// and `tests/`, crate `tests/`/`benches/` of arena consumers): the
/// arena-ownership rule plus the workspace-wide determinism rules. R7 is
/// deliberately absent — a test asserting over a scratch `HashMap` it never
/// iterates is harmless — but wall-clock reads and unseeded RNG corrupt
/// replayability no matter where they live.
const TREE_RULES: RuleSet = RuleSet {
    r5: true,
    r8: true,
    r9: true,
    ..RuleSet::none()
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("gate") => gate::run(&args[1..]),
        Some("help") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!("usage: cargo xtask <task>");
    eprintln!();
    eprintln!("tasks:");
    eprintln!(
        "  lint [--root <dir>]          run the protocol + determinism lints (R1-R9) \
         over crates/*/src, examples/ and tests/"
    );
    eprintln!(
        "  lint --waivers [--root <dir>]  audit every `// xtask-allow` waiver; \
         fails on waivers without a `— reason` suffix"
    );
    eprintln!(
        "  gate [--update-baselines] [--root <dir>]  build release, prove every \
         experiment binary byte-identical across its legs (same-seed double \
         run, 1 vs. 4 threads, kill then resume) and hold its outputs against \
         benchmarks/baselines/ (sim-deterministic metrics exactly, wall-clock \
         metrics within tolerance)"
    );
}

/// The lint file walk: every `(path, ruleset)` pair the pass covers, sorted
/// by path within each tree. Shared between the violation pass and the
/// `--waivers` audit so both see the same universe of files.
fn lint_targets(root: &Path) -> Result<Vec<(PathBuf, RuleSet)>, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut targets = Vec::new();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name == "xtask" {
            continue; // the linter does not lint itself
        }
        let mut ruleset = if PROTOCOL_CRATES.contains(&name.as_str()) {
            RuleSet::protocol()
        } else {
            debug_assert!(
                R1_EXEMPT_NOTE.contains(&name.as_str()),
                "new crate `{name}` must be classified in xtask/src/main.rs"
            );
            RuleSet::general()
        };
        if R5_ARENA_CONSUMERS.contains(&name.as_str()) {
            ruleset = ruleset.with_r5();
        }
        if R6_FRAME_FACING.contains(&name.as_str()) {
            ruleset = ruleset.with_r6();
        }
        if R7_ORDER_SENSITIVE.contains(&name.as_str()) {
            ruleset = ruleset.with_r7();
        }
        let mut sources = Vec::new();
        collect_rs_files(&dir.join("src"), &mut sources);
        sources.sort();
        for path in sources {
            let rules = file_ruleset(&path, root, ruleset);
            targets.push((path, rules));
        }
        // A crate's tests and benches are exempt from the hot-path rules but
        // not from the arena-ownership and determinism rules: shared-pointer
        // world building and wall-clock reads tend to creep back in through
        // test rigs first.
        if R5_ARENA_CONSUMERS.contains(&name.as_str()) {
            let mut extra = Vec::new();
            collect_rs_files(&dir.join("tests"), &mut extra);
            collect_rs_files(&dir.join("benches"), &mut extra);
            extra.sort();
            for path in extra {
                targets.push((path, TREE_RULES));
            }
        }
    }

    // Workspace-level examples and integration tests build worlds too.
    for tree in ["examples", "tests"] {
        let mut sources = Vec::new();
        collect_rs_files(&root.join(tree), &mut sources);
        sources.sort();
        for path in sources {
            targets.push((path, TREE_RULES));
        }
    }
    Ok(targets)
}

/// Applies per-file exemptions (the R8 quarantine module, the R7-whitelisted
/// reporting module) to a crate-level ruleset.
fn file_ruleset(path: &Path, root: &Path, mut rules: RuleSet) -> RuleSet {
    let rel = rel_slash(path, root);
    if R7_EXEMPT_FILES.iter().any(|f| rel == *f) {
        rules.r7 = false;
    }
    if R8_QUARANTINE_FILES.iter().any(|f| rel == *f) {
        rules.r8 = false;
    }
    rules
}

/// Workspace-relative path with `/` separators (for exemption matching and
/// stable report output).
fn rel_slash(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn lint(args: &[String]) -> ExitCode {
    let (root, waivers_mode) = match parse_lint_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("xtask lint: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let targets = match lint_targets(&root) {
        Ok(targets) => targets,
        Err(msg) => {
            eprintln!("xtask lint: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if waivers_mode {
        return audit_waivers(&root, &targets);
    }

    let mut violations = 0usize;
    let mut files = 0usize;
    for (path, rules) in &targets {
        lint_file(path, &root, *rules, &mut files, &mut violations);
    }

    if violations > 0 {
        eprintln!("xtask lint: {violations} violation(s) in {files} file(s)");
        ExitCode::FAILURE
    } else {
        println!("xtask lint: clean ({files} files)");
        ExitCode::SUCCESS
    }
}

/// `lint --waivers`: lists every `// xtask-allow` comment with file, line,
/// rules and reason, and fails when any waiver lacks a reason. The waiver
/// inventory *is* the audit trail for every place a rule is deliberately
/// broken, so a waiver that does not say why is treated as a violation.
fn audit_waivers(root: &Path, targets: &[(PathBuf, RuleSet)]) -> ExitCode {
    let mut total = 0usize;
    let mut bare = 0usize;
    for (path, _) in targets {
        let Ok(src) = std::fs::read_to_string(path) else {
            eprintln!("xtask lint: cannot read {}", path.display());
            bare += 1;
            continue;
        };
        for entry in rules::collect_waiver_entries(&src) {
            total += 1;
            let rel = rel_slash(path, root);
            let rules_list = entry
                .rules
                .iter()
                .map(|r| format!("R{r}"))
                .collect::<Vec<_>>()
                .join(",");
            match &entry.reason {
                Some(reason) => {
                    println!("{rel}:{}: {rules_list} — {reason}", entry.line);
                }
                None => {
                    bare += 1;
                    println!(
                        "{rel}:{}: {rules_list} — MISSING REASON (add `— why this \
                         site is safe` to the waiver)",
                        entry.line
                    );
                }
            }
        }
    }
    if bare > 0 {
        eprintln!("xtask lint --waivers: {bare} of {total} waiver(s) missing a reason");
        ExitCode::FAILURE
    } else {
        println!("xtask lint --waivers: {total} waiver(s), all with reasons");
        ExitCode::SUCCESS
    }
}

/// Parses `[--waivers] [--root <dir>]` in any order.
fn parse_lint_args(args: &[String]) -> Result<(PathBuf, bool), String> {
    let mut root = None;
    let mut waivers = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--waivers" => waivers = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return Err("--root needs a directory argument".into()),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((root.map_or_else(default_root, Ok)?, waivers))
}

/// The workspace root inferred from this binary's manifest directory
/// (`crates/xtask` → two levels up), falling back to the current directory.
pub(crate) fn default_root() -> Result<PathBuf, String> {
    if let Some(manifest) = std::env::var_os("CARGO_MANIFEST_DIR") {
        let manifest = PathBuf::from(manifest);
        if let Some(root) = manifest.parent().and_then(Path::parent) {
            return Ok(root.to_path_buf());
        }
    }
    std::env::current_dir().map_err(|e| format!("cannot determine workspace root: {e}"))
}

fn lint_file(
    path: &Path,
    root: &Path,
    ruleset: RuleSet,
    files: &mut usize,
    violations: &mut usize,
) {
    *files += 1;
    let src = match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("xtask lint: cannot read {}: {e}", path.display());
            *violations += 1;
            return;
        }
    };
    for v in rules::lint_source(&src, ruleset) {
        println!(
            "{}:{}: R{}: {}",
            rel_slash(path, root),
            v.line,
            v.rule,
            v.msg
        );
        *violations += 1;
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
