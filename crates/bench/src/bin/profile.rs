//! Per-phase profiler: runs one close-range trial with a JSONL telemetry
//! sink, then renders its spans three ways:
//!
//!   1. a per-phase table (count, total/self sim time, total/self wall time)
//!      from the trial's metrics, which total every span kind,
//!   2. a per-channel airtime table (from the trace's `channel-airtime`
//!      span exits),
//!   3. a collapsed-stack file in the common flamegraph input format
//!      (`frame;frame count`, one line per distinct stack — feed it to any
//!      `flamegraph.pl`-compatible renderer), from the trace's span nesting.
//!
//! Collapsed-stack counts are **self sim-time in µs**, so the flamegraph is
//! byte-stable across equally-seeded runs; wall-clock only appears in the
//! (clearly marked) table columns.
//!
//! Usage:
//!   profile [--seed N] [--out DIR]
//!
//! Writes `profile.folded` (and the trace it was derived from) under the
//! artefact directory, or `--out DIR` when given.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::ExitCode;

use bench::report::artefact_dir;
use bench::telemetry::{PhaseProfile, TelemetryMode};
use bench::trial::{run_trial, TrialConfig};
use ble_scenario::ScenarioBuilder;
use ble_telemetry::{parse_line, SpanKind, TelemetryEvent, TelemetryRecord};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 42u64;
    let mut out_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(seed);
            }
            "--out" => {
                i += 1;
                out_dir = args.get(i).map(PathBuf::from);
            }
            other => {
                eprintln!("profile: unknown argument {other}");
                eprintln!("usage: profile [--seed N] [--out DIR]");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let dir = out_dir.unwrap_or_else(artefact_dir);
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("profile: cannot create {}: {err}", dir.display());
        return ExitCode::FAILURE;
    }
    let trace_path = dir.join("profile-trial.jsonl");

    println!("[profile] one close-range trial (seed {seed}) with a JSONL sink…");
    let cfg = TrialConfig {
        telemetry: TelemetryMode::Jsonl(trace_path.clone()),
        ..TrialConfig::default()
    };
    let outcome = run_trial(ScenarioBuilder::paper_rig(seed), &cfg);
    println!(
        "[profile] trial done: attempts={:?} sim_seconds={:.1}",
        outcome.attempts, outcome.sim_seconds
    );

    let file = match std::fs::File::open(&trace_path) {
        Ok(f) => f,
        Err(err) => {
            eprintln!("profile: cannot open {}: {err}", trace_path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut records = Vec::new();
    for line in std::io::BufReader::new(file).lines() {
        let Ok(line) = line else { break };
        if let Some(r) = parse_line(&line) {
            records.push(r);
        }
    }
    if records.is_empty() {
        eprintln!("profile: no records in {}", trace_path.display());
        return ExitCode::FAILURE;
    }

    let phases = outcome.metrics.map(|m| m.phase_profile).unwrap_or_default();
    print!("{}", phase_table(&phases));
    print!("{}", airtime_table(&records));

    let folded = collapse_stacks(&records);
    let folded_path = dir.join("profile.folded");
    match std::fs::write(&folded_path, &folded) {
        Ok(()) => {
            println!("[artefact] {}", trace_path.display());
            println!("[artefact] {} (collapsed stacks)", folded_path.display());
        }
        Err(err) => {
            eprintln!("profile: cannot write {}: {err}", folded_path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The per-phase table: one row per span kind that closed, in kind order.
fn phase_table(phases: &[PhaseProfile]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out);
    let _ = writeln!(out, "=== per-phase profile ===");
    let _ = writeln!(
        out,
        "{:<16} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "phase", "count", "sim_ms", "self_sim_ms", "wall_ms*", "self_wall_ms*"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    for a in phases {
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            a.phase,
            a.count,
            a.sim_ns as f64 / 1e6,
            a.self_sim_ns as f64 / 1e6,
            a.wall_ns as f64 / 1e6,
            a.self_wall_ns as f64 / 1e6,
        );
    }
    let _ = writeln!(
        out,
        "(* wall-clock columns are machine-dependent and excluded from \
         artefact byte-identity)"
    );
    out
}

fn airtime_table(records: &[TelemetryRecord]) -> String {
    use std::fmt::Write as _;
    // channel → (tx count, sim airtime ns)
    let mut lanes: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for r in records {
        if let TelemetryEvent::SpanExit {
            kind: SpanKind::ChannelAirtime,
            detail,
            sim_ns,
            ..
        } = &r.event
        {
            let lane = lanes.entry(*detail).or_insert((0, 0));
            lane.0 += 1;
            lane.1 += sim_ns;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out);
    let _ = writeln!(out, "=== per-channel airtime (sim time) ===");
    if lanes.is_empty() {
        let _ = writeln!(out, "(no channel-airtime spans in this trace)");
        return out;
    }
    let max = lanes.values().map(|(_, ns)| *ns).max().unwrap_or(1).max(1);
    for (ch, (count, ns)) in &lanes {
        let bar = ((*ns * 40).div_ceil(max)).min(40) as usize;
        let _ = writeln!(
            out,
            "  ch {ch:>2} | {:<40} {count:>5} tx {:>9.3} ms",
            "#".repeat(bar),
            *ns as f64 / 1e6,
        );
    }
    out
}

/// Folds the trace's span exits into collapsed-stack lines
/// (`track;frame;frame count`). One track per emitting node (rooted at its
/// label) plus a `harness` track for node-less spans — spans from different
/// nodes interleave in the trace without truly nesting, so chaining them
/// into one stack would manufacture fictitious parent/child edges. Counts
/// are **self sim-time in µs** so the output is deterministic.
fn collapse_stacks(records: &[TelemetryRecord]) -> String {
    // Node labels for the stack roots.
    let mut labels: BTreeMap<u32, String> = BTreeMap::new();
    for r in records {
        if let (Some(node), TelemetryEvent::NodeAdded { label }) = (r.node, &r.event) {
            labels.entry(node).or_insert_with(|| label.clone());
        }
    }
    let root = |node: Option<u32>| -> String {
        match node {
            Some(n) => labels
                .get(&n)
                .cloned()
                .unwrap_or_else(|| format!("node{n}")),
            None => "harness".to_string(),
        }
    };
    // Per-track open-span stacks: (id, full path). Exit records carry the
    // entering node, so the track key matches on both sides.
    let mut open: BTreeMap<Option<u32>, Vec<(u32, String)>> = BTreeMap::new();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for r in records {
        match &r.event {
            TelemetryEvent::SpanEnter { id, kind, .. } => {
                let track = open.entry(r.node).or_default();
                let path = match track.last() {
                    Some((_, parent)) => format!("{parent};{}", kind.as_str()),
                    None => format!("{};{}", root(r.node), kind.as_str()),
                };
                track.push((*id, path));
            }
            TelemetryEvent::SpanExit {
                id, self_sim_ns, ..
            } => {
                let Some(track) = open.get_mut(&r.node) else {
                    continue;
                };
                let Some(pos) = track.iter().rposition(|(oid, _)| oid == id) else {
                    continue;
                };
                let (_, path) = track.remove(pos);
                *folded.entry(path).or_insert(0) += self_sim_ns / 1_000;
            }
            // Everything that is not a span boundary contributes nothing to
            // the stacks; listed explicitly so new event kinds force a
            // decision here (R4).
            TelemetryEvent::NodeAdded { .. }
            | TelemetryEvent::TxStart { .. }
            | TelemetryEvent::TxEnd
            | TelemetryEvent::RxLock { .. }
            | TelemetryEvent::Relock { .. }
            | TelemetryEvent::RxEnd { .. }
            | TelemetryEvent::Collision { .. }
            | TelemetryEvent::InterferenceSpill { .. }
            | TelemetryEvent::Anchor { .. }
            | TelemetryEvent::WindowOpen { .. }
            | TelemetryEvent::Hop { .. }
            | TelemetryEvent::SnNesn { .. }
            | TelemetryEvent::CrcFail { .. }
            | TelemetryEvent::LlControl { .. }
            | TelemetryEvent::ConnectionEstablished { .. }
            | TelemetryEvent::ConnectionClosed { .. }
            | TelemetryEvent::SnifferSync { .. }
            | TelemetryEvent::SnifferLost { .. }
            | TelemetryEvent::InjectionAttempt { .. }
            | TelemetryEvent::HeuristicVerdict { .. }
            | TelemetryEvent::AnchorPrediction { .. }
            | TelemetryEvent::IfsDelta { .. }
            | TelemetryEvent::Takeover { .. }
            | TelemetryEvent::DetectorAlert { .. }
            | TelemetryEvent::PoolExhausted { .. }
            | TelemetryEvent::SlotDenied
            | TelemetryEvent::ConnEstablished { .. }
            | TelemetryEvent::ConnReleased { .. }
            | TelemetryEvent::PoolHighWater { .. }
            | TelemetryEvent::FaultBurst { .. }
            | TelemetryEvent::FaultEpisode { .. }
            | TelemetryEvent::FaultFrame { .. }
            | TelemetryEvent::ResyncFailed { .. } => {}
        }
    }
    let mut out = String::new();
    for (path, count) in &folded {
        if *count > 0 {
            out.push_str(&format!("{path} {count}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Instant;

    fn rec(at_us: u64, node: Option<u32>, event: TelemetryEvent) -> TelemetryRecord {
        TelemetryRecord {
            at: Instant::from_micros(at_us),
            node,
            event,
        }
    }

    fn enter(id: u32, kind: SpanKind) -> TelemetryEvent {
        TelemetryEvent::SpanEnter {
            id,
            kind,
            // Airtime spans carry their channel in `detail`.
            detail: if kind == SpanKind::ChannelAirtime {
                17
            } else {
                0
            },
        }
    }

    fn exit(id: u32, kind: SpanKind, sim_ns: u64, self_sim_ns: u64) -> TelemetryEvent {
        TelemetryEvent::SpanExit {
            id,
            kind,
            detail: if kind == SpanKind::ChannelAirtime {
                17
            } else {
                0
            },
            sim_ns,
            wall_ns: 5,
            self_sim_ns,
            self_wall_ns: 5,
        }
    }

    fn trace() -> Vec<TelemetryRecord> {
        vec![
            rec(
                0,
                Some(3),
                TelemetryEvent::NodeAdded {
                    label: "attacker".into(),
                },
            ),
            rec(0, None, enter(1, SpanKind::TrialSync)),
            rec(10, Some(3), enter(2, SpanKind::AttackerScan)),
            rec(
                500_000,
                Some(3),
                exit(2, SpanKind::AttackerScan, 490_000_000, 490_000_000),
            ),
            rec(
                500_000,
                None,
                exit(1, SpanKind::TrialSync, 500_000_000, 10_000_000),
            ),
            rec(600_000, Some(3), enter(3, SpanKind::ChannelAirtime)),
            rec(
                600_368,
                Some(3),
                exit(3, SpanKind::ChannelAirtime, 368_000, 368_000),
            ),
        ]
    }

    #[test]
    fn collapsed_stacks_track_per_node_and_count_self_time_in_us() {
        let folded = collapse_stacks(&trace());
        let lines: Vec<&str> = folded.lines().collect();
        // Harness spans and node spans live on separate tracks: the
        // attacker's scan does NOT chain under trial-sync merely because the
        // records interleave in time.
        assert!(lines.contains(&"harness;trial-sync 10000"), "{folded}");
        assert!(lines.contains(&"attacker;attacker-scan 490000"), "{folded}");
        assert!(lines.contains(&"attacker;channel-airtime 368"), "{folded}");
    }

    #[test]
    fn collapsed_stacks_nest_within_one_track() {
        // An airtime span opened while the same node's inject span is still
        // open nests beneath it.
        let t = vec![
            rec(
                0,
                Some(3),
                TelemetryEvent::NodeAdded {
                    label: "attacker".into(),
                },
            ),
            rec(0, Some(3), enter(1, SpanKind::AttackerInject)),
            rec(5, Some(3), enter(2, SpanKind::ChannelAirtime)),
            rec(
                400,
                Some(3),
                exit(2, SpanKind::ChannelAirtime, 368_000, 368_000),
            ),
            rec(
                500,
                Some(3),
                exit(1, SpanKind::AttackerInject, 500_000, 132_000),
            ),
        ];
        let folded = collapse_stacks(&t);
        assert!(
            folded.contains("attacker;attacker-inject;channel-airtime 368"),
            "{folded}"
        );
        assert!(folded.contains("attacker;attacker-inject 132"), "{folded}");
    }

    #[test]
    fn airtime_table_groups_by_channel() {
        let out = airtime_table(&trace());
        assert!(out.contains("ch 17"), "{out}");
        assert!(out.contains("1 tx"), "{out}");
    }

    #[test]
    fn phase_table_includes_every_closed_kind() {
        let mut reg = ble_telemetry::MetricsRegistry::new();
        for r in trace() {
            reg.tally(&r.event);
        }
        let out = phase_table(&bench::telemetry::phase_profile_from_registry(&reg));
        assert!(out.contains("trial-sync"));
        assert!(out.contains("attacker-scan"));
        assert!(out.contains("channel-airtime"));
        // Wall columns are marked machine-dependent.
        assert!(out.contains("wall_ms*"));
    }

    #[test]
    fn collapsed_stack_format_is_flamegraph_compatible() {
        // `frame[;frame…] count` — exactly one space, count last, no blanks.
        let folded = collapse_stacks(&trace());
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (path, count) = line.rsplit_once(' ').expect("space-separated count");
            assert!(!path.is_empty());
            assert!(count.parse::<u64>().is_ok(), "bad count in {line}");
            assert!(
                !path.contains(' '),
                "frames must not contain spaces: {line}"
            );
        }
    }
}
