//! Kill/resume integration for the streaming campaign runner.
//!
//! A campaign is interrupted mid-run via `max_chunks` — the in-process
//! stand-in for a kill: the invocation returns, all in-memory state is
//! dropped, and only the JSONL sidecar survives — then relaunched against
//! the same sidecar. The resumed run's final artefact row must be
//! byte-identical to an uninterrupted campaign's, at 1 and at 4 worker
//! threads, because resume must not depend on how trials were scheduled.
//!
//! Wall-clock-defined fields (`events_per_sec`, span `wall_ns` /
//! `self_wall_ns`, `trials_per_sec`, `peak_rss_kb`) are neutralised the
//! same way `cargo xtask determinism` neutralises them; every other byte
//! of the row is compared exactly.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

use std::path::{Path, PathBuf};

use bench::campaign::{chunk_size_for, run_campaign_with, CampaignConfig, CampaignRun};
use bench::report::rows_to_json;
use bench::{run_trial, TrialConfig};
use ble_scenario::ScenarioBuilder;

const TRIALS: u64 = 12;
const SEED: u64 = 9_100;
/// Chunks merged before the simulated kill (of `TRIALS` one-trial chunks).
const KILL_AFTER: u64 = 2;

/// Replaces every wall-clock-defined `"<field>":<value>` with `0`,
/// mirroring `determinism::normalize_json`.
fn neutralize(raw: &str) -> String {
    let mut s = raw.to_string();
    for field in [
        "trials_per_sec",
        "peak_rss_kb",
        "events_per_sec",
        "wall_ns",
        "self_wall_ns",
    ] {
        let needle = format!("\"{field}\":");
        let mut out = String::with_capacity(s.len());
        let mut rest = s.as_str();
        while let Some(pos) = rest.find(&needle) {
            let after = pos + needle.len();
            out.push_str(&rest[..after]);
            out.push('0');
            let tail = &rest[after..];
            let end = tail
                .find(|c: char| {
                    !(c.is_ascii_digit()
                        || c == '.'
                        || c == '-'
                        || c == 'n'
                        || c == 'u'
                        || c == 'l')
                })
                .unwrap_or(tail.len());
            rest = &tail[end..];
        }
        out.push_str(rest);
        s = out;
    }
    s
}

fn config(checkpoint: Option<PathBuf>, max_chunks: Option<u64>) -> CampaignConfig {
    CampaignConfig {
        checkpoint,
        // Checkpoint every merged chunk so the kill point always has a
        // line to resume from regardless of where `max_chunks` lands.
        checkpoint_every_chunks: 1,
        max_chunks,
    }
}

/// exp1's hop-interval-36 point: real paper-rig trials.
fn campaign(cfg: &CampaignConfig) -> CampaignRun {
    let trial = TrialConfig::default();
    run_campaign_with(SEED, TRIALS, "hop_interval", 36.0, cfg, |seed| {
        run_trial(ScenarioBuilder::paper_rig(seed).hop_interval(36), &trial)
    })
}

/// One uninterrupted campaign: the reference bytes.
fn uninterrupted() -> String {
    let run = campaign(&config(None, None));
    assert!(run.finished, "uninterrupted campaign must finish");
    assert_eq!(run.resumed_at_chunk, None);
    neutralize(&rows_to_json(&[run.report]))
}

/// Kill after `KILL_AFTER` chunks, then resume from the sidecar.
fn interrupted_then_resumed(dir: &Path) -> String {
    let sidecar = dir.join("exp1_hop_interval_36.jsonl");

    let first = campaign(&config(Some(sidecar.clone()), Some(KILL_AFTER)));
    assert!(!first.finished, "the kill must land mid-campaign");
    assert!(sidecar.is_file(), "sidecar must survive the kill");

    let second = campaign(&config(Some(sidecar), None));
    assert!(second.finished, "resume must complete the campaign");
    assert_eq!(
        second.resumed_at_chunk,
        Some(KILL_AFTER),
        "resume must pick up exactly where the kill landed"
    );
    neutralize(&rows_to_json(&[second.report]))
}

#[test]
fn interrupted_campaign_resumes_to_identical_bytes_across_thread_counts() {
    assert_eq!(chunk_size_for(TRIALS), 1, "one trial per chunk");
    let scratch = std::env::temp_dir().join(format!("campaign_resume_{}", std::process::id()));
    let mut per_thread_reference = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("BENCH_THREADS", threads);
        let dir = scratch.join(threads);
        std::fs::create_dir_all(&dir).expect("scratch dir");

        let reference = uninterrupted();
        let resumed = interrupted_then_resumed(&dir);
        assert_eq!(
            resumed, reference,
            "BENCH_THREADS={threads}: resumed artefact must be byte-identical \
             to the uninterrupted campaign"
        );
        per_thread_reference.push(reference);
    }
    assert_eq!(
        per_thread_reference[0], per_thread_reference[1],
        "campaign bytes must not depend on the worker-thread count"
    );
    std::fs::remove_dir_all(&scratch).ok();
}
