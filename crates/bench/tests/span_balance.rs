//! Span stream invariants over a full trial's JSONL capture.
//!
//! The flush path promises sinks a *balanced* span stream: every enter has
//! exactly one exit with matching id/kind/detail/node, and per node the
//! spans nest LIFO (a node's radio does one thing at a time). The profiler
//! and the timeline `--spans` lane both lean on these invariants, so they
//! are pinned here against a real trial rather than a synthetic trace.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

use std::collections::BTreeMap;

use bench::telemetry::TelemetryMode;
use bench::{run_trial, TrialConfig};
use ble_scenario::ScenarioBuilder;
use ble_telemetry::{parse_line, TelemetryEvent};

#[test]
fn trial_span_stream_is_balanced_and_per_node_lifo() {
    let dir = std::env::temp_dir().join(format!("span_balance_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trial.jsonl");
    let cfg = TrialConfig {
        telemetry: TelemetryMode::Jsonl(path.clone()),
        ..TrialConfig::default()
    };
    let out = run_trial(ScenarioBuilder::paper_rig(42), &cfg);
    assert!(!out.telemetry_downgraded, "sink must open");
    assert!(out.attempts.is_some(), "trial must succeed");

    let text = std::fs::read_to_string(&path).expect("jsonl artefact");
    // Open spans by id → (kind name, detail, node); per-node LIFO stacks.
    let mut open: BTreeMap<u32, (String, u32, Option<u32>)> = BTreeMap::new();
    let mut stacks: BTreeMap<Option<u32>, Vec<u32>> = BTreeMap::new();
    let mut enters = 0usize;
    let mut exits = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let rec = parse_line(line)
            .unwrap_or_else(|| panic!("line {} does not parse: {line}", lineno + 1));
        match &rec.event {
            TelemetryEvent::SpanEnter { id, kind, detail } => {
                enters += 1;
                let prev = open.insert(*id, (kind.as_str().to_string(), *detail, rec.node));
                assert!(prev.is_none(), "span id {id} entered twice");
                stacks.entry(rec.node).or_default().push(*id);
            }
            TelemetryEvent::SpanExit {
                id, kind, detail, ..
            } => {
                exits += 1;
                let (enter_kind, enter_detail, enter_node) = open
                    .remove(id)
                    .unwrap_or_else(|| panic!("span id {id} exits without an enter"));
                assert_eq!(enter_kind, kind.as_str(), "kind changed across span {id}");
                assert_eq!(enter_detail, *detail, "detail changed across span {id}");
                assert_eq!(enter_node, rec.node, "node changed across span {id}");
                // Per-node LIFO: the exit must close the most recently
                // opened still-open span of its node.
                let stack = stacks.get_mut(&rec.node).expect("node has a stack");
                assert_eq!(
                    stack.pop(),
                    Some(*id),
                    "span {id} (node {:?}) exits out of LIFO order",
                    rec.node
                );
            }
            _ => {}
        }
    }
    assert!(enters > 10, "a real trial opens many spans: {enters}");
    assert_eq!(enters, exits, "every enter needs exactly one exit");
    assert!(
        open.is_empty(),
        "flush must balance still-open spans: {open:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
