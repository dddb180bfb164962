//! Harness self-tests: the declared names are legal and match
//! `BENCHMARK.json`, and a `--quick` run prints exactly those names, checks
//! its outputs and finishes in time.

use std::collections::BTreeSet;
use std::process::Command;

use e2e::catalogue::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use e2e::json::{self, Json};
use e2e::run::RUN_SECONDS;
use e2e::runner::{build_binaries, build_tracer, repo_root, Stopwatch};

/// Budget for a quick untraced run plus a quick traced run of every
/// workload, builds excluded.
const QUICK_BUDGET_S: f64 = 30.0;

fn benchmark_json() -> Json {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

/// Whether `name` is a legal metric or workload name.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[test]
fn names_are_legal_unique_and_within_limits() {
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    assert!((2..=8).contains(&WORKLOADS.len()));
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .chain(WORKLOADS.iter().map(|w| w.name))
        .collect();
    for name in &names {
        assert!(valid_name(name), "illegal name {name:?}");
    }
    assert_eq!(
        names.iter().collect::<BTreeSet<_>>().len(),
        names.len(),
        "a name is reused"
    );
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            valid_unit(m.unit),
            "illegal unit {:?} of {}",
            m.unit,
            m.name
        );
    }
    assert!(!valid_name("-lead") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
}

#[test]
fn benchmark_json_declares_exactly_the_catalogue() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let declared = |key: &str| -> Vec<(String, String, String)> {
        list(&doc, key)
            .iter()
            .map(|e| {
                (
                    text(e, "name").into(),
                    text(e, "unit").into(),
                    text(e, "better").into(),
                )
            })
            .collect()
    };
    let ours = |ms: &[Metric]| -> Vec<(String, String, String)> {
        ms.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), ours(&END_TO_END));
    assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    let workloads: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(
        workloads,
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for w in list(&doc, "workloads") {
        let why = text(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    let bounds: Vec<(&str, f64)> = list(&doc, "end_to_end")
        .iter()
        .map(|e| {
            (
                text(e, "name"),
                e.get("bound").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| *n == "setup_s")
        .expect("setup_s is declared")
        .1;
    for (name, bound) in &bounds {
        assert!((0.0..=0.25).contains(bound), "{name} bound {bound}");
        assert!(*bound <= setup, "setup_s must carry the largest bound");
    }
    let command: Vec<&str> = list(&doc, "command")
        .iter()
        .map(|c| c.as_str().unwrap())
        .collect();
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in &command {
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    let paths: Vec<&str> = list(&doc, "paths")
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmarks/e2e"]);
    let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));
    assert_eq!(
        seconds as f64, RUN_SECONDS,
        "run_seconds is the default budget"
    );
}

/// Per workload, the metric names a run printed, checking that the last
/// line of each workload's output is its result object and that it is
/// correct.
fn printed(stdout: &str) -> Vec<(String, BTreeSet<String>)> {
    let mut out: Vec<(String, BTreeSet<String>)> = Vec::new();
    for line in stdout.lines() {
        if line.starts_with('{') {
            let result = json::parse(line).expect("result line parses");
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{line}");
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let (_, names) = out.last().expect("metric lines precede the result");
            let in_json: BTreeSet<String> = result
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(&in_json, names);
            continue;
        }
        let t: Vec<&str> = line.split_whitespace().collect();
        if let [w, m, v, _unit] = t[..] {
            if WORKLOADS.iter().any(|x| x.name == w) && v.parse::<f64>().is_ok() {
                match out.last_mut() {
                    Some((cur, names)) if cur == w => {
                        names.insert(m.to_string());
                    }
                    _ => out.push((w.to_string(), BTreeSet::from([m.to_string()]))),
                }
            }
        }
    }
    assert!(
        stdout.trim_end().ends_with('}'),
        "the last line is a result object"
    );
    out
}

fn quick(trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["run", "--quick", "--trace", trace])
        .output()
        .expect("e2e runs");
    assert!(
        output.status.success(),
        "e2e run --quick --trace {trace} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("UTF-8 output")
}

#[test]
fn quick_runs_print_every_declared_metric_in_time() {
    build_binaries().expect("experiment binaries build");
    build_tracer().expect("traced replica builds");
    let clock = Stopwatch::start();
    let run = printed(&quick("0"));
    let trace = printed(&quick("1"));
    let took = clock.elapsed_s();
    let all: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    for (got, declared) in [(run, &END_TO_END[..]), (trace, &PER_LAYER[..])] {
        assert_eq!(got.iter().map(|(w, _)| w.clone()).collect::<Vec<_>>(), all);
        let want: BTreeSet<String> = declared.iter().map(|m| m.name.to_string()).collect();
        for (w, names) in got {
            assert_eq!(
                names, want,
                "{w} printed other names than BENCHMARK.json declares"
            );
        }
    }
    assert!(
        took < QUICK_BUDGET_S,
        "quick run and trace took {took:.1} s"
    );
}
