//! `compare <set-A> <set-B>`: judges set B (the change) against set A (the
//! parent), per workload and end-to-end metric, by the rules the
//! benchmark's README states.

use std::collections::BTreeMap;

use crate::catalogue::{workload, Better, END_TO_END};
use crate::json::{self, num, Json};
use crate::stats::{median, quartiles, spread};

/// Pair wins (or losses), of all pairs, a paired "better" (or "worse")
/// verdict needs.
pub const WIN_SHARE: f64 = 0.9;

/// A metric's declared direction and bound, as read from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Which way it improves.
    pub better: Better,
    /// Largest tolerated worsening, as a share of the parent's median.
    pub bound: f64,
}

/// Reads the `end_to_end` entries of a `BENCHMARK.json` document.
pub fn declared_end_to_end(doc: &Json) -> Result<Vec<Declared>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .ok_or_else(|| format!("end_to_end entry lacks {k}"))
            };
            let text = |k: &str| -> Result<String, String> {
                Ok(field(k)?
                    .as_str()
                    .ok_or(format!("{k} is not a string"))?
                    .to_string())
            };
            let better = match text("better")?.as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("unknown direction {other:?}")),
            };
            Ok(Declared {
                name: text("name")?,
                unit: text("unit")?,
                better,
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B beats A in at least [`WIN_SHARE`] of pairs, by more than A's IQR.
    Better,
    /// A beats B in at least [`WIN_SHARE`] of pairs, by more than A's IQR;
    /// or B's median is worse than A's by more than the bound.
    Worse,
    /// No better, no worse beyond the bound, and A's spread is within it.
    WithinBound,
    /// A's own spread exceeds the bound, so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    /// Printed spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Judged {
    /// Workload name.
    pub workload: String,
    /// The metric as declared.
    pub metric: Declared,
    /// Set A's values, in run order.
    pub a: Vec<f64>,
    /// Set B's values, in run order.
    pub b: Vec<f64>,
    /// Pairs (A run i, B run i) in which B reads strictly better.
    pub wins: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges B against A for one metric.
pub fn judge(metric: &Declared, a: &[f64], b: &[f64]) -> (usize, Verdict) {
    let sign = match metric.better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    // Positive when B is better.
    let gain = |x: f64, y: f64| sign * (y - x);
    let pairs = a.len().min(b.len());
    let count =
        |f: &dyn Fn(f64) -> bool| a.iter().zip(b).filter(|(x, y)| f(gain(**x, **y))).count();
    let (wins, losses) = (count(&|g| g > 0.0), count(&|g| g < 0.0));
    // Paired evidence: host drift cancels within a pair of alternating runs.
    let most = |n: usize| pairs > 0 && n as f64 >= WIN_SHARE * pairs as f64;
    let [q1, med_a, q3] = quartiles(a);
    let gap = gain(med_a, median(b));
    let all_b_beat_all_a = a.iter().all(|x| b.iter().all(|y| gain(*x, *y) > 0.0));
    let verdict = if most(wins) && gap > q3 - q1 {
        Verdict::Better
    } else if (most(losses) && -gap > q3 - q1) || -gap > metric.bound * med_a.abs() {
        Verdict::Worse
    } else if spread(a) > metric.bound && !all_b_beat_all_a {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    (wins, verdict)
}

/// Judges B's panicked-trial counts against A's: worse as soon as B's
/// paired runs panicked more often in total, within bound otherwise.
pub fn judge_failed(a: &[f64], b: &[f64]) -> (usize, Verdict) {
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| y < x).count();
    let total = |v: &[f64]| v[..pairs].iter().sum::<f64>();
    if total(b) > total(a) {
        (wins, Verdict::Worse)
    } else {
        (wins, Verdict::WithinBound)
    }
}

/// The row name under which `compare` judges the result objects' `failed`
/// counts.
pub const FAILED: &str = "failed";

/// Run output, per workload.
#[derive(Debug, Default, PartialEq)]
pub struct Collected {
    /// `(workload, metric) -> values`, in run order.
    pub values: BTreeMap<(String, String), Vec<f64>>,
    /// `workload -> failed` of each result object, in run order.
    pub failed: BTreeMap<String, Vec<f64>>,
}

/// Collects run output: every line of the form `<workload> <metric>
/// <value> <unit>` naming a known workload and end-to-end metric, and the
/// `failed` count of every result object, which belongs to the workload
/// named by the metric lines before it. Anything else (stderr noise) is
/// skipped.
pub fn collect(text: &str) -> Collected {
    let mut out = Collected::default();
    let mut current: Option<String> = None;
    for line in text.lines() {
        if line.starts_with('{') {
            let failed = json::parse(line)
                .ok()
                .and_then(|r| r.get("failed").and_then(Json::as_u64));
            if let (Some(w), Some(n)) = (&current, failed) {
                out.failed.entry(w.clone()).or_default().push(n as f64);
            }
            continue;
        }
        let t: Vec<&str> = line.split_whitespace().collect();
        let [w, m, v, _unit] = t[..] else { continue };
        let (Some(_), Ok(v)) = (workload(w), v.parse::<f64>()) else {
            continue;
        };
        current = Some(w.to_string());
        if END_TO_END.iter().any(|e| e.name == m) {
            out.values
                .entry((w.to_string(), m.to_string()))
                .or_default()
                .push(v);
        }
    }
    out
}

/// Compares two sets of run output under the declared metrics, with one
/// more row per workload for the panicked trials.
pub fn compare(a_text: &str, b_text: &str, declared: &[Declared]) -> Vec<Judged> {
    let (a, b) = (collect(a_text), collect(b_text));
    let failed = Declared {
        name: FAILED.into(),
        unit: "trials".into(),
        better: Better::Lower,
        bound: 0.0,
    };
    let mut rows = Vec::new();
    for w in crate::catalogue::WORKLOADS {
        let mut push = |metric: &Declared, va: &Vec<f64>, vb: &Vec<f64>| {
            let (wins, verdict) = if metric.name == FAILED {
                judge_failed(va, vb)
            } else {
                judge(metric, va, vb)
            };
            rows.push(Judged {
                workload: w.name.to_string(),
                metric: metric.clone(),
                a: va.clone(),
                b: vb.clone(),
                wins,
                verdict,
            });
        };
        for metric in declared {
            let key = (w.name.to_string(), metric.name.clone());
            if let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) {
                push(metric, va, vb);
            }
        }
        if let (Some(va), Some(vb)) = (a.failed.get(w.name), b.failed.get(w.name)) {
            push(&failed, va, vb);
        }
    }
    rows
}

/// A human table of the comparison.
pub fn table(rows: &[Judged]) -> String {
    let mut out = format!(
        "{:<12} {:<13} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6} {:>7}  verdict\n",
        "workload", "metric", "A median", "A IQR", "B median", "B IQR", "spread", "bound", "wins"
    );
    for r in rows {
        let [a1, am, a3] = quartiles(&r.a);
        let [b1, bm, b3] = quartiles(&r.b);
        out.push_str(&format!(
            "{:<12} {:<13} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>8.4} {:>6} {:>3}/{:<3}  {}\n",
            r.workload,
            r.metric.name,
            am,
            a3 - a1,
            bm,
            b3 - b1,
            spread(&r.a).max(spread(&r.b)),
            r.metric.bound,
            r.wins,
            r.a.len().min(r.b.len()),
            r.verdict.as_str()
        ));
    }
    out
}

/// The comparison as one JSON object (the last line `compare` prints).
pub fn to_json(rows: &[Judged]) -> String {
    let side = |v: &[f64]| {
        let [q1, med, q3] = quartiles(v);
        format!(
            "{{\"n\":{},\"q1\":{},\"median\":{},\"q3\":{},\"spread\":{},\"values\":[{}]}}",
            v.len(),
            num(q1),
            num(med),
            num(q3),
            num(spread(v)),
            v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(",")
        )
    };
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\":\"{}\",\"metric\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{},\
                 \"a\":{},\"b\":{},\"wins\":{},\"pairs\":{},\"verdict\":\"{}\"}}",
                r.workload,
                r.metric.name,
                r.metric.unit,
                r.metric.better.as_str(),
                num(r.metric.bound),
                side(&r.a),
                side(&r.b),
                r.wins,
                r.a.len().min(r.b.len()),
                r.verdict.as_str()
            )
        })
        .collect();
    format!("{{\"comparisons\":[{}]}}", items.join(","))
}

/// Reads `BENCHMARK.json` at the repository root.
pub fn load_declared() -> Result<Vec<Declared>, String> {
    let path = crate::runner::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    declared_end_to_end(&json::parse(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> Declared {
        Declared {
            name: "trials_per_s".into(),
            unit: "trials/s".into(),
            better,
            bound,
        }
    }

    #[test]
    fn same_numbers_are_within_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let (wins, v) = judge(&metric(Better::Higher, 0.1), &a, &a);
        assert_eq!((wins, v), (0, Verdict::WithinBound));
    }

    #[test]
    fn a_clear_gain_is_better_and_a_clear_loss_is_worse() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        let up: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let down: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let m = metric(Better::Higher, 0.1);
        assert_eq!(judge(&m, &a, &up), (10, Verdict::Better));
        assert_eq!(judge(&m, &a, &down).1, Verdict::Worse);
        // Direction flips for lower-is-better metrics.
        let m = metric(Better::Lower, 0.1);
        assert_eq!(judge(&m, &a, &down), (10, Verdict::Better));
        assert_eq!(judge(&m, &a, &up).1, Verdict::Worse);
    }

    #[test]
    fn a_gain_inside_the_parents_spread_is_not_better() {
        // 10/10 wins, but the median gap (1) is below A's IQR (11).
        let a = [
            90.0, 92.0, 94.0, 96.0, 98.0, 100.0, 102.0, 104.0, 106.0, 108.0,
        ];
        let b: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
        assert_eq!(
            judge(&metric(Better::Higher, 0.2), &a, &b).1,
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_noisy_parent_leaves_the_metric_unresolved() {
        let a = [50.0, 100.0, 150.0, 75.0, 125.0];
        let b = [60.0, 110.0, 140.0, 80.0, 120.0];
        assert_eq!(
            judge(&metric(Better::Higher, 0.1), &a, &b).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_consistent_loss_beyond_the_parents_iqr_is_worse_inside_the_bound() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.5).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        let m = metric(Better::Higher, 0.25);
        assert_eq!(judge(&m, &a, &b), (0, Verdict::Worse));
        // One pair in ten may go the other way; two may not.
        let mut one = b.clone();
        one[0] = 200.0;
        assert_eq!(judge(&m, &a, &one).1, Verdict::Worse);
        one[1] = 200.0;
        assert_eq!(judge(&m, &a, &one).1, Verdict::WithinBound);
    }

    #[test]
    fn a_clear_loss_is_worse_even_from_a_noisy_parent() {
        let a = [50.0, 100.0, 150.0, 75.0, 125.0];
        let b: Vec<f64> = a.iter().map(|x| x * 0.3).collect();
        assert_eq!(
            judge(&metric(Better::Higher, 0.1), &a, &b).1,
            Verdict::Worse
        );
    }

    #[test]
    fn more_panicked_trials_are_worse() {
        assert_eq!(
            judge_failed(&[0.0, 0.0], &[0.0, 0.0]).1,
            Verdict::WithinBound
        );
        assert_eq!(judge_failed(&[0.0, 0.0], &[0.0, 1.0]).1, Verdict::Worse);
        assert_eq!(
            judge_failed(&[2.0, 0.0], &[0.0, 1.0]),
            (1, Verdict::WithinBound)
        );
        // Runs beyond the shorter set are not paired.
        assert_eq!(judge_failed(&[0.0], &[0.0, 5.0]).1, Verdict::WithinBound);
    }

    #[test]
    fn collect_reads_metric_lines_and_failed_counts() {
        let text = "fig9-sweep trials_per_s 100.5 trials/s\n\
                    {\"correct\":true,\"attempted\":9,\"failed\":0,\"metrics\":{}}\n\
                    [e2e] fig9-sweep chunk 0: 30000 trials in 1.0 s\n\
                    fig9-sweep scenario.nodes 3 count\n\
                    nowhere trials_per_s 1 trials/s\n\
                    fig9-sweep trials_per_s 101.5 trials/s\n\
                    {\"correct\":true,\"attempted\":9,\"failed\":2,\"metrics\":{}}\n";
        let got = collect(text);
        assert_eq!(got.values.len(), 1);
        assert_eq!(
            got.values[&("fig9-sweep".to_string(), "trials_per_s".to_string())],
            vec![100.5, 101.5]
        );
        assert_eq!(got.failed["fig9-sweep"], vec![0.0, 2.0]);
    }

    #[test]
    fn compare_adds_a_failed_row_per_workload() {
        let run = |tps: f64, failed: u64| {
            format!(
                "multi-conn trials_per_s {tps} trials/s\n\
                 {{\"correct\":true,\"attempted\":9,\"failed\":{failed},\"metrics\":{{}}}}\n"
            )
        };
        let a = run(100.0, 0) + &run(101.0, 0);
        let b = run(100.5, 0) + &run(100.0, 1);
        let rows = compare(&a, &b, &[metric(Better::Higher, 0.1)]);
        let verdicts: Vec<(&str, Verdict)> = rows
            .iter()
            .map(|r| (r.metric.name.as_str(), r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("trials_per_s", Verdict::WithinBound),
                (FAILED, Verdict::Worse)
            ]
        );
    }

    #[test]
    fn declared_metrics_parse_from_benchmark_json() {
        let doc = json::parse(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .unwrap();
        let d = declared_end_to_end(&doc).unwrap();
        assert_eq!(d[0].better, Better::Lower);
        assert_eq!(d[0].bound, 0.25);
        assert!(declared_end_to_end(&json::parse("{}").unwrap()).is_err());
    }
}
