//! The baseline rules: how leg `a`'s `--json` artefact may differ from
//! its committed `benchmarks/baselines/BENCH_<name>.json`.
//!
//! Both artefacts are flattened into scalar metrics and compared metric by
//! metric:
//!
//! - **Sim-deterministic metrics** (success counts, attempt quartiles,
//!   histogram percentiles, span `sim_ns`/`self_sim_ns`, the
//!   `panicked_trials` counter, …) must match **exactly** — they are pure
//!   functions of the seed, so any drift is a behaviour change that needs
//!   a deliberate `--update-baselines`. `panicked_trials` is emitted only
//!   when non-zero, so a trial starting to panic surfaces as a
//!   missing-metric failure against a clean baseline.
//! - **Wall-clock metrics** ([`WALL_FIELDS`]) get a generous relative
//!   tolerance plus an absolute noise floor, and are skipped entirely when
//!   absent on either side (e.g. `peak_rss_kb` off Linux). They catch
//!   order-of-magnitude slowdowns without flaking on machine variance.
//!   A row's `trials_per_sec` is too short to time on its own, so the
//!   binary's summed row wall time is gated in its place. Span wall times
//!   are taken from the faster of legs `a` and `b`, so one host stall in
//!   one leg does not fail the gate.
//!
//! On failure the comparison names the first regressed metric with both
//! values and the rule it broke.

use json_reader::Value;

/// How a metric is allowed to move relative to its baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Sim-deterministic: any difference is a regression.
    Exact,
    /// Wall-clock throughput: only a *drop* beyond tolerance regresses.
    HigherBetter,
    /// Wall-clock cost: only a *rise* beyond tolerance regresses.
    LowerBetter,
    /// Not gated row by row. The binary's summed row wall time, Σ trials ÷
    /// `trials_per_sec` over the faster of legs `a` and `b`, is gated
    /// instead, as a [`Direction::LowerBetter`] cost.
    Summed,
}

/// The comparison rule for one metric class.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MetricSpec {
    direction: Direction,
    /// Allowed relative movement in the bad direction (0.5 = 50%).
    rel_tol: f64,
    /// Absolute difference below which movement is never a regression
    /// (same unit as the metric). Keeps tiny baselines from tripping the
    /// relative rule on noise.
    noise_floor: f64,
    /// Whether the current value is the smaller of legs `a` and `b` rather
    /// than leg `a`'s alone.
    faster_leg: bool,
}

const EXACT: MetricSpec = MetricSpec {
    direction: Direction::Exact,
    rel_tol: 0.0,
    noise_floor: 0.0,
    faster_leg: false,
};

const THROUGHPUT: MetricSpec = MetricSpec {
    direction: Direction::HigherBetter,
    rel_tol: 0.90,
    noise_floor: 50.0,
    faster_leg: false,
};

/// A phase's wall time in one run can hold a whole host stall: one
/// ~10 ms stall once lifted an exp4 phase from 0.8 to 11.3 ms in one leg
/// while the other leg stayed fast. So the faster leg is the sample.
const SPAN_WALL: MetricSpec = MetricSpec {
    direction: Direction::LowerBetter,
    rel_tol: 9.0,
    noise_floor: 10_000_000.0,
    faster_leg: true,
};

/// A 5-trial row lasts 0.05–0.7 ms, too short to time on a shared host.
/// Summed over the binary, the 90% band of [`THROUGHPUT`] reads as at most
/// 10× the baseline's wall time.
const SUMMED_WALL: MetricSpec = MetricSpec {
    direction: Direction::Summed,
    rel_tol: 9.0,
    noise_floor: 0.0,
    faster_leg: true,
};

/// The artefact fields that measure the host rather than the simulation,
/// with the rule the baseline comparison applies to each. The normaliser
/// zeroes exactly these fields before legs are compared; every other field
/// in an artefact is sim-deterministic by construction.
pub(crate) const WALL_FIELDS: [(&str, MetricSpec); 5] = [
    ("trials_per_sec", SUMMED_WALL),
    ("events_per_sec", THROUGHPUT),
    (
        "peak_rss_kb",
        MetricSpec {
            direction: Direction::LowerBetter,
            rel_tol: 0.50,
            noise_floor: 4096.0,
            faster_leg: false,
        },
    ),
    ("wall_ns", SPAN_WALL),
    ("self_wall_ns", SPAN_WALL),
];

/// Classifies a flattened metric key by its leaf field name.
fn spec_for(key: &str) -> MetricSpec {
    let leaf = key.rsplit('.').next().unwrap_or(key);
    WALL_FIELDS
        .iter()
        .find(|(field, _)| *field == leaf)
        .map_or(EXACT, |(_, spec)| *spec)
}

/// Whether a metric may be silently absent on one side (wall metrics vary
/// by platform; sim metrics may not appear or vanish without a baseline
/// refresh).
fn optional(key: &str) -> bool {
    spec_for(key).direction != Direction::Exact
}

/// Flattened view of one artefact: numeric metrics by dotted path, plus the
/// string fields (`parameter`, `phase`, …) as `path=value` shape tokens so a
/// renamed sweep or phase fails loudly rather than comparing garbage.
#[derive(Debug, Default)]
struct Flat {
    nums: Vec<(String, f64)>,
    shape: Vec<String>,
}

fn flatten(v: &Value, prefix: &str, out: &mut Flat) {
    match v {
        // `null` (e.g. `peak_rss_kb` off Linux, absent histograms) flattens
        // to nothing: the key is simply missing on that side.
        Value::Null => {}
        // A JSON number token always parses as `f64`.
        Value::Num(_) => out.nums.extend(v.num().map(|n| (prefix.to_string(), n))),
        Value::Bool(b) => out.shape.push(format!("{prefix}={b}")),
        Value::Str(s) => out.shape.push(format!("{prefix}={s}")),
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                // Phase-profile rows are keyed by phase name, not position,
                // so a newly-instrumented phase shifts nothing else.
                let label = phase_name(item)
                    .map(|p| format!("{prefix}[{p}]"))
                    .unwrap_or_else(|| format!("{prefix}[{i}]"));
                flatten(item, &label, out);
            }
        }
        Value::Obj(fields) => {
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

fn phase_name(v: &Value) -> Option<&str> {
    v.get("phase")?.as_str()
}

/// A sweep's summed row wall time in ms, to the µs: Σ trials ÷
/// `trials_per_sec` over the artefact's rows; `None` when no row carries
/// both.
fn summed_wall_ms(artefact: &Value) -> Option<f64> {
    let rows: Vec<f64> = artefact
        .as_arr()?
        .iter()
        .filter_map(|row| {
            let trials: f64 = row.get("trials")?.num()?;
            let per_sec: f64 = row.get("trials_per_sec")?.num()?;
            Some(1e3 * trials / per_sec)
        })
        .collect();
    (!rows.is_empty()).then(|| (rows.iter().sum::<f64>() * 1e3).round() / 1e3)
}

/// Outcome of holding one artefact against its baseline.
#[derive(Debug)]
pub(crate) struct GateStats {
    /// Metrics compared (exact or within tolerance), the summed wall time
    /// included.
    pub(crate) compared: usize,
    /// Wall metrics skipped because one side lacked them.
    pub(crate) skipped: usize,
    /// Summed row wall time (ms): baseline, then the faster current leg.
    pub(crate) summed_ms: Option<(f64, f64)>,
}

/// Pure comparison core: the baseline artefact against leg `a`'s, with leg
/// `b`'s the second sample of the summed wall time and the span wall
/// times. Returns the stats on pass; on failure, the first regressed metric
/// with both values, the rule it broke, and the total regression count.
pub(crate) fn compare_artefacts(baseline: &str, a: &str, b: &str) -> Result<GateStats, String> {
    let base = json_reader::parse(baseline).map_err(|e| format!("baseline unreadable: {e}"))?;
    let cur = json_reader::parse(a).map_err(|e| format!("leg `a` artefact unreadable: {e}"))?;
    let rerun = json_reader::parse(b).map_err(|e| format!("leg `b` artefact unreadable: {e}"))?;
    let mut fb = Flat::default();
    flatten(&base, "", &mut fb);
    let mut fc = Flat::default();
    flatten(&cur, "", &mut fc);
    let mut fr = Flat::default();
    flatten(&rerun, "", &mut fr);

    // Shape first: string fields (parameter names, phase names) and any
    // appearing/vanishing sim metric mean the artefact no longer describes
    // the same experiment — that needs a baseline refresh, not a tolerance.
    if fb.shape != fc.shape {
        let diff = first_list_divergence(&fb.shape, &fc.shape);
        return Err(format!(
            "artefact shape changed ({diff}); if intended, run \
             `cargo xtask gate --update-baselines` and commit the diff"
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
                    "metric `{k}` present in baseline but missing from the \
                     current artefact; if intended, run `cargo xtask gate \
                     --update-baselines`"
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
                    "new metric `{k}` absent from the baseline; run `cargo \
                     xtask gate --update-baselines` and commit the diff"
                ));
            }
        }
    }

    let mut compared = 0usize;
    let mut regressions = Vec::new();
    for (key, base_val) in &fb.nums {
        let spec = spec_for(key);
        if spec.direction == Direction::Summed {
            continue; // gated once for the whole binary below
        }
        let Some((_, mut cur_val)) = fc.nums.iter().find(|(k, _)| k == key).cloned() else {
            continue; // optional wall metric, already counted as skipped
        };
        if spec.faster_leg {
            if let Some((_, rerun_val)) = fr.nums.iter().find(|(k, _)| k == key) {
                cur_val = cur_val.min(*rerun_val);
            }
        }
        compared += 1;
        regressions.extend(regression(key, spec, *base_val, cur_val));
    }
    let fastest = [summed_wall_ms(&cur), summed_wall_ms(&rerun)]
        .into_iter()
        .flatten()
        .reduce(f64::min);
    let summed_ms = summed_wall_ms(&base).zip(fastest);
    if let Some((base_ms, cur_ms)) = summed_ms {
        compared += 1;
        regressions.extend(regression(
            "summed row wall time (ms)",
            SUMMED_WALL,
            base_ms,
            cur_ms,
        ));
    }
    match regressions.first() {
        Some(first) => Err(format!(
            "{} metric(s) regressed; first: {first}",
            regressions.len()
        )),
        None => Ok(GateStats {
            compared,
            skipped,
            summed_ms,
        }),
    }
}

/// Applies a metric's rule; `Some(diff message)` when it regresses.
fn regression(key: &str, spec: MetricSpec, base: f64, cur: f64) -> Option<String> {
    match spec.direction {
        Direction::Exact => (base != cur).then(|| {
            format!(
                "`{key}` baseline {base} != current {cur} (sim-deterministic, \
                 exact match required)"
            )
        }),
        Direction::HigherBetter => {
            let allowed = base * (1.0 - spec.rel_tol);
            (base - cur > spec.noise_floor && cur < allowed).then(|| {
                format!(
                    "`{key}` dropped {base} -> {cur} (allowed: >= {allowed:.1} after \
                     {:.0}% tolerance)",
                    spec.rel_tol * 100.0
                )
            })
        }
        Direction::LowerBetter | Direction::Summed => {
            let allowed = base * (1.0 + spec.rel_tol);
            (cur - base > spec.noise_floor && cur > allowed).then(|| {
                format!(
                    "`{key}` rose {base} -> {cur} (allowed: <= {allowed:.1} after \
                     {:.0}% tolerance)",
                    spec.rel_tol * 100.0
                )
            })
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

#[cfg(test)]
mod tests {
    use super::*;

    /// One artefact row in exactly the shape `bench::report::rows_to_json`
    /// emits: histogram, wall metrics and a phase profile.
    fn row(mean: f64, trials_per_sec: f64, wall_ns: u64) -> String {
        format!(
            "  {{\"parameter\":\"hop\",\"value\":36,\"succeeded\":5,\
             \"trials\":5,\"min\":1,\"q1\":1,\"median\":2,\"q3\":3,\"max\":4,\
             \"mean\":{mean:.3},\"variance\":1.300,\"raw\":[1, 2, 2, 3, 4],\
             \"anchor_error_us\":{{\"count\":5,\"mean\":4.100,\"p50\":4,\
             \"p90\":6,\"p95\":6,\"p99\":6,\"min\":3.000,\"max\":6.000}},\
             \"lead_time_us\":null,\"events_per_sec\":1000.0,\
             \"trials_per_sec\":{trials_per_sec:.1},\"peak_rss_kb\":3000,\
             \"phase_profile\":[{{\"phase\":\"trial-sync\",\"count\":5,\
             \"sim_ns\":500000000,\"self_sim_ns\":498000000,\
             \"wall_ns\":{wall_ns},\"self_wall_ns\":{wall_ns}}}]}}"
        )
    }

    /// A one-row artefact.
    fn artefact(mean: f64, trials_per_sec: f64, wall_ns: u64) -> String {
        rows(&[row(mean, trials_per_sec, wall_ns)])
    }

    fn rows(rows: &[String]) -> String {
        format!("[\n{}\n]\n", rows.join(",\n"))
    }

    /// Leg `a` and leg `b` agree.
    fn compare(baseline: &str, current: &str) -> Result<GateStats, String> {
        compare_artefacts(baseline, current, current)
    }

    #[test]
    fn identical_artefacts_pass() {
        let a = artefact(2.2, 4000.0, 100_000);
        let stats = compare(&a, &a).expect("identical must pass");
        assert!(stats.compared > 15, "flattening found {}", stats.compared);
        assert_eq!(stats.skipped, 0);
    }

    #[test]
    fn doctored_sim_metric_fails_exactly() {
        let base = artefact(2.2, 4000.0, 100_000);
        let doctored = artefact(2.4, 4000.0, 100_000);
        let err = compare(&base, &doctored).unwrap_err();
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
        compare(&base, &noisy).expect("within tolerance");
        // A 100x events_per_sec collapse is a real regression.
        let collapsed = base.replace("\"events_per_sec\":1000.0", "\"events_per_sec\":10.0");
        let err = compare(&base, &collapsed).unwrap_err();
        assert!(err.contains("events_per_sec"), "{err}");
        assert!(err.contains("dropped"), "{err}");
        // A row's trials_per_sec is judged only through the summed wall
        // time, never on its own.
        let err = compare(&base, &artefact(2.2, 40.0, 100_000_000)).unwrap_err();
        assert!(err.contains("summed row wall time"), "{err}");
        assert!(!err.contains("`[0].trials_per_sec`"), "{err}");
    }

    #[test]
    fn summed_wall_fails_a_binary_whose_rows_total_eleven_times_the_baseline() {
        // 0.5 ms + 100 ms at baseline.
        let base = rows(&[row(2.2, 10_000.0, 100), row(2.2, 50.0, 100)]);
        let slow = rows(&[row(2.2, 10_000.0 / 11.0, 100), row(2.2, 50.0 / 11.0, 100)]);
        let err = compare(&base, &slow).unwrap_err();
        assert!(err.contains("summed row wall time (ms)"), "{err}");
        assert!(err.contains("rose 100.5"), "{err}");
        assert!(err.contains("900% tolerance"), "{err}");
        // The faster of legs `a` and `b` is the sample: one slow leg of two
        // is host noise, not a regression.
        let stats = compare_artefacts(&base, &slow, &base).expect("leg b is fast");
        assert_eq!(stats.summed_ms, Some((100.5, 100.5)));
    }

    #[test]
    fn summed_wall_passes_one_sub_millisecond_row_twenty_times_slower() {
        let base = rows(&[row(2.2, 10_000.0, 100), row(2.2, 50.0, 100)]);
        // Row 0 goes from 0.5 ms to 10 ms; the binary from 100.5 to 110 ms.
        let cur = rows(&[row(2.2, 500.0, 100), row(2.2, 50.0, 100)]);
        let stats = compare(&base, &cur).expect("the sum stays under 10x");
        let (base_ms, cur_ms) = stats.summed_ms.expect("both sides timed");
        assert!((base_ms - 100.5).abs() < 1e-9, "{base_ms}");
        assert!((cur_ms - 110.0).abs() < 1e-9, "{cur_ms}");
    }

    #[test]
    fn wall_rise_beyond_tolerance_fails() {
        let base = artefact(2.2, 4000.0, 100_000_000);
        // 20x the span wall time breaks the 10x envelope.
        let slow = artefact(2.2, 4000.0, 2_000_000_000);
        let err = compare(&base, &slow).unwrap_err();
        assert!(err.contains("wall_ns"), "{err}");
        assert!(err.contains("rose"), "{err}");
    }

    #[test]
    fn span_wall_is_taken_from_the_faster_leg() {
        // One ~10 ms stall in leg `a`: 0.78 ms at baseline, 11.26 ms in
        // leg `a`, 0.80 ms in leg `b`. Alone, leg `a` breaks the 10x + 10 ms
        // envelope.
        let base = artefact(2.2, 4000.0, 781_390);
        let stalled = artefact(2.2, 4000.0, 11_255_045);
        let fast = artefact(2.2, 4000.0, 800_000);
        let err = compare(&base, &stalled).unwrap_err();
        assert!(err.contains("wall_ns"), "{err}");
        compare_artefacts(&base, &stalled, &fast).expect("leg b did not stall");
        compare_artefacts(&base, &fast, &stalled).expect("leg a did not stall");
        // Both legs slow is a regression.
        let err = compare_artefacts(&base, &stalled, &stalled).unwrap_err();
        assert!(err.contains("rose 781390"), "{err}");
    }

    #[test]
    fn tiny_wall_times_sit_under_the_noise_floor() {
        // 100x relative rise but only 99µs absolute: under the 10ms floor.
        let base = artefact(2.2, 4000.0, 1_000);
        let cur = artefact(2.2, 4000.0, 100_000);
        compare(&base, &cur).expect("noise floor absorbs it");
    }

    #[test]
    fn missing_wall_metric_is_skipped_missing_sim_metric_fails() {
        let base = artefact(2.2, 4000.0, 100_000);
        // `peak_rss_kb:null` (non-Linux baseline) flattens to absent.
        let no_rss = base.replace("\"peak_rss_kb\":3000", "\"peak_rss_kb\":null");
        let stats = compare(&base, &no_rss).expect("wall absence is fine");
        assert_eq!(stats.skipped, 1);
        // A vanished sim metric is a shape change, not noise.
        let no_median = base.replace("\"median\":2,", "");
        let err = compare(&base, &no_median).unwrap_err();
        assert!(err.contains("[0].median"), "{err}");
        assert!(err.contains("--update-baselines"), "{err}");
    }

    #[test]
    fn renamed_phase_is_a_shape_change() {
        let base = artefact(2.2, 4000.0, 100_000);
        let renamed = base.replace("trial-sync", "trial-warmup");
        let err = compare(&base, &renamed).unwrap_err();
        assert!(err.contains("shape changed"), "{err}");
        assert!(err.contains("--update-baselines"), "{err}");
    }

    #[test]
    fn phase_rows_key_by_name_not_position() {
        let mut f = Flat::default();
        let v = json_reader::parse(
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
        let mut f = Flat::default();
        let v = json_reader::parse("[{\"a\":1.5,\"b\":null,\"c\":[1, 2],\"d\":\"x\"}]").unwrap();
        flatten(&v, "", &mut f);
        let nums: Vec<(&str, f64)> = f.nums.iter().map(|(k, n)| (k.as_str(), *n)).collect();
        assert_eq!(nums, [("[0].a", 1.5), ("[0].c[0]", 1.0), ("[0].c[1]", 2.0)]);
        assert_eq!(f.shape, ["[0].d=x"]);
        let err = compare("[1, 2] trailing", "[1, 2]").unwrap_err();
        assert!(err.contains("baseline unreadable: byte 7"), "{err}");
    }

    #[test]
    fn strings_with_escaped_quotes_are_read_whole() {
        let base = artefact(2.2, 4000.0, 100_000)
            .replace("\"parameter\":\"hop\"", r#""parameter":"say \"hop\"""#);
        compare(&base, &base).expect("escaped quotes parse");
        let err = compare(&base, &base.replace("hop", "hip")).unwrap_err();
        assert!(err.contains(r#"[0].parameter=say "hop""#), "{err}");
    }

    #[test]
    fn first_regressed_metric_is_named_with_total_count() {
        let base = artefact(2.2, 4000.0, 100_000);
        let doctored = artefact(2.2, 4000.0, 100_000)
            .replace("\"succeeded\":5", "\"succeeded\":4")
            .replace("\"median\":2", "\"median\":3");
        let err = compare(&base, &doctored).unwrap_err();
        assert!(err.contains("2 metric(s) regressed"), "{err}");
        assert!(err.contains("first:"), "{err}");
    }

    #[test]
    fn wall_fields_are_the_only_non_exact_metrics() {
        // `WALL_FIELDS` is both the list the normaliser zeroes and the set
        // the baseline comparison treats as tolerant; everything else is
        // exact.
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
