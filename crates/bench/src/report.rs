//! Experiment reporting: console tables + JSON artefacts.

use std::io::Write as _;
use std::path::PathBuf;

use ble_telemetry::HistSummary;

use crate::campaign::SeriesAccumulator;
use crate::stats::Summary;
use crate::telemetry::PhaseProfile;
use crate::trial::TrialOutcome;

/// One row of an experiment series: a parameter value and its outcome
/// distribution.
#[derive(Debug, Clone)]
pub struct SeriesReport {
    /// The swept parameter's name.
    pub parameter: String,
    /// The swept parameter's value for this row.
    pub value: f64,
    /// Successful trials out of total.
    pub succeeded: u64,
    /// Total trials **requested** — panicked trials stay in this
    /// denominator rather than silently shrinking it.
    pub trials: u64,
    /// Attempts-before-success distribution over successful trials. All
    /// zeros (`n == 0`) when no trial succeeded.
    pub attempts: Summary,
    /// Raw attempt counts.
    pub raw: Vec<u32>,
    /// Anchor-prediction-error summary (µs), merged across the row's
    /// trials; absent when telemetry was off or nothing was recorded.
    pub anchor_error_us: Option<HistSummary>,
    /// Injection lead-time summary (µs), merged across the row's trials.
    pub lead_time_us: Option<HistSummary>,
    /// Mean telemetry events per wall-clock second across the row's trials;
    /// `None` when no trial recorded a rate (telemetry off or no events).
    /// An earlier revision emitted `0.0` for that case, which misread as a
    /// measured rate of zero — and the obvious mean over an empty rate list
    /// is `0/0`, a NaN that is not even valid JSON.
    pub events_per_sec: Option<f64>,
    /// Trials completed per wall-clock second for this row (0 when the
    /// binary did not time the row). Wall-clock, so excluded from
    /// byte-identity comparisons of artefacts.
    pub trials_per_sec: f64,
    /// Peak resident set size (kB) sampled when the row finished; `None`
    /// off Linux. Wall-clock-adjacent: excluded from byte-identity
    /// comparisons.
    pub peak_rss_kb: Option<u64>,
    /// Trials whose injected command observably reached the application
    /// without the attacker's heuristic ever confirming an attempt
    /// ([`TrialOutcome::unconfirmed_effect`]). Previously these were folded
    /// into the plain failures and the signal was lost.
    pub unconfirmed_effects: u64,
    /// Trials that silently downgraded a requested JSONL telemetry sink to
    /// metrics-only because the sink could not be opened.
    pub telemetry_downgrades: u64,
    /// Trials that panicked mid-run (caught, counted, kept in the `trials`
    /// denominator). Previously a panicked trial was simply absent from the
    /// series and every rate computed from it was silently optimistic.
    pub panicked_trials: u64,
    /// Per-phase span attribution merged across the row's trials, in
    /// [`ble_telemetry::SpanKind`] order. Empty when telemetry was off. The
    /// `wall_ns`/`self_wall_ns` fields are wall-clock and excluded from
    /// byte-identity (neutralised by `cargo xtask gate`); the
    /// sim-time fields are deterministic.
    pub phase_profile: Vec<PhaseProfile>,
    /// Experiment-defined event counts summed over the row's trials
    /// ([`crate::TrialMetrics::counters`]), in first-seen order. Not
    /// serialised: a binary publishes what it needs from them through
    /// [`Self::with_extra`].
    pub counters: Vec<(String, u64)>,
    /// Extra sim-deterministic columns (`name`, `value`) an experiment
    /// attaches to the row — e.g. exp6's co-channel collision rate and
    /// mean scheduled-`RxStart` count. Emitted to JSON only when
    /// non-empty, so artefacts of experiments that attach none keep their
    /// historical byte shape.
    pub extras: Vec<(String, f64)>,
}

impl SeriesReport {
    /// Builds a row from trial outcomes, folded in order through a
    /// [`SeriesAccumulator`] — the fold the campaign engine streams every
    /// sweep point through. A row where no trial succeeded gets an empty
    /// attempts summary instead of panicking.
    pub fn from_outcomes(parameter: &str, value: f64, outcomes: &[TrialOutcome]) -> SeriesReport {
        let mut acc = SeriesAccumulator::new(outcomes.len() as u64);
        for o in outcomes {
            acc.fold(o);
        }
        acc.report(parameter, value)
    }

    /// The row's sum of the per-trial counter `name` (0 when no trial
    /// reported it).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(have, _)| have == name)
            .map_or(0, |(_, n)| *n)
    }

    /// Attaches one extra sim-deterministic column to the row (builder
    /// style). The value must be a pure function of the simulation — it is
    /// printed to stdout and written to the JSON artefact, both of which
    /// `cargo xtask gate` holds byte-identical.
    pub fn with_extra(mut self, name: &str, value: f64) -> SeriesReport {
        self.extras.push((name.to_string(), value));
        self
    }

    /// Prices the row: records trials-per-second from the row's wall-clock
    /// duration and samples the process peak RSS. The numbers go to the
    /// JSON artefact and a stderr summary — never to stdout, which stays
    /// byte-identical across equally-seeded runs.
    pub fn with_throughput(mut self, row_wall_s: f64) -> SeriesReport {
        if row_wall_s > 0.0 {
            self.trials_per_sec = self.trials as f64 / row_wall_s;
        }
        self.peak_rss_kb = peak_rss_kb();
        self
    }
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux or when unreadable.
pub fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status.lines().find_map(|line| {
            line.strip_prefix("VmHWM:")?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()
        })
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Like [`print_series`], additionally writing the JSON rows to `extra`
/// (the `--json` artefact path of the experiment binaries).
pub fn print_series_to(
    name: &str,
    title: &str,
    rows: &[SeriesReport],
    extra: Option<&std::path::Path>,
) {
    print_series(name, title, rows);
    if let Some(path) = extra {
        match write_json_to(path, rows) {
            Ok(()) => println!("[artefact] {}", path.display()),
            Err(err) => eprintln!(
                "warning: could not write JSON artefact to {}: {err}",
                path.display()
            ),
        }
    }
}

/// Prints a Figure 9-style table and writes the JSON artefact to
/// `target/experiments/<name>.json`.
pub fn print_series(name: &str, title: &str, rows: &[SeriesReport]) {
    println!();
    println!("=== {title} ===");
    println!("(metric: injection attempts before the first confirmed success)");
    println!();
    println!(
        "{:>12} | {:>7} | {:>6} {:>6} {:>6} {:>6} {:>6} | {:>7} | {:>8}",
        rows.first()
            .map(|r| r.parameter.as_str())
            .unwrap_or("value"),
        "success",
        "min",
        "q1",
        "median",
        "q3",
        "max",
        "mean",
        "variance"
    );
    println!("{}", "-".repeat(92));
    for r in rows {
        println!(
            "{:>12} | {:>4}/{:<2} | {:>6.0} {:>6.1} {:>6.1} {:>6.1} {:>6.0} | {:>7.2} | {:>8.2}",
            r.value,
            r.succeeded,
            r.trials,
            r.attempts.min,
            r.attempts.q1,
            r.attempts.median,
            r.attempts.q3,
            r.attempts.max,
            r.attempts.mean,
            r.attempts.variance
        );
    }
    println!();
    // Unconfirmed effects are sim-deterministic, so printing them (only
    // when present) keeps stdout byte-identical across equally-seeded runs.
    for r in rows {
        if r.unconfirmed_effects > 0 {
            println!(
                "[anomaly] {}={}: {} trial(s) reached the application without \
                 a confirmed attempt",
                r.parameter, r.value, r.unconfirmed_effects
            );
        }
    }
    // Panics are a pure function of (seed, config) — deterministic — so
    // the count is stdout-safe and must be loud: these trials failed the
    // harness, not the attack.
    for r in rows {
        if r.panicked_trials > 0 {
            println!(
                "[anomaly] {}={}: {} trial(s) panicked and count as failures \
                 in the {}-trial denominator",
                r.parameter, r.value, r.panicked_trials, r.trials
            );
        }
    }
    // Extra columns are sim-deterministic by contract: stdout-safe.
    for r in rows {
        for (name, value) in &r.extras {
            println!("[metric] {}={}: {name}={value:.4}", r.parameter, r.value);
        }
    }
    // Telemetry downgrades depend on the filesystem, not the simulation:
    // report them on stderr only.
    for r in rows {
        if r.telemetry_downgrades > 0 {
            eprintln!(
                "[telemetry] {}={}: {} trial(s) silently downgraded a JSONL \
                 sink to metrics-only",
                r.parameter, r.value, r.telemetry_downgrades
            );
        }
    }
    // Throughput pricing goes to stderr: stdout stays byte-identical across
    // equally-seeded runs regardless of machine speed.
    for r in rows {
        if r.trials_per_sec > 0.0 {
            eprintln!(
                "[throughput] {}={} {:.0} trials/sec{}",
                r.parameter,
                r.value,
                r.trials_per_sec,
                r.peak_rss_kb
                    .map(|kb| format!(" peak_rss={kb} kB"))
                    .unwrap_or_default()
            );
        }
    }
    if let Err(err) = write_json(name, rows) {
        eprintln!("warning: could not write JSON artefact: {err}");
    }
}

fn write_json(name: &str, rows: &[SeriesReport]) -> std::io::Result<()> {
    let dir = artefact_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    write_json_to(&path, rows)?;
    println!("[artefact] {}", path.display());
    Ok(())
}

/// Writes the JSON rows to an explicit path.
pub fn write_json_to(path: &std::path::Path, rows: &[SeriesReport]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(rows_to_json(rows).as_bytes())
}

/// Workspace-relative artefact directory.
pub fn artefact_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments")
}

/// Hand-rolled JSON encoding of the rows, in field order.
///
/// Artefact bytes are a pure function of the row values: every field is a
/// scalar, `Vec` (seed order) or fixed-shape histogram summary — there is no
/// map-backed field whose insertion order could show through, and the
/// per-trial metrics feeding the rows travel in the registry's fixed
/// layout ([`crate::TimingBlock`]), whose phase rows come out in
/// [`ble_telemetry::SpanKind::ALL`] order. `cargo xtask gate` holds the
/// binaries to this byte-for-byte (modulo the wall-clock fields above).
pub fn rows_to_json(rows: &[SeriesReport]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  {{\"parameter\":\"{}\",\"value\":{},\"succeeded\":{},\"trials\":{},\
             \"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{},\"mean\":{:.3},\
             \"variance\":{:.3},\"raw\":{:?},\"anchor_error_us\":{},\
             \"lead_time_us\":{},\"events_per_sec\":{},\
             \"trials_per_sec\":{:.1},\"peak_rss_kb\":{}",
            r.parameter,
            r.value,
            r.succeeded,
            r.trials,
            r.attempts.min,
            r.attempts.q1,
            r.attempts.median,
            r.attempts.q3,
            r.attempts.max,
            r.attempts.mean,
            r.attempts.variance,
            r.raw,
            hist_json(r.anchor_error_us.as_ref()),
            hist_json(r.lead_time_us.as_ref()),
            // `null`, not `0.0`, when no trial recorded a rate: a zero
            // reads as a measurement, and the old empty-row mean was a
            // 0/0 NaN away from producing invalid JSON.
            r.events_per_sec
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "null".to_string()),
            r.trials_per_sec,
            r.peak_rss_kb
                .map(|kb| kb.to_string())
                .unwrap_or_else(|| "null".to_string()),
        ));
        // Anomaly counters are emitted only when non-zero, so the artefacts
        // of healthy runs stay byte-identical to those of earlier builds.
        if r.unconfirmed_effects > 0 {
            out.push_str(&format!(
                ",\"unconfirmed_effects\":{}",
                r.unconfirmed_effects
            ));
        }
        if r.telemetry_downgrades > 0 {
            out.push_str(&format!(
                ",\"telemetry_downgrades\":{}",
                r.telemetry_downgrades
            ));
        }
        if r.panicked_trials > 0 {
            out.push_str(&format!(",\"panicked_trials\":{}", r.panicked_trials));
        }
        // Extra columns, like the anomaly counters, appear only when an
        // experiment attached them — absent keys, not zeros.
        for (name, value) in &r.extras {
            out.push_str(&format!(",\"{name}\":{value:.4}"));
        }
        out.push_str(&format!(
            ",\"phase_profile\":{}",
            phase_profile_json(&r.phase_profile)
        ));
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// Encodes an optional histogram summary as a JSON object or `null`.
fn hist_json(row: Option<&HistSummary>) -> String {
    match row {
        Some(h) => format!(
            "{{\"count\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p95\":{},\
             \"p99\":{},\"min\":{:.3},\"max\":{:.3}}}",
            h.count, h.mean, h.p50, h.p90, h.p95, h.p99, h.min, h.max
        ),
        None => "null".to_string(),
    }
}

/// Encodes the per-phase span profile as a JSON array (empty when spans
/// never closed — the key is still emitted so artefact shape is stable).
fn phase_profile_json(rows: &[PhaseProfile]) -> String {
    let mut out = String::from("[");
    for (i, p) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"phase\":\"{}\",\"count\":{},\"sim_ns\":{},\"self_sim_ns\":{},\
             \"wall_ns\":{},\"self_wall_ns\":{}}}",
            p.phase, p.count, p.sim_ns, p.self_sim_ns, p.wall_ns, p.self_wall_ns
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::TrialOutcome;

    fn outcomes(attempts: &[u32]) -> Vec<TrialOutcome> {
        attempts
            .iter()
            .map(|&a| TrialOutcome {
                attempts: Some(a),
                sim_seconds: 1.0,
                effect_observed: true,
                metrics: None,
                telemetry_downgraded: false,
            })
            .collect()
    }

    #[test]
    fn report_from_outcomes() {
        let r = SeriesReport::from_outcomes("hop", 25.0, &outcomes(&[1, 2, 3]));
        assert_eq!(r.succeeded, 3);
        assert_eq!(r.attempts.median, 2.0);
    }

    #[test]
    fn failed_trials_excluded_from_distribution() {
        let mut o = outcomes(&[4, 6]);
        o.push(TrialOutcome {
            attempts: None,
            sim_seconds: 60.0,
            effect_observed: false,
            metrics: None,
            telemetry_downgraded: false,
        });
        let r = SeriesReport::from_outcomes("d", 10.0, &o);
        assert_eq!(r.succeeded, 2);
        assert_eq!(r.trials, 3);
    }

    #[test]
    fn zero_success_row_does_not_panic() {
        let o = vec![TrialOutcome {
            attempts: None,
            sim_seconds: 120.0,
            effect_observed: false,
            metrics: None,
            telemetry_downgraded: false,
        }];
        let r = SeriesReport::from_outcomes("d", 12.0, &o);
        assert_eq!(r.succeeded, 0);
        assert_eq!(r.trials, 1);
        assert_eq!(r.attempts.n, 0);
        assert_eq!(r.attempts.mean, 0.0);
        let json = rows_to_json(&[r]);
        assert!(json.contains("\"succeeded\":0"));
    }

    #[test]
    fn unconfirmed_effects_are_counted_not_swallowed() {
        // Regression: an effect that reached the application without a
        // confirmed attempt used to be indistinguishable from a plain
        // failure in the report.
        let mut o = outcomes(&[2]);
        o.push(TrialOutcome {
            attempts: None,
            sim_seconds: 120.0,
            effect_observed: true,
            metrics: None,
            telemetry_downgraded: true,
        });
        let r = SeriesReport::from_outcomes("hop", 36.0, &o);
        assert_eq!(r.succeeded, 1);
        assert_eq!(r.unconfirmed_effects, 1);
        assert_eq!(r.telemetry_downgrades, 1);
        let json = rows_to_json(&[r]);
        assert!(json.contains("\"unconfirmed_effects\":1"));
        assert!(json.contains("\"telemetry_downgrades\":1"));
        // Healthy rows keep the historical JSON shape: the counters are
        // absent, not zero.
        let clean = SeriesReport::from_outcomes("hop", 36.0, &outcomes(&[2]));
        assert_eq!(clean.unconfirmed_effects, 0);
        let json = rows_to_json(&[clean]);
        assert!(!json.contains("unconfirmed_effects"));
        assert!(!json.contains("telemetry_downgrades"));
    }

    #[test]
    fn events_rate_serialises_as_number_or_null_never_nan() {
        // With rates: a plain number.
        use crate::telemetry::TrialMetrics;
        let mut with = outcomes(&[1]);
        with[0].metrics = Some(TrialMetrics {
            events_per_sec: 40.0,
            ..TrialMetrics::default()
        });
        let json = rows_to_json(&[SeriesReport::from_outcomes("x", 1.0, &with)]);
        assert!(json.contains("\"events_per_sec\":40.0"));
        // Without rates (metrics present but zero events, or no metrics at
        // all): null, and never the string "NaN".
        let mut without = outcomes(&[1]);
        without[0].metrics = Some(TrialMetrics::default());
        let r = SeriesReport::from_outcomes("x", 1.0, &without);
        assert_eq!(r.events_per_sec, None);
        let json = rows_to_json(&[r]);
        assert!(json.contains("\"events_per_sec\":null"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn panicked_trials_surface_in_report_and_json() {
        let mut acc = SeriesAccumulator::new(5);
        for o in &outcomes(&[2, 4]) {
            acc.fold(o);
        }
        for _ in 0..3 {
            acc.fold_panicked();
        }
        let r = acc.report("hop", 36.0);
        assert_eq!(r.trials, 5, "denominator is requested, not returned");
        assert_eq!(r.succeeded, 2);
        assert_eq!(r.panicked_trials, 3);
        let json = rows_to_json(&[r]);
        assert!(json.contains("\"trials\":5"));
        assert!(json.contains("\"panicked_trials\":3"));
        // Healthy rows keep the historical JSON shape: the key is absent.
        let clean = SeriesReport::from_outcomes("hop", 36.0, &outcomes(&[2]));
        assert_eq!(clean.panicked_trials, 0);
        assert!(!rows_to_json(&[clean]).contains("panicked_trials"));
    }

    #[test]
    fn extras_appear_only_when_attached() {
        let r = SeriesReport::from_outcomes("density", 32.0, &outcomes(&[2]))
            .with_extra("co_channel_collision_rate", 0.125)
            .with_extra("mean_scheduled_rx_starts", 3.4);
        let json = rows_to_json(&[r]);
        assert!(json.contains("\"co_channel_collision_rate\":0.1250"));
        assert!(json.contains("\"mean_scheduled_rx_starts\":3.4000"));
        // Rows without extras keep the historical JSON shape.
        let bare = SeriesReport::from_outcomes("density", 32.0, &outcomes(&[2]));
        assert!(bare.extras.is_empty());
        let json = rows_to_json(&[bare]);
        assert!(!json.contains("co_channel_collision_rate"));
    }

    #[test]
    fn throughput_pricing_lands_in_json() {
        let r = SeriesReport::from_outcomes("x", 1.0, &outcomes(&[1, 2])).with_throughput(0.5);
        assert_eq!(r.trials_per_sec, 4.0);
        let json = rows_to_json(&[r]);
        assert!(json.contains("\"trials_per_sec\":4.0"));
        assert!(json.contains("\"peak_rss_kb\":"));
        // Un-priced rows keep the neutral values.
        let bare = SeriesReport::from_outcomes("x", 1.0, &outcomes(&[1]));
        assert_eq!(bare.trials_per_sec, 0.0);
        assert!(bare.peak_rss_kb.is_none());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_readable_on_linux() {
        let kb = peak_rss_kb().expect("VmHWM in /proc/self/status");
        assert!(kb > 0);
    }

    #[test]
    fn json_bytes_do_not_depend_on_metric_insertion_order() {
        // Determinism guarantee: two rows built from outcomes whose metric
        // registries were populated in different orders serialise to the
        // same bytes — the registry is a fixed layout and the row itself
        // has no map-backed field.
        use crate::telemetry::TrialMetrics;
        use ble_telemetry::{MetricsRegistry, TelemetryEvent};
        let build = |reverse: bool| {
            let mut events = vec![
                TelemetryEvent::TxEnd,
                TelemetryEvent::AnchorPrediction { error_us: 4.0 },
                TelemetryEvent::InjectionAttempt {
                    channel: 3,
                    lead: simkit::Duration::from_micros(36),
                },
            ];
            if reverse {
                events.reverse();
            }
            let mut reg = MetricsRegistry::new();
            for event in &events {
                reg.tally(event);
            }
            let mut o = outcomes(&[2, 5]);
            for out in o.iter_mut() {
                out.metrics = Some(TrialMetrics::from_registry(&reg, 1.0, 1.0));
            }
            rows_to_json(&[SeriesReport::from_outcomes("hop", 36.0, &o)])
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn json_is_wellformed_enough() {
        let r = SeriesReport::from_outcomes("x", 1.0, &outcomes(&[1]));
        let json = rows_to_json(&[r]);
        assert!(json.starts_with('['));
        assert!(json.contains("\"median\":1"));
        assert!(json.contains("\"anchor_error_us\":null"));
        // No trial carried a metric block, so there is no events rate to
        // report: the field is null, not a fabricated 0.0 (and never the
        // 0/0 NaN the old empty-row mean risked — NaN is invalid JSON).
        assert!(json.contains("\"events_per_sec\":null"));
        // The phase-profile key is always present so the artefact shape is
        // stable whether or not telemetry ran.
        assert!(json.contains("\"phase_profile\":[]"));
    }

    #[test]
    fn phase_profile_merges_across_trials_into_json() {
        use crate::telemetry::TrialMetrics;
        use ble_telemetry::{MetricsRegistry, SpanKind, TelemetryEvent};
        let mut reg = MetricsRegistry::new();
        reg.tally(&TelemetryEvent::SpanExit {
            id: 1,
            kind: SpanKind::TrialSync,
            detail: 0,
            sim_ns: 2_000_000,
            wall_ns: 777,
            self_sim_ns: 2_000_000,
            self_wall_ns: 777,
        });
        let mut o = outcomes(&[1, 2]);
        for out in o.iter_mut() {
            out.metrics = Some(TrialMetrics::from_registry(&reg, 1.0, 1.0));
        }
        let r = SeriesReport::from_outcomes("hop", 36.0, &o);
        assert_eq!(r.phase_profile.len(), 1);
        assert_eq!(r.phase_profile[0].count, 2);
        assert_eq!(r.phase_profile[0].sim_ns, 4_000_000);
        let json = rows_to_json(&[r]);
        assert!(json.contains(
            "\"phase_profile\":[{\"phase\":\"trial-sync\",\"count\":2,\
             \"sim_ns\":4000000,\"self_sim_ns\":4000000,\"wall_ns\":1554,\
             \"self_wall_ns\":1554}]"
        ));
    }

    #[test]
    fn hist_json_reports_p95() {
        let mut h = ble_telemetry::HistogramUs::default();
        for i in 0..100 {
            h.record(f64::from(i));
        }
        let row = h.summary();
        let json = hist_json(Some(&row));
        assert!(json.contains("\"p95\":"));
        assert!(row.p95 >= row.p90);
        assert!(row.p95 <= row.p99);
    }

    #[test]
    fn metric_block_merges_into_row() {
        use crate::telemetry::{TimingBlock, TrialMetrics};
        let mut o = outcomes(&[3, 5]);
        for (i, out) in o.iter_mut().enumerate() {
            let mut timing = TimingBlock::default();
            timing.anchor_error.record(4.0 + i as f64);
            timing.lead_time.record(36.0);
            out.metrics = Some(TrialMetrics {
                timing: Box::new(timing),
                events_total: 100,
                events_per_sec: 50.0,
                counters: vec![("frames", 10)],
            });
        }
        let r = SeriesReport::from_outcomes("hop", 36.0, &o);
        let anchor = r.anchor_error_us.expect("merged anchor histogram");
        assert_eq!(anchor.count, 2);
        assert_eq!(r.lead_time_us.expect("merged lead histogram").count, 2);
        assert_eq!(r.events_per_sec, Some(50.0));
        assert_eq!(r.counter("frames"), 20);
        assert_eq!(r.counter("absent"), 0);
        let json = rows_to_json(&[r]);
        assert!(json.contains("\"anchor_error_us\":{\"count\":2"));
        assert!(
            !json.contains("frames"),
            "counters reach JSON only as extras"
        );
    }
}
