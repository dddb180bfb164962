//! Reading and checking the experiment binaries' JSON artefacts.

use crate::catalogue::Workload;
use crate::json::{self, Json};

/// The fields of one artefact row the benchmark uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Swept parameter name.
    pub parameter: String,
    /// Swept value.
    pub value: f64,
    /// Trials that succeeded.
    pub succeeded: u64,
    /// Trials requested.
    pub trials: u64,
    /// `[min, q1, median, q3, max]` of attempts over successful trials.
    pub attempts: [f64; 5],
    /// Attempts of each successful trial, in seed order.
    pub raw: Vec<u64>,
    /// Process peak RSS when the row finished (kB).
    pub peak_rss_kb: Option<u64>,
    /// Trials that panicked (absent from the artefact when zero).
    pub panicked: u64,
}

impl Row {
    /// The sim-deterministic part of the row: equal seeds must give equal
    /// values, whatever the machine, thread count or telemetry mode.
    pub fn outcome(&self) -> (&str, u64, u64, u64, &[u64]) {
        (
            &self.parameter,
            self.value.to_bits(),
            self.succeeded,
            self.trials,
            &self.raw,
        )
    }
}

/// Parses an artefact (a JSON array of rows).
pub fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let doc = json::parse(text)?;
    let rows = doc.as_arr().ok_or("artefact is not a JSON array")?;
    rows.iter()
        .enumerate()
        .map(|(i, r)| row_from(r).ok_or_else(|| format!("row {i} lacks a required field")))
        .collect()
}

fn row_from(r: &Json) -> Option<Row> {
    let num = |k: &str| r.get(k).and_then(Json::as_f64);
    Some(Row {
        parameter: r.get("parameter")?.as_str()?.to_string(),
        value: num("value")?,
        succeeded: r.get("succeeded")?.as_u64()?,
        trials: r.get("trials")?.as_u64()?,
        attempts: [
            num("min")?,
            num("q1")?,
            num("median")?,
            num("q3")?,
            num("max")?,
        ],
        raw: r
            .get("raw")?
            .as_arr()?
            .iter()
            .map(Json::as_u64)
            .collect::<Option<_>>()?,
        peak_rss_kb: r.get("peak_rss_kb").and_then(Json::as_u64),
        panicked: r.get("panicked_trials").map_or(Some(0), Json::as_u64)?,
    })
}

/// Every way the artefact of one invocation of `w` at `per_point` trials
/// per point departs from what the binary promises. Empty means it passed.
pub fn check_rows(w: &Workload, rows: &[Row], per_point: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if rows.len() != w.points.len() {
        problems.push(format!("{} rows, expected {}", rows.len(), w.points.len()));
    }
    for (row, point) in rows.iter().zip(w.points) {
        let at = format!("{}={}", row.parameter, row.value);
        if row.parameter != point.parameter || row.value != point.value {
            problems.push(format!(
                "{at}: expected row {}={}",
                point.parameter, point.value
            ));
        }
        if row.trials != per_point {
            problems.push(format!(
                "{at}: {} trials, requested {per_point}",
                row.trials
            ));
        }
        if row.succeeded != row.raw.len() as u64 || row.succeeded > row.trials {
            problems.push(format!(
                "{at}: succeeded {} but {} raw counts of {} trials",
                row.succeeded,
                row.raw.len(),
                row.trials
            ));
        }
        if row.attempts.windows(2).any(|p| p[0] > p[1]) {
            problems.push(format!(
                "{at}: attempt quantiles out of order {:?}",
                row.attempts
            ));
        }
        if row.peak_rss_kb.is_none() {
            problems.push(format!("{at}: no peak_rss_kb"));
        }
    }
    problems
}

/// Succeeded ÷ requested over a set of artefacts.
pub fn success_frac<'a>(rows: impl IntoIterator<Item = &'a Row>) -> f64 {
    let (ok, all) = rows.into_iter().fold((0u64, 0u64), |(ok, all), r| {
        (ok + r.succeeded, all + r.trials)
    });
    crate::stats::ratio(ok as f64, all as f64)
}

/// The success-floor check over the success window.
pub fn check_floor(w: &Workload, frac: f64) -> Option<String> {
    (frac < w.success_floor).then(|| {
        format!(
            "success_frac {frac} is below the {} floor of {}",
            w.name, w.success_floor
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::workload;

    /// A well-formed multi-conn artefact at 4 trials per point.
    fn good() -> String {
        let rows: Vec<String> = [1, 2, 4, 8]
            .iter()
            .map(|c| {
                format!(
                    r#"{{"parameter":"connections","value":{c},"succeeded":3,"trials":4,"min":1,"q1":1.5,"median":2,"q3":3.5,"max":4,"mean":2.3,"variance":1.0,"raw":[1,2,4],"anchor_error_us":null,"lead_time_us":null,"events_per_sec":null,"trials_per_sec":200.0,"peak_rss_kb":3200,"phase_profile":[]}}"#
                )
            })
            .collect();
        format!("[\n  {}\n]\n", rows.join(",\n  "))
    }

    fn problems(text: &str) -> Vec<String> {
        let w = workload("multi-conn").unwrap();
        check_rows(w, &parse_rows(text).unwrap(), 4)
    }

    #[test]
    fn a_well_formed_artefact_passes() {
        assert_eq!(problems(&good()), Vec::<String>::new());
    }

    #[test]
    fn a_missing_or_foreign_row_fails() {
        let w = workload("multi-conn").unwrap();
        let mut rows = parse_rows(&good()).unwrap();
        rows.pop();
        assert!(check_rows(w, &rows, 4)[0].contains("3 rows, expected 4"));
        let swapped = good().replacen("\"value\":2,", "\"value\":3,", 1);
        assert!(problems(&swapped)[0].contains("expected row connections=2"));
    }

    #[test]
    fn a_short_series_fails() {
        let doctored = good().replacen("\"trials\":4", "\"trials\":3", 1);
        assert!(problems(&doctored)[0].contains("3 trials, requested 4"));
    }

    #[test]
    fn succeeded_must_match_raw_and_stay_within_trials() {
        let doctored = good().replacen("\"succeeded\":3", "\"succeeded\":2", 1);
        assert!(problems(&doctored)[0].contains("succeeded 2 but 3 raw"));
        let doctored = good()
            .replacen("\"succeeded\":3", "\"succeeded\":5", 1)
            .replacen("[1,2,4]", "[1,2,4,4,4]", 1);
        assert!(problems(&doctored)[0].contains("of 4 trials"));
    }

    #[test]
    fn quantiles_out_of_order_fail() {
        let doctored = good().replacen("\"q3\":3.5", "\"q3\":1.0", 1);
        assert!(problems(&doctored)[0].contains("out of order"));
        let doctored = good().replacen("\"max\":4", "\"max\":3", 1);
        assert!(problems(&doctored)[0].contains("out of order"));
    }

    #[test]
    fn missing_rss_fails_and_garbage_does_not_parse() {
        let doctored = good().replacen("\"peak_rss_kb\":3200", "\"peak_rss_kb\":null", 1);
        assert!(problems(&doctored)[0].contains("no peak_rss_kb"));
        assert!(parse_rows("{}").is_err());
        assert!(parse_rows(&good().replacen("\"raw\":[1,2,4],", "", 1)).is_err());
    }

    #[test]
    fn success_floor_and_panics_are_read() {
        let w = workload("multi-conn").unwrap();
        let rows = parse_rows(&good()).unwrap();
        assert_eq!(success_frac(&rows), 0.75);
        assert!(check_floor(w, 0.75).unwrap().contains("below"));
        assert_eq!(check_floor(w, 0.85), None);
        assert_eq!(rows[0].panicked, 0);
        let panicky = good().replacen(
            "\"phase_profile\"",
            "\"panicked_trials\":2,\"phase_profile\"",
            1,
        );
        assert_eq!(parse_rows(&panicky).unwrap()[0].panicked, 2);
    }
}
