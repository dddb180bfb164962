//! The one output format every run prints: a line per metric, then the
//! result object as the last line.

use crate::catalogue::Metric;
use crate::json::num;

/// What one run of one workload measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The workload's name.
    pub workload: &'static str,
    /// Every check that failed (empty when the outputs were correct).
    pub problems: Vec<String>,
    /// Trials the run requested.
    pub attempted: u64,
    /// Trials that panicked.
    pub failed: u64,
    /// `(metric, value)` in catalogue order.
    pub metrics: Vec<(Metric, f64)>,
}

impl RunResult {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The metric lines (`<workload> <metric> <value> <unit>`), then the
    /// result object. `compare` reads the metric lines back.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (m, v) in &self.metrics {
            out.push_str(&format!(
                "{} {} {} {}\n",
                self.workload,
                m.name,
                num(*v),
                m.unit
            ));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    num(*v),
                    m.unit
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        ));
        out
    }

    /// Prints problems to stderr and the rendered result to stdout.
    pub fn print(&self) {
        for p in &self.problems {
            eprintln!("[e2e] {} check failed: {p}", self.workload);
        }
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::END_TO_END;
    use crate::json::{parse, Json};

    #[test]
    fn last_line_is_the_result_object() {
        let r = RunResult {
            workload: "fig9-sweep",
            problems: vec![],
            attempted: 30_000,
            failed: 0,
            metrics: END_TO_END.iter().map(|m| (*m, 1.25)).collect(),
        };
        let text = r.render();
        let last = text.lines().last().unwrap();
        let obj = parse(last).unwrap();
        let keys: Vec<&str> = obj
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(obj.get("correct"), Some(&Json::Bool(true)));
        let tps = obj
            .get("metrics")
            .and_then(|m| m.get("trials_per_s"))
            .unwrap();
        assert_eq!(tps.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(tps.get("unit").and_then(Json::as_str), Some("trials/s"));
        assert!(text.starts_with("fig9-sweep trials_per_s 1.25 trials/s\n"));
        let failed = RunResult {
            problems: vec!["x".into()],
            ..r
        };
        assert!(failed.render().contains("\"correct\":false"));
    }
}
