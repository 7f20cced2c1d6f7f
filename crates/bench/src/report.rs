//! Machine-readable bench results: the common scenario schema and the
//! `BENCH_<tag>.json` report files CI consumes.
//!
//! Every scenario — measured on the threaded runtime or on the simulator —
//! reduces to one or more [`ScenarioResult`]s. It and [`BenchReport`] are
//! declared with [`crate::json_struct!`]: each field list is the JSON
//! schema, in order, and generates the writer and the reader.
//!
//! A [`BenchReport`] is a tagged collection of results; `bench --smoke --tag
//! PR` writes `BENCH_PR.json` and the CI perf-smoke gate fails if any
//! expected scenario is missing or malformed. Two reports can be compared
//! with `bench --diff A.json B.json`.

use std::path::Path;

use crate::json::Json;

crate::json_struct! {
    /// One scenario measurement in the common schema.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScenarioResult {
        /// Scenario name (e.g. `fig08_smallbank`).
        pub scenario: String,
        /// Free-form configuration key/value pairs (nodes, mode, workload
        /// knobs), an object of strings in the JSON form.
        pub config: Vec<(String, String)>,
        /// Committed operations per second.
        pub throughput_ops: f64,
        /// Median latency in microseconds (0 when the scenario has no latency
        /// distribution).
        pub p50_us: u64,
        /// 99th-percentile latency in microseconds.
        pub p99_us: u64,
        /// 99.9th-percentile latency in microseconds.
        pub p999_us: u64,
        /// Ownership handovers completed during the measurement window.
        pub handover_count: u64,
        /// Transactions aborted during the measurement window.
        pub aborts: u64,
        /// High-water mark of the transport inbox depth (threaded runs only).
        pub queue_depth_hwm: u64,
    }
}

impl ScenarioResult {
    /// A result with the given name and all metrics zeroed; scenarios fill
    /// in what they measure.
    pub fn new(scenario: impl Into<String>) -> Self {
        ScenarioResult {
            scenario: scenario.into(),
            config: Vec::new(),
            throughput_ops: 0.0,
            p50_us: 0,
            p99_us: 0,
            p999_us: 0,
            handover_count: 0,
            aborts: 0,
            queue_depth_hwm: 0,
        }
    }

    /// Adds a configuration key/value pair (builder style).
    pub fn with_config(mut self, key: &str, value: impl ToString) -> Self {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// `scenario [k=v,...]`: how `--diff` names a result.
    fn label(&self) -> String {
        if self.config.is_empty() {
            return self.scenario.clone();
        }
        let cfg: Vec<String> = self
            .config
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{} [{}]", self.scenario, cfg.join(","))
    }

    /// One-line human summary for the driver's stdout.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<28} {:>12.0} ops/s  p50 {:>6} us  p99 {:>6} us  p99.9 {:>7} us  handovers {:>6}  aborts {:>4}",
            self.scenario,
            self.throughput_ops,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.handover_count,
            self.aborts
        )
    }
}

crate::json_struct! {
    /// A tagged collection of scenario results, written to `BENCH_<tag>.json`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchReport {
        /// Report tag (`PR` in CI, `local` by default).
        pub tag: String,
        /// Run mode (`smoke` or `full`).
        pub mode: String,
        /// Workload seed the run used.
        pub seed: u64,
        /// All scenario results, in registry order.
        pub results: Vec<ScenarioResult>,
    }
}

impl BenchReport {
    /// An empty report.
    pub fn new(tag: impl Into<String>, mode: impl Into<String>, seed: u64) -> Self {
        BenchReport {
            tag: tag.into(),
            mode: mode.into(),
            seed,
            results: Vec::new(),
        }
    }

    /// The file name this report is written to.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.tag)
    }

    /// Parses a report from JSON text, validating the schema: every field
    /// present and well-typed, and every throughput finite.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let report = BenchReport::from_json(&v)?;
        if let Some(r) = report
            .results
            .iter()
            .find(|r| !r.throughput_ops.is_finite())
        {
            return Err(format!(
                "scenario '{}': field 'throughput_ops' is not finite",
                r.scenario
            ));
        }
        Ok(report)
    }

    /// Loads and validates a report file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the report as pretty-printed JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().pretty())
    }

    /// Checks that every scenario in `required` has at least one result and
    /// that every result is well-formed (finite, non-negative throughput;
    /// monotonic percentiles).
    pub fn validate(&self, required: &[&str]) -> Result<(), String> {
        for r in &self.results {
            if !r.throughput_ops.is_finite() || r.throughput_ops < 0.0 {
                return Err(format!(
                    "scenario '{}' has malformed throughput {}",
                    r.scenario, r.throughput_ops
                ));
            }
            if r.p50_us > r.p99_us || r.p99_us > r.p999_us {
                return Err(format!(
                    "scenario '{}' has non-monotonic percentiles {}/{}/{}",
                    r.scenario, r.p50_us, r.p99_us, r.p999_us
                ));
            }
        }
        for name in required {
            if !self.results.iter().any(|r| r.scenario == *name) {
                return Err(format!("missing results for scenario '{name}'"));
            }
        }
        Ok(())
    }

    /// Per-scenario throughput comparison against a baseline report.
    ///
    /// Scenarios are matched by name + config. `rows` carries `(label,
    /// baseline_ops, new_ops, delta_fraction)` for every compared pair;
    /// `skipped` carries `(label, reason)` for every row that found no
    /// partner — a result of this run with "no baseline row", or a baseline
    /// row "not in this run". A renamed config key or a new or dropped sweep
    /// point thus shows in `--diff` output instead of silently leaving the
    /// regression gate.
    pub fn diff(&self, baseline: &BenchReport) -> DiffOutcome {
        let pairs = |a: &ScenarioResult, b: &ScenarioResult| {
            a.scenario == b.scenario && a.config == b.config
        };
        let mut outcome = DiffOutcome::default();
        for r in &self.results {
            let Some(b) = baseline.results.iter().find(|b| pairs(b, r)) else {
                outcome
                    .skipped
                    .push((r.label(), "no baseline row".to_string()));
                continue;
            };
            let delta = if b.throughput_ops > 0.0 {
                r.throughput_ops / b.throughput_ops - 1.0
            } else {
                f64::INFINITY
            };
            outcome
                .rows
                .push((r.label(), b.throughput_ops, r.throughput_ops, delta));
        }
        for b in &baseline.results {
            if !self.results.iter().any(|r| pairs(b, r)) {
                outcome
                    .skipped
                    .push((b.label(), "not in this run".to_string()));
            }
        }
        outcome
    }
}

/// What [`BenchReport::diff`] produced: compared rows plus explicit skips.
#[derive(Debug, Clone, Default)]
pub struct DiffOutcome {
    /// `(label, baseline_ops, new_ops, delta_fraction)` per compared pair.
    pub rows: Vec<(String, f64, f64, f64)>,
    /// `(label, reason)` per row with no partner on the other side.
    pub skipped: Vec<(String, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioResult {
        ScenarioResult {
            scenario: "fig08_smallbank".into(),
            config: vec![
                ("nodes".into(), "3".into()),
                ("mode".into(), "smoke".into()),
            ],
            throughput_ops: 1234.5,
            p50_us: 40,
            p99_us: 200,
            p999_us: 950,
            handover_count: 7,
            aborts: 2,
            queue_depth_hwm: 12,
        }
    }

    #[test]
    fn scenario_result_round_trips_through_json() {
        let r = sample();
        let parsed = ScenarioResult::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // And through an actual serialised string.
        let text = r.to_json().pretty();
        let parsed = ScenarioResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn report_round_trips_and_validates() {
        let mut report = BenchReport::new("PR", "smoke", 42);
        report.results.push(sample());
        let parsed = BenchReport::parse(&report.to_json().pretty()).unwrap();
        assert_eq!(parsed, report);
        assert!(parsed.validate(&["fig08_smallbank"]).is_ok());
        assert!(parsed.validate(&["fig09_tatp"]).is_err());
        assert_eq!(parsed.file_name(), "BENCH_PR.json");
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let mut v = sample().to_json();
        if let Json::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "p99_us");
        }
        let err = ScenarioResult::from_json(&v).unwrap_err();
        assert!(err.contains("p99_us"), "unexpected error: {err}");
    }

    #[test]
    fn validate_rejects_non_monotonic_percentiles() {
        let mut report = BenchReport::new("x", "smoke", 1);
        let mut r = sample();
        r.p50_us = 500;
        r.p99_us = 100;
        report.results.push(r);
        assert!(report.validate(&[]).is_err());
    }

    #[test]
    fn diff_matches_scenarios_by_name_and_config() {
        let mut base = BenchReport::new("base", "smoke", 1);
        base.results.push(sample());
        let mut new = BenchReport::new("new", "smoke", 1);
        let mut r = sample();
        r.throughput_ops = 1358.0;
        new.results.push(r);
        let outcome = new.diff(&base);
        assert_eq!(outcome.rows.len(), 1);
        assert!(outcome.skipped.is_empty());
        assert!(
            (outcome.rows[0].3 - 0.1) < 0.01,
            "expected ~+10%: {}",
            outcome.rows[0].3
        );
    }

    #[test]
    fn diff_reports_a_result_with_no_baseline_row() {
        let mut base = BenchReport::new("base", "smoke", 1);
        base.results.push(sample());
        let mut new = BenchReport::new("new", "smoke", 1);
        new.results.push(sample());
        // A renamed config key no longer pairs with its baseline row.
        let mut renamed = sample();
        renamed.config[0].0 = "node_count".into();
        new.results.push(renamed);
        let outcome = new.diff(&base);
        assert_eq!(outcome.rows.len(), 1);
        assert_eq!(
            outcome.skipped,
            [(
                "fig08_smallbank [node_count=3,mode=smoke]".to_string(),
                "no baseline row".to_string()
            )]
        );
    }

    #[test]
    fn diff_reports_a_baseline_row_not_in_this_run() {
        let mut base = BenchReport::new("base", "smoke", 1);
        base.results.push(sample());
        let mut dropped = sample();
        dropped.scenario = "fig09_tatp".into();
        base.results.push(dropped);
        let mut new = BenchReport::new("new", "smoke", 1);
        new.results.push(sample());
        let outcome = new.diff(&base);
        assert_eq!(outcome.rows.len(), 1);
        assert_eq!(
            outcome.skipped,
            [(
                "fig09_tatp [nodes=3,mode=smoke]".to_string(),
                "not in this run".to_string()
            )]
        );
    }
}
