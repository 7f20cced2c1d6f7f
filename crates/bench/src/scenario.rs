//! Scenario registry: every measured figure of the evaluation, and the
//! experiments beyond it, as a named, uniformly-invocable scenario.
//!
//! A scenario takes a [`RunCtx`] (smoke vs full windows, the workload seed)
//! and returns a [`ScenarioOutcome`]: the human-readable tables of its
//! figure plus one or more [`ScenarioResult`]s in the common JSON schema. The
//! `bench` driver runs any subset of the registry and writes the results to
//! `BENCH_<tag>.json`.

use std::time::Duration;

use crate::harness::MeasureOpts;
use crate::report::ScenarioResult;
use crate::scenarios;

/// Per-run context handed to every scenario.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Smoke mode: tiny populations and short windows, for CI (< 2 min for
    /// the whole registry).
    pub smoke: bool,
    /// Base workload seed. Client `c` of a measured run derives its stream
    /// from `seed + c`, so runs with equal seeds replay identical inputs.
    pub seed: u64,
}

impl RunCtx {
    /// `"smoke"` or `"full"`, for result configs and report headers.
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// Measurement windows for this mode.
    pub fn opts(&self) -> MeasureOpts {
        MeasureOpts::for_mode(self.smoke)
    }

    /// Picks a population size: `full` normally, `smoke` in smoke mode.
    pub fn pop(&self, full: u64, smoke: u64) -> u64 {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Measurement window for scenarios that manage their own loops.
    pub fn window(&self) -> Duration {
        self.opts().measure
    }

    /// Stamps the shared config keys (`mode`, `seed`) onto a result.
    pub fn stamp(&self, result: ScenarioResult) -> ScenarioResult {
        result
            .with_config("mode", self.mode())
            .with_config("seed", self.seed)
    }
}

/// One printable table (title + CSV-ish header and rows).
#[derive(Debug, Clone)]
pub struct TableData {
    /// Table title.
    pub title: String,
    /// Column names.
    pub header: Vec<&'static str>,
    /// Row values.
    pub rows: Vec<Vec<String>>,
}

impl TableData {
    /// Prints the table in the harness's common format.
    pub fn print(&self) {
        crate::harness::print_table(&self.title, &self.header, &self.rows);
    }
}

/// What a scenario produces: tables for humans, results for machines.
#[derive(Debug, Clone, Default)]
pub struct ScenarioOutcome {
    /// Tables to print.
    pub tables: Vec<TableData>,
    /// Results in the common schema (at least one per scenario).
    pub results: Vec<ScenarioResult>,
}

/// A registered scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Registry name; also the binary name and the `scenario` field of the
    /// emitted results.
    pub name: &'static str,
    /// One-line description for `bench --list`.
    pub about: &'static str,
    /// Entry point.
    pub run: fn(&RunCtx) -> ScenarioOutcome,
}

/// Names of all scenarios a complete report must contain (the CI perf-smoke
/// gate fails if any is missing from `BENCH_PR.json`).
pub const REQUIRED_SCENARIOS: [&str; 9] = [
    "fig07_handovers",
    "fig08_smallbank",
    "fig09_tatp",
    "fig10_voter_migration",
    "fig11_voter_hot",
    "fig12_ownership_latency",
    "phase_shift",
    "pipeline_depth",
    "saturation",
];

/// The full scenario registry, in report order.
pub fn registry() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: "fig07_handovers",
            about: "Handovers throughput on 3 and 6 nodes (measured)",
            run: scenarios::fig07::run,
        },
        ScenarioSpec {
            name: "fig08_smallbank",
            about: "Smallbank throughput at Venmo-like locality (measured)",
            run: scenarios::fig08::run,
        },
        ScenarioSpec {
            name: "fig09_tatp",
            about: "TATP throughput with all-local writes (measured)",
            run: scenarios::fig09::run,
        },
        ScenarioSpec {
            name: "fig10_voter_migration",
            about: "Voter bulk ownership migration (simulated)",
            run: scenarios::fig10::run,
        },
        ScenarioSpec {
            name: "fig11_voter_hot",
            about: "Hot-object migration under vote load (measured)",
            run: scenarios::fig11::run,
        },
        ScenarioSpec {
            name: "fig12_ownership_latency",
            about: "Ownership latency CDFs, idle vs under load (simulated)",
            run: scenarios::fig12::run,
        },
        ScenarioSpec {
            name: "phase_shift",
            about: "Phase-shifting hotspot: reactive vs predictive placement A/B (simulated)",
            run: scenarios::phase_shift::run,
        },
        ScenarioSpec {
            name: "pipeline_depth",
            about: "Pipelined submission: throughput/p99 vs in-flight depth (measured)",
            run: scenarios::pipeline_depth::run,
        },
        ScenarioSpec {
            name: "saturation",
            about: "Open-loop latency under load: threaded runtime and simulator (measured)",
            run: scenarios::saturation::run,
        },
        ScenarioSpec {
            name: "udp_smoke",
            about: "Smallbank + sub-knee open-loop points over loopback UDP (report-only)",
            run: scenarios::udp_smoke::run,
        },
    ]
}

/// Looks up a scenario by name.
pub fn find(name: &str) -> Option<ScenarioSpec> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_required_scenario() {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        for required in REQUIRED_SCENARIOS {
            assert!(names.contains(&required), "missing {required}");
        }
        // Anything beyond the gated set must be a known report-only arm —
        // registered for --scenario selection but excluded from default
        // runs and from the regression gate.
        let extras: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| !REQUIRED_SCENARIOS.contains(n))
            .collect();
        assert_eq!(extras, ["udp_smoke"]);
    }

    #[test]
    fn committed_baseline_rows_name_exactly_the_required_scenarios() {
        let baseline =
            crate::report::BenchReport::parse(include_str!("../../../BENCH_baseline.json"))
                .expect("BENCH_baseline.json parses");
        for r in &baseline.results {
            assert!(
                REQUIRED_SCENARIOS.contains(&r.scenario.as_str()),
                "baseline row for unregistered scenario {}",
                r.scenario
            );
        }
        // Every required scenario has a row, and every row is well-formed.
        baseline.validate(&REQUIRED_SCENARIOS).unwrap();
    }

    #[test]
    fn find_matches_exact_names() {
        assert!(find("fig08_smallbank").is_some());
        assert!(find("fig99_nope").is_none());
    }
}
