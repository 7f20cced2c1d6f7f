//! The exploration driver: generate → run → (on failure) shrink → report.
//!
//! [`explore`] runs a batch of generated schedules. In smoke mode the batch
//! is a fixed count (deterministic report for a given `--seed`); in full
//! mode it is bounded by a wall-clock budget. The first violation stops the
//! exploration: the failing schedule is shrunk to a minimal repro and both
//! are handed back for the CLI to write out as corpus-format JSON (CI
//! uploads them as artifacts).

use std::time::{Duration, Instant};

use zeus_bench::report::ScenarioResult;

use crate::generate::{generate_schedule_with, Profile};
use crate::runner::{run_schedule, RunOptions, RunStats, Violation};
use crate::schedule::Schedule;
use crate::shrink::shrink_schedule;

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Base seed: schedule `i` is `generate_schedule(seed, i)`.
    pub seed: u64,
    /// Number of schedules (smoke mode), ignored when `time_budget` is set.
    pub schedules: u64,
    /// Wall-clock budget (full mode): generate-and-run until it expires.
    pub time_budget: Option<Duration>,
    /// Options passed to every run.
    pub run: RunOptions,
    /// Fault mix of the generated schedules.
    pub profile: Profile,
    /// Predicate-invocation budget of the shrinker.
    pub shrink_budget: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            seed: 42,
            schedules: 200,
            time_budget: None,
            run: RunOptions::default(),
            profile: Profile::default(),
            shrink_budget: 400,
        }
    }
}

/// A failure found by the explorer.
#[derive(Debug, Clone)]
pub struct ExploreFailure {
    /// The generated schedule that failed.
    pub schedule: Schedule,
    /// Its violation.
    pub violation: Violation,
    /// The shrunk repro (still failing).
    pub shrunk: Schedule,
    /// The shrunk repro's violation (may differ in detail from the
    /// original; it is still a violation).
    pub shrunk_violation: Violation,
    /// Predicate invocations the shrinker used.
    pub shrink_runs: usize,
}

/// Aggregate outcome of an exploration.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Schedules actually run.
    pub ran: u64,
    /// Aggregated run statistics.
    pub totals: RunStats,
    /// Per-schedule simulated durations (ticks), for the report
    /// percentiles.
    pub sim_ticks: Vec<u64>,
    /// The first failure, shrunk, if any schedule failed.
    pub failure: Option<Box<ExploreFailure>>,
}

impl ExploreOutcome {
    /// Builds the bench-schema result row for this exploration.
    pub fn to_scenario_result(&self, seed: u64, mode: &str) -> ScenarioResult {
        let mut ticks = self.sim_ticks.clone();
        ticks.sort_unstable();
        let pct = |p: f64| -> u64 {
            if ticks.is_empty() {
                return 0;
            }
            let idx = ((ticks.len() as f64 - 1.0) * p).round() as usize;
            ticks[idx]
        };
        let mut result = ScenarioResult::new("chaos_explore")
            .with_config("mode", mode)
            .with_config("seed", seed)
            .with_config("schedules", self.ran)
            .with_config("violations", u64::from(self.failure.is_some()))
            .with_config(
                "committed_ops",
                self.totals.committed_writes + self.totals.committed_reads,
            )
            .with_config("failed_ops", self.totals.failed_ops);
        // All metrics are simulation-derived, so the report is identical
        // across reruns of the same seed (the CI determinism gate).
        result.throughput_ops = (self.totals.committed_writes + self.totals.committed_reads) as f64;
        result.p50_us = pct(0.50);
        result.p99_us = pct(0.99);
        result.p999_us = pct(0.999);
        result.handover_count = self.totals.handovers;
        result.aborts = self.totals.aborts;
        result
    }
}

/// Runs the exploration described by `config`.
///
/// `progress` is called after every schedule with `(index, name, passed)` —
/// the CLI uses it for terse stderr output; pass `|_, _, _| {}` otherwise.
pub fn explore(
    config: &ExploreConfig,
    mut progress: impl FnMut(u64, &str, bool),
) -> ExploreOutcome {
    let started = Instant::now();
    let mut outcome = ExploreOutcome {
        ran: 0,
        totals: RunStats::default(),
        sim_ticks: Vec::new(),
        failure: None,
    };
    let mut index = 0u64;
    loop {
        match config.time_budget {
            Some(budget) => {
                if started.elapsed() >= budget {
                    break;
                }
            }
            None => {
                if index >= config.schedules {
                    break;
                }
            }
        }
        let schedule = generate_schedule_with(config.seed, index, config.profile);
        let run = run_schedule(&schedule, &config.run);
        outcome.ran += 1;
        outcome.sim_ticks.push(run.stats.sim_ticks);
        outcome.totals.merge(&run.stats);
        let passed = run.passed();
        progress(index, &schedule.name, passed);
        if let Some(violation) = run.violation {
            let run_opts = config.run.clone();
            let (shrunk, shrink_runs) = shrink_schedule(
                &schedule,
                |candidate| run_schedule(candidate, &run_opts).violation.is_some(),
                config.shrink_budget,
            );
            let shrunk_violation = run_schedule(&shrunk, &config.run)
                .violation
                .unwrap_or_else(|| violation.clone());
            outcome.failure = Some(Box::new(ExploreFailure {
                schedule,
                violation,
                shrunk,
                shrunk_violation,
                shrink_runs,
            }));
            break;
        }
        index += 1;
    }
    outcome
}
