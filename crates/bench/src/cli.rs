//! Command-line front end of the `bench` driver.
//!
//! ```text
//! bench [--smoke|--quick] [--tag TAG] [--seed N] [--scenario NAME]...
//!       [--out DIR] [--list]
//! bench --diff BASELINE.json NEW.json
//! ```
//!
//! Every run writes a `BENCH_<tag>.json` report (schema in
//! [`crate::report`]) and exits non-zero if any requested scenario is
//! missing from the report or produced malformed numbers — this is the CI
//! perf-smoke gate.

use std::path::{Path, PathBuf};

use crate::report::BenchReport;
use crate::scenario::{find, registry, RunCtx, REQUIRED_SCENARIOS};

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Tiny populations / short windows.
    pub smoke: bool,
    /// Report tag (`BENCH_<tag>.json`); `None` when `--tag` was not passed
    /// (the driver defaults to `local`).
    pub tag: Option<String>,
    /// Base workload seed.
    pub seed: u64,
    /// Scenario subset (empty = whole registry).
    pub scenarios: Vec<String>,
    /// Directory the report is written into.
    pub out: PathBuf,
    /// List scenarios and exit.
    pub list: bool,
    /// Compare two report files and exit.
    pub diff: Option<(PathBuf, PathBuf)>,
    /// With `--diff`: exit non-zero if any scenario regressed by more than
    /// this percentage (e.g. `10` = fail below 90% of baseline throughput).
    /// `None` = report-only (the CI default: shared runners are noisy).
    pub fail_on_regress: Option<f64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            smoke: false,
            tag: None,
            seed: 42,
            scenarios: Vec::new(),
            out: PathBuf::from("."),
            list: false,
            diff: None,
            fail_on_regress: None,
        }
    }
}

impl Args {
    /// Parses an argument list (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = argv.iter();
        let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" | "--quick" => args.smoke = true,
                "--list" => args.list = true,
                "--tag" => args.tag = Some(value(&mut it, "--tag")?),
                "--seed" => {
                    let seed: u64 = value(&mut it, "--seed")?
                        .parse()
                        .map_err(|_| "--seed needs an integer".to_string())?;
                    // The report schema stores numbers as f64, so reject
                    // seeds that would not round-trip exactly (the driver
                    // re-validates the written report and a lossy seed
                    // would fail only after the whole run completed).
                    if seed > (1u64 << 53) {
                        return Err("--seed must be at most 2^53".to_string());
                    }
                    args.seed = seed;
                }
                "--scenario" => args.scenarios.push(value(&mut it, "--scenario")?),
                "--out" => args.out = PathBuf::from(value(&mut it, "--out")?),
                "--diff" => {
                    let a = PathBuf::from(value(&mut it, "--diff")?);
                    let b = PathBuf::from(value(&mut it, "--diff")?);
                    args.diff = Some((a, b));
                }
                "--fail-on-regress" => {
                    let pct: f64 = value(&mut it, "--fail-on-regress")?
                        .parse()
                        .map_err(|_| "--fail-on-regress needs a percentage".to_string())?;
                    if !pct.is_finite() || pct < 0.0 {
                        return Err("--fail-on-regress must be a non-negative percentage".into());
                    }
                    args.fail_on_regress = Some(pct);
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
            }
        }
        Ok(args)
    }
}

const USAGE: &str =
    "usage: bench [--smoke] [--tag TAG] [--seed N] [--scenario NAME]... [--out DIR] [--list]
       bench --diff BASELINE.json NEW.json [--fail-on-regress PCT]";

/// Entry point of the unified driver; returns the process exit code.
pub fn run_driver() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if args.list {
        for spec in registry() {
            println!("{:<28} {}", spec.name, spec.about);
        }
        return 0;
    }
    if let Some((baseline, new)) = &args.diff {
        return run_diff(baseline, new, args.fail_on_regress);
    }
    run_scenarios(&args)
}

fn run_scenarios(args: &Args) -> i32 {
    let ctx = RunCtx {
        smoke: args.smoke,
        seed: args.seed,
    };
    let specs = if args.scenarios.is_empty() {
        // The default run is the gated set. Report-only arms (udp_smoke)
        // are opt-in via --scenario: they are too noisy for the regression
        // gate and CI runs them as a separate, ungated step.
        registry()
            .into_iter()
            .filter(|s| REQUIRED_SCENARIOS.contains(&s.name))
            .collect()
    } else {
        let mut specs = Vec::new();
        for name in &args.scenarios {
            match find(name) {
                Some(spec) => specs.push(spec),
                None => {
                    eprintln!("unknown scenario '{name}' (see --list)");
                    return 2;
                }
            }
        }
        specs
    };

    let tag = args.tag.as_deref().unwrap_or("local");
    let mut report = BenchReport::new(tag, ctx.mode(), ctx.seed);
    for spec in &specs {
        eprintln!("== {} ({})", spec.name, ctx.mode());
        let outcome = (spec.run)(&ctx);
        for table in &outcome.tables {
            table.print();
        }
        report.results.extend(outcome.results);
    }

    println!("# results ({} mode, seed {})", report.mode, report.seed);
    for result in &report.results {
        println!("{}", result.summary_line());
    }

    let required: Vec<&str> = if args.scenarios.is_empty() {
        REQUIRED_SCENARIOS.to_vec()
    } else {
        specs.iter().map(|s| s.name).collect()
    };
    let path = args.out.join(report.file_name());
    if let Err(e) = report.write(&path) {
        eprintln!("failed to write {}: {e}", path.display());
        return 1;
    }
    println!("# wrote {}", path.display());

    // Re-read what was written: the gate checks the artifact CI uploads,
    // not the in-memory state.
    let reread = match BenchReport::load(&path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("report failed to round-trip: {e}");
            return 1;
        }
    };
    if let Err(e) = reread.validate(&required) {
        eprintln!("report validation failed: {e}");
        return 1;
    }
    0
}

fn run_diff(baseline: &Path, new: &Path, fail_on_regress: Option<f64>) -> i32 {
    let (base, new_report) = match (BenchReport::load(baseline), BenchReport::load(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 1;
        }
    };
    println!(
        "# {} ({}) vs {} ({})",
        base.tag, base.mode, new_report.tag, new_report.mode
    );
    println!(
        "{:<52} {:>14} {:>14} {:>8}",
        "scenario", "baseline ops/s", "new ops/s", "delta"
    );
    let outcome = new_report.diff(&base);
    // Name what the gate is NOT covering: a row with no partner on the other
    // side (a renamed config key, a new or dropped sweep point) is listed
    // instead of silently vanishing from the regression gate.
    for (label, reason) in &outcome.skipped {
        println!("{label:<52} {:>14} {:>14} {:>8}", "-", "-", reason);
    }
    let rows = outcome.rows;
    if rows.is_empty() {
        // Results pair up by scenario name + full config, and every result's
        // config carries the run's mode and seed — so comparing a smoke run
        // against a full run (or runs with different seeds) matches nothing.
        // Say so instead of printing an empty table that reads as "no change".
        eprintln!(
            "warning: no scenarios matched between the two reports \
             (results pair by scenario name + config, including mode and seed \
             — compare runs with identical flags)"
        );
        return 1;
    }
    let mut regressions = Vec::new();
    for (label, base_ops, new_ops, delta) in rows {
        println!(
            "{:<52} {:>14.0} {:>14.0} {:>+7.1}%",
            label,
            base_ops,
            new_ops,
            delta * 100.0
        );
        if let Some(pct) = fail_on_regress {
            if delta * 100.0 < -pct {
                regressions.push(format!("{label}: {:+.1}%", delta * 100.0));
            }
        }
    }
    if !regressions.is_empty() {
        let pct = fail_on_regress.unwrap_or(0.0);
        eprintln!("regressions beyond the {pct}% threshold:");
        for r in &regressions {
            eprintln!("  {r}");
        }
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_driver_flags() {
        let args = parse(&[
            "--smoke",
            "--tag",
            "PR",
            "--seed",
            "7",
            "--scenario",
            "fig08_smallbank",
            "--scenario",
            "fig09_tatp",
            "--out",
            "/tmp",
        ])
        .unwrap();
        assert!(args.smoke);
        assert_eq!(args.tag.as_deref(), Some("PR"));
        assert_eq!(args.seed, 7);
        assert_eq!(args.scenarios, vec!["fig08_smallbank", "fig09_tatp"]);
        assert_eq!(args.out, PathBuf::from("/tmp"));
    }

    #[test]
    fn quick_is_an_alias_for_smoke() {
        assert!(parse(&["--quick"]).unwrap().smoke);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--tag"]).is_err());
        assert!(parse(&["--seed", "abc"]).is_err());
        // Seeds beyond 2^53 would not survive the f64-backed JSON schema.
        assert!(parse(&["--seed", "10000000000000000"]).is_err());
        assert!(parse(&["--diff", "only-one.json"]).is_err());
    }

    #[test]
    fn parses_diff_mode() {
        let args = parse(&["--diff", "a.json", "b.json"]).unwrap();
        assert_eq!(
            args.diff,
            Some((PathBuf::from("a.json"), PathBuf::from("b.json")))
        );
        assert_eq!(args.fail_on_regress, None, "report-only by default");
    }

    #[test]
    fn parses_fail_on_regress() {
        let args = parse(&["--diff", "a.json", "b.json", "--fail-on-regress", "10"]).unwrap();
        assert_eq!(args.fail_on_regress, Some(10.0));
        assert!(parse(&["--fail-on-regress", "abc"]).is_err());
        assert!(parse(&["--fail-on-regress", "-3"]).is_err());
    }

    #[test]
    fn diff_gate_fails_on_regression_beyond_threshold() {
        use crate::report::{BenchReport, ScenarioResult};
        let dir = std::env::temp_dir().join(format!("zeus-bench-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mk = |tag: &str, ops: f64| {
            let mut report = BenchReport::new(tag, "smoke", 1);
            let mut r = ScenarioResult::new("fig08_smallbank");
            r.throughput_ops = ops;
            report.results.push(r);
            let path = dir.join(format!("BENCH_{tag}.json"));
            report.write(&path).unwrap();
            path
        };
        let base = mk("base", 1000.0);
        let slow = mk("slow", 800.0);
        // 20% regression: report-only passes, a 10% gate fails, 30% passes.
        assert_eq!(run_diff(&base, &slow, None), 0);
        assert_eq!(run_diff(&base, &slow, Some(10.0)), 1);
        assert_eq!(run_diff(&base, &slow, Some(30.0)), 0);
        // Nothing pairs: both rows are listed as skipped and the diff fails.
        let mut other = BenchReport::new("other", "smoke", 1);
        other.results.push(ScenarioResult::new("fig09_tatp"));
        let other_path = dir.join("BENCH_other.json");
        other.write(&other_path).unwrap();
        assert_eq!(run_diff(&base, &other_path, None), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
