//! `--selftest`: is the ruler steady enough to measure with?
//!
//! Applies the rule the benchmark's driver applies: run every workload
//! `RUNS` times (each time another seed, each time a fresh process), take
//! per end-to-end metric the interquartile distance as a share of the
//! median, and do all of that twice. The benchmark passes if every spread
//! (except `setup_s`'s) stays within the metric's bound and no second
//! median is worse than the first by more than the bound.

use std::process::{Command, ExitCode};

use zeus_benchmark::gen::Workload;
use zeus_benchmark::manifest::{Better, END_TO_END};
use zeus_benchmark::stats::{median, spread};

use crate::Options;

/// Runs per set, as the driver makes them.
const RUNS: usize = 10;

/// Pulls `"name": {"value": X` out of a result line this binary printed.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

fn one_run(workload: Workload, seed: u64, seconds: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "{} seed {seed}: {} — {line}\n{}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    // Failed transactions are the result's to report, not a reason to stop.
    if !line.contains("\"failed\": 0,") {
        eprintln!("selftest: {} seed {seed}: {line}", workload.name());
    }
    END_TO_END
        .iter()
        .map(|(m, _)| metric_value(line, m.name).ok_or(format!("{} missing in {line}", m.name)))
        .collect()
}

pub fn run(options: &Options) -> ExitCode {
    let mut passed = true;
    println!(
        "{:<14} {:<10} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "iqr 1", "median 2", "iqr 2", "drift", "bound"
    );
    for &workload in &options.workloads {
        // sets[set][metric] = the values of that metric over the runs.
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for (set, values) in sets.iter_mut().enumerate() {
            for run in 0..RUNS {
                let seed = options.seed + (set * RUNS + run) as u64;
                match one_run(workload, seed, options.seconds) {
                    Ok(metrics) => {
                        for (column, value) in values.iter_mut().zip(metrics) {
                            column.push(value);
                        }
                    }
                    Err(error) => {
                        eprintln!("selftest: {error}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for (i, (metric, bound)) in END_TO_END.iter().enumerate() {
            let (first, second) = (&sets[0][i], &sets[1][i]);
            let (m1, m2) = (median(first), median(second));
            let worse = match metric.better {
                Better::Higher => (m1 - m2) / m1,
                Better::Lower => (m2 - m1) / m1,
            };
            let (s1, s2) = (spread(first), spread(second));
            let steady = metric.name == "setup_s" || s1.max(s2) <= *bound;
            let ok = steady && worse <= *bound;
            passed &= ok;
            println!(
                "{:<14} {:<10} {:>12.3} {:>7.1}% {:>12.3} {:>7.1}% {:>7.1}% {:>5.0}%  {}",
                workload.name(),
                metric.name,
                m1,
                100.0 * s1,
                m2,
                100.0 * s2,
                100.0 * worse,
                100.0 * bound,
                match (ok, s1.max(s2) <= bound / 3.0) {
                    (false, _) => "FAIL",
                    (true, true) => "ok",
                    (true, false) => "ok (spread above a third of the bound)",
                }
            );
        }
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::metric_value;

    #[test]
    fn parses_its_own_result_line() {
        let line = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"tx_per_s": {"value": 90012.25, "unit": "1/s"}, "setup_s": {"value": 0.5, "unit": "s"}}}"#;
        assert_eq!(metric_value(line, "tx_per_s"), Some(90012.25));
        assert_eq!(metric_value(line, "setup_s"), Some(0.5));
        assert_eq!(metric_value(line, "tx_p50_us"), None);
    }
}
