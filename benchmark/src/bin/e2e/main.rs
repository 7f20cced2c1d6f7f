//! `zeus-bench-e2e`: runs the benchmark's workloads through the public
//! client surface (`ClusterDriver` / `Session` / `Admin`), checks their
//! outputs, and prints every metric by name with its unit. The last line of
//! standard output is the JSON result the benchmark's driver reads.
//!
//! ```text
//! zeus-bench-e2e [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//! zeus-bench-e2e --selftest [--seed N] [--seconds S]
//! zeus-bench-e2e --manifest
//! ```

#[cfg(test)]
mod findings;
mod selftest;
mod sim;
mod threaded;
mod txn;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use zeus_benchmark::gen::{Class, Workload};
use zeus_benchmark::manifest::{self, RUN_SECONDS};
use zeus_benchmark::stats::{median, quantile_sorted};
use zeus_benchmark::trace::{self, Span, SpanKind};

use threaded::{Repeat, Slice, WindowPlan, WindowResult};

/// Fresh clusters per untraced run: each gives one sample of every
/// end-to-end metric (and of `setup_s`); the run reports their medians.
const REPEATS: u64 = 3;
/// A run that has not finished by then is killed: the driver allows 180 s.
const RUN_DEADLINE: Duration = Duration::from_secs(150);

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selftest: bool,
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: zeus-bench-e2e [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]\n       zeus-bench-e2e --selftest [--seed N] [--seconds S]\n       zeus-bench-e2e --manifest\nworkloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut options = Options {
        workloads: Vec::new(),
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        selftest: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => options
                .workloads
                .push(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => options.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => options.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                options.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--selftest" => options.selftest = true,
            "--manifest" => {
                print!("{}", manifest::benchmark_json());
                std::process::exit(0)
            }
            _ => usage(),
        }
    }
    if options.seconds == 0 {
        usage();
    }
    if options.workloads.is_empty() {
        options.workloads = Workload::ALL.to_vec();
    }
    options
}

fn main() -> ExitCode {
    let options = parse_args();
    if options.selftest {
        return selftest::run(&options);
    }
    // Never hang: whatever wedges — a blocking read, a barrier behind a
    // panicked client — the process ends with a failure before the driver's
    // own timeout.
    let budget = RUN_DEADLINE * options.workloads.len() as u32;
    std::thread::spawn(move || {
        std::thread::sleep(budget);
        eprintln!("zeus-bench-e2e: no result after {budget:?}; giving up");
        std::process::exit(3);
    });

    let mut all_correct = true;
    for &workload in &options.workloads {
        let outcome = match run_workload(workload, &options) {
            Ok(outcome) => outcome,
            Err(error) => {
                eprintln!("{}: {error}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        all_correct &= outcome.correct;
        print_outcome(workload, &outcome);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_workload(workload: Workload, options: &Options) -> Result<Outcome, String> {
    let window = Duration::from_secs(options.seconds);
    match (workload, options.trace) {
        (Workload::SimProtocol, false) => sim_end_to_end(options.seed, window),
        (Workload::SimProtocol, true) => sim_traced(options.seed),
        (_, false) => threaded_end_to_end(workload, options.seed, window),
        (_, true) => threaded_traced(workload, options.seed, window),
    }
}

// ---------------------------------------------------------------------------
// End-to-end runs
// ---------------------------------------------------------------------------

fn micros(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

/// The three timing metrics of a set of slices: the median over slices of
/// the slice's throughput, median latency and 99th-percentile latency.
fn slice_medians<'a>(slices: impl Iterator<Item = &'a Slice> + Clone) -> [f64; 3] {
    let column = |f: &dyn Fn(&Slice) -> f64| median(&slices.clone().map(f).collect::<Vec<_>>());
    [
        column(&|s| s.tx_per_s),
        column(&|s| micros(quantile_sorted(&s.latency, 0.50))),
        column(&|s| micros(quantile_sorted(&s.latency, 0.99))),
    ]
}

fn threaded_end_to_end(workload: Workload, seed: u64, window: Duration) -> Result<Outcome, String> {
    let plan = [WindowPlan {
        duration: window / REPEATS as u32,
        traced: false,
    }];
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (mut slices, mut setup) = (Vec::new(), Vec::new());
    for repeat in 0..REPEATS {
        // Each repeat draws its own stream, a function of the seed alone.
        let mut run = threaded::run_repeat(workload, seed ^ (repeat << 56), &plan, false)?;
        let measured = run.windows.remove(0);
        let [tput, p50, p99] = slice_medians(measured.slices.iter());
        eprintln!(
            "{} repeat {repeat}: {tput:.0} tx/s, p50 {p50:.1} us, p99 {p99:.1} us ({} slices, {} transactions), setup {:.3} s",
            workload.name(),
            measured.slices.len(),
            measured.committed,
            run.setup.as_secs_f64()
        );
        outcome.count(run.warmup, std::slice::from_ref(&measured));
        outcome.check(run.check);
        setup.push(run.setup.as_secs_f64());
        slices.extend(measured.slices);
    }
    let [tput, p50, _] = slice_medians(slices.iter());
    outcome.metrics = vec![
        ("tx_per_s", tput),
        ("tx_p50_us", p50),
        ("setup_s", median(&setup)),
    ];
    Ok(outcome)
}

impl Outcome {
    /// Counts the transactions of one repeat: its warm-up (attempted,
    /// failed) and its measured windows.
    fn count(&mut self, warmup: [u64; 2], windows: &[WindowResult]) {
        self.attempted += warmup[0] + windows.iter().map(|w| w.attempted).sum::<u64>();
        self.failed += warmup[1] + windows.iter().map(|w| w.failed).sum::<u64>();
    }

    /// Records the result of an output check.
    fn check(&mut self, result: Result<(), String>) {
        if let Err(error) = result {
            eprintln!("output check failed: {error}");
            self.correct = false;
        }
    }
}

/// Loops the protocol script on fresh simulated clusters until the window is
/// used up. One script execution is one slice; a latency sample is one bulk
/// block (16 transactions and their settle) divided by 16; `setup_s` is the
/// median cluster build and load. Every timing of a slice is scaled to the
/// reference host speed by the canary timed right after it.
fn sim_end_to_end(seed: u64, window: Duration) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (mut slices, mut setup, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_costs = None;
    let mut measured = Duration::ZERO;
    while measured < window {
        let mut run = sim::run_script(seed, false)?;
        measured += run.elapsed;
        // Above 1 when the host is slower than the reference state.
        let slowdown = sim::canary().as_secs_f64() / sim::CANARY_REFERENCE.as_secs_f64();
        for nanos in &mut run.block_tx_nanos {
            *nanos = (*nanos as f64 / slowdown) as u64;
        }
        run.block_tx_nanos.sort_unstable();
        slices.push(Slice {
            tx_per_s: run.attempted as f64 / run.elapsed.as_secs_f64() * slowdown,
            latency: run.block_tx_nanos,
        });
        setup.push(run.setup.as_secs_f64() / slowdown);
        slowdowns.push(slowdown);
        outcome.attempted += run.attempted;
        outcome.failed += run.failed;
        outcome.check(sim::check_claims(&run.costs));
        // The script is deterministic: every execution must cost the same.
        if *first_costs.get_or_insert_with(|| run.costs.clone()) != run.costs {
            outcome.check(Err("script executions differ in protocol cost".into()));
        }
    }
    eprintln!(
        "sim_protocol: {} script executions, median host slowdown {:.3}",
        slices.len(),
        median(&slowdowns)
    );
    let [tput, p50, _] = slice_medians(slices.iter());
    outcome.metrics = vec![
        ("tx_per_s", tput),
        ("tx_p50_us", p50),
        ("setup_s", median(&setup)),
    ];
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// Traced runs: per-layer metrics
// ---------------------------------------------------------------------------

/// One cluster, four windows alternating untraced and traced, so that
/// `trace_overhead_frac` compares like with like.
fn threaded_traced(workload: Workload, seed: u64, window: Duration) -> Result<Outcome, String> {
    let plan: Vec<WindowPlan> = [false, true, true, false]
        .iter()
        .map(|&traced| WindowPlan {
            duration: window / 4,
            traced,
        })
        .collect();
    let epoch = Instant::now();
    let run = threaded::run_repeat(workload, seed, &plan, true)?;
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    outcome.count(run.warmup, &run.windows);
    outcome.check(run.check.clone());
    client_metrics(&mut outcome, &run);
    counter_metrics(&mut outcome, &run);

    let spans: Vec<Span> = run
        .windows
        .iter()
        .flat_map(|w| w.spans.iter().copied())
        .collect();
    span_metrics(&mut outcome, &run, &spans);
    write_spans(workload, epoch, &spans)?;

    let script = sim::run_script(seed, false)?;
    finish_traced(&mut outcome, &script);
    Ok(outcome)
}

/// The script untraced, then traced: the second execution supplies the
/// spans, the pair the tracing overhead. The threaded client and counter
/// metrics have no sample here and read 0.
fn sim_traced(seed: u64) -> Result<Outcome, String> {
    let untraced = sim::run_script(seed, false)?;
    let epoch = Instant::now();
    let mut traced = sim::run_script(seed, true)?;
    traced.block_tx_nanos.sort_unstable();
    let rate = |run: &sim::ScriptRun| run.attempted as f64 / run.elapsed.as_secs_f64();
    let wait = span_durations(&traced.spans, SpanKind::Wait);
    let mut outcome = Outcome {
        correct: true,
        attempted: traced.attempted,
        failed: traced.failed,
        metrics: vec![
            (
                "client.tx_p99_us",
                micros(quantile_sorted(&traced.block_tx_nanos, 0.99)),
            ),
            ("core.session_wait_us", micros(quantile_sorted(&wait, 0.5))),
            ("trace_overhead_frac", 1.0 - rate(&traced) / rate(&untraced)),
        ],
    };
    write_spans(Workload::SimProtocol, epoch, &traced.spans)?;
    finish_traced(&mut outcome, &traced);
    Ok(outcome)
}

fn write_spans(workload: Workload, epoch: Instant, spans: &[Span]) -> Result<(), String> {
    let out = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = out.join(format!("trace_{}.json", workload.name()));
    trace::write_chrome_trace(&path, epoch, spans)
        .map_err(|error| format!("writing {}: {error}", path.display()))?;
    eprintln!("{} spans written to {}", spans.len(), path.display());
    Ok(())
}

/// Sorted durations, in nanoseconds, of the spans of one kind.
fn span_durations(spans: &[Span], kind: SpanKind) -> Vec<u64> {
    let mut nanos: Vec<u64> = spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(Span::nanos)
        .collect();
    nanos.sort_unstable();
    nanos
}

fn client_metrics(outcome: &mut Outcome, run: &Repeat) {
    let slices = run.windows.iter().flat_map(|w| w.slices.iter());
    outcome
        .metrics
        .push(("client.tx_p99_us", slice_medians(slices)[2]));
    let merged = |class: Class| {
        let mut all: Vec<u64> = run
            .windows
            .iter()
            .flat_map(|w| w.latency[class as usize].iter().copied())
            .collect();
        all.sort_unstable();
        all
    };
    for (class, p50, p99) in [
        (Class::Write, "client.write_p50_us", "client.write_p99_us"),
        (Class::Read, "client.read_p50_us", "client.read_p99_us"),
        (
            Class::Handover,
            "client.handover_p50_us",
            "client.handover_p99_us",
        ),
    ] {
        let latencies = merged(class);
        outcome
            .metrics
            .push((p50, micros(quantile_sorted(&latencies, 0.50))));
        outcome
            .metrics
            .push((p99, micros(quantile_sorted(&latencies, 0.99))));
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.metrics.push(("client.failed_frac", failed_frac));
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Deltas of the cluster's own counters across the four windows.
fn counter_metrics(outcome: &mut Outcome, run: &Repeat) {
    let (a, b) = (&run.before, &run.after);
    let committed = b.nodes.total_committed() - a.nodes.total_committed();
    let seconds = b.at.duration_since(a.at).as_secs_f64();
    let requests = b.nodes.ownership_requests - a.nodes.ownership_requests;
    let completed = b.nodes.ownership_completed - a.nodes.ownership_completed;
    let m = &mut outcome.metrics;
    m.push((
        "net.msgs_per_tx",
        ratio(b.net.messages_sent - a.net.messages_sent, committed),
    ));
    m.push((
        "net.bytes_per_tx",
        ratio(b.net.bytes_sent - a.net.bytes_sent, committed),
    ));
    m.push(("net.queue_depth_hwm", b.net.queue_depth_hwm as f64));
    m.push((
        "net.dropped",
        (b.net.messages_dropped - a.net.messages_dropped) as f64,
    ));
    m.push((
        "net.duplicates",
        (b.net.messages_duplicated - a.net.messages_duplicated) as f64,
    ));
    m.push(("ownership.requests_per_tx", ratio(requests, committed)));
    m.push(("ownership.completed_per_s", completed as f64 / seconds));
    m.push((
        "ownership.retry_frac",
        ratio(requests.saturating_sub(completed), requests),
    ));
    m.push((
        "ownership.latency_p50_us",
        run.ownership_latency.percentile(50.0) as f64,
    ));
    m.push((
        "ownership.latency_p99_us",
        run.ownership_latency.percentile(99.0) as f64,
    ));
    m.push((
        "core.aborts_per_tx",
        ratio(b.nodes.txs_aborted - a.nodes.txs_aborted, committed),
    ));
    m.push((
        "core.fenced",
        (b.nodes.txs_fenced - a.nodes.txs_fenced) as f64,
    ));
    m.push((
        "core.batched_frac",
        ratio(
            b.nodes.batched_commands - a.nodes.batched_commands,
            committed,
        ),
    ));
    m.push(("core.batch_hwm", b.nodes.batch_occupancy_hwm as f64));
    m.push((
        "core.idle_roundtrip_us",
        micros(run.idle_roundtrip_ns.unwrap_or(0)),
    ));
}

fn span_metrics(outcome: &mut Outcome, run: &Repeat, spans: &[Span]) {
    let rate = |traced: bool| {
        let slices = run.windows.iter().filter(|w| w.traced == traced);
        slice_medians(slices.flat_map(|w| w.slices.iter()))[0]
    };
    outcome.metrics.push((
        "core.session_submit_ns",
        quantile_sorted(&span_durations(spans, SpanKind::Submit), 0.5) as f64,
    ));
    outcome.metrics.push((
        "core.session_wait_us",
        micros(quantile_sorted(&span_durations(spans, SpanKind::Wait), 0.5)),
    ));
    outcome
        .metrics
        .push(("trace_overhead_frac", 1.0 - rate(true) / rate(false)));
}

/// Adds the protocol script's exact counts and the probes' numbers, and
/// zero for whatever per-layer metric this workload has no sample of.
fn finish_traced(outcome: &mut Outcome, script: &sim::ScriptRun) {
    outcome.check(sim::check_claims(&script.costs));
    if script.failed > 0 {
        outcome.check(Err(format!("{} script transactions failed", script.failed)));
    }
    let c = &script.costs;
    outcome.metrics.extend([
        ("sim.msgs_per_tx", c.msgs_per_tx),
        ("sim.bytes_per_tx", c.bytes_per_tx),
        ("sim.commit_rtts", c.commit_rtts),
        ("sim.handover_rtts", c.handover_rtts),
        ("sim.session_handover_rtts", c.session_handover_rtts),
        ("sim.failover_ticks", c.failover_ticks),
        ("net.msgs_per_local_write", c.msgs_per_local_write),
        ("net.bytes_per_local_write", c.bytes_per_local_write),
        ("net.msgs_per_read", c.msgs_per_read),
        ("net.msgs_per_handover_reader", c.msgs_per_handover_reader),
        (
            "net.msgs_per_handover_nonreplica",
            c.msgs_per_handover_nonreplica,
        ),
        (
            "net.bytes_per_handover_nonreplica",
            c.bytes_per_handover_nonreplica,
        ),
        ("ownership.rtts_nonreplica", c.rtts_nonreplica),
        ("commit.retransmits", c.commit_retransmits),
        ("ownership.retransmits", c.ownership_retransmits),
        ("ownership.nacks", c.ownership_nacks),
        ("view.changes", c.view_changes),
        (
            "core.sim_step_ns",
            script.elapsed.as_nanos() as f64 / c.msgs_delivered.max(1) as f64,
        ),
    ]);
    for metric in manifest::LAYER_E2E {
        if !outcome.metrics.iter().any(|(name, _)| *name == metric.name) {
            outcome.metrics.push((metric.name, 0.0));
        }
    }
    let probes = run_probes();
    for metric in manifest::LAYER_PROBES {
        if !probes.iter().any(|(name, _)| *name == metric.name) {
            eprintln!("warning: per-layer metric {} is absent", metric.name);
        }
    }
    outcome.metrics.extend(probes);
}

/// Runs `zeus-bench-probes` (built beside this binary by `run.sh`) and
/// parses its `name value` lines. A missing or failing probes binary costs
/// the probe metrics, not the run.
fn run_probes() -> Vec<(&'static str, f64)> {
    let path = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("zeus-bench-probes")));
    let output = path
        .as_ref()
        .map(|p| std::process::Command::new(p).output());
    let stdout = match output {
        Some(Ok(output)) if output.status.success() => output.stdout,
        other => {
            eprintln!("warning: layer probes unavailable ({other:?}); their metrics are absent");
            return Vec::new();
        }
    };
    String::from_utf8_lossy(&stdout)
        .lines()
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((manifest::find(name)?.name, value.trim().parse().ok()?))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Prints every metric by name with its unit, then the JSON result line.
fn print_outcome(workload: Workload, outcome: &Outcome) {
    println!(
        "# {}: correct = {}, attempted = {}, failed = {}",
        workload.name(),
        outcome.correct,
        outcome.attempted,
        outcome.failed
    );
    for (name, value) in &outcome.metrics {
        let unit = manifest::find(name).map_or("", |m| m.unit);
        println!("{name:<40} {value:>16.4} {unit}");
    }
    println!("{}", result_json(outcome));
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = manifest::find(name).map_or("", |m| m.unit);
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}
