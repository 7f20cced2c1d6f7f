//! Saturation: latency under offered load.
//!
//! The node loop serves every session of a node from one command channel
//! and executes each drained batch as one unit, so its per-iteration
//! overhead (inbox scan, parked-command poll, membership tick, outbox
//! flush) is paid per *batch*, and the batch grows with the load. This
//! scenario shows the result as the classic latency-under-load curve: an
//! open-loop generator ([`crate::openloop`]) sweeps the offered rate and
//! reports `(offered_rate, achieved_rate, p50/p99/p999)` per point, on the
//! threaded runtime and on the simulator. The *knee* is the highest offered
//! rate a configuration still sustains; the refreshed `BENCH_baseline.json`
//! gates the (deliberately sub-knee, see [`rate_ladder`]) smoke points in
//! CI.

use std::time::Duration;

use zeus_core::{SimCluster, ThreadedCluster, ZeusConfig};

use crate::openloop::{run_open_loop, OpenLoopOpts, OpenLoopRun};
use crate::report::ScenarioResult;
use crate::scenario::{RunCtx, ScenarioOutcome, TableData};
use crate::scenarios::fill_percentiles;

/// Nodes in every saturation deployment.
pub const NODES: usize = 3;

/// A configuration arm of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Threaded runtime.
    Threaded,
    /// Deterministic simulator (synchronous sessions, batches of one; the
    /// arm anchors the protocol-level cost).
    Sim,
}

impl Arm {
    /// `runtime` config value of this arm's results.
    pub fn runtime(self) -> &'static str {
        match self {
            Arm::Sim => "sim",
            Arm::Threaded => "threaded",
        }
    }
}

/// The offered-load ladder (total ops/s across all sessions) for a mode.
///
/// Smoke stays *below* the knee on purpose: its results feed the
/// `BENCH_baseline.json` regression gate, and points past the knee are
/// bistable on small shared runners (the same offered rate lands at either
/// ~full throughput or a congestion-collapsed fraction of it depending on
/// scheduler luck), which no regression tolerance can absorb. The full
/// ladder sweeps past the knee.
pub fn rate_ladder(smoke: bool) -> Vec<f64> {
    if smoke {
        vec![2_000.0, 8_000.0, 16_000.0]
    } else {
        vec![2_000.0, 8_000.0, 16_000.0, 48_000.0, 96_000.0]
    }
}

/// Generator sessions per node for a mode.
pub fn sessions_per_node(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        4
    }
}

/// Cap on scheduled arrivals per point. The generator accounts every
/// arrival, so a point offered far past the node's capacity drains its
/// backlog at the *collapsed* rate after the window closes — the point's
/// wall time is `arrivals / collapsed_rate`, not the window. Capping
/// arrivals bounds that tail to seconds instead of minutes on a small
/// runner.
const MAX_ARRIVALS_PER_POINT: f64 = 3_200.0;

/// Open-loop options for one point of the sweep.
fn point_opts(ctx: &RunCtx, offered_total: f64) -> OpenLoopOpts {
    let spn = sessions_per_node(ctx.smoke);
    let window = if ctx.smoke {
        Duration::from_millis(120)
    } else {
        Duration::from_millis(400)
    };
    OpenLoopOpts {
        sessions_per_node: spn,
        rate_per_session: offered_total / (spn * NODES) as f64,
        window: window.min(Duration::from_secs_f64(
            MAX_ARRIVALS_PER_POINT / offered_total,
        )),
        // At least the generator's in-flight cap (see
        // `openloop::MAX_INFLIGHT`), so round-robin writes never conflict
        // with themselves and overload measures node-loop capacity.
        objects_per_session: 128,
        first_object: 0,
    }
}

/// Runs one point of one arm on a fresh cluster (isolation: no backlog or
/// ownership state leaks between points), returning the run plus the node
/// batching counters, so the batch sizes the loop chose show in the table.
pub fn run_point(ctx: &RunCtx, arm: Arm, offered_total: f64) -> (OpenLoopRun, u64, u64) {
    let opts = point_opts(ctx, offered_total);
    let config = ZeusConfig::with_nodes(NODES);
    match arm {
        Arm::Sim => {
            let cluster = SimCluster::new(config);
            let run = run_open_loop(&cluster, ctx.seed, &opts);
            let stats = cluster.aggregate_stats();
            (run, stats.batched_commands, stats.batch_occupancy_hwm)
        }
        Arm::Threaded => {
            let cluster = ThreadedCluster::start(config);
            let run = run_open_loop(&cluster, ctx.seed, &opts);
            let stats = cluster.aggregate_stats();
            cluster.shutdown();
            (run, stats.batched_commands, stats.batch_occupancy_hwm)
        }
    }
}

/// The knee of a sweep: the highest offered rate whose achieved rate still
/// tracks it within 10%, or 0.0 when even the lowest point collapsed.
pub fn knee(points: &[(f64, f64)]) -> f64 {
    points
        .iter()
        .filter(|(offered, achieved)| achieved >= &(offered * 0.9))
        .map(|(offered, _)| *offered)
        .fold(0.0, f64::max)
}

/// Runs the scenario: the full ladder on both arms.
pub fn run(ctx: &RunCtx) -> ScenarioOutcome {
    let arms = [Arm::Threaded, Arm::Sim];
    let ladder = rate_ladder(ctx.smoke);
    let mut rows = Vec::new();
    let mut results = Vec::new();
    let mut knees = Vec::new();
    for arm in arms {
        let mut points = Vec::new();
        for &offered in &ladder {
            let (run, batched_cmds, occupancy_hwm) = run_point(ctx, arm, offered);
            points.push((offered, run.achieved_rate));
            rows.push(vec![
                arm.runtime().to_string(),
                format!("{offered:.0}"),
                format!("{:.0}", run.achieved_rate),
                run.latency_us.percentile(50.0).to_string(),
                run.latency_us.percentile(99.0).to_string(),
                run.latency_us.percentile(99.9).to_string(),
                batched_cmds.to_string(),
                occupancy_hwm.to_string(),
            ]);
            let mut result = ScenarioResult::new("saturation")
                .with_config("runtime", arm.runtime())
                .with_config("offered_rate", format!("{offered:.0}"))
                .with_config("sessions_per_node", sessions_per_node(ctx.smoke))
                .with_config("nodes", NODES);
            result.throughput_ops = run.achieved_rate;
            result.aborts = run.aborted;
            results.push(ctx.stamp(fill_percentiles(result, &run.latency_us)));
        }
        knees.push((arm, knee(&points)));
    }
    let knee_summary = knees
        .iter()
        .map(|(arm, k)| format!("{}: {k:.0} ops/s", arm.runtime()))
        .collect::<Vec<_>>()
        .join(", ");
    ScenarioOutcome {
        tables: vec![TableData {
            title: format!(
                "Saturation: open-loop latency under offered load \
                 (knee = highest offered rate achieved within 10%; {knee_summary})"
            ),
            header: vec![
                "runtime",
                "offered [ops/s]",
                "achieved [ops/s]",
                "p50 [us]",
                "p99 [us]",
                "p99.9 [us]",
                "batched_commands",
                "occupancy_hwm",
            ],
            rows,
        }],
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_session_starves_under_cross_session_batching() {
        // Batching reorders writes ahead of reads within one drained batch
        // but must never defer a session's stream indefinitely: at an
        // overload rate every session still gets its share committed.
        let ctx = RunCtx {
            smoke: true,
            seed: 42,
        };
        let (run, _, _) = run_point(&ctx, Arm::Threaded, 64_000.0);
        assert!(run.committed > 0);
        for (s, &committed) in run.per_session_committed.iter().enumerate() {
            assert!(
                committed > 0,
                "session {s} starved: 0 of its submissions committed \
                 (per-session commits: {:?})",
                run.per_session_committed
            );
        }
    }

    #[test]
    fn knee_picks_the_highest_sustained_rate() {
        let points = [(1_000.0, 990.0), (4_000.0, 3_950.0), (16_000.0, 9_000.0)];
        assert_eq!(knee(&points), 4_000.0);
        assert_eq!(knee(&[(1_000.0, 100.0)]), 0.0);
        assert_eq!(knee(&[]), 0.0);
    }
}
