//! Figure 9: TATP throughput on 3 nodes with all-local writes, measured on
//! the threaded runtime with a scaled-down population.

use zeus_workloads::TatpWorkload;

use crate::harness::run_instrumented;
use crate::report::ScenarioResult;
use crate::scenario::{RunCtx, ScenarioOutcome, TableData};
use crate::scenarios::fill_percentiles;

/// Runs the scenario.
pub fn run(ctx: &RunCtx) -> ScenarioOutcome {
    let nodes = 3;
    let subscribers = ctx.pop(3_000, 1_000);
    let stats = run_instrumented(nodes, &ctx.opts(), |c| {
        TatpWorkload::new(subscribers, subscribers / 10, 0.0, ctx.seed + c as u64)
    });
    let mut result = ScenarioResult::new("fig09_tatp")
        .with_config("nodes", nodes)
        .with_config("subscribers", subscribers)
        .with_config("remote_write_fraction", 0.0);
    result.throughput_ops = stats.tps();
    result.handover_count = stats.handovers;
    result.aborts = stats.cluster_aborts;
    result.queue_depth_hwm = stats.queue_depth_hwm;
    let result = ctx.stamp(fill_percentiles(result, &stats.latency_us));

    ScenarioOutcome {
        tables: vec![TableData {
            title: "Figure 9: TATP, measured on a scaled-down population (paper: Zeus up to 2x FaSST, 3.5x FaRM)".into(),
            header: vec!["nodes", "% remote write txs", "zeus [tps]"],
            rows: vec![vec![
                nodes.to_string(),
                "0%".into(),
                format!("{:.0}", result.throughput_ops),
            ]],
        }],
        results: vec![result],
    }
}
