//! Figure 7: Handovers benchmark — Zeus for 2.5% and 5% handover ratios on 3
//! and 6 nodes, measured on the threaded runtime with a scaled-down
//! population.

use zeus_workloads::HandoverWorkload;

use crate::harness::run_instrumented;
use crate::report::ScenarioResult;
use crate::scenario::{RunCtx, ScenarioOutcome, TableData};
use crate::scenarios::fill_percentiles;

/// Runs the scenario.
pub fn run(ctx: &RunCtx) -> ScenarioOutcome {
    let opts = ctx.opts();
    let users = ctx.pop(2_000, 800);
    let stations = 100;
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for &nodes in &crate::harness::PAPER_NODE_COUNTS {
        for handover_pct in [2.5f64, 5.0] {
            let stats = run_instrumented(nodes, &opts, |c| {
                HandoverWorkload::new(
                    users,
                    users / 5,
                    stations,
                    handover_pct / 100.0,
                    ctx.seed + c as u64,
                )
            });
            rows.push(vec![
                nodes.to_string(),
                format!("{handover_pct}%"),
                format!("{:.0}", stats.tps()),
            ]);
            let mut result = ScenarioResult::new("fig07_handovers")
                .with_config("nodes", nodes)
                .with_config("handover_pct", handover_pct)
                .with_config("users", users);
            result.throughput_ops = stats.tps();
            result.handover_count = stats.handovers;
            result.aborts = stats.cluster_aborts;
            result.queue_depth_hwm = stats.queue_depth_hwm;
            results.push(ctx.stamp(fill_percentiles(result, &stats.latency_us)));
        }
    }
    ScenarioOutcome {
        tables: vec![TableData {
            title: "Figure 7: Handovers, measured on a scaled-down population (paper: Zeus within 4-9% of all-local ideal, linear node scaling)".into(),
            header: vec!["nodes", "handovers", "zeus [tps]"],
            rows,
        }],
        results,
    }
}
