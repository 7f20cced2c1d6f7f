//! Figure 8: Smallbank throughput on 3 nodes at Venmo-like locality (0.3% of
//! write transactions need an ownership change), measured on the threaded
//! runtime with a scaled-down population.

use zeus_workloads::SmallbankWorkload;

use crate::harness::run_instrumented;
use crate::report::ScenarioResult;
use crate::scenario::{RunCtx, ScenarioOutcome, TableData};
use crate::scenarios::fill_percentiles;

/// Runs the scenario.
pub fn run(ctx: &RunCtx) -> ScenarioOutcome {
    let nodes = 3;
    let customers = ctx.pop(3_000, 1_000);
    let remote_fraction = 0.003;
    let stats = run_instrumented(nodes, &ctx.opts(), |c| {
        SmallbankWorkload::new(
            customers,
            customers / 10,
            remote_fraction,
            ctx.seed + c as u64,
        )
    });
    let mut result = ScenarioResult::new("fig08_smallbank")
        .with_config("nodes", nodes)
        .with_config("customers", customers)
        .with_config("remote_fraction", remote_fraction);
    result.throughput_ops = stats.tps();
    result.handover_count = stats.handovers;
    result.aborts = stats.cluster_aborts;
    result.queue_depth_hwm = stats.queue_depth_hwm;
    let result = ctx.stamp(fill_percentiles(result, &stats.latency_us));

    ScenarioOutcome {
        tables: vec![TableData {
            title: "Figure 8: Smallbank, measured on a scaled-down population (paper: Zeus ~35% over FaSST, ~2x DrTM at Venmo locality)".into(),
            header: vec!["nodes", "% remote write txs", "zeus [tps]"],
            rows: vec![vec![
                nodes.to_string(),
                format!("{:.1}%", remote_fraction * 100.0),
                format!("{:.0}", result.throughput_ops),
            ]],
        }],
        results: vec![result],
    }
}
