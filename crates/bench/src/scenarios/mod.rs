//! Scenario implementations, one module per measured figure or experiment.
//!
//! Each module exposes `run(&RunCtx) -> ScenarioOutcome` and is registered
//! in [`crate::scenario::registry`]. The measured scenarios run on the
//! threaded runtime through [`crate::harness::run_instrumented`]; the
//! protocol-latency scenarios run on the deterministic simulator. Every
//! number a scenario reports is one it measured.

pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod phase_shift;
pub mod pipeline_depth;
pub mod saturation;
pub mod udp_smoke;

use zeus_core::LatencyHistogram;

use crate::report::ScenarioResult;

/// Copies the percentile triple of a latency histogram onto a result.
pub(crate) fn fill_percentiles(
    mut result: ScenarioResult,
    latency_us: &LatencyHistogram,
) -> ScenarioResult {
    result.p50_us = latency_us.percentile(50.0);
    result.p99_us = latency_us.percentile(99.0);
    result.p999_us = latency_us.percentile(99.9);
    result
}
