//! `zeus-bench-probes`: one layer at a time, on one thread, with no network
//! in between — what each layer costs when nothing waits for anything.
//!
//! Prints one `name value` line per per-layer metric of
//! `manifest::LAYER_PROBES`; `zeus-bench-e2e --trace 1` runs this binary and
//! merges the lines into its result. Unlike the end-to-end binary this one
//! reaches into every crate's public API, so it is built separately: if an
//! API it uses changes, only these numbers go absent.

mod commit;
mod net;
mod node;
mod ownership;
mod proto;
mod store;

use std::time::{Duration, Instant};

use zeus_benchmark::manifest::LAYER_PROBES;
use zeus_benchmark::stats::median;

/// Every probe runs this many timed batches and reports their median.
const BATCHES: usize = 5;
/// A batch is sized to last at least this long.
const BATCH_TARGET: Duration = Duration::from_millis(20);

/// Collects `name value` results and checks them against the manifest.
#[derive(Default)]
pub struct Report {
    results: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records an exact (counted, not timed) value.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.results.push((name, value));
    }

    /// Times `run(n)`, which performs `n` operations and returns how long
    /// each of `names.len()` stages of them took (the last stage sizes the
    /// batch). Reports the median nanoseconds per operation of each stage.
    pub fn stages<const K: usize>(
        &mut self,
        names: [&'static str; K],
        mut run: impl FnMut(u64) -> [Duration; K],
    ) {
        let mut n = 16u64;
        while run(n)[K - 1] < BATCH_TARGET && n < 1 << 24 {
            n *= 2;
        }
        let mut per_op = vec![Vec::with_capacity(BATCHES); K];
        for _ in 0..BATCHES {
            for (samples, elapsed) in per_op.iter_mut().zip(run(n)) {
                samples.push(elapsed.as_nanos() as f64 / n as f64);
            }
        }
        for (name, samples) in names.into_iter().zip(per_op) {
            self.results.push((name, median(&samples)));
        }
    }

    /// Times `n` calls of `op` per batch.
    pub fn op(&mut self, name: &'static str, mut op: impl FnMut()) {
        self.stages([name], |n| {
            let start = Instant::now();
            for _ in 0..n {
                op();
            }
            [start.elapsed()]
        });
    }

    /// [`Report::op`] with nanoseconds reported as microseconds.
    pub fn op_micros(&mut self, name: &'static str, op: impl FnMut()) {
        self.op(name, op);
        if let Some(last) = self.results.last_mut() {
            last.1 /= 1e3;
        }
    }
}

fn main() {
    let mut report = Report::default();
    proto::probe(&mut report);
    net::probe(&mut report);
    store::probe(&mut report);
    commit::probe(&mut report);
    ownership::probe(&mut report);
    node::probe(&mut report);
    for (name, value) in &report.results {
        println!("{name} {value}");
    }
    for metric in LAYER_PROBES {
        assert!(
            report.results.iter().any(|(name, _)| *name == metric.name),
            "no probe produced {}",
            metric.name
        );
    }
    assert_eq!(report.results.len(), LAYER_PROBES.len(), "unlisted probe");
}
