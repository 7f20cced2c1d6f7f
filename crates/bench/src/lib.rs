//! Benchmark harnesses for the figures of the paper's evaluation (§8) that
//! this implementation can measure, unified behind one driver.
//!
//! * [`harness`] — measurement plumbing: instrumented warmup/measure runs on
//!   the threaded runtime, latency histograms.
//! * [`openloop`] — open-loop load generation: deterministic Poisson
//!   arrival schedules, pipelined submission, latency-under-load sweeps.
//! * [`scenario`] + [`scenarios`] — the registry of named scenarios (one per
//!   measured figure or experiment) the driver runs.
//! * [`report`] + [`json`] — the machine-readable `BENCH_<tag>.json` result
//!   schema and the hand-rolled JSON layer behind it, whose `json_struct!` /
//!   `json_enum!` declare the chaos corpus format too.
//! * [`cli`] — the command-line front end (`--smoke`, `--tag`, `--scenario`,
//!   `--diff`).
//!
//! The `bench` binary runs the whole registry, or with `--scenario NAME`
//! just one figure's scenario.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod harness;
pub mod json;
pub mod openloop;
pub mod report;
pub mod scenario;
pub mod scenarios;
