//! Shared pieces of the Zeus benchmark: frozen input generators, the
//! metric tables behind `BENCHMARK.json`, order statistics and the span
//! recorder. The two binaries (`zeus-bench-e2e`, `zeus-bench-probes`) hold
//! everything that touches the system under test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod manifest;
pub mod stats;
pub mod trace;
