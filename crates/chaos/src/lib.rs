//! Deterministic chaos explorer for the Zeus stack.
//!
//! The protocols' correctness story rests on recovery and ownership-handover
//! surviving crashes, false suspicions and message-level faults (§4–5).
//! Hand-written fault scripts only cover the schedules someone imagined;
//! this crate systematically explores the schedule space instead:
//!
//! * [`schedule`] — the fault-schedule vocabulary ([`schedule::ChaosStep`])
//!   and its replayable JSON corpus format (`tests/chaos_corpus/`).
//! * [`generate`] — a seeded generator composing crash/restart,
//!   partition/heal, lease-expiry pressure, membership churn, latency
//!   spikes, drop bursts and contended ownership-handover bursts into timed
//!   schedules. Identical seeds produce identical schedules.
//! * [`runner`] — executes one schedule on a [`zeus_core::SimCluster`] and
//!   runs the oracle layer after (and during) it: the TLA+-derived cluster
//!   invariants, a per-object *history* checker (committed reads and writes
//!   must be explainable by a sequential per-object order — Zeus serializes
//!   per object), membership-convergence and liveness (quiescence) checks.
//! * [`shrink`] — delta-debugging minimisation of a failing schedule (drop
//!   steps, tighten time windows) down to a small replayable repro.
//! * [`mod@explore`] — the driver used by the `chaos` binary and CI: runs N
//!   generated schedules (smoke) or a wall-clock budget (full), shrinks the
//!   first failure, and emits the bench-report JSON schema CI consumes.
//!
//! Every run is reproducible: schedules are data (not closures), the
//! simulated network is seeded, and the report of `chaos --smoke --seed N`
//! is byte-identical across runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod explore;
pub mod generate;
pub mod runner;
pub mod schedule;
pub mod shrink;

pub use explore::{explore, ExploreConfig, ExploreOutcome};
pub use generate::{generate_schedule, generate_schedule_with, Profile};
pub use runner::{run_schedule, RunOptions, RunOutcome, Violation};
pub use schedule::{ChaosStep, LinkParams, NetParams, Schedule};
pub use shrink::shrink_schedule;
