//! The Zeus reliable-commit protocol (paper §5).
//!
//! After a write transaction commits locally at its coordinator (the owner of
//! every object it modified), the updates are propagated to the backup
//! replicas ("followers") with an invalidation-based scheme:
//!
//! 1. the coordinator broadcasts an idempotent **R-INV** carrying the new
//!    versions and data of every modified object,
//! 2. each follower installs the data, marks the objects `Invalid` and
//!    replies **R-ACK**,
//! 3. once every follower acknowledged, the coordinator commits reliably,
//!    validates its own copies and broadcasts **R-VAL**, upon which followers
//!    validate theirs.
//!
//! Because the owner has exclusive write access, an initiated reliable commit
//! can never be aborted by a remote participant — which is what makes the
//! protocol a single round-trip and lets the coordinator **pipeline**
//! subsequent transactions without waiting (§5.2). Followers apply R-INVs in
//! pipeline order (`local_tx_id`), using the piggybacked *prev-VAL* bit when
//! they receive only a partial stream of a pipeline. After a failure, any
//! participant can replay a stored R-INV; replays are idempotent (§5.1).
//!
//! [`engine::CommitEngine`] is a sans-io state machine driven by the same
//! runtimes (simulator / threads) as the ownership engine.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod pipeline;
pub mod stats;

pub use engine::{CommitAction, CommitEngine, CommitSink};
pub use pipeline::ClearedTracker;
pub use stats::CommitStats;
