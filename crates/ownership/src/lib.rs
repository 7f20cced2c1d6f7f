//! The Zeus reliable ownership protocol (paper §4).
//!
//! Ownership is what turns Zeus's distributed transactions into local ones:
//! before a coordinator may write an object it does not own, it acquires the
//! object — data *and* exclusive write access — through this protocol, and
//! every later transaction on the object runs locally until locality shifts
//! again.
//!
//! The protocol involves three roles:
//!
//! * the **requester** — the coordinator that needs a new access level,
//! * the **driver** — the directory node the requester picked, which assigns
//!   the ownership timestamp `o_ts` and invalidates the other arbiters,
//! * the **arbiters** — the directory replicas plus the current owner, which
//!   arbitrate concurrent requests and acknowledge directly to the requester.
//!
//! A failure- and contention-free request completes in at most 1.5
//! round-trips (REQ → INV → ACK), after which the requester unblocks and
//! lazily validates the arbiters (VAL). Contention is resolved by
//! lexicographic comparison of `o_ts`; faults are handled by an idempotent
//! *arb-replay* in which any live arbiter can re-drive the pending request
//! (§4.1, Figure 3 bottom).
//!
//! The implementation is a sans-io state machine: [`engine::OwnershipEngine`]
//! consumes events (local acquisition calls, incoming messages, view
//! changes) and produces [`engine::OwnershipAction`]s (messages to send,
//! completions to apply). The same engine is driven by the deterministic
//! simulator in the tests and by the threaded runtime in the benchmarks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod stats;

pub use engine::{OwnershipAction, OwnershipEngine, OwnershipHost, OwnershipSink};
pub use stats::OwnershipStats;
