//! Lease-based reliable membership with monotonically increasing epochs.
//!
//! Zeus assumes a non-byzantine, partially synchronous system with crash-stop
//! failures (§3.1). Failure detection is unreliable, so membership changes
//! are made safe by (a) leases — a new view is only installed after every
//! lease granted to a suspected node has expired — and (b) epoch ids
//! (`e_id`): every view carries a strictly larger epoch, protocol messages
//! are tagged with the sender's epoch, and stale-epoch messages are ignored.
//!
//! The crate provides:
//!
//! * [`View`] — an epoch-stamped set of live nodes with their admission
//!   epochs, defined in `zeus-proto` and re-exported here so the view
//!   service (`zeus-view`) and this crate read one type,
//! * [`LeaseTable`] — per-node heartbeat tracking with lease expiry,
//! * [`MembershipEngine`] — the per-node state machine that renews leases,
//!   suspects silent peers, installs new views once leases expire, and
//!   tracks the per-epoch recovery barrier the reliable-commit protocol
//!   requires before the ownership protocol resumes (§5.1).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod lease;

pub use engine::{MembershipEngine, MembershipEvent};
pub use lease::LeaseTable;
pub use zeus_proto::View;
