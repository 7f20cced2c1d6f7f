//! In-memory versioned object store and transactional-memory surface.
//!
//! This is the datastore module of the paper's §7: it holds every object
//! replica present on a node together with the metadata both Zeus protocols
//! need —
//!
//! * transactional state: `t_data`, `t_version`, `t_state` (§5),
//! * ownership state: access level, `o_state`, `o_ts`, `o_replicas` (§4),
//! * the count of pending reliable commits per object (the owner NACKs
//!   ownership requests for objects with in-flight commits, §4.1).
//!
//! The store is sharded and internally synchronised: whoever runs the node
//! mutates it while application threads read it concurrently (see
//! [`Store`]). Per-transaction private copies (opacity, §6.2) live in
//! [`workspace::TxWorkspace`]. There is no lock manager: the paper's
//! multi-threaded local commit (§7) arbitrates an object between the worker
//! threads of one node, and a node here has exactly one writer at a time —
//! its event loop, or the application thread that holds the node's lock to
//! run its own transaction — so a write transaction holds every object it
//! touches simply by running.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod entry;
pub mod store;
pub mod workspace;

pub use entry::ObjectEntry;
pub use store::{Store, StoreStats};
pub use workspace::TxWorkspace;
