//! Shared protocol types for the Zeus reproduction.
//!
//! This crate defines the identifiers, timestamps, access levels and wire
//! message types that the ownership protocol ([`messages::OwnershipMsg`]) and
//! the reliable-commit protocol ([`messages::CommitMsg`]) exchange between
//! nodes, together with a compact hand-rolled binary wire format
//! ([`wire::Wire`]) used for network byte accounting.
//!
//! The types mirror the paper's terminology (EuroSys '21, §4–§5):
//!
//! * `o_state`, `o_ts`, `o_replicas` — ownership metadata ([`state::OState`],
//!   [`ids::OwnershipTs`], [`state::ReplicaSet`], whose node sets are the
//!   inline [`nodeset::NodeSet`]),
//! * `t_state`, `t_version`, `t_data` — per-replica transactional object
//!   state ([`state::TState`]),
//! * `tx_id = <local_tx_id, node_id>` — pipeline-ordered transaction ids
//!   ([`ids::TxId`]).
//!
//! # Commit-timestamp ordering (`DataTs`)
//!
//! Committed object state is ordered by the owner-qualified commit
//! timestamp [`ids::DataTs`]`= <t_version, o_ts>`, not by the bare
//! `t_version` counter — two owners separated by an ownership handover can
//! both produce "version n", and only the acquiring tenure orders them.
//! The rules every layer follows:
//!
//! * **Compare**: lexicographic — higher `version` first, ties broken by
//!   the writing owner's acquisition [`ids::OwnershipTs`] (tenures are
//!   totally ordered by the ownership protocol, so `DataTs` is too).
//! * **Install**: a replica installs an incoming update only if its
//!   `DataTs` is *strictly greater* than the stored one
//!   (ts-compare-and-install); an equal-`DataTs` replay re-invalidates
//!   until its R-VAL but never overwrites data.
//! * **Regression refusal**: a requester shipped several copies during an
//!   acquisition keeps the max-by-`DataTs` one and never downgrades data
//!   it already stores; a completed acquisition that shipped *no* data for
//!   an object with committed history aborts with
//!   [`messages::NackReason::DataLoss`] instead of fabricating an empty
//!   version-0 value.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod hash;
pub mod ids;
pub mod messages;
pub mod nodeset;
pub mod policy;
pub mod state;
pub mod wire;

pub use error::ProtoError;
pub use hash::{IdBuildHasher, IdHashMap, IdHashSet};
pub use ids::{DataTs, Epoch, NodeId, ObjectId, OwnershipTs, PipelineId, RequestId, TxId};
pub use messages::{
    CommitMsg, DirEntry, MembershipMsg, ObjectUpdate, OwnershipMsg, OwnershipRequestKind, ViewMsg,
};
pub use nodeset::NodeSet;
pub use policy::{PolicyKind, PolicyStats};
pub use state::{AccessLevel, OState, ReplicaSet, TState};
