//! Access levels and per-object protocol states (paper Table 1, §4–§5).

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::NodeId;
use crate::nodeset::NodeSet;

/// Per-node access level to an object (paper Table 1).
///
/// * The **owner** holds exclusive write access (and non-exclusive read
///   access) and stores the object data and its ownership metadata.
/// * A **reader** stores the object data and may serve local read-only
///   transactions, but may not execute write transactions on the object.
/// * A **non-replica** stores neither data nor metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessLevel {
    /// Exclusive writer and replica of the object.
    Owner,
    /// Non-owner replica with read access.
    Reader,
    /// Node without data or access rights for the object.
    NonReplica,
}

impl AccessLevel {
    /// Whether this level permits the node to execute write transactions on
    /// the object.
    pub fn can_write(self) -> bool {
        matches!(self, AccessLevel::Owner)
    }

    /// Whether this level permits the node to read the object locally
    /// (read-only transactions run on owners and readers alike, §5.3).
    pub fn can_read(self) -> bool {
        matches!(self, AccessLevel::Owner | AccessLevel::Reader)
    }

    /// Whether the node stores a replica of the object data.
    pub fn is_replica(self) -> bool {
        self.can_read()
    }
}

impl fmt::Display for AccessLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessLevel::Owner => "owner",
            AccessLevel::Reader => "reader",
            AccessLevel::NonReplica => "non-replica",
        };
        f.write_str(s)
    }
}

/// Ownership state of an object at an arbiter or requester (`o_state`, §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum OState {
    /// Ownership metadata is stable; no request is in flight.
    #[default]
    Valid,
    /// An ownership request has been observed (INV received) but not yet
    /// validated; metadata may not be served.
    Invalid,
    /// The local node has issued an ownership request and is waiting for it
    /// to complete (requester side).
    Request,
    /// The local node is driving an ownership request (directory side).
    Drive,
}

impl fmt::Display for OState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OState::Valid => "Valid",
            OState::Invalid => "Invalid",
            OState::Request => "Request",
            OState::Drive => "Drive",
        };
        f.write_str(s)
    }
}

/// Transactional state of an object replica (`t_state`, §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum TState {
    /// The stored value is reliably committed and may be served.
    #[default]
    Valid,
    /// A reliable commit touching the object is pending (R-INV applied,
    /// R-VAL not yet received); reads of the object must not be served.
    Invalid,
    /// The object was modified by a locally committed transaction whose
    /// reliable commit has not finished (owner side).
    Write,
}

impl TState {
    /// Whether a read-only transaction may return the stored value (§5.3).
    pub fn readable(self) -> bool {
        matches!(self, TState::Valid)
    }
}

impl fmt::Display for TState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TState::Valid => "Valid",
            TState::Invalid => "Invalid",
            TState::Write => "Write",
        };
        f.write_str(s)
    }
}

/// The replica placement of an object: its owner plus the reader set
/// (`o_replicas`, §4).
///
/// The owner is kept separate from the readers; together they form the
/// replica set whose size is the replication degree. A placement of up to
/// [`crate::nodeset::INLINE_NODES`] readers lives in the value: building,
/// cloning, comparing and dropping one never allocates.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct ReplicaSet {
    /// Current owner of the object, if any. `None` only transiently (e.g.
    /// after the owner failed and before a new owner acquired the object).
    pub owner: Option<NodeId>,
    /// Reader replicas (excluding the owner), ascending.
    pub readers: NodeSet,
}

impl ReplicaSet {
    /// Creates a replica set with the given owner and readers.
    pub fn new(owner: NodeId, readers: impl IntoIterator<Item = NodeId>) -> Self {
        let mut readers: NodeSet = readers.into_iter().collect();
        readers.remove(owner);
        ReplicaSet {
            owner: Some(owner),
            readers,
        }
    }

    /// Total number of replicas (owner + readers).
    pub fn replication_degree(&self) -> usize {
        self.readers.len() + usize::from(self.owner.is_some())
    }

    /// Whether the set names no replicas at all (the default placement of a
    /// freshly first-touch-created object).
    pub fn is_empty(&self) -> bool {
        self.owner.is_none() && self.readers.is_empty()
    }

    /// Removes `node` from the set entirely (owner or reader) — used when a
    /// node re-enters the view with wiped state and therefore stops being a
    /// replica of everything it used to hold.
    pub fn remove_node(&mut self, node: NodeId) {
        if self.owner == Some(node) {
            self.owner = None;
        }
        self.readers.remove(node);
    }

    /// Access level of `node` according to this replica set.
    pub fn level_of(&self, node: NodeId) -> AccessLevel {
        if self.owner == Some(node) {
            AccessLevel::Owner
        } else if self.readers.contains(node) {
            AccessLevel::Reader
        } else {
            AccessLevel::NonReplica
        }
    }

    /// All replica nodes (owner first, then readers).
    pub fn replicas(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.owner.into_iter().chain(self.readers.iter())
    }

    /// Returns `true` if `node` stores a replica of the object.
    pub fn contains(&self, node: NodeId) -> bool {
        self.level_of(node).is_replica()
    }

    /// Promotes `new_owner` to owner, demoting the previous owner (if any and
    /// still live) to a reader. This is the metadata effect of applying a
    /// successful ownership request (§4.1).
    pub fn promote_owner(&mut self, new_owner: NodeId) {
        if self.owner == Some(new_owner) {
            return;
        }
        if let Some(old) = self.owner.replace(new_owner) {
            self.readers.insert(old);
        }
        self.readers.remove(new_owner);
    }

    /// Removes a reader (used by the out-of-critical-path reader-discard
    /// sharding request, §6.2). Removing the owner is not allowed here.
    pub fn remove_reader(&mut self, reader: NodeId) {
        self.readers.remove(reader);
    }

    /// Removes every node not contained in `live`, as done by directory nodes
    /// and owners on a membership update (§4.1 failure recovery).
    pub fn retain_live(&mut self, live: &[NodeId]) {
        if let Some(o) = self.owner {
            if !live.contains(&o) {
                self.owner = None;
            }
        }
        self.readers.retain(|r| live.contains(&r));
    }
}

impl fmt::Display for ReplicaSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.owner {
            Some(o) => write!(f, "owner={o}")?,
            None => write!(f, "owner=-")?,
        }
        write!(f, " readers=[")?;
        for (i, r) in self.readers.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn access_level_permissions() {
        assert!(AccessLevel::Owner.can_write());
        assert!(AccessLevel::Owner.can_read());
        assert!(!AccessLevel::Reader.can_write());
        assert!(AccessLevel::Reader.can_read());
        assert!(!AccessLevel::NonReplica.can_read());
        assert!(!AccessLevel::NonReplica.is_replica());
    }

    #[test]
    fn tstate_readability() {
        assert!(TState::Valid.readable());
        assert!(!TState::Invalid.readable());
        assert!(!TState::Write.readable());
    }

    #[test]
    fn replica_set_new_dedups_and_excludes_owner() {
        let rs = ReplicaSet::new(n(1), [n(2), n(2), n(1), n(3)]);
        assert_eq!(rs.owner, Some(n(1)));
        assert_eq!(rs.readers.as_slice(), [n(2), n(3)]);
        assert_eq!(rs.replication_degree(), 3);
    }

    #[test]
    fn replica_set_levels() {
        let rs = ReplicaSet::new(n(1), [n(2)]);
        assert_eq!(rs.level_of(n(1)), AccessLevel::Owner);
        assert_eq!(rs.level_of(n(2)), AccessLevel::Reader);
        assert_eq!(rs.level_of(n(3)), AccessLevel::NonReplica);
        assert!(rs.contains(n(2)));
        assert!(!rs.contains(n(3)));
    }

    #[test]
    fn promote_owner_demotes_previous_owner_to_reader() {
        let mut rs = ReplicaSet::new(n(1), [n(2)]);
        rs.promote_owner(n(3));
        assert_eq!(rs.owner, Some(n(3)));
        assert!(rs.readers.contains(n(1)));
        assert!(rs.readers.contains(n(2)));
        assert!(!rs.readers.contains(n(3)));
        assert_eq!(rs.replication_degree(), 3);
    }

    #[test]
    fn promote_existing_reader_keeps_degree() {
        let mut rs = ReplicaSet::new(n(1), [n(2), n(3)]);
        rs.promote_owner(n(2));
        assert_eq!(rs.owner, Some(n(2)));
        assert_eq!(rs.readers.as_slice(), [n(1), n(3)]);
        assert_eq!(rs.replication_degree(), 3);
    }

    #[test]
    fn promote_current_owner_is_noop() {
        let mut rs = ReplicaSet::new(n(1), [n(2)]);
        let before = rs.clone();
        rs.promote_owner(n(1));
        assert_eq!(rs, before);
    }

    #[test]
    fn retain_live_drops_dead_nodes() {
        let mut rs = ReplicaSet::new(n(1), [n(2), n(3)]);
        rs.retain_live(&[n(2), n(3)]);
        assert_eq!(rs.owner, None);
        assert_eq!(rs.readers.as_slice(), [n(2), n(3)]);
        rs.retain_live(&[n(3)]);
        assert_eq!(rs.readers.as_slice(), [n(3)]);
    }

    #[test]
    fn remove_reader_only_touches_readers() {
        let mut rs = ReplicaSet::new(n(1), [n(2), n(3)]);
        rs.remove_reader(n(2));
        assert_eq!(rs.readers.as_slice(), [n(3)]);
        rs.remove_reader(n(1));
        assert_eq!(rs.owner, Some(n(1)));
    }

    #[test]
    fn replicas_iterator_owner_first() {
        let rs = ReplicaSet::new(n(5), [n(2), n(3)]);
        let all: Vec<_> = rs.replicas().collect();
        assert_eq!(all, vec![n(5), n(2), n(3)]);
    }
}
