//! Wire message types of the two Zeus protocols plus membership traffic.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::ids::{DataTs, Epoch, NodeId, ObjectId, OwnershipTs, RequestId, TxId};
use crate::nodeset::NodeSet;
use crate::state::ReplicaSet;

/// What an ownership request asks for (§4, §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OwnershipRequestKind {
    /// Acquire exclusive write access (become the owner). Issued by the
    /// coordinator of a write transaction before its first write to an
    /// object it does not own.
    AcquireOwner,
    /// Acquire read access (become a reader replica). Issued before a
    /// read within a write transaction on a non-replica object, or to add a
    /// replica.
    AcquireReader,
    /// Reliably remove a reader replica to restore the configured
    /// replication degree (out-of-critical-path sharding request, §6.2).
    RemoveReader {
        /// The reader to be removed from the replica set.
        reader: NodeId,
    },
}

impl OwnershipRequestKind {
    /// Whether the requester needs the current object value in the owner's
    /// ACK (only when it will become a replica and does not yet store one).
    pub fn requester_needs_data(self) -> bool {
        matches!(
            self,
            OwnershipRequestKind::AcquireOwner | OwnershipRequestKind::AcquireReader
        )
    }
}

/// Reason an arbiter or driver rejected an ownership request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NackReason {
    /// The request lost the `o_ts` arbitration against a concurrent request.
    LostArbitration,
    /// The object is involved in a pending reliable commit at its owner
    /// (§4.1: the owner NACKs requests for objects with in-flight commits).
    PendingCommit,
    /// The message carried a stale epoch id.
    StaleEpoch,
    /// The receiver is not a directory node for the object.
    NotDirectory,
    /// The object is unknown at the receiver.
    UnknownObject,
    /// The ownership protocol is paused while commit recovery for a new
    /// membership epoch is in progress (§5.1).
    Recovering,
    /// The acquisition decided, but no surviving arbiter holds the object
    /// data and the placement shows the object is *not* a genuine first
    /// touch: completing would fabricate an empty version-0 object next to
    /// a committed history. The requester aborts instead (fail-instead-of-
    /// fabricate) and surfaces the loss to the transaction layer.
    DataLoss,
}

/// Messages of the reliable ownership protocol (§4.1, Figure 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OwnershipMsg {
    /// `REQ`: requester → an arbitrarily chosen directory node (the driver).
    Req {
        /// Locally unique request id (used to match responses).
        req_id: RequestId,
        /// Object whose ownership/access level is requested.
        object: ObjectId,
        /// What is being requested.
        kind: OwnershipRequestKind,
        /// Requester's current epoch.
        epoch: Epoch,
        /// Whether the requester already stores a copy of the object. The
        /// replica *placement* is not a reliable proxy for this: a node can
        /// be the placement owner without data (its acquisition decided
        /// after it gave up, or its state was wiped on re-admission), and
        /// shipping decisions based on placement alone would hand it an
        /// empty version-0 object next to replicas holding the real
        /// history.
        has_replica: bool,
    },
    /// `INV`: driver → remaining arbiters (other directory nodes and the
    /// current owner). Carries the proposed new ownership metadata.
    Inv {
        /// Request id copied from the REQ.
        req_id: RequestId,
        /// Object being migrated.
        object: ObjectId,
        /// Ownership timestamp assigned by the driver (`<obj_ver+1, driver>`).
        o_ts: OwnershipTs,
        /// What is being requested.
        kind: OwnershipRequestKind,
        /// The replica set as it will be once the request is applied.
        new_replicas: ReplicaSet,
        /// Replica set before the request (used by arbiters that have no
        /// local metadata, e.g. a newly involved owner during recovery).
        old_replicas: ReplicaSet,
        /// Epoch the request belongs to.
        epoch: Epoch,
        /// During arb-replay recovery, ACKs are collected by the driver
        /// instead of the requester (§4.1 failure recovery).
        ack_to_driver: bool,
        /// Copied from the REQ: whether the requester already stores a copy
        /// (drives which arbiter ships the value in its ACK).
        requester_has_replica: bool,
    },
    /// `ACK`: arbiter → requester (or → driver during recovery).
    Ack {
        /// Request id.
        req_id: RequestId,
        /// Object being migrated.
        object: ObjectId,
        /// Ownership timestamp of the accepted request.
        o_ts: OwnershipTs,
        /// Epoch of the acknowledging arbiter.
        epoch: Epoch,
        /// Present iff the sender holds the object data and the requester
        /// needs it (non-replica requester): `(d_ts, t_data)`. The requester
        /// keeps the max-by-[`DataTs`] copy it receives.
        data: Option<(DataTs, Bytes)>,
        /// The acknowledging arbiter.
        from: NodeId,
        /// The full arbiter set of this request (directory nodes plus the
        /// current owner), so the requester knows how many ACKs to expect.
        arbiters: NodeSet,
        /// The replica set as it will look once the request is applied.
        new_replicas: ReplicaSet,
        /// Whether this arbitration first-touch-created the object (the
        /// placement named no replica before the request). Only a
        /// first-touch acquisition may legitimately complete without
        /// shipped data; otherwise the absence of data means the committed
        /// history was lost and the requester must abort
        /// ([`NackReason::DataLoss`]) instead of installing an empty
        /// version-0 object.
        first_touch: bool,
    },
    /// `VAL`: requester → arbiters after it has applied the request locally.
    Val {
        /// Request id.
        req_id: RequestId,
        /// Object being migrated.
        object: ObjectId,
        /// Ownership timestamp of the validated request.
        o_ts: OwnershipTs,
        /// Epoch.
        epoch: Epoch,
    },
    /// `NACK`: driver or owner → requester when the request cannot proceed.
    Nack {
        /// Request id.
        req_id: RequestId,
        /// Object.
        object: ObjectId,
        /// Why the request was rejected.
        reason: NackReason,
        /// Epoch.
        epoch: Epoch,
        /// Rejecting node.
        from: NodeId,
    },
    /// `RESP`: recovery-only driver → requester message confirming the
    /// arbitration win so that the requester applies the request before the
    /// arbiters (§4.1 failure recovery).
    Resp {
        /// Request id.
        req_id: RequestId,
        /// Object.
        object: ObjectId,
        /// Winning ownership timestamp.
        o_ts: OwnershipTs,
        /// Epoch.
        epoch: Epoch,
        /// Current object value `(d_ts, t_data)`, included when the
        /// requester lacks it (e.g. the previous owner died before sending
        /// its ACK with data).
        data: Option<(DataTs, Bytes)>,
        /// The replica set as it will look once the request is applied.
        new_replicas: ReplicaSet,
        /// Whether the decided arbitration first-touch-created the object
        /// (see [`OwnershipMsg::Ack::first_touch`]). A recovery RESP with
        /// `data: None`, `first_touch: false` to a data-less requester is a
        /// data-loss signal, not a licence to fabricate version 0.
        first_touch: bool,
    },
}

impl OwnershipMsg {
    /// Object the message refers to.
    pub fn object(&self) -> ObjectId {
        match self {
            OwnershipMsg::Req { object, .. }
            | OwnershipMsg::Inv { object, .. }
            | OwnershipMsg::Ack { object, .. }
            | OwnershipMsg::Val { object, .. }
            | OwnershipMsg::Nack { object, .. }
            | OwnershipMsg::Resp { object, .. } => *object,
        }
    }

    /// Request id the message refers to.
    pub fn request_id(&self) -> RequestId {
        match self {
            OwnershipMsg::Req { req_id, .. }
            | OwnershipMsg::Inv { req_id, .. }
            | OwnershipMsg::Ack { req_id, .. }
            | OwnershipMsg::Val { req_id, .. }
            | OwnershipMsg::Nack { req_id, .. }
            | OwnershipMsg::Resp { req_id, .. } => *req_id,
        }
    }

    /// Epoch carried by the message.
    pub fn epoch(&self) -> Epoch {
        match self {
            OwnershipMsg::Req { epoch, .. }
            | OwnershipMsg::Inv { epoch, .. }
            | OwnershipMsg::Ack { epoch, .. }
            | OwnershipMsg::Val { epoch, .. }
            | OwnershipMsg::Nack { epoch, .. }
            | OwnershipMsg::Resp { epoch, .. } => *epoch,
        }
    }
}

/// A single object update carried inside an `R-INV` (§5.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectUpdate {
    /// Updated object.
    pub object: ObjectId,
    /// Owner-qualified commit timestamp of the new value (`<t_version,
    /// o_ts>`). Followers install by ts-compare: only a strictly greater
    /// [`DataTs`] overwrites the stored value.
    pub ts: DataTs,
    /// New `t_data` of the object.
    pub data: Bytes,
}

impl ObjectUpdate {
    /// Convenience constructor.
    pub fn new(object: ObjectId, ts: DataTs, data: impl Into<Bytes>) -> Self {
        ObjectUpdate {
            object,
            ts,
            data: data.into(),
        }
    }
}

/// Messages of the reliable-commit protocol (§5.1, Figure 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CommitMsg {
    /// `R-INV`: coordinator → followers at the start of the reliable commit.
    /// Idempotent; any participant can replay it after a fault.
    RInv {
        /// Transaction id (`<local_tx_id, node_id>`), defines pipeline order.
        tx_id: TxId,
        /// Epoch the commit belongs to.
        epoch: Epoch,
        /// All followers of this transaction (readers of the modified
        /// objects), so that any of them can replay the commit.
        followers: Vec<NodeId>,
        /// Piggybacked bit: the coordinator has already broadcast `R-VAL`s
        /// for the previous slot of this pipeline (§5.2).
        prev_val: bool,
        /// The updated objects (new versions and data).
        updates: Vec<ObjectUpdate>,
    },
    /// `R-ACK`: follower → coordinator acknowledging the invalidation.
    /// Cumulative within a pipeline: acknowledging slot `n` implies all
    /// earlier slots were received and processed (§5.2).
    RAck {
        /// Transaction id being acknowledged.
        tx_id: TxId,
        /// Acknowledging follower.
        from: NodeId,
        /// Follower's epoch.
        epoch: Epoch,
    },
    /// `R-VAL`: coordinator → followers after all R-ACKs arrived; validates
    /// the updated objects at the followers.
    RVal {
        /// Transaction id being validated.
        tx_id: TxId,
        /// Coordinator's epoch.
        epoch: Epoch,
    },
}

impl CommitMsg {
    /// Transaction id the message refers to.
    pub fn tx_id(&self) -> TxId {
        match self {
            CommitMsg::RInv { tx_id, .. }
            | CommitMsg::RAck { tx_id, .. }
            | CommitMsg::RVal { tx_id, .. } => *tx_id,
        }
    }

    /// Epoch carried by the message.
    pub fn epoch(&self) -> Epoch {
        match self {
            CommitMsg::RInv { epoch, .. }
            | CommitMsg::RAck { epoch, .. }
            | CommitMsg::RVal { epoch, .. } => *epoch,
        }
    }
}

/// Membership / failure-detection traffic (§3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MembershipMsg {
    /// Periodic heartbeat used for lease renewal.
    Heartbeat {
        /// Sending node.
        from: NodeId,
        /// Sender's current epoch.
        epoch: Epoch,
    },
    /// A new membership view, installed after all leases of suspected nodes
    /// expired. Tagged with a monotonically increasing epoch id.
    ViewChange {
        /// The new epoch.
        epoch: Epoch,
        /// Live nodes in the new view.
        live: Vec<NodeId>,
        /// Parallel to `live`: the epoch at which each live node last
        /// (re)entered the view (`Epoch::ZERO` for initial members). A
        /// receiver whose previous epoch is older than a node's admission
        /// epoch missed that node's re-admission: the node re-entered with
        /// wiped state (committed updates kept flowing while it was out),
        /// so the receiver must stop treating it as a replica — and if the
        /// node is the receiver *itself*, it must discard its own replica
        /// state before serving again. Carrying admissions cumulatively
        /// (rather than as a per-view delta) makes the reset order survive
        /// dropped or reordered view changes.
        admitted: Vec<Epoch>,
    },
    /// A node that observed a higher epoch than its own (via a peer's
    /// heartbeat) asks that peer for the current view. View broadcasts are
    /// fire-once and may be dropped or sent while the proposer was cut off;
    /// the pull direction of the anti-entropy pair (the push direction is
    /// the stale-heartbeat refresh) guarantees views eventually propagate
    /// to everyone once links heal.
    ViewPull {
        /// The node requesting the view.
        from: NodeId,
    },
    /// A node announces that it finished replaying pending reliable commits
    /// for the new epoch, so the ownership protocol may resume (§5.1).
    RecoveryDone {
        /// The recovered node.
        from: NodeId,
        /// Epoch the recovery refers to.
        epoch: Epoch,
        /// Nodes whose completion the sender has already recorded (itself
        /// included). A receiver missing from this set replies with its own
        /// announcement: that makes the barrier survive arbitrary message
        /// loss — a stuck node keeps re-announcing from its heartbeat tick,
        /// and exactly the peers it has not heard answer it — without the
        /// reply storms an unconditional re-reply would cause.
        seen: Vec<NodeId>,
    },
}

/// One entry of a directory replica's placement table: the object, the
/// ownership timestamp of the arbitration that decided the placement, and
/// the placement itself. Shipped by [`ViewMsg::DirPush`].
pub type DirEntry = (ObjectId, OwnershipTs, ReplicaSet);

/// View-agreement and placement-metadata traffic of the replicated view
/// service (`zeus-view`).
///
/// Membership epochs are no longer decided by a single acting manager:
/// every node of the (static) view-replica set may propose the next view,
/// and a proposal commits once a majority of the set grants it. Grants are
/// sticky — a replica holds at most one ungranted-to-commit proposal at a
/// time and refuses competing ones until the grant either commits or times
/// out — so two proposals for the same epoch can never both reach a
/// majority. Committed views disseminate through the existing
/// [`MembershipMsg::ViewChange`] path.
///
/// The same service owns the directory placement metadata: directory
/// replicas exchange their placement tables ([`ViewMsg::DirPush`]) so a
/// rejoining replica re-learns every placement before serving arbitration,
/// and surviving replicas reconcile divergent tables (newest ownership
/// timestamp wins) after a view change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ViewMsg {
    /// A view replica proposes the next view. Only valid against the
    /// proposer's committed `base` epoch: a granter whose committed epoch
    /// differs refuses (and the lagging side resyncs), which keeps every
    /// committed view derived from the latest previously committed one.
    Propose {
        /// Epoch of the proposed view (`base.next()`).
        epoch: Epoch,
        /// The committed epoch the proposal was derived from.
        base: Epoch,
        /// Live nodes of the proposed view.
        live: Vec<NodeId>,
        /// Parallel to `live`: admission epochs (see
        /// [`MembershipMsg::ViewChange`]).
        admitted: Vec<Epoch>,
        /// The proposing view replica.
        from: NodeId,
    },
    /// A view replica grants a proposal (and will refuse competing ones
    /// until the grant commits or times out).
    Grant {
        /// Epoch of the granted proposal.
        epoch: Epoch,
        /// The granting view replica.
        from: NodeId,
    },
    /// A view replica refuses a proposal: it is already holding a grant for
    /// a competing proposal, or the proposer's base epoch is stale.
    Reject {
        /// Epoch of the refused proposal.
        epoch: Epoch,
        /// The rejecter's committed epoch — a proposer that sees a higher
        /// committed epoch than its own pulls the missed views before
        /// re-proposing.
        committed: Epoch,
        /// The rejecting view replica.
        from: NodeId,
    },
    /// A (re-admitted) directory replica asks a live directory peer for its
    /// full placement table.
    DirPull {
        /// The requesting node.
        from: NodeId,
    },
    /// A directory replica's placement table (sorted by object id). The
    /// receiver adopts every entry whose ownership timestamp is strictly
    /// newer than what it holds — the anti-entropy pass that closes
    /// directory amnesia after rejoin and reconciles replicas that applied
    /// a replayed arbitration unevenly.
    DirPush {
        /// The sending node.
        from: NodeId,
        /// The sender's epoch when the table was snapshotted; receivers in
        /// a different epoch ignore the push (a fresh one follows).
        epoch: Epoch,
        /// The placement table.
        entries: Vec<DirEntry>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PipelineId;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn request_kind_data_needs() {
        assert!(OwnershipRequestKind::AcquireOwner.requester_needs_data());
        assert!(OwnershipRequestKind::AcquireReader.requester_needs_data());
        assert!(!OwnershipRequestKind::RemoveReader { reader: n(1) }.requester_needs_data());
    }

    #[test]
    fn ownership_msg_accessors() {
        let req_id = RequestId::new(n(1), 7);
        let object = ObjectId(42);
        let msg = OwnershipMsg::Req {
            req_id,
            object,
            kind: OwnershipRequestKind::AcquireOwner,
            epoch: Epoch(3),
            has_replica: true,
        };
        assert_eq!(msg.object(), object);
        assert_eq!(msg.request_id(), req_id);
        assert_eq!(msg.epoch(), Epoch(3));

        let msg = OwnershipMsg::Nack {
            req_id,
            object,
            reason: NackReason::PendingCommit,
            epoch: Epoch(5),
            from: n(2),
        };
        assert_eq!(msg.epoch(), Epoch(5));
        assert_eq!(msg.request_id(), req_id);
    }

    #[test]
    fn commit_msg_accessors() {
        let tx = TxId::new(PipelineId::new(n(2), 1), 9);
        let ts = DataTs::new(4, OwnershipTs::new(1, n(2)));
        let msg = CommitMsg::RInv {
            tx_id: tx,
            epoch: Epoch(1),
            followers: vec![n(3)],
            prev_val: true,
            updates: vec![ObjectUpdate::new(ObjectId(1), ts, vec![1, 2, 3])],
        };
        assert_eq!(msg.tx_id(), tx);
        assert_eq!(msg.epoch(), Epoch(1));
        let ack = CommitMsg::RAck {
            tx_id: tx,
            from: n(3),
            epoch: Epoch(1),
        };
        assert_eq!(ack.tx_id(), tx);
    }

    #[test]
    fn object_update_holds_data() {
        let ts = DataTs::new(2, OwnershipTs::new(1, n(1)));
        let u = ObjectUpdate::new(ObjectId(9), ts, vec![0xAB; 8]);
        assert_eq!(u.object, ObjectId(9));
        assert_eq!(u.ts, ts);
        assert_eq!(u.data.len(), 8);
    }
}
