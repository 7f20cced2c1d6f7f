//! The sans-io ownership state machine.

use std::collections::hash_map::Entry;

use bytes::Bytes;
use zeus_proto::messages::NackReason;
use zeus_proto::{
    DataTs, Epoch, IdHashMap, NodeId, NodeSet, OState, ObjectId, OwnershipMsg,
    OwnershipRequestKind, OwnershipTs, ReplicaSet, RequestId,
};

use crate::stats::OwnershipStats;

/// Interface through which the ownership engine queries node-local state it
/// does not itself own (the object store and the commit protocol).
pub trait OwnershipHost {
    /// Current `(d_ts, t_data)` of the object at this node, if this node
    /// stores a replica. Used by the current owner to ship the value to a
    /// non-replica requester inside its ACK; requesters shipped several
    /// copies keep the max-by-[`DataTs`] one.
    fn object_value(&self, object: ObjectId) -> Option<(DataTs, Bytes)>;

    /// Whether the object has reliable commits in flight at this node. The
    /// owner rejects ownership requests for such objects (§4.1).
    fn has_pending_commits(&self, object: ObjectId) -> bool;
}

/// A host implementation with no objects, useful for directory-only nodes and
/// unit tests of the arbitration logic.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHost;

impl OwnershipHost for NullHost {
    fn object_value(&self, _object: ObjectId) -> Option<(DataTs, Bytes)> {
        None
    }
    fn has_pending_commits(&self, _object: ObjectId) -> bool {
        false
    }
}

/// Outputs of the ownership engine, applied by the hosting runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum OwnershipAction {
    /// Send a protocol message (self-sends are allowed and must be looped
    /// back by the runtime).
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: OwnershipMsg,
    },
    /// A request issued by this node completed: the node now holds the
    /// requested access level. The host must install/upgrade the object in
    /// its store (using `data` if it was shipped) and unblock the waiting
    /// application thread.
    Completed {
        /// The completed request.
        req_id: RequestId,
        /// Object acquired.
        object: ObjectId,
        /// What was acquired.
        kind: OwnershipRequestKind,
        /// Winning ownership timestamp.
        o_ts: OwnershipTs,
        /// Replica placement after the request.
        new_replicas: ReplicaSet,
        /// Object value shipped by the previous owner (for non-replica
        /// requesters), tagged with its commit timestamp. The host installs
        /// it only if it is strictly newer than what it already stores
        /// (regression refusal).
        data: Option<(DataTs, Bytes)>,
    },
    /// A request issued by this node failed terminally (the transaction
    /// layer aborts/retries the transaction with back-off, §6.2).
    Failed {
        /// The failed request.
        req_id: RequestId,
        /// Object.
        object: ObjectId,
        /// Why it failed.
        reason: NackReason,
    },
    /// A request issued by this node was rejected for a transient reason
    /// (owner has commits in flight, or the cluster is recovering). The host
    /// should call [`OwnershipEngine::retry_request_into`] after a back-off.
    RetryLater {
        /// The request to retry.
        req_id: RequestId,
        /// Object.
        object: ObjectId,
        /// The transient reason.
        reason: NackReason,
    },
    /// This node is the current owner, and an arbitration it drives or an
    /// INV it accepts transfers its ownership away: it must stop treating
    /// the object as writable immediately. The value it ships must remain
    /// the latest, so no local write may slip in between the INV (or, for
    /// the driver, which never receives its own INV, the drive) and the
    /// VAL; otherwise it would fork the version history against the new
    /// owner. An INV the engine refuses (stale epoch, lost arbitration,
    /// ghost, pending commits) leaves the owner an owner.
    DemoteSelf {
        /// Object whose ownership is being transferred away.
        object: ObjectId,
        /// The access level this node will hold once the transfer decides.
        level: zeus_proto::AccessLevel,
    },
    /// This node, acting as an arbiter, applied a validated ownership change.
    /// The host must update the object's access level in its store (e.g. the
    /// previous owner demotes itself to reader; a removed reader drops the
    /// object).
    ApplyReplicaChange {
        /// Object whose placement changed.
        object: ObjectId,
        /// New ownership timestamp.
        o_ts: OwnershipTs,
        /// New replica placement.
        new_replicas: ReplicaSet,
    },
}

/// Where the engine writes its output: one call per [`OwnershipAction`], in
/// protocol order, made as the engine produces it — so a host can put a
/// message straight into its outbox and apply a store effect in place
/// instead of receiving a fresh vector per message and walking it again.
/// `Vec<OwnershipAction>` implements the trait by pushing; that is what
/// [`OwnershipEngine::request_access`] and [`OwnershipEngine::handle_message`]
/// hand back.
pub trait OwnershipSink {
    /// Takes the next output of the engine.
    fn emit(&mut self, action: OwnershipAction);
}

impl OwnershipSink for Vec<OwnershipAction> {
    fn emit(&mut self, action: OwnershipAction) {
        self.push(action);
    }
}

/// Ownership metadata stored by arbiters (directory nodes and owners).
#[derive(Debug, Clone, PartialEq)]
struct MetaEntry {
    o_ts: OwnershipTs,
    replicas: ReplicaSet,
    o_state: OState,
    /// A view change pruned this placement to *empty*: every replica died
    /// or rejoined wiped, so the committed history is provably gone. The
    /// flag keeps the loss observable — without it an empty placement is
    /// indistinguishable from a never-created object, and the next
    /// acquisition would silently first-touch the object back to an empty
    /// version 0 instead of surfacing DataLoss.
    lost: bool,
}

impl MetaEntry {
    /// A settled placement.
    fn valid(o_ts: OwnershipTs, replicas: ReplicaSet) -> Self {
        MetaEntry {
            o_ts,
            replicas,
            o_state: OState::Valid,
            lost: false,
        }
    }
}

/// An in-flight arbitration observed by this node as an arbiter.
#[derive(Debug)]
struct InflightArb {
    req_id: RequestId,
    requester: NodeId,
    requester_has_replica: bool,
    kind: OwnershipRequestKind,
    o_ts: OwnershipTs,
    new_replicas: ReplicaSet,
    old_replicas: ReplicaSet,
    arbiters: NodeSet,
    /// When this node drives ACK collection (original driver keeps false —
    /// ACKs go to the requester; a recovery driver sets true).
    collecting_acks: bool,
    acks: NodeSet,
    data: Option<(DataTs, Bytes)>,
    /// Retransmit rounds this arbitration has sat without progress; the
    /// staleness replay (`replay_stalled`) fires once it reaches 2.
    stale_rounds: u32,
}

impl InflightArb {
    /// The INV of this arbitration.
    fn inv(&self, object: ObjectId, epoch: Epoch, ack_to_driver: bool) -> OwnershipMsg {
        OwnershipMsg::Inv {
            req_id: self.req_id,
            object,
            o_ts: self.o_ts,
            kind: self.kind,
            new_replicas: self.new_replicas.clone(),
            old_replicas: self.old_replicas.clone(),
            epoch,
            ack_to_driver,
            requester_has_replica: self.requester_has_replica,
        }
    }
}

/// A request issued by this node, waiting for ACKs / RESP.
#[derive(Debug)]
struct PendingRequest {
    object: ObjectId,
    kind: OwnershipRequestKind,
    has_replica: bool,
    driver: NodeId,
    acks: NodeSet,
    arbiters: Option<NodeSet>,
    o_ts: Option<OwnershipTs>,
    new_replicas: Option<ReplicaSet>,
    data: Option<(DataTs, Bytes)>,
    /// Whether the deciding arbitration first-touch-created the object
    /// (learned from ACKs / the recovery RESP; `None` until one arrives).
    /// Gates the fail-instead-of-fabricate check at completion.
    first_touch: Option<bool>,
    /// Engine-clock tick at which the REQ last went out; it is re-sent once
    /// a full retransmission interval has passed since.
    last_sent: u64,
}

impl PendingRequest {
    /// The REQ of this request.
    fn req(&self, req_id: RequestId, epoch: Epoch) -> OwnershipMsg {
        OwnershipMsg::Req {
            req_id,
            object: self.object,
            kind: self.kind,
            epoch,
            has_replica: self.has_replica,
        }
    }
}

/// Keeps the copy of the object value with the highest [`DataTs`].
fn keep_newest(held: &mut Option<(DataTs, Bytes)>, shipped: Option<(DataTs, Bytes)>) {
    if let Some((ts, _)) = &shipped {
        if held.as_ref().is_none_or(|(t, _)| t < ts) {
            *held = shipped;
        }
    }
}

/// Demotes `local` on `object` ([`OwnershipAction::DemoteSelf`]) if it is
/// the `owner` and `new_replicas` does not keep it owner.
fn demote_if_moved_away(
    local: NodeId,
    object: ObjectId,
    owner: Option<NodeId>,
    new_replicas: &ReplicaSet,
    out: &mut impl OwnershipSink,
) {
    let level = new_replicas.level_of(local);
    if owner == Some(local) && level != zeus_proto::AccessLevel::Owner {
        out.emit(OwnershipAction::DemoteSelf { object, level });
    }
}

/// The per-node ownership protocol engine (requester, driver and arbiter
/// roles combined).
///
/// Its tables are keyed by identifiers the protocol itself hands out and
/// hashed with [`zeus_proto::hash::IdHasher`]; every node set it holds or
/// puts in a message is an inline [`NodeSet`]. One uncontended handover
/// therefore allocates nothing in the engine beyond the occasional growth of
/// a table.
#[derive(Debug)]
pub struct OwnershipEngine {
    local: NodeId,
    directory: NodeSet,
    epoch: Epoch,
    enabled: bool,
    live: NodeSet,
    /// The host's clock as of [`OwnershipEngine::advance_clock`].
    now: u64,
    next_seq: u64,
    meta: IdHashMap<ObjectId, MetaEntry>,
    inflight: IdHashMap<ObjectId, InflightArb>,
    pending: IdHashMap<RequestId, PendingRequest>,
    /// The smallest `last_sent` over `pending`. REQs are stamped with a
    /// clock that never runs backwards, so stamping one never lowers it; it
    /// is recomputed only when the request that held it leaves or is
    /// re-stamped.
    oldest_send: Option<u64>,
    /// Highest request seq per (requester, object) whose arbitration this
    /// node has seen decided. Deduplicates late/duplicate REQs: re-driving
    /// an already-decided request would start a ghost arbitration nobody
    /// completes (the requester is gone), wedging the object. Bounded by
    /// (nodes x objects this node arbitrates).
    completed_seqs: IdHashMap<(NodeId, ObjectId), u64>,
    /// Placement entries whose settled state changed recently, with the
    /// number of delta pushes each still gets. Backs the anti-entropy
    /// [`OwnershipEngine::drain_dirty_digest`]: pushing only changed entries
    /// keeps the periodic directory sync O(churn) instead of O(objects),
    /// and repeating each entry a few times rides out dropped pushes.
    dirty: IdHashMap<ObjectId, u8>,
    stats: OwnershipStats,
}

impl OwnershipEngine {
    /// Creates the engine for node `local` in a cluster of `cluster_size`
    /// nodes, with the given directory replicas (the paper uses three, §4).
    pub fn new(local: NodeId, directory: Vec<NodeId>, cluster_size: usize) -> Self {
        assert!(
            !directory.is_empty(),
            "at least one directory node required"
        );
        OwnershipEngine {
            local,
            directory: directory.into(),
            epoch: Epoch::ZERO,
            enabled: true,
            live: (0..cluster_size as u16).map(NodeId).collect(),
            now: 0,
            next_seq: 0,
            meta: IdHashMap::default(),
            inflight: IdHashMap::default(),
            pending: IdHashMap::default(),
            oldest_send: None,
            completed_seqs: IdHashMap::default(),
            dirty: IdHashMap::default(),
            stats: OwnershipStats::default(),
        }
    }

    /// Delta pushes a dirty placement entry receives before it is considered
    /// disseminated. One push would suffice on a lossless link; repeating it
    /// lets the periodic sync survive dropped pushes without acks.
    const DIRTY_PUSHES: u8 = 4;

    /// Marks `object`'s placement as changed for the anti-entropy sync.
    fn mark_dirty(&mut self, object: ObjectId) {
        self.dirty.insert(object, Self::DIRTY_PUSHES);
    }

    /// Marks every held placement entry dirty — called after a view change,
    /// when peers may have diverged arbitrarily (the one remaining full
    /// push; steady-state pushes carry only the delta).
    pub fn mark_all_dirty(&mut self) {
        for &object in self.meta.keys() {
            self.dirty.insert(object, Self::DIRTY_PUSHES);
        }
    }

    /// Records that `req_id`'s arbitration over `object` has been decided.
    fn mark_decided(&mut self, req_id: RequestId, object: ObjectId) {
        let entry = self
            .completed_seqs
            .entry((req_id.requester, object))
            .or_insert(0);
        *entry = (*entry).max(req_id.seq);
    }

    /// Whether `req_id` duplicates a request already decided at this node.
    fn is_decided(&self, req_id: RequestId, object: ObjectId) -> bool {
        self.completed_seqs
            .get(&(req_id.requester, object))
            .is_some_and(|&s| s >= req_id.seq)
    }

    /// This node's id.
    pub fn local(&self) -> NodeId {
        self.local
    }

    /// The directory replica set.
    pub fn directory(&self) -> &NodeSet {
        &self.directory
    }

    /// Whether this node is a directory replica.
    pub fn is_directory_node(&self) -> bool {
        self.directory.contains(self.local)
    }

    /// Protocol counters.
    pub fn stats(&self) -> &OwnershipStats {
        &self.stats
    }

    /// Current epoch the engine operates in.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Number of requests issued by this node that are still pending.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// When the pending request that has waited longest for an answer last
    /// had its REQ sent: [`OwnershipEngine::retransmit_into`] re-sends
    /// nothing before an interval has passed since then. `None` with no
    /// request pending. Constant time: hosts ask before every sleep.
    pub fn oldest_unanswered_send(&self) -> Option<u64> {
        self.oldest_send
    }

    /// A request stamped `last_sent` left `pending` or was stamped afresh.
    fn stamp_left(&mut self, last_sent: u64) {
        if self.oldest_send == Some(last_sent) {
            self.oldest_send = self.pending.values().map(|p| p.last_sent).min();
        }
    }

    /// Removes a pending request.
    fn take_pending(&mut self, req_id: RequestId) -> Option<PendingRequest> {
        let pending = self.pending.remove(&req_id)?;
        self.stamp_left(pending.last_sent);
        Some(pending)
    }

    /// Number of in-flight arbitrations observed by this node.
    pub fn inflight_arbitrations(&self) -> usize {
        self.inflight.len()
    }

    /// Tells the engine the host's current time (ticks): REQs sent from here
    /// on are stamped with it, and [`OwnershipEngine::retransmit_into`]
    /// measures their age against it.
    pub fn advance_clock(&mut self, now: u64) {
        self.now = self.now.max(now);
    }

    /// Pauses / resumes acceptance of new requests (driven by the membership
    /// recovery barrier, §5.1).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Discards every piece of state that may be stale after this node was
    /// expelled from the view and re-admitted (false suspicion, restart, or
    /// scale-in/out cycle).
    ///
    /// While the node was out, arbitrations and commits kept flowing without
    /// it, so its metadata, in-flight arbitrations and pending requests are
    /// all unreliable: metadata is wiped (it is rebuilt per object by the
    /// INV/VAL traffic of subsequent arbitrations), in-flight arbitrations
    /// are dropped (live arbiters replay them), and pending requests fail
    /// back to the transaction layer, which retries them under the new
    /// epoch. `completed_seqs` is deliberately kept: it only suppresses
    /// ghost re-drives of decided requests, and a stale (low) entry is no
    /// worse than the empty map a genuinely fresh node starts with.
    pub fn reset_for_rejoin_into(&mut self, out: &mut impl OwnershipSink) {
        self.stats.rejoin_resets += 1;
        self.meta.clear();
        self.dirty.clear();
        self.inflight.clear();
        self.oldest_send = None;
        let mut pending: Vec<(RequestId, ObjectId)> = self
            .pending
            .drain()
            .map(|(req_id, p)| (req_id, p.object))
            .collect();
        pending.sort_unstable_by_key(|(req_id, _)| *req_id);
        for (req_id, object) in pending {
            self.fail(req_id, object, NackReason::Recovering, out);
        }
    }

    /// Reports the terminal failure of a request this node issued.
    fn fail(
        &mut self,
        req_id: RequestId,
        object: ObjectId,
        reason: NackReason,
        out: &mut impl OwnershipSink,
    ) {
        self.stats.requests_failed += 1;
        out.emit(OwnershipAction::Failed {
            req_id,
            object,
            reason,
        });
    }

    /// Registers ownership metadata for an object this node arbitrates
    /// (directory replica, or initial owner). Called at object creation.
    pub fn register_object(&mut self, object: ObjectId, replicas: ReplicaSet) {
        if self.is_directory_node() || replicas.owner == Some(self.local) {
            self.meta
                .entry(object)
                .or_insert(MetaEntry::valid(OwnershipTs::default(), replicas));
        }
    }

    /// The replica placement this node currently believes for `object`
    /// (authoritative on directory nodes and the owner).
    pub fn replicas_of(&self, object: ObjectId) -> Option<&ReplicaSet> {
        self.meta.get(&object).map(|m| &m.replicas)
    }

    /// The id the next [`OwnershipEngine::request_access`] will hand out.
    pub fn next_request_id(&self) -> RequestId {
        RequestId::new(self.local, self.next_seq)
    }

    /// Issues an ownership request for `object` (§4.1). Returns the request
    /// id the host should wait on, plus the protocol actions to apply.
    pub fn request_access(
        &mut self,
        object: ObjectId,
        kind: OwnershipRequestKind,
        host: &impl OwnershipHost,
    ) -> (RequestId, Vec<OwnershipAction>) {
        let mut actions = Vec::new();
        let req_id = self.request_access_into(object, kind, host, &mut actions);
        (req_id, actions)
    }

    /// [`OwnershipEngine::request_access`], writing the output into `out`.
    pub fn request_access_into(
        &mut self,
        object: ObjectId,
        kind: OwnershipRequestKind,
        host: &impl OwnershipHost,
        out: &mut impl OwnershipSink,
    ) -> RequestId {
        let req_id = self.next_request_id();
        self.next_seq += 1;
        self.stats.requests_issued += 1;
        // Whether we actually store a copy — the placement is not a proxy
        // (see `OwnershipMsg::Req::has_replica`).
        let has_replica = host.object_value(object).is_some();

        // Prefer a co-located directory replica (saves one hop, §4.2) —
        // but only when we actually hold metadata for the object. A
        // directory node without metadata either never saw the object
        // (genuine first touch) or was wiped after a re-admission; routing
        // to a peer replica lets an informed driver arbitrate (and our own
        // copy heals from its INV/VAL traffic). Otherwise spread requests
        // across the live directory replicas other than this node.
        let is_directory = self.is_directory_node();
        let driver = if is_directory && self.meta.contains_key(&object) {
            self.local
        } else {
            let peers = || {
                self.directory
                    .iter()
                    .filter(|&d| d != self.local && self.live.contains(d))
            };
            match peers().count() {
                // Sole surviving directory replica: drive it ourselves.
                0 if is_directory => self.local,
                0 => {
                    self.fail(req_id, object, NackReason::Recovering, out);
                    return req_id;
                }
                n => peers()
                    .nth((object.0 as usize ^ req_id.seq as usize) % n)
                    .expect("nth of n"),
            }
        };

        let pending = PendingRequest {
            object,
            kind,
            has_replica,
            driver,
            acks: NodeSet::new(),
            arbiters: None,
            o_ts: None,
            new_replicas: None,
            data: None,
            first_touch: None,
            last_sent: self.now,
        };
        out.emit(OwnershipAction::Send {
            to: driver,
            msg: pending.req(req_id, self.epoch),
        });
        self.pending.insert(req_id, pending);
        self.oldest_send.get_or_insert(self.now);
        req_id
    }

    /// Re-issues a previously NACKed (retryable) request, keeping its id.
    pub fn retry_request_into(&mut self, req_id: RequestId, out: &mut impl OwnershipSink) {
        let Some(pending) = self.pending.get_mut(&req_id) else {
            return;
        };
        self.stats.requests_retried += 1;
        pending.acks.clear();
        pending.arbiters = None;
        pending.o_ts = None;
        self.resend(req_id, out);
    }

    /// Sends `req_id`'s REQ (again) and restarts its timer, re-picking the
    /// driver — and forgetting what the old one's arbitration collected —
    /// if it died. With no live directory replica left the request fails:
    /// dropping the pending entry keeps the periodic retransmission from
    /// resurrecting (or re-failing) a request the caller has already
    /// observed as failed. Returns whether the REQ went out.
    fn resend(&mut self, req_id: RequestId, out: &mut impl OwnershipSink) -> bool {
        let Some(pending) = self.pending.get_mut(&req_id) else {
            return false;
        };
        if !self.live.contains(pending.driver) {
            // The first live directory replica takes over.
            let Some(driver) = self.directory.iter().find(|&d| self.live.contains(d)) else {
                let object = pending.object;
                self.take_pending(req_id);
                self.fail(req_id, object, NackReason::Recovering, out);
                return false;
            };
            pending.driver = driver;
            pending.acks.clear();
            pending.o_ts = None;
            pending.arbiters = None;
        }
        out.emit(OwnershipAction::Send {
            to: pending.driver,
            msg: pending.req(req_id, self.epoch),
        });
        let previous = std::mem::replace(&mut pending.last_sent, self.now);
        self.stamp_left(previous);
        true
    }

    /// Abandons a pending request (e.g. the transaction was aborted by the
    /// back-off deadlock avoidance, §6.2).
    pub fn abandon_request(&mut self, req_id: RequestId) {
        self.take_pending(req_id);
    }

    /// Re-sends the REQ of every pending request that has gone unanswered for
    /// `interval` ticks or more since it last went out (reliable-transport
    /// retransmission, §3.1), re-picking the driver when the previous one
    /// died. Unlike [`OwnershipEngine::retry_request_into`] this keeps any ACKs
    /// already collected: the driver's redrive path is idempotent, so a
    /// duplicate REQ only refreshes in-flight state, and a REQ or ACK lost
    /// to an epoch transition gets re-issued with the current epoch.
    pub fn retransmit_into(&mut self, interval: u64, out: &mut impl OwnershipSink) {
        if self
            .oldest_send
            .is_none_or(|sent| self.now.saturating_sub(sent) < interval)
        {
            return;
        }
        // Deterministic order: map iteration order must not influence the
        // message sequence (it would perturb the simulator's RNG stream).
        let mut req_ids: Vec<RequestId> = self
            .pending
            .iter()
            .filter(|(_, p)| self.now.saturating_sub(p.last_sent) >= interval)
            .map(|(&req_id, _)| req_id)
            .collect();
        req_ids.sort_unstable();
        for req_id in req_ids {
            if self.resend(req_id, out) {
                self.stats.requests_retransmitted += 1;
            }
        }
    }

    /// Replays arbitrations that have sat without progress for two
    /// retransmission rounds, exactly like the view-change arb-replay.
    ///
    /// An arbitration wedges when its requester abandons it: a terminal NACK
    /// from one arbiter makes the requester drop the request, but the driver
    /// and the remaining arbiters keep `o_state = Drive/Invalid` waiting for
    /// a VAL that will never come — and every later request for the object
    /// then loses arbitration against the ghost. Replaying drives the stuck
    /// arbitration to a decision; every step is idempotent, so replaying an
    /// arbitration that is actually still progressing is harmless.
    pub fn replay_stalled_into(&mut self, host: &impl OwnershipHost, out: &mut impl OwnershipSink) {
        let mut stalled: Vec<ObjectId> = self
            .inflight
            .iter_mut()
            .filter_map(|(&object, inf)| {
                inf.stale_rounds += 1;
                (inf.stale_rounds >= 2).then_some(object)
            })
            .collect();
        stalled.sort_unstable();
        for object in stalled {
            if let Some(inf) = self.inflight.get_mut(&object) {
                inf.stale_rounds = 0;
            }
            self.replay(object, host, out);
        }
    }

    /// Arb-replays the in-flight arbitration of `object` with this node as
    /// the recovery driver: re-invalidates the live arbiters, which ACK back
    /// here, and decides at once if this node is the only one left.
    fn replay(
        &mut self,
        object: ObjectId,
        host: &impl OwnershipHost,
        out: &mut impl OwnershipSink,
    ) {
        let Some(inf) = self.inflight.get_mut(&object) else {
            return;
        };
        self.stats.arb_replays += 1;
        inf.collecting_acks = true;
        inf.acks.clear();
        inf.acks.insert(self.local);
        let mut alone = true;
        for to in inf.arbiters.iter().filter(|&n| self.live.contains(n)) {
            if to != self.local {
                alone = false;
                out.emit(OwnershipAction::Send {
                    to,
                    msg: inf.inv(object, self.epoch, true),
                });
            }
        }
        if alone {
            self.finish_recovery_drive(object, host, out);
        }
    }

    /// Handles an incoming protocol message.
    pub fn handle_message(
        &mut self,
        from: NodeId,
        msg: OwnershipMsg,
        host: &impl OwnershipHost,
    ) -> Vec<OwnershipAction> {
        let mut actions = Vec::new();
        self.handle_message_into(from, msg, host, &mut actions);
        actions
    }

    /// [`OwnershipEngine::handle_message`], writing the output into `out`.
    pub fn handle_message_into(
        &mut self,
        from: NodeId,
        msg: OwnershipMsg,
        host: &impl OwnershipHost,
        out: &mut impl OwnershipSink,
    ) {
        match msg {
            OwnershipMsg::Req {
                req_id,
                object,
                kind,
                epoch,
                has_replica,
            } => self.on_req(req_id, object, kind, epoch, has_replica, host, out),
            OwnershipMsg::Inv {
                req_id,
                object,
                o_ts,
                kind,
                new_replicas,
                old_replicas,
                epoch,
                ack_to_driver,
                requester_has_replica,
            } => self.on_inv(
                from,
                req_id,
                object,
                o_ts,
                kind,
                new_replicas,
                old_replicas,
                epoch,
                ack_to_driver,
                requester_has_replica,
                host,
                out,
            ),
            OwnershipMsg::Ack {
                req_id,
                object,
                o_ts,
                epoch,
                data,
                from: acker,
                arbiters,
                new_replicas,
                first_touch,
            } => self.on_ack(
                req_id,
                object,
                o_ts,
                epoch,
                data,
                acker,
                arbiters,
                new_replicas,
                first_touch,
                host,
                out,
            ),
            OwnershipMsg::Val {
                req_id: _,
                object,
                o_ts,
                epoch,
            } => self.on_val(object, o_ts, epoch, out),
            OwnershipMsg::Nack {
                req_id,
                object,
                reason,
                epoch: _,
                from: _,
            } => self.on_nack(req_id, object, reason, out),
            OwnershipMsg::Resp {
                req_id,
                object,
                o_ts,
                epoch,
                data,
                new_replicas,
                first_touch,
            } => self.on_resp(
                req_id,
                object,
                o_ts,
                epoch,
                data,
                new_replicas,
                first_touch,
                host,
                out,
            ),
        }
    }

    /// Installs a new membership view: bumps the epoch, prunes dead replicas
    /// and starts arb-replays for every pending arbitration (§4.1 recovery).
    ///
    /// `rejoined` lists the nodes this view re-admits *with wiped state*:
    /// they are pruned from every replica set exactly like dead nodes —
    /// their copies are gone — even though they are live. This also covers
    /// followers that missed intermediate views (a node jumping several
    /// epochs learns the rejoins from the view that reaches it), keeping
    /// directory replicas in agreement.
    pub fn on_view_change_into(
        &mut self,
        epoch: Epoch,
        live: &[NodeId],
        rejoined: &[NodeId],
        host: &impl OwnershipHost,
        out: &mut impl OwnershipSink,
    ) {
        // Re-installing the current epoch is idempotent; an older one is stale.
        if epoch < self.epoch && !self.live.is_empty() {
            return;
        }
        self.epoch = epoch;
        self.live = live.iter().copied().collect();
        self.enabled = false;

        for meta in self.meta.values_mut() {
            let had_replicas = !meta.replicas.is_empty();
            meta.replicas.retain_live(live);
            for &r in rejoined {
                meta.replicas.remove_node(r);
            }
            // Pruned to empty: the last copy died with its holder(s). Mark
            // the loss so later acquisitions abort instead of re-creating
            // the object empty as a bogus "first touch".
            if had_replicas && meta.replicas.is_empty() {
                meta.lost = true;
            }
        }
        // Arbitrations whose requester rejoined (wiped) are NOT dropped:
        // dropping is only symmetric if every arbiter still holds the
        // in-flight entry, but a replay from an earlier view change may
        // already have applied the arbitration at some arbiters — dropping
        // at the rest would freeze the directory in disagreement (some at
        // the decided placement, some at the stale one). Instead the
        // requester is pruned from the replica sets like any dead node and
        // the arbitration is driven to a decision by the replay below; the
        // rejoined requester ignores the eventual RESP (its pending state
        // was wiped) and re-requests with a fresh id.
        for inf in self.inflight.values_mut() {
            for &r in rejoined {
                inf.new_replicas.remove_node(r);
                inf.old_replicas.remove_node(r);
            }
        }

        // Arb-replay every pending arbitration this node knows about (in
        // deterministic object order; see `retransmit`).
        let mut objects: Vec<ObjectId> = self.inflight.keys().copied().collect();
        objects.sort_unstable();
        for object in objects {
            self.replay(object, host, out);
        }
    }

    /// Snapshot of this node's placement table, sorted by object id — the
    /// payload of a directory push (`ViewMsg::DirPush`). Exchanged among
    /// directory replicas so a rejoiner re-learns every placement before
    /// serving arbitration and surviving replicas reconcile divergence.
    pub fn directory_digest(&self) -> Vec<(ObjectId, OwnershipTs, ReplicaSet)> {
        let mut entries: Vec<(ObjectId, OwnershipTs, ReplicaSet)> = self
            .meta
            .iter()
            // Only *settled* placements are shareable. A driving replica's
            // meta carries the bumped timestamp with the OLD replica set
            // (the arbitration may still abort, and the new placement is
            // not decided here); pushing it would let a peer adopt the old
            // owner at the new timestamp and then reject the real outcome
            // forever.
            .filter(|(_, m)| m.o_state == OState::Valid)
            .map(|(&object, m)| (object, m.o_ts, m.replicas.clone()))
            .collect();
        entries.sort_unstable_by_key(|&(object, _, _)| object);
        entries
    }

    /// The delta digest for one periodic anti-entropy push: placement
    /// entries that changed recently (marked dirty when they settle),
    /// sorted by object id. Each drain decrements the entries' remaining
    /// push budget; an entry leaves the set once disseminated
    /// `DIRTY_PUSHES` times or its metadata is dropped.
    /// Entries mid-arbitration are held back with their budget intact —
    /// only settled placements are shareable (see
    /// [`OwnershipEngine::directory_digest`]) and settling re-marks them.
    pub fn drain_dirty_digest(&mut self) -> Vec<(ObjectId, OwnershipTs, ReplicaSet)> {
        let mut entries = Vec::new();
        let meta = &self.meta;
        self.dirty.retain(|object, pushes| match meta.get(object) {
            Some(m) if m.o_state == OState::Valid => {
                entries.push((*object, m.o_ts, m.replicas.clone()));
                *pushes -= 1;
                *pushes > 0
            }
            Some(_) => true,
            None => false,
        });
        entries.sort_unstable_by_key(|&(object, _, _)| object);
        entries
    }

    /// Adopts pushed placement entries (the receive side of the directory
    /// sync). Per entry the newest ownership timestamp wins: an entry
    /// strictly newer than our metadata overwrites it — unless *any*
    /// arbitration for the object is in flight here, in which case the
    /// entry is skipped entirely and the live protocol decides the
    /// placement (the anti-entropy push is advisory; cancelling or
    /// bypassing an arbitration mid-flight desynchronises this replica
    /// from the requester/owner exchange it is part of). A replica
    /// therefore never regresses to an older placement and never abandons
    /// an arbitration it has started. Adopted entries are surfaced as
    /// [`OwnershipAction::ApplyReplicaChange`] so the host store updates
    /// its access levels.
    pub fn adopt_directory_into(
        &mut self,
        entries: &[(ObjectId, OwnershipTs, ReplicaSet)],
        out: &mut impl OwnershipSink,
    ) {
        for (object, o_ts, replicas) in entries {
            if self.meta.get(object).is_some_and(|m| m.o_ts >= *o_ts)
                || self.inflight.contains_key(object)
            {
                continue;
            }
            self.stats.dir_entries_adopted += 1;
            self.meta
                .insert(*object, MetaEntry::valid(*o_ts, replicas.clone()));
            out.emit(OwnershipAction::ApplyReplicaChange {
                object: *object,
                o_ts: *o_ts,
                new_replicas: replicas.clone(),
            });
        }
    }

    // ------------------------------------------------------------------
    // Driver side
    // ------------------------------------------------------------------

    /// The NACK this node sends for `req_id`.
    fn nack_msg(&self, req_id: RequestId, object: ObjectId, reason: NackReason) -> OwnershipMsg {
        OwnershipMsg::Nack {
            req_id,
            object,
            reason,
            epoch: self.epoch,
            from: self.local,
        }
    }

    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn on_req(
        &mut self,
        req_id: RequestId,
        object: ObjectId,
        kind: OwnershipRequestKind,
        epoch: Epoch,
        requester_has_replica: bool,
        host: &impl OwnershipHost,
        out: &mut impl OwnershipSink,
    ) {
        let requester = req_id.requester;
        let (epoch_now, local) = (self.epoch, self.local);
        let mut nack = |reason| {
            out.emit(OwnershipAction::Send {
                to: requester,
                msg: OwnershipMsg::Nack {
                    req_id,
                    object,
                    reason,
                    epoch: epoch_now,
                    from: local,
                },
            });
        };

        if epoch != self.epoch {
            return nack(NackReason::StaleEpoch);
        }
        if !self.enabled {
            return nack(NackReason::Recovering);
        }
        if !self.is_directory_node() {
            return nack(NackReason::NotDirectory);
        }

        // Idempotent retry of the request we are already driving.
        if let Some(inf) = self.inflight.get(&object) {
            if inf.req_id == req_id {
                return self.redrive(object, host, out);
            }
            return nack(NackReason::LostArbitration);
        }

        // Duplicate of an already-decided request (late retransmission or a
        // network duplicate): answer with the current authoritative
        // placement instead of driving a ghost arbitration. The requester
        // ignores the RESP if it already completed. Ship this node's copy of
        // the value: if the requester is still waiting (its original RESP or
        // ACKs were lost) and holds no replica, completing with no data
        // would install an empty version-0 object.
        if self.is_decided(req_id, object) {
            let Some(meta) = self.meta.get(&object) else {
                return;
            };
            return out.emit(OwnershipAction::Send {
                to: requester,
                msg: OwnershipMsg::Resp {
                    req_id,
                    object,
                    o_ts: meta.o_ts,
                    epoch: self.epoch,
                    data: host.object_value(object),
                    new_replicas: meta.replicas.clone(),
                    // Lenient only when no node besides the requester is
                    // placed (nobody else could hold committed data): a
                    // still-waiting requester then completes without data
                    // rather than wedging a genuine first touch whose
                    // original completion was lost.
                    first_touch: meta.replicas.replicas().all(|n| n == requester),
                },
            });
        }

        // First-touch creation: an AcquireOwner request for an object the
        // directory has never seen creates its metadata with no prior owner.
        let meta = match self.meta.entry(object) {
            Entry::Occupied(held) => held.into_mut(),
            Entry::Vacant(vacant) if kind == OwnershipRequestKind::AcquireOwner => vacant.insert(
                MetaEntry::valid(OwnershipTs::default(), ReplicaSet::default()),
            ),
            Entry::Vacant(_) => return nack(NackReason::UnknownObject),
        };
        // A placement a view change pruned to empty is not a first touch:
        // the committed history died with its last replica. Fail the
        // acquisition instead of fabricating an empty version 0 over it.
        if meta.lost {
            return nack(NackReason::DataLoss);
        }
        if meta.o_state != OState::Valid {
            return nack(NackReason::LostArbitration);
        }
        // If this directory node is also the current owner, enforce the
        // pending-commit rule here.
        if meta.replicas.owner == Some(self.local) && host.has_pending_commits(object) {
            return nack(NackReason::PendingCommit);
        }
        let new_replicas = Self::apply_kind(&meta.replicas, kind, requester);
        // The last replica of an object may never remove itself: deciding
        // an empty placement discards the only surviving copy, and the
        // next acquisition would first-touch the object back to an empty
        // version 0 — silent data loss reachable by merely shrinking a
        // cold object. NACK instead; the requester keeps its copy.
        if matches!(kind, OwnershipRequestKind::RemoveReader { .. }) && new_replicas.is_empty() {
            return nack(NackReason::DataLoss);
        }

        self.stats.requests_driven += 1;
        let o_ts = meta.o_ts.bump(self.local);
        meta.o_ts = o_ts;
        meta.o_state = OState::Drive;
        let old_replicas = meta.replicas.clone();
        // Trust `has_replica` only when the committed placement actually
        // lists the requester: in-placement replicas are kept current by
        // INV/VAL traffic, but a node outside the placement can still hold
        // a copy — e.g. a re-admitted node whose wiped store entry was
        // re-created by a stale in-flight follower update from before its
        // expulsion. Treating that zombie copy as a replica would suppress
        // the data ship and hand ownership to a stale value; forcing the
        // ship is always safe (the requester installs by ts-compare).
        let requester_has_replica =
            requester_has_replica && old_replicas.level_of(requester).is_replica();
        let mut arbiters = Self::arbiters_of(&self.directory, &old_replicas, requester);
        arbiters.retain(|n| self.live.contains(n));

        // If this driver is also the current owner and the request moves
        // ownership elsewhere, it must invalidate its own write access *at
        // drive time* — it will never receive the INV that demotes a remote
        // owner (see [`OwnershipAction::DemoteSelf`]).
        demote_if_moved_away(self.local, object, old_replicas.owner, &new_replicas, out);
        let inf = InflightArb {
            req_id,
            requester,
            requester_has_replica,
            kind,
            o_ts,
            new_replicas,
            old_replicas,
            arbiters,
            collecting_acks: false,
            acks: NodeSet::new(),
            data: None,
            stale_rounds: 0,
        };
        self.drive(&inf, object, false, host, out);
        self.inflight.insert(object, inf);
    }

    /// Sends the INVs of the arbitration `inf` this node drives — to every
    /// arbiter, or on a re-drive to the live ones — and, the driver being an
    /// arbiter itself, its ACK straight to the requester.
    fn drive(
        &self,
        inf: &InflightArb,
        object: ObjectId,
        live_only: bool,
        host: &impl OwnershipHost,
        out: &mut impl OwnershipSink,
    ) {
        for to in inf.arbiters.iter() {
            if to != self.local && (!live_only || self.live.contains(to)) {
                out.emit(OwnershipAction::Send {
                    to,
                    msg: inf.inv(object, self.epoch, false),
                });
            }
        }
        out.emit(OwnershipAction::Send {
            to: inf.requester,
            msg: self.ack(inf, object, inf.arbiters.clone(), host),
        });
    }

    /// This node's ACK of the arbitration `inf`, naming `arbiters`.
    fn ack(
        &self,
        inf: &InflightArb,
        object: ObjectId,
        arbiters: NodeSet,
        host: &impl OwnershipHost,
    ) -> OwnershipMsg {
        OwnershipMsg::Ack {
            req_id: inf.req_id,
            object,
            o_ts: inf.o_ts,
            epoch: self.epoch,
            data: self.data_for_requester(
                object,
                inf.kind,
                inf.requester,
                inf.requester_has_replica,
                &inf.old_replicas,
                host,
            ),
            from: self.local,
            arbiters,
            new_replicas: inf.new_replicas.clone(),
            first_touch: inf.old_replicas.is_empty(),
        }
    }

    /// Re-sends the INVs and driver ACK of the arbitration this node drives
    /// for `object` (idempotent retry path).
    fn redrive(
        &mut self,
        object: ObjectId,
        host: &impl OwnershipHost,
        out: &mut impl OwnershipSink,
    ) {
        let Some(inf) = self.inflight.get_mut(&object) else {
            return;
        };
        inf.stale_rounds = 0;
        let inf = &self.inflight[&object];
        // If this driver is also the owner and still has commits in flight,
        // keep rejecting the retry.
        if inf.old_replicas.owner == Some(self.local) && host.has_pending_commits(object) {
            return out.emit(OwnershipAction::Send {
                to: inf.requester,
                msg: self.nack_msg(inf.req_id, object, NackReason::PendingCommit),
            });
        }
        self.drive(inf, object, true, host, out);
    }

    // ------------------------------------------------------------------
    // Arbiter side
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn on_inv(
        &mut self,
        from: NodeId,
        req_id: RequestId,
        object: ObjectId,
        o_ts: OwnershipTs,
        kind: OwnershipRequestKind,
        new_replicas: ReplicaSet,
        old_replicas: ReplicaSet,
        epoch: Epoch,
        ack_to_driver: bool,
        requester_has_replica: bool,
        host: &impl OwnershipHost,
        out: &mut impl OwnershipSink,
    ) {
        if epoch != self.epoch {
            return;
        }
        let requester = req_id.requester;
        let ack_target = if ack_to_driver { from } else { requester };

        // Ensure we have metadata to arbitrate with; a node that is an
        // arbiter only because it is the current owner may have never seen
        // this object via the directory.
        let meta = self
            .meta
            .entry(object)
            .or_insert_with(|| MetaEntry::valid(OwnershipTs::default(), old_replicas.clone()));

        // The current owner rejects migrations of objects with commits still
        // in flight (§4.1).
        if meta.replicas.owner == Some(self.local)
            && o_ts > meta.o_ts
            && host.has_pending_commits(object)
        {
            return out.emit(OwnershipAction::Send {
                to: requester,
                msg: self.nack_msg(req_id, object, NackReason::PendingCommit),
            });
        }

        // A drive made from *empty* metadata against an established placement
        // is a ghost: a re-admitted (amnesiac) directory replica first-touch
        // created an object its peers already track. Its timestamp may even
        // win the o_ts comparison (same counter, higher node id), so an
        // explicit placement check is needed — accepting it would hand the
        // requester an empty version-0 object and drop every real replica.
        // Reject it regardless of timestamps and tell the driver to abort.
        //
        // A stale / losing request (lower timestamp) is told to give up the
        // same way — its requester and also its *driver* (when it is not the
        // requester itself): a driver arbitrating from stale or wiped
        // metadata would otherwise keep an in-flight arbitration that can
        // never complete and replay it forever.
        let ghost = o_ts > meta.o_ts && old_replicas.is_empty() && !meta.replicas.is_empty();
        if ghost || o_ts < meta.o_ts {
            let nack = self.nack_msg(req_id, object, NackReason::LostArbitration);
            out.emit(OwnershipAction::Send {
                to: requester,
                msg: nack.clone(),
            });
            if from != requester {
                out.emit(OwnershipAction::Send {
                    to: from,
                    msg: nack,
                });
            }
            return;
        }

        let inf = InflightArb {
            req_id,
            requester,
            requester_has_replica,
            kind,
            o_ts,
            new_replicas,
            arbiters: Self::arbiters_of(&self.directory, &old_replicas, requester),
            old_replicas,
            collecting_acks: false,
            acks: NodeSet::new(),
            data: None,
            stale_rounds: 0,
        };
        if o_ts > meta.o_ts {
            self.stats.invalidations_processed += 1;
            meta.o_ts = o_ts;
            meta.o_state = OState::Invalid;
            demote_if_moved_away(
                self.local,
                object,
                meta.replicas.owner,
                &inf.new_replicas,
                out,
            );
            // If this node was driving a different, lower-timestamped request
            // for the object, that request has lost: notify its requester.
            if let Some(prev) = self.inflight.get(&object) {
                if prev.req_id != req_id && prev.o_ts.node == self.local {
                    out.emit(OwnershipAction::Send {
                        to: prev.requester,
                        msg: self.nack_msg(prev.req_id, object, NackReason::LostArbitration),
                    });
                }
            }
            let ack = self.ack(&inf, object, inf.arbiters.clone(), host);
            self.inflight.insert(object, inf);
            return out.emit(OwnershipAction::Send {
                to: ack_target,
                msg: ack,
            });
        }
        // o_ts == meta.o_ts (replay / duplicate): simply ACK again (§4.1),
        // naming the arbiters of the arbitration held in flight, if any.
        let arbiters = match self.inflight.get(&object) {
            Some(held) => held.arbiters.clone(),
            None => {
                let mut set = inf.arbiters.clone();
                set.retain(|n| self.live.contains(n));
                set
            }
        };
        out.emit(OwnershipAction::Send {
            to: ack_target,
            msg: self.ack(&inf, object, arbiters, host),
        });
    }

    fn on_val(
        &mut self,
        object: ObjectId,
        o_ts: OwnershipTs,
        epoch: Epoch,
        out: &mut impl OwnershipSink,
    ) {
        if epoch != self.epoch
            || self
                .inflight
                .get(&object)
                .is_none_or(|inf| inf.o_ts != o_ts)
        {
            return;
        }
        self.stats.validations_applied += 1;
        self.apply_arbitration(object, out);
    }

    fn on_nack(
        &mut self,
        req_id: RequestId,
        object: ObjectId,
        reason: NackReason,
        out: &mut impl OwnershipSink,
    ) {
        // Arbiter side: a peer refuted the arbitration we hold in flight for
        // this request (a drive from stale or wiped metadata lost against an
        // established placement). Abort it — drop the in-flight entry and
        // any metadata the refuted drive created (INV/VAL traffic of real
        // arbitrations rebuilds it) — so the stalled-arbitration replay does
        // not resurrect it forever, and self-routing does not keep running
        // into the stuck entry. This must fire at *every* arbiter holding
        // the refuted arbitration, not just the driver that bumped the
        // timestamp: wiped arbiters accept a ghost's INV (their metadata is
        // empty too) and would otherwise keep replaying it to each other.
        if reason == NackReason::LostArbitration
            && self
                .inflight
                .get(&object)
                .is_some_and(|inf| inf.req_id == req_id)
        {
            let ghost = self.inflight.remove(&object).expect("checked above");
            if self.meta.get(&object).is_some_and(|m| m.o_ts == ghost.o_ts) {
                self.meta.remove(&object);
            }
            self.stats.ghost_arbitrations_aborted += 1;
        }
        if !self.pending.contains_key(&req_id) {
            return;
        }
        match reason {
            NackReason::PendingCommit | NackReason::Recovering | NackReason::StaleEpoch => {
                out.emit(OwnershipAction::RetryLater {
                    req_id,
                    object,
                    reason,
                });
            }
            NackReason::LostArbitration
            | NackReason::NotDirectory
            | NackReason::UnknownObject
            | NackReason::DataLoss => {
                self.take_pending(req_id);
                self.fail(req_id, object, reason, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Requester side
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn on_ack(
        &mut self,
        req_id: RequestId,
        object: ObjectId,
        o_ts: OwnershipTs,
        epoch: Epoch,
        data: Option<(DataTs, Bytes)>,
        acker: NodeId,
        arbiters: NodeSet,
        new_replicas: ReplicaSet,
        first_touch: bool,
        host: &impl OwnershipHost,
        out: &mut impl OwnershipSink,
    ) {
        if epoch != self.epoch {
            return;
        }

        // Recovery drivers collect ACKs for arbitrations they replay.
        if req_id.requester != self.local {
            return self.on_recovery_ack(req_id, object, o_ts, data, acker, host, out);
        }

        let Some(pending) = self.pending.get_mut(&req_id) else {
            return;
        };
        // A newer arbitration (higher o_ts) supersedes a half-collected one
        // (can happen when a PendingCommit retry restarts arbitration).
        match pending.o_ts {
            Some(existing) if existing == o_ts => {}
            Some(existing) if existing > o_ts => return,
            _ => {
                pending.o_ts = Some(o_ts);
                pending.acks.clear();
            }
        }
        pending.new_replicas = Some(new_replicas);
        pending.first_touch = Some(first_touch);
        // Several arbiters may ship data (readers of an ownerless object);
        // keep the max-by-DataTs copy.
        keep_newest(&mut pending.data, data);
        pending.acks.insert(acker);

        let complete = arbiters
            .iter()
            .all(|a| !self.live.contains(a) || pending.acks.contains(a));
        pending.arbiters = Some(arbiters);
        if complete {
            self.complete_request(req_id, host, out);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_resp(
        &mut self,
        req_id: RequestId,
        object: ObjectId,
        o_ts: OwnershipTs,
        epoch: Epoch,
        data: Option<(DataTs, Bytes)>,
        new_replicas: ReplicaSet,
        first_touch: bool,
        host: &impl OwnershipHost,
        out: &mut impl OwnershipSink,
    ) {
        if epoch != self.epoch {
            return;
        }
        let Some(pending) = self.pending.get_mut(&req_id) else {
            return;
        };
        debug_assert_eq!(pending.object, object);
        pending.o_ts = Some(o_ts);
        pending.new_replicas = Some(new_replicas);
        // Keep the max-by-DataTs copy: a RESP may race ACKs that already
        // shipped a newer value.
        keep_newest(&mut pending.data, data);
        pending.first_touch = Some(first_touch);
        if pending.arbiters.is_none() {
            let mut arbiters = self.directory.clone();
            arbiters.retain(|n| self.live.contains(n));
            pending.arbiters = Some(arbiters);
        }
        self.complete_request(req_id, host, out);
    }

    /// Applies a decided request at the requester and validates arbiters.
    ///
    /// The outcome handed to the host is [`OwnershipAction::Completed`] —
    /// or, when the arbitration decided without any surviving data-bearing
    /// arbiter shipping the value for an object whose placement proves it
    /// is *not* a genuine first touch, [`OwnershipAction::Failed`] with
    /// [`NackReason::DataLoss`]: installing would fabricate an empty
    /// version-0 object next to a committed history (fail-instead-of-
    /// fabricate). The decided placement metadata is applied and the
    /// arbiters validated either way — the arbitration *is* decided; only
    /// the data install and the host-visible outcome differ. The surviving
    /// readers named in the placement re-seed the value on the
    /// transaction's retry.
    fn complete_request(
        &mut self,
        req_id: RequestId,
        host: &impl OwnershipHost,
        out: &mut impl OwnershipSink,
    ) {
        let Some(pending) = self.take_pending(req_id) else {
            return;
        };
        let object = pending.object;
        self.mark_decided(req_id, object);
        let o_ts = pending.o_ts.expect("completed request has o_ts");
        let mut new_replicas = pending
            .new_replicas
            .expect("completed request has replica set");
        // Re-sample the local store *now* rather than trusting the
        // `has_replica` declared at request time: a replica-change applied
        // while the acquisition was in flight can have removed the local
        // copy (so shipping was skipped on a promise the store no longer
        // keeps), and completing without data would fabricate version 0.
        let mut data_loss = pending.kind.requester_needs_data()
            && pending.data.is_none()
            && host.object_value(object).is_none()
            && pending.first_touch == Some(false);
        // Reset-to-first-touch for provably-empty objects: an acquisition
        // against a placement whose only replica is a data-less owner (an
        // earlier DataLoss abort, or a sole owner wiped by crash+restart
        // while the directory kept the placement) would otherwise wedge the
        // object forever — every later acquisition sees a non-empty
        // placement, receives no data, and aborts. The shape is provable at
        // the requester: promoting it over an owner-only (or sole-reader
        // ownerless) placement decides a set with exactly one other member,
        // and that member — as old owner or sole surviving reader — is an
        // arbiter that ships its value whenever it has one. If it ACKed
        // this very arbitration without data, no copy of the object
        // survives anywhere (dead replicas wipe before re-admission), so
        // completing as a fresh first touch restores liveness without
        // fabricating next to a surviving copy. Placements with more
        // members stay conservative: a reader shadowed by a live owner
        // ACKs without shipping even when it holds data, so its silence
        // proves nothing. Only the ACK path qualifies (a decided-duplicate
        // RESP proves nothing), and only full ownership acquisitions reset
        // — handing a reader an empty value under a data-less owner would
        // not unwedge anything.
        if data_loss && matches!(pending.kind, OwnershipRequestKind::AcquireOwner) {
            let mut others = new_replicas.replicas().filter(|n| *n != self.local);
            if let (Some(holder), None) = (others.next(), others.next()) {
                if pending.acks.contains(holder) {
                    data_loss = false;
                    self.stats.empty_placement_resets += 1;
                }
            }
        }
        new_replicas.retain_live(self.live.as_slice());

        // The requester applies the request before any arbiter (§4.1): it
        // now stores authoritative ownership metadata if it became the owner
        // or is a directory replica.
        self.settle(object, o_ts, &new_replicas);
        self.inflight.remove(&object);

        if data_loss {
            self.stats.data_loss_aborts += 1;
            self.fail(req_id, object, NackReason::DataLoss, out);
        } else {
            self.stats.requests_completed += 1;
            out.emit(OwnershipAction::Completed {
                req_id,
                object,
                kind: pending.kind,
                o_ts,
                new_replicas,
                data: pending.data,
            });
        }
        let arbiters = pending.arbiters.unwrap_or_default();
        self.validate(&arbiters, req_id, object, o_ts, out);
    }

    /// Sends the VAL of a decided arbitration to its other live arbiters.
    fn validate(
        &self,
        arbiters: &NodeSet,
        req_id: RequestId,
        object: ObjectId,
        o_ts: OwnershipTs,
        out: &mut impl OwnershipSink,
    ) {
        for to in arbiters.iter() {
            if to != self.local && self.live.contains(to) {
                out.emit(OwnershipAction::Send {
                    to,
                    msg: OwnershipMsg::Val {
                        req_id,
                        object,
                        o_ts,
                        epoch: self.epoch,
                    },
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Recovery (arb-replay) driver side
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn on_recovery_ack(
        &mut self,
        req_id: RequestId,
        object: ObjectId,
        o_ts: OwnershipTs,
        data: Option<(DataTs, Bytes)>,
        acker: NodeId,
        host: &impl OwnershipHost,
        out: &mut impl OwnershipSink,
    ) {
        let Some(inf) = self.inflight.get_mut(&object) else {
            return;
        };
        if !inf.collecting_acks || inf.req_id != req_id || inf.o_ts != o_ts {
            return;
        }
        keep_newest(&mut inf.data, data);
        inf.acks.insert(acker);
        inf.stale_rounds = 0;
        let done = inf
            .arbiters
            .iter()
            .all(|a| !self.live.contains(a) || inf.acks.contains(a));
        if done {
            self.finish_recovery_drive(object, host, out);
        }
    }

    /// Completes an arb-replay: hand the result to the requester if it is
    /// alive, otherwise apply and validate among the surviving arbiters.
    fn finish_recovery_drive(
        &mut self,
        object: ObjectId,
        host: &impl OwnershipHost,
        out: &mut impl OwnershipSink,
    ) {
        let Some(mut inf) = self.inflight.remove(&object) else {
            return;
        };
        if self.live.contains(inf.requester) && inf.requester != self.local {
            // Hand the decided arbitration to the surviving requester. The
            // requester may have already completed the request before the
            // view change (its VALs were dropped as stale), in which case it
            // ignores this RESP — so the driver must NOT rely on the
            // requester to validate: it applies and validates below either
            // way. Both paths are idempotent at every receiver.
            let data = match (inf.data.take(), host.object_value(object)) {
                (Some(a), Some(b)) => Some(if a.0 >= b.0 { a } else { b }),
                (a, b) => a.or(b),
            };
            out.emit(OwnershipAction::Send {
                to: inf.requester,
                msg: OwnershipMsg::Resp {
                    req_id: inf.req_id,
                    object,
                    o_ts: inf.o_ts,
                    epoch: self.epoch,
                    data,
                    new_replicas: inf.new_replicas.clone(),
                    // Only an arbitration that created the object out of an
                    // empty placement may legitimately complete without
                    // data; the requester aborts with DataLoss otherwise.
                    first_touch: inf.old_replicas.is_empty(),
                },
            });
        }
        // The replay showed every live arbiter holds the winning timestamp:
        // the arbitration is decided. Apply locally and unblock the other
        // live arbiters directly so no stuck `o_state` survives recovery.
        self.validate(&inf.arbiters, inf.req_id, object, inf.o_ts, out);
        self.apply_decided(inf, object, out);
    }

    // ------------------------------------------------------------------
    // Shared helpers
    // ------------------------------------------------------------------

    /// Applies the in-flight arbitration of `object` to the local metadata
    /// and tells the host to adjust access levels.
    fn apply_arbitration(&mut self, object: ObjectId, out: &mut impl OwnershipSink) {
        if let Some(inf) = self.inflight.remove(&object) {
            self.apply_decided(inf, object, out);
        }
    }

    /// [`OwnershipEngine::apply_arbitration`] of an arbitration already
    /// taken out of the in-flight table.
    fn apply_decided(&mut self, inf: InflightArb, object: ObjectId, out: &mut impl OwnershipSink) {
        self.mark_decided(inf.req_id, object);
        let mut new_replicas = inf.new_replicas;
        new_replicas.retain_live(self.live.as_slice());
        self.settle(object, inf.o_ts, &new_replicas);
        out.emit(OwnershipAction::ApplyReplicaChange {
            object,
            o_ts: inf.o_ts,
            new_replicas,
        });
    }

    /// Records the decided placement of `object` if this node arbitrates it
    /// from here on (directory replica or new owner), forgets it otherwise.
    fn settle(&mut self, object: ObjectId, o_ts: OwnershipTs, replicas: &ReplicaSet) {
        if self.is_directory_node() || replicas.owner == Some(self.local) {
            self.meta
                .insert(object, MetaEntry::valid(o_ts, replicas.clone()));
            self.mark_dirty(object);
        } else {
            self.meta.remove(&object);
        }
    }

    /// The arbiter set of a request: the directory replicas plus the current
    /// owner (§4.1). When the object is *ownerless* (its owner failed and
    /// nobody re-acquired it yet) — or the requester is itself the placement
    /// owner (re-acquiring after losing its copy) — the surviving readers
    /// arbitrate instead: they hold the only copies of the data and ship it
    /// to the requester in their ACKs. Without them such an acquisition
    /// would install an empty version-0 object next to live replicas
    /// holding the real history. A driver keeps the live ones.
    fn arbiters_of(directory: &NodeSet, replicas: &ReplicaSet, requester: NodeId) -> NodeSet {
        let mut set = directory.clone();
        match replicas.owner {
            Some(owner) if owner != requester => {
                set.insert(owner);
            }
            _ => set.extend(&replicas.readers),
        }
        set
    }

    /// The replica set after applying a request of the given kind.
    fn apply_kind(old: &ReplicaSet, kind: OwnershipRequestKind, requester: NodeId) -> ReplicaSet {
        let mut new = old.clone();
        match kind {
            OwnershipRequestKind::AcquireOwner => new.promote_owner(requester),
            OwnershipRequestKind::AcquireReader => {
                if new.owner != Some(requester) {
                    new.readers.insert(requester);
                }
            }
            OwnershipRequestKind::RemoveReader { reader } => new.remove_reader(reader),
        }
        new
    }

    /// Data to ship in an ACK: the current owner ships it — or, when the
    /// object is ownerless or the requester is itself the placement owner,
    /// any surviving reader (the requester keeps the highest-version copy
    /// it receives). Shipping is driven by the requester's *declared* lack
    /// of a copy, not by the placement: a placement owner/reader without
    /// data (wiped on re-admission, or an acquisition decided after the
    /// requester gave up) must be re-seeded or it would resurrect the
    /// object empty at version 0.
    fn data_for_requester(
        &self,
        object: ObjectId,
        kind: OwnershipRequestKind,
        requester: NodeId,
        requester_has_replica: bool,
        old_replicas: &ReplicaSet,
        host: &impl OwnershipHost,
    ) -> Option<(DataTs, Bytes)> {
        if !kind.requester_needs_data() || requester_has_replica {
            return None;
        }
        let ships = match old_replicas.owner {
            Some(owner) if owner == self.local => true,
            Some(owner) if owner == requester => old_replicas.readers.contains(self.local),
            None => old_replicas.readers.contains(self.local),
            _ => false,
        };
        if !ships {
            return None;
        }
        host.object_value(object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet, VecDeque};

    /// Test host backed by a simple map.
    #[derive(Default)]
    struct MapHost {
        values: HashMap<ObjectId, (DataTs, Bytes)>,
        pending: HashSet<ObjectId>,
    }

    impl OwnershipHost for MapHost {
        fn object_value(&self, object: ObjectId) -> Option<(DataTs, Bytes)> {
            self.values.get(&object).cloned()
        }
        fn has_pending_commits(&self, object: ObjectId) -> bool {
            self.pending.contains(&object)
        }
    }

    struct Cluster {
        engines: Vec<OwnershipEngine>,
        hosts: Vec<MapHost>,
        /// (to, from, msg)
        network: VecDeque<(NodeId, NodeId, OwnershipMsg)>,
        /// Non-send actions collected per node.
        events: Vec<Vec<OwnershipAction>>,
        /// Messages currently "lost" because a node is crashed.
        crashed: HashSet<NodeId>,
    }

    impl Cluster {
        fn new(n: usize, dir: usize) -> Self {
            let directory: Vec<NodeId> = (0..dir as u16).map(NodeId).collect();
            Cluster {
                engines: (0..n as u16)
                    .map(|i| OwnershipEngine::new(NodeId(i), directory.clone(), n))
                    .collect(),
                hosts: (0..n).map(|_| MapHost::default()).collect(),
                network: VecDeque::new(),
                events: vec![Vec::new(); n],
                crashed: HashSet::new(),
            }
        }

        fn register(&mut self, object: ObjectId, replicas: ReplicaSet, value: &[u8]) {
            for (i, engine) in self.engines.iter_mut().enumerate() {
                engine.register_object(object, replicas.clone());
                if replicas.contains(NodeId(i as u16)) {
                    self.hosts[i]
                        .values
                        .insert(object, (DataTs::ZERO, Bytes::copy_from_slice(value)));
                }
            }
        }

        fn apply(&mut self, node: NodeId, actions: Vec<OwnershipAction>) {
            for action in actions {
                match action {
                    OwnershipAction::Send { to, msg } => {
                        self.network.push_back((to, node, msg));
                    }
                    other => self.events[node.index()].push(other),
                }
            }
        }

        fn request(
            &mut self,
            node: NodeId,
            object: ObjectId,
            kind: OwnershipRequestKind,
        ) -> RequestId {
            let host = &self.hosts[node.index()];
            let (req_id, actions) = self.engines[node.index()].request_access(object, kind, host);
            self.apply(node, actions);
            req_id
        }

        /// Delivers all queued messages until quiescence.
        fn run(&mut self) {
            let mut steps = 0;
            while let Some((to, from, msg)) = self.network.pop_front() {
                steps += 1;
                assert!(steps < 100_000, "protocol did not quiesce");
                if self.crashed.contains(&to) || self.crashed.contains(&from) {
                    continue;
                }
                let host = &self.hosts[to.index()];
                let actions = self.engines[to.index()].handle_message(from, msg, host);
                self.apply(to, actions);
            }
        }

        fn completed(&self, node: NodeId) -> Vec<&OwnershipAction> {
            self.events[node.index()]
                .iter()
                .filter(|a| matches!(a, OwnershipAction::Completed { .. }))
                .collect()
        }

        fn crash(&mut self, node: NodeId) {
            self.crashed.insert(node);
        }

        fn view_change(&mut self) {
            let live: Vec<NodeId> = (0..self.engines.len() as u16)
                .map(NodeId)
                .filter(|n| !self.crashed.contains(n))
                .collect();
            let epoch = self.engines[live[0].index()].epoch().next();
            for node in live.clone() {
                let host = &self.hosts[node.index()];
                let mut actions = Vec::new();
                self.engines[node.index()].on_view_change_into(
                    epoch,
                    &live,
                    &[],
                    host,
                    &mut actions,
                );
                self.apply(node, actions);
                self.engines[node.index()].set_enabled(true);
            }
        }
    }

    fn obj() -> ObjectId {
        ObjectId(100)
    }

    fn initial_replicas() -> ReplicaSet {
        // Owner node 0, reader node 1 (3-node cluster, directory = 0,1,2).
        ReplicaSet::new(NodeId(0), [NodeId(1)])
    }

    #[test]
    fn reader_acquires_ownership_without_data_transfer() {
        let mut c = Cluster::new(3, 3);
        c.register(obj(), initial_replicas(), b"value");
        let req = c.request(NodeId(1), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        let done = c.completed(NodeId(1));
        assert_eq!(done.len(), 1);
        match done[0] {
            OwnershipAction::Completed {
                req_id,
                new_replicas,
                data,
                ..
            } => {
                assert_eq!(*req_id, req);
                assert_eq!(new_replicas.owner, Some(NodeId(1)));
                assert!(new_replicas.readers.contains(NodeId(0)));
                assert!(data.is_none(), "reader already has the data");
            }
            _ => unreachable!(),
        }
        // Directory agrees on the new owner.
        for d in 0..3u16 {
            assert_eq!(
                c.engines[d as usize].replicas_of(obj()).unwrap().owner,
                Some(NodeId(1)),
                "directory node {d} must agree"
            );
        }
    }

    #[test]
    fn zombie_copy_outside_the_placement_does_not_suppress_the_data_ship() {
        // Node 2 is a directory replica but NOT in the object's placement —
        // yet it holds a stale local copy (a re-admitted node whose wiped
        // store entry was re-created by a delayed follower update from
        // before its expulsion). Its acquisition reports has_replica=true,
        // but the driver must not trust that: the committed placement does
        // not list node 2, so the owner's fresh value must still ship and
        // win the ts-compare at install time.
        let mut c = Cluster::new(3, 3);
        c.register(obj(), ReplicaSet::new(NodeId(0), []), b"fresh");
        let fresh_ts = DataTs::new(14, OwnershipTs::new(12, NodeId(0)));
        c.hosts[0]
            .values
            .insert(obj(), (fresh_ts, Bytes::from_static(b"fresh")));
        let stale_ts = DataTs::new(6, OwnershipTs::new(5, NodeId(0)));
        c.hosts[2]
            .values
            .insert(obj(), (stale_ts, Bytes::from_static(b"stale")));

        c.request(NodeId(2), obj(), OwnershipRequestKind::AcquireOwner);
        // Node 2 is itself a directory replica: its request self-routes.
        let (to, from, msg) = c.network.pop_front().expect("self-routed REQ");
        assert_eq!(to, NodeId(2));
        let actions = c.engines[2].handle_message(from, msg, &c.hosts[2]);
        c.apply(NodeId(2), actions);
        c.run();

        let done = c.completed(NodeId(2));
        assert_eq!(done.len(), 1);
        match done[0] {
            OwnershipAction::Completed {
                data, new_replicas, ..
            } => {
                let (ts, bytes) = data.as_ref().expect("fresh value must ship");
                assert_eq!(*ts, fresh_ts, "shipped copy is the owner's, not the zombie");
                assert_eq!(bytes.as_ref(), b"fresh");
                assert_eq!(new_replicas.owner, Some(NodeId(2)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn non_replica_acquisition_ships_data() {
        let mut c = Cluster::new(4, 3);
        c.register(obj(), initial_replicas(), b"payload");
        c.request(NodeId(3), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        let done = c.completed(NodeId(3));
        assert_eq!(done.len(), 1);
        match done[0] {
            OwnershipAction::Completed {
                data, new_replicas, ..
            } => {
                let (ts, bytes) = data.as_ref().expect("owner must ship the value");
                assert_eq!(*ts, DataTs::ZERO);
                assert_eq!(bytes.as_ref(), b"payload");
                assert_eq!(new_replicas.owner, Some(NodeId(3)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn rejoin_reset_fails_pending_and_wipes_meta() {
        let mut c = Cluster::new(3, 3);
        c.register(obj(), initial_replicas(), b"v");
        // A request is pending (never delivered) when the node resets.
        let req = {
            let host = &c.hosts[2];
            let (req, _actions) =
                c.engines[2].request_access(obj(), OwnershipRequestKind::AcquireOwner, host);
            req
        };
        assert_eq!(c.engines[2].pending_requests(), 1);
        let mut actions = Vec::new();
        c.engines[2].reset_for_rejoin_into(&mut actions);
        assert_eq!(c.engines[2].pending_requests(), 0);
        assert!(c.engines[2].replicas_of(obj()).is_none(), "meta wiped");
        assert!(matches!(
            actions.as_slice(),
            [OwnershipAction::Failed {
                req_id,
                reason: NackReason::Recovering,
                ..
            }] if *req_id == req
        ));
        assert_eq!(c.engines[2].stats().rejoin_resets, 1);
    }

    /// Expels directory node 2 and re-admits it wiped, as the membership
    /// layer does: the node resets, every node installs the view that names
    /// it rejoined, and recovery completes.
    fn expel_and_readmit_node_2(c: &mut Cluster) {
        c.engines[2].reset_for_rejoin_into(&mut Vec::new());
        let live: Vec<NodeId> = (0..c.engines.len() as u16).map(NodeId).collect();
        let epoch = c.engines[0].epoch().next();
        for node in live.clone() {
            let mut actions = Vec::new();
            c.engines[node.index()].on_view_change_into(
                epoch,
                &live,
                &[NodeId(2)],
                &c.hosts[node.index()],
                &mut actions,
            );
            c.apply(node, actions);
            c.engines[node.index()].set_enabled(true);
        }
        c.run();
    }

    #[test]
    fn a_request_decided_before_a_rejoin_is_not_re_driven_after_it() {
        // `completed_seqs` deliberately survives `reset_for_rejoin`: without
        // it the wiped node would first-touch the object on a late duplicate
        // of a REQ it already saw decided, and drive a ghost arbitration.
        let mut c = Cluster::new(4, 3);
        c.register(
            obj(),
            ReplicaSet::new(NodeId(0), [NodeId(1), NodeId(2)]),
            b"v",
        );
        let decided = c.request(NodeId(3), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        assert_eq!(c.completed(NodeId(3)).len(), 1);
        c.hosts[3]
            .values
            .insert(obj(), (DataTs::ZERO, Bytes::from_static(b"v")));

        expel_and_readmit_node_2(&mut c);
        assert!(c.engines[2].replicas_of(obj()).is_none(), "wiped");

        let duplicate = OwnershipMsg::Req {
            req_id: decided,
            object: obj(),
            kind: OwnershipRequestKind::AcquireOwner,
            epoch: c.engines[2].epoch(),
            has_replica: false,
        };
        let actions = c.engines[2].handle_message(NodeId(3), duplicate, &c.hosts[2]);
        assert!(actions.is_empty(), "no INV, no answer: {actions:?}");
        assert_eq!(c.engines[2].inflight_arbitrations(), 0);

        // A later request of the same requester is not mistaken for it: the
        // wiped node drives it like any other (from empty metadata, which
        // makes it a first touch here; its peers refute that downstream).
        let fresh = RequestId::new(NodeId(3), decided.seq + 1);
        let request = OwnershipMsg::Req {
            req_id: fresh,
            object: obj(),
            kind: OwnershipRequestKind::AcquireOwner,
            epoch: c.engines[2].epoch(),
            has_replica: true,
        };
        let actions = c.engines[2].handle_message(NodeId(3), request, &c.hosts[2]);
        assert_eq!(c.engines[2].inflight_arbitrations(), 1);
        let invs = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    OwnershipAction::Send {
                        msg: OwnershipMsg::Inv { req_id, .. },
                        ..
                    } if *req_id == fresh
                )
            })
            .count();
        assert_eq!(invs, 2, "one INV per other directory replica");
    }

    #[test]
    fn a_new_request_after_a_rejoin_completes_once_the_directory_is_relearnt() {
        let mut c = Cluster::new(4, 3);
        c.register(
            obj(),
            ReplicaSet::new(NodeId(0), [NodeId(1), NodeId(2)]),
            b"v",
        );
        c.request(NodeId(3), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        c.hosts[3]
            .values
            .insert(obj(), (DataTs::ZERO, Bytes::from_static(b"v")));
        expel_and_readmit_node_2(&mut c);
        // What the DirPull / DirPush exchange of the node layer does.
        let digest = c.engines[0].directory_digest();
        c.engines[2].adopt_directory_into(&digest, &mut Vec::new());

        // Node 0 takes the object back, with the re-admitted node driving.
        let (request, actions) =
            c.engines[0].request_access(obj(), OwnershipRequestKind::AcquireOwner, &c.hosts[0]);
        for action in actions {
            let OwnershipAction::Send { msg, .. } = action else {
                panic!("a REQ, found {action:?}");
            };
            let driven = c.engines[2].handle_message(NodeId(0), msg, &c.hosts[2]);
            c.apply(NodeId(2), driven);
        }
        c.run();
        assert_eq!(c.engines[2].stats().requests_driven, 1);
        assert!(c
            .completed(NodeId(0))
            .iter()
            .any(|a| matches!(a, OwnershipAction::Completed { req_id, .. } if *req_id == request)));
        for d in 0..3usize {
            assert_eq!(c.engines[d].inflight_arbitrations(), 0);
            assert_eq!(
                c.engines[d].replicas_of(obj()).unwrap().owner,
                Some(NodeId(0))
            );
        }
    }

    #[test]
    fn oldest_unanswered_send_is_the_minimum_over_the_pending_requests() {
        fn check(c: &Cluster, what: &str) -> Option<u64> {
            let engine = &c.engines[3];
            let brute_force = engine.pending.values().map(|p| p.last_sent).min();
            assert_eq!(engine.oldest_unanswered_send(), brute_force, "after {what}");
            brute_force
        }
        let mut c = Cluster::new(4, 3);
        for object in 1..=4u64 {
            c.register(ObjectId(object), initial_replicas(), b"v");
        }
        let issue = |c: &mut Cluster, now: u64, object: u64| {
            c.engines[3].advance_clock(now);
            c.request(
                NodeId(3),
                ObjectId(object),
                OwnershipRequestKind::AcquireOwner,
            )
        };
        assert_eq!(check(&c, "nothing"), None);
        let first = issue(&mut c, 10, 1);
        let second = issue(&mut c, 20, 2);
        issue(&mut c, 30, 3);
        assert_eq!(check(&c, "three issues"), Some(10));

        // Re-send: only the first is 15 ticks old, and moves to the back.
        let mut actions = Vec::new();
        c.engines[3].retransmit_into(15, &mut actions);
        assert_eq!(actions.len(), 1);
        assert_eq!(check(&c, "a re-send of the oldest"), Some(20));
        // Nothing is due: the scan is skipped and nothing changes.
        c.engines[3].retransmit_into(15, &mut actions);
        assert_eq!(actions.len(), 1);

        // Retry: the second is stamped afresh; the third is now the oldest,
        // tied with the re-sent first.
        c.engines[3].advance_clock(40);
        c.engines[3].retry_request_into(second, &mut actions);
        assert_eq!(check(&c, "a retry"), Some(30));
        c.engines[3].abandon_request(first);
        assert_eq!(check(&c, "abandoning one of two tied"), Some(30));
        issue(&mut c, 50, 4);
        assert_eq!(check(&c, "an issue behind older ones"), Some(30));

        // Completion: the requests go through one at a time.
        while let Some((to, from, msg)) = c.network.pop_front() {
            let actions = c.engines[to.index()].handle_message(from, msg, &c.hosts[to.index()]);
            c.apply(to, actions);
            check(&c, "a delivery");
        }
        assert_eq!(c.completed(NodeId(3)).len(), 3);
        assert_eq!(check(&c, "every completion"), None);

        // A rejoin fails whatever is pending and forgets its stamp.
        issue(&mut c, 60, 1);
        c.engines[3].reset_for_rejoin_into(&mut Vec::new());
        assert_eq!(check(&c, "a rejoin reset"), None);
    }

    #[test]
    fn ghost_arbitration_from_wiped_directory_is_aborted() {
        let mut c = Cluster::new(4, 3);
        c.register(obj(), initial_replicas(), b"v");
        // Establish a non-trivial ownership timestamp everywhere.
        c.request(NodeId(1), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        // Directory node 2 is expelled and re-admitted: its metadata is
        // wiped. A REQ from a non-directory requester that happens to pick
        // node 2 as its driver triggers a first-touch ghost drive whose
        // timestamp could even *win* the o_ts comparison — the arbiters'
        // placement check must reject it and tell the driver to abort.
        c.engines[2].reset_for_rejoin_into(&mut Vec::new());
        let ghost_req = RequestId::new(NodeId(3), 77);
        let actions = {
            let host = &c.hosts[2];
            c.engines[2].handle_message(
                NodeId(3),
                OwnershipMsg::Req {
                    req_id: ghost_req,
                    object: obj(),
                    kind: OwnershipRequestKind::AcquireOwner,
                    epoch: Epoch::ZERO,
                    has_replica: false,
                },
                host,
            )
        };
        c.apply(NodeId(2), actions);
        assert_eq!(c.engines[2].inflight_arbitrations(), 1, "ghost drive");
        c.run();
        // The ghost does not survive at the stale driver: no in-flight entry
        // keeps being replayed, and the bogus first-touch metadata entry is
        // dropped so the next INV/VAL rebuilds it from real arbitrations.
        assert_eq!(c.engines[2].inflight_arbitrations(), 0);
        assert!(
            c.engines[2].replicas_of(obj()).is_none(),
            "bogus first-touch metadata must be dropped"
        );
        assert!(c.engines[2].stats().ghost_arbitrations_aborted >= 1);
        // The established placement is untouched at the informed arbiters.
        for d in [0usize, 1] {
            assert_eq!(
                c.engines[d].replicas_of(obj()).unwrap().owner,
                Some(NodeId(1)),
                "informed directory node {d} keeps the real owner"
            );
        }
    }

    #[test]
    fn wiped_directory_requester_routes_to_an_informed_driver() {
        let mut c = Cluster::new(3, 3);
        c.register(obj(), initial_replicas(), b"v");
        c.request(NodeId(1), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        // Node 2 rejoins with wiped metadata, then wants the object. It must
        // not self-drive from vacant metadata; routing to an informed peer
        // completes the acquisition normally.
        c.engines[2].reset_for_rejoin_into(&mut Vec::new());
        let req = c.request(NodeId(2), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        let done = c
            .completed(NodeId(2))
            .iter()
            .any(|a| matches!(a, OwnershipAction::Completed { req_id, .. } if *req_id == req));
        assert!(done, "acquisition via informed peer driver must succeed");
        assert_eq!(
            c.engines[2].replicas_of(obj()).unwrap().owner,
            Some(NodeId(2)),
            "metadata heals as part of completing the request"
        );
    }

    #[test]
    fn old_owner_learns_demotion_via_val() {
        let mut c = Cluster::new(3, 3);
        c.register(obj(), initial_replicas(), b"v");
        c.request(NodeId(1), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        // Node 0 (old owner) must have applied a replica change demoting it.
        let change = c.events[0]
            .iter()
            .find_map(|a| match a {
                OwnershipAction::ApplyReplicaChange { new_replicas, .. } => Some(new_replicas),
                _ => None,
            })
            .expect("old owner applies the change");
        assert_eq!(change.owner, Some(NodeId(1)));
        assert!(change.readers.contains(NodeId(0)));
    }

    #[test]
    fn acquire_reader_adds_replica() {
        let mut c = Cluster::new(4, 3);
        c.register(obj(), initial_replicas(), b"v");
        c.request(NodeId(3), obj(), OwnershipRequestKind::AcquireReader);
        c.run();
        let done = c.completed(NodeId(3));
        assert_eq!(done.len(), 1);
        match done[0] {
            OwnershipAction::Completed {
                new_replicas, data, ..
            } => {
                assert_eq!(new_replicas.owner, Some(NodeId(0)));
                assert!(new_replicas.readers.contains(NodeId(3)));
                assert!(data.is_some(), "new reader needs the value");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn remove_reader_shrinks_replica_set() {
        let mut c = Cluster::new(3, 3);
        c.register(obj(), initial_replicas(), b"v");
        c.request(
            NodeId(0),
            obj(),
            OwnershipRequestKind::RemoveReader { reader: NodeId(1) },
        );
        c.run();
        assert_eq!(c.completed(NodeId(0)).len(), 1);
        let rs = c.engines[2].replicas_of(obj()).unwrap();
        assert_eq!(rs.owner, Some(NodeId(0)));
        assert!(!rs.readers.contains(NodeId(1)));
    }

    #[test]
    fn contending_requests_have_exactly_one_winner() {
        let mut c = Cluster::new(4, 3);
        c.register(obj(), initial_replicas(), b"v");
        // Nodes 2 and 3 race for ownership through different drivers.
        c.request(NodeId(2), obj(), OwnershipRequestKind::AcquireOwner);
        c.request(NodeId(3), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        let winners: usize = [NodeId(2), NodeId(3)]
            .iter()
            .map(|n| c.completed(*n).len())
            .sum();
        let failures: usize = (0..4)
            .map(|n| {
                c.events[n]
                    .iter()
                    .filter(|a| matches!(a, OwnershipAction::Failed { .. }))
                    .count()
            })
            .sum();
        assert_eq!(winners, 1, "exactly one contender may win");
        assert!(failures >= 1, "the loser must be notified");
        // All directory nodes agree on a single owner.
        let owner = c.engines[0].replicas_of(obj()).unwrap().owner;
        assert!(owner == Some(NodeId(2)) || owner == Some(NodeId(3)));
        for d in 1..3usize {
            assert_eq!(c.engines[d].replicas_of(obj()).unwrap().owner, owner);
        }
    }

    #[test]
    fn pending_commits_cause_retryable_nack() {
        let mut c = Cluster::new(3, 3);
        c.register(obj(), initial_replicas(), b"v");
        // Owner (node 0) has a reliable commit in flight on the object.
        c.hosts[0].pending.insert(obj());
        let req = c.request(NodeId(1), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        let retry = c.events[1]
            .iter()
            .find(|a| matches!(a, OwnershipAction::RetryLater { .. }));
        assert!(retry.is_some(), "requester must be told to retry");
        assert!(c.completed(NodeId(1)).is_empty());

        // Once the commit drains, the retry succeeds with the same req id.
        c.hosts[0].pending.clear();
        let mut actions = Vec::new();
        c.engines[1].retry_request_into(req, &mut actions);
        c.apply(NodeId(1), actions);
        c.run();
        assert_eq!(c.completed(NodeId(1)).len(), 1);
    }

    #[test]
    fn first_touch_acquire_creates_directory_entry() {
        let mut c = Cluster::new(3, 3);
        let fresh = ObjectId(777);
        c.request(NodeId(2), fresh, OwnershipRequestKind::AcquireOwner);
        c.run();
        assert_eq!(c.completed(NodeId(2)).len(), 1);
        assert_eq!(
            c.engines[0].replicas_of(fresh).unwrap().owner,
            Some(NodeId(2))
        );
    }

    #[test]
    fn stale_epoch_request_is_rejected_as_retryable() {
        let mut c = Cluster::new(3, 3);
        c.register(obj(), initial_replicas(), b"v");
        // Bump epochs everywhere except the requester's engine view of it.
        for i in 0..3 {
            let host = &c.hosts[i];
            let live: Vec<NodeId> = (0..3).map(NodeId).collect();
            let mut actions = Vec::new();
            c.engines[i].on_view_change_into(Epoch(1), &live, &[], host, &mut actions);
            c.apply(NodeId(i as u16), actions);
            c.engines[i].set_enabled(true);
        }
        c.network.clear();
        // Forge a request with the old epoch by temporarily rolling back.
        let msg = OwnershipMsg::Req {
            req_id: RequestId::new(NodeId(1), 99),
            object: obj(),
            kind: OwnershipRequestKind::AcquireOwner,
            epoch: Epoch::ZERO,
            has_replica: false,
        };
        let host = &c.hosts[0];
        let actions = c.engines[0].handle_message(NodeId(1), msg, host);
        assert!(actions.iter().any(|a| matches!(
            a,
            OwnershipAction::Send {
                msg: OwnershipMsg::Nack {
                    reason: NackReason::StaleEpoch,
                    ..
                },
                ..
            }
        )));
    }

    #[test]
    fn owner_failure_recovers_via_arb_replay() {
        let mut c = Cluster::new(4, 3);
        c.register(obj(), initial_replicas(), b"v");
        // Node 3 (non-replica) requests ownership; the current owner (node 0)
        // crashes before anything is delivered, so the arbitration hangs.
        c.request(NodeId(3), obj(), OwnershipRequestKind::AcquireOwner);
        // Deliver only the REQ (to driver) and the driver's INVs partially:
        // crash node 0 right away so its ACK never arrives.
        c.crash(NodeId(0));
        c.run();
        assert!(c.completed(NodeId(3)).is_empty(), "request is stuck");

        // Membership reconfigures; live arbiters replay the arbitration.
        c.view_change();
        c.run();
        let done = c.completed(NodeId(3));
        assert_eq!(done.len(), 1, "arb-replay must complete the request");
        match done[0] {
            OwnershipAction::Completed { new_replicas, .. } => {
                assert_eq!(new_replicas.owner, Some(NodeId(3)));
                assert!(
                    !new_replicas.readers.contains(NodeId(0)),
                    "dead node pruned from replicas"
                );
            }
            _ => unreachable!(),
        }
        // Surviving directory nodes agree.
        for d in 1..3usize {
            assert_eq!(
                c.engines[d].replicas_of(obj()).unwrap().owner,
                Some(NodeId(3))
            );
        }
    }

    #[test]
    fn requester_failure_still_unblocks_arbiters() {
        let mut c = Cluster::new(4, 3);
        c.register(obj(), initial_replicas(), b"v");
        c.request(NodeId(3), obj(), OwnershipRequestKind::AcquireOwner);
        // Let the driver invalidate the arbiters, then the requester dies.
        c.run();
        // The request completed (run drains everything), so instead simulate
        // the crash before the VALs are processed: re-issue a new request and
        // crash the requester before delivery.
        let _ = c.request(NodeId(3), obj(), OwnershipRequestKind::AcquireOwner);
        c.crash(NodeId(3));
        c.run();
        c.view_change();
        c.run();
        // All live arbiters must be back to a Valid state with no inflight
        // arbitration.
        for d in 0..3usize {
            assert_eq!(
                c.engines[d].inflight_arbitrations(),
                0,
                "node {d} must not be stuck"
            );
        }
    }

    #[test]
    fn stats_track_protocol_activity() {
        let mut c = Cluster::new(3, 3);
        c.register(obj(), initial_replicas(), b"v");
        c.request(NodeId(1), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        assert_eq!(c.engines[1].stats().requests_issued, 1);
        assert_eq!(c.engines[1].stats().requests_completed, 1);
        let driven: u64 = c.engines.iter().map(|e| e.stats().requests_driven).sum();
        assert_eq!(driven, 1);
    }

    #[test]
    fn abandon_request_clears_pending_state() {
        let mut c = Cluster::new(3, 3);
        c.register(obj(), initial_replicas(), b"v");
        let req = c.request(NodeId(1), obj(), OwnershipRequestKind::AcquireOwner);
        c.engines[1].abandon_request(req);
        assert_eq!(c.engines[1].pending_requests(), 0);
        c.run();
        assert!(c.completed(NodeId(1)).is_empty());
    }

    #[test]
    fn directory_digest_is_sorted_and_roundtrips_through_adoption() {
        let mut c = Cluster::new(3, 3);
        c.register(ObjectId(9), initial_replicas(), b"v9");
        c.register(ObjectId(1), initial_replicas(), b"v1");
        // Move object 1's ownership so its o_ts advances past the default.
        c.request(NodeId(1), ObjectId(1), OwnershipRequestKind::AcquireOwner);
        c.run();
        let digest = c.engines[0].directory_digest();
        assert_eq!(digest.len(), 2);
        assert!(digest[0].0 < digest[1].0, "sorted by object id");

        // A wiped directory replica adopts the full digest.
        let mut fresh = OwnershipEngine::new(NodeId(2), vec![NodeId(0), NodeId(1), NodeId(2)], 3);
        let mut actions = Vec::new();
        fresh.adopt_directory_into(&digest, &mut actions);
        assert_eq!(actions.len(), 2, "both placements adopted");
        assert_eq!(fresh.directory_digest(), digest);
        assert_eq!(fresh.stats().dir_entries_adopted, 2);
    }

    #[test]
    fn adoption_never_regresses_to_an_older_placement() {
        let mut c = Cluster::new(3, 3);
        c.register(obj(), initial_replicas(), b"v");
        let before = c.engines[0].directory_digest();
        // Ownership moves to node 1: node 0's table advances.
        c.request(NodeId(1), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        let after = c.engines[0].directory_digest();
        assert_ne!(before, after);
        // Pushing the stale snapshot back changes nothing.
        let mut actions = Vec::new();
        c.engines[0].adopt_directory_into(&before, &mut actions);
        assert!(actions.is_empty(), "older o_ts must not be adopted");
        assert_eq!(c.engines[0].directory_digest(), after);
        // Pushing the newer snapshot into a replica holding the stale one
        // reconciles it (newest o_ts wins) — the anti-entropy direction.
        let mut stale = OwnershipEngine::new(NodeId(2), vec![NodeId(0), NodeId(1), NodeId(2)], 3);
        stale.adopt_directory_into(&before, &mut actions);
        assert_eq!(
            actions.len(),
            1,
            "the fresh replica adopts the stale snapshot"
        );
        actions.clear();
        stale.adopt_directory_into(&after, &mut actions);
        assert_eq!(actions.len(), 1, "newer placement wins: {actions:?}");
        assert_eq!(stale.directory_digest(), after);
    }

    #[test]
    fn digests_exclude_mid_arbitration_placements() {
        let mut c = Cluster::new(3, 3);
        c.register(obj(), initial_replicas(), b"v");
        c.request(NodeId(1), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        // The settle marked the entry dirty on every directory replica.
        assert_eq!(c.engines[2].drain_dirty_digest().len(), 1);

        // Node 2 starts — and, being a directory replica with metadata,
        // itself drives — the next handover. Its meta now carries the
        // bumped timestamp with the OLD placement; leaking it would let a
        // peer adopt the old owner at the new timestamp and then reject
        // the settled outcome forever. Neither digest may include it, and
        // the dirty budget must survive the hold-back.
        c.request(NodeId(2), obj(), OwnershipRequestKind::AcquireOwner);
        let (to, from, msg) = c.network.pop_front().expect("self-routed REQ");
        assert_eq!(to, NodeId(2), "directory replica drives its own request");
        let actions = c.engines[2].handle_message(from, msg, &c.hosts[2]);
        c.apply(NodeId(2), actions);
        assert!(c.engines[2].directory_digest().is_empty());
        assert!(c.engines[2].drain_dirty_digest().is_empty());

        // Once settled, the entry is shareable again (and the settle
        // refreshed its dirty budget).
        c.run();
        let after = c.engines[2].directory_digest();
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].2.owner, Some(NodeId(2)));
        assert_eq!(c.engines[2].drain_dirty_digest(), after);
    }

    #[test]
    fn data_less_sole_owner_placement_resets_to_first_touch() {
        // The wedge: the directory still lists node 0 as the object's only
        // replica, but node 0's store was wiped (crash + restart while the
        // placement survived). Without the reset, every acquisition would
        // see a non-empty placement, receive no data, and abort with
        // DataLoss forever.
        let mut c = Cluster::new(3, 3);
        c.register(obj(), ReplicaSet::new(NodeId(0), []), b"v");
        c.hosts[0].values.remove(&obj());

        c.request(NodeId(1), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        let done = c.completed(NodeId(1));
        assert_eq!(done.len(), 1, "reset must complete, not abort");
        match done[0] {
            OwnershipAction::Completed {
                new_replicas, data, ..
            } => {
                assert_eq!(new_replicas.owner, Some(NodeId(1)));
                assert!(data.is_none(), "a reset ships nothing: fresh first touch");
            }
            _ => unreachable!(),
        }
        assert_eq!(c.engines[1].stats().empty_placement_resets, 1);
        assert_eq!(c.engines[1].stats().data_loss_aborts, 0);

        // Liveness is restored: the runtime installs the fresh (ts 0,
        // empty) entry on completion-without-data; mirror that here, then a
        // later acquisition from a third node proceeds normally.
        c.hosts[1]
            .values
            .insert(obj(), (DataTs::ZERO, Bytes::new()));
        c.request(NodeId(2), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        let done = c.completed(NodeId(2));
        assert_eq!(done.len(), 1, "object is unwedged after the reset");
        assert_eq!(c.engines[2].stats().empty_placement_resets, 0);
    }

    #[test]
    fn reader_shadowed_by_a_data_less_owner_keeps_the_conservative_abort() {
        // Placement {0 owner, 1 reader}; the owner's store was wiped but
        // the reader still holds the committed value. The reader ACKs
        // without shipping (a live owner is expected to ship), so its
        // silence proves nothing — the acquisition must keep the DataLoss
        // abort instead of fabricating version 0 next to a surviving copy.
        let mut c = Cluster::new(3, 3);
        c.register(obj(), initial_replicas(), b"v");
        c.hosts[0].values.remove(&obj());

        c.request(NodeId(2), obj(), OwnershipRequestKind::AcquireOwner);
        c.run();
        assert!(c.completed(NodeId(2)).is_empty());
        let failed = c.events[2].iter().any(|a| {
            matches!(
                a,
                OwnershipAction::Failed {
                    reason: NackReason::DataLoss,
                    ..
                }
            )
        });
        assert!(failed, "must abort with DataLoss");
        assert_eq!(c.engines[2].stats().data_loss_aborts, 1);
        assert_eq!(c.engines[2].stats().empty_placement_resets, 0);
        // The surviving copy is untouched.
        assert_eq!(c.hosts[1].values[&obj()].1.as_ref(), b"v");
    }

    #[test]
    fn placement_pruned_to_empty_fails_acquisitions_instead_of_first_touching() {
        // Sole owner node 0 dies; the view change prunes the placement to
        // empty. An empty placement must NOT read as a first touch — the
        // committed history died with node 0, and re-creating the object
        // as an empty version 0 would be silent data loss.
        let mut c = Cluster::new(3, 3);
        c.register(obj(), ReplicaSet::new(NodeId(0), []), b"v");
        c.crash(NodeId(0));
        c.view_change();

        for (node, kind) in [
            (NodeId(1), OwnershipRequestKind::AcquireOwner),
            (NodeId(2), OwnershipRequestKind::AcquireReader),
        ] {
            c.request(node, obj(), kind);
            c.run();
            assert!(
                c.completed(node).is_empty(),
                "{node:?} must not resurrect the lost object"
            );
            let failed = c.events[node.index()].iter().any(|a| {
                matches!(
                    a,
                    OwnershipAction::Failed {
                        reason: NackReason::DataLoss,
                        ..
                    }
                )
            });
            assert!(failed, "{node:?} must surface the loss as DataLoss");
        }
        // A genuinely new object still first-touch-creates normally.
        c.request(NodeId(1), ObjectId(777), OwnershipRequestKind::AcquireOwner);
        c.run();
        assert_eq!(c.completed(NodeId(1)).len(), 1);
    }

    #[test]
    fn last_replica_cannot_remove_itself() {
        // Ownerless placement with a single surviving reader (its owner
        // died earlier): a RemoveReader that would decide an empty
        // placement is refused — it would discard the only copy and leave
        // the object to be first-touched back empty.
        let mut c = Cluster::new(3, 3);
        let mut placement = ReplicaSet::new(NodeId(0), [NodeId(1)]);
        placement.remove_node(NodeId(0));
        c.register(obj(), placement, b"v");

        c.request(
            NodeId(1),
            obj(),
            OwnershipRequestKind::RemoveReader { reader: NodeId(1) },
        );
        c.run();
        assert!(c.completed(NodeId(1)).is_empty());
        let failed = c.events[1].iter().any(|a| {
            matches!(
                a,
                OwnershipAction::Failed {
                    reason: NackReason::DataLoss,
                    ..
                }
            )
        });
        assert!(failed, "the shrink must be refused with DataLoss");
        // The copy survives.
        assert_eq!(c.hosts[1].values[&obj()].1.as_ref(), b"v");
    }
}
