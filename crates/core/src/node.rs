//! A single Zeus server: store + protocols + transaction layer.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use bytes::Bytes;
use zeus_commit::{CommitEngine, CommitSink};
use zeus_locality::{AccessKind, LocalityEngine, PlacementAction};
use zeus_membership::{MembershipEngine, MembershipEvent};
use zeus_ownership::{OwnershipAction, OwnershipEngine, OwnershipHost, OwnershipSink};
use zeus_proto::messages::NackReason;
use zeus_proto::{
    AccessLevel, CommitMsg, DataTs, Epoch, IdHashMap, MembershipMsg, NodeId, ObjectId,
    ObjectUpdate, OwnershipMsg, OwnershipRequestKind, OwnershipTs, PolicyKind, PolicyStats,
    ReplicaSet, RequestId, TState, TxId, ViewMsg,
};
use zeus_store::{ObjectEntry, Store, TxWorkspace};
use zeus_view::{ViewEvent, ViewReplica};

use crate::config::ZeusConfig;
use crate::message::Message;
use crate::stats::{LatencyHistogram, NodeStats};
use crate::txn::{execute_read_only, ReadOutcome, TxCtx, TxError, WriteOutcome};

/// View of node-local state handed to the ownership engine.
struct HostView<'a> {
    store: &'a Store,
    commit: &'a CommitEngine,
}

impl OwnershipHost for HostView<'_> {
    fn object_value(&self, object: ObjectId) -> Option<(DataTs, Bytes)> {
        self.store.with(object, |e| (e.ts, e.data.clone()))
    }
    fn has_pending_commits(&self, object: ObjectId) -> bool {
        self.commit.object_has_pending_commit(object)
            || self
                .store
                .with(object, |e| e.has_pending_commits())
                .unwrap_or(false)
    }
}

/// The commit engine's output, applied as the engine produces it: messages
/// go straight into the node's outbox and store effects are made in place,
/// from the engine's own copy of the updates.
struct CommitOut<'a> {
    outbox: &'a mut Vec<(NodeId, Message)>,
    store: &'a Store,
    /// Length of the outbox when the engine reported that recovery finished.
    /// What that report sets off (membership traffic) needs the whole node,
    /// so the caller does it once the engine call returns — and splices the
    /// messages it produces in at this position, where they would have gone
    /// had they been sent on the spot.
    recovered_at: Option<usize>,
}

impl<'a> CommitOut<'a> {
    fn new(outbox: &'a mut Vec<(NodeId, Message)>, store: &'a Store) -> Self {
        CommitOut {
            outbox,
            store,
            recovered_at: None,
        }
    }
}

impl CommitSink for CommitOut<'_> {
    fn send(&mut self, to: NodeId, msg: CommitMsg) {
        self.outbox.push((to, Message::Commit(msg)));
    }

    fn reliably_committed(&mut self, _tx_id: TxId, updates: &[ObjectUpdate]) {
        for update in updates {
            self.store
                .with_mut(update.object, |e| e.validate_at(update.ts));
        }
    }

    fn apply_updates(&mut self, _tx_id: TxId, updates: &[ObjectUpdate]) {
        for update in updates {
            self.store.with_mut_or_insert(
                update.object,
                || ObjectEntry::new(Bytes::new(), AccessLevel::Reader, ReplicaSet::default()),
                |e| {
                    e.apply_follower_update(update.ts, update.data.clone());
                },
            );
        }
    }

    fn validate_updates(&mut self, _tx_id: TxId, updates: &[ObjectUpdate]) {
        for update in updates {
            self.store.with_mut(update.object, |e| {
                if e.ts == update.ts && e.t_state == TState::Invalid {
                    e.t_state = TState::Valid;
                }
            });
        }
    }

    fn recovery_finished(&mut self, _epoch: Epoch) {
        self.recovered_at = Some(self.outbox.len());
    }
}

/// One ownership request the transaction layer issued and still has a
/// waiter for.
#[derive(Debug)]
struct Request {
    /// What it asks for.
    object: ObjectId,
    kind: OwnershipRequestKind,
    /// The tick it was issued at.
    started_at: u64,
    /// How many waiters reference it. A request is only really abandoned,
    /// and its outcome only forgotten, when its last waiter is done with it
    /// — otherwise one parked transaction's back-off would cancel a request
    /// its batch peers still wait on.
    waiters: usize,
    state: RequestState,
}

/// What the transaction layer tracks about the ownership requests it issued:
/// one entry per request, from [`ZeusNode::acquire`] until its last waiter
/// [released](ZeusNode::release_request) it.
#[derive(Debug, Default)]
struct RequestTable {
    by_id: IdHashMap<RequestId, Request>,
    /// The pending ones keyed by what they ask for, so transactions needing
    /// the same object share one protocol request.
    inflight_acquires: IdHashMap<(ObjectId, OwnershipRequestKind), RequestId>,
    retry_queue: Vec<RequestId>,
    /// Latency of completed requests (ticks).
    latency: LatencyHistogram,
}

impl RequestTable {
    /// Records the terminal `state` of a request and stops sharing it.
    /// Returns the tick it was issued at.
    fn settle(&mut self, req_id: RequestId, state: RequestState) -> Option<u64> {
        let request = self.by_id.get_mut(&req_id)?;
        request.state = state;
        self.inflight_acquires
            .remove(&(request.object, request.kind));
        Some(request.started_at)
    }
}

/// The ownership engine's output, applied as the engine produces it (see
/// [`CommitOut`]).
struct OwnershipOut<'a> {
    id: NodeId,
    now: u64,
    outbox: &'a mut Vec<(NodeId, Message)>,
    /// Emptied boxes of handled ownership messages; a message sent goes out
    /// in one of them if there is one.
    #[allow(clippy::vec_box)]
    boxes: &'a mut Vec<Box<OwnershipMsg>>,
    store: &'a Store,
    stats: &'a mut NodeStats,
    requests: &'a mut RequestTable,
}

/// Borrows the fields of `$node` an [`OwnershipOut`] writes to, leaving the
/// engines free to be borrowed next to it.
macro_rules! ownership_out {
    ($node:ident) => {
        OwnershipOut {
            id: $node.id,
            now: $node.now,
            outbox: &mut $node.outbox,
            boxes: &mut $node.spare_boxes,
            store: &$node.store,
            stats: &mut $node.stats,
            requests: &mut $node.requests,
        }
    };
}

impl OwnershipSink for OwnershipOut<'_> {
    fn emit(&mut self, action: OwnershipAction) {
        match action {
            OwnershipAction::Send { to, msg } => {
                let boxed = match self.boxes.pop() {
                    Some(mut spare) => {
                        *spare = msg;
                        spare
                    }
                    None => {
                        self.stats.ownership_boxes_allocated += 1;
                        Box::new(msg)
                    }
                };
                self.outbox.push((to, Message::Ownership(boxed)));
            }
            OwnershipAction::Completed {
                req_id,
                object,
                o_ts,
                kind: _,
                new_replicas,
                data,
            } => {
                self.stats.ownership_completed += 1;
                if let Some(start) = self.requests.settle(req_id, RequestState::Completed) {
                    self.requests
                        .latency
                        .record(self.now.saturating_sub(start).max(1));
                }
                self.apply_acquisition(object, o_ts, new_replicas, data);
            }
            OwnershipAction::Failed { req_id, reason, .. } => {
                self.requests.settle(req_id, RequestState::Failed(reason));
            }
            OwnershipAction::RetryLater { req_id, .. } => {
                // Dedup: a request can be NACKed retryably several times
                // per interval (original send plus retransmissions), and
                // duplicate entries would multiply the retry traffic.
                if !self.requests.retry_queue.contains(&req_id) {
                    self.requests.retry_queue.push(req_id);
                }
            }
            OwnershipAction::DemoteSelf { object, level } => {
                // The ownership this node gives away must stop being
                // locally writable right now; the VAL installs the full
                // placement later.
                self.store.with_mut(object, |e| e.level = level);
            }
            OwnershipAction::ApplyReplicaChange {
                object,
                o_ts,
                new_replicas,
            } => self.apply_replica_change(object, o_ts, new_replicas),
        }
    }
}

impl OwnershipOut<'_> {
    /// Installs the outcome of a completed acquisition in the local store.
    ///
    /// Shipped data installs by ts-compare only (regression refusal): a copy
    /// that is not strictly newer than what this node already stores never
    /// overwrites it, so a stale arbiter's ship cannot roll the object back.
    /// The winning ownership timestamp is recorded as the owner's tenure —
    /// subsequent local writes stamp it into their [`DataTs`].
    fn apply_acquisition(
        &mut self,
        object: ObjectId,
        o_ts: zeus_proto::OwnershipTs,
        new_replicas: ReplicaSet,
        data: Option<(DataTs, Bytes)>,
    ) {
        let level = new_replicas.level_of(self.id);
        if !level.is_replica() {
            // This node is not in the decided placement — it drove its own
            // removal (a policy shrink, `RemoveReader { reader: self }`).
            // Drop the local replica exactly as a witnessed removal would;
            // keeping the entry at its old level would leave a ghost reader
            // the commit protocol no longer invalidates.
            self.store.remove(object);
            return;
        }
        let updated = self
            .store
            .with_mut(object, |e| {
                e.level = level;
                e.replicas = new_replicas.clone();
                e.o_ts = o_ts;
                if let Some((ts, bytes)) = &data {
                    if *ts > e.ts {
                        e.ts = *ts;
                        e.data = bytes.clone();
                        e.t_state = TState::Valid;
                    }
                }
            })
            .is_some();
        if !updated {
            let (ts, bytes) = data.unwrap_or((DataTs::ZERO, Bytes::new()));
            let mut entry = ObjectEntry::new(bytes, level, new_replicas);
            entry.ts = ts;
            entry.o_ts = o_ts;
            self.store.insert(object, entry);
        }
    }

    /// Applies an ownership change this node witnessed as an arbiter or old
    /// owner (demotion to reader, reader removal, etc.).
    fn apply_replica_change(
        &mut self,
        object: ObjectId,
        o_ts: zeus_proto::OwnershipTs,
        new_replicas: ReplicaSet,
    ) {
        let level = new_replicas.level_of(self.id);
        if level == AccessLevel::NonReplica {
            self.store.remove(object);
        } else {
            self.store.with_mut(object, |e| {
                e.level = level;
                e.replicas = new_replicas.clone();
                e.o_ts = o_ts;
            });
        }
    }
}

/// Terminal state of an ownership request, as seen by the transaction layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// Still in flight (or queued for retry).
    Pending,
    /// Completed; the access level has been installed.
    Completed,
    /// Failed terminally.
    Failed(NackReason),
}

/// One Zeus server.
///
/// The node is a passive state machine: the hosting runtime delivers network
/// messages via [`ZeusNode::handle_message`], advances time via
/// [`ZeusNode::tick`], executes transactions via
/// [`ZeusNode::execute_write`] / [`ZeusNode::execute_read`], and ships
/// whatever [`ZeusNode::drain_outbox`] returns.
#[derive(Debug)]
pub struct ZeusNode {
    id: NodeId,
    config: ZeusConfig,
    /// Shared with the sessions of the threaded runtimes, whose read-only
    /// transactions read it from their own threads; only this node mutates.
    store: Arc<Store>,
    ownership: OwnershipEngine,
    commit: CommitEngine,
    membership: MembershipEngine,
    /// This node's replica of the view service. Every node constructs one;
    /// replicas outside the configured view-replica set are inert (they
    /// neither propose nor grant), so membership decisions always go through
    /// a majority of the first `view_replicas` nodes.
    view: ViewReplica,
    /// Last tick at which this node pushed its directory digest to its
    /// directory peers (anti-entropy, heartbeat cadence).
    last_dir_push: u64,
    outbox: Vec<(NodeId, Message)>,
    /// Boxes of handled ownership messages, emptied, for the next ones this
    /// node sends; at most [`SPARE_OWNERSHIP_BOXES`]. The boxes are what is
    /// kept: each goes out again as a message's own allocation.
    #[allow(clippy::vec_box)]
    spare_boxes: Vec<Box<OwnershipMsg>>,
    requests: RequestTable,
    /// The workspace of the last write transaction, cleared: the next one
    /// reuses its buffers.
    spare_workspace: TxWorkspace,
    /// Scratch list of the followers of the commit being started.
    followers: Vec<NodeId>,
    stats: NodeStats,
    /// Messages handled so far (see [`ZeusNode::messages_handled`]).
    handled: u64,
    now: u64,
    last_retransmit: u64,
    /// The clock reading before which [`ZeusNode::tick`] has nothing to do
    /// but advance the clock: set by every tick that runs, lowered or reset
    /// to 0 by what can bring work forward (see `tick`).
    quiet_until: u64,
    /// Inbox-backlog signal from the runtime (see [`ZeusNode::set_congested`]).
    congested: bool,
    /// Current congestion back-off multiplier, 1..=`CONGESTED_RETRANSMIT_STRETCH_MAX`.
    congestion_stretch: u64,
    /// The base retransmission interval: [`RETRANSMIT_TICKS`] until the
    /// runtime's transport estimates its own (see
    /// [`ZeusNode::set_retransmit_interval`]).
    retransmit_ticks: u64,
    /// The adaptive locality engine (ROADMAP item 3). `None` under the
    /// default `Reactive` policy — no tracking, no planning, byte-identical
    /// to the pre-engine behavior.
    locality: Option<LocalityEngine>,
    /// Policy-issued acquisitions still in flight, keyed by request; at most
    /// one per object, reaped by [`ZeusNode::tick`].
    policy_reqs: IdHashMap<RequestId, ObjectId>,
}

/// Ticks between retransmissions of unacknowledged protocol messages (the
/// paper's reliable transport, §3.1) until the runtime says otherwise.
/// Protocol handlers are idempotent, so the interval trades recovery latency
/// for traffic. The simulator never says otherwise, and steps its clock by
/// this much; a runtime whose transport reports a retransmission timeout of
/// its own (the in-process mailbox's constant, UDP's RTT estimate) feeds it
/// to [`ZeusNode::set_retransmit_interval`] instead.
pub const RETRANSMIT_TICKS: u64 = 64;

/// Cap on the congestion back-off multiplier of the retransmit interval.
/// The in-process transports never lose messages, so when the inbox is
/// backlogged every unacknowledged R-INV/REQ is either queued at the peer or
/// queued *here* — retransmitting it only adds to the backlog. Unchecked,
/// that feedback loop is a congestion collapse: a node that falls one
/// retransmit interval behind under open-loop overload re-sends every
/// in-flight message each interval, which grows the very backlog that made
/// it late (observed as multi-GB mailboxes and 100x throughput loss past
/// the saturation knee). The interval therefore doubles on every interval
/// that still sees a backlog (up to this cap) and snaps back to 1x the
/// moment the inbox is clear — retransmit traffic provably decays below any
/// fixed drain rate, while genuine loss recovery (partitions drop messages;
/// receivers drop stale-epoch messages) stays live at a bounded rate and at
/// full speed on an idle node.
const CONGESTED_RETRANSMIT_STRETCH_MAX: u64 = 256;

/// Emptied ownership-message boxes a node keeps for its next sends. A node
/// that handles more ownership messages than it sends frees the rest, so
/// what it holds stays bounded whatever its share of the traffic.
pub(crate) const SPARE_OWNERSHIP_BOXES: usize = 64;

/// What a kept box holds until a message is written over it: a VAL owns no
/// heap memory, so overwriting it frees nothing.
fn emptied_box_contents() -> OwnershipMsg {
    OwnershipMsg::Val {
        req_id: RequestId::default(),
        object: ObjectId::default(),
        o_ts: OwnershipTs::default(),
        epoch: Epoch::ZERO,
    }
}

impl ZeusNode {
    /// Creates node `id` of a deployment described by `config`.
    pub fn new(id: NodeId, config: ZeusConfig) -> Self {
        let directory = config.directory();
        let mut membership = MembershipEngine::new(id, config.nodes, config.lease_ticks);
        membership.set_readmit_suspects(config.readmit_suspects);
        // Proposal retries ride the heartbeat cadence; grants expire after a
        // full lease so a crashed proposer cannot wedge agreement for longer
        // than the failure detector takes to notice any other death.
        let view = ViewReplica::new(
            id,
            config.view_replica_set(),
            (config.lease_ticks / 4).max(1),
            config.lease_ticks,
        );
        ZeusNode {
            id,
            store: Arc::new(Store::default()),
            ownership: OwnershipEngine::new(id, directory, config.nodes),
            commit: CommitEngine::new(id, config.nodes),
            membership,
            view,
            last_dir_push: 0,
            outbox: Vec::new(),
            spare_boxes: Vec::with_capacity(SPARE_OWNERSHIP_BOXES),
            requests: RequestTable::default(),
            spare_workspace: TxWorkspace::new(),
            followers: Vec::new(),
            stats: NodeStats::default(),
            handled: 0,
            now: 0,
            last_retransmit: 0,
            quiet_until: 0,
            congested: false,
            congestion_stretch: 1,
            retransmit_ticks: RETRANSMIT_TICKS,
            locality: match config.policy {
                PolicyKind::Reactive => None,
                kind => Some(LocalityEngine::new(
                    kind,
                    config.policy_interval_ticks,
                    config.policy_budget,
                    // Per-node seed: equal-priority candidates are ordered
                    // the same way on every run, differently per node.
                    u64::from(id.0),
                )),
            },
            policy_reqs: IdHashMap::default(),
            config,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The deployment configuration.
    pub fn config(&self) -> &ZeusConfig {
        &self.config
    }

    /// Read access to the local object store (tests and examples).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The store handle a runtime gives its sessions so read-only
    /// transactions can run on the caller's thread.
    pub(crate) fn shared_store(&self) -> Arc<Store> {
        Arc::clone(&self.store)
    }

    /// Current membership epoch.
    pub fn epoch(&self) -> Epoch {
        self.membership.epoch()
    }

    /// The membership view this node currently has installed.
    pub fn cluster_view(&self) -> &zeus_membership::View {
        self.membership.view()
    }

    /// Whether the ownership protocol currently accepts requests (it is
    /// paused between a view change and the completion of commit recovery).
    pub fn ownership_enabled(&self) -> bool {
        self.membership.ownership_enabled()
    }

    /// Per-node statistics.
    pub fn stats(&self) -> NodeStats {
        let mut s = self.stats.clone();
        s.objects_owned = self.store.owned_ids().len() as u64;
        s
    }

    /// Ownership protocol counters.
    pub fn ownership_stats(&self) -> &zeus_ownership::OwnershipStats {
        self.ownership.stats()
    }

    /// Commit protocol counters.
    pub fn commit_stats(&self) -> &zeus_commit::CommitStats {
        self.commit.stats()
    }

    /// Locality-policy counters (all zero under the default reactive
    /// policy, which never plans anything).
    pub fn policy_stats(&self) -> PolicyStats {
        self.locality
            .as_ref()
            .map(|e| *e.stats())
            .unwrap_or_default()
    }

    /// Whether a locality engine is configured, i.e. whether transactional
    /// accesses are worth reporting to this node at all.
    pub(crate) fn tracks_locality(&self) -> bool {
        self.locality.is_some()
    }

    /// Latency histogram of completed ownership requests (ticks).
    pub fn ownership_latency(&self) -> &LatencyHistogram {
        &self.requests.latency
    }

    /// Slots this node, as a follower, records as cleared above the dense
    /// cleared prefix of each pipeline it follows. A follower that misses a
    /// slot never moves that pipeline's prefix past it, so this grows with
    /// the commits it follows.
    pub fn sparse_cleared_slots(&self) -> usize {
        self.commit.sparse_cleared_slots()
    }

    /// Number of reliable commits still in flight at this coordinator.
    pub fn outstanding_commits(&self) -> usize {
        self.commit.outstanding_commits()
    }

    /// The owner of `object` according to this node's *directory* metadata,
    /// if this node arbitrates the object (directory replica or owner).
    /// Returns `None` when the node holds no ownership metadata, and
    /// `Some(None)` when the object currently has no live owner.
    pub fn directory_owner(&self, object: ObjectId) -> Option<Option<NodeId>> {
        self.ownership.replicas_of(object).map(|r| r.owner)
    }

    /// Whether this node currently refuses transactions because it is
    /// isolated from every peer of its view (or was removed from the view) —
    /// the node-side half of the lease contract (§3.1). Serving while fenced
    /// could expose values the rest of the cluster has already superseded.
    pub fn is_fenced(&self) -> bool {
        self.membership.is_isolated(self.now)
    }

    /// The tick at which [`ZeusNode::is_fenced`] turns true unless a
    /// heartbeat arrives first — the read lease a runtime publishes to
    /// threads that serve reads without going through this node.
    pub(crate) fn read_lease_deadline(&self) -> u64 {
        self.membership.isolation_deadline()
    }

    /// Whether this node currently owns `object`.
    pub fn owns(&self, object: ObjectId) -> bool {
        self.store
            .with(object, |e| e.level == AccessLevel::Owner)
            .unwrap_or(false)
    }

    /// Access level of this node for `object`.
    pub fn level_of(&self, object: ObjectId) -> AccessLevel {
        self.store
            .with(object, |e| e.level)
            .unwrap_or(AccessLevel::NonReplica)
    }

    // ------------------------------------------------------------------
    // Object lifecycle
    // ------------------------------------------------------------------

    /// Creates an object with the given initial placement. Every node of the
    /// deployment must be told about the object: replicas store the data,
    /// directory nodes register the ownership metadata, other nodes ignore
    /// it. (The cluster runtimes call this on every node at load time; at
    /// run time, first-touch `AcquireOwner` creates objects dynamically.)
    pub fn create_object(
        &mut self,
        object: ObjectId,
        data: impl Into<Bytes>,
        replicas: ReplicaSet,
    ) {
        self.ownership.register_object(object, replicas.clone());
        let level = replicas.level_of(self.id);
        if level.is_replica() {
            self.store
                .insert(object, ObjectEntry::new(data, level, replicas));
        }
    }

    // ------------------------------------------------------------------
    // Ownership acquisition
    // ------------------------------------------------------------------

    /// Explicitly requests an access level for `object` (used by the
    /// transaction layer and directly by the migration experiments of
    /// Figures 10–11). The caller is one waiter of the returned request and
    /// says so with [`ZeusNode::release_request`] when it is done with it.
    pub fn acquire(&mut self, object: ObjectId, kind: OwnershipRequestKind) -> RequestId {
        if let Some(&req) = self.requests.inflight_acquires.get(&(object, kind)) {
            // Someone already asked for exactly this access and still
            // waits: share the request instead of putting a second REQ on
            // the wire.
            if let Some(request) = self.requests.by_id.get_mut(&req) {
                request.waiters += 1;
            }
            return req;
        }
        self.stats.ownership_requests += 1;
        // The engine's next request id, known up front so the bookkeeping is
        // in place before the engine's output (which may already settle the
        // request) is applied.
        let req_id = self.ownership.next_request_id();
        self.requests.by_id.insert(
            req_id,
            Request {
                object,
                kind,
                started_at: self.now,
                waiters: 1,
                state: RequestState::Pending,
            },
        );
        self.requests
            .inflight_acquires
            .insert((object, kind), req_id);
        let host = HostView {
            store: &self.store,
            commit: &self.commit,
        };
        let issued =
            self.ownership
                .request_access_into(object, kind, &host, &mut ownership_out!(self));
        debug_assert_eq!(issued, req_id);
        req_id
    }

    /// Records that the hosting runtime executed a batch of `n` drained
    /// commands as one unit (one inbox drain, one outbox flush). Feeds the
    /// `batched_commands` / `batch_occupancy_hwm` counters of [`NodeStats`].
    pub fn note_command_batch(&mut self, n: usize) {
        let n = n as u64;
        if n >= 2 {
            self.stats.batched_commands += n;
        }
        self.stats.batch_occupancy_hwm = self.stats.batch_occupancy_hwm.max(n);
    }

    /// Tells the node that one waiter of `req` is done with it: it has read
    /// the outcome, or it gives up waiting (back-off §6.2, fencing). When
    /// the last waiter has, the outcome is forgotten, and a request still
    /// pending is abandoned — one that keeps being NACKed retryably, e.g.
    /// while a peer's recovery drags on, would otherwise retry and
    /// retransmit forever, pinning the node in a non-quiescent state long
    /// after its transaction moved on.
    pub fn release_request(&mut self, req: RequestId) {
        let Entry::Occupied(mut held) = self.requests.by_id.entry(req) else {
            return;
        };
        if held.get().waiters > 1 {
            held.get_mut().waiters -= 1;
            return;
        }
        let request = held.remove();
        if request.state == RequestState::Pending {
            self.requests
                .inflight_acquires
                .remove(&(request.object, request.kind));
            self.ownership.abandon_request(req);
            self.requests.retry_queue.retain(|&r| r != req);
        }
    }

    /// State of a previously issued ownership request, for as long as a
    /// waiter has not [released](ZeusNode::release_request) it.
    pub fn request_state(&self, req: RequestId) -> RequestState {
        self.requests
            .by_id
            .get(&req)
            .map_or(RequestState::Pending, |request| request.state)
    }

    /// The object a request some waiter still holds was for.
    pub(crate) fn request_object(&self, req: RequestId) -> Option<ObjectId> {
        self.requests.by_id.get(&req).map(|r| r.object)
    }

    /// Entries the request bookkeeping holds, over both its maps: zero once
    /// every request has been released by all of its waiters.
    pub fn tracked_requests(&self) -> usize {
        self.requests.by_id.len() + self.requests.inflight_acquires.len()
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Executes a write transaction whose reliable commit goes down commit
    /// pipeline `pipeline` of this node (§5.2: commits of one pipeline are
    /// applied by the followers in the order they were started). Every
    /// runtime uses pipeline 0: whoever runs the node — its loop, or a
    /// caller holding the node's lock — is its only writer.
    ///
    /// The closure runs immediately. If it opened objects this node does not
    /// hold at the required level, ownership requests are issued and
    /// [`WriteOutcome::OwnershipPending`] is returned — the caller re-executes
    /// once they complete (the application thread simply blocks in the
    /// threaded runtime). Otherwise the transaction commits locally and its
    /// reliable commit is pipelined (the call does *not* wait for
    /// replication, §5.2).
    pub fn execute_write<R>(
        &mut self,
        pipeline: u16,
        f: impl FnOnce(&mut TxCtx<'_>) -> Result<R, TxError>,
    ) -> WriteOutcome<R> {
        if self.is_fenced() {
            self.stats.txs_fenced += 1;
            return WriteOutcome::Aborted {
                error: TxError::Fenced,
            };
        }
        let workspace = std::mem::take(&mut self.spare_workspace);
        let (result, mut ws, missing) = {
            let mut ctx = TxCtx::write_tx(&self.store, workspace);
            let result = f(&mut ctx);
            let (ws, missing) = ctx.into_parts();
            (result, ws, missing)
        };
        let outcome = self.finish_write(pipeline, result, &ws, missing);
        ws.clear();
        self.spare_workspace = ws;
        outcome
    }

    /// The part of [`ZeusNode::execute_write`] after the closure ran:
    /// acquire what is missing, or commit locally and start the reliable
    /// commit.
    fn finish_write<R>(
        &mut self,
        pipeline: u16,
        result: Result<R, TxError>,
        ws: &TxWorkspace,
        missing: Vec<(ObjectId, OwnershipRequestKind)>,
    ) -> WriteOutcome<R> {
        if !missing.is_empty() {
            self.stats.txs_needing_ownership += 1;
            for (object, kind) in &missing {
                let access = match kind {
                    OwnershipRequestKind::AcquireOwner => AccessKind::Write,
                    _ => AccessKind::Read,
                };
                self.record_access(*object, access, false);
            }
            let requests = missing
                .into_iter()
                .map(|(object, kind)| self.acquire(object, kind))
                .collect();
            return WriteOutcome::OwnershipPending { requests };
        }

        let value = match result {
            Ok(v) => v,
            Err(error) => {
                self.stats.txs_aborted += 1;
                return WriteOutcome::Aborted { error };
            }
        };

        // Local commit (§3.2 step 2): opacity validation of what the
        // transaction read. Whoever is in here holds the node exclusively
        // (`&mut self`: the loop, or a caller under the node's lock), which
        // makes it the store's only writer, and nothing ran between the
        // closure and here: there is no other transaction to lock the write
        // set against.
        if !ws.validate_unwritten_reads(|object| self.store.with(object, |e| e.ts)) {
            self.stats.txs_aborted += 1;
            return WriteOutcome::Aborted {
                error: TxError::ValidationFailed,
            };
        }

        // One visit per written object validates it (still at the timestamp
        // it was opened at), applies the private copy and gathers followers.
        let mut updates = Vec::with_capacity(ws.write_count());
        self.followers.clear();
        for (object, data) in ws.write_set() {
            let opened_at = ws.read_ts(object);
            let ts = self
                .store
                .with_mut(object, |e| {
                    (Some(e.ts) == opened_at).then(|| {
                        e.apply_local_write(data.clone());
                        for r in &e.replicas.readers {
                            if r != self.id && !self.followers.contains(&r) {
                                self.followers.push(r);
                            }
                        }
                        e.ts
                    })
                })
                .flatten()
                .expect("an object opened for writing is unchanged at commit: only the node's holder writes the store");
            updates.push(ObjectUpdate::new(object, ts, data.clone()));
        }
        if self.locality.is_some() {
            for (object, _) in ws.write_set() {
                self.record_access(object, AccessKind::Write, true);
            }
        }

        // Reliable commit (§3.2 step 3), pipelined.
        let tx_id = self.commit.begin_commit_into(
            pipeline,
            updates,
            &self.followers,
            &mut CommitOut::new(&mut self.outbox, &self.store),
        );
        self.stats.write_txs_committed += 1;
        WriteOutcome::Committed { tx_id, value }
    }

    /// Executes a strictly serializable read-only transaction locally, from
    /// whichever replica this node holds (§5.3). Never generates traffic.
    pub fn execute_read<R>(
        &mut self,
        f: impl FnOnce(&mut TxCtx<'_>) -> Result<R, TxError>,
    ) -> ReadOutcome<R> {
        if self.is_fenced() {
            self.stats.txs_fenced += 1;
            return ReadOutcome::Aborted {
                error: TxError::Fenced,
            };
        }
        let (result, ws) = execute_read_only(&self.store, f);
        match result {
            Ok(value) => {
                self.note_local_reads(ws.read_set().map(|(object, _)| object));
                self.stats.read_txs_committed += 1;
                ReadOutcome::Committed { value }
            }
            Err(error) => {
                // A read this node cannot serve is exactly the signal the
                // locality engine widens replication on.
                if let TxError::NotReplicated { object } = &error {
                    self.record_access(*object, AccessKind::Read, false);
                }
                self.stats.txs_aborted += 1;
                ReadOutcome::Aborted { error }
            }
        }
    }

    /// Feeds locally served reads to the locality engine (no-op under the
    /// reactive policy): the read set of a committed read-only transaction,
    /// whether it ran here or on a session's thread.
    pub(crate) fn note_local_reads(&mut self, objects: impl IntoIterator<Item = ObjectId>) {
        if self.locality.is_some() {
            for object in objects {
                self.record_access(object, AccessKind::Read, true);
            }
        }
    }

    // ------------------------------------------------------------------
    // Runtime plumbing
    // ------------------------------------------------------------------

    /// Handles a message from another node (or a self-send).
    pub fn handle_message(&mut self, from: NodeId, msg: Message) {
        self.handled += 1;
        match msg {
            Message::Ownership(mut boxed) => {
                let m = std::mem::replace(&mut *boxed, emptied_box_contents());
                if self.spare_boxes.len() < SPARE_OWNERSHIP_BOXES {
                    self.spare_boxes.push(boxed);
                }
                let host = HostView {
                    store: &self.store,
                    commit: &self.commit,
                };
                self.ownership
                    .handle_message_into(from, m, &host, &mut ownership_out!(self));
            }
            Message::Commit(m) => {
                let mut out = CommitOut::new(&mut self.outbox, &self.store);
                self.commit.handle_message_into(from, m, &mut out);
                let recovered_at = out.recovered_at;
                self.after_commit_recovery(recovered_at);
                // The quiet spell never outlasts the commit engine's next
                // re-send. A message that changes the front of a ring (an
                // R-ACK completing it) can bring that forward: the entry
                // behind may have gone out before the front's last re-send.
                if let Some(sent) = self.commit.oldest_unanswered_send() {
                    let due = sent.saturating_add(self.retransmit_interval());
                    self.quiet_until = self.quiet_until.min(due);
                }
            }
            Message::Membership(m) => {
                self.quiet_until = 0;
                if let MembershipMsg::Heartbeat { from: alive, .. } = &m {
                    // A heartbeat proves the node is reachable again: drop
                    // any not-yet-committed expulsion intent for it. (Its
                    // lease renewal below stops the suspicion from being
                    // re-asserted.)
                    self.view.retract_expel(*alive);
                }
                let events = self.membership.on_message(m, self.now);
                self.process_membership_events(events);
            }
            Message::View(m) => {
                self.quiet_until = 0;
                self.handle_view_message(m);
            }
        }
    }

    /// Handles view-service traffic: directory metadata sync at the node
    /// level, everything else in the view replica.
    fn handle_view_message(&mut self, msg: ViewMsg) {
        match msg {
            ViewMsg::DirPull { from } => {
                let entries = self.ownership.directory_digest();
                if !entries.is_empty() {
                    let push = ViewMsg::DirPush {
                        from: self.id,
                        epoch: self.membership.epoch(),
                        entries,
                    };
                    self.send(from, push);
                }
            }
            ViewMsg::DirPush { epoch, entries, .. } => {
                // Placement adoption is only sound between directory
                // replicas agreeing on the membership epoch: entries blessed
                // under another view may name replicas that view pruned.
                if epoch == self.membership.epoch() && self.ownership.is_directory_node() {
                    self.ownership
                        .adopt_directory_into(&entries, &mut ownership_out!(self));
                }
            }
            other => {
                let mut events = Vec::new();
                self.view
                    .on_message(self.membership.view(), other, self.now, &mut events);
                self.process_view_events(events);
            }
        }
    }

    /// How many messages this node has handled: what a transaction that
    /// lost to an in-flight commit watches to know when trying again can
    /// come out differently.
    pub(crate) fn messages_handled(&self) -> u64 {
        self.handled
    }

    /// Reports whether the runtime's inbox had a backlog this iteration.
    /// While congested, [`ZeusNode::tick`] stretches the retransmission
    /// interval (doubling per congested interval, capped at 256x) so
    /// re-sends cannot
    /// amplify the backlog into a congestion collapse; a clear inbox snaps
    /// the stretch back to 1x. The simulator never sets this (its delivery
    /// is schedule-driven), so sim and chaos semantics are untouched.
    pub fn set_congested(&mut self, congested: bool) {
        if congested == self.congested {
            return;
        }
        self.congested = congested;
        if !congested {
            self.congestion_stretch = 1;
        }
        // The retransmission interval just changed.
        self.quiet_until = 0;
    }

    /// Overrides the base retransmission interval with the transport's
    /// current RTO estimate (`zeus-net`'s per-peer RTT estimators), so the
    /// protocol-level retry horizon tracks what message round trips
    /// actually cost instead of a fixed constant. The congestion stretch of
    /// [`ZeusNode::set_congested`] still multiplies on top. Never calling
    /// this keeps the fixed [`RETRANSMIT_TICKS`] — the simulator's
    /// deterministic policy.
    pub fn set_retransmit_interval(&mut self, ticks: u64) {
        let ticks = ticks.max(1);
        if ticks != self.retransmit_ticks {
            self.retransmit_ticks = ticks;
            self.quiet_until = 0;
        }
    }

    /// Advances the node's clock without driving any periodic work: what the
    /// node handles from here on is stamped `now`. A runtime whose loop
    /// sleeps calls this when it wakes, before it handles what woke it.
    pub fn advance_clock(&mut self, now: u64) {
        self.now = now.max(self.now);
        self.commit.advance_clock(self.now);
        self.ownership.advance_clock(self.now);
    }

    /// Ticks between directory anti-entropy pushes: the heartbeat cadence.
    fn dir_push_cadence(&self) -> u64 {
        (self.config.lease_ticks / 4).max(1)
    }

    /// The retransmission interval [`ZeusNode::tick`] applies: the
    /// transport's estimate (or the fixed [`RETRANSMIT_TICKS`]), stretched
    /// while the runtime reports a backlog.
    fn retransmit_interval(&self) -> u64 {
        let stretch = if self.congested {
            self.congestion_stretch
        } else {
            1
        };
        self.retransmit_ticks.saturating_mul(stretch)
    }

    /// Whether replication keeps up with the commits being started: nothing
    /// waits for an R-ACK, or the oldest R-INV that does was (re-)sent less
    /// than half a retransmission interval ago. A commit started while this
    /// holds is answered, on the evidence of the ones before it, well before
    /// its own retransmission timer runs out; past it, starting more only
    /// lengthens the queue the late acknowledgements are already in. What a
    /// runtime lets run ahead of its loop is bounded by this age
    /// (see `NodeCell::admits_inline` in [`crate::runtime`]).
    pub(crate) fn replication_keeps_up(&self) -> bool {
        self.commit
            .oldest_unanswered_send()
            .is_none_or(|sent| self.now.saturating_sub(sent) < self.retransmit_interval() / 2)
    }

    /// The earliest tick after `now` at which [`ZeusNode::tick`] has
    /// something to do that only the passage of time brings about, given
    /// that `tick(now)` has run and nothing is handled or executed in
    /// between: the next heartbeat, lease expiry or fencing deadline, the
    /// next directory push, a view-service retry, the next policy round,
    /// and — only while a commit, a request or an arbitration is
    /// outstanding — the next retransmission. Work a tick does on every
    /// call is due at `now + 1`: renewing the peers after an isolation, the
    /// view replica's bookkeeping of its intents and reaping the policy's
    /// requests while any is in flight. A standing suspicion is not: a tick
    /// that runs re-reports it, but the view replica already holds it as an
    /// intent. A runtime may sleep until then. **May be early, never
    /// late**: `tick(t)` for any `t` before it sends nothing and changes no
    /// protocol state.
    /// (It may still move the retransmission phase, which no message shows
    /// until the next re-send is due; [`ZeusNode::tick`] accounts for that
    /// itself.) That also holds
    /// for a node that has executed transactions since its last tick, with
    /// its clock [advanced](ZeusNode::advance_clock) to `now` first — a
    /// caller running the node between two iterations of its loop: what
    /// such work leaves
    /// behind (a commit's or a request's retransmission) is timed from the
    /// clock it ran at, so the caller can tell whether the sleeping runtime
    /// has to be woken earlier than it planned.
    pub fn next_timer(&self, now: u64) -> u64 {
        let mut next = self.membership.next_timer(now);
        next = next.min(self.last_dir_push.saturating_add(self.dir_push_cadence()));
        if let Some(at) = self.view.next_timer(self.membership.view(), now) {
            next = next.min(at);
        }
        // A fenced or recovering node defers planning until a message lifts
        // that (see `tick_policy`), not until a tick. The policy's own
        // requests are reaped by the first tick that finds them settled.
        if let Some(engine) = &self.locality {
            if !self.is_fenced() && self.ownership_enabled() {
                next = next.min(engine.next_interval());
            }
            if !self.policy_reqs.is_empty() {
                next = next.min(now + 1);
            }
        }
        let interval = self.retransmit_interval();
        let oldest_send = self
            .commit
            .oldest_unanswered_send()
            .into_iter()
            .chain(self.ownership.oldest_unanswered_send())
            .min();
        if let Some(sent) = oldest_send {
            next = next.min(sent.saturating_add(interval));
        }
        if !self.requests.retry_queue.is_empty() || self.ownership.inflight_arbitrations() > 0 {
            next = next.min(self.last_retransmit.saturating_add(interval));
        }
        next
    }

    /// Advances the node's clock and drives periodic work (heartbeats, lease
    /// expiry, ownership retries).
    ///
    /// Most ticks find nothing due, so a tick that runs also works out the
    /// clock reading before which the next one cannot find anything either,
    /// and until then a tick only advances the clock (counted in
    /// [`NodeStats::quiet_ticks`], the others in [`NodeStats::ticks`]). That
    /// reading is the earlier of [`ZeusNode::next_timer`] and the next
    /// retransmission boundary, `last_retransmit + interval`: a tick on a
    /// boundary moves `last_retransmit` even when nothing is re-sent, and
    /// every later boundary is counted from it. Work that falls due on every
    /// tick rather than at a time is due at the next one by `next_timer`.
    ///
    /// What a message, a transaction or a runtime call does between two
    /// ticks is covered as follows:
    ///
    /// - membership and view messages, an administrative expel or re-admit,
    ///   the end of this node's commit recovery, and a change of the
    ///   congestion signal or the retransmission interval reset the reading
    ///   to 0: they move leases, intents, the recovery barrier and
    ///   intervals;
    /// - everything else the node leaves behind is timed one retransmission
    ///   interval after the clock it ran at, which is at or past
    ///   `last_retransmit`, so it falls due no earlier than the next boundary
    ///   the reading already includes: an R-INV of a new commit, a REQ of a
    ///   new request (sent or re-issued), a request queued for retry, an
    ///   arbitration that may stall;
    /// - after a commit message the reading never exceeds the commit
    ///   engine's next re-send: an R-ACK that completes the front commit of
    ///   a ring uncovers the next one, whose R-INV may be older than the
    ///   front's last re-send (the ring is scanned front first).
    ///
    /// A skipped tick is therefore exactly a tick that would have sent
    /// nothing and changed nothing but the clock (and
    /// `CommitStats::ring_entries_visited`, which counts its scans), on
    /// every runtime: the loop and the simulator both tick through
    /// `NodeCell::step`.
    pub fn tick(&mut self, now: u64) {
        self.advance_clock(now);
        if self.now < self.quiet_until {
            self.stats.quiet_ticks += 1;
            return;
        }
        self.stats.ticks += 1;
        let events = self.membership.tick(self.now);
        self.process_membership_events(events);
        let mut view_events = Vec::new();
        self.view
            .tick(self.membership.view(), self.now, &mut view_events);
        self.process_view_events(view_events);
        // Directory anti-entropy (heartbeat cadence): push the local
        // placement digest to the other live directory replicas. Receivers
        // adopt strictly newer entries, so directory replicas that diverged
        // under partitions or replayed arbitration reconverge on the highest
        // ownership timestamp without waiting for the next arbitration.
        if self.now.saturating_sub(self.last_dir_push) >= self.dir_push_cadence() {
            self.last_dir_push = self.now;
            // Delta digest: only entries whose placement settled since the
            // last pushes, so the steady-state sync costs O(churn) rather
            // than O(objects). Full digests flow on demand (DirPull from a
            // rejoiner) and after a view change (mark_all_dirty below).
            let entries = self.ownership.drain_dirty_digest();
            if self.ownership.is_directory_node() && !entries.is_empty() {
                for peer in &self.ownership.directory().clone() {
                    if peer != self.id && self.membership.view().live.contains(&peer) {
                        let push = ViewMsg::DirPush {
                            from: self.id,
                            epoch: self.membership.epoch(),
                            entries: entries.clone(),
                        };
                        self.send(peer, push);
                    }
                }
            }
        }
        // Reliable-transport retransmission (§3.1) and retry back-off
        // (§6.2). The interval is what makes the protocols live across epoch
        // transitions (messages carrying a not-yet-installed epoch are
        // dropped by receivers) while keeping retry traffic bounded. Every
        // R-INV, cleared-slot R-VAL and REQ has its own timer — the engines
        // re-send one only when *it* has gone a full interval without an
        // answer — so the scans below run on every tick and, with nothing
        // overdue, cost next to nothing. Work without a message of its own
        // to time (re-issuing retryably-NACKed requests, counting the rounds
        // a stalled arbitration has sat idle, growing the congestion
        // stretch) happens once per interval.
        let interval = self.retransmit_interval();
        let interval_elapsed = self.now.saturating_sub(self.last_retransmit) >= interval;
        if interval_elapsed {
            self.last_retransmit = self.now;
            if self.congested {
                self.congestion_stretch =
                    (self.congestion_stretch * 2).min(CONGESTED_RETRANSMIT_STRETCH_MAX);
            }
            // A re-issued REQ restarts its own timer, so the scan below
            // does not send it a second time.
            for req in std::mem::take(&mut self.requests.retry_queue) {
                self.ownership
                    .retry_request_into(req, &mut ownership_out!(self));
            }
        }
        self.commit
            .retransmit_into(interval, &mut CommitOut::new(&mut self.outbox, &self.store));
        if self.ownership.pending_requests() > 0 {
            self.ownership
                .retransmit_into(interval, &mut ownership_out!(self));
        }
        if interval_elapsed && self.ownership.inflight_arbitrations() > 0 {
            let host = HostView {
                store: &self.store,
                commit: &self.commit,
            };
            self.ownership
                .replay_stalled_into(&host, &mut ownership_out!(self));
        }
        self.tick_policy();
        let boundary = self
            .last_retransmit
            .saturating_add(self.retransmit_interval());
        self.quiet_until = self.next_timer(self.now).min(boundary);
    }

    /// Feeds one transactional access to the locality engine (no-op under
    /// the reactive policy).
    fn record_access(&mut self, object: ObjectId, kind: AccessKind, served_locally: bool) {
        if let Some(engine) = self.locality.as_mut() {
            let level = self
                .store
                .with(object, |e| e.level)
                .unwrap_or(AccessLevel::NonReplica);
            engine.record(object, kind, level, served_locally);
        }
    }

    /// Drives the locality engine: reaps settled policy acquisitions, plans
    /// this interval's placement actions and issues them through the
    /// ordinary acquisition path — off every transaction's critical path.
    fn tick_policy(&mut self) {
        if self.locality.is_none() {
            return;
        }
        // Reap policy requests that reached a terminal state: the policy is
        // the waiter that issued them, and releases them here (the request
        // table must not grow with policy traffic); completions feed the new
        // placement back into the tracker.
        if !self.policy_reqs.is_empty() {
            let settled: Vec<(RequestId, ObjectId)> = self
                .policy_reqs
                .iter()
                .filter(|(&req, _)| self.request_state(req) != RequestState::Pending)
                .map(|(&req, &object)| (req, object))
                .collect();
            for (req, object) in settled {
                self.policy_reqs.remove(&req);
                let completed = self.request_state(req) == RequestState::Completed;
                self.release_request(req);
                if completed {
                    let level = self.level_of(object);
                    if let Some(engine) = self.locality.as_mut() {
                        engine.note_placement(object, level);
                    }
                }
            }
        }
        // Placement changes only while this node may participate: a fenced
        // or recovering node defers (the engine catches up on elapsed
        // intervals at the next planning round).
        if self.is_fenced() || !self.ownership_enabled() {
            return;
        }
        let store = &self.store;
        let policy_reqs = &self.policy_reqs;
        let self_id = self.id;
        let replication_floor = self.config.replication_degree.max(1);
        let actions = self.locality.as_mut().expect("checked above").tick(
            self.now,
            // The veto: skip actions whose object already has a policy
            // request in flight, or whose placement already moved (a
            // foreground acquisition got there first) — before they cost
            // budget or count as taken.
            |action| {
                let object = action.object();
                if policy_reqs.values().any(|&o| o == object) {
                    return false;
                }
                let level = store
                    .with(object, |e| e.level)
                    .unwrap_or(AccessLevel::NonReplica);
                match action {
                    PlacementAction::PreMigrate(_) => level != AccessLevel::Owner,
                    PlacementAction::Widen(_) => level == AccessLevel::NonReplica,
                    // A cold reader may only retire while the placement
                    // stays at or above the configured replication degree
                    // without it: shrinking below the degree trades the
                    // deployment's fault tolerance for locality (a
                    // single-copy placement loses its history to one
                    // expulsion), and the ownership engine refuses outright
                    // to decide an empty placement.
                    PlacementAction::Shrink(_) => {
                        level == AccessLevel::Reader
                            && store
                                .with(object, |e| {
                                    e.replicas.replicas().filter(|&n| n != self_id).count()
                                        >= replication_floor
                                })
                                .unwrap_or(false)
                    }
                }
            },
        );
        for action in actions {
            let object = action.object();
            let kind = match action {
                PlacementAction::PreMigrate(_) => OwnershipRequestKind::AcquireOwner,
                PlacementAction::Widen(_) => OwnershipRequestKind::AcquireReader,
                PlacementAction::Shrink(_) => {
                    OwnershipRequestKind::RemoveReader { reader: self.id }
                }
            };
            let req = self.acquire(object, kind);
            self.policy_reqs.insert(req, object);
        }
    }

    /// Administratively expels a node from the membership. The ban is
    /// recorded locally (heartbeats from the node no longer re-admit it) and,
    /// if this node is a view replica, an expulsion is proposed to the view
    /// service — the view commits once a majority of replicas grant. The
    /// cluster runtimes route this to every view replica, so any majority of
    /// them being alive is enough (used when a crash is injected, and by the
    /// scale-in experiment of Figure 15).
    pub fn admin_remove_node(&mut self, dead: NodeId) {
        self.quiet_until = 0;
        if self.membership.admin_remove(dead) {
            self.view.propose_expel(dead);
        }
    }

    /// Administratively re-admits a node (scale-out, Figure 15): lifts the
    /// local ban and, on view replicas, proposes the admission.
    pub fn admin_add_node(&mut self, node: NodeId) {
        self.quiet_until = 0;
        if self.membership.admin_restore(node) {
            self.view.propose_admit(node);
        }
    }

    /// Drains the messages this node wants to send.
    pub fn drain_outbox(&mut self) -> Vec<(NodeId, Message)> {
        std::mem::take(&mut self.outbox)
    }

    /// Hands every message this node wants to send to `send`, in order. The
    /// outbox keeps its buffer, which [`ZeusNode::drain_outbox`] gives away:
    /// this is the form for a loop that flushes every iteration.
    pub fn drain_outbox_with(&mut self, mut send: impl FnMut(NodeId, Message)) {
        for (to, msg) in self.outbox.drain(..) {
            send(to, msg);
        }
    }

    /// Whether the node has protocol work in flight (used by the simulator's
    /// quiescence detection).
    pub fn is_quiescent(&self) -> bool {
        self.outbox.is_empty()
            && self.requests.retry_queue.is_empty()
            && self.commit.outstanding_commits() == 0
            && self.ownership.pending_requests() == 0
            && !self.view.has_pending_work()
    }

    fn send(&mut self, to: NodeId, msg: impl Into<Message>) {
        self.outbox.push((to, msg.into()));
    }

    fn broadcast(&mut self, msg: Message) {
        for &peer in &self.membership.view().live {
            if peer != self.id {
                self.outbox.push((peer, msg.clone()));
            }
        }
    }

    /// Does what the commit engine's "recovery finished" report sets off —
    /// telling the membership service — if a call into the engine made one
    /// (see [`CommitOut::recovered_at`]).
    fn after_commit_recovery(&mut self, recovered_at: Option<usize>) {
        let Some(at) = recovered_at else { return };
        // The recovery barrier may lift, which lets the policy plan again.
        self.quiet_until = 0;
        let later = self.outbox.split_off(at);
        let events = self.membership.local_recovery_done();
        self.process_membership_events(events);
        self.outbox.extend(later);
    }

    fn process_membership_events(&mut self, events: Vec<MembershipEvent>) {
        for event in events {
            match event {
                MembershipEvent::Broadcast(msg) => self.broadcast(Message::Membership(msg)),
                MembershipEvent::Send { to, msg } => self.send(to, Message::Membership(msg)),
                MembershipEvent::SuspectsExpired(dead) => {
                    // The intent outlives its proposals: one lost to a
                    // view-replica crash or race expires and is rebuilt from
                    // the intent, until a heartbeat retracts it or a view
                    // drops the suspect. Inert on nodes outside
                    // the view-replica set — their local suspicion carries no
                    // vote; the view replicas run the same detector.
                    for d in dead {
                        self.view.propose_expel(d);
                    }
                }
                MembershipEvent::RejoinRequested(node) => {
                    self.view.propose_admit(node);
                }
                MembershipEvent::ViewInstalled { view, rejoined } => {
                    // Followers learn commits through the membership
                    // ViewChange broadcast, not the agreement: the view
                    // replica drops what the installed view settled.
                    self.view.on_installed(&view);
                    // If *we* are among the re-admitted nodes, the cluster
                    // kept committing while we were out: every replica,
                    // ownership and commit structure we hold may be stale.
                    // Discard them before processing the view change, so we
                    // re-enter as a clean node and re-acquire data through
                    // the ownership protocol instead of serving stale state.
                    if rejoined.contains(&self.id) {
                        self.reset_for_rejoin();
                    }
                    // Prune the replica placements cached on store entries:
                    // dead nodes lost their copies and re-admitted nodes
                    // were wiped, so keeping them in an entry's reader list
                    // would keep streaming R-INVs to nodes outside the real
                    // placement — zombie followers that re-install data
                    // (and later serve or fork it) without being replicas.
                    for object in self.store.object_ids() {
                        self.store.with_mut(object, |e| {
                            e.replicas.retain_live(&view.live);
                            for &r in &rejoined {
                                e.replicas.remove_node(r);
                            }
                        });
                    }
                    let host = HostView {
                        store: &self.store,
                        commit: &self.commit,
                    };
                    self.ownership.on_view_change_into(
                        view.epoch,
                        &view.live,
                        &rejoined,
                        &host,
                        &mut ownership_out!(self),
                    );
                    let mut out = CommitOut::new(&mut self.outbox, &self.store);
                    self.commit.on_view_change_into(
                        view.epoch,
                        view.live.clone(),
                        &rejoined,
                        &mut out,
                    );
                    let recovered_at = out.recovered_at;
                    self.after_commit_recovery(recovered_at);
                    // Directory replicas may have diverged arbitrarily while
                    // the membership was in flux (partitions precede most
                    // view changes): schedule one full anti-entropy push so
                    // peers reconverge without waiting for per-object
                    // arbitration traffic.
                    if self.ownership.is_directory_node() {
                        self.ownership.mark_all_dirty();
                    }
                    // A re-admitted directory replica starts from amnesia:
                    // pull the committed placement metadata from its peers
                    // before arbitrating, so it cannot re-grant ownership the
                    // cluster already moved elsewhere while it was out.
                    if rejoined.contains(&self.id) && self.ownership.is_directory_node() {
                        for peer in &self.ownership.directory().clone() {
                            if peer != self.id && view.live.contains(&peer) {
                                self.send(peer, ViewMsg::DirPull { from: self.id });
                            }
                        }
                    }
                }
                MembershipEvent::RecoveryComplete(_epoch) => {
                    self.ownership.set_enabled(true);
                }
            }
        }
    }

    fn process_view_events(&mut self, events: Vec<ViewEvent>) {
        for event in events {
            match event {
                ViewEvent::Send { to, msg } => self.send(to, msg),
                ViewEvent::Committed(view) => {
                    let events = self.membership.install_committed(view, self.now);
                    self.process_membership_events(events);
                }
                ViewEvent::NeedsSync { to } => {
                    self.send(to, MembershipMsg::ViewPull { from: self.id });
                }
            }
        }
    }

    /// Discards all replica state after this node was expelled and
    /// re-admitted (see [`MembershipEvent::ViewInstalled`]).
    fn reset_for_rejoin(&mut self) {
        self.stats.rejoin_resets += 1;
        self.store.clear();
        self.commit.reset_for_rejoin();
        self.requests.retry_queue.clear();
        // The engine fails every pending request below; their waiters read
        // that outcome and release them as usual.
        self.ownership
            .reset_for_rejoin_into(&mut ownership_out!(self));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_node() -> ZeusNode {
        let mut config = ZeusConfig::with_nodes(1);
        config.replication_degree = 1;
        ZeusNode::new(NodeId(0), config)
    }

    #[test]
    fn single_node_write_and_read_roundtrip() {
        let mut node = single_node();
        let object = ObjectId(1);
        node.create_object(
            object,
            Bytes::from_static(b"0"),
            ReplicaSet::new(NodeId(0), []),
        );

        let outcome = node.execute_write(0, |tx| {
            tx.write(object, Bytes::from_static(b"42"))?;
            Ok(())
        });
        assert!(outcome.is_committed());

        let read = node.execute_read(|tx| tx.read(object));
        assert_eq!(read.unwrap_committed(), Bytes::from_static(b"42"));
        assert_eq!(node.stats().write_txs_committed, 1);
        assert_eq!(node.stats().read_txs_committed, 1);
    }

    #[test]
    fn write_to_unowned_object_returns_ownership_pending() {
        let mut config = ZeusConfig::with_nodes(3);
        config.replication_degree = 2;
        let mut node = ZeusNode::new(NodeId(2), config.clone());
        // Object owned by node 0; node 2 is a non-replica.
        node.create_object(
            ObjectId(5),
            Bytes::new(),
            config.default_replicas(NodeId(0)),
        );
        let outcome = node.execute_write(0, |tx| tx.write(ObjectId(5), Bytes::from_static(b"x")));
        match outcome {
            WriteOutcome::OwnershipPending { requests } => {
                assert_eq!(requests.len(), 1);
                assert_eq!(node.request_state(requests[0]), RequestState::Pending);
            }
            other => panic!("expected OwnershipPending, got {other:?}"),
        }
        // The REQ must be in the outbox, addressed to a directory node.
        let out = node.drain_outbox();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Message::Ownership(_)));
    }

    #[test]
    fn opacity_validation_catches_concurrent_version_change() {
        let mut node = single_node();
        let object = ObjectId(1);
        node.create_object(
            object,
            Bytes::from_static(b"a"),
            ReplicaSet::new(NodeId(0), []),
        );
        let outcome = node.execute_write(0, |tx| {
            let v = tx.read(object)?;
            // Simulate a concurrent local transaction sneaking in between
            // read and commit by bumping the version behind the API's back.
            Ok(v)
        });
        assert!(outcome.is_committed());

        // Now do it with an actual conflict injected via the store.
        let outcome = {
            let store_version_bump = |node: &mut ZeusNode| {
                node.store
                    .with_mut(object, |e| e.apply_local_write(Bytes::from_static(b"z")))
                    .unwrap();
            };
            let mut first_read = None;
            let o = node.execute_write(0, |tx| {
                first_read = Some(tx.read(object)?);
                Ok(())
            });
            // The closure committed before we can interleave here, so assert
            // the normal path worked and then force a validation failure
            // directly.
            assert!(o.is_committed());
            store_version_bump(&mut node);
            node.execute_write(0, |tx| {
                // Read set recorded at the old version...
                let _ = tx.read(object)?;
                Ok(())
            })
        };
        // ...but the store did not change between read and commit inside the
        // same call, so this still commits. Opacity violations can only occur
        // across worker threads, which the lock manager prevents; assert the
        // commit path remains consistent.
        assert!(outcome.is_committed());
    }

    #[test]
    fn user_abort_counts_as_aborted() {
        let mut node = single_node();
        node.create_object(ObjectId(1), Bytes::new(), ReplicaSet::new(NodeId(0), []));
        let outcome: WriteOutcome<()> = node.execute_write(0, |tx| tx.abort());
        assert!(matches!(
            outcome,
            WriteOutcome::Aborted {
                error: TxError::UserAbort
            }
        ));
        assert_eq!(node.stats().txs_aborted, 1);
    }

    /// An owner gives up write access on an INV only when its ownership
    /// engine accepts the INV: one from a past epoch is refused and leaves
    /// the owner an owner.
    #[test]
    fn an_owner_keeps_write_access_against_an_invalidation_it_refuses() {
        let mut node = ZeusNode::new(NodeId(0), ZeusConfig::with_nodes(3));
        let object = ObjectId(7);
        let placement = ReplicaSet::new(NodeId(0), [NodeId(1)]);
        node.create_object(object, Bytes::from_static(b"v"), placement.clone());
        node.handle_message(
            NodeId(1),
            Message::Membership(MembershipMsg::ViewChange {
                epoch: Epoch(1),
                live: vec![NodeId(0), NodeId(1), NodeId(2)],
                admitted: vec![Epoch::ZERO; 3],
            }),
        );
        let inv = |epoch| {
            Message::Ownership(Box::new(OwnershipMsg::Inv {
                req_id: RequestId::new(NodeId(1), 1),
                object,
                o_ts: OwnershipTs::new(1, NodeId(1)),
                kind: OwnershipRequestKind::AcquireOwner,
                new_replicas: ReplicaSet::new(NodeId(1), [NodeId(0)]),
                old_replicas: placement.clone(),
                epoch,
                ack_to_driver: false,
                requester_has_replica: true,
            }))
        };
        node.handle_message(NodeId(1), inv(Epoch::ZERO));
        assert_eq!(node.level_of(object), AccessLevel::Owner, "stale epoch");
        node.handle_message(NodeId(1), inv(Epoch(1)));
        assert_eq!(node.level_of(object), AccessLevel::Reader);
    }

    #[test]
    fn read_only_transaction_aborts_on_invalidated_replica() {
        let mut config = ZeusConfig::with_nodes(2);
        config.replication_degree = 2;
        let mut node = ZeusNode::new(NodeId(1), config);
        let object = ObjectId(3);
        node.create_object(
            object,
            Bytes::from_static(b"v"),
            ReplicaSet::new(NodeId(0), [NodeId(1)]),
        );
        // An R-INV arrives for the object (reader side) and invalidates it.
        node.handle_message(
            NodeId(0),
            Message::Commit(zeus_proto::CommitMsg::RInv {
                tx_id: zeus_proto::TxId::new(zeus_proto::PipelineId::new(NodeId(0), 0), 0),
                epoch: Epoch::ZERO,
                followers: vec![NodeId(1)],
                prev_val: true,
                updates: vec![ObjectUpdate::new(
                    object,
                    DataTs::new(1, Default::default()),
                    Bytes::from_static(b"new"),
                )],
            }),
        );
        let outcome = node.execute_read(|tx| tx.read(object));
        assert!(matches!(
            outcome,
            ReadOutcome::Aborted {
                error: TxError::ReadConflict
            }
        ));
        // After the R-VAL the new value becomes readable.
        node.handle_message(
            NodeId(0),
            Message::Commit(zeus_proto::CommitMsg::RVal {
                tx_id: zeus_proto::TxId::new(zeus_proto::PipelineId::new(NodeId(0), 0), 0),
                epoch: Epoch::ZERO,
            }),
        );
        let outcome = node.execute_read(|tx| tx.read(object));
        assert_eq!(outcome.unwrap_committed(), Bytes::from_static(b"new"));
    }

    #[test]
    fn predictive_policy_widens_after_remote_read_misses() {
        let mut config = ZeusConfig::with_nodes(3);
        config.policy = PolicyKind::Predictive;
        config.policy_interval_ticks = 100;
        let mut node = ZeusNode::new(NodeId(2), config);
        // Replicated on nodes 0 and 1 only; node 2 keeps failing to read it
        // locally (strictly-local reads, §5.3).
        node.create_object(
            ObjectId(7),
            Bytes::from_static(b"v"),
            ReplicaSet::new(NodeId(0), [NodeId(1)]),
        );
        for _ in 0..8 {
            let out = node.execute_read(|tx| tx.read(ObjectId(7)));
            assert!(!out.is_committed());
        }
        node.tick(100);
        assert_eq!(node.policy_stats().widens, 1);
        assert_eq!(node.policy_stats().premigrations, 0);
        // The widen left as an ordinary ownership REQ, off the read path.
        let ownership_msgs = node
            .drain_outbox()
            .into_iter()
            .filter(|(_, m)| matches!(m, Message::Ownership(_)))
            .count();
        assert!(ownership_msgs >= 1, "AcquireReader must be on the wire");
        // One in-flight policy request per object: the next interval plans
        // the same widen but does not issue a duplicate.
        node.tick(200);
        assert_eq!(node.policy_stats().widens, 1);
    }

    #[test]
    fn a_policy_request_in_flight_is_looked_at_on_every_tick() {
        let mut config = ZeusConfig::with_nodes(3);
        config.policy = PolicyKind::Predictive;
        config.policy_interval_ticks = 100;
        let mut node = ZeusNode::new(NodeId(2), config);
        node.create_object(
            ObjectId(7),
            Bytes::from_static(b"v"),
            ReplicaSet::new(NodeId(0), [NodeId(1)]),
        );
        node.tick(0);
        assert!(node.next_timer(0) > 1, "nothing to reap");
        for _ in 0..8 {
            assert!(!node.execute_read(|tx| tx.read(ObjectId(7))).is_committed());
        }
        node.tick(100);
        assert_eq!(node.policy_stats().widens, 1);
        // The tick that finds the widen settled releases it: every one.
        assert_eq!(node.next_timer(100), 101);
        node.tick(101);
        assert_eq!(node.stats().quiet_ticks, 0);
    }

    #[test]
    fn reads_noted_from_another_thread_reach_the_tracker_like_local_ones() {
        let mut config = ZeusConfig::with_nodes(3);
        config.policy = PolicyKind::Predictive;
        let mut node = ZeusNode::new(NodeId(1), config.clone());
        for object in [ObjectId(1), ObjectId(2)] {
            node.create_object(object, Bytes::new(), config.default_replicas(NodeId(0)));
        }
        // One read executed here, one reported by a session that ran it on
        // its own thread: the tracker must not tell them apart.
        assert!(node.execute_read(|tx| tx.read(ObjectId(1))).is_committed());
        node.note_local_reads([ObjectId(2)]);
        let tracker = node.locality.as_ref().expect("predictive").tracker();
        for object in [ObjectId(1), ObjectId(2)] {
            let stats = tracker.get(object).expect("tracked");
            assert_eq!(stats.level, AccessLevel::Reader);
            assert_eq!(stats.remote_streak, 0);
        }
        assert_eq!(tracker.len(), 2);
    }

    #[test]
    fn reactive_policy_tracks_and_issues_nothing() {
        let mut node = single_node();
        node.create_object(ObjectId(1), Bytes::new(), ReplicaSet::new(NodeId(0), []));
        for t in 0..5u64 {
            let _ = node.execute_write(0, |tx| tx.write(ObjectId(1), Bytes::from_static(b"x")));
            node.tick(t * 10_000);
        }
        assert_eq!(node.policy_stats(), PolicyStats::default());
    }

    #[test]
    fn pipelined_writes_do_not_block_on_replication() {
        let mut config = ZeusConfig::with_nodes(2);
        config.replication_degree = 2;
        let mut node = ZeusNode::new(NodeId(0), config);
        let object = ObjectId(9);
        node.create_object(
            object,
            Bytes::from_static(b"0"),
            ReplicaSet::new(NodeId(0), [NodeId(1)]),
        );
        for i in 0..5u8 {
            let outcome = node.execute_write(0, |tx| tx.write(object, vec![i]));
            assert!(outcome.is_committed(), "commit {i} must not wait for acks");
        }
        assert_eq!(node.outstanding_commits(), 5, "all five are pipelined");
        // Five R-INVs (one per write) are queued for the follower.
        let rinvs = node
            .drain_outbox()
            .into_iter()
            .filter(|(_, m)| m.kind() == "r-inv")
            .count();
        assert_eq!(rinvs, 5);
    }

    /// Kinds of the queued messages, heartbeats aside.
    fn drained_kinds(node: &mut ZeusNode) -> Vec<&'static str> {
        node.drain_outbox()
            .iter()
            .map(|(_, m)| m.kind())
            .filter(|kind| *kind != "hb")
            .collect()
    }

    #[test]
    fn a_message_is_re_sent_once_it_has_waited_an_interval_not_when_a_timer_fires() {
        // Finding 1 of benchmark/README.md: one node-wide timer used to
        // re-send everything unacknowledged whenever it fired, whatever the
        // age of the message.
        let config = ZeusConfig::with_nodes(3);
        assert_eq!(RETRANSMIT_TICKS, 64);
        let mut node = ZeusNode::new(NodeId(0), config.clone());
        for object in [ObjectId(1), ObjectId(2)] {
            node.create_object(object, Bytes::new(), config.default_replicas(NodeId(0)));
        }
        // A third object lives on node 1 and is not replicated here.
        node.create_object(
            ObjectId(3),
            Bytes::new(),
            ReplicaSet::new(NodeId(1), [NodeId(2)]),
        );
        node.tick(100);
        assert!(node
            .execute_write(0, |tx| tx.write(ObjectId(1), Bytes::from_static(b"a")))
            .is_committed());
        assert_eq!(drained_kinds(&mut node), ["r-inv", "r-inv"]);

        node.tick(150);
        assert!(node
            .execute_write(0, |tx| tx.write(ObjectId(2), Bytes::from_static(b"b")))
            .is_committed());
        let request = node.acquire(ObjectId(3), OwnershipRequestKind::AcquireOwner);
        assert_eq!(drained_kinds(&mut node), ["r-inv", "r-inv", "o-req"]);

        node.tick(163);
        assert!(drained_kinds(&mut node).is_empty(), "the oldest is 63 old");
        // The first commit's two R-INVs are due; the commit and the request
        // of tick 150 are 14 ticks old and stay put.
        node.tick(164);
        assert_eq!(drained_kinds(&mut node), ["r-inv", "r-inv"]);
        assert_eq!(node.commit_stats().rinvs_retransmitted, 2);
        assert_eq!(node.ownership_stats().requests_retransmitted, 0);
        node.tick(213);
        assert!(drained_kinds(&mut node).is_empty());
        node.tick(214);
        assert_eq!(drained_kinds(&mut node), ["o-req"], "the request's turn");
        assert_eq!(node.request_state(request), RequestState::Pending);
        // The second commit sits behind the re-sent first one in its ring
        // and goes out with it when that is due again (see
        // `CommitEngine::retransmit`).
        node.tick(228);
        assert_eq!(drained_kinds(&mut node), ["r-inv"; 4]);
        assert_eq!(node.commit_stats().rinvs_retransmitted, 6);
    }

    #[test]
    fn a_tick_before_anything_is_due_only_advances_the_clock() {
        let config = ZeusConfig::with_nodes(3);
        let mut node = ZeusNode::new(NodeId(0), config.clone());
        node.create_object(
            ObjectId(1),
            Bytes::new(),
            config.default_replicas(NodeId(0)),
        );
        node.tick(0);
        node.drain_outbox();
        assert!(node
            .execute_write(0, |tx| tx.write(ObjectId(1), Bytes::from_static(b"a")))
            .is_committed());
        node.drain_outbox();
        // The R-INVs of the write are due at 64, and so is the first
        // retransmission boundary.
        for t in 1..64 {
            node.tick(t);
        }
        assert_eq!(node.now, 63);
        assert_eq!((node.stats().ticks, node.stats().quiet_ticks), (1, 63));
        assert!(drained_kinds(&mut node).is_empty());
        node.tick(64);
        assert_eq!(drained_kinds(&mut node), ["r-inv", "r-inv"]);
        assert_eq!(node.stats().ticks, 2);
        // A change of the retransmission interval is looked at right away.
        node.tick(65);
        node.set_retransmit_interval(1);
        node.tick(66);
        assert_eq!(drained_kinds(&mut node), ["r-inv", "r-inv"]);
        assert_eq!((node.stats().ticks, node.stats().quiet_ticks), (3, 64));
    }

    #[test]
    fn a_node_keeps_at_most_its_cap_of_emptied_boxes_and_sends_in_them() {
        let config = ZeusConfig::with_nodes(3);
        let mut node = ZeusNode::new(NodeId(0), config.clone());
        // NACKs of requests this node never issued: handled, answered by
        // nothing.
        for i in 0..1_000 {
            let nack = OwnershipMsg::Nack {
                req_id: RequestId::new(NodeId(0), 1_000_000 + i),
                object: ObjectId(i),
                reason: NackReason::LostArbitration,
                epoch: Epoch::ZERO,
                from: NodeId(1),
            };
            node.handle_message(NodeId(1), nack.into());
            assert!(node.drain_outbox().is_empty());
        }
        assert_eq!(node.spare_boxes.len(), SPARE_OWNERSHIP_BOXES);
        node.create_object(
            ObjectId(1),
            Bytes::new(),
            config.default_replicas(NodeId(1)),
        );
        node.acquire(ObjectId(1), OwnershipRequestKind::AcquireOwner);
        assert_eq!(drained_kinds(&mut node), ["o-req"]);
        assert_eq!(node.spare_boxes.len(), SPARE_OWNERSHIP_BOXES - 1);
        assert_eq!(node.stats().ownership_boxes_allocated, 0);
    }

    #[test]
    fn an_ack_that_uncovers_an_older_r_inv_brings_its_re_send_forward() {
        let config = ZeusConfig::with_nodes(3);
        let mut node = ZeusNode::new(NodeId(0), config.clone());
        node.create_object(
            ObjectId(1),
            Bytes::new(),
            config.default_replicas(NodeId(0)),
        );
        node.tick(0);
        for (at, value) in [(10, b"a"), (20, b"b")] {
            node.advance_clock(at);
            assert!(node
                .execute_write(0, |tx| tx.write(ObjectId(1), Bytes::from_static(value)))
                .is_committed());
        }
        // The boundary at 64 moves the retransmission phase; at 74 the first
        // commit's R-INVs are re-sent, the second's (sent at 20) not yet.
        node.tick(64);
        node.tick(74);
        assert_eq!(node.commit_stats().rinvs_retransmitted, 2);
        node.drain_outbox();
        // Both followers acknowledge the first commit: the second is now the
        // front of the ring, due at 84, before the next boundary at 128.
        node.advance_clock(80);
        let first = zeus_proto::TxId::new(zeus_proto::PipelineId::new(NodeId(0), 0), 0);
        for follower in [NodeId(1), NodeId(2)] {
            node.handle_message(
                follower,
                Message::Commit(CommitMsg::RAck {
                    tx_id: first,
                    from: follower,
                    epoch: Epoch::ZERO,
                }),
            );
        }
        assert_eq!(drained_kinds(&mut node), ["r-val", "r-val"]);
        node.tick(83);
        assert!(drained_kinds(&mut node).is_empty());
        node.tick(84);
        assert_eq!(node.commit_stats().rinvs_retransmitted, 4);
        assert_eq!(
            drained_kinds(&mut node),
            ["r-inv", "r-inv", "r-val", "r-val"]
        );
    }
}
