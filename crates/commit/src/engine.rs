//! The sans-io reliable-commit state machine.

use zeus_proto::{
    CommitMsg, DataTs, Epoch, IdHashMap, NodeId, ObjectId, ObjectUpdate, PipelineId, TxId,
};

use crate::pipeline::{ClearedTracker, SlotRing};
use crate::stats::CommitStats;

/// Outputs of the commit engine as values: what the `Vec`-returning entry
/// points ([`CommitEngine::begin_commit`], [`CommitEngine::handle_message`],
/// …) hand back. A runtime on the transaction path implements
/// [`CommitSink`] instead and receives the same outputs, in the same order,
/// without the intermediate vector.
#[derive(Debug, Clone, PartialEq)]
pub enum CommitAction {
    /// Send a protocol message.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: CommitMsg,
    },
    /// Coordinator side: the transaction is now reliably committed (every
    /// follower acknowledged). The host validates the listed objects at the
    /// listed commit timestamps (`t_state := Valid`, pending count
    /// decremented).
    ReliablyCommitted {
        /// The committed transaction.
        tx_id: TxId,
        /// `(object, d_ts)` pairs to validate locally.
        objects: Vec<(ObjectId, DataTs)>,
    },
    /// Follower side: install these updates (newer data, `t_state :=
    /// Invalid`) in the local store.
    ApplyUpdates {
        /// The transaction the updates belong to.
        tx_id: TxId,
        /// Updated objects.
        updates: Vec<ObjectUpdate>,
    },
    /// Follower side: validate these objects at these commit timestamps
    /// (`t_state := Valid` iff the timestamp still matches).
    ValidateUpdates {
        /// The transaction being validated.
        tx_id: TxId,
        /// `(object, d_ts)` pairs to validate.
        objects: Vec<(ObjectId, DataTs)>,
    },
    /// Failure recovery for the current epoch has finished on this node (no
    /// pending reliable commits from dead coordinators remain). The host
    /// reports this to the membership service (§5.1).
    RecoveryFinished {
        /// The epoch whose recovery finished.
        epoch: Epoch,
    },
}

/// Where the engine writes its output: one call per effect, in protocol
/// order, made while the engine still holds the data — so a host can put a
/// message straight into its outbox and apply a store effect in place,
/// borrowing the updates instead of receiving a copy of them.
///
/// The methods mirror [`CommitAction`] one to one; `Vec<CommitAction>`
/// implements the trait by pushing the corresponding value.
pub trait CommitSink {
    /// Send a protocol message.
    fn send(&mut self, to: NodeId, msg: CommitMsg);
    /// Coordinator side: `tx_id` is reliably committed; validate `updates`'
    /// objects at their timestamps (see [`CommitAction::ReliablyCommitted`]).
    fn reliably_committed(&mut self, tx_id: TxId, updates: &[ObjectUpdate]);
    /// Follower side: install `updates` (see [`CommitAction::ApplyUpdates`]).
    fn apply_updates(&mut self, tx_id: TxId, updates: &[ObjectUpdate]);
    /// Follower side: validate `updates`' objects at their timestamps (see
    /// [`CommitAction::ValidateUpdates`]).
    fn validate_updates(&mut self, tx_id: TxId, updates: &[ObjectUpdate]);
    /// Recovery for `epoch` finished here (see
    /// [`CommitAction::RecoveryFinished`]).
    fn recovery_finished(&mut self, epoch: Epoch);
}

fn object_versions(updates: &[ObjectUpdate]) -> Vec<(ObjectId, DataTs)> {
    updates.iter().map(|u| (u.object, u.ts)).collect()
}

impl CommitSink for Vec<CommitAction> {
    fn send(&mut self, to: NodeId, msg: CommitMsg) {
        self.push(CommitAction::Send { to, msg });
    }
    fn reliably_committed(&mut self, tx_id: TxId, updates: &[ObjectUpdate]) {
        self.push(CommitAction::ReliablyCommitted {
            tx_id,
            objects: object_versions(updates),
        });
    }
    fn apply_updates(&mut self, tx_id: TxId, updates: &[ObjectUpdate]) {
        self.push(CommitAction::ApplyUpdates {
            tx_id,
            updates: updates.to_vec(),
        });
    }
    fn validate_updates(&mut self, tx_id: TxId, updates: &[ObjectUpdate]) {
        self.push(CommitAction::ValidateUpdates {
            tx_id,
            objects: object_versions(updates),
        });
    }
    fn recovery_finished(&mut self, epoch: Epoch) {
        self.push(CommitAction::RecoveryFinished { epoch });
    }
}

/// Coordinator-side record of an in-flight reliable commit (the locally
/// stored R-INV of §5.1). It owns the R-INV body — follower list and updates
/// — that every (re)transmission is built from.
#[derive(Debug, Clone)]
struct Outstanding {
    /// Each follower and whether it has acknowledged.
    followers: Vec<(NodeId, bool)>,
    /// Extra nodes to include in the R-VAL broadcast: followers of the next
    /// slot that were not followers of this one (§5.2).
    extra_val_targets: Vec<NodeId>,
    updates: Vec<ObjectUpdate>,
    prev_val: bool,
    /// True when this entry is a failure-recovery replay of another
    /// coordinator's commit (validation then happens via `validate_updates`
    /// rather than `reliably_committed`).
    is_replay: bool,
    /// Engine-clock tick at which the R-INV last went out to the followers
    /// still unacknowledged; it is re-sent once a full retransmission
    /// interval has passed since.
    last_sent: u64,
}

impl Outstanding {
    fn fully_acked(&self) -> bool {
        self.followers.iter().all(|&(_, acked)| acked)
    }

    fn rinv(&self, tx_id: TxId, epoch: Epoch, prev_val: bool) -> CommitMsg {
        CommitMsg::RInv {
            tx_id,
            epoch,
            followers: self.followers.iter().map(|&(node, _)| node).collect(),
            prev_val,
            updates: self.updates.clone(),
        }
    }
}

/// Follower-side record of a stored (applied but not yet validated) R-INV.
#[derive(Debug, Clone)]
struct StoredRInv {
    followers: Vec<NodeId>,
    updates: Vec<ObjectUpdate>,
}

/// A buffered R-INV waiting for pipeline order.
#[derive(Debug, Clone)]
struct BufferedRInv {
    from: NodeId,
    followers: Vec<NodeId>,
    updates: Vec<ObjectUpdate>,
}

/// Everything this node tracks about one commit pipeline, in both roles: as
/// its coordinator (own pipelines, and dead coordinators' pipelines whose
/// stored commits it replays) and as a follower of it.
#[derive(Debug, Default)]
struct Pipeline {
    /// Next `local_tx_id` (own pipelines only).
    next_local: u64,
    /// Coordinator side: in-flight commits (own transactions and replays).
    ring: SlotRing<Outstanding>,
    /// Coordinator side: the most recently completed (cleared) slot and the
    /// targets its R-VAL went to. R-VALs are fire-once, so a lost one can
    /// wedge a follower that buffered the next slot waiting for pipeline
    /// order; re-broadcasting the last cleared slot's R-VAL on the
    /// retransmission tick (while later slots are still outstanding)
    /// unwedges it. Receivers treat duplicate R-VALs idempotently.
    last_cleared: LastCleared,
    /// Coordinator side: per follower, the first slot its cumulative acks
    /// have not covered yet in this epoch — an ack only has to look at ring
    /// entries from there on.
    ack_floors: Vec<(NodeId, u64)>,
    /// Follower side: which slots have been cleared.
    cleared: ClearedTracker,
    /// Follower side: stored R-INVs awaiting R-VAL.
    stored: SlotRing<StoredRInv>,
    /// Follower side: R-INVs buffered for pipeline order.
    buffered: SlotRing<BufferedRInv>,
}

/// A pipeline's most recently completed slot, as kept for R-VAL
/// retransmission.
#[derive(Debug, Default)]
struct LastCleared {
    slot: u64,
    /// Where the slot's R-VAL went; empty until a slot completes.
    targets: Vec<NodeId>,
}

fn keeps(live: &[NodeId], rejoined: &[NodeId], node: NodeId) -> bool {
    live.contains(&node) && !rejoined.contains(&node)
}

/// The per-node reliable-commit engine (coordinator and follower roles).
#[derive(Debug)]
pub struct CommitEngine {
    local: NodeId,
    epoch: Epoch,
    live: Vec<NodeId>,
    /// The host's clock as of [`CommitEngine::advance_clock`]; stamps sends
    /// and ages them for retransmission.
    now: u64,
    /// Per-pipeline state, sorted by pipeline id (a handful of entries: one
    /// per coordinator thread in the cluster this node has heard from).
    pipelines: Vec<(PipelineId, Pipeline)>,
    /// Entries across all coordinator-side rings, and how many are replays.
    outstanding: usize,
    replays: usize,
    /// How many coordinator-side ring entries update each object.
    pending_objects: IdHashMap<ObjectId, u32>,
    /// Set when a view change started a recovery that has not yet finished.
    recovering: bool,
    stats: CommitStats,
}

impl CommitEngine {
    /// Creates the engine for node `local` in a cluster of `cluster_size`
    /// nodes.
    pub fn new(local: NodeId, cluster_size: usize) -> Self {
        CommitEngine {
            local,
            epoch: Epoch::ZERO,
            live: (0..cluster_size as u16).map(NodeId).collect(),
            now: 0,
            pipelines: Vec::new(),
            outstanding: 0,
            replays: 0,
            pending_objects: IdHashMap::default(),
            recovering: false,
            stats: CommitStats::new(),
        }
    }

    /// This node's id.
    pub fn local(&self) -> NodeId {
        self.local
    }

    /// Current epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Protocol counters.
    pub fn stats(&self) -> &CommitStats {
        &self.stats
    }

    /// Number of reliable commits this node coordinates that are still in
    /// flight.
    pub fn outstanding_commits(&self) -> usize {
        self.outstanding
    }

    /// When the R-INV that [`CommitEngine::retransmit_into`] looks at first
    /// — the front of a pipeline's ring — last went out, earliest over the
    /// pipelines: nothing is re-sent before an interval has passed since
    /// then. `None` with nothing outstanding.
    pub fn oldest_unanswered_send(&self) -> Option<u64> {
        self.pipelines
            .iter()
            .filter_map(|(_, pipe)| pipe.ring.at(0))
            .map(|(_, entry)| entry.last_sent)
            .min()
    }

    /// Number of R-INVs stored as a follower awaiting validation.
    pub fn stored_rinvs(&self) -> usize {
        self.pipelines.iter().map(|(_, p)| p.stored.len()).sum()
    }

    /// Whether `object` appears in any commit this node is still propagating
    /// (the ownership protocol NACKs migrations of such objects, §4.1).
    pub fn object_has_pending_commit(&self, object: ObjectId) -> bool {
        self.pending_objects.contains_key(&object)
    }

    /// Tells the engine the host's current time (ticks). Messages the engine
    /// sends from here on are stamped with it, and
    /// [`CommitEngine::retransmit_into`] measures their age against it. A
    /// host that never calls this gets a clock stuck at 0: nothing ever ages.
    pub fn advance_clock(&mut self, now: u64) {
        self.now = self.now.max(now);
    }

    /// Discards commit state that may be stale after this node was expelled
    /// from the view and re-admitted.
    ///
    /// Outstanding coordinator-side commits are dropped: their epoch-stale
    /// R-INVs were never acknowledged and the cluster may have re-assigned
    /// ownership and committed conflicting versions in the meantime, so
    /// retransmitting them could resurrect dead writes (their loss is the
    /// documented crash-of-coordinator semantics). Follower-side stored and
    /// buffered R-INVs are dropped for the same reason — the host wipes the
    /// data store alongside this call. The per-pipeline cleared trackers and
    /// the local slot counters are deliberately kept: slots already seen by
    /// peers must never be reused or reprocessed.
    pub fn reset_for_rejoin(&mut self) {
        self.stats.rejoin_resets += 1;
        for (_, pipe) in &mut self.pipelines {
            pipe.ring.clear();
            pipe.last_cleared = LastCleared::default();
            pipe.ack_floors.clear();
            pipe.stored.clear();
            pipe.buffered.clear();
        }
        self.outstanding = 0;
        self.replays = 0;
        self.pending_objects.clear();
    }

    /// Starts the reliable commit of a locally committed transaction executed
    /// by worker `thread`. `updates` are the modified objects with their new
    /// versions and data; `followers` are the reader replicas of those
    /// objects. Returns the transaction id and the actions to apply.
    pub fn begin_commit(
        &mut self,
        thread: u16,
        updates: Vec<ObjectUpdate>,
        followers: Vec<NodeId>,
    ) -> (TxId, Vec<CommitAction>) {
        let mut actions = Vec::new();
        let tx_id = self.begin_commit_into(thread, updates, &followers, &mut actions);
        (tx_id, actions)
    }

    /// [`CommitEngine::begin_commit`], writing the output into `sink`.
    pub fn begin_commit_into(
        &mut self,
        thread: u16,
        updates: Vec<ObjectUpdate>,
        followers: &[NodeId],
        sink: &mut impl CommitSink,
    ) -> TxId {
        let pipeline = PipelineId::new(self.local, thread);
        let index = self.pipeline_index(pipeline);
        let pipe = &mut self.pipelines[index].1;
        let slot = pipe.next_local;
        pipe.next_local += 1;
        let tx_id = TxId::new(pipeline, slot);
        self.stats.commits_started += 1;

        let followers: Vec<(NodeId, bool)> = followers
            .iter()
            .filter(|f| **f != self.local && self.live.contains(f))
            .map(|&f| (f, false))
            .collect();

        // Pipelining bookkeeping: is the previous slot already validated?
        let prev = slot.checked_sub(1).and_then(|p| pipe.ring.get_mut(p));
        let prev_val = prev.is_none();
        if let Some(prev) = prev {
            for &(f, _) in &followers {
                if !prev.followers.iter().any(|&(p, _)| p == f)
                    && !prev.extra_val_targets.contains(&f)
                {
                    prev.extra_val_targets.push(f);
                }
            }
        }

        if followers.is_empty() {
            // Replication degree 1 (or all replicas dead): the local commit
            // is immediately reliable.
            self.stats.commits_completed += 1;
            sink.reliably_committed(tx_id, &updates);
            return tx_id;
        }

        let entry = Outstanding {
            followers,
            extra_val_targets: Vec::new(),
            updates,
            prev_val,
            is_replay: false,
            last_sent: self.now,
        };
        for &(to, _) in &entry.followers {
            sink.send(to, entry.rinv(tx_id, self.epoch, prev_val));
        }
        self.insert_outstanding(index, slot, entry);
        tx_id
    }

    /// Handles an incoming protocol message.
    pub fn handle_message(&mut self, from: NodeId, msg: CommitMsg) -> Vec<CommitAction> {
        let mut actions = Vec::new();
        self.handle_message_into(from, msg, &mut actions);
        actions
    }

    /// [`CommitEngine::handle_message`], writing the output into `sink`.
    pub fn handle_message_into(
        &mut self,
        from: NodeId,
        msg: CommitMsg,
        sink: &mut impl CommitSink,
    ) {
        match msg {
            CommitMsg::RInv {
                tx_id,
                epoch,
                followers,
                prev_val,
                updates,
            } => self.on_rinv(from, tx_id, epoch, followers, prev_val, updates, sink),
            CommitMsg::RAck {
                tx_id,
                from: acker,
                epoch,
            } => self.on_rack(tx_id, acker, epoch, sink),
            CommitMsg::RVal { tx_id, epoch } => self.on_rval(tx_id, epoch, sink),
        }
    }

    /// Installs a new membership view: bumps the epoch, prunes dead
    /// followers from in-flight commits and replays pending commits of dead
    /// coordinators (§5.1). Emits `RecoveryFinished` once nothing remains.
    ///
    /// `rejoined` nodes re-entered the view with wiped state: they are
    /// pruned from follower sets like dead nodes (they stopped being
    /// replicas), and commits *they* coordinated are replayed by their
    /// followers exactly like a dead coordinator's — the rejoined node
    /// dropped its outstanding set, so nobody else would ever validate
    /// them.
    pub fn on_view_change_into(
        &mut self,
        epoch: Epoch,
        live: Vec<NodeId>,
        rejoined: &[NodeId],
        sink: &mut impl CommitSink,
    ) {
        if epoch < self.epoch {
            return;
        }
        self.epoch = epoch;
        self.live = live;
        self.recovering = true;

        // 1. Coordinator side: drop dead followers and re-send our own
        //    pending R-INVs with the new epoch (pipelines and slots in
        //    order). Acks of an older epoch no longer count towards the
        //    cumulative-ack floors.
        for index in 0..self.pipelines.len() {
            let pipeline = self.pipelines[index].0;
            self.pipelines[index].1.ack_floors.clear();
            let mut at = 0;
            while let Some((slot, entry)) = self.pipelines[index].1.ring.at_mut(at) {
                let tx_id = TxId::new(pipeline, slot);
                entry
                    .followers
                    .retain(|&(f, _)| keeps(&self.live, rejoined, f));
                entry
                    .extra_val_targets
                    .retain(|&f| keeps(&self.live, rejoined, f));
                self.stats.replays += 1;
                if entry.fully_acked() {
                    let (_, entry) = self.pipelines[index]
                        .1
                        .ring
                        .remove_at(at)
                        .expect("entry just visited");
                    self.complete_outstanding(index, slot, entry, sink);
                } else {
                    for &(to, acked) in &entry.followers {
                        if !acked {
                            sink.send(to, entry.rinv(tx_id, self.epoch, entry.prev_val));
                        }
                    }
                    entry.last_sent = self.now;
                    at += 1;
                }
            }
        }

        // 2. Follower side: replay stored R-INVs whose coordinator died (or
        //    rejoined with wiped state, which loses its outstanding set).
        for index in 0..self.pipelines.len() {
            let pipeline = self.pipelines[index].0;
            if self.live.contains(&pipeline.node) && !rejoined.contains(&pipeline.node) {
                continue;
            }
            let mut at = 0;
            while let Some((slot, stored)) = self.pipelines[index].1.stored.at(at) {
                let tx_id = TxId::new(pipeline, slot);
                self.stats.replays += 1;
                let followers: Vec<(NodeId, bool)> = stored
                    .followers
                    .iter()
                    .filter(|&&f| f != self.local && keeps(&self.live, rejoined, f))
                    .map(|&f| (f, false))
                    .collect();
                if followers.is_empty() {
                    // We are the only surviving replica: validate immediately.
                    sink.validate_updates(tx_id, &stored.updates);
                    self.pipelines[index].1.stored.remove_at(at);
                    continue;
                }
                let entry = Outstanding {
                    followers,
                    extra_val_targets: Vec::new(),
                    updates: stored.updates.clone(),
                    prev_val: true,
                    is_replay: true,
                    last_sent: self.now,
                };
                for &(to, _) in &entry.followers {
                    sink.send(to, entry.rinv(tx_id, self.epoch, true));
                }
                self.insert_outstanding(index, slot, entry);
                at += 1;
            }
        }

        self.check_recovery_finished(sink);
    }

    /// Re-sends the R-INVs that have gone unacknowledged for `interval`
    /// ticks or more, to the followers that have not acknowledged yet.
    ///
    /// The paper assumes a retransmitting reliable transport underneath the
    /// protocols (§3.1); this is that retransmission hook. The hosting
    /// runtime calls it on every tick, after
    /// [`CommitEngine::advance_clock`]. Receivers treat duplicate R-INVs
    /// idempotently, so the interval only affects traffic, not safety. It
    /// also covers the epoch-transition race where an R-INV carrying the new
    /// epoch reaches a follower that has not installed the view yet (the
    /// follower drops it; without retransmission the commit would hang).
    ///
    /// Each R-INV has its own timer: its entry records when it last went
    /// out, and only an entry that old is re-sent. A call walks each ring
    /// from the front and stops at the first entry that is not due — slots
    /// are sent in order, so what lies behind it is younger still — which
    /// makes a call with nothing to re-send cost one comparison per
    /// pipeline, however much is outstanding. (After a re-send the front is
    /// the youngest entry for a while, and entries behind it that come due
    /// in the meantime wait for it: an R-INV is re-sent no earlier than
    /// `interval` after its last transmission and no later than twice that.)
    pub fn retransmit_into(&mut self, interval: u64, sink: &mut impl CommitSink) {
        let due = |sent: u64| self.now.saturating_sub(sent) >= interval;
        // Pipelines and slots in order: the message sequence must not depend
        // on anything but the protocol state (it would perturb the
        // simulator's RNG stream).
        for (pipeline, pipe) in &mut self.pipelines {
            let mut at = 0;
            let mut prev_slot = None;
            while let Some((slot, entry)) = pipe.ring.at_mut(at) {
                self.stats.ring_entries_visited += 1;
                if !due(entry.last_sent) {
                    break;
                }
                // Recompute the prev-VAL bit: the previous slot may have
                // completed since this R-INV was first built, and a follower
                // that never saw that slot needs the refreshed bit to apply
                // this one in pipeline order.
                let prev_outstanding = prev_slot.is_some_and(|p| p + 1 == slot);
                let prev_val = entry.prev_val || !prev_outstanding;
                let tx_id = TxId::new(*pipeline, slot);
                for &(to, acked) in &entry.followers {
                    if !acked {
                        self.stats.rinvs_retransmitted += 1;
                        sink.send(to, entry.rinv(tx_id, self.epoch, prev_val));
                    }
                }
                entry.last_sent = self.now;
                prev_slot = Some(slot);
                at += 1;
            }
            // Along with overdue R-INVs, re-broadcast the last cleared slot's
            // R-VAL while later slots are still outstanding: a follower whose
            // R-VAL for the cleared slot was lost (and that buffered a later
            // slot waiting for pipeline order) would otherwise never ACK,
            // pinning the owner in PendingCommit NACKs forever. An R-VAL is
            // never acknowledged itself; what shows it may have been lost is
            // a later slot going unacknowledged for a full interval.
            let cleared = &pipe.last_cleared;
            let resent_any = at > 0;
            let waiting = pipe
                .ring
                .last_slot()
                .is_some_and(|last| last > cleared.slot);
            if resent_any && waiting {
                self.stats.rvals_retransmitted += cleared.targets.len() as u64;
                for &to in &cleared.targets {
                    sink.send(
                        to,
                        CommitMsg::RVal {
                            tx_id: TxId::new(*pipeline, cleared.slot),
                            epoch: self.epoch,
                        },
                    );
                }
            }
        }
    }

    /// Index of `pipeline`'s state, created empty on first use.
    fn pipeline_index(&mut self, pipeline: PipelineId) -> usize {
        match self
            .pipelines
            .binary_search_by_key(&pipeline, |(id, _)| *id)
        {
            Ok(index) => index,
            Err(index) => {
                self.pipelines
                    .insert(index, (pipeline, Pipeline::default()));
                index
            }
        }
    }

    /// Puts `entry` into its ring (replacing a replay of an earlier view
    /// change, if any) and accounts for it.
    fn insert_outstanding(&mut self, index: usize, slot: u64, entry: Outstanding) {
        for update in &entry.updates {
            *self.pending_objects.entry(update.object).or_insert(0) += 1;
        }
        self.outstanding += 1;
        self.replays += usize::from(entry.is_replay);
        if let Some(old) = self.pipelines[index].1.ring.insert(slot, entry) {
            self.forget_outstanding(&old);
        }
    }

    /// Accounts for an entry that left its ring.
    fn forget_outstanding(&mut self, entry: &Outstanding) {
        for update in &entry.updates {
            if let Some(count) = self.pending_objects.get_mut(&update.object) {
                *count -= 1;
                if *count == 0 {
                    self.pending_objects.remove(&update.object);
                }
            }
        }
        self.outstanding -= 1;
        self.replays -= usize::from(entry.is_replay);
    }

    // ------------------------------------------------------------------
    // Follower side
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn on_rinv(
        &mut self,
        from: NodeId,
        tx_id: TxId,
        epoch: Epoch,
        followers: Vec<NodeId>,
        prev_val: bool,
        updates: Vec<ObjectUpdate>,
        sink: &mut impl CommitSink,
    ) {
        if epoch != self.epoch {
            return;
        }
        let index = self.pipeline_index(tx_id.pipeline);
        let pipe = &mut self.pipelines[index].1;
        let slot = tx_id.local;
        // Already stored (duplicate or replay), or already validated in the
        // past (the cleared tracker knows): just acknowledge (§5.1).
        if pipe.stored.contains(slot) || pipe.cleared.is_cleared(slot) {
            sink.send(from, self.rack(tx_id));
            return;
        }

        let in_order = slot == 0 || prev_val || pipe.cleared.is_cleared(slot - 1);
        if !in_order {
            self.stats.rinvs_buffered += 1;
            pipe.buffered.insert(
                slot,
                BufferedRInv {
                    from,
                    followers,
                    updates,
                },
            );
            return;
        }

        self.apply_rinv(index, from, tx_id, followers, updates, sink);
        self.drain_buffered(index, sink);
    }

    fn apply_rinv(
        &mut self,
        index: usize,
        from: NodeId,
        tx_id: TxId,
        followers: Vec<NodeId>,
        updates: Vec<ObjectUpdate>,
        sink: &mut impl CommitSink,
    ) {
        self.stats.rinvs_applied += 1;
        let pipe = &mut self.pipelines[index].1;
        pipe.cleared.mark(tx_id.local);
        sink.apply_updates(tx_id, &updates);
        pipe.stored
            .insert(tx_id.local, StoredRInv { followers, updates });
        sink.send(from, self.rack(tx_id));
    }

    /// Applies every buffered R-INV of the pipeline whose predecessor has
    /// been cleared, lowest slot first.
    fn drain_buffered(&mut self, index: usize, sink: &mut impl CommitSink) {
        loop {
            let (pipeline, pipe) = &mut self.pipelines[index];
            let ready = pipe
                .buffered
                .iter()
                .map(|(slot, _)| slot)
                .find(|&slot| slot == 0 || pipe.cleared.is_cleared(slot - 1));
            let Some(slot) = ready else { break };
            let item = pipe.buffered.remove(slot).expect("buffered item exists");
            let tx_id = TxId::new(*pipeline, slot);
            self.apply_rinv(index, item.from, tx_id, item.followers, item.updates, sink);
        }
    }

    fn on_rval(&mut self, tx_id: TxId, epoch: Epoch, sink: &mut impl CommitSink) {
        if epoch != self.epoch {
            return;
        }
        // R-VAL clears the slot even if we never saw its R-INV (partial
        // pipeline streams, §5.2).
        let index = self.pipeline_index(tx_id.pipeline);
        let pipe = &mut self.pipelines[index].1;
        pipe.cleared.mark(tx_id.local);
        if let Some(stored) = pipe.stored.remove(tx_id.local) {
            self.stats.rvals_applied += 1;
            sink.validate_updates(tx_id, &stored.updates);
        }
        self.drain_buffered(index, sink);
        self.check_recovery_finished(sink);
    }

    fn rack(&self, tx_id: TxId) -> CommitMsg {
        CommitMsg::RAck {
            tx_id,
            from: self.local,
            epoch: self.epoch,
        }
    }

    // ------------------------------------------------------------------
    // Coordinator side
    // ------------------------------------------------------------------

    fn on_rack(&mut self, tx_id: TxId, acker: NodeId, epoch: Epoch, sink: &mut impl CommitSink) {
        if epoch != self.epoch {
            return;
        }
        let index = self.pipeline_index(tx_id.pipeline);
        let pipe = &mut self.pipelines[index].1;
        let Some(last) = pipe.ring.last_slot() else {
            return;
        };
        // R-ACKs are cumulative within a pipeline (§5.2): acknowledging slot
        // `n` implies every earlier slot from the same pipeline was received
        // and processed by that follower. Everything below the follower's
        // floor has already been marked by an earlier ack of this epoch, so
        // only the slots from the floor up to `n` are visited.
        let upto = tx_id.local.min(last);
        let from = match pipe.ack_floors.iter_mut().find(|(node, _)| *node == acker) {
            Some((_, floor)) => std::mem::replace(floor, (*floor).max(upto + 1)),
            None => {
                pipe.ack_floors.push((acker, upto + 1));
                0
            }
        };
        let (Ok(mut at) | Err(mut at)) = pipe.ring.index_of(from);
        while let Some((slot, entry)) = self.pipelines[index].1.ring.at_mut(at) {
            if slot > upto {
                break;
            }
            self.stats.ring_entries_visited += 1;
            if let Some((_, acked)) = entry.followers.iter_mut().find(|(f, _)| *f == acker) {
                *acked = true;
            }
            if entry.fully_acked() {
                let (_, entry) = self.pipelines[index]
                    .1
                    .ring
                    .remove_at(at)
                    .expect("entry just visited");
                self.complete_outstanding(index, slot, entry, sink);
            } else {
                at += 1;
            }
        }
    }

    /// Finishes an outstanding commit that has just left its ring: emit the
    /// local completion and broadcast R-VALs.
    fn complete_outstanding(
        &mut self,
        index: usize,
        slot: u64,
        entry: Outstanding,
        sink: &mut impl CommitSink,
    ) {
        self.forget_outstanding(&entry);
        let (pipeline, pipe) = &mut self.pipelines[index];
        let tx_id = TxId::new(*pipeline, slot);
        if entry.is_replay {
            // Validate our own (follower) copy of the replayed commit.
            pipe.stored.remove(slot);
            pipe.cleared.mark(slot);
            sink.validate_updates(tx_id, &entry.updates);
        } else {
            self.stats.commits_completed += 1;
            sink.reliably_committed(tx_id, &entry.updates);
        }
        // Remember the cleared slot and its targets so the retransmission
        // tick can re-broadcast this R-VAL while later slots of the same
        // pipeline are still in flight (see `retransmit_into`).
        let cleared = &mut pipe.last_cleared;
        let remember = cleared.targets.is_empty() || slot >= cleared.slot;
        if remember {
            cleared.slot = slot;
            cleared.targets.clear();
        }
        let followers = entry.followers.iter().map(|&(f, _)| f);
        let extras = entry
            .extra_val_targets
            .iter()
            .copied()
            .filter(|e| !entry.followers.iter().any(|(f, _)| f == e));
        for to in followers.chain(extras) {
            if remember {
                cleared.targets.push(to);
            }
            sink.send(
                to,
                CommitMsg::RVal {
                    tx_id,
                    epoch: self.epoch,
                },
            );
        }
        self.check_recovery_finished(sink);
    }

    // ------------------------------------------------------------------
    // Recovery bookkeeping
    // ------------------------------------------------------------------

    fn check_recovery_finished(&mut self, sink: &mut impl CommitSink) {
        if !self.recovering || self.replays > 0 {
            return;
        }
        let pending_dead_stored = self
            .pipelines
            .iter()
            .any(|(id, pipe)| !pipe.stored.is_empty() && !self.live.contains(&id.node));
        if pending_dead_stored {
            return;
        }
        self.recovering = false;
        sink.recovery_finished(self.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::collections::HashSet;

    fn upd(object: u64, version: u64) -> ObjectUpdate {
        ObjectUpdate::new(
            ObjectId(object),
            DataTs::new(version, zeus_proto::OwnershipTs::default()),
            Bytes::from(vec![version as u8; 16]),
        )
    }

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    /// What a view change without rejoiners makes `engine` put out.
    fn on_view_change(
        engine: &mut CommitEngine,
        epoch: Epoch,
        live: Vec<NodeId>,
    ) -> Vec<CommitAction> {
        let mut actions = Vec::new();
        engine.on_view_change_into(epoch, live, &[], &mut actions);
        actions
    }

    /// What `engine` re-sends of what has waited `interval` ticks.
    fn retransmit(engine: &mut CommitEngine, interval: u64) -> Vec<CommitAction> {
        let mut actions = Vec::new();
        engine.retransmit_into(interval, &mut actions);
        actions
    }

    /// Routes messages between engines until quiescence, returning all
    /// non-Send actions per node.
    struct Cluster {
        engines: Vec<CommitEngine>,
        queue: std::collections::VecDeque<(NodeId, NodeId, CommitMsg)>,
        events: Vec<Vec<CommitAction>>,
        crashed: HashSet<NodeId>,
    }

    impl Cluster {
        fn new(size: usize) -> Self {
            Cluster {
                engines: (0..size as u16)
                    .map(|i| CommitEngine::new(NodeId(i), size))
                    .collect(),
                queue: Default::default(),
                events: vec![Vec::new(); size],
                crashed: HashSet::new(),
            }
        }

        fn apply(&mut self, node: NodeId, actions: Vec<CommitAction>) {
            for a in actions {
                match a {
                    CommitAction::Send { to, msg } => self.queue.push_back((to, node, msg)),
                    other => self.events[node.index()].push(other),
                }
            }
        }

        fn begin(
            &mut self,
            node: NodeId,
            thread: u16,
            updates: Vec<ObjectUpdate>,
            followers: Vec<NodeId>,
        ) -> TxId {
            let (tx, actions) = self.engines[node.index()].begin_commit(thread, updates, followers);
            self.apply(node, actions);
            tx
        }

        fn run(&mut self) {
            let mut steps = 0;
            while let Some((to, from, msg)) = self.queue.pop_front() {
                steps += 1;
                assert!(steps < 100_000, "commit protocol did not quiesce");
                if self.crashed.contains(&to) || self.crashed.contains(&from) {
                    continue;
                }
                let actions = self.engines[to.index()].handle_message(from, msg);
                self.apply(to, actions);
            }
        }

        fn committed(&self, node: NodeId) -> Vec<TxId> {
            self.events[node.index()]
                .iter()
                .filter_map(|a| match a {
                    CommitAction::ReliablyCommitted { tx_id, .. } => Some(*tx_id),
                    _ => None,
                })
                .collect()
        }

        fn validated(&self, node: NodeId) -> Vec<TxId> {
            self.events[node.index()]
                .iter()
                .filter_map(|a| match a {
                    CommitAction::ValidateUpdates { tx_id, .. } => Some(*tx_id),
                    _ => None,
                })
                .collect()
        }

        fn applied(&self, node: NodeId) -> Vec<TxId> {
            self.events[node.index()]
                .iter()
                .filter_map(|a| match a {
                    CommitAction::ApplyUpdates { tx_id, .. } => Some(*tx_id),
                    _ => None,
                })
                .collect()
        }

        fn view_change(&mut self) {
            let live: Vec<NodeId> = (0..self.engines.len() as u16)
                .map(NodeId)
                .filter(|x| !self.crashed.contains(x))
                .collect();
            let epoch = self.engines[live[0].index()].epoch().next();
            for node in live.clone() {
                let actions = on_view_change(&mut self.engines[node.index()], epoch, live.clone());
                self.apply(node, actions);
            }
        }
    }

    #[test]
    fn basic_commit_completes_with_single_round_trip_plus_val() {
        let mut c = Cluster::new(3);
        let tx = c.begin(n(0), 0, vec![upd(1, 1), upd(2, 1)], vec![n(1), n(2)]);
        c.run();
        assert_eq!(c.committed(n(0)), vec![tx]);
        assert_eq!(c.applied(n(1)), vec![tx]);
        assert_eq!(c.applied(n(2)), vec![tx]);
        assert_eq!(c.validated(n(1)), vec![tx]);
        assert_eq!(c.validated(n(2)), vec![tx]);
        assert_eq!(c.engines[0].outstanding_commits(), 0);
        assert_eq!(c.engines[1].stored_rinvs(), 0);
    }

    #[test]
    fn no_followers_commits_immediately() {
        let mut c = Cluster::new(1);
        let tx = c.begin(n(0), 0, vec![upd(1, 1)], vec![]);
        c.run();
        assert_eq!(c.committed(n(0)), vec![tx]);
    }

    #[test]
    fn pipelined_commits_are_applied_in_slot_order() {
        let mut c = Cluster::new(2);
        // Issue three pipelined commits before any R-ACK comes back.
        let t0 = c.begin(n(0), 0, vec![upd(1, 1)], vec![n(1)]);
        let t1 = c.begin(n(0), 0, vec![upd(1, 2)], vec![n(1)]);
        let t2 = c.begin(n(0), 0, vec![upd(2, 1)], vec![n(1)]);
        assert_eq!(c.engines[0].outstanding_commits(), 3);
        c.run();
        assert_eq!(c.committed(n(0)), vec![t0, t1, t2]);
        assert_eq!(c.applied(n(1)), vec![t0, t1, t2], "slot order respected");
    }

    #[test]
    fn out_of_order_rinv_is_buffered_until_predecessor() {
        let mut e = CommitEngine::new(n(1), 2);
        let p = PipelineId::new(n(0), 0);
        // Slot 1 arrives before slot 0 and without the prev-VAL bit.
        let a1 = e.handle_message(
            n(0),
            CommitMsg::RInv {
                tx_id: TxId::new(p, 1),
                epoch: Epoch::ZERO,
                followers: vec![n(1)],
                prev_val: false,
                updates: vec![upd(5, 2)],
            },
        );
        assert!(a1.is_empty(), "buffered, no ack yet");
        let a0 = e.handle_message(
            n(0),
            CommitMsg::RInv {
                tx_id: TxId::new(p, 0),
                epoch: Epoch::ZERO,
                followers: vec![n(1)],
                prev_val: false,
                updates: vec![upd(5, 1)],
            },
        );
        // Both slots now apply, in order.
        let applied: Vec<TxId> = a0
            .iter()
            .filter_map(|a| match a {
                CommitAction::ApplyUpdates { tx_id, .. } => Some(*tx_id),
                _ => None,
            })
            .collect();
        assert_eq!(applied, vec![TxId::new(p, 0), TxId::new(p, 1)]);
        assert_eq!(e.stats().rinvs_buffered, 1);
    }

    #[test]
    fn prev_val_bit_lets_partial_stream_follower_apply() {
        let mut e = CommitEngine::new(n(1), 2);
        let p = PipelineId::new(n(0), 0);
        let actions = e.handle_message(
            n(0),
            CommitMsg::RInv {
                tx_id: TxId::new(p, 7),
                epoch: Epoch::ZERO,
                followers: vec![n(1)],
                prev_val: true,
                updates: vec![upd(9, 3)],
            },
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a, CommitAction::ApplyUpdates { .. })));
    }

    #[test]
    fn rval_for_unseen_slot_clears_the_pipeline_gap() {
        let mut e = CommitEngine::new(n(1), 3);
        let p = PipelineId::new(n(0), 0);
        // Slot 4 arrives, not in order and no prev-VAL: buffered.
        assert!(e
            .handle_message(
                n(0),
                CommitMsg::RInv {
                    tx_id: TxId::new(p, 4),
                    epoch: Epoch::ZERO,
                    followers: vec![n(1)],
                    prev_val: false,
                    updates: vec![upd(2, 2)],
                },
            )
            .is_empty());
        // The coordinator includes us in the R-VAL broadcast of slot 3.
        let actions = e.handle_message(
            n(0),
            CommitMsg::RVal {
                tx_id: TxId::new(p, 3),
                epoch: Epoch::ZERO,
            },
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a, CommitAction::ApplyUpdates { tx_id, .. } if tx_id.local == 4)));
    }

    #[test]
    fn retransmission_unwedges_follower_buffered_behind_lost_rval() {
        // Coordinator n0 commits slot 0 (follower n1) and slot 1 (follower
        // n2). n2 buffers slot 1 (prev_val=false, never saw slot 0). Slot 0
        // completes via n1's ack, but the R-VAL broadcast does not reach n2
        // (it was not a target). Without the retransmission-tick R-VAL
        // re-broadcast, n2 would buffer slot 1 forever.
        let mut coord = CommitEngine::new(n(0), 3);
        let mut follower = CommitEngine::new(n(2), 3);
        let (t0, _a0) = coord.begin_commit(0, vec![upd(1, 1)], vec![n(1)]);
        let (t1, _a1) = coord.begin_commit(0, vec![upd(2, 1)], vec![n(2)]);
        // n2 receives slot 1 out of order: buffered, no ack.
        assert!(follower
            .handle_message(
                n(0),
                CommitMsg::RInv {
                    tx_id: t1,
                    epoch: Epoch::ZERO,
                    followers: vec![n(2)],
                    prev_val: false,
                    updates: vec![upd(2, 1)],
                },
            )
            .is_empty());
        // Slot 0 completes (n1 acked); its R-VAL targeted n1 only.
        let done = coord.handle_message(
            n(1),
            CommitMsg::RAck {
                tx_id: t0,
                from: n(1),
                epoch: Epoch::ZERO,
            },
        );
        assert!(done
            .iter()
            .any(|a| matches!(a, CommitAction::ReliablyCommitted { tx_id, .. } if *tx_id == t0)));
        assert_eq!(coord.outstanding_commits(), 1, "slot 1 still in flight");

        // The retransmission tick re-broadcasts slot 0's R-VAL (and slot 1's
        // R-INV with a refreshed prev-VAL bit); either unwedges n2.
        let retrans = retransmit(&mut coord, 0);
        let rval_slot0 = retrans.iter().find_map(|a| match a {
            CommitAction::Send {
                msg: msg @ CommitMsg::RVal { tx_id, .. },
                ..
            } if *tx_id == t0 => Some(msg.clone()),
            _ => None,
        });
        let rval_slot0 = rval_slot0.expect("cleared slot's R-VAL must be retransmitted");
        assert!(coord.stats().rvals_retransmitted >= 1);
        let refreshed_prev_val = retrans.iter().any(|a| {
            matches!(
                a,
                CommitAction::Send {
                    msg: CommitMsg::RInv {
                        tx_id,
                        prev_val: true,
                        ..
                    },
                    ..
                } if *tx_id == t1
            )
        });
        assert!(
            refreshed_prev_val,
            "retransmitted R-INV recomputes prev_val"
        );
        // Delivering the retransmitted R-VAL alone drains n2's buffer.
        let actions = follower.handle_message(n(0), rval_slot0);
        assert!(actions
            .iter()
            .any(|a| matches!(a, CommitAction::ApplyUpdates { tx_id, .. } if *tx_id == t1)));
        assert!(actions.iter().any(|a| matches!(
            a,
            CommitAction::Send {
                msg: CommitMsg::RAck { tx_id, .. },
                ..
            } if *tx_id == t1
        )));
    }

    #[test]
    fn duplicate_rinv_is_acked_but_not_reapplied() {
        let mut c = Cluster::new(2);
        let tx = c.begin(n(0), 0, vec![upd(1, 1)], vec![n(1)]);
        c.run();
        // Replay the same R-INV.
        let actions = c.engines[1].handle_message(
            n(0),
            CommitMsg::RInv {
                tx_id: tx,
                epoch: Epoch::ZERO,
                followers: vec![n(1)],
                prev_val: true,
                updates: vec![upd(1, 1)],
            },
        );
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            CommitAction::Send {
                msg: CommitMsg::RAck { .. },
                ..
            }
        ));
    }

    #[test]
    fn stale_epoch_messages_are_ignored() {
        let mut e = CommitEngine::new(n(1), 2);
        on_view_change(&mut e, Epoch(3), vec![n(0), n(1)]);
        let actions = e.handle_message(
            n(0),
            CommitMsg::RInv {
                tx_id: TxId::new(PipelineId::new(n(0), 0), 0),
                epoch: Epoch(1),
                followers: vec![n(1)],
                prev_val: true,
                updates: vec![upd(1, 1)],
            },
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn coordinator_failure_is_replayed_by_follower() {
        let mut c = Cluster::new(3);
        let tx = c.begin(n(0), 0, vec![upd(7, 1)], vec![n(1), n(2)]);
        // Deliver the R-INVs but crash the coordinator before R-ACKs return,
        // so followers hold the data invalidated.
        // First deliver only R-INV messages:
        let mut rinvs = Vec::new();
        while let Some((to, from, msg)) = c.queue.pop_front() {
            if matches!(msg, CommitMsg::RInv { .. }) {
                rinvs.push((to, from, msg));
            }
        }
        for (to, from, msg) in rinvs {
            let actions = c.engines[to.index()].handle_message(from, msg);
            // Drop the resulting R-ACKs (coordinator is about to die).
            for a in actions {
                if let CommitAction::Send { .. } = a {
                    continue;
                }
                c.events[to.index()].push(a);
            }
        }
        assert_eq!(c.applied(n(1)), vec![tx]);
        assert!(c.validated(n(1)).is_empty(), "not yet validated");

        c.crashed.insert(n(0));
        c.view_change();
        c.run();
        // Both surviving followers validated the replayed transaction.
        assert_eq!(c.validated(n(1)), vec![tx]);
        assert_eq!(c.validated(n(2)), vec![tx]);
        // Recovery completes on both.
        for node in [n(1), n(2)] {
            assert!(
                c.events[node.index()]
                    .iter()
                    .any(|a| matches!(a, CommitAction::RecoveryFinished { .. })),
                "{node} must finish recovery"
            );
        }
    }

    #[test]
    fn follower_failure_lets_coordinator_finish_with_survivors() {
        let mut c = Cluster::new(3);
        let tx = c.begin(n(0), 0, vec![upd(3, 1)], vec![n(1), n(2)]);
        // Node 2 dies before receiving anything.
        c.crashed.insert(n(2));
        c.run();
        assert!(c.committed(n(0)).is_empty(), "missing ack from dead node");
        c.view_change();
        c.run();
        assert_eq!(c.committed(n(0)), vec![tx]);
        assert_eq!(c.validated(n(1)), vec![tx]);
    }

    #[test]
    fn pending_commit_visibility_for_ownership() {
        let mut c = Cluster::new(2);
        let _ = c.begin(n(0), 0, vec![upd(42, 1)], vec![n(1)]);
        assert!(c.engines[0].object_has_pending_commit(ObjectId(42)));
        assert!(!c.engines[0].object_has_pending_commit(ObjectId(43)));
        c.run();
        assert!(!c.engines[0].object_has_pending_commit(ObjectId(42)));
    }

    #[test]
    fn per_thread_pipelines_are_independent() {
        let mut c = Cluster::new(2);
        let t_a = c.begin(n(0), 0, vec![upd(1, 1)], vec![n(1)]);
        let t_b = c.begin(n(0), 1, vec![upd(2, 1)], vec![n(1)]);
        assert_eq!(t_a.pipeline.thread, 0);
        assert_eq!(t_b.pipeline.thread, 1);
        assert_eq!(t_a.local, 0);
        assert_eq!(t_b.local, 0, "each thread has its own slot counter");
        c.run();
        assert_eq!(c.committed(n(0)).len(), 2);
    }

    #[test]
    fn stats_reflect_activity() {
        let mut c = Cluster::new(2);
        c.begin(n(0), 0, vec![upd(1, 1)], vec![n(1)]);
        c.begin(n(0), 0, vec![upd(1, 2)], vec![n(1)]);
        c.run();
        assert_eq!(c.engines[0].stats().commits_started, 2);
        assert_eq!(c.engines[0].stats().commits_completed, 2);
        assert_eq!(c.engines[1].stats().rinvs_applied, 2);
        assert_eq!(c.engines[1].stats().rvals_applied, 2);
    }

    // ------------------------------------------------------------------
    // The ring
    // ------------------------------------------------------------------

    fn rack(tx_id: TxId, from: u16) -> CommitMsg {
        CommitMsg::RAck {
            tx_id,
            from: n(from),
            epoch: Epoch::ZERO,
        }
    }

    fn committed_in(actions: &[CommitAction]) -> Vec<TxId> {
        actions
            .iter()
            .filter_map(|a| match a {
                CommitAction::ReliablyCommitted { tx_id, .. } => Some(*tx_id),
                _ => None,
            })
            .collect()
    }

    fn rvals_in(actions: &[CommitAction]) -> Vec<(NodeId, TxId)> {
        actions
            .iter()
            .filter_map(|a| match a {
                CommitAction::Send {
                    to,
                    msg: CommitMsg::RVal { tx_id, .. },
                } => Some((*to, *tx_id)),
                _ => None,
            })
            .collect()
    }

    fn rinvs_in(actions: &[CommitAction]) -> Vec<(NodeId, TxId)> {
        actions
            .iter()
            .filter_map(|a| match a {
                CommitAction::Send {
                    to,
                    msg: CommitMsg::RInv { tx_id, .. },
                } => Some((*to, *tx_id)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_later_slot_completes_before_an_earlier_one() {
        // Slot 0 goes to n1, slot 1 to n2, slot 2 to both. n2 answers first.
        let mut coord = CommitEngine::new(n(0), 3);
        let (t0, _) = coord.begin_commit(0, vec![upd(1, 1)], vec![n(1)]);
        let (t1, _) = coord.begin_commit(0, vec![upd(2, 1)], vec![n(2)]);
        let (t2, _) = coord.begin_commit(0, vec![upd(3, 1)], vec![n(1), n(2)]);
        let done = coord.handle_message(n(2), rack(t1, 2));
        assert_eq!(
            committed_in(&done),
            vec![t1],
            "slot 1 does not wait for slot 0"
        );
        // Slot 2 took n1 on as an R-VAL target of slot 1 (not its follower).
        assert_eq!(rvals_in(&done), vec![(n(2), t1), (n(1), t1)]);
        assert_eq!(coord.outstanding_commits(), 2);
        assert!(coord.object_has_pending_commit(ObjectId(1)));
        assert!(!coord.object_has_pending_commit(ObjectId(2)));
        // The hole left in the middle does not confuse what is around it.
        let done = coord.handle_message(n(1), rack(t2, 1));
        assert_eq!(
            committed_in(&done),
            vec![t0],
            "n1's ack of slot 2 covers slot 0"
        );
        let done = coord.handle_message(n(2), rack(t2, 2));
        assert_eq!(committed_in(&done), vec![t2]);
        assert_eq!(coord.outstanding_commits(), 0);
        // A fourth commit sees its predecessor validated.
        let (_, actions) = coord.begin_commit(0, vec![upd(4, 1)], vec![n(1)]);
        assert!(matches!(
            &actions[0],
            CommitAction::Send {
                msg: CommitMsg::RInv { prev_val: true, .. },
                ..
            }
        ));
    }

    #[test]
    fn a_cumulative_ack_reaches_across_slots_the_acker_does_not_follow() {
        let mut coord = CommitEngine::new(n(0), 3);
        let (t0, _) = coord.begin_commit(0, vec![upd(1, 1)], vec![n(1)]);
        let (t1, _) = coord.begin_commit(0, vec![upd(2, 1)], vec![n(2)]);
        let (t2, _) = coord.begin_commit(0, vec![upd(3, 1)], vec![n(1)]);
        // n1 follows slots 0 and 2 only; acknowledging 2 settles both and
        // leaves slot 1 (n2's) alone.
        let done = coord.handle_message(n(1), rack(t2, 1));
        assert_eq!(committed_in(&done), vec![t0, t2]);
        assert_eq!(coord.outstanding_commits(), 1);
        // A duplicate of the same ack finds nothing left to do.
        let visited = coord.stats().ring_entries_visited;
        assert!(coord.handle_message(n(1), rack(t2, 1)).is_empty());
        assert_eq!(coord.stats().ring_entries_visited, visited);
        assert_eq!(
            committed_in(&coord.handle_message(n(2), rack(t1, 2))),
            vec![t1]
        );
    }

    #[test]
    fn an_ack_visits_only_the_slots_since_the_ackers_last_one() {
        let mut coord = CommitEngine::new(n(0), 3);
        let txs: Vec<TxId> = (0..100)
            .map(|v| coord.begin_commit(0, vec![upd(v, 1)], vec![n(1), n(2)]).0)
            .collect();
        // n1 acknowledges every slot while n2 is silent: nothing completes,
        // the ring stays 100 long, and still each ack looks at one entry.
        for &tx in &txs {
            assert!(coord.handle_message(n(1), rack(tx, 1)).is_empty());
        }
        assert_eq!(coord.stats().ring_entries_visited, 100);
        // One cumulative ack from n2 then settles all of them, in order.
        let done = coord.handle_message(n(2), rack(txs[99], 2));
        assert_eq!(committed_in(&done), txs);
        assert_eq!(coord.stats().ring_entries_visited, 200);
        assert_eq!(coord.outstanding_commits(), 0);
    }

    #[test]
    fn a_view_change_prunes_followers_in_the_middle_of_the_ring() {
        let mut coord = CommitEngine::new(n(0), 3);
        let (t0, _) = coord.begin_commit(0, vec![upd(1, 1)], vec![n(1), n(2)]);
        let (t1, _) = coord.begin_commit(0, vec![upd(2, 1)], vec![n(2)]);
        let (t2, _) = coord.begin_commit(0, vec![upd(3, 1)], vec![n(1), n(2)]);
        // n1 acknowledged slot 0 (only); then n2 is expelled.
        assert!(coord.handle_message(n(1), rack(t0, 1)).is_empty());
        let actions = on_view_change(&mut coord, Epoch(1), vec![n(0), n(1)]);
        // Slot 0 has every remaining follower's ack, slot 1 has no follower
        // left: both complete. Slot 2 still waits for n1 and is re-sent to
        // it alone, under the new epoch.
        assert_eq!(committed_in(&actions), vec![t0, t1]);
        // (Slot 1's R-VAL goes to n1 as the extra target slot 2 made of it.)
        assert_eq!(rvals_in(&actions), vec![(n(1), t0), (n(1), t1)]);
        assert_eq!(rinvs_in(&actions), vec![(n(1), t2)]);
        assert!(actions.iter().any(|a| matches!(
            a,
            CommitAction::Send {
                msg: CommitMsg::RInv { epoch: Epoch(1), followers, .. },
                ..
            } if followers == &[n(1)]
        )));
        assert_eq!(coord.outstanding_commits(), 1);
        // Acks of the old epoch are void; the floor restarts with the view.
        assert!(coord.handle_message(n(1), rack(t2, 1)).is_empty());
        let fresh = CommitMsg::RAck {
            tx_id: t2,
            from: n(1),
            epoch: Epoch(1),
        };
        assert_eq!(committed_in(&coord.handle_message(n(1), fresh)), vec![t2]);
    }

    #[test]
    fn a_rejoin_reset_empties_the_rings_but_never_reuses_a_slot() {
        let mut coord = CommitEngine::new(n(0), 2);
        let (t0, _) = coord.begin_commit(0, vec![upd(7, 1)], vec![n(1)]);
        let (t1, _) = coord.begin_commit(0, vec![upd(7, 2)], vec![n(1)]);
        coord.reset_for_rejoin();
        assert_eq!(coord.outstanding_commits(), 0);
        assert!(!coord.object_has_pending_commit(ObjectId(7)));
        assert_eq!(coord.stats().rejoin_resets, 1);
        assert!(
            retransmit(&mut coord, 0).is_empty(),
            "nothing left to re-send"
        );
        // Late acks for the dropped commits are harmless.
        assert!(coord.handle_message(n(1), rack(t1, 1)).is_empty());
        let (t2, actions) = coord.begin_commit(0, vec![upd(7, 3)], vec![n(1)]);
        assert_eq!((t0.local, t1.local, t2.local), (0, 1, 2));
        assert!(
            matches!(
                &actions[0],
                CommitAction::Send {
                    msg: CommitMsg::RInv { prev_val: true, .. },
                    ..
                }
            ),
            "the dropped predecessor is not waited for"
        );
        assert_eq!(
            committed_in(&coord.handle_message(n(1), rack(t2, 1))),
            vec![t2]
        );
    }

    #[test]
    fn replays_of_a_dead_coordinator_sit_next_to_the_nodes_own_slots() {
        // n1 follows n0's pipeline (slots 3 and 8 of a partial stream) and
        // coordinates commits of its own; then n0 dies.
        let mut e = CommitEngine::new(n(1), 3);
        let dead = PipelineId::new(n(0), 0);
        for slot in [3, 8] {
            e.handle_message(
                n(0),
                CommitMsg::RInv {
                    tx_id: TxId::new(dead, slot),
                    epoch: Epoch::ZERO,
                    followers: vec![n(1), n(2)],
                    prev_val: true,
                    updates: vec![upd(100 + slot, 1)],
                },
            );
        }
        let (own0, _) = e.begin_commit(0, vec![upd(1, 1)], vec![n(2)]);
        let (own1, _) = e.begin_commit(0, vec![upd(2, 1)], vec![n(2)]);
        let actions = on_view_change(&mut e, Epoch(1), vec![n(1), n(2)]);
        assert_eq!(e.outstanding_commits(), 4, "two own commits, two replays");
        assert!(e.object_has_pending_commit(ObjectId(103)));
        // Own slots are re-sent first (pipelines in id order: n0's replays
        // do not exist yet when step 1 runs), then the replays go out.
        let replay3 = TxId::new(dead, 3);
        let replay8 = TxId::new(dead, 8);
        assert_eq!(
            rinvs_in(&actions),
            vec![(n(2), own0), (n(2), own1), (n(2), replay3), (n(2), replay8)]
        );
        assert!(!actions
            .iter()
            .any(|a| matches!(a, CommitAction::RecoveryFinished { .. })));
        let ack = |tx_id| CommitMsg::RAck {
            tx_id,
            from: n(2),
            epoch: Epoch(1),
        };
        // A cumulative ack on the dead pipeline settles both replays (as
        // validations of n1's own follower copies) and finishes recovery;
        // the own pipeline is untouched by it.
        let done = e.handle_message(n(2), ack(replay8));
        let validated: Vec<TxId> = done
            .iter()
            .filter_map(|a| match a {
                CommitAction::ValidateUpdates { tx_id, .. } => Some(*tx_id),
                _ => None,
            })
            .collect();
        assert_eq!(validated, vec![replay3, replay8]);
        assert!(matches!(
            done.last(),
            Some(CommitAction::RecoveryFinished { epoch: Epoch(1) })
        ));
        assert_eq!(e.stored_rinvs(), 0);
        assert_eq!(e.outstanding_commits(), 2);
        assert_eq!(
            committed_in(&e.handle_message(n(2), ack(own1))),
            vec![own0, own1]
        );
    }

    #[test]
    fn five_thousand_slots_pass_through_one_pipeline() {
        // A window of up to 64 commits in flight slides over 5,000 slots, so
        // the ring's storage wraps many times and every lookup is relative
        // to a front that keeps moving.
        let mut c = Cluster::new(3);
        let mut issued = Vec::new();
        for slot in 0..5_000u64 {
            issued.push(c.begin(n(0), 0, vec![upd(slot % 97, slot + 1)], vec![n(1), n(2)]));
            assert_eq!(issued.last().unwrap().local, slot);
            if c.engines[0].outstanding_commits() == 64 {
                c.run();
                assert_eq!(c.engines[0].outstanding_commits(), 0);
            }
        }
        c.run();
        assert_eq!(c.committed(n(0)), issued, "every slot, in slot order");
        assert_eq!(c.applied(n(1)), issued);
        assert_eq!(c.validated(n(2)), issued);
        assert_eq!(c.engines[1].stored_rinvs(), 0);
        for object in 0..97 {
            assert!(!c.engines[0].object_has_pending_commit(ObjectId(object)));
        }
        // Two acks per commit, each looking at exactly its own slot.
        assert_eq!(c.engines[0].stats().ring_entries_visited, 10_000);
    }

    #[test]
    fn only_an_rinv_a_full_interval_old_is_retransmitted() {
        let mut coord = CommitEngine::new(n(0), 2);
        coord.advance_clock(100);
        let (t0, _) = coord.begin_commit(0, vec![upd(1, 1)], vec![n(1)]);
        coord.advance_clock(130);
        let (t1, _) = coord.begin_commit(0, vec![upd(2, 1)], vec![n(1)]);
        coord.advance_clock(163);
        assert!(
            retransmit(&mut coord, 64).is_empty(),
            "slot 0 is 63 ticks old"
        );
        coord.advance_clock(164);
        assert_eq!(rinvs_in(&retransmit(&mut coord, 64)), vec![(n(1), t0)]);
        assert_eq!(coord.stats().rinvs_retransmitted, 1);
        // Re-sent slot 0 is now the youngest; slot 1 (due at 194) waits
        // behind it until it is due again, and then both go.
        coord.advance_clock(200);
        assert!(retransmit(&mut coord, 64).is_empty());
        coord.advance_clock(228);
        assert_eq!(
            rinvs_in(&retransmit(&mut coord, 64)),
            vec![(n(1), t0), (n(1), t1)]
        );
        // Once slot 0 completes, the cleared slot's R-VAL rides along with
        // the next overdue R-INV, not with a young one.
        assert_eq!(
            committed_in(&coord.handle_message(n(1), rack(t0, 1))),
            vec![t0]
        );
        coord.advance_clock(291);
        assert!(retransmit(&mut coord, 64).is_empty());
        coord.advance_clock(292);
        let resent = retransmit(&mut coord, 64);
        assert_eq!(rinvs_in(&resent), vec![(n(1), t1)]);
        assert_eq!(rvals_in(&resent), vec![(n(1), t0)]);
        assert_eq!(coord.stats().rvals_retransmitted, 1);
    }
}
