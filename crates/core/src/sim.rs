//! Deterministic multi-node simulation harness.
//!
//! `SimCluster` drives a full Zeus deployment — every node's engines plus the
//! simulated network — from a single thread, which makes protocol executions
//! (including faulty ones) completely reproducible from a seed. All
//! integration tests, the fault-injection tests and the bounded
//! model-checking harness (`check_invariants`, reproducing the paper's TLA+
//! invariants) run on this runtime.
//!
//! The cluster state lives behind one mutex so `SimCluster` can hand out
//! [`SimSession`]s implementing the session-first client API
//! ([`crate::client`]) next to the direct `&mut self` protocol-driving
//! surface the invariant tests use. The simulator stays single-threaded and
//! deterministic — the lock only decouples session lifetimes from the
//! cluster borrow, it is never contended in a deterministic run.
//!
//! Every node is the cell a node thread holds (`NodeCell`), stepped through
//! the node loop's own iteration on simulated time; a session call runs its
//! command on the cell as a caller that finds its node free does, then steps
//! the cluster until the reply arrives. What the chaos oracles watch is the
//! production schedule and park / retry / back-off / fence logic.

use std::collections::{HashSet, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard};

use bytes::Bytes;
use zeus_net::sim::{NetConfig, SimNetwork};
use zeus_net::Envelope;
use zeus_proto::{AccessLevel, DataTs, NodeId, NodeSet, ObjectId, OwnershipRequestKind, TState};

use crate::client::{AdminError, ClusterDriver, ReplySlot, RetryPolicy, Session, TxTicket};
use crate::config::ZeusConfig;
use crate::driver::{erase, TxCommand, Work};
use crate::message::Message;
use crate::node::{ZeusNode, RETRANSMIT_TICKS};
use crate::runtime::{Command, NodeCell};
use crate::stats::{LatencyHistogram, NodeStats};
use crate::txn::{TxCtx, TxError};

/// A deterministic, single-threaded Zeus cluster over the simulated network.
#[derive(Debug)]
pub struct SimCluster {
    config: ZeusConfig,
    inner: Arc<Mutex<SimInner>>,
}

/// The cluster state proper; every method that was on `SimCluster` before
/// the session API lives here, shared between the cluster facade and its
/// sessions.
#[derive(Debug)]
struct SimInner {
    config: ZeusConfig,
    /// Each node with its transaction driver, as a node thread holds them.
    cells: Vec<NodeCell>,
    /// Each node's delivered messages not yet handled: empty, but for a node
    /// whose last step broke off at a landed grant. Reused.
    inboxes: Vec<VecDeque<Envelope<Message>>>,
    net: SimNetwork<Message>,
    crashed: NodeSet,
}

/// Shared read access to one node of a [`SimCluster`] (assertions in tests).
pub struct NodeRef<'a> {
    guard: MutexGuard<'a, SimInner>,
    index: usize,
}

impl Deref for NodeRef<'_> {
    type Target = ZeusNode;
    fn deref(&self) -> &ZeusNode {
        &self.guard.cells[self.index].node
    }
}

/// Exclusive access to one node of a [`SimCluster`] (direct protocol-level
/// manipulation).
pub struct NodeRefMut<'a> {
    guard: MutexGuard<'a, SimInner>,
    index: usize,
}

impl Deref for NodeRefMut<'_> {
    type Target = ZeusNode;
    fn deref(&self) -> &ZeusNode {
        &self.guard.cells[self.index].node
    }
}

impl DerefMut for NodeRefMut<'_> {
    fn deref_mut(&mut self) -> &mut ZeusNode {
        &mut self.guard.cells[self.index].node
    }
}

impl SimCluster {
    /// Creates a cluster with a reliable, low-latency simulated network.
    pub fn new(config: ZeusConfig) -> Self {
        Self::with_network(config, NetConfig::reliable(2))
    }

    /// Creates a cluster with an explicit network configuration (latency,
    /// loss, duplication, seed).
    pub fn with_network(config: ZeusConfig, net: NetConfig) -> Self {
        let cells = (0..config.nodes as u16)
            .map(|i| NodeCell::new(ZeusNode::new(NodeId(i), config.clone())))
            .collect();
        SimCluster {
            inner: Arc::new(Mutex::new(SimInner {
                config: config.clone(),
                cells,
                inboxes: (0..config.nodes).map(|_| VecDeque::new()).collect(),
                net: SimNetwork::new(net),
                crashed: NodeSet::new(),
            })),
            config,
        }
    }

    fn lock(&self) -> MutexGuard<'_, SimInner> {
        self.inner.lock().unwrap()
    }

    /// The deployment configuration.
    pub fn config(&self) -> &ZeusConfig {
        &self.config
    }

    /// Number of nodes (live and crashed).
    pub fn len(&self) -> usize {
        self.config.nodes
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.config.nodes == 0
    }

    /// Acquires the state lock for a node accessor, turning the
    /// hold-a-guard-across-another-cluster-call mistake into an immediate
    /// panic instead of a silent self-deadlock (the mutex is not
    /// reentrant). Node accessors are a single-threaded inspection API;
    /// concurrent access belongs on sessions, which block normally.
    fn lock_for_node_access(&self) -> MutexGuard<'_, SimInner> {
        match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => panic!(
                "SimCluster::node()/node_mut(): cluster state is already locked — \
                 a NodeRef/NodeRefMut is being held across another SimCluster or \
                 SimSession call (drop it first), or node accessors are being used \
                 across threads (use sessions for concurrent access)"
            ),
            Err(std::sync::TryLockError::Poisoned(e)) => panic!("SimCluster poisoned: {e}"),
        }
    }

    /// Immutable access to a node (assertions in tests). The returned guard
    /// locks the whole cluster: drop it before the next `SimCluster` /
    /// `SimSession` call. A *second* `node()`/`node_mut()` while one is
    /// held panics with a diagnostic; the other methods block, so holding a
    /// guard across them deadlocks — keep node accessors to single
    /// statements (see [`SimCluster::node_mut`]).
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        NodeRef {
            guard: self.lock_for_node_access(),
            index: id.index(),
        }
    }

    /// Mutable access to a node (direct protocol-level manipulation). The
    /// returned guard locks the whole cluster — the accessor itself panics
    /// with a diagnostic instead of blocking when the state is already
    /// locked (e.g. two `node()` temporaries in one expression), but other
    /// cluster/session methods use plain blocking locks, so holding a guard
    /// across *them* still deadlocks. Keep node accessors to single
    /// statements.
    pub fn node_mut(&mut self, id: NodeId) -> NodeRefMut<'_> {
        NodeRefMut {
            guard: self.lock_for_node_access(),
            index: id.index(),
        }
    }

    /// The network's current simulated time.
    pub fn now(&self) -> u64 {
        self.lock().net.now()
    }

    /// Aggregate network statistics.
    pub fn net_stats(&self) -> zeus_net::NetStats {
        self.lock().net.stats().clone()
    }

    /// Nodes currently considered live by the harness.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.lock().live().collect()
    }

    /// Creates `object` on every node with its home placement: `owner` plus
    /// the configured number of reader replicas.
    pub fn create_object(&self, object: ObjectId, data: impl Into<Bytes>, owner: NodeId) {
        self.lock().create_object(object, data.into(), owner);
    }

    /// Delivers one batch of in-flight messages (advancing simulated time)
    /// and steps every live node through one iteration of the node loop —
    /// or, while nodes hold messages their last iteration broke off at,
    /// steps just those, on those, at the same time. Returns how many
    /// messages the network delivered.
    pub fn step(&mut self) -> usize {
        self.lock().step()
    }

    /// Advances simulated time by `dt` ticks, delivering everything that
    /// falls due along the way and stepping the live nodes so periodic work
    /// (heartbeats, lease expiry, retransmission) runs. Unlike
    /// [`SimCluster::settle`] this drives the clock even when nothing is in
    /// flight — it is how the chaos harness opens lease-expiry windows.
    pub fn advance_ticks(&mut self, dt: u64) {
        self.lock().advance_ticks(dt)
    }

    /// Steps until no node has outgoing traffic and nothing is in flight, or
    /// until `max_steps` is exceeded (which panics — a protocol liveness
    /// failure in tests).
    pub fn run_until_quiescent(&mut self, max_steps: usize) {
        self.lock().run_until_quiescent(max_steps)
    }

    /// Like [`SimCluster::run_until_quiescent`] but without panicking:
    /// returns `true` if the cluster reached quiescence within the budget.
    /// Used by randomised fault-injection tests where a schedule may leave
    /// recovery work pending at the end of the exploration window.
    pub fn settle(&mut self, max_steps: usize) -> bool {
        self.lock().settle(max_steps)
    }

    // ------------------------------------------------------------------
    // Link-level fault primitives (the coarser faults — isolate, crash,
    // expel — live on [`crate::client::Admin`])
    // ------------------------------------------------------------------

    /// Cuts both directions between `a` and `b` (messages already in flight
    /// still deliver; new sends are dropped).
    pub fn partition_pair(&mut self, a: NodeId, b: NodeId) {
        self.lock().net.faults_mut().partition(a, b);
    }

    /// Adds `extra` ticks of one-way latency on `from → to`.
    pub fn spike_link(&mut self, from: NodeId, to: NodeId, extra: u64) {
        self.lock().net.faults_mut().spike(from, to, extra);
    }

    /// Drops the next `count` messages sent on `from → to`.
    pub fn drop_burst(&mut self, from: NodeId, to: NodeId, count: u64) {
        self.lock().net.faults_mut().drop_burst(from, to, count);
    }

    /// Aggregated statistics over live nodes.
    pub fn aggregate_stats(&self) -> NodeStats {
        self.lock().aggregate_stats()
    }

    /// Checks the paper's safety invariants over the current (quiescent)
    /// state, returning a description of the first violation found:
    ///
    /// 1. at most one live owner per object, holding the most recent value,
    /// 2. live replicas in `t_state = Valid` with the same version hold
    ///    identical data, and no valid reader is newer than the owner,
    /// 3. live directory replicas agree on each object's owner.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.lock().check_invariants()
    }
}

impl ClusterDriver for SimCluster {
    type Session = SimSession;

    fn nodes(&self) -> usize {
        self.config.nodes
    }

    fn handle(&self, id: NodeId) -> SimSession {
        SimSession {
            node: id,
            inner: Arc::clone(&self.inner),
            policy: RetryPolicy::with_budget(self.config.max_ownership_retries),
        }
    }

    fn create_object(&self, object: ObjectId, data: Bytes, owner: NodeId) {
        SimCluster::create_object(self, object, data, owner);
    }

    fn migrate(&self, object: ObjectId, to: NodeId) -> Result<u64, TxError> {
        let start = self.now();
        self.handle(to)
            .acquire(object, OwnershipRequestKind::AcquireOwner)?;
        Ok(self.now().saturating_sub(start).max(1))
    }

    fn aggregate_stats(&self) -> NodeStats {
        SimCluster::aggregate_stats(self)
    }

    fn net_stats(&self) -> zeus_net::NetStats {
        SimCluster::net_stats(self)
    }

    fn quiesce(&self) {
        self.lock().settle(200_000);
    }

    fn admin_expel(&self, node: NodeId) -> Result<(), AdminError> {
        self.lock().admin_remove(node);
        Ok(())
    }

    fn admin_readmit(&self, node: NodeId) -> Result<(), AdminError> {
        self.lock().admin_restore(node);
        Ok(())
    }

    fn admin_crash(&self, node: NodeId) -> Result<(), AdminError> {
        self.lock().fail_node(node);
        Ok(())
    }

    fn admin_restart(&self, node: NodeId) -> Result<(), AdminError> {
        if self.lock().restart_node(node) {
            Ok(())
        } else {
            Err(AdminError::NotCrashed(node))
        }
    }

    fn fault_isolate(&self, node: NodeId) {
        self.lock().isolate_node(node);
    }

    fn fault_heal(&self, node: NodeId) {
        self.lock().heal_node(node);
    }

    fn fault_heal_all(&self) {
        self.lock().net.faults_mut().heal_all();
    }
}

/// Client session to one node of a [`SimCluster`] (see [`Session`]).
///
/// Calls are synchronous: the session runs its command on the node, as a
/// thread-per-node caller that finds its node free does, and steps the
/// simulated cluster until the reply is there, so
/// [`Session::submit_write`] returns an already-resolved ticket.
#[derive(Debug, Clone)]
pub struct SimSession {
    node: NodeId,
    inner: Arc<Mutex<SimInner>>,
    policy: RetryPolicy,
}

impl SimSession {
    /// Submits `work` under the session's policy and drives the cluster to
    /// its reply.
    fn run<T: Send + 'static>(&self, work: Work) -> Result<T, TxError> {
        let (reply, rx) = ReplySlot::new(None);
        let command = TxCommand {
            work,
            policy: self.policy.clone(),
            reply,
        };
        self.inner
            .lock()
            .unwrap()
            .run_command(self.node, command, TxTicket::pending(rx))
    }
}

impl Session for SimSession {
    fn node(&self) -> NodeId {
        self.node
    }

    fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    fn retry_policy(&self) -> &RetryPolicy {
        &self.policy
    }

    fn write_txn<T, F>(&self, f: F) -> Result<T, TxError>
    where
        T: Send + 'static,
        F: FnMut(&mut TxCtx<'_>) -> Result<T, TxError> + Send + 'static,
    {
        self.run(Work::Write(erase(f)))
    }

    fn read_txn<T, F>(&self, f: F) -> Result<T, TxError>
    where
        T: Send + 'static,
        F: FnMut(&mut TxCtx<'_>) -> Result<T, TxError> + Send + 'static,
    {
        self.run(Work::Read(erase(f)))
    }

    fn submit_write<T, F>(&self, f: F) -> TxTicket<T>
    where
        T: Send + 'static,
        F: FnMut(&mut TxCtx<'_>) -> Result<T, TxError> + Send + 'static,
    {
        TxTicket::ready(self.write_txn(f))
    }

    fn drain(&self) -> Result<(), TxError> {
        // Submissions resolve synchronously; nothing can be in flight.
        Ok(())
    }

    fn acquire(&self, object: ObjectId, kind: OwnershipRequestKind) -> Result<(), TxError> {
        self.run(Work::Acquire { object, kind })
    }

    fn stats(&self) -> Result<(NodeStats, LatencyHistogram), TxError> {
        Ok(self.inner.lock().unwrap().cells[self.node.index()].stats())
    }
}

/// How far a waiting session moves the clock of an idle network at a time.
/// Timers fire when a step finds them due, so this is how late a retried
/// NACK or a re-sent REQ can be. It is a fixed cadence, not a sleep until
/// `ZeusNode::next_timer` as on a node thread: a tick re-phases the
/// retransmission timer on every interval that elapses with nothing due, so
/// every schedule depends on when the ticks fall.
const IDLE_WAIT_TICKS: u64 = 10;

/// Cluster steps a session call may take before its command is cancelled:
/// ten default lease periods of idle waiting — far beyond anything but a
/// wedge.
const SESSION_STEP_BUDGET: usize = 200_000;

impl SimInner {
    /// The nodes that have not crashed, ascending.
    fn live(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.cells.len() as u16)
            .map(NodeId)
            .filter(|&n| !self.crashed.contains(n))
    }

    fn create_object(&mut self, object: ObjectId, data: Bytes, owner: NodeId) {
        let replicas = self.config.default_replicas(owner);
        for cell in &mut self.cells {
            cell.node
                .create_object(object, data.clone(), replicas.clone());
        }
    }

    // ------------------------------------------------------------------
    // Execution driver
    // ------------------------------------------------------------------

    fn step(&mut self) -> usize {
        self.ship_outboxes();
        // A node whose last step broke off at a landed grant steps again on
        // the rest of its inbox, at the same time, before anything new is
        // delivered — and only it, as only its loop would run again.
        let held = !self.inboxes_empty();
        let delivered = match self.net.next_delivery_time() {
            Some(t) if !held => self.deliver_due(t),
            _ => 0,
        };
        self.step_nodes(self.net.now(), held);
        delivered
    }

    /// Moves every live node's queued messages into the network; a crashed
    /// node's queued messages are lost.
    fn ship_outboxes(&mut self) {
        for (i, cell) in self.cells.iter_mut().enumerate() {
            let id = NodeId(i as u16);
            let crashed = self.crashed.contains(id);
            let net = &mut self.net;
            cell.node.drain_outbox_with(|to, msg| {
                if !crashed {
                    let bytes = msg.payload_bytes();
                    net.send(Envelope::with_payload_bytes(id, to, msg, bytes));
                }
            });
        }
    }

    /// Advances the network to `t` and puts every message that falls due
    /// into its receiving node's inbox (crashed receivers drop theirs).
    /// Returns how many the network delivered.
    fn deliver_due(&mut self, t: u64) -> usize {
        let (net, inboxes, crashed) = (&mut self.net, &mut self.inboxes, &self.crashed);
        let mut delivered = 0;
        net.deliver_due(t, |env| {
            delivered += 1;
            if !crashed.contains(env.to) {
                inboxes[env.to.index()].push_back(env);
            }
        });
        delivered
    }

    /// Whether every node has handled everything delivered to it.
    fn inboxes_empty(&self) -> bool {
        self.inboxes.iter().all(VecDeque::is_empty)
    }

    /// Steps every live node — or, if `held`, those holding messages —
    /// through one iteration of the node loop ([`NodeCell::step`]) at `now`,
    /// the one clock of the simulation. Commands never wait for it: a
    /// session runs its own.
    fn step_nodes(&mut self, now: u64, held: bool) {
        for (i, (cell, inbox)) in self.cells.iter_mut().zip(&mut self.inboxes).enumerate() {
            if !(self.crashed.contains(NodeId(i as u16)) || held && inbox.is_empty()) {
                let _ = cell.step(now, inbox, |_, _| now, |_| None);
            }
        }
    }

    fn advance_ticks(&mut self, dt: u64) {
        let target = self.net.now().saturating_add(dt);
        // Advance in retransmission-interval chunks: periodic work
        // (heartbeats, retransmissions) only runs when nodes tick, so a
        // single jump to `target` would collapse several heartbeat rounds
        // into one and distort lease timing.
        while self.net.now() < target {
            let next = (self.net.now() + RETRANSMIT_TICKS).min(target);
            loop {
                self.ship_outboxes();
                let due = self.net.next_delivery_time().is_some_and(|t| t <= next);
                if !due && self.inboxes_empty() {
                    break;
                }
                self.step();
            }
            self.deliver_due(next);
            self.step_nodes(next, false);
        }
        // Ship whatever the final steps produced so it is in flight for the
        // caller's next step/settle.
        self.ship_outboxes();
    }

    /// Whether a message is in flight or delivered and not yet handled.
    fn in_transit(&self) -> bool {
        self.net.in_flight_len() > 0 || !self.inboxes_empty()
    }

    /// Whether every live node is quiescent, no command is parked and
    /// nothing is in transit.
    fn is_cluster_quiescent(&self) -> bool {
        !self.in_transit()
            && self.live().all(|n| {
                let cell = &self.cells[n.index()];
                cell.node.is_quiescent() && !cell.driver.has_waiters()
            })
    }

    /// One settling iteration: deliver a batch, and if the network drained
    /// while protocol work is still pending (a retry back-off, a lease that
    /// must expire, a retransmission interval), push time forward so the
    /// periodic machinery can run instead of spinning on a frozen clock.
    fn settle_step(&mut self) {
        self.step();
        if !self.in_transit() && !self.is_cluster_quiescent() {
            self.advance_ticks(RETRANSMIT_TICKS);
        }
    }

    fn run_until_quiescent(&mut self, max_steps: usize) {
        let quiet = self.settle(max_steps);
        assert!(quiet, "cluster did not quiesce within {max_steps} steps");
    }

    fn settle(&mut self, max_steps: usize) -> bool {
        for _ in 0..max_steps {
            if self.is_cluster_quiescent() {
                return true;
            }
            self.settle_step();
        }
        self.is_cluster_quiescent()
    }

    /// Runs `command` on `node` as a caller that finds the node free does
    /// ([`NodeCell::run`]) and steps the cluster until its `ticket`
    /// resolves. A command that finishes at once — a local write, a replica
    /// read — moves neither the network nor the clock.
    fn run_command<T: Send + 'static>(
        &mut self,
        node: NodeId,
        command: TxCommand,
        mut ticket: TxTicket<T>,
    ) -> Result<T, TxError> {
        if self.crashed.contains(node) {
            return Err(TxError::NodeUnavailable);
        }
        let i = node.index();
        self.cells[i].inline_commands += 1;
        let _ = self.cells[i].run(self.net.now(), [Command::Tx(command)]);
        for _ in 0..SESSION_STEP_BUDGET {
            if let Some(result) = ticket.try_poll() {
                return result;
            }
            // Ship before judging the network idle: what the last step made
            // the nodes say is traffic too.
            self.ship_outboxes();
            if self.in_transit() {
                self.step();
                continue;
            }
            // Nothing moves until a timer fires: the command's back-off if
            // it sits one out, else the nodes' periodic work (a re-sent
            // REQ, a retried NACK, a lapsing lease).
            let now = self.net.now();
            let wait = match self.cells[i].driver.next_deadline(now) {
                Some(deadline) => (deadline - now).min(IDLE_WAIT_TICKS),
                None => IDLE_WAIT_TICKS,
            };
            self.advance_ticks(wait);
        }
        // A liveness failure of the protocol, not an outcome of it: give the
        // command up so nothing of it lingers in the node.
        let cell = &mut self.cells[i];
        cell.driver
            .fail_all(&mut cell.node, &TxError::RetriesExhausted);
        ticket.wait()
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn fail_node(&mut self, node: NodeId) {
        self.crashed.insert(node);
        self.net.faults_mut().crash(node);
        // What it was delivered and had not handled dies with it.
        self.inboxes[node.index()].clear();
        // Tell the view service to reconfigure (stand-in for lease expiry,
        // which the lease-based path also covers in tests).
        self.admin_remove(node);
    }

    /// Restarts a crashed node: the process comes back (with whatever frozen
    /// state it had — the re-admission path wipes it) and its re-admission
    /// is proposed to the view service. Returns `false` if the node was not
    /// crashed.
    fn restart_node(&mut self, node: NodeId) -> bool {
        if !self.crashed.remove(node) {
            return false;
        }
        self.net.faults_mut().revive(node);
        self.admin_restore(node);
        true
    }

    fn isolate_node(&mut self, node: NodeId) {
        for peer in self.config.all_nodes().into_iter().filter(|&p| p != node) {
            self.net.faults_mut().partition(node, peer);
        }
    }

    fn heal_node(&mut self, node: NodeId) {
        for peer in self.config.all_nodes().into_iter().filter(|&p| p != node) {
            self.net.faults_mut().heal_partition(node, peer);
        }
    }

    /// Routes an expulsion through the view service: every live view
    /// replica records the ban and proposes; the change commits once a
    /// majority of the view-replica set grants. No single node's death can
    /// wedge this — any live majority suffices.
    fn admin_remove(&mut self, node: NodeId) {
        for vr in self.config.view_replica_set() {
            if vr != node && !self.crashed.contains(vr) {
                self.cells[vr.index()].node.admin_remove_node(node);
            }
        }
    }

    /// Routes a re-admission through the view service (see
    /// [`SimInner::admin_remove`]).
    fn admin_restore(&mut self, node: NodeId) {
        for vr in self.config.view_replica_set() {
            if vr != node && !self.crashed.contains(vr) {
                self.cells[vr.index()].node.admin_add_node(node);
            }
        }
    }

    fn aggregate_stats(&self) -> NodeStats {
        let mut total = NodeStats::default();
        for id in self.live() {
            total.merge(&self.cells[id.index()].stats().0);
        }
        total
    }

    // ------------------------------------------------------------------
    // Invariant checking (TLA+ stand-in, §8 "Formal verification")
    // ------------------------------------------------------------------

    fn check_invariants(&self) -> Result<(), String> {
        let live: Vec<NodeId> = self.live().collect();
        let mut objects: HashSet<ObjectId> = HashSet::new();
        for &id in &live {
            objects.extend(self.cells[id.index()].node.store().object_ids());
        }
        // Deterministic iteration: which violation is reported first must
        // not depend on hash order (the chaos explorer compares reports).
        let mut objects: Vec<ObjectId> = objects.into_iter().collect();
        objects.sort_unstable();
        for object in objects {
            let mut owners = Vec::new();
            let mut max_ts = DataTs::ZERO;
            let mut owner_ts = None;
            let mut valid_entries: Vec<(NodeId, DataTs, Bytes)> = Vec::new();
            for &id in &live {
                let node = &self.cells[id.index()].node;
                if let Some(entry) = node.store().get(object) {
                    max_ts = max_ts.max(entry.ts);
                    if entry.level == AccessLevel::Owner {
                        owners.push(id);
                        owner_ts = Some(entry.ts);
                    }
                    if entry.t_state == TState::Valid {
                        valid_entries.push((id, entry.ts, entry.data.clone()));
                    }
                }
            }
            if owners.len() > 1 {
                return Err(format!("object {object} has multiple owners: {owners:?}"));
            }
            if let (Some(ots), [_single_owner]) = (owner_ts, owners.as_slice()) {
                if ots < max_ts {
                    return Err(format!(
                        "object {object}: owner holds {ots} < max replica timestamp {max_ts}"
                    ));
                }
            }
            for (i, (a_node, a_ts, a_data)) in valid_entries.iter().enumerate() {
                for (b_node, b_ts, b_data) in valid_entries.iter().skip(i + 1) {
                    if a_ts == b_ts && a_data != b_data {
                        return Err(format!(
                            "object {object}: valid replicas {a_node} and {b_node} diverge at {a_ts}"
                        ));
                    }
                }
            }
            // Directory agreement: all live directory replicas that hold
            // metadata for the object must name the same owner.
            let mut dir_owners: HashSet<Option<NodeId>> = HashSet::new();
            for dir in self.config.directory() {
                if !live.contains(&dir) {
                    continue;
                }
                if let Some(owner) = self.cells[dir.index()].node.directory_owner(object) {
                    dir_owners.insert(owner);
                }
            }
            if dir_owners.len() > 1 {
                return Err(format!(
                    "object {object}: directory replicas disagree on the owner: {dir_owners:?}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(nodes: usize) -> SimCluster {
        SimCluster::new(ZeusConfig::with_nodes(nodes))
    }

    #[test]
    fn local_transactions_commit_and_replicate() {
        let mut c = cluster(3);
        let object = ObjectId(1);
        c.create_object(object, Bytes::from_static(b"0"), NodeId(0));
        c.handle(NodeId(0))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"1")))
            .unwrap();
        c.run_until_quiescent(10_000);
        // Every replica converged to the new value and is Valid.
        for n in [NodeId(0), NodeId(1), NodeId(2)] {
            let entry = c.node(n).store().get(object).unwrap();
            assert_eq!(entry.data, Bytes::from_static(b"1"), "replica {n}");
            assert_eq!(entry.t_state, TState::Valid);
        }
        c.check_invariants().unwrap();
    }

    #[test]
    fn remote_write_transparently_migrates_ownership() {
        let mut c = cluster(3);
        let object = ObjectId(7);
        c.create_object(object, Bytes::from_static(b"x"), NodeId(0));
        assert!(!c.node(NodeId(2)).owns(object));
        c.handle(NodeId(2))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"y")))
            .unwrap();
        c.run_until_quiescent(10_000);
        assert!(c.node(NodeId(2)).owns(object), "ownership moved to node 2");
        assert!(!c.node(NodeId(0)).owns(object), "old owner demoted");
        // Subsequent writes on node 2 are purely local (no new requests).
        let before = c.node(NodeId(2)).ownership_stats().requests_issued;
        c.handle(NodeId(2))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"z")))
            .unwrap();
        assert_eq!(
            c.node(NodeId(2)).ownership_stats().requests_issued,
            before,
            "locality: no further ownership traffic"
        );
        c.run_until_quiescent(10_000);
        c.check_invariants().unwrap();
    }

    #[test]
    fn no_retry_session_still_commits_remote_writes() {
        // Same contract as the threaded runtime: the first successful
        // ownership grant is free even under RetryPolicy::no_retry().
        let c = cluster(3);
        let object = ObjectId(8);
        c.create_object(object, Bytes::from_static(b"x"), NodeId(0));
        let session = c.handle(NodeId(2)).with_retry(RetryPolicy::no_retry());
        session
            .write_txn(move |tx| {
                tx.write(object, Bytes::from_static(b"y"))?;
                Ok(())
            })
            .expect("grant is not charged against the retry budget");
        assert!(c.node(NodeId(2)).owns(object));
    }

    #[test]
    fn read_only_transactions_run_on_any_replica() {
        let mut c = cluster(3);
        let object = ObjectId(3);
        c.create_object(object, Bytes::from_static(b"init"), NodeId(0));
        c.handle(NodeId(0))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"v1")))
            .unwrap();
        c.run_until_quiescent(10_000);
        for reader in [NodeId(0), NodeId(1), NodeId(2)] {
            let value = c
                .handle(reader)
                .read_txn(move |tx| tx.read(object))
                .unwrap();
            assert_eq!(value, Bytes::from_static(b"v1"), "replica {reader}");
        }
        // No network traffic is needed for the reads themselves: the message
        // count does not change while executing them.
        let before = c.net_stats().messages_sent;
        c.handle(NodeId(1))
            .read_txn(move |tx| tx.read(object))
            .unwrap();
        assert_eq!(c.net_stats().messages_sent, before);
    }

    #[test]
    fn multi_object_transaction_pulls_everything_local() {
        let mut c = cluster(3);
        let a = ObjectId(10);
        let b = ObjectId(11);
        c.create_object(a, Bytes::from_static(b"1"), NodeId(0));
        c.create_object(b, Bytes::from_static(b"2"), NodeId(1));
        // A transaction on node 2 touching both objects must migrate both.
        c.handle(NodeId(2))
            .write_txn(move |tx| {
                let va = tx.read(a)?;
                let vb = tx.read(b)?;
                tx.write(a, [va.as_ref(), vb.as_ref()].concat())?;
                tx.write(b, Bytes::from_static(b"done"))?;
                Ok(())
            })
            .unwrap();
        c.run_until_quiescent(10_000);
        assert!(c.node(NodeId(2)).owns(a));
        assert!(c.node(NodeId(2)).owns(b));
        let merged = c.handle(NodeId(2)).read_txn(move |tx| tx.read(a)).unwrap();
        assert_eq!(merged, Bytes::from_static(b"12"));
        c.check_invariants().unwrap();
    }

    #[test]
    fn owner_failure_recovers_and_cluster_continues() {
        let mut c = cluster(3);
        let object = ObjectId(50);
        c.create_object(object, Bytes::from_static(b"important"), NodeId(0));
        c.handle(NodeId(0))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"v1")))
            .unwrap();
        c.run_until_quiescent(10_000);

        c.admin().crash(NodeId(0)).unwrap();
        c.run_until_quiescent(50_000);

        // The data survives on the readers and a new owner can take over.
        c.handle(NodeId(1))
            .write_txn(move |tx| {
                let old = tx.read(object)?;
                assert_eq!(old, Bytes::from_static(b"v1"), "no committed data lost");
                tx.write(object, Bytes::from_static(b"v2"))
            })
            .unwrap();
        c.run_until_quiescent(50_000);
        assert!(c.node(NodeId(1)).owns(object));
        c.check_invariants().unwrap();
    }

    #[test]
    fn migration_latency_is_measured() {
        let c = cluster(3);
        let object = ObjectId(70);
        c.create_object(object, Bytes::from_static(b"m"), NodeId(0));
        let latency = c.migrate(object, NodeId(2)).unwrap();
        assert!(latency > 0);
        assert!(c.node(NodeId(2)).owns(object));
        assert!(c.node(NodeId(2)).ownership_latency().count() >= 1);
    }

    fn chaos_cluster(nodes: usize, lease_ticks: u64) -> SimCluster {
        let mut config = ZeusConfig::with_nodes(nodes);
        config.lease_ticks = lease_ticks;
        SimCluster::new(config)
    }

    #[test]
    fn isolated_node_fences_itself_and_recovers_on_heal() {
        let mut c = chaos_cluster(3, 2_000);
        let object = ObjectId(9);
        c.create_object(object, Bytes::from_static(b"x"), NodeId(2));
        c.handle(NodeId(2))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"a")))
            .unwrap();
        c.run_until_quiescent(50_000);

        c.admin().isolate(NodeId(2)).unwrap();
        // Past one lease of silence (but before the failure detector's
        // expulsion threshold of lease + grace) the node must refuse to
        // serve.
        c.advance_ticks(2_500);
        let write = c
            .handle(NodeId(2))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"b")));
        assert_eq!(write.unwrap_err(), TxError::Fenced);
        let read = c.handle(NodeId(2)).read_txn(move |tx| tx.read(object));
        assert_eq!(read.unwrap_err(), TxError::Fenced);
        assert!(c.node(NodeId(2)).stats().txs_fenced >= 2);

        // Healing before expulsion: leases renew and the node serves again
        // without any view change.
        c.admin().heal(NodeId(2)).unwrap();
        c.advance_ticks(1_200);
        c.handle(NodeId(2))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"c")))
            .unwrap();
        c.run_until_quiescent(50_000);
        assert_eq!(c.node(NodeId(0)).epoch(), zeus_proto::Epoch::ZERO);
        c.check_invariants().unwrap();
    }

    #[test]
    fn falsely_suspected_node_is_readmitted_via_view_change() {
        let mut c = chaos_cluster(3, 2_000);
        let object = ObjectId(4);
        c.create_object(object, Bytes::from_static(b"v0"), NodeId(0));
        c.handle(NodeId(0))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"v1")))
            .unwrap();
        c.run_until_quiescent(50_000);

        // Node 2 is alive but none of its heartbeats get through: the view
        // service expels it after lease + grace.
        c.admin().isolate(NodeId(2)).unwrap();
        c.advance_ticks(6_000);
        assert!(
            !c.node(NodeId(0)).cluster_view().is_live(NodeId(2)),
            "the view service must have expelled the silent node"
        );
        let expelled_epoch = c.node(NodeId(0)).epoch();
        assert!(expelled_epoch > zeus_proto::Epoch::ZERO);
        // The cluster keeps committing without it.
        c.handle(NodeId(0))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"v2")))
            .unwrap();
        c.settle(100_000);

        // Heal: the node's next heartbeat re-admits it via a view change.
        c.admin().heal(NodeId(2)).unwrap();
        c.advance_ticks(4_000);
        assert!(
            c.node(NodeId(0)).cluster_view().is_live(NodeId(2)),
            "heartbeating node must be re-admitted"
        );
        assert!(c.node(NodeId(0)).epoch() > expelled_epoch);
        assert!(
            c.node(NodeId(2)).stats().rejoin_resets >= 1,
            "re-admitted node must have discarded its stale state"
        );
        // It serves again — through the ownership protocol, not stale state.
        c.handle(NodeId(2))
            .write_txn(move |tx| {
                let v = tx.read(object)?;
                assert_eq!(v, Bytes::from_static(b"v2"), "no stale value");
                tx.write(object, Bytes::from_static(b"v3"))
            })
            .unwrap();
        c.run_until_quiescent(100_000);
        c.check_invariants().unwrap();
    }

    #[test]
    fn readmitted_node_never_serves_stale_reads() {
        let mut c = chaos_cluster(3, 2_000);
        let object = ObjectId(11);
        c.create_object(object, Bytes::from_static(b"v0"), NodeId(0));
        c.handle(NodeId(0))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"v1")))
            .unwrap();
        c.run_until_quiescent(50_000);
        assert_eq!(
            c.handle(NodeId(2))
                .read_txn(move |tx| tx.read(object))
                .unwrap(),
            Bytes::from_static(b"v1")
        );

        // While node 2 is out, the value moves on.
        c.admin().isolate(NodeId(2)).unwrap();
        c.advance_ticks(6_000);
        c.handle(NodeId(0))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"v2")))
            .unwrap();
        c.settle(100_000);
        assert_eq!(
            c.handle(NodeId(1))
                .read_txn(move |tx| tx.read(object))
                .unwrap(),
            Bytes::from_static(b"v2")
        );

        c.admin().heal(NodeId(2)).unwrap();
        c.advance_ticks(4_000);
        c.settle(100_000);
        // The re-admitted node dropped its v1 replica: a read either fails
        // (no replica) or, never, returns the stale value.
        match c.handle(NodeId(2)).read_txn(move |tx| tx.read(object)) {
            Ok(v) => assert_eq!(v, Bytes::from_static(b"v2"), "stale read"),
            Err(TxError::NotReplicated { .. } | TxError::RetriesExhausted) => {}
            Err(other) => panic!("unexpected read error: {other:?}"),
        }
        c.check_invariants().unwrap();
    }

    #[test]
    fn admin_removed_node_stays_out_despite_heartbeats() {
        let mut c = chaos_cluster(3, 2_000);
        let object = ObjectId(21);
        c.create_object(object, Bytes::from_static(b"d"), NodeId(0));
        // Operator scale-in: node 2 keeps running and heartbeating.
        c.admin().expel(NodeId(2)).unwrap();
        c.advance_ticks(4_000);
        assert!(
            !c.node(NodeId(0)).cluster_view().is_live(NodeId(2)),
            "the view service must have committed the expulsion"
        );
        let removal_epoch = c.node(NodeId(0)).epoch();
        assert!(removal_epoch > zeus_proto::Epoch::ZERO);
        c.advance_ticks(10_000);
        assert!(
            !c.node(NodeId(0)).cluster_view().is_live(NodeId(2)),
            "scale-in must not be undone by heartbeats"
        );
        assert_eq!(c.node(NodeId(0)).epoch(), removal_epoch);
        // The removed node hears nothing back and fences itself.
        let write = c
            .handle(NodeId(2))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"z")));
        assert_eq!(write.unwrap_err(), TxError::Fenced);
        // An explicit scale-out lifts the ban and re-admits it cleanly.
        c.admin().readmit(NodeId(2)).unwrap();
        c.advance_ticks(4_000);
        assert!(c.node(NodeId(0)).cluster_view().is_live(NodeId(2)));
        c.handle(NodeId(2))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"y")))
            .unwrap();
        c.run_until_quiescent(100_000);
        c.check_invariants().unwrap();
    }

    #[test]
    fn crash_restart_cycle_readmits_with_reset() {
        let mut c = chaos_cluster(3, 2_000);
        let object = ObjectId(30);
        c.create_object(object, Bytes::from_static(b"v0"), NodeId(1));
        c.handle(NodeId(1))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"v1")))
            .unwrap();
        c.run_until_quiescent(50_000);

        c.admin().crash(NodeId(2)).unwrap();
        c.run_until_quiescent(100_000);
        c.handle(NodeId(1))
            .write_txn(move |tx| tx.write(object, Bytes::from_static(b"v2")))
            .unwrap();
        c.run_until_quiescent(100_000);

        assert_eq!(
            c.admin().restart(NodeId(1)),
            Err(AdminError::NotCrashed(NodeId(1))),
            "restart of a running node is a typed error"
        );
        c.admin().restart(NodeId(2)).unwrap();
        c.advance_ticks(4_000);
        c.settle(100_000);
        assert!(c.node(NodeId(0)).cluster_view().is_live(NodeId(2)));
        assert!(c.node(NodeId(2)).stats().rejoin_resets >= 1);
        // The restarted node re-acquires instead of serving its frozen v1.
        c.handle(NodeId(2))
            .write_txn(move |tx| {
                let v = tx.read(object)?;
                assert_eq!(v, Bytes::from_static(b"v2"));
                tx.write(object, Bytes::from_static(b"v3"))
            })
            .unwrap();
        c.run_until_quiescent(100_000);
        c.check_invariants().unwrap();
    }

    #[test]
    fn variable_latency_network_still_converges() {
        // The Zeus protocols assume reliable delivery (the paper runs its own
        // retransmitting messaging layer, §3.1) but NOT global ordering:
        // messages between different node pairs may arrive in any order.
        let config = ZeusConfig::with_nodes(3);
        let net = NetConfig {
            min_delay: 1,
            max_delay: 40,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            seed: 123,
            link_overrides: Vec::new(),
        };
        let mut c = SimCluster::with_network(config, net);
        let object = ObjectId(5);
        c.create_object(object, Bytes::from_static(b"0"), NodeId(0));
        for i in 0..5u8 {
            // Alternate coordinators so ownership keeps migrating while
            // earlier reliable commits are still in flight.
            let coordinator = NodeId((i % 3) as u16);
            c.handle(coordinator)
                .write_txn(move |tx| tx.write(object, vec![i]))
                .unwrap();
        }
        c.run_until_quiescent(100_000);
        for n in [NodeId(0), NodeId(1), NodeId(2)] {
            let entry = c.node(n).store().get(object).unwrap();
            assert_eq!(
                entry.data,
                Bytes::from(vec![4u8]),
                "replica {n} has final value"
            );
        }
        c.check_invariants().unwrap();
    }

    /// Entries in every node's request table, plus what the ownership
    /// engines still hold pending (a non-quiescent node).
    fn requests_tracked(c: &SimCluster) -> usize {
        (0..c.len() as u16)
            .map(|n| {
                let node = c.node(NodeId(n));
                assert!(node.is_quiescent(), "node {n} still has protocol work");
                node.tracked_requests()
            })
            .sum()
    }

    #[test]
    fn request_bookkeeping_is_empty_once_every_waiter_is_done() {
        let mut c = cluster(3);
        // 10,000 session handovers: every write needs the object moved.
        let moving = ObjectId(1);
        c.create_object(moving, Bytes::from_static(b"0"), NodeId(0));
        let sessions: Vec<SimSession> = (0..3).map(|n| c.handle(NodeId(n))).collect();
        for i in 0..10_000usize {
            sessions[(i + 1) % 3]
                .write_txn(move |tx| tx.write(moving, Bytes::from_static(b"m")))
                .expect("handover");
        }
        c.run_until_quiescent(10_000);
        let issued: u64 = (0..3)
            .map(|n| c.node(NodeId(n)).stats().ownership_requests)
            .sum();
        assert!(issued >= 10_000, "every write moved the object: {issued}");
        assert_eq!(requests_tracked(&c), 0);

        // A two-object write that loses one of its two arbitrations: node 1
        // asks for `a` directly, one step ahead, and wins it.
        let (a, b) = (ObjectId(10), ObjectId(11));
        c.create_object(a, Bytes::from_static(b"a"), NodeId(0));
        c.create_object(b, Bytes::from_static(b"b"), NodeId(0));
        let direct = c
            .node_mut(NodeId(1))
            .acquire(a, OwnershipRequestKind::AcquireOwner);
        c.step();
        sessions[2]
            .write_txn(move |tx| {
                tx.write(a, Bytes::from_static(b"2"))?;
                tx.write(b, Bytes::from_static(b"2"))
            })
            .expect("commits on a retry");
        c.run_until_quiescent(10_000);
        let lost = c.node(NodeId(2)).ownership_stats().requests_failed;
        assert!(lost >= 1, "the session's request for `a` lost");
        // What a session waited on is gone, failed round and abandoned
        // sibling included; what was asked for directly stays until asked.
        assert_eq!(c.node(NodeId(0)).tracked_requests(), 0);
        assert_eq!(c.node(NodeId(2)).tracked_requests(), 0);
        assert_eq!(
            c.node(NodeId(1)).request_state(direct),
            crate::node::RequestState::Completed
        );
        c.node_mut(NodeId(1)).release_request(direct);
        assert_eq!(requests_tracked(&c), 0);
    }

    /// Finding 3 of `benchmark/README.md`: settling N unsettled local writes
    /// used to walk the whole outstanding set on every R-ACK and every
    /// retransmission scan (16,000 took 13x as long as 4,000). The commit
    /// engine counts the ring entries those two paths look at; four times
    /// the commits may cost four times the looks, not sixteen.
    #[test]
    fn settling_unsettled_commits_costs_ring_work_linear_in_their_number() {
        fn ring_entries_visited(unsettled: u64) -> u64 {
            const OBJECTS: u64 = 1_000;
            let c = SimCluster::with_network(ZeusConfig::with_nodes(5), NetConfig::reliable(10));
            for object in 0..OBJECTS {
                let owner = NodeId((object % 5) as u16);
                c.create_object(ObjectId(object), Bytes::from_static(&[0u8; 16]), owner);
            }
            let sessions: Vec<SimSession> = (0..5).map(|n| c.handle(NodeId(n))).collect();
            // Local writes commit without touching the network, so nothing
            // settles until the quiesce below.
            for i in 0..unsettled {
                let object = ObjectId(i % OBJECTS);
                sessions[(i % OBJECTS % 5) as usize]
                    .write_txn(move |tx| {
                        tx.update(object, |old| {
                            let mut new = old.to_vec();
                            new[0] = new[0].wrapping_add(1);
                            new
                        })
                    })
                    .expect("local write");
            }
            let outstanding: usize = (0..5)
                .map(|n| c.node(NodeId(n)).outstanding_commits())
                .sum();
            assert_eq!(outstanding as u64, unsettled, "nothing settled yet");
            c.quiesce();
            (0..5)
                .map(|n| {
                    let node = c.node(NodeId(n));
                    assert_eq!(node.outstanding_commits(), 0);
                    assert_eq!(node.commit_stats().rinvs_retransmitted, 0);
                    node.commit_stats().ring_entries_visited
                })
                .sum()
        }

        let small = ring_entries_visited(4_000);
        let large = ring_entries_visited(16_000);
        // Two followers acknowledge every commit.
        assert!(small >= 2 * 4_000, "acks look at their own slot: {small}");
        assert!(
            large <= 4 * small + small / 4,
            "4x the commits cost {large} ring visits, {small} before"
        );
    }

    /// The step's grant-landed break. Node 2 parks a write on an object node
    /// 0 owns and drives its own acquisition; the arbiters' ACKs — its grant
    /// — and node 3's REQ for the same object, which node 2, as the driver
    /// and by then the owner, would hand over at once, reach node 2 in one
    /// delivery. The write has to run between the two: under a budget of one
    /// attempt, the object taken away first would fail it.
    #[test]
    fn a_parked_write_runs_between_its_grant_and_a_steal_delivered_with_it() {
        let mut c = cluster(4);
        let object = ObjectId(2);
        c.create_object(object, Bytes::from_static(b"0"), NodeId(0));
        let (reply, rx) = ReplySlot::new(None);
        let write = erase(move |tx: &mut TxCtx<'_>| tx.write(object, Bytes::from_static(b"2")));
        let command = TxCommand {
            work: Work::Write(write),
            policy: RetryPolicy::no_retry(),
            reply,
        };
        let mut ticket: TxTicket<()> = TxTicket::pending(rx);
        let now = c.now();
        let _ = c.lock().cells[2].run(now, [Command::Tx(command)]);
        assert_eq!(ticket.try_poll(), None, "parked for ownership");
        // Node 2's REQ reaches node 2, its INVs the arbiters, whose ACKs are
        // then on their way — and sent before node 3's REQ.
        c.step();
        c.step();
        c.node_mut(NodeId(3))
            .acquire(object, OwnershipRequestKind::AcquireOwner);
        c.step();
        assert_eq!(ticket.try_poll(), Some(Ok(())), "the write ran first");
        let steal_waits = c.lock().inboxes[2].iter().any(|env| {
            let req = matches!(
                env.msg,
                Message::Ownership(zeus_proto::OwnershipMsg::Req { .. })
            );
            env.from == NodeId(3) && req
        });
        assert!(
            steal_waits,
            "the REQ came with the grant and waits behind it"
        );

        c.run_until_quiescent(10_000);
        assert!(
            c.node(NodeId(3)).owns(object),
            "the steal went through after it"
        );
        let value = c.handle(NodeId(1)).read_txn(move |tx| tx.read(object));
        assert_eq!(value, Ok(Bytes::from_static(b"2")));
        c.check_invariants().unwrap();
    }

    /// The counters of the tick rule on a settled script of local writes and
    /// handovers: most node steps find nothing due and skip their tick. The
    /// same script pins how many cleared slots the followers hold above
    /// their prefixes (ROADMAP 3e: nothing bounds them yet).
    #[test]
    fn most_steps_of_a_settled_script_skip_their_tick() {
        let c = SimCluster::new(ZeusConfig::with_nodes(5));
        const OBJECTS: u64 = 50;
        for object in 0..OBJECTS {
            c.create_object(ObjectId(object), vec![0u8; 8], NodeId((object % 5) as u16));
        }
        let sessions: Vec<SimSession> = (0..5).map(|n| c.handle(NodeId(n))).collect();
        for i in 0..2_000u64 {
            let object = ObjectId(i % OBJECTS);
            // Every tenth write is a handover: the owner's neighbour takes
            // the object.
            let writer = ((i % OBJECTS) + u64::from(i % 10 == 9)) % 5;
            sessions[writer as usize]
                .write_txn(move |tx| tx.write(object, vec![i as u8; 8]))
                .expect("a write on a healthy cluster");
        }
        c.quiesce();
        let stats = c.aggregate_stats();
        let steps = stats.ticks + stats.quiet_ticks;
        let sparse: Vec<usize> = (0..5)
            .map(|n| c.node(NodeId(n)).sparse_cleared_slots())
            .collect();
        // Measured: 3,976 of 4,135 node steps (96 %) skip their tick.
        assert!(
            stats.quiet_ticks * 10 >= steps * 9,
            "{} of {steps} ticks skipped",
            stats.quiet_ticks
        );
        assert_eq!(sparse, [0, 0, 0, 0, 399]);
    }

    /// FNV-1a over a sequence of numbers.
    fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
        values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The tick-rule tripwire. One run on a lossy network through every
    /// fault the harness has — isolate and heal, crash and restart, expel and
    /// re-admit — with writes and handovers on several nodes in between, so
    /// retransmissions, lease expiries, view changes and recoveries all fall
    /// on the ticks the nodes take. What the run did is pinned: the final
    /// clock, the network's counters and every node's epoch, commit,
    /// ownership and node counters (all but the ones that count the ticks
    /// themselves or the ring entries their scans look at). A node that
    /// skips a tick that would have done something moves at least one of
    /// them. The counters are walked by name, so a counter added to one of
    /// these structs joins the digest unless it joins the skip list.
    #[test]
    fn a_lossy_run_through_every_fault_kind_is_pinned() {
        let mut config = ZeusConfig::with_nodes(5);
        config.lease_ticks = 2_000;
        let mut c = SimCluster::with_network(config, NetConfig::lossy(35, 0.05, 0.05));
        const OBJECTS: u16 = 10;
        for o in 0..OBJECTS {
            c.create_object(ObjectId(u64::from(o)), vec![0u8; 8], NodeId(o % 5));
        }
        let sessions: Vec<SimSession> = (0..5).map(|n| c.handle(NodeId(n))).collect();
        let mut outcomes = Vec::new();
        // Each of `nodes` writes two objects it owns and two another node
        // owns, three times over.
        let mut round = |c: &SimCluster, nodes: &[u16], shift: u16| {
            for &n in nodes.iter().cycle().take(3 * nodes.len()) {
                for object in [n, (n + shift) % 5, n + 5, (n + shift) % 5 + 5] {
                    let object = ObjectId(u64::from(object));
                    let result =
                        sessions[usize::from(n)].write_txn(move |tx| tx.update(object, bump));
                    outcomes.push(match result {
                        Ok(()) => 0,
                        Err(e) => fnv1a(format!("{e:?}").bytes().map(u64::from)),
                    });
                }
            }
            c.now()
        };
        fn bump(old: &[u8]) -> Vec<u8> {
            let mut new = old.to_vec();
            new[0] = new[0].wrapping_add(1);
            new
        }
        round(&c, &[0, 1, 2, 3, 4], 1);
        c.settle(100_000);

        c.admin().isolate(NodeId(4)).unwrap();
        c.advance_ticks(2_500);
        round(&c, &[0, 1, 4], 2);
        c.admin().heal(NodeId(4)).unwrap();
        c.advance_ticks(1_200);
        round(&c, &[1, 3, 4], 3);
        c.settle(100_000);

        c.admin().crash(NodeId(3)).unwrap();
        c.settle(100_000);
        round(&c, &[0, 2, 4], 1);
        c.admin().restart(NodeId(3)).unwrap();
        c.advance_ticks(4_000);
        c.settle(100_000);
        round(&c, &[3, 1], 4);

        c.admin().expel(NodeId(4)).unwrap();
        c.advance_ticks(4_000);
        round(&c, &[0, 1, 2, 3], 2);
        c.admin().readmit(NodeId(4)).unwrap();
        c.advance_ticks(4_000);
        c.settle(100_000);
        round(&c, &[4, 0, 2], 3);
        c.settle(100_000);

        fn pin(numbers: &mut Vec<u64>) -> impl FnMut(&'static str, u64) + '_ {
            move |name, value| {
                if !["ring_entries_visited", "ticks", "quiet_ticks"].contains(&name) {
                    numbers.push(value);
                }
            }
        }
        let net = c.net_stats();
        let mut numbers = vec![c.now()];
        net.for_each(pin(&mut numbers));
        numbers.extend(&outcomes);
        for n in 0..5 {
            let inner = c.lock();
            let cell = &inner.cells[n];
            numbers.push(cell.node.epoch().0);
            cell.node.commit_stats().for_each(pin(&mut numbers));
            cell.node.ownership_stats().for_each(pin(&mut numbers));
            cell.stats().0.for_each(pin(&mut numbers));
        }
        assert_eq!(
            (c.now(), net.messages_sent, net.messages_dropped),
            (25_819, 6_992, 438)
        );
        assert_eq!(fnv1a(numbers), 16_575_095_235_942_212_902);
    }
}
