//! Session-first client API: one driver surface over every runtime.
//!
//! Zeus's pitch (§7 of the paper) is that transactions run as *local* code —
//! so the client surface must not throttle that locality behind one blocking
//! round trip per transaction. This module defines the surface every
//! consumer (benches, examples, chaos, integration tests) is written
//! against, exactly once:
//!
//! * [`ClusterDriver`] — a running cluster, simulated
//!   ([`crate::SimCluster`]) or threaded ([`crate::ThreadedCluster`],
//!   [`crate::UdpCluster`]): object loading, per-node sessions, stats, and
//!   the link-fault hooks the fault scenarios need.
//! * [`Session`] — a client's connection to one node: typed
//!   [`write_txn`](Session::write_txn)/[`read_txn`](Session::read_txn)
//!   closures returning any `Send` value, explicit ownership
//!   migration via [`acquire`](Session::acquire), and *pipelined*
//!   non-blocking submission ([`submit_write`](Session::submit_write) →
//!   [`TxTicket`]) so a single client keeps N transactions in flight.
//! * [`RetryPolicy`] — how transient aborts are retried (budget, back-off,
//!   and the [`TxError::is_retryable`] classification), an explicit
//!   object instead of retry loops baked into the runtimes.
//!
//! # Writing and reading through a session
//!
//! ```
//! use zeus_core::{ClusterDriver, NodeId, ObjectId, Session, SimCluster, ZeusConfig};
//!
//! let cluster = SimCluster::new(ZeusConfig::with_nodes(3));
//! let account = ObjectId(1);
//! cluster.create_object(account, 100u64.to_le_bytes().to_vec(), NodeId(0));
//!
//! // Transactions are typed: the closure's Ok value is returned directly.
//! let session = cluster.handle(NodeId(0));
//! let balance: u64 = session
//!     .write_txn(move |tx| {
//!         let mut balance = u64::from_le_bytes(tx.read(account)?.as_ref().try_into().unwrap());
//!         balance -= 30;
//!         tx.write(account, balance.to_le_bytes().to_vec())?;
//!         Ok(balance)
//!     })
//!     .unwrap();
//! assert_eq!(balance, 70);
//!
//! // Read-only transactions run locally on any replica, zero messages.
//! cluster.quiesce();
//! let read = cluster.handle(NodeId(1));
//! let seen: u64 = read
//!     .read_txn(move |tx| {
//!         Ok(u64::from_le_bytes(tx.read(account)?.as_ref().try_into().unwrap()))
//!     })
//!     .unwrap();
//! assert_eq!(seen, 70);
//! ```
//!
//! # Pipelined submission
//!
//! ```
//! use zeus_core::{ClusterDriver, NodeId, ObjectId, Session, ThreadedCluster, ZeusConfig};
//!
//! let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(3));
//! for i in 0..8u64 {
//!     cluster.create_object(ObjectId(i), vec![0u8], NodeId(0));
//! }
//! let session = cluster.handle(NodeId(0));
//! // Keep 8 transactions in flight from one client thread...
//! let tickets: Vec<_> = (0..8u64)
//!     .map(|i| {
//!         session.submit_write(move |tx| {
//!             tx.update(ObjectId(i), |old| {
//!                 let mut v = old.to_vec();
//!                 v[0] = v[0].wrapping_add(1);
//!                 v
//!             })?;
//!             Ok(())
//!         })
//!     })
//!     .collect();
//! // ...then collect the results (or call `session.drain()` as a barrier).
//! for ticket in tickets {
//!     ticket.wait().unwrap();
//! }
//! session.drain().unwrap();
//! cluster.shutdown();
//! ```

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use zeus_proto::{NodeId, ObjectId, OwnershipRequestKind};

use crate::stats::{LatencyHistogram, NodeStats};
use crate::txn::{TxCtx, TxError};

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// How a session retries transient transaction aborts.
///
/// Retryability is classified by [`TxError::is_retryable`]; the policy
/// supplies the budget and the exponential back-off the paper's §6.2
/// deadlock-avoidance scheme requires (contending coordinators must stop
/// ping-ponging ownership). Every runtime applies it the same way: the first
/// ownership grant of a transaction is free, every failed or stolen-back
/// acquisition round and every transient abort costs one attempt, and a
/// charged transaction sits out the back-off of that attempt (in ticks: 1 µs
/// of wall clock, or of simulated time). The default is the cluster's
/// `max_ownership_retries` budget with a 100 µs back-off base capped at
/// 6.4 ms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum transaction attempts (including the first) before the
    /// session gives up with [`TxError::RetriesExhausted`].
    pub max_attempts: usize,
    /// Back-off before the second attempt; doubles per attempt.
    pub base_backoff: Duration,
    /// Upper bound on the per-attempt back-off.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 256,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(6_400),
        }
    }
}

impl RetryPolicy {
    /// A policy with the given attempt budget and the default back-off.
    pub fn with_budget(max_attempts: usize) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..Default::default()
        }
    }

    /// A policy that never retries: the first abort is returned as-is.
    pub fn no_retry() -> Self {
        Self::with_budget(1)
    }

    /// The back-off to sleep before attempt `attempt` (0-based: the first
    /// retry is attempt 1), exponential and capped at `max_backoff`.
    pub fn backoff(&self, attempt: usize) -> Duration {
        let factor = 1u32 << attempt.min(16) as u32;
        (self.base_backoff * factor).min(self.max_backoff)
    }
}

// ---------------------------------------------------------------------------
// Tickets
// ---------------------------------------------------------------------------

/// What a transaction closure returned, as it travels from the node to its
/// ticket: the closure's own value, boxed so that commands of every result
/// type fit one queue and one driver. Its type is the ticket's `T`.
pub(crate) type TxValue = Box<dyn Any + Send>;

/// The result of a submitted transaction plus the instant the node resolved
/// it. The timestamp is taken where the transaction resolves, so per-ticket
/// latency (resolve minus submit) reflects when it actually finished — not
/// whenever the client got around to polling or draining.
#[derive(Debug)]
struct TicketReply {
    result: Result<TxValue, TxError>,
    resolved_at: Instant,
}

/// The cell a submitted transaction's reply travels through: written once by
/// whichever thread ran the node when the transaction resolved, read once by
/// the ticket. One allocation per transaction —
/// a channel would bring its own queue and a second condition variable for a
/// message that is only ever one. The condition variable is signalled only
/// for a ticket that is blocked on it: a polled ticket costs its resolver the
/// lock and nothing else.
#[derive(Debug)]
struct ReplyCell {
    state: Mutex<ReplyState>,
    resolved: Condvar,
}

#[derive(Debug)]
enum ReplyState {
    Waiting,
    /// Waiting, and the ticket's thread is blocked in [`ReplyReceiver::wait`].
    Parked,
    Resolved(TicketReply),
    /// No reply is (any longer) to be had: the sending half was dropped
    /// without one (the node loop exited, or the command never reached it),
    /// or the ticket already took it.
    Closed,
}

/// The node's half of a [`ReplyCell`] — what it resolves a submitted command
/// through — plus, for a session with a [`Session::drain`] barrier to keep,
/// the guard that sending the result (or dropping the slot) releases.
#[derive(Debug)]
pub(crate) struct ReplySlot {
    cell: Arc<ReplyCell>,
    _guard: Option<InflightGuard>,
}

/// The ticket's half of a [`ReplyCell`].
#[derive(Debug)]
pub(crate) struct ReplyReceiver(Arc<ReplyCell>);

impl ReplySlot {
    /// A fresh reply cell, as its two halves.
    pub(crate) fn new(guard: Option<InflightGuard>) -> (Self, ReplyReceiver) {
        let cell = Arc::new(ReplyCell {
            state: Mutex::new(ReplyState::Waiting),
            resolved: Condvar::new(),
        });
        let slot = ReplySlot {
            cell: Arc::clone(&cell),
            _guard: guard,
        };
        (slot, ReplyReceiver(cell))
    }

    /// Resolves the ticket. The resolve instant is stamped here, where the
    /// transaction finished, so pipelined tickets expose true per-op latency.
    pub(crate) fn send(self, result: Result<TxValue, TxError>) {
        self.settle(ReplyState::Resolved(TicketReply {
            result,
            resolved_at: Instant::now(),
        }));
        // `_guard` drops here: the submission has resolved.
    }

    fn settle(&self, outcome: ReplyState) {
        let mut state = self.cell.state.lock().expect("no panic while held");
        let parked = match *state {
            ReplyState::Waiting => false,
            ReplyState::Parked => true,
            ReplyState::Resolved(_) | ReplyState::Closed => return,
        };
        *state = outcome;
        drop(state);
        if parked {
            self.cell.resolved.notify_one();
        }
    }
}

impl Drop for ReplySlot {
    fn drop(&mut self) {
        self.settle(ReplyState::Closed);
    }
}

impl ReplyReceiver {
    /// The reply if the cell has been settled: `Some(None)` when the sender
    /// went away without one. `None` while the transaction is in flight.
    fn try_take(&self) -> Option<Option<TicketReply>> {
        Self::take(&mut self.0.state.lock().expect("no panic while held"))
    }

    /// Blocks until the cell is settled; `None` when the sender went away
    /// without a reply.
    fn wait(&self) -> Option<TicketReply> {
        let mut state = self.0.state.lock().expect("no panic while held");
        loop {
            if let Some(outcome) = Self::take(&mut state) {
                return outcome;
            }
            *state = ReplyState::Parked;
            state = self.0.resolved.wait(state).expect("no panic while held");
        }
    }

    fn take(state: &mut ReplyState) -> Option<Option<TicketReply>> {
        match std::mem::replace(state, ReplyState::Closed) {
            in_flight @ (ReplyState::Waiting | ReplyState::Parked) => {
                *state = in_flight;
                None
            }
            ReplyState::Resolved(reply) => Some(Some(reply)),
            ReplyState::Closed => Some(None),
        }
    }
}

/// Counts a session's submissions that have not resolved yet. `drain` blocks
/// on zero (the condvar), and `read_txn` asks [`Inflight::is_idle`] on every
/// call, so the count itself is an atomic: the read gate costs one load, not
/// a mutex round-trip.
#[derive(Debug, Default)]
pub(crate) struct Inflight {
    count: AtomicUsize,
    /// How many threads sleep in `wait_zero`: the sleep/wake handshake, and
    /// what tells the last guard whether anyone is there to wake.
    sleepers: Mutex<usize>,
    done: Condvar,
}

impl Inflight {
    /// Counts one more submission in flight until the returned guard drops.
    pub(crate) fn guard(self: &Arc<Self>) -> InflightGuard {
        self.count.fetch_add(1, Ordering::AcqRel);
        InflightGuard(Arc::clone(self))
    }

    /// Whether every submission so far has resolved. Acquire, pairing with
    /// the release half of the guard's decrement: a caller that sees zero
    /// also sees everything the node thread did before resolving the last
    /// submission.
    pub(crate) fn is_idle(&self) -> bool {
        self.count.load(Ordering::Acquire) == 0
    }

    pub(crate) fn wait_zero(&self) {
        let mut sleepers = self.sleepers.lock().expect("no panic while held");
        while !self.is_idle() {
            *sleepers += 1;
            sleepers = self.done.wait(sleepers).expect("no panic while held");
            *sleepers -= 1;
        }
    }
}

/// Decrements the session's in-flight count when dropped — which happens
/// exactly when the command's reply slot is consumed or discarded, on every
/// path (reply sent, node loop exited, command never delivered).
#[derive(Debug)]
pub(crate) struct InflightGuard(Arc<Inflight>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        if self.0.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Taking the lock orders this after a waiter's check of the
            // count: it is either not yet checking, and will find zero, or
            // already asleep and counted.
            let asleep = self
                .0
                .sleepers
                .lock()
                .map_or(true, |sleepers| *sleepers > 0);
            if asleep {
                self.0.done.notify_all();
            }
        }
    }
}

/// A transaction submitted with [`Session::submit_write`], resolving to its
/// typed result.
///
/// Dropping a ticket abandons the *result*, not the transaction: the
/// submission still executes (and still counts toward
/// [`Session::drain`]'s barrier).
#[derive(Debug)]
pub struct TxTicket<T> {
    state: TicketState<T>,
}

#[derive(Debug)]
enum TicketState<T> {
    /// The result is already known (simulated runtime, or polled), plus the
    /// instant it resolved.
    Ready(Option<Result<T, TxError>>, Instant),
    /// The node thread will put the result into this cell.
    Pending(ReplyReceiver),
}

impl<T: Send + 'static> TxTicket<T> {
    /// A ticket that is already resolved.
    pub(crate) fn ready(result: Result<T, TxError>) -> Self {
        TxTicket {
            state: TicketState::Ready(Some(result), Instant::now()),
        }
    }

    /// A ticket resolved by a future reply on `rx`.
    pub(crate) fn pending(rx: ReplyReceiver) -> Self {
        TxTicket {
            state: TicketState::Pending(rx),
        }
    }

    fn downcast(result: Result<TxValue, TxError>) -> Result<T, TxError> {
        result.map(|value| {
            *value
                .downcast::<T>()
                .expect("a ticket is typed by the closure that filled it")
        })
    }

    /// Blocks until the transaction resolves and returns its result. A
    /// ticket whose node shut down resolves to [`TxError::NodeUnavailable`].
    pub fn wait(self) -> Result<T, TxError> {
        self.wait_timed().0
    }

    /// Like [`TxTicket::wait`], additionally returning the instant the node
    /// resolved the transaction — the end point for per-ticket latency
    /// measurements of pipelined submissions.
    pub fn wait_timed(self) -> (Result<T, TxError>, Instant) {
        match self.state {
            TicketState::Ready(result, at) => (result.expect("ticket already consumed"), at),
            TicketState::Pending(rx) => match rx.wait() {
                Some(reply) => (Self::downcast(reply.result), reply.resolved_at),
                None => (Err(TxError::NodeUnavailable), Instant::now()),
            },
        }
    }

    /// Returns the result if the transaction has resolved, `None` if it is
    /// still in flight. After `Some` is returned the ticket is spent.
    pub fn try_poll(&mut self) -> Option<Result<T, TxError>> {
        self.try_poll_timed().map(|(result, _)| result)
    }

    /// Like [`TxTicket::try_poll`], additionally returning the instant the
    /// node resolved the transaction.
    pub fn try_poll_timed(&mut self) -> Option<(Result<T, TxError>, Instant)> {
        match &mut self.state {
            TicketState::Ready(result, at) => result.take().map(|r| (r, *at)),
            TicketState::Pending(rx) => {
                let (result, at) = match rx.try_take()? {
                    Some(reply) => (Self::downcast(reply.result), reply.resolved_at),
                    None => (Err(TxError::NodeUnavailable), Instant::now()),
                };
                self.state = TicketState::Ready(None, at);
                Some((result, at))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// A client's connection to one node of a cluster.
///
/// Obtained from [`ClusterDriver::handle`]; cloneable and sendable, so one
/// session can be shared across client threads (clones share the
/// [`drain`](Session::drain) barrier). See the [module docs](self) for
/// worked examples.
pub trait Session: Clone + Send + 'static {
    /// The node this session talks to.
    fn node(&self) -> NodeId;

    /// Replaces the session's retry policy (builder style).
    #[must_use]
    fn with_retry(self, policy: RetryPolicy) -> Self;

    /// The session's current retry policy.
    fn retry_policy(&self) -> &RetryPolicy;

    /// Executes a write transaction, blocking while ownership of the objects
    /// it touches is acquired (the paper's §3.2 blocking model: transactions
    /// pipeline, ownership requests stall). Transient aborts are retried per
    /// the session's [`RetryPolicy`].
    fn write_txn<T, F>(&self, f: F) -> Result<T, TxError>
    where
        T: Send + 'static,
        F: FnMut(&mut TxCtx<'_>) -> Result<T, TxError> + Send + 'static;

    /// Executes a strictly serializable read-only transaction locally on
    /// this node's replicas (§5.3) — no network traffic either way.
    ///
    /// On the threaded runtimes the transaction runs on the *calling* thread
    /// when this session (and its clones) has nothing in flight: one
    /// optimistic pass over the node's shared store, validated, and counted
    /// only while the node's read lease — published by its loop, checked
    /// against the caller's own clock — is running. Otherwise, and whenever
    /// that one attempt does not commit, it queues to the node loop behind
    /// the session's earlier submissions; retries, the wait for in-flight
    /// reliable commits and every error ([`TxError::Fenced`],
    /// [`TxError::NotReplicated`], [`TxError::NodeUnavailable`], …) come
    /// from there. Either way a read issued after
    /// [`submit_write`](Session::submit_write) on the same session is
    /// ordered after that write. `f` may therefore run more than once and
    /// on either thread, as its `FnMut + Send` bound says.
    fn read_txn<T, F>(&self, f: F) -> Result<T, TxError>
    where
        T: Send + 'static,
        F: FnMut(&mut TxCtx<'_>) -> Result<T, TxError> + Send + 'static;

    /// Submits a write transaction without waiting for it: the returned
    /// [`TxTicket`] resolves when it commits or terminally aborts, and **may
    /// already be resolved when this returns**. On the threaded runtimes the
    /// transaction runs on the calling thread when the node is free — a
    /// write on objects the node owns has then committed locally and its
    /// replication is under way — and is queued for the node's loop
    /// otherwise, so a single client thread can keep N submissions in
    /// flight; on the simulated runtime submission always executes
    /// synchronously. Either way `f` may run more than once (retries) and on
    /// either thread, as its `FnMut + Send` bound says, and the ticket's
    /// resolve instant ([`TxTicket::wait_timed`]) is taken where it
    /// resolved.
    fn submit_write<T, F>(&self, f: F) -> TxTicket<T>
    where
        T: Send + 'static,
        F: FnMut(&mut TxCtx<'_>) -> Result<T, TxError> + Send + 'static;

    /// Barrier: blocks until every transaction submitted through this
    /// session (and its clones) has resolved. Tickets dropped without
    /// [`TxTicket::wait`] are still awaited.
    fn drain(&self) -> Result<(), TxError>;

    /// Explicitly migrates `object` to this node (the bulk-migration and
    /// hot-object scenarios of Figures 10–11).
    fn acquire(&self, object: ObjectId, kind: OwnershipRequestKind) -> Result<(), TxError>;

    /// This node's statistics and ownership-latency histogram, read on the
    /// calling thread: the call takes the node's lock and does not queue
    /// behind the session's submissions, so a transaction still in flight
    /// may or may not be counted yet. [`TxError::NodeUnavailable`] if the
    /// node is gone.
    fn stats(&self) -> Result<(NodeStats, LatencyHistogram), TxError>;
}

// ---------------------------------------------------------------------------
// Admin surface
// ---------------------------------------------------------------------------

/// Error from an administrative cluster operation.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminError {
    /// The node id is outside the deployment.
    UnknownNode(NodeId),
    /// Restart was requested for a node that is not crashed.
    NotCrashed(NodeId),
    /// The driver does not support this operation (e.g. process crash on a
    /// runtime without a process model).
    Unsupported {
        /// The operation that was requested.
        op: &'static str,
    },
}

impl std::fmt::Display for AdminError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdminError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            AdminError::NotCrashed(n) => write!(f, "node {n:?} is not crashed"),
            AdminError::Unsupported { op } => {
                write!(f, "operation `{op}` is not supported by this driver")
            }
        }
    }
}

impl std::error::Error for AdminError {}

/// The administrative surface of a cluster: membership mutation and fault
/// injection, obtained from [`ClusterDriver::admin`].
///
/// Every membership-mutating operation ([`expel`](Admin::expel),
/// [`readmit`](Admin::readmit), and the crash/restart pair) is routed
/// through the replicated view service: the driver forwards it to every view
/// replica, and the change commits once a majority agrees — no single
/// "acting manager" whose death can wedge administration.
#[derive(Debug)]
pub struct Admin<'a, D: ClusterDriver + ?Sized> {
    driver: &'a D,
}

impl<D: ClusterDriver + ?Sized> Admin<'_, D> {
    fn check(&self, node: NodeId) -> Result<(), AdminError> {
        if (node.0 as usize) < self.driver.nodes() {
            Ok(())
        } else {
            Err(AdminError::UnknownNode(node))
        }
    }

    /// Expels `node` from the membership and bans it from heartbeat
    /// re-admission (scale-in, or evicting a misbehaving node). Committed by
    /// a majority of view replicas.
    pub fn expel(&self, node: NodeId) -> Result<(), AdminError> {
        self.check(node)?;
        self.driver.admin_expel(node)
    }

    /// Lifts the ban on `node` and proposes its re-admission. The node joins
    /// the next committed view with a fresh admission epoch (its replica
    /// state is discarded and re-acquired through the ownership protocol).
    pub fn readmit(&self, node: NodeId) -> Result<(), AdminError> {
        self.check(node)?;
        self.driver.admin_readmit(node)
    }

    /// Crashes `node` (fail-stop: it processes nothing further until
    /// [`restart`](Admin::restart)). The failure detector expels it once its
    /// leases lapse.
    pub fn crash(&self, node: NodeId) -> Result<(), AdminError> {
        self.check(node)?;
        self.driver.admin_crash(node)
    }

    /// Restarts a crashed `node` with empty state; its heartbeats re-admit
    /// it through the view service.
    pub fn restart(&self, node: NodeId) -> Result<(), AdminError> {
        self.check(node)?;
        self.driver.admin_restart(node)
    }

    /// Cuts every link between `node` and the rest of the cluster. The node
    /// keeps running — it stops hearing heartbeats, fences itself after a
    /// lease of silence ([`TxError::Fenced`]) and is eventually expelled.
    pub fn isolate(&self, node: NodeId) -> Result<(), AdminError> {
        self.check(node)?;
        self.driver.fault_isolate(node);
        Ok(())
    }

    /// Heals every link between `node` and the rest of the cluster; its next
    /// heartbeat re-admits it (or renews its leases if it was never
    /// expelled).
    pub fn heal(&self, node: NodeId) -> Result<(), AdminError> {
        self.check(node)?;
        self.driver.fault_heal(node);
        Ok(())
    }

    /// Heals every injected link fault at once.
    pub fn heal_all(&self) {
        self.driver.fault_heal_all();
    }
}

// ---------------------------------------------------------------------------
// Cluster driver
// ---------------------------------------------------------------------------

/// A running Zeus cluster, driven uniformly across runtimes.
///
/// Implemented by [`crate::SimCluster`] (deterministic, single-threaded) and
/// by [`crate::runtime::Cluster`], the one shell around one OS thread per
/// node, on both of its transports — in-process mailboxes
/// ([`crate::ThreadedCluster`]) and loopback UDP ([`crate::UdpCluster`]):
/// benches, examples, chaos scenarios and integration tests write their
/// driver loops once against this trait and run them on any of the three.
pub trait ClusterDriver {
    /// The session type this driver hands out.
    type Session: Session;

    /// Number of nodes in the deployment.
    fn nodes(&self) -> usize;

    /// Opens a session to node `id`. Each call returns an independent
    /// session (its own [`Session::drain`] barrier).
    fn handle(&self, id: NodeId) -> Self::Session;

    /// Creates `object` on every node with its home placement: `owner` plus
    /// the configured number of reader replicas.
    fn create_object(&self, object: ObjectId, data: Bytes, owner: NodeId);

    /// Migrates `object` to `to` (acquire-owner), returning the observed
    /// ownership latency in microseconds (simulated ticks on the simulated
    /// runtime, wall clock on the threaded one).
    fn migrate(&self, object: ObjectId, to: NodeId) -> Result<u64, TxError>;

    /// Statistics aggregated over all live nodes.
    fn aggregate_stats(&self) -> NodeStats;

    /// Transport-level traffic counters.
    fn net_stats(&self) -> zeus_net::NetStats;

    /// Lets in-flight protocol work (pipelined reliable commits, pending
    /// recoveries) finish: the simulated runtime drives the network until
    /// quiescent, the threaded runtime's node threads are always running so
    /// this is a no-op.
    fn quiesce(&self);

    /// The administrative surface: membership mutation and fault
    /// injection, behind one typed handle (see [`Admin`]).
    fn admin(&self) -> Admin<'_, Self>
    where
        Self: Sized,
    {
        Admin { driver: self }
    }

    // ------------------------------------------------------------------
    // Admin SPI — reached through [`ClusterDriver::admin`], not called
    // directly. Membership-mutating operations must route through the view
    // service (the driver forwards them to every view replica).
    // ------------------------------------------------------------------

    /// Expels `node`: ban + view-service expulsion proposal on every view
    /// replica.
    fn admin_expel(&self, node: NodeId) -> Result<(), AdminError> {
        let _ = node;
        Err(AdminError::Unsupported { op: "expel" })
    }

    /// Re-admits `node`: unban + view-service admission proposal on every
    /// view replica.
    fn admin_readmit(&self, node: NodeId) -> Result<(), AdminError> {
        let _ = node;
        Err(AdminError::Unsupported { op: "readmit" })
    }

    /// Fail-stops `node`.
    fn admin_crash(&self, node: NodeId) -> Result<(), AdminError> {
        let _ = node;
        Err(AdminError::Unsupported { op: "crash" })
    }

    /// Restarts a crashed `node` with empty state.
    fn admin_restart(&self, node: NodeId) -> Result<(), AdminError> {
        let _ = node;
        Err(AdminError::Unsupported { op: "restart" })
    }

    // ------------------------------------------------------------------
    // Fault SPI (the fig11-class partition scenarios) — reached through
    // [`Admin::isolate`] / [`Admin::heal`] / [`Admin::heal_all`].
    // ------------------------------------------------------------------

    /// Cuts every link between `node` and the rest of the cluster.
    fn fault_isolate(&self, node: NodeId);

    /// Heals every link between `node` and the rest of the cluster.
    fn fault_heal(&self, node: NodeId);

    /// Heals every injected link fault at once.
    fn fault_heal_all(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_backoff_is_exponential_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), Duration::from_micros(100));
        assert_eq!(p.backoff(1), Duration::from_micros(200));
        assert_eq!(p.backoff(6), Duration::from_micros(6_400));
        assert_eq!(p.backoff(60), Duration::from_micros(6_400), "capped");
    }

    #[test]
    fn ready_tickets_resolve_immediately() {
        let mut t: TxTicket<u64> = TxTicket::ready(Ok(7));
        assert_eq!(t.try_poll(), Some(Ok(7)));
        assert_eq!(t.try_poll(), None, "spent");
        let t: TxTicket<u64> = TxTicket::ready(Err(TxError::Fenced));
        assert_eq!(t.wait(), Err(TxError::Fenced));
    }

    #[test]
    fn pending_tickets_poll_and_wait() {
        let (tx, rx) = ReplySlot::new(None);
        let mut t: TxTicket<u64> = TxTicket::pending(rx);
        assert_eq!(t.try_poll(), None);
        tx.send(Ok(Box::new(9u64)));
        assert_eq!(t.try_poll(), Some(Ok(9)));
        assert_eq!(t.try_poll(), None, "spent");

        let (tx, rx) = ReplySlot::new(None);
        let t: TxTicket<u64> = TxTicket::pending(rx);
        tx.send(Ok(Box::new(11u64)));
        assert_eq!(t.wait(), Ok(11));

        // A dropped node thread resolves tickets to NodeUnavailable.
        let (tx, rx) = ReplySlot::new(None);
        drop(tx);
        let mut t: TxTicket<u64> = TxTicket::pending(rx);
        assert_eq!(t.try_poll(), Some(Err(TxError::NodeUnavailable)));
        let (tx, rx) = ReplySlot::new(None);
        drop(tx);
        let t: TxTicket<u64> = TxTicket::pending(rx);
        assert_eq!(t.wait(), Err(TxError::NodeUnavailable));
    }

    /// Spins until `parked()` holds: the other thread has got as far as
    /// blocking, which is the interleaving the callers are about.
    fn until(parked: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !parked() {
            assert!(Instant::now() < deadline, "the other thread never blocked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_ticket_blocked_in_wait_returns_when_its_slot_is_sent_or_dropped() {
        for (send, expected) in [(true, Ok(3)), (false, Err(TxError::NodeUnavailable))] {
            let (tx, rx) = ReplySlot::new(None);
            let t: TxTicket<u64> = TxTicket::pending(rx);
            let waiter = std::thread::spawn(move || t.wait());
            until(|| matches!(*tx.cell.state.lock().unwrap(), ReplyState::Parked));
            if send {
                tx.send(Ok(Box::new(3u64)));
            } else {
                drop(tx);
            }
            assert_eq!(waiter.join().expect("waiter"), expected);
        }
    }

    #[test]
    fn a_polled_ticket_sees_the_reply_without_ever_parking() {
        let (tx, rx) = ReplySlot::new(None);
        let cell = Arc::clone(&tx.cell);
        let mut t: TxTicket<u64> = TxTicket::pending(rx);
        assert_eq!(t.try_poll(), None);
        // Still plain `Waiting`: resolving it will have nobody to signal.
        assert!(matches!(*cell.state.lock().unwrap(), ReplyState::Waiting));
        tx.send(Ok(Box::new(4u64)));
        assert!(matches!(
            *cell.state.lock().unwrap(),
            ReplyState::Resolved(_)
        ));
        assert_eq!(t.try_poll(), Some(Ok(4)));
    }

    #[test]
    fn drain_returns_when_the_last_guard_drops_on_another_thread() {
        let inflight = Arc::new(Inflight::default());
        inflight.wait_zero(); // nothing in flight: no wait
        let (first, last) = (inflight.guard(), inflight.guard());
        let drainer = {
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || inflight.wait_zero())
        };
        until(|| *inflight.sleepers.lock().unwrap() == 1);
        drop(first);
        assert!(!drainer.is_finished(), "one submission is still in flight");
        drop(last);
        drainer.join().expect("drainer");
        assert!(inflight.is_idle());
        assert_eq!(*inflight.sleepers.lock().unwrap(), 0);
    }

    #[test]
    fn timed_accessors_expose_the_resolve_instant() {
        let before = Instant::now();
        let (tx, rx) = ReplySlot::new(None);
        let mut t: TxTicket<u64> = TxTicket::pending(rx);
        assert!(t.try_poll_timed().is_none());
        tx.send(Ok(Box::new(5u64)));
        let sent_by = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let (result, at) = t.try_poll_timed().unwrap();
        assert_eq!(result, Ok(5));
        assert!(
            at >= before && at <= sent_by,
            "resolve instant is the sender's, not poll time"
        );

        // Ready tickets are stamped at creation, and wait_timed agrees.
        let t: TxTicket<u64> = TxTicket::ready(Ok(7));
        let (result, at) = t.wait_timed();
        assert_eq!(result, Ok(7));
        assert!(at >= before && at <= Instant::now());
    }
}
