//! Threaded runtime: one OS thread per Zeus node, whatever the transport.
//!
//! This is the runtime the throughput experiments use. Each node runs an
//! event loop on its own thread (network messages, client commands, parked
//! transactions waiting for ownership); application threads interact with a
//! node through a cloneable [`ThreadedSession`] obtained from
//! [`Cluster::handle`] — [`Cluster`] being the one shell around the loops,
//! which [`ThreadedCluster`] starts on in-process mailboxes and
//! [`crate::UdpCluster`] on loopback UDP sockets. A session's blocking
//! [`write_txn`](Session::write_txn) stalls only while ownership is being
//! acquired — exactly the blocking model of the paper (§3.2): transactions
//! pipeline, ownership requests stall — and its non-blocking
//! [`submit_write`](Session::submit_write) keeps N transactions in flight
//! from a single client thread.
//!
//! The node itself is a state machine behind one lock (`NodeCell` below),
//! and whoever holds the lock runs it. The loop holds it while it handles
//! messages, timers and queued commands and lets go of it before it sleeps;
//! a session that finds it free runs its transaction right there, on the
//! application thread that issued it (§3.2, §7) — a local write's ticket is
//! resolved when `submit_write` returns — and otherwise queues the command
//! for the loop, which runs queued commands in batches (`NodeLink::send`).
//!
//! Whoever runs the node ships what it sent (`NodeCell::flush`): the loop
//! twice an iteration, after the messages it handled — so their replies do
//! not wait behind the tick and the queued commands — and at its end; a
//! caller once, after its command. What the node addressed to itself never
//! reaches the transport: the flush handles it there and then. A directory
//! replica drives the arbitration of its own requests (§4.2), so that is
//! the REQ and the driver's own ACK of every move it asks for.
//!
//! Read-only transactions need not even the lock when they need not:
//! a session with nothing in flight runs [`read_txn`](Session::read_txn) on
//! the calling thread against the node's shared store (`ReadPort` below),
//! and submits it as a command only when that single optimistic attempt
//! does not commit.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, SendError, Sender};
use zeus_net::threaded::{LinkFaults, SharedCounters};
use zeus_net::{Envelope, ThreadedNet, Transport};
use zeus_proto::{NodeId, ObjectId, OwnershipRequestKind, ReplicaSet};
use zeus_store::Store;

use crate::client::{
    AdminError, ClusterDriver, Inflight, ReplySlot, RetryPolicy, Session, TxTicket,
};
use crate::config::ZeusConfig;
use crate::driver::{erase, TxCommand, TxDriver, Work};
use crate::message::Message;
use crate::node::ZeusNode;
use crate::stats::{LatencyHistogram, NodeStats};
use crate::txn::{execute_read_only, TxCtx, TxError};

// ---------------------------------------------------------------------------
// Caller-thread reads
// ---------------------------------------------------------------------------

/// Most object ids [`ReadPort`] holds for the loop's locality engine. The
/// tracker estimates rates, so when the loop falls this far behind the
/// readers, further read sets are dropped instead of queued.
const READ_NOTES_CAP: usize = 4_096;

/// What a node loop shares with its sessions so a read-only transaction can
/// run on the caller's thread (§5.3, §7): the store, and the three things
/// [`ZeusNode::execute_read`] would otherwise have consulted on the loop —
/// whether the node may serve at all, and the counters and locality notes
/// a committed read leaves behind.
///
/// The loop is the only writer of `lease_deadline` and `closed`; session
/// threads are the only writers of the counters.
#[derive(Debug)]
pub(crate) struct ReadPort {
    store: Arc<Store>,
    /// Origin of the loop's clock: `node.tick` is fed the microseconds
    /// elapsed since this instant, and readers measure the same way.
    started: Instant,
    /// The loop-clock microsecond from which the node counts as fenced
    /// ([`ZeusNode::read_lease_deadline`]), republished every loop
    /// iteration. A reader compares it with *its own* reading of the clock:
    /// a loop that stalls or is partitioned stops being trusted when the
    /// lease lapses, not when it next gets to run.
    lease_deadline: AtomicU64,
    /// Set when the loop exits; nothing maintains the store after that.
    closed: AtomicBool,
    counters: ReadCounters,
    /// Read sets of committed caller-thread reads, until the loop hands
    /// them to its locality engine; `None` under the reactive policy,
    /// which tracks nothing.
    read_notes: Option<Mutex<Vec<ObjectId>>>,
}

/// What every caller-thread read *writes*, on cache lines of its own: the
/// rest of [`ReadPort`] is what every such read *loads*, and two sessions
/// reading in parallel would otherwise take those lines from each other with
/// each commit they count. (128 bytes: the adjacent-line prefetcher pairs
/// 64-byte lines.)
#[derive(Debug, Default)]
#[repr(align(128))]
struct ReadCounters {
    /// Read-only transactions committed on caller threads.
    committed: AtomicU64,
    /// Caller-thread attempts that hit a [`TxError::ReadConflict`]. The
    /// queued retry is a new attempt, counted by the node as usual.
    conflicts: AtomicU64,
}

impl ReadPort {
    /// A port onto `node`'s store whose clock starts now.
    fn new(node: &ZeusNode) -> Self {
        ReadPort {
            store: node.shared_store(),
            started: Instant::now(),
            lease_deadline: AtomicU64::new(node.read_lease_deadline()),
            closed: AtomicBool::new(false),
            counters: ReadCounters::default(),
            read_notes: node.tracks_locality().then(Mutex::default),
        }
    }

    /// The loop clock: microseconds since the port was created.
    fn now(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// One optimistic attempt at a read-only transaction on the calling
    /// thread. `Some` is a commit: validated, and finished while the node's
    /// read lease was still running. Everything else — any abort, a lapsed
    /// lease, a closed loop — is `None`, and the caller queues the
    /// transaction: the loop owns retries, waiting and error reporting.
    fn try_read<R>(&self, f: impl FnOnce(&mut TxCtx<'_>) -> Result<R, TxError>) -> Option<R> {
        if self.is_closed() {
            return None;
        }
        let (result, ws) = execute_read_only(&self.store, f);
        let value = match result {
            Ok(value) => value,
            Err(error) => {
                if matches!(error, TxError::ReadConflict) {
                    self.counters.conflicts.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
        };
        // Checked after the reads, so all of them happened under the lease.
        if self.lease_lapsed(self.now()) {
            return None;
        }
        self.counters.committed.fetch_add(1, Ordering::Relaxed);
        if let Some(notes) = &self.read_notes {
            let mut notes = notes.lock().expect("no panic while held");
            if notes.len() < READ_NOTES_CAP {
                notes.extend(ws.read_set().map(|(object, _)| object));
            }
        }
        Some(value)
    }

    /// Whether the loop has exited: nothing maintains the node after that.
    /// Acquire pairs with the release store of [`ReadPort::close`].
    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Marks the loop as gone.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether the published read lease has run out at `now`, a reading of
    /// the *caller's* clock. Acquire pairs with the loop's release store in
    /// [`ReadPort::publish_lease`].
    fn lease_lapsed(&self, now: u64) -> bool {
        now >= self.lease_deadline.load(Ordering::Acquire)
    }

    /// Loop side: publishes the node's current fencing deadline. It moves
    /// only when a heartbeat or a view change does, and the loop is its only
    /// writer, so the cache line every reader loads is written just then,
    /// not on every loop iteration.
    fn publish_lease(&self, deadline: u64) {
        if self.lease_deadline.load(Ordering::Relaxed) != deadline {
            self.lease_deadline.store(deadline, Ordering::Release);
        }
    }

    /// Loop side: moves the pending locality notes into `into` (left empty
    /// otherwise), swapping buffers so neither side reallocates.
    fn take_read_notes(&self, into: &mut Vec<ObjectId>) {
        if let Some(notes) = &self.read_notes {
            std::mem::swap(&mut *notes.lock().expect("no panic while held"), into);
        }
    }

    /// Read-only transactions committed on caller threads so far.
    fn committed(&self) -> u64 {
        self.counters.committed.load(Ordering::Relaxed)
    }

    /// Adds the caller-thread reads to the node's own counters.
    fn add_to(&self, stats: &mut NodeStats) {
        stats.read_txs_committed += self.committed();
        stats.txs_aborted += self.counters.conflicts.load(Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The node, and who runs it
// ---------------------------------------------------------------------------

/// A node as whoever runs it holds it: the state machine, the transactions
/// waiting on it, and the buffer its outbox is flushed through. One coarse
/// lock guards all three, so at any moment exactly one thread — the loop, or
/// a session's caller — is *the* thread the node's single-writer rules are
/// about: no per-object lock, no second writer of the store, no commit
/// pipeline shared between threads.
///
/// [`NodeCell::step`] is the node's iteration on every runtime — the loop's
/// and the simulator's, which holds one cell per node — and
/// [`NodeCell::run`] what a caller with commands does. Neither does I/O:
/// what they send stays in the outbox for their caller to ship.
///
/// A transaction closure that panics does so under the lock, on whichever
/// thread ran it, and poisons it. A poisoned node is a dead node: the loop
/// exits the next time it wants the lock, nobody runs anything on it again,
/// and every ticket resolves to [`TxError::NodeUnavailable`].
#[derive(Debug)]
pub(crate) struct NodeCell {
    pub(crate) node: ZeusNode,
    pub(crate) driver: TxDriver,
    /// Reused by every [`NodeCell::flush`]: what goes to the transport.
    send_buf: Vec<(NodeId, Message, usize)>,
    /// Reused by every [`NodeCell::flush`]: what the node sent itself,
    /// handled in place instead.
    looped: Vec<Message>,
    /// The clock reading the loop sleeps until, 0 while it is awake (an
    /// awake loop looks at the timers itself before it parks). A caller
    /// whose work leaves something due earlier rings the doorbell.
    parked_until: u64,
    /// Commands that ran on the thread that submitted them.
    pub(crate) inline_commands: u64,
    /// Messages the node sent itself and [`NodeCell::flush`] handled.
    looped_back: u64,
}

impl NodeCell {
    pub(crate) fn new(node: ZeusNode) -> Self {
        NodeCell {
            node,
            driver: TxDriver::default(),
            send_buf: Vec::new(),
            looped: Vec::new(),
            parked_until: 0,
            inline_commands: 0,
            looped_back: 0,
        }
    }

    /// One iteration of the node. The clock moves to `now`, so what the
    /// iteration stamps carries the time it began; `inbox` is handled in
    /// arrival order until a message lands a parked command's grant
    /// ([`TxDriver::grant_landed`]) — the rest waits for the next step, so a
    /// competitor's request behind the grant cannot take the objects back
    /// before the command has run; parked commands are polled;
    /// `after_inbox` does what the caller does with what that much sent (a
    /// node loop [flushes](NodeCell::flush) it, so the replies leave before
    /// the tick and the commands; the simulator does nothing) and says
    /// whether that was work; `before_tick` (the caller's own business, told
    /// whether `inbox` still holds messages) names the clock to tick at; the
    /// node ticks; the commands `after_tick` hands over
    /// [run](NodeCell::run). What the step sent and `after_inbox` did not
    /// take stays in the outbox. `Continue` says whether it found work to
    /// do, `Break` is a [`Command::Shutdown`].
    pub(crate) fn step<C: IntoIterator<Item = Command>>(
        &mut self,
        now: u64,
        inbox: &mut VecDeque<Envelope<Message>>,
        after_inbox: impl FnOnce(&mut Self) -> bool,
        before_tick: impl FnOnce(&mut ZeusNode, bool) -> u64,
        after_tick: impl FnOnce(&mut Self) -> C,
    ) -> ControlFlow<(), bool> {
        self.node.advance_clock(now);
        let mut worked = false;
        while let Some(env) = inbox.pop_front() {
            self.node.handle_message(env.from, env.msg);
            worked = true;
            if self.driver.grant_landed(&self.node, now) {
                break;
            }
        }
        worked |= self.driver.poll(&mut self.node, now);
        worked |= after_inbox(self);
        let now = before_tick(&mut self.node, !inbox.is_empty());
        self.node.tick(now);
        let commands = after_tick(self).into_iter().inspect(|_| worked = true);
        self.run(now, commands)?;
        ControlFlow::Continue(worked)
    }

    /// Runs `commands` in order: the last part of a [`NodeCell::step`], and
    /// what a caller does with the one command it has when it finds the node
    /// free. `Break` means a [`Command::Shutdown`] was among them: the
    /// commands behind it are dropped, and the caller closes the node.
    pub(crate) fn run(
        &mut self,
        now: u64,
        commands: impl IntoIterator<Item = Command>,
    ) -> ControlFlow<()> {
        for command in commands {
            match command {
                Command::Tx(command) => self.driver.submit(&mut self.node, now, command),
                Command::CreateObject {
                    object,
                    data,
                    replicas,
                } => self.node.create_object(object, data, replicas),
                Command::AdminExpel { node } => self.node.admin_remove_node(node),
                Command::AdminReadmit { node } => self.node.admin_add_node(node),
                Command::Shutdown => return ControlFlow::Break(()),
            }
        }
        ControlFlow::Continue(())
    }

    /// The node's counters and ownership latencies, as [`Session::stats`]
    /// reports them (a [`ThreadedSession`] adds its caller-thread reads).
    pub(crate) fn stats(&self) -> (NodeStats, LatencyHistogram) {
        let mut stats = self.node.stats();
        stats.inline_commands = self.inline_commands;
        stats.messages_looped_back = self.looped_back;
        (stats, self.node.ownership_latency().clone())
    }

    /// Ships everything in the node's outbox through `transport` as one
    /// destination-grouped flush, at clock `now`. What the node sent itself
    /// never reaches the transport: it is handled right here, in the order
    /// it was sent, and a message that lands a parked command's grant has
    /// the command run before the next one is handled (the rule of
    /// [`NodeCell::step`]); what that sends goes the same way, until the
    /// node sends itself nothing more. Returns whether it handled any.
    ///
    /// A directory replica drives the arbitration of its own requests
    /// (§4.2), so a reader→owner move has two such messages, the REQ and the
    /// driver's own ACK: each would otherwise wait in the node's inbox for
    /// the next iteration.
    fn flush<T: Transport<Message> + ?Sized>(&mut self, now: u64, transport: &T) -> bool {
        let me = self.node.id();
        let looped_before = self.looped_back;
        loop {
            let (batch, looped) = (&mut self.send_buf, &mut self.looped);
            self.node.drain_outbox_with(|to, msg| {
                if to == me {
                    looped.push(msg);
                } else {
                    let bytes = msg.payload_bytes();
                    batch.push((to, msg, bytes));
                }
            });
            if self.looped.is_empty() {
                break;
            }
            for msg in self.looped.drain(..) {
                self.looped_back += 1;
                self.node.handle_message(me, msg);
                if self.driver.grant_landed(&self.node, now) {
                    self.driver.poll(&mut self.node, now);
                }
            }
        }
        if !self.send_buf.is_empty() {
            transport.send_batch(&mut self.send_buf);
        }
        self.looped_back != looped_before
    }

    /// Whether the replication pipeline has room for the commits of new
    /// commands (see [`COMMIT_BACKPRESSURE_HWM`]): the loop's admission rule.
    fn admits(&self) -> bool {
        self.node.outstanding_commits() < COMMIT_BACKPRESSURE_HWM
    }

    /// Whether a caller may run a command ahead of the loop: the loop would
    /// admit it, **and** replication keeps up with the callers
    /// ([`ZeusNode::replication_keeps_up`]: the oldest R-INV still waiting
    /// for its R-ACK has waited less than half a retransmission interval).
    ///
    /// A ticket resolves when its commit *starts*, so a caller that never
    /// waits for the loop is held back by nothing but this. The bound is an
    /// age and not a count because what has to be prevented is a commit
    /// growing old enough to be re-sent into the very backlog that made it
    /// late, and how many commits fit into that time depends on the host,
    /// the transport and the write sizes: an age follows them, a count has
    /// to be tuned to them. A caller that is refused queues its command;
    /// the loop handles protocol traffic — the R-ACKs — before commands, so
    /// what it admits it admits behind the acknowledgements that were due.
    fn admits_inline(&self) -> bool {
        self.admits() && self.node.replication_keeps_up()
    }

    /// The earliest clock reading at which the node has something to do
    /// that only time brings about: one of its own timers, as of `now`, or
    /// the back-off of a parked command, as of `polled_at`, the clock of the
    /// driver's last poll (a back-off that lapsed since is due, not past).
    fn next_due(&self, now: u64, polled_at: u64) -> u64 {
        let next_backoff = self.driver.next_deadline(polled_at).unwrap_or(u64::MAX);
        self.node.next_timer(now).min(next_backoff)
    }
}

/// Ends a node when its loop ends, however it ends: the port closes, and the
/// commands parked in the cell — which outlives the loop, and which nobody
/// will poll again — are dropped, resolving their tickets to
/// [`TxError::NodeUnavailable`].
struct CloseOnExit<'a> {
    reads: &'a ReadPort,
    cell: &'a Mutex<NodeCell>,
}

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        self.reads.close();
        // A poisoned lock still guards a driver whose parked commands can be
        // dropped: the panic was in a transaction's closure, not in the
        // middle of an update of the list.
        let mut cell = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        cell.driver = TxDriver::default();
    }
}

/// A running node as its cluster and its sessions hold it: the node itself
/// behind its lock, the command queue into the loop, the transport — for
/// the loop's doorbell, and for a caller to flush its own commits through —
/// and the port for caller-thread reads.
#[derive(Clone)]
pub(crate) struct NodeLink {
    cell: Arc<Mutex<NodeCell>>,
    commands: Sender<Command>,
    transport: Arc<dyn Transport<Message> + Sync>,
    reads: Arc<ReadPort>,
}

impl std::fmt::Debug for NodeLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Everything but the transport, which need not be `Debug`.
        f.debug_struct("NodeLink")
            .field("cell", &self.cell)
            .field("reads", &self.reads)
            .finish_non_exhaustive()
    }
}

impl NodeLink {
    /// A link to `node` and the receiving end of its command queue, with no
    /// loop running yet.
    fn new<T>(node: ZeusNode, transport: &Arc<T>) -> (Self, Receiver<Command>)
    where
        T: Transport<Message> + Sync,
    {
        let (commands, inbox) = unbounded();
        let link = NodeLink {
            reads: Arc::new(ReadPort::new(&node)),
            cell: Arc::new(Mutex::new(NodeCell::new(node))),
            commands,
            transport: Arc::clone(transport) as Arc<dyn Transport<Message> + Sync>,
        };
        (link, inbox)
    }

    /// Hands `command` to the node. A [`Command::Tx`] runs right here, on
    /// the calling thread, when the node is free to run it
    /// ([`NodeLink::run_inline`]); everything else, and every transaction
    /// that finds the node busy, is queued for the loop, whose doorbell is
    /// rung after the push (in that order: see [`zeus_net::Doorbell`]). `Err` hands
    /// the command back when the loop has exited.
    ///
    /// **A session's commands still run in the order it submitted them.** A
    /// caller runs its command only if it finds the queue empty while it
    /// holds the node's lock, and the loop takes commands off the queue and
    /// runs them under one hold of that lock. So whatever the session
    /// queued earlier has run by the time the queue is seen empty — it is
    /// neither waiting in the queue nor sitting in a batch the loop has
    /// drained and not yet run — and whatever it queues later runs later.
    pub(crate) fn send(&self, command: Command) -> Result<(), SendError<Command>> {
        let command = match command {
            Command::Tx(tx) => match self.run_inline(tx) {
                Ok(()) => return Ok(()),
                Err(tx) => Command::Tx(tx),
            },
            other => other,
        };
        self.commands.send(command)?;
        self.transport.doorbell().ring();
        Ok(())
    }

    /// Runs `command` on the calling thread if the node is free to run it,
    /// and hands it back otherwise. Free means all of:
    ///
    /// 1. nobody holds the node's lock (and no panic has poisoned it);
    /// 2. nothing is queued for the loop, which would have to run first
    ///    (see [`NodeLink::send`]);
    /// 3. the loop has not exited: it is the loop that finishes what parks
    ///    here, hears the R-ACKs and keeps the leases;
    /// 4. the node's read lease has not lapsed by the caller's own clock —
    ///    the gate of [`ReadPort::try_read`]: a loop that is stalled must
    ///    not leave callers committing on a node that should have fenced;
    /// 5. admission is open ([`NodeCell::admits_inline`]).
    ///
    /// A write on objects the node owns is committed, its R-INVs sent and
    /// its ticket resolved when this returns. A command that needs
    /// ownership has issued its requests and parked in the shared
    /// [`TxDriver`], where the loop — woken by the answers — finishes it.
    fn run_inline(&self, command: TxCommand) -> Result<(), TxCommand> {
        let Ok(mut cell) = self.cell.try_lock() else {
            return Err(command);
        };
        let now = self.reads.now();
        cell.node.advance_clock(now);
        if self.reads.is_closed()
            || self.reads.lease_lapsed(now)
            || !cell.admits_inline()
            || !self.commands.is_empty()
        {
            return Err(command);
        }
        cell.inline_commands += 1;
        let _ = cell.run(now, [Command::Tx(command)]);
        cell.flush(now, &*self.transport);
        // The loop sleeps until what was due when it went to sleep. If this
        // command left something due earlier — the first commit after an
        // idle spell has a retransmission timer, a charged command a
        // back-off, a REQ the flush handled here an arbitration — the loop
        // has to hear of it.
        if cell.parked_until != 0 {
            let due = cell.next_due(now, now);
            if due < cell.parked_until {
                cell.parked_until = due;
                drop(cell);
                self.transport.doorbell().ring();
            }
        }
        Ok(())
    }
}

/// Starts `node`'s event loop on a thread of its own.
pub(crate) fn start_node<T>(node: ZeusNode, transport: T) -> (NodeLink, JoinHandle<()>)
where
    T: Transport<Message> + Sync,
{
    let transport = Arc::new(transport);
    let (link, inbox) = NodeLink::new(node, &transport);
    let thread = spawn_loop(&link, transport, inbox);
    (link, thread)
}

/// Spawns the loop of the node behind `link`.
fn spawn_loop<T>(link: &NodeLink, transport: Arc<T>, inbox: Receiver<Command>) -> JoinHandle<()>
where
    T: Transport<Message> + Sync,
{
    let (cell, reads) = (Arc::clone(&link.cell), Arc::clone(&link.reads));
    std::thread::spawn(move || node_loop(&cell, &*transport, inbox, &reads))
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

pub(crate) enum Command {
    /// A transaction or an acquisition: the [`TxDriver`]'s business.
    Tx(TxCommand),
    CreateObject {
        object: ObjectId,
        data: Bytes,
        replicas: ReplicaSet,
    },
    /// Admin expulsion proposal: ban `node` locally and let the view service
    /// drive the quorum view change. Sent to every live view replica so the
    /// proposal survives any minority of replica failures.
    AdminExpel {
        node: NodeId,
    },
    /// Admin re-admission proposal (the inverse of [`Command::AdminExpel`]).
    AdminReadmit {
        node: NodeId,
    },
    Shutdown,
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// Client session to one node of a [`Cluster`], on either transport (see
/// [`Session`]).
///
/// Cloneable and sendable; clones share the [`Session::drain`] barrier.
/// Every command path reports a closed node loop as
/// [`TxError::NodeUnavailable`].
#[derive(Debug, Clone)]
pub struct ThreadedSession {
    node: NodeId,
    link: NodeLink,
    inflight: Arc<Inflight>,
    policy: RetryPolicy,
}

impl ThreadedSession {
    /// Session on `node`, reached through `link` (the cluster shell's, or a
    /// `zeus-node` process's own).
    pub(crate) fn new(node: NodeId, link: NodeLink, policy: RetryPolicy) -> Self {
        ThreadedSession {
            node,
            link,
            inflight: Arc::new(Inflight::default()),
            policy,
        }
    }

    /// Enqueues `work` with the session's policy and a reply slot wired to
    /// its drain barrier, returning the ticket that resolves with the
    /// result. A failed send drops the command — releasing the guard and the
    /// reply sender, so the ticket resolves to [`TxError::NodeUnavailable`].
    fn submit<T: Send + 'static>(&self, work: Work) -> TxTicket<T> {
        let (reply, rx) = ReplySlot::new(Some(self.inflight.guard()));
        let _ = self.link.send(Command::Tx(TxCommand {
            work,
            policy: self.policy.clone(),
            reply,
        }));
        TxTicket::pending(rx)
    }
}

impl Session for ThreadedSession {
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
        self.submit_write(f).wait()
    }

    fn read_txn<T, F>(&self, mut f: F) -> Result<T, TxError>
    where
        T: Send + 'static,
        F: FnMut(&mut TxCtx<'_>) -> Result<T, TxError> + Send + 'static,
    {
        // With nothing of this session in flight there is no earlier
        // submission the read could overtake: try it right here. Otherwise
        // it queues behind the session's own pipelined writes, as ever.
        if self.inflight.is_idle() {
            if let Some(value) = self.link.reads.try_read(&mut f) {
                return Ok(value);
            }
        }
        self.submit(Work::Read(erase(f))).wait()
    }

    fn submit_write<T, F>(&self, f: F) -> TxTicket<T>
    where
        T: Send + 'static,
        F: FnMut(&mut TxCtx<'_>) -> Result<T, TxError> + Send + 'static,
    {
        self.submit(Work::Write(erase(f)))
    }

    fn drain(&self) -> Result<(), TxError> {
        self.inflight.wait_zero();
        Ok(())
    }

    fn acquire(&self, object: ObjectId, kind: OwnershipRequestKind) -> Result<(), TxError> {
        self.submit(Work::Acquire { object, kind }).wait()
    }

    fn stats(&self) -> Result<(NodeStats, LatencyHistogram), TxError> {
        // A poisoned lock is a dead node (see `NodeCell`), and so is one
        // whose loop has exited.
        let cell = self
            .link
            .cell
            .lock()
            .map_err(|_| TxError::NodeUnavailable)?;
        if self.link.reads.is_closed() {
            return Err(TxError::NodeUnavailable);
        }
        let (mut stats, latency) = cell.stats();
        drop(cell);
        self.link.reads.add_to(&mut stats);
        Ok((stats, latency))
    }
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

/// A Zeus cluster in one process: every node runs the same event loop on an
/// OS thread of its own, whatever carries the messages between them. `T`
/// names the transport and selects nothing but the constructor:
/// [`ThreadedCluster::start`] connects the nodes by in-process mailboxes,
/// [`crate::UdpCluster::start`] by loopback UDP sockets. Everything else —
/// sessions, object creation, statistics, admin proposals, fault injection,
/// shutdown — is this one shell's.
pub struct Cluster<T> {
    config: ZeusConfig,
    links: Vec<NodeLink>,
    threads: Vec<JoinHandle<()>>,
    /// The transports' traffic counters: one per mailbox, or the one the
    /// UDP transports share.
    counters: Vec<Arc<SharedCounters>>,
    /// The link-fault table every transport consults on every send.
    faults: Arc<LinkFaults>,
    transport: PhantomData<T>,
}

/// Transport marker of [`ThreadedCluster`]: lossless in-process mailboxes
/// ([`ThreadedNet`]).
#[derive(Debug)]
pub struct InProcess;

/// A Zeus cluster whose nodes exchange messages through in-process
/// mailboxes: the runtime of the throughput experiments.
pub type ThreadedCluster = Cluster<InProcess>;

impl Cluster<InProcess> {
    /// Starts a cluster with the given configuration. One tick is one
    /// microsecond on this runtime, and the mailbox transport sets the
    /// protocol retransmission interval (see `zeus_net::NodeMailbox`'s
    /// [`Transport::rto_micros`]).
    pub fn start(config: ZeusConfig) -> Self {
        let net: ThreadedNet<Message> = ThreadedNet::new(config.nodes);
        let mailboxes = config.all_nodes().into_iter().map(|id| net.mailbox(id));
        Cluster::launch(config, net.counters(), Arc::clone(net.faults()), mailboxes)
    }
}

impl<T> Cluster<T> {
    /// Starts node `i` of `config`'s deployment on the `i`-th of
    /// `transports`, which count their traffic in `counters` and consult
    /// `faults`: what a transport's constructor ends with.
    pub(crate) fn launch<Tr: Transport<Message> + Sync>(
        config: ZeusConfig,
        counters: Vec<Arc<SharedCounters>>,
        faults: Arc<LinkFaults>,
        transports: impl IntoIterator<Item = Tr>,
    ) -> Self {
        let (links, threads) = transports
            .into_iter()
            .enumerate()
            .map(|(i, transport)| {
                start_node(ZeusNode::new(NodeId(i as u16), config.clone()), transport)
            })
            .unzip();
        Cluster {
            config,
            links,
            threads,
            counters,
            faults,
            transport: PhantomData,
        }
    }

    /// A client session on node `id` (see also [`ClusterDriver::handle`]).
    pub fn handle(&self, id: NodeId) -> ThreadedSession {
        ThreadedSession::new(
            id,
            self.links[id.index()].clone(),
            RetryPolicy::with_budget(self.config.max_ownership_retries),
        )
    }

    /// Creates an object on every node with its home placement.
    pub fn create_object(&self, object: ObjectId, data: impl Into<Bytes>, owner: NodeId) {
        let data = data.into();
        let replicas = self.config.default_replicas(owner);
        for link in &self.links {
            let _ = link.send(Command::CreateObject {
                object,
                data: data.clone(),
                replicas: replicas.clone(),
            });
        }
    }

    /// Transport-level traffic counters (messages, bytes, inbox high-water
    /// mark) accumulated since the cluster started.
    pub fn net_stats(&self) -> zeus_net::NetStats {
        let mut total = zeus_net::NetStats::default();
        for counters in &self.counters {
            total.merge(&counters.snapshot());
        }
        total
    }

    /// Routes an admin membership proposal to every view replica except the
    /// target itself (which learns its fate from the committed view). Any
    /// single live replica suffices for the quorum view change to commit,
    /// so sending to all of them tolerates a minority of replica failures.
    fn send_admin(&self, make: impl Fn() -> Command, target: NodeId) {
        for vr in self.config.view_replica_set() {
            if vr != target {
                let _ = self.links[vr.index()].send(make());
            }
        }
    }

    /// Every node but `node`: the far ends of its links.
    fn peers_of(&self, node: NodeId) -> impl Iterator<Item = NodeId> {
        let nodes = self.config.all_nodes().into_iter();
        nodes.filter(move |peer| *peer != node)
    }

    /// Aggregated statistics over all reachable nodes.
    pub fn aggregate_stats(&self) -> NodeStats {
        let mut total = NodeStats::default();
        for id in self.config.all_nodes() {
            if let Ok((stats, _)) = self.handle(id).stats() {
                total.merge(&stats);
            }
        }
        total
    }

    /// Stops all node threads and waits for them to exit (a UDP node's
    /// socket reader goes with its loop): what dropping the cluster does.
    pub fn shutdown(self) {}
}

impl<T> Drop for Cluster<T> {
    fn drop(&mut self) {
        for link in &self.links {
            let _ = link.send(Command::Shutdown);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl<T> ClusterDriver for Cluster<T> {
    type Session = ThreadedSession;

    fn nodes(&self) -> usize {
        self.config.nodes
    }

    fn handle(&self, id: NodeId) -> ThreadedSession {
        Cluster::handle(self, id)
    }

    fn create_object(&self, object: ObjectId, data: Bytes, owner: NodeId) {
        Cluster::create_object(self, object, data, owner);
    }

    fn migrate(&self, object: ObjectId, to: NodeId) -> Result<u64, TxError> {
        let start = Instant::now();
        Cluster::handle(self, to).acquire(object, OwnershipRequestKind::AcquireOwner)?;
        Ok((start.elapsed().as_micros() as u64).max(1))
    }

    fn aggregate_stats(&self) -> NodeStats {
        Cluster::aggregate_stats(self)
    }

    fn net_stats(&self) -> zeus_net::NetStats {
        Cluster::net_stats(self)
    }

    fn quiesce(&self) {
        // Node threads run continuously; in-flight replication drains on its
        // own. Nothing to drive.
    }

    fn admin_expel(&self, node: NodeId) -> Result<(), AdminError> {
        self.send_admin(|| Command::AdminExpel { node }, node);
        Ok(())
    }

    fn admin_readmit(&self, node: NodeId) -> Result<(), AdminError> {
        self.send_admin(|| Command::AdminReadmit { node }, node);
        Ok(())
    }

    fn fault_isolate(&self, node: NodeId) {
        // Cuts every link between `node` and the rest of the cluster. The
        // node keeps running — it stops hearing heartbeats, fences itself
        // after a lease of silence ([`TxError::Fenced`]), and the view
        // service eventually expels it.
        for peer in self.peers_of(node) {
            self.faults.partition(node, peer);
        }
    }

    fn fault_heal(&self, node: NodeId) {
        // Heals every link of `node`; its next heartbeat re-admits it via a
        // view change (or renews its leases if it was never expelled).
        for peer in self.peers_of(node) {
            self.faults.heal_partition(node, peer);
        }
    }

    fn fault_heal_all(&self) {
        self.faults.heal_all();
    }
}

// ---------------------------------------------------------------------------
// Node event loop
// ---------------------------------------------------------------------------

/// Command-admission high-water mark on the replication pipeline. Tickets
/// resolve at commit *initiation* (the pipelined commit of §5), not at
/// replication completion, so nothing in the client path bounds how many
/// commits can be outstanding at once: an open-loop generator past the knee
/// grows the outstanding set — every entry holding its updates for
/// retransmission — without limit, and once its front is a retransmission
/// interval old the node re-sends into the very backlog that made it late.
/// Steady state at the measured knee
/// keeps outstanding in the low tens, so a four-figure mark never throttles
/// healthy pipelining; past it the loop stops draining new commands (they
/// queue in the channel as client-visible delay) until R-ACKs drain the
/// pipeline. Protocol traffic keeps flowing while admission is paused, so
/// the set always drains: acks shrink it and view changes clean up commits
/// stranded by dead peers.
const COMMIT_BACKPRESSURE_HWM: usize = 2_048;

/// Most queued commands the loop takes in one iteration while admission is
/// open. A saturated node amortises the channel's lock and the iteration's
/// closing flush over the whole batch; the bound keeps the batch from
/// holding its first command's R-INVs back for long, and from overshooting
/// [`COMMIT_BACKPRESSURE_HWM`] by more than its size. A lightly loaded node
/// finds a command or two queued and takes just those.
const DRAIN_CAP: usize = 256;

/// The per-node event loop, generic over how bytes move ([`Transport`]):
/// in-process channels for [`ThreadedCluster`], UDP sockets for
/// [`crate::UdpCluster`] and the process-per-node deployments. An iteration
/// is a [`NodeCell::step`], which the simulator runs as well; what is about
/// threads, sockets and wall clocks lives here, around it. That includes the
/// iteration's two [flushes](NodeCell::flush), one after the step has
/// handled its messages and one at its end, and with them the messages the
/// node sends itself, which never reach the transport.
///
/// The loop holds the node's lock for an iteration and runs while there is
/// work. It sleeps in exactly one place, the end of an iteration that found
/// none, with the lock released: parked on the transport's [`zeus_net::Doorbell`] —
/// which every queued command and every delivered message rings, and a
/// caller whose own work on the node left an earlier timer behind — until
/// the earliest thing that is due by the clock alone, a parked command's
/// back-off ([`TxDriver::next_deadline`]) or one of the node's timers
/// ([`ZeusNode::next_timer`]).
fn node_loop<T: Transport<Message>>(
    cell: &Mutex<NodeCell>,
    transport: &T,
    commands: Receiver<Command>,
    reads: &ReadPort,
) {
    let _close = CloseOnExit { reads, cell };
    // Before the first drain: whatever was queued and rung earlier is found
    // by that drain, whatever comes later finds the loop attached.
    transport.doorbell().attach();
    // Batch buffers: the shim's channels are Mutex-backed, so popping a
    // burst one `try_recv` at a time pays one lock round-trip per message.
    // Draining into these local buffers pays one per *batch* instead.
    // `inbox` may carry messages across loop iterations (the step's
    // grant-landed break), preserving arrival order.
    let mut inbox: VecDeque<Envelope<Message>> = VecDeque::new();
    let mut drain_buf: Vec<Envelope<Message>> = Vec::new();
    let mut cmd_buf: Vec<Command> = Vec::new();
    let mut read_notes: Vec<ObjectId> = Vec::new();
    loop {
        // Poisoned: a transaction panicked on the thread that ran it, and
        // what it left of the node is not to be trusted (see `NodeCell`).
        let Ok(mut guard) = cell.lock() else { return };
        let cell = &mut *guard;
        cell.parked_until = 0;
        let now = reads.now();
        // A full drain of the mailbox means it likely holds more — the node
        // is running behind its inbox, and retransmissions must back off
        // before they amplify the backlog (see `ZeusNode::set_congested`).
        let mut inbox_backlog = !inbox.is_empty();
        if inbox.is_empty() {
            inbox_backlog = transport.drain_into(&mut drain_buf, 256) == 256;
            inbox.extend(drain_buf.drain(..));
        }

        let mut tick_at = now;
        let ControlFlow::Continue(mut did_work) = cell.step(
            now,
            &mut inbox,
            // The first flush: the replies the messages set off (ACKs,
            // NACKs, R-ACKs, R-VALs, the INVs of an arbitration this node
            // drives) and the R-INVs of the parked commands they let run
            // leave now, not behind the tick and the queued commands.
            |cell| cell.flush(now, transport),
            // The clock is read again. The transport runs its own periodic
            // work (link-layer retransmission) and feeds back its two
            // signals: its RTO becomes the protocol retry interval, and a
            // backlogged link counts as congestion like a backlogged inbox.
            // What caller-thread reads touched reaches the locality engine
            // before it plans.
            |node, inbox_left| {
                tick_at = reads.now();
                transport.maintain(tick_at);
                if let Some(rto) = transport.rto_micros() {
                    node.set_retransmit_interval(rto);
                }
                node.set_congested(inbox_backlog || inbox_left || transport.congested());
                reads.take_read_notes(&mut read_notes);
                node.note_local_reads(read_notes.drain(..));
                tick_at
            },
            |cell| {
                // The lease caller-thread reads run under, renewed from the
                // membership state the messages and the tick left.
                reads.publish_lease(cell.node.read_lease_deadline());
                // Queued commands, drained as one batch of up to `DRAIN_CAP`
                // while admission (`COMMIT_BACKPRESSURE_HWM`) is open — one
                // lock round-trip per burst — with writes grouped to the
                // front so the commit pipeline fills back to back and
                // same-object acquisitions share one request. That keeps per-session order: reads and
                // acquires block their session, so no session has a write
                // queued *behind* its own read/acquire within one batch.
                // `CreateObject` stays in front too: a write hoisted past it
                // would put its REQ on the wire before the object's placement
                // is installed, racing the directory's own creation.
                let want = if cell.admits() { DRAIN_CAP } else { 0 };
                commands.drain_into(&mut cmd_buf, want);
                if !cmd_buf.is_empty() {
                    cell.node.note_command_batch(cmd_buf.len());
                }
                // A stable sort: each group keeps its order.
                cmd_buf.sort_by_key(|command| {
                    !matches!(
                        command,
                        Command::CreateObject { .. }
                            | Command::Tx(TxCommand {
                                work: Work::Write(_),
                                ..
                            })
                    )
                });
                cmd_buf.drain(..)
            },
        ) else {
            // Under the lock, so that a caller who finds the node open also
            // finds a loop that will finish what it parks.
            reads.close();
            return;
        };
        // The second flush: everything the batch produced (R-INVs of every
        // commit, shared REQs) and what the tick did (heartbeats, re-sends)
        // goes out grouped by destination, one channel lock per peer — and
        // before the loop may go to sleep. What the node sent itself was
        // handled by the flush, and may have run a parked command: another
        // iteration looks at what that left.
        did_work |= cell.flush(tick_at, transport);

        if !did_work {
            // Nothing to do: sleep until the clock makes something due or
            // the doorbell rings. Producers push and then ring, so looking
            // at both queues here, after this iteration's last drain, and
            // parking only then cannot miss an item (see `Doorbell`).
            // Queued commands are not input while admission is paused: the
            // R-ACKs that resume it are messages, and ring.
            if transport.pending() == 0 && (commands.is_empty() || !cell.admits()) {
                let due = cell.next_due(tick_at, now);
                // Published before the lock goes: a caller that gets it from
                // here on and leaves an earlier timer behind rings, and a
                // ring that comes before the park turns it into a no-op.
                cell.parked_until = due;
                drop(guard);
                let sleep = Duration::from_micros(due.saturating_sub(reads.now()));
                transport.doorbell().park_timeout(sleep);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use zeus_net::threaded::NodeMailbox;
    use zeus_net::{Doorbell, LossyConfig};
    use zeus_ownership::OwnershipStats;
    use zeus_proto::Epoch;

    use crate::{SimCluster, UdpCluster};

    /// `[u64 write counter][i64 balance]`, the shape the read-path tests
    /// check invariants on.
    fn account(counter: u64, balance: i64) -> Vec<u8> {
        let mut v = counter.to_le_bytes().to_vec();
        v.extend_from_slice(&balance.to_le_bytes());
        v
    }

    fn parse_account(bytes: &[u8]) -> (u64, i64) {
        (
            u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            i64::from_le_bytes(bytes[8..16].try_into().unwrap()),
        )
    }

    /// A node that replicates `objects` and a read port onto it, with no
    /// loop running: whatever the port decides, it decides on its own.
    fn port_without_a_loop(config: ZeusConfig, objects: &[ObjectId]) -> (ZeusNode, ReadPort) {
        let mut node = ZeusNode::new(NodeId(1), config.clone());
        for &object in objects {
            node.create_object(
                object,
                Bytes::from_static(b"v"),
                config.default_replicas(NodeId(0)),
            );
        }
        let port = ReadPort::new(&node);
        (node, port)
    }

    #[test]
    fn expired_read_lease_refuses_the_fast_path_without_the_loop() {
        // The gate must hold when the loop is stalled or dead, so it cannot
        // be a flag the loop flips: here no loop ever runs, and the port
        // must stop serving by the caller's clock alone.
        let mut config = ZeusConfig::with_nodes(3);
        config.lease_ticks = 30_000; // 30 ms: the lease the node starts with
        let object = ObjectId(1);
        let (_node, port) = port_without_a_loop(config, &[object]);
        let read = |tx: &mut TxCtx<'_>| tx.read(object);

        assert_eq!(port.try_read(read), Some(Bytes::from_static(b"v")));
        while port.now() < 30_000 {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(port.try_read(read), None, "the published lease lapsed");
        // A renewed lease serves again; an exited loop does not.
        port.publish_lease(u64::MAX);
        assert_eq!(port.try_read(read), Some(Bytes::from_static(b"v")));
        port.close();
        assert_eq!(port.try_read(read), None, "closed");

        let mut stats = NodeStats::default();
        port.add_to(&mut stats);
        assert_eq!(stats.read_txs_committed, 2, "only commits are counted");
        assert_eq!(stats.txs_aborted, 0, "a refusal is not an abort");
    }

    #[test]
    fn caller_thread_reads_leave_notes_for_a_configured_locality_engine() {
        let objects = [ObjectId(1), ObjectId(2)];
        let read_both = |tx: &mut TxCtx<'_>| {
            tx.read(ObjectId(1))?;
            tx.read(ObjectId(2))
        };
        let predictive = ZeusConfig::with_nodes(3).with_policy(zeus_proto::PolicyKind::Predictive);
        let (mut node, port) = port_without_a_loop(predictive, &objects);
        assert!(port.try_read(read_both).is_some());
        // An uncommitted attempt leaves nothing (the loop records the miss
        // itself when the fallback reaches it).
        assert!(port.try_read(|tx| tx.read(ObjectId(99))).is_none());
        let mut notes = Vec::new();
        port.take_read_notes(&mut notes);
        notes.sort_unstable();
        assert_eq!(notes, objects);
        node.note_local_reads(notes.drain(..));
        port.take_read_notes(&mut notes);
        assert!(notes.is_empty(), "taken once");

        // The reactive default tracks nothing, so nothing is collected.
        let (_node, port) = port_without_a_loop(ZeusConfig::with_nodes(3), &objects);
        assert!(port.try_read(read_both).is_some());
        port.take_read_notes(&mut notes);
        assert!(notes.is_empty());
    }

    #[test]
    fn idle_session_reads_run_on_the_caller_and_show_in_stats() {
        let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(3));
        let object = ObjectId(4);
        cluster.create_object(object, Bytes::from_static(b"v"), NodeId(0));
        let session = cluster.handle(NodeId(1));
        // The first read doubles as the load barrier (it queues if the
        // object has not been created on node 1 yet).
        let read = move |tx: &mut TxCtx<'_>| Ok(tx.read(object)?.to_vec());
        assert_eq!(session.read_txn(read).unwrap(), b"v");

        const N: u64 = 100;
        let node_before = session.stats().unwrap().0;
        let cluster_before = cluster.aggregate_stats();
        let on_caller_before = session.link.reads.committed();
        for _ in 0..N {
            assert_eq!(session.read_txn(read).unwrap(), b"v");
        }
        // All N on a quiet replica, short of a host stall that lapses the
        // lease; the counters below must add up either way, which they only
        // do if the reads that never reached the loop are counted too.
        let on_caller = session.link.reads.committed() - on_caller_before;
        assert!(on_caller > 0, "an idle session reads on its own thread");
        let node_after = session.stats().unwrap().0;
        assert_eq!(
            node_after.read_txs_committed - node_before.read_txs_committed,
            N
        );
        assert_eq!(node_after.txs_aborted, node_before.txs_aborted);
        assert_eq!(
            cluster.aggregate_stats().read_txs_committed - cluster_before.read_txs_committed,
            N
        );
        cluster.shutdown();
    }

    #[test]
    fn read_after_submit_write_on_one_session_observes_the_write() {
        let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(3));
        let object = ObjectId(6);
        cluster.create_object(object, account(0, 0), NodeId(0));
        let session = cluster.handle(NodeId(0));
        for round in 1..=200u64 {
            // The ticket is deliberately not awaited: the read must queue
            // behind the write it could otherwise overtake.
            let _ticket: TxTicket<()> = session.submit_write(move |tx| {
                tx.update(object, |old| {
                    let (counter, balance) = parse_account(old);
                    account(counter + 1, balance + 1)
                })?;
                Ok(())
            });
            let seen: u64 = session
                .read_txn(move |tx| Ok(parse_account(&tx.read(object)?).0))
                .unwrap();
            assert_eq!(seen, round, "per-session order");
        }
        cluster.shutdown();
    }

    /// Adds one to `object`'s write counter and returns the new count.
    fn bump(object: ObjectId) -> impl FnMut(&mut TxCtx<'_>) -> Result<u64, TxError> + Send {
        move |tx| {
            let mut count = 0;
            tx.update(object, |old| {
                let (counter, balance) = parse_account(old);
                count = counter + 1;
                account(count, balance)
            })?;
            Ok(count)
        }
    }

    /// Spins until `holds()`: the other threads have got as far as the
    /// interleaving the caller is about.
    fn until(holds: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !holds() {
            assert!(Instant::now() < deadline, "never got there");
            std::thread::yield_now();
        }
    }

    /// Node 0 of `config`'s deployment, owning `object` (an account at
    /// counter 0), linked but with no loop running: whatever runs on it, a
    /// caller runs. Passing the three to [`spawn_loop`] starts its loop; its
    /// peers never run, so nothing it sends is ever answered.
    fn node_without_a_loop(
        config: ZeusConfig,
        object: ObjectId,
    ) -> (NodeLink, Arc<NodeMailbox<Message>>, Receiver<Command>) {
        let net: ThreadedNet<Message> = ThreadedNet::new(config.nodes);
        let mut node = ZeusNode::new(NodeId(0), config.clone());
        node.create_object(
            object,
            Bytes::from(account(0, 0)),
            config.default_replicas(NodeId(0)),
        );
        let transport = Arc::new(net.mailbox(NodeId(0)));
        let (link, inbox) = NodeLink::new(node, &transport);
        (link, transport, inbox)
    }

    fn session_on(link: &NodeLink) -> ThreadedSession {
        ThreadedSession::new(NodeId(0), link.clone(), RetryPolicy::no_retry())
    }

    #[test]
    fn a_free_node_runs_a_write_on_its_caller_and_a_lapsed_lease_queues_it() {
        // No loop runs here: what commits, the submitting thread committed;
        // what it must not commit has to show up in the queue, untouched.
        let object = ObjectId(1);
        let (link, _transport, inbox) = node_without_a_loop(ZeusConfig::with_nodes(1), object);
        let session = session_on(&link);
        let committed_by_callers = || {
            let cell = link.cell.lock().unwrap();
            assert_eq!(cell.node.stats().write_txs_committed, cell.inline_commands);
            cell.inline_commands
        };

        let before = Instant::now();
        let mut ticket = session.submit_write(bump(object));
        let (result, resolved_at) = ticket.try_poll_timed().expect("resolved on return");
        assert_eq!(result, Ok(1));
        assert!(before <= resolved_at && resolved_at <= Instant::now());
        assert!(inbox.is_empty());
        // The session is idle again at once, so its reads stay on this
        // thread too.
        assert_eq!(
            session.read_txn(move |tx| Ok(parse_account(&tx.read(object)?).0)),
            Ok(1)
        );

        // Only transactions run here; the rest is the loop's.
        let readmit = Command::AdminReadmit { node: NodeId(0) };
        assert!(link.send(readmit).is_ok());
        assert_eq!(inbox.len(), 1);
        inbox.try_recv().unwrap();

        // The gate of `try_read`, by the caller's clock: a node whose lease
        // has run out may be fenced for all the caller knows.
        link.reads.publish_lease(link.reads.now());
        let mut refused = session.submit_write(bump(object));
        assert_eq!(refused.try_poll(), None);
        assert_eq!(inbox.len(), 1, "queued for the loop to decide");
        assert_eq!(committed_by_callers(), 1, "nothing more was committed");

        // A renewed lease does not let a later command past the queued one.
        link.reads.publish_lease(u64::MAX);
        let mut behind = session.submit_write(bump(object));
        assert_eq!(behind.try_poll(), None);
        assert_eq!(inbox.len(), 2);
        inbox.try_recv().unwrap();
        inbox.try_recv().unwrap();
        assert_eq!(refused.try_poll(), Some(Err(TxError::NodeUnavailable)));

        // An empty queue and a running lease: back on the caller.
        assert_eq!(session.submit_write(bump(object)).try_poll(), Some(Ok(2)));
        // A node whose loop has exited runs nothing any more.
        link.reads.close();
        let mut late = session.submit_write(bump(object));
        assert_eq!(late.try_poll(), None);
        assert_eq!(inbox.len(), 1);
        assert_eq!(committed_by_callers(), 2);
        drop(inbox);
        assert_eq!(late.try_poll(), Some(Err(TxError::NodeUnavailable)));
        session.drain().unwrap();
    }

    #[test]
    fn commands_behind_a_queued_one_queue_too_and_run_in_submission_order() {
        let object = ObjectId(1);
        let (link, transport, inbox) = node_without_a_loop(ZeusConfig::with_nodes(1), object);
        let session = session_on(&link);

        // W1 finds the node busy, as if its loop were in mid-iteration.
        let busy = link.cell.lock().unwrap();
        let w1 = session.submit_write(bump(object));
        drop(busy);
        assert_eq!(inbox.len(), 1);
        // W2 and W3 find it free, and W1 still waiting: running them here
        // would apply them ahead of it.
        let w2 = session.submit_write(bump(object));
        let w3 = session.submit_write(bump(object));
        assert_eq!(inbox.len(), 3);
        assert_eq!(link.cell.lock().unwrap().inline_commands, 0);

        let thread = spawn_loop(&link, transport, inbox);
        assert_eq!([w1.wait(), w2.wait(), w3.wait()], [Ok(1), Ok(2), Ok(3)]);
        assert_eq!(
            session.read_txn(move |tx| Ok(parse_account(&tx.read(object)?).0)),
            Ok(3)
        );
        assert!(link.send(Command::Shutdown).is_ok());
        thread.join().expect("node loop");
    }

    #[test]
    fn a_caller_starts_no_commit_while_an_older_one_waits_too_long_for_its_acks() {
        // Two followers that never answer, and no loop that would re-send:
        // the first commit's R-INVs just grow older.
        let object = ObjectId(1);
        let (link, _transport, inbox) = node_without_a_loop(ZeusConfig::with_nodes(3), object);
        // No loop, so nobody feeds the node its transport's RTO: 100 ms.
        link.cell
            .lock()
            .unwrap()
            .node
            .set_retransmit_interval(100_000);
        let session = session_on(&link);

        let sent = link.reads.now();
        assert_eq!(session.submit_write(bump(object)).try_poll(), Some(Ok(1)));
        // A young pipeline takes more: callers run ahead of replication.
        assert_eq!(session.submit_write(bump(object)).try_poll(), Some(Ok(2)));
        assert_eq!(link.cell.lock().unwrap().node.outstanding_commits(), 2);
        assert!(inbox.is_empty());

        // Half an interval on, the oldest R-INV says replication is not
        // keeping up: the next write waits for the loop, and for the acks
        // the loop handles first.
        while link.reads.now() < sent + 50_000 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut refused = session.submit_write(bump(object));
        assert_eq!(refused.try_poll(), None);
        assert_eq!(inbox.len(), 1);
        let cell = link.cell.lock().unwrap();
        assert_eq!(cell.node.outstanding_commits(), 2);
        assert!(cell.admits() && !cell.admits_inline());
    }

    /// What a transaction that panics does to its node, on either thread it
    /// can run on: `inline` has the submitting thread run it.
    fn panic_in_a_transaction(inline: bool) {
        let mut config = ZeusConfig::with_nodes(3);
        // Heartbeats 1.25 s apart: the idle loop sleeps through the test, so
        // that a free node is really free.
        config.lease_ticks = 5_000_000;
        let cluster = ThreadedCluster::start(config);
        let object = ObjectId(1);
        cluster.create_object(object, account(0, 0), NodeId(0));
        let session = cluster.handle(NodeId(0));
        assert_eq!(session.write_txn(bump(object)), Ok(1));
        let link = &session.link;

        // A command parked on the node: it aborts retryably and sits out a
        // back-off longer than the test.
        let patient = RetryPolicy {
            max_attempts: 1_000,
            base_backoff: Duration::from_secs(60),
            max_backoff: Duration::from_secs(60),
        };
        let mut parked: TxTicket<()> = session
            .clone()
            .with_retry(patient)
            .submit_write(|_| Err(TxError::ValidationFailed));
        // Asleep with the first write settled: no R-ACK is left to wake it.
        let asleep = || {
            let cell = link.cell.lock().unwrap();
            cell.parked_until != 0 && cell.node.outstanding_commits() == 0
        };
        until(asleep);
        assert_eq!(parked.try_poll(), None);

        let boom = |_: &mut TxCtx<'_>| -> Result<(), TxError> { panic!("boom") };
        let outcome = if inline {
            // A heartbeat can wake the loop just as the caller submits, and
            // the loop then runs the command instead. So it panics only on
            // the caller's thread and aborts anywhere else: an abort means
            // the caller lost that race, and it tries again once the loop is
            // back asleep.
            let caller = std::thread::current().id();
            let boom_here = move |_: &mut TxCtx<'_>| -> Result<(), TxError> {
                if std::thread::current().id() == caller {
                    panic!("boom")
                }
                Err(TxError::UserAbort)
            };
            let mut lost = 0;
            loop {
                let submitted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    session.submit_write(boom_here)
                }));
                let Ok(ticket) = submitted else {
                    break submitted;
                };
                assert_eq!(ticket.wait(), Err(TxError::UserAbort));
                lost += 1;
                assert!(lost < 100, "the caller never found the node free");
                until(asleep);
            }
        } else {
            // The node looks busy, so the closure goes down the queue.
            let busy = link.cell.lock().unwrap();
            let ticket = session.submit_write(boom);
            drop(busy);
            Ok(ticket)
        };
        match outcome {
            Err(_) => assert!(inline, "the panic reached the thread that ran it"),
            Ok(ticket) => {
                assert!(!inline, "the caller should have run it");
                assert_eq!(ticket.wait(), Err(TxError::NodeUnavailable));
            }
        }

        // The node is dead, and says so: nothing hangs, nothing runs.
        let died = Instant::now();
        assert_eq!(
            session.write_txn(bump(object)),
            Err(TxError::NodeUnavailable)
        );
        until(|| link.reads.is_closed());
        assert_eq!(parked.try_poll(), Some(Err(TxError::NodeUnavailable)));
        assert_eq!(
            session.submit_write(bump(object)).wait(),
            Err(TxError::NodeUnavailable)
        );
        assert_eq!(
            session.read_txn(move |tx| Ok(tx.read(object)?.to_vec())),
            Err(TxError::NodeUnavailable)
        );
        assert_eq!(session.stats().unwrap_err(), TxError::NodeUnavailable);
        session.drain().unwrap();
        assert!(died.elapsed() < Duration::from_secs(1));
        cluster.shutdown();
    }

    #[test]
    fn a_transaction_that_panics_on_its_caller_leaves_a_dead_node_not_a_wedged_one() {
        panic_in_a_transaction(true);
    }

    #[test]
    fn a_transaction_that_panics_on_the_loop_leaves_a_dead_node_not_a_wedged_one() {
        panic_in_a_transaction(false);
    }

    #[test]
    fn a_commit_started_by_a_caller_is_re_sent_on_its_own_timer_not_at_the_next_heartbeat() {
        let mut config = ZeusConfig::with_nodes(3);
        // Heartbeats half a second apart: what an idle loop sleeps until.
        config.lease_ticks = 2_000_000;
        let cluster = ThreadedCluster::start(config);
        let object = ObjectId(1);
        cluster.create_object(object, account(0, 0), NodeId(0));
        let session = cluster.handle(NodeId(0));
        assert_eq!(session.write_txn(bump(object)), Ok(1));
        let link = &session.link;
        let re_sent = || {
            let cell = link.cell.lock().unwrap();
            cell.node.commit_stats().rinvs_retransmitted
        };
        // The first write settles; then the followers are cut off, and the
        // loop goes to sleep with nothing but a heartbeat ahead of it.
        until(|| link.cell.lock().unwrap().node.outstanding_commits() == 0);
        cluster.fault_isolate(NodeId(1));
        cluster.fault_isolate(NodeId(2));
        until(|| link.cell.lock().unwrap().parked_until > link.reads.now() + 100_000);
        let re_sent_before = re_sent();

        let inline_before = link.cell.lock().unwrap().inline_commands;
        let submitted = Instant::now();
        assert_eq!(session.submit_write(bump(object)).try_poll(), Some(Ok(2)));
        assert_eq!(
            link.cell.lock().unwrap().inline_commands,
            inline_before + 1,
            "the sleeping loop had no part in it"
        );
        // Its R-INVs are lost. The timer that re-sends them did not exist
        // when the loop went to sleep: the caller has to have told it.
        until(|| re_sent() > re_sent_before);
        let took = submitted.elapsed();
        assert!(
            took < Duration::from_micros(5 * zeus_net::transport::MAILBOX_RTO_MICROS),
            "re-sent after {took:?}"
        );
        cluster.shutdown();
    }

    #[test]
    fn an_open_loop_burst_from_two_threads_never_outruns_replication_by_more_than_the_bound() {
        const OBJECTS: u64 = 64;
        const WRITES: u64 = 25_000; // per thread, none waiting for another
        let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(3));
        for object in 0..OBJECTS {
            cluster.create_object(ObjectId(object), account(0, 0), NodeId(0));
        }
        let counters_at = |node: u16| -> u64 {
            let session = cluster.handle(NodeId(node));
            (0..OBJECTS)
                .map(|object| {
                    session
                        .read_txn(move |tx| Ok(parse_account(&tx.read(ObjectId(object))?).0))
                        .unwrap()
                })
                .sum()
        };
        for node in 0..3 {
            assert_eq!(counters_at(node), 0, "load barrier");
        }

        let link = &cluster.links[0];
        let bursting = AtomicUsize::new(2);
        let deepest = std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let session = cluster.handle(NodeId(0));
                    let tickets: Vec<TxTicket<u64>> = (0..WRITES)
                        .map(|i| session.submit_write(bump(ObjectId(i % OBJECTS))))
                        .collect();
                    for ticket in tickets {
                        ticket.wait().expect("a local write");
                    }
                    bursting.fetch_sub(1, Ordering::Release);
                });
            }
            // Meanwhile: how far ahead of its acknowledgements the node gets.
            let mut deepest = 0;
            while bursting.load(Ordering::Acquire) > 0 {
                deepest = deepest.max(link.cell.lock().unwrap().node.outstanding_commits());
                std::thread::sleep(Duration::from_micros(200));
            }
            deepest
        });
        // A caller stops at the first commit it finds waiting too long and
        // the loop at the high-water mark, which one batch can overshoot.
        assert!(
            deepest <= COMMIT_BACKPRESSURE_HWM + DRAIN_CAP,
            "{deepest} commits outstanding"
        );

        // Every commit is acknowledged in the end and every replica has
        // applied every one of them. What was re-sent on the way is what
        // sat out a retransmission interval behind a descheduled follower:
        // part of the pipeline, not a multiple of it.
        until(|| link.cell.lock().unwrap().node.outstanding_commits() == 0);
        let cell = link.cell.lock().unwrap();
        assert!(cell.inline_commands > 0, "callers ran some of it");
        let re_sent = cell.node.commit_stats().rinvs_retransmitted;
        assert!(re_sent < 2 * 2 * WRITES, "{re_sent} R-INVs re-sent");
        drop(cell);
        for node in 0..3 {
            until(|| counters_at(node) == 2 * WRITES);
        }
        cluster.shutdown();
    }

    /// The concurrency stress of what runs on other threads than a node's
    /// loop (CI repeats it in `--release`, since a race shows up
    /// probabilistically): two writers per node pipeline transfers inside
    /// object pairs — run by the writer itself when it finds its node free,
    /// queued when it does not, parked whenever the pair lives on another
    /// node, so ownership keeps changing hands — while a reader per node
    /// reads whole pairs on a session that never writes.
    #[test]
    fn concurrent_readers_see_consistent_pairs_while_writers_move_ownership() {
        const PAIRS: u64 = 4;
        const WRITERS: u64 = 2; // per node
        const TRANSFERS: u64 = 100; // per writer
        const WINDOW: usize = 4;
        const OPENING: i64 = 1_000;
        let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(3));
        for object in 0..2 * PAIRS {
            cluster.create_object(
                ObjectId(object),
                account(0, OPENING),
                NodeId((object % 3) as u16),
            );
        }
        // Load barrier: commands are served in order on every node.
        for node in 0..3 {
            cluster
                .handle(NodeId(node))
                .read_txn(|tx| Ok(tx.read(ObjectId(2 * PAIRS - 1))?.to_vec()))
                .unwrap();
        }

        // Readers run until every writer has finished, however it finished:
        // a writer that panics must not leave them spinning.
        struct Finished<'a>(&'a AtomicUsize);
        impl Drop for Finished<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Release);
            }
        }
        let writers_left = AtomicUsize::new(3 * WRITERS as usize);
        let start = Barrier::new(3 * WRITERS as usize + 3);
        let committed = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..3 * WRITERS)
                .map(|w| {
                    let (cluster, start, writers_left) = (&cluster, &start, &writers_left);
                    scope.spawn(move || {
                        let _finished = Finished(writers_left);
                        let session = cluster.handle(NodeId((w % 3) as u16));
                        // A ticket that fails applied nothing. Six writers
                        // on four pairs can exhaust a transfer's retries,
                        // and twelve busy threads on a small host can starve
                        // a node loop into fencing itself for a moment.
                        let settle = |ticket: TxTicket<()>| match ticket.wait() {
                            Ok(()) => 1,
                            Err(TxError::RetriesExhausted | TxError::Fenced) => 0,
                            Err(error) => panic!("writer {w}: {error:?}"),
                        };
                        let mut committed = 0u64;
                        let mut window = VecDeque::with_capacity(WINDOW);
                        start.wait();
                        for i in 0..TRANSFERS {
                            // Every node works on every pair: most
                            // transfers need the pair handed over first.
                            let pair = (i + w) % PAIRS;
                            let (from, to) = (ObjectId(2 * pair), ObjectId(2 * pair + 1));
                            let moved = (i % 7) as i64 + 1;
                            if window.len() == WINDOW {
                                committed += settle(window.pop_front().unwrap());
                            }
                            window.push_back(session.submit_write(move |tx| {
                                for (object, delta) in [(from, -moved), (to, moved)] {
                                    tx.update(object, |old| {
                                        let (counter, balance) = parse_account(old);
                                        account(counter + 1, balance + delta)
                                    })?;
                                }
                                Ok(())
                            }));
                        }
                        committed + window.into_iter().map(settle).sum::<u64>()
                    })
                })
                .collect();
            let readers: Vec<_> = (0..3u16)
                .map(|node| {
                    let (cluster, start, writers_left) = (&cluster, &start, &writers_left);
                    scope.spawn(move || {
                        let session = cluster.handle(NodeId(node));
                        let mut newest = vec![0u64; 2 * PAIRS as usize];
                        let mut pairs_read = 0u64;
                        start.wait();
                        while writers_left.load(Ordering::Acquire) > 0 {
                            for pair in 0..PAIRS {
                                let (a, b) = (ObjectId(2 * pair), ObjectId(2 * pair + 1));
                                let read = session.read_txn(move |tx| {
                                    let (a, b) = (tx.read(a)?, tx.read(b)?);
                                    Ok((a.to_vec(), b.to_vec()))
                                });
                                // A read may lose to the writers for its whole
                                // retry budget; what it returns must be right.
                                let Ok((a_bytes, b_bytes)) = read else {
                                    continue;
                                };
                                let (a_count, a_balance) = parse_account(&a_bytes);
                                let (b_count, b_balance) = parse_account(&b_bytes);
                                assert_eq!(
                                    a_balance + b_balance,
                                    2 * OPENING,
                                    "node {node} read a torn pair {pair}"
                                );
                                assert_eq!(a_count, b_count, "both halves of one transfer");
                                for (object, count) in [(a, a_count), (b, b_count)] {
                                    let seen = &mut newest[object.0 as usize];
                                    assert!(count >= *seen, "node {node}: {object:?} went back");
                                    *seen = count;
                                }
                                pairs_read += 1;
                            }
                        }
                        (pairs_read, session.link.reads.committed())
                    })
                })
                .collect();
            let committed: u64 = writers
                .into_iter()
                .map(|writer| writer.join().expect("writer"))
                .sum();
            for reader in readers {
                let (pairs_read, on_caller) = reader.join().expect("reader");
                assert!(pairs_read > 0, "readers must make progress");
                assert!(on_caller > 0, "and some of it on their own thread");
            }
            committed
        });
        assert!(committed > 0, "writers must make progress");

        // Every way a write can take was taken: run by its caller, queued
        // behind a busy node (two queued commands shared a batch), parked
        // for ownership.
        let stats = cluster.aggregate_stats();
        assert!(stats.inline_commands > 0, "{stats:?}");
        assert!(stats.batched_commands > 0, "{stats:?}");
        assert!(stats.txs_needing_ownership > 0, "{stats:?}");

        // Every committed transfer landed exactly once, and no other.
        let session = cluster.handle(NodeId(0));
        let total: u64 = (0..2 * PAIRS)
            .map(|object| {
                session
                    .write_txn(move |tx| Ok(parse_account(&tx.read(ObjectId(object))?).0))
                    .unwrap()
            })
            .sum();
        assert_eq!(total, 2 * committed);
        cluster.shutdown();
    }

    #[test]
    fn threaded_cluster_commits_local_and_remote_writes() {
        let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(3));
        let object = ObjectId(1);
        cluster.create_object(object, Bytes::from_static(b"0"), NodeId(0));

        // Local write on the owner; the closure's Ok value is typed.
        let s0 = cluster.handle(NodeId(0));
        let r: u64 = s0
            .write_txn(move |tx| {
                tx.write(object, Bytes::from_static(b"a"))?;
                Ok(1u64)
            })
            .unwrap();
        assert_eq!(r, 1);

        // Remote write: node 2 must first acquire ownership (blocking).
        let s2 = cluster.handle(NodeId(2));
        let r: u64 = s2
            .write_txn(move |tx| {
                tx.write(object, Bytes::from_static(b"b"))?;
                Ok(2u64)
            })
            .unwrap();
        assert_eq!(r, 2);

        // Read back from node 2 (now the owner).
        let value: Vec<u8> = s2
            .read_txn(move |tx| Ok(tx.read(object)?.to_vec()))
            .unwrap();
        assert_eq!(value, b"b");

        let stats = cluster.aggregate_stats();
        assert!(stats.write_txs_committed >= 2);
        cluster.shutdown();
    }

    #[test]
    fn explicit_acquire_moves_ownership() {
        let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(3));
        let object = ObjectId(9);
        cluster.create_object(object, Bytes::from_static(b"x"), NodeId(0));
        let s1 = cluster.handle(NodeId(1));
        s1.acquire(object, OwnershipRequestKind::AcquireOwner)
            .unwrap();
        let (stats, latency) = s1.stats().unwrap();
        assert_eq!(stats.ownership_completed, 1);
        assert_eq!(latency.count(), 1);
        cluster.shutdown();
    }

    #[test]
    fn no_retry_policy_still_commits_remote_writes() {
        // A successful ownership grant is the continuation of the first
        // attempt, not a retry: even with a budget of 1 a remote write must
        // park, receive its grant, and commit.
        let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(3));
        let object = ObjectId(2);
        cluster.create_object(object, Bytes::from_static(b"0"), NodeId(0));
        let session = cluster
            .handle(NodeId(2))
            .with_retry(RetryPolicy::no_retry());
        session
            .write_txn(move |tx| {
                tx.write(object, Bytes::from_static(b"remote"))?;
                Ok(())
            })
            .expect("grant is not charged against the retry budget");
        cluster.shutdown();
    }

    #[test]
    fn shutdown_makes_sessions_report_node_unavailable() {
        let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(3));
        let object = ObjectId(3);
        cluster.create_object(object, Bytes::from_static(b"v"), NodeId(0));
        let session = cluster.handle(NodeId(0));
        cluster.shutdown();
        assert_eq!(
            session.write_txn(move |tx| {
                tx.write(object, Bytes::from_static(b"w"))?;
                Ok(())
            }),
            Err(TxError::NodeUnavailable)
        );
        // The session is idle and the store still holds the object, but the
        // exited loop closed the read port: no caller-thread read either.
        assert_eq!(
            session.read_txn(move |tx| Ok(tx.read(object)?.to_vec())),
            Err(TxError::NodeUnavailable)
        );
        assert_eq!(
            session.acquire(object, OwnershipRequestKind::AcquireOwner),
            Err(TxError::NodeUnavailable)
        );
        assert_eq!(session.stats().unwrap_err(), TxError::NodeUnavailable);
        // Dangling submissions resolve too (and drain does not wedge).
        let ticket: TxTicket<()> = session.submit_write(move |tx| {
            tx.write(object, Bytes::from_static(b"x"))?;
            Ok(())
        });
        assert_eq!(ticket.wait(), Err(TxError::NodeUnavailable));
        session.drain().unwrap();
    }

    #[test]
    fn commands_queued_behind_shutdown_still_resolve() {
        // A burst of writes right behind a `Shutdown`: some share its batch
        // (and commit, hoisted ahead of it, or are dropped with the batch),
        // some land in the queue while the loop runs that last batch, some
        // find the queue closed. Every one of them must end its ticket; the
        // middle group used to sit in a queue nobody would ever drain.
        let object = ObjectId(1);
        for _ in 0..20 {
            let config = ZeusConfig::with_nodes(1);
            let net: ThreadedNet<Message> = ThreadedNet::new(1);
            let mut node = ZeusNode::new(NodeId(0), config.clone());
            node.create_object(
                object,
                Bytes::from_static(b"v"),
                config.default_replicas(NodeId(0)),
            );
            let (link, thread) = start_node(node, net.mailbox(NodeId(0)));
            let session = ThreadedSession::new(NodeId(0), link.clone(), RetryPolicy::no_retry());

            assert!(link.send(Command::Shutdown).is_ok(), "the loop is running");
            let tickets: Vec<TxTicket<()>> = (0..64)
                .map(|_| session.submit_write(move |tx| tx.write(object, Bytes::from_static(b"w"))))
                .collect();
            let deadline = Instant::now() + Duration::from_secs(1);
            for mut ticket in tickets {
                let result = loop {
                    if let Some(result) = ticket.try_poll() {
                        break result;
                    }
                    assert!(Instant::now() < deadline, "a ticket hangs");
                    std::thread::yield_now();
                };
                assert!(
                    matches!(result, Ok(()) | Err(TxError::NodeUnavailable)),
                    "{result:?}"
                );
            }
            session.drain().unwrap();
            thread.join().expect("node loop");
        }
    }

    #[test]
    fn pipelined_submissions_all_resolve_in_order_of_completion() {
        let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(3));
        for i in 0..16u64 {
            cluster.create_object(ObjectId(i), Bytes::from_static(b"0"), NodeId(0));
        }
        let session = cluster.handle(NodeId(0));
        let tickets: Vec<TxTicket<u64>> = (0..16u64)
            .map(|i| {
                session.submit_write(move |tx| {
                    tx.update(ObjectId(i), |old| {
                        let mut v = old.to_vec();
                        v[0] = v[0].wrapping_add(1);
                        v
                    })?;
                    Ok(i)
                })
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.wait().unwrap(), i as u64);
        }
        session.drain().unwrap();
        let stats = cluster.aggregate_stats();
        assert!(stats.write_txs_committed >= 16);
        cluster.shutdown();
    }

    #[test]
    fn isolated_node_fences_itself_and_recovers_after_heal() {
        // Fig11-style scenario on the *threaded* runtime: partition a node
        // mid-run, assert it refuses transactions (TxError::Fenced), heal
        // it, and assert it serves again after re-admission. This exercises
        // ZeusNode::is_fenced outside the simulator.
        let mut config = ZeusConfig::with_nodes(3);
        // 1 tick = 1 us on this runtime. Short lease keeps the test fast;
        // grace equals the lease, so expulsion happens after ~2 leases.
        config.lease_ticks = 40_000;
        let cluster = ThreadedCluster::start(config);
        let object = ObjectId(5);
        cluster.create_object(object, Bytes::from_static(b"v0"), NodeId(0));

        let s0 = cluster.handle(NodeId(0));
        let s2 = cluster.handle(NodeId(2));
        s0.write_txn(move |tx| {
            tx.write(object, Bytes::from_static(b"v1"))?;
            Ok(())
        })
        .unwrap();

        // Cut node 2 off and wait past its lease: it must fence itself.
        cluster.admin().isolate(NodeId(2)).unwrap();
        std::thread::sleep(Duration::from_millis(120));
        let write = s2.write_txn(move |tx| {
            tx.write(object, Bytes::from_static(b"stale"))?;
            Ok(())
        });
        assert_eq!(write.unwrap_err(), TxError::Fenced);
        // An idle session would serve this read on the caller's thread, and
        // node 2 still stores a Valid copy: only the lapsed read lease stops
        // it. The refusal then comes from the loop, as the typed error.
        let idle = cluster.handle(NodeId(2));
        let read = idle.read_txn(move |tx| Ok(tx.read(object)?.to_vec()));
        assert_eq!(read.unwrap_err(), TxError::Fenced);
        assert!(s2.stats().unwrap().0.txs_fenced >= 2);

        // The surviving majority keeps committing while node 2 is out.
        s0.write_txn(move |tx| {
            tx.write(object, Bytes::from_static(b"v2"))?;
            Ok(())
        })
        .unwrap();

        // Heal: the node's heartbeats re-admit it; after recovery it serves
        // again (re-acquiring state through the ownership protocol). Timing
        // on loaded machines is noisy, so poll with a deadline.
        cluster.admin().heal(NodeId(2)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut recovered = false;
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
            let r = s2.write_txn(move |tx| {
                let v = tx.read(object)?;
                assert_ne!(
                    v.as_ref(),
                    b"v1",
                    "re-admitted node must not serve pre-expulsion state"
                );
                tx.write(object, Bytes::from_static(b"v3"))?;
                Ok(())
            });
            if r.is_ok() {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "healed node must serve transactions again");
        cluster.shutdown();
    }

    #[test]
    fn pipelined_submissions_across_partition_all_resolve_and_resume_after_heal() {
        // The satellite scenario of the session API: a client has a window
        // of submissions in flight against a node that gets isolated. Every
        // ticket must resolve — to a commit or TxError::Fenced, none wedged
        // — the drain barrier must fall, and after the heal the same
        // session serves again.
        let mut config = ZeusConfig::with_nodes(3);
        config.lease_ticks = 40_000;
        let cluster = ThreadedCluster::start(config);
        // Objects owned by node 0: transactions on node 2 need ownership
        // acquisitions, which cannot decide while node 2 is cut off.
        for i in 0..8u64 {
            cluster.create_object(ObjectId(i), Bytes::from_static(b"0"), NodeId(0));
        }
        let s2 = cluster.handle(NodeId(2));

        // Cut the node off, then submit a full window of writes. The
        // acquisitions cannot reach the directory; once the node fences
        // itself the loop must fail them all instead of parking forever.
        cluster.admin().isolate(NodeId(2)).unwrap();
        let tickets: Vec<TxTicket<()>> = (0..8u64)
            .map(|i| {
                s2.submit_write(move |tx| {
                    tx.update(ObjectId(i), |old| old.to_vec())?;
                    Ok(())
                })
            })
            .collect();
        let mut fenced = 0;
        for ticket in tickets {
            match ticket.wait() {
                // A submission that raced ahead of the fence may have lost
                // its acquisition some other terminal way; what is
                // disallowed is wedging or committing.
                Err(TxError::Fenced) => fenced += 1,
                Err(_) => {}
                Ok(()) => panic!("write committed on an isolated minority node"),
            }
        }
        assert!(fenced > 0, "the fence must have failed the window");
        // The barrier falls: nothing is left in flight.
        s2.drain().unwrap();

        // Heal and poll: the same session must serve again.
        cluster.admin().heal(NodeId(2)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut recovered = false;
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
            if s2
                .write_txn(move |tx| {
                    tx.update(ObjectId(0), |old| old.to_vec())?;
                    Ok(())
                })
                .is_ok()
            {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "healed node must serve pipelined sessions again");
        cluster.shutdown();
    }

    #[test]
    fn many_clients_many_objects_in_parallel() {
        let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(3));
        for i in 0..30u64 {
            cluster.create_object(
                ObjectId(i),
                Bytes::from_static(b"0"),
                NodeId((i % 3) as u16),
            );
        }
        let mut clients = Vec::new();
        for c in 0..3u16 {
            let session = cluster.handle(NodeId(c));
            clients.push(std::thread::spawn(move || {
                let mut committed = 0;
                for i in 0..30u64 {
                    let object = ObjectId(i);
                    let r = session.write_txn(move |tx| {
                        tx.update(object, |old| {
                            let mut v = old.to_vec();
                            v.push(1);
                            v
                        })?;
                        Ok(())
                    });
                    match r {
                        Ok(()) => committed += 1,
                        Err(error) => eprintln!("client {c}, object {i}: {error:?}"),
                    }
                }
                committed
            }));
        }
        let total: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 90, "every write must eventually commit");
        cluster.shutdown();
    }

    /// The full stack over real sockets: objects everywhere, cross-node
    /// writes forcing ownership transfers over UDP, reads observing them.
    #[test]
    fn transactions_commit_over_loopback_udp() {
        let cluster = UdpCluster::start(ZeusConfig::with_nodes(3)).expect("bind loopback");
        for i in 0..9u64 {
            cluster.create_object(ObjectId(i), vec![0u8; 8], NodeId((i % 3) as u16));
        }
        let mut committed = 0;
        for i in 0..30u64 {
            let session = cluster.handle(NodeId((i % 3) as u16));
            let obj = ObjectId(i % 9);
            if session
                .write_txn(move |tx| {
                    tx.update(obj, |old| {
                        let mut v = old.to_vec();
                        v[0] = v[0].wrapping_add(1);
                        v
                    })?;
                    Ok(())
                })
                .is_ok()
            {
                committed += 1;
            }
        }
        assert_eq!(committed, 30, "loopback UDP must not lose transactions");
        let stats = cluster.net_stats();
        assert!(stats.messages_sent > 0, "traffic crossed the sockets");
        cluster.shutdown();
    }

    /// Same workload with 10% deterministic frame loss on every node: the
    /// reliable layer must mask it completely.
    #[test]
    fn transactions_survive_frame_loss() {
        let loss = LossyConfig {
            drop_probability: 0.10,
            seed: 42,
        };
        let cluster = UdpCluster::start_with_loss(ZeusConfig::with_nodes(3), Some(loss))
            .expect("bind loopback");
        for i in 0..6u64 {
            cluster.create_object(ObjectId(i), vec![0u8; 8], NodeId((i % 3) as u16));
        }
        let mut committed = 0;
        for i in 0..12u64 {
            let session = cluster.handle(NodeId((i % 3) as u16));
            let obj = ObjectId(i % 6);
            if session
                .write_txn(move |tx| {
                    tx.update(obj, |old| old.to_vec())?;
                    Ok(())
                })
                .is_ok()
            {
                committed += 1;
            }
        }
        assert_eq!(committed, 12, "loss must be invisible above the link layer");
        cluster.shutdown();
    }

    /// A session on node 1 writing an object homed on node 0: a real
    /// ownership acquisition over UDP (including messages the driver
    /// routes to itself, which must loop back locally).
    #[test]
    fn cross_node_ownership_over_udp() {
        let cluster = UdpCluster::start(ZeusConfig::with_nodes(3)).expect("bind loopback");
        for i in 0..3u64 {
            cluster.create_object(ObjectId(i), vec![0u8; 8], NodeId((i % 3) as u16));
        }
        let session = cluster.handle(NodeId(1));
        let r = session.write_txn(move |tx| {
            tx.update(ObjectId(0), |old| old.to_vec())?;
            Ok(())
        });
        assert!(r.is_ok(), "cross-node write failed: {r:?}");
        cluster.shutdown();
    }

    /// A transport that hands a loop what a test put into its inbox and
    /// records every flush: where each message went, and what it was.
    struct Recorder {
        inbox: Mutex<Vec<Envelope<Message>>>,
        flushes: Mutex<Vec<Vec<(NodeId, &'static str)>>>,
        doorbell: Doorbell,
    }

    impl Recorder {
        fn new(inbox: Vec<Envelope<Message>>) -> Self {
            Recorder {
                inbox: Mutex::new(inbox),
                flushes: Mutex::default(),
                doorbell: Doorbell::new(),
            }
        }

        fn flushes(&self) -> Vec<Vec<(NodeId, &'static str)>> {
            self.flushes.lock().unwrap().clone()
        }
    }

    impl Transport<Message> for Recorder {
        fn send(&self, to: NodeId, msg: Message, payload_bytes: usize) -> bool {
            self.send_batch(&mut vec![(to, msg, payload_bytes)]);
            true
        }

        fn send_batch(&self, msgs: &mut Vec<(NodeId, Message, usize)>) {
            let flush = msgs.drain(..).map(|(to, msg, _)| (to, msg.kind()));
            self.flushes.lock().unwrap().push(flush.collect());
        }

        fn drain_into(&self, buf: &mut Vec<Envelope<Message>>, max: usize) -> usize {
            let mut inbox = self.inbox.lock().unwrap();
            let n = inbox.len().min(max);
            buf.extend(inbox.drain(..n));
            n
        }

        fn recv_timeout(&self, _: Duration) -> Option<Envelope<Message>> {
            None
        }

        fn doorbell(&self) -> &Doorbell {
            &self.doorbell
        }

        fn pending(&self) -> usize {
            self.inbox.lock().unwrap().len()
        }

        // Nobody ever answers: no request is re-sent while a test looks.
        fn rto_micros(&self) -> Option<u64> {
            Some(60_000_000)
        }
    }

    #[test]
    fn a_loop_ships_an_iterations_replies_before_its_commands_and_nothing_to_itself() {
        let config = ZeusConfig::with_nodes(3);
        let (mine, theirs, arbitrated) = (ObjectId(1), ObjectId(2), ObjectId(3));
        let mut node = ZeusNode::new(NodeId(0), config.clone());
        let mut driver = ZeusNode::new(NodeId(1), config.clone());
        for (object, owner) in [(mine, 0), (theirs, 1), (arbitrated, 2)] {
            for n in [&mut node, &mut driver] {
                let replicas = config.default_replicas(NodeId(owner));
                n.create_object(object, Bytes::from(account(0, 0)), replicas);
            }
        }
        // Node 1 drives a move for itself: its INV is what node 0's loop
        // finds in its inbox.
        driver.acquire(arbitrated, OwnershipRequestKind::AcquireOwner);
        for (to, req) in driver.drain_outbox() {
            assert_eq!((to, req.kind()), (NodeId(1), "o-req"));
            driver.handle_message(NodeId(1), req);
        }
        let inv = driver
            .drain_outbox()
            .into_iter()
            .find(|(to, _)| *to == NodeId(0))
            .map(|(_, inv)| inv)
            .unwrap();
        assert_eq!(inv.kind(), "o-inv");
        let transport = Arc::new(Recorder::new(vec![Envelope::with_payload_bytes(
            NodeId(1),
            NodeId(0),
            inv,
            0,
        )]));

        // Two writes queued for the loop: one on an object node 0 owns, one
        // on an object it reads, which it moves by driving the arbitration
        // itself (it is a directory replica).
        let (link, commands) = NodeLink::new(node, &transport);
        let session = session_on(&link);
        let busy = link.cell.lock().unwrap();
        let local = session.submit_write(bump(mine));
        let mut moving = session.submit_write(bump(theirs));
        drop(busy);
        let thread = spawn_loop(&link, Arc::clone(&transport), commands);
        assert_eq!(local.wait(), Ok(1));
        until(|| link.cell.lock().unwrap().looped_back == 2);

        let flushes = transport.flushes();
        let first = |kind| flushes.iter().position(|f| f.contains(&kind));
        let ack = first((NodeId(1), "o-ack")).expect("the INV is acknowledged");
        let rinv = first((NodeId(1), "r-inv")).expect("the local write replicates");
        let inv = first((NodeId(2), "o-inv")).expect("the move is arbitrated");
        assert!(ack < rinv, "{flushes:?}");
        assert_eq!(rinv, inv, "{flushes:?}");
        // The REQ and the driver's ACK of the move were handled in place.
        assert!(
            flushes.iter().flatten().all(|(to, _)| *to != NodeId(0)),
            "{flushes:?}"
        );
        assert_eq!(session.stats().unwrap().0.messages_looped_back, 2);
        assert_eq!(moving.try_poll(), None, "nobody answers the move");
        assert!(link.send(Command::Shutdown).is_ok());
        thread.join().expect("node loop");
    }

    #[test]
    fn a_grant_landed_by_a_message_to_itself_runs_its_command_before_the_next_is_handled() {
        // One node, the only directory replica: a write that creates an
        // object on first touch parks on a request the node drives for
        // itself, and the node's own ACK is the one that lands the grant.
        let mut config = ZeusConfig::with_nodes(1);
        config.replication_degree = 1;
        let mut cell = NodeCell::new(ZeusNode::new(NodeId(0), config));
        let store = cell.node.shared_store();
        let runs = Arc::new(Mutex::new(Vec::new()));
        let (a, b) = (ObjectId(1), ObjectId(2));
        let mut tickets: Vec<TxTicket<()>> = Vec::new();
        let commands = [(a, b), (b, a)].map(|(object, other)| {
            let (store, runs) = (Arc::clone(&store), Arc::clone(&runs));
            let (reply, rx) = ReplySlot::new(None);
            tickets.push(TxTicket::pending(rx));
            Command::Tx(TxCommand {
                work: Work::Write(erase(move |tx: &mut TxCtx<'_>| {
                    // What this run sees of the other object's creation.
                    runs.lock().unwrap().push((object, store.contains(other)));
                    tx.write(object, Bytes::from_static(b"v"))
                })),
                policy: RetryPolicy::no_retry(),
                reply,
            })
        });
        let _ = cell.run(0, commands);
        assert_eq!(*runs.lock().unwrap(), [(a, false), (b, false)]);

        // Both REQs, then both ACKs, in the order they were sent: `a` runs
        // on its ACK, before `b`'s is handled, and `b` on its own.
        let transport = Recorder::new(Vec::new());
        assert!(cell.flush(0, &transport));
        assert_eq!(
            *runs.lock().unwrap(),
            [(a, false), (b, false), (a, false), (b, true)]
        );
        for ticket in &mut tickets {
            assert_eq!(ticket.try_poll(), Some(Ok(())));
        }
        assert_eq!(cell.stats().0.messages_looped_back, 4);
        assert!(transport.flushes().is_empty(), "a node alone sends nothing");
    }

    /// Moves of one object in [`self_driven_moves`].
    const MOVES: u64 = 100;

    /// [`MOVES`] reader→owner moves of one object, each write on the node
    /// after the last writer's. Every node of three is a directory replica
    /// and a reader, so every move is arbitrated by its own requester. Each
    /// move waits until every replica has validated the write before it:
    /// a driver refuses to move an object with a commit in flight, and the
    /// NACK and the REQ re-issued after it would be sent to itself too.
    /// Returns what every node reads in the end, and the cluster's counters.
    fn self_driven_moves(cluster: &impl ClusterDriver) -> (Vec<u64>, NodeStats) {
        let object = ObjectId(1);
        cluster.create_object(object, account(0, 0).into(), NodeId(0));
        let counter_at = |node: u16| {
            cluster
                .handle(NodeId(node))
                .read_txn(move |tx| Ok(parse_account(&tx.read(object)?).0))
                .unwrap()
        };
        for node in 0..3 {
            assert_eq!(counter_at(node), 0, "load barrier");
        }
        for i in 1..=MOVES {
            let session = cluster.handle(NodeId((i % 3) as u16));
            assert_eq!(session.write_txn(bump(object)), Ok(i));
            cluster.quiesce();
            for node in 0..3 {
                until(|| counter_at(node) == i);
            }
        }
        let values = (0..3).map(counter_at).collect();
        (values, cluster.aggregate_stats())
    }

    /// Runs [`self_driven_moves`] on `cluster` and on a [`SimCluster`]: the
    /// same values, and two messages handled in place per move on the
    /// threads, none in the simulator.
    fn loops_back_the_req_and_the_ack_of_every_move<T>(cluster: Cluster<T>) {
        let (values, stats) = self_driven_moves(&cluster);
        let (sim_values, sim_stats) =
            self_driven_moves(&SimCluster::new(ZeusConfig::with_nodes(3)));
        assert_eq!(values, sim_values);
        assert_eq!(sim_stats.messages_looped_back, 0, "carried over links");
        // A REQ re-sent, or an arbitration re-driven, loops back again.
        let mut ownership = OwnershipStats::default();
        for link in &cluster.links {
            ownership.merge(link.cell.lock().unwrap().node.ownership_stats());
        }
        let looped = stats.messages_looped_back;
        if ownership.requests_retransmitted + ownership.arb_replays == 0 {
            assert_eq!(looped, 2 * MOVES);
        } else {
            assert!(looped >= 2 * MOVES, "{looped} {ownership:?}");
        }
        cluster.shutdown();
    }

    #[test]
    fn self_driven_moves_handle_their_req_and_ack_in_place_on_threads() {
        loops_back_the_req_and_the_ack_of_every_move(ThreadedCluster::start(
            ZeusConfig::with_nodes(3),
        ));
    }

    #[test]
    fn self_driven_moves_handle_their_req_and_ack_in_place_over_udp() {
        let cluster = UdpCluster::start(ZeusConfig::with_nodes(3)).expect("bind loopback");
        loops_back_the_req_and_the_ack_of_every_move(cluster);
    }

    /// A view change marks every placement for the next directory push,
    /// and a re-admitted node pulls the whole table: with 3,000 objects
    /// either push is longer than a datagram. Sent whole, it was refused at
    /// the socket after the reliable layer had given it a sequence number,
    /// and its receiver held everything behind that number back for good,
    /// heartbeats included: the nodes fenced themselves, and no write
    /// committed again.
    #[test]
    fn a_directory_push_longer_than_a_datagram_leaves_a_udp_cluster_serving() {
        const OBJECTS: u64 = 3_000;
        let cluster = UdpCluster::start(ZeusConfig::with_nodes(3)).expect("bind loopback");
        for object in 0..OBJECTS {
            cluster.create_object(ObjectId(object), account(0, 0), NodeId((object % 3) as u16));
        }
        let last = ObjectId(OBJECTS - 1);
        for node in 0..3 {
            let session = cluster.handle(NodeId(node));
            assert!(session.read_txn(move |tx| Ok(tx.read(last)?.len())).is_ok());
        }
        let epoch_at = |node: usize| cluster.links[node].cell.lock().unwrap().node.epoch();
        let eventually = |holds: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !holds() {
                assert!(Instant::now() < deadline, "never got there");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        cluster.admin().expel(NodeId(2)).unwrap();
        eventually(&|| epoch_at(0) > Epoch::ZERO && epoch_at(1) > Epoch::ZERO);
        let expelled = epoch_at(0).max(epoch_at(1));
        cluster.admin().readmit(NodeId(2)).unwrap();
        eventually(&|| (0..3).all(|node| epoch_at(node) > expelled));
        // Past the pushes the view changes set off, and a lease (200 ms)
        // past them: what a wedged link would do, it has done by now.
        std::thread::sleep(Duration::from_millis(500));

        let committed = (0..30u64)
            .filter(|&i| {
                let session = cluster.handle(NodeId((i % 3) as u16));
                session.write_txn(bump(ObjectId(i * 97 % OBJECTS))).is_ok()
            })
            .count();
        assert_eq!(committed, 30);
        cluster.shutdown();
    }
}
