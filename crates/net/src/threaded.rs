//! Threaded transport: one mailbox per node over crossbeam channels.
//!
//! Used by the throughput experiments, where each Zeus node runs on its own
//! OS thread. Channels are reliable and FIFO per sender/receiver pair, which
//! matches what the paper's reliable messaging layer provides to the
//! protocols, so no retransmission layer is needed here.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::{Mutex, RwLock};
use zeus_proto::NodeId;

use crate::doorbell::Doorbell;
use crate::envelope::Envelope;
use crate::stats::NetStats;

/// Shared table of injected link faults for the threaded transport.
///
/// The simulated transport models partitions inside its event queue; the
/// threaded transport needs an equivalent so fig11-style scenarios (isolate
/// a node mid-run, assert it fences itself, heal, assert recovery) can run
/// against real OS threads. Cuts are directed pairs checked at send time: a
/// cut message is counted as dropped, exactly like a send to a crashed
/// peer. Mailboxes consult the table on every send, so cuts take effect
/// immediately for traffic not yet handed to the channel.
#[derive(Debug, Default)]
pub struct LinkFaults {
    /// Directed `(from, to)` pairs whose traffic is dropped.
    cut: RwLock<HashSet<(NodeId, NodeId)>>,
    /// Whether `cut` holds anything. Every send asks [`LinkFaults::is_cut`],
    /// and almost always nothing is cut: this flag answers that without the
    /// lock and the hash. Written under `cut`'s write lock with `Release`
    /// and read with `Acquire`, so a sender that sees `true` also finds the
    /// pair that set it.
    any_cut: AtomicBool,
}

impl LinkFaults {
    /// Cuts both directions between `a` and `b`.
    pub fn partition(&self, a: NodeId, b: NodeId) {
        let mut cut = self.cut.write();
        cut.insert((a, b));
        cut.insert((b, a));
        self.any_cut.store(true, Ordering::Release);
    }

    /// Heals both directions between `a` and `b`.
    pub fn heal_partition(&self, a: NodeId, b: NodeId) {
        let mut cut = self.cut.write();
        cut.remove(&(a, b));
        cut.remove(&(b, a));
        self.any_cut.store(!cut.is_empty(), Ordering::Release);
    }

    /// Heals every injected cut.
    pub fn heal_all(&self) {
        let mut cut = self.cut.write();
        cut.clear();
        self.any_cut.store(false, Ordering::Release);
    }

    /// Whether traffic `from → to` is currently cut.
    pub fn is_cut(&self, from: NodeId, to: NodeId) -> bool {
        self.any_cut.load(Ordering::Acquire) && self.cut.read().contains(&(from, to))
    }
}

/// Atomic traffic counters of one sender (a [`ThreadedNet`] mailbox, or a
/// UDP transport and its reader thread). Aligned to a cache line of its own:
/// each node loop bumps its counters on every flush, and counters of
/// different nodes sharing a line would bounce it between their cores.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct SharedCounters {
    messages: AtomicU64,
    bytes: AtomicU64,
    /// Deepest receiver inbox observed at send time. The channels are
    /// unbounded, so this is the only backpressure signal: it tells the
    /// bench harness how far the slowest node loop fell behind.
    queue_hwm: AtomicU64,
    /// Sends that failed (closed inbox / unknown peer); subtracted from the
    /// delivered counters so traffic into the void is not reported as
    /// delivered.
    dropped_messages: AtomicU64,
    dropped_bytes: AtomicU64,
}

impl SharedCounters {
    pub(crate) fn record(&self, bytes: usize, queue_depth: usize) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.queue_hwm
            .fetch_max(queue_depth as u64, Ordering::Relaxed);
    }

    /// Records `count` messages of `bytes` wire bytes in total, delivered by
    /// one batched send that left the receiver's inbox `queue_depth` deep.
    pub(crate) fn record_batch(&self, count: usize, bytes: usize, queue_depth: usize) {
        self.messages.fetch_add(count as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.queue_hwm
            .fetch_max(queue_depth as u64, Ordering::Relaxed);
    }

    /// Records a send that never reached an inbox (unknown peer, or the
    /// destination's node thread exited and closed its channel).
    pub(crate) fn record_failed(&self, bytes: usize) {
        self.record_failed_batch(1, bytes);
    }

    /// Records `count` messages of `bytes` wire bytes in total that never
    /// reached an inbox.
    pub(crate) fn record_failed_batch(&self, count: usize, bytes: usize) {
        self.messages.fetch_add(count as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.dropped_messages
            .fetch_add(count as u64, Ordering::Relaxed);
        self.dropped_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Snapshot of the counters as [`NetStats`]: delivered = sent minus the
    /// sends that failed (closed inbox / unknown peer).
    pub fn snapshot(&self) -> NetStats {
        let mut s = NetStats::new();
        s.messages_sent = self.messages.load(Ordering::Relaxed);
        s.bytes_sent = self.bytes.load(Ordering::Relaxed);
        s.messages_dropped = self.dropped_messages.load(Ordering::Relaxed);
        s.messages_delivered = s.messages_sent - s.messages_dropped;
        s.bytes_delivered = s.bytes_sent - self.dropped_bytes.load(Ordering::Relaxed);
        s.queue_depth_hwm = self.queue_hwm.load(Ordering::Relaxed);
        s
    }
}

/// A node's connection to the threaded network: its inbox plus senders to
/// every peer, each paired with that peer's [`Doorbell`], rung after every
/// push into its inbox. Cloneable so multiple worker threads of one node can
/// send.
#[derive(Debug)]
pub struct NodeMailbox<M> {
    /// This node's id.
    pub id: NodeId,
    inbox: Receiver<Envelope<M>>,
    peers: Vec<(Sender<Envelope<M>>, Doorbell)>,
    /// This node's traffic counters (shared by the mailbox's clones).
    counters: Arc<SharedCounters>,
    faults: Arc<LinkFaults>,
    /// Per-peer buffers [`NodeMailbox::send_batch`] sorts a flush into, with
    /// each buffer's wire bytes; emptied by every flush, kept for the next.
    buckets: Mutex<Vec<(Vec<Envelope<M>>, usize)>>,
}

impl<M> Clone for NodeMailbox<M> {
    fn clone(&self) -> Self {
        NodeMailbox::new(
            self.id,
            self.inbox.clone(),
            self.peers.clone(),
            Arc::clone(&self.counters),
            Arc::clone(&self.faults),
        )
    }
}

impl<M> NodeMailbox<M> {
    fn new(
        id: NodeId,
        inbox: Receiver<Envelope<M>>,
        peers: Vec<(Sender<Envelope<M>>, Doorbell)>,
        counters: Arc<SharedCounters>,
        faults: Arc<LinkFaults>,
    ) -> Self {
        let buckets = Mutex::new(peers.iter().map(|_| (Vec::new(), 0)).collect());
        NodeMailbox {
            id,
            inbox,
            peers,
            counters,
            faults,
            buckets,
        }
    }

    /// Sends `msg` of approximate `payload_bytes` size to `to`.
    ///
    /// Returns `false` if the destination's inbox has been closed (its node
    /// thread exited), which callers treat like a crashed peer.
    pub fn send(&self, to: NodeId, msg: M, payload_bytes: usize) -> bool {
        let env = Envelope::with_payload_bytes(self.id, to, msg, payload_bytes);
        let wire_bytes = env.wire_bytes;
        // Injected link faults (fig11-style partitions): a cut link drops
        // the message at send time, exactly like a send to a crashed peer.
        if self.faults.is_cut(self.id, to) {
            self.counters.record_failed(wire_bytes);
            return false;
        }
        match self.peers.get(to.index()) {
            Some((tx, bell)) => {
                // `send_counting` reports the depth right after the push
                // under the send's own lock, so the high-water mark counts
                // this message even if the receiver drains it instantly —
                // without a second lock acquisition per send.
                match tx.send_counting(env) {
                    Ok(depth) => {
                        bell.ring();
                        self.counters.record(wire_bytes, depth);
                        true
                    }
                    Err(_) => {
                        self.counters.record_failed(wire_bytes);
                        false
                    }
                }
            }
            None => {
                self.counters.record_failed(wire_bytes);
                false
            }
        }
    }

    /// Sends a whole outbox flush, grouping messages by destination so each
    /// destination's channel is locked once per batch instead of once per
    /// message. `msgs` yields `(to, msg, payload_bytes)` triples in send
    /// order; per-destination FIFO order is preserved. Counter and
    /// link-fault semantics match per-message [`NodeMailbox::send`]: cut or
    /// undeliverable messages are recorded as dropped, and the queue-depth
    /// high-water mark observes the depth after each destination's batch.
    pub fn send_batch(&self, msgs: impl IntoIterator<Item = (NodeId, M, usize)>) {
        let mut buckets = self.buckets.lock();
        for (to, msg, payload_bytes) in msgs {
            let env = Envelope::with_payload_bytes(self.id, to, msg, payload_bytes);
            let wire_bytes = env.wire_bytes;
            match buckets.get_mut(to.index()) {
                Some((bucket, bytes)) if !self.faults.is_cut(self.id, to) => {
                    bucket.push(env);
                    *bytes += wire_bytes;
                }
                _ => self.counters.record_failed(wire_bytes),
            }
        }
        for ((tx, bell), (bucket, bytes)) in self.peers.iter().zip(buckets.iter_mut()) {
            if bucket.is_empty() {
                continue;
            }
            let count = bucket.len();
            match tx.send_batch(bucket) {
                Ok(depth) => {
                    bell.ring();
                    self.counters.record_batch(count, *bytes, depth);
                }
                Err(_) => {
                    self.counters.record_failed_batch(count, *bytes);
                    bucket.clear();
                }
            }
            *bytes = 0;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        match self.inbox.try_recv() {
            Ok(env) => Some(env),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Drains up to `max` queued envelopes into `buf` with a single channel
    /// lock acquisition, returning how many were moved. The batched
    /// counterpart of [`NodeMailbox::try_recv`] used by the node event
    /// loops: one lock round-trip per *batch* instead of per message.
    pub fn drain_into(&self, buf: &mut Vec<Envelope<M>>, max: usize) -> usize {
        self.inbox.drain_into(buf, max)
    }

    /// Blocking receive with a timeout; `None` on timeout or disconnection.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<Envelope<M>> {
        self.inbox.recv_timeout(timeout).ok()
    }

    /// Number of messages waiting in the inbox.
    pub fn pending(&self) -> usize {
        self.inbox.len()
    }

    /// This node's doorbell: every mailbox of the network rings it after
    /// pushing into this one's inbox.
    pub fn doorbell(&self) -> &Doorbell {
        &self.peers[self.id.index()].1
    }
}

/// The threaded cluster transport: constructs one mailbox per node.
#[derive(Debug)]
pub struct ThreadedNet<M> {
    mailboxes: Vec<NodeMailbox<M>>,
    faults: Arc<LinkFaults>,
}

impl<M> ThreadedNet<M> {
    /// Creates a fully connected transport for `n` nodes with ids `0..n`.
    pub fn new(n: usize) -> Self {
        let faults = Arc::new(LinkFaults::default());
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push((tx, Doorbell::new()));
            receivers.push(rx);
        }
        let mailboxes = receivers
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| {
                // Counters per mailbox: a node loop's sends touch only its
                // own cache line; `stats` adds them up.
                NodeMailbox::new(
                    NodeId(i as u16),
                    inbox,
                    senders.clone(),
                    Arc::default(),
                    Arc::clone(&faults),
                )
            })
            .collect();
        ThreadedNet { mailboxes, faults }
    }

    /// The shared link-fault table: cuts injected here take effect for every
    /// mailbox of this transport immediately.
    pub fn faults(&self) -> &Arc<LinkFaults> {
        &self.faults
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.mailboxes.len()
    }

    /// Whether the transport has no nodes.
    pub fn is_empty(&self) -> bool {
        self.mailboxes.is_empty()
    }

    /// Takes the mailbox of node `id` (each mailbox is handed to its node
    /// thread exactly once; it can be cloned afterwards).
    pub fn mailbox(&self, id: NodeId) -> NodeMailbox<M> {
        self.mailboxes[id.index()].clone()
    }

    /// Every node's traffic counters, in node order: what
    /// [`ThreadedNet::stats`] sums, for a holder that outlives the net.
    pub fn counters(&self) -> Vec<Arc<SharedCounters>> {
        self.mailboxes
            .iter()
            .map(|mailbox| Arc::clone(&mailbox.counters))
            .collect()
    }

    /// Snapshot of the traffic counters, summed over the nodes.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::new();
        for mailbox in &self.mailboxes {
            total.merge(&mailbox.counters.snapshot());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn messages_route_to_destination() {
        let net: ThreadedNet<u32> = ThreadedNet::new(3);
        let a = net.mailbox(NodeId(0));
        let b = net.mailbox(NodeId(1));
        let c = net.mailbox(NodeId(2));
        assert!(a.send(NodeId(1), 7, 4));
        assert!(a.send(NodeId(2), 9, 4));
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().msg, 7);
        assert_eq!(c.recv_timeout(Duration::from_secs(1)).unwrap().msg, 9);
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn send_to_unknown_node_fails() {
        let net: ThreadedNet<u32> = ThreadedNet::new(2);
        let a = net.mailbox(NodeId(0));
        assert!(!a.send(NodeId(9), 1, 4));
        // A failed send counts as dropped, not delivered.
        let stats = net.stats();
        assert_eq!(stats.messages_sent, 1);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(stats.messages_delivered, 0);
        assert_eq!(stats.bytes_delivered, 0);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let net: ThreadedNet<u32> = ThreadedNet::new(2);
        let a = net.mailbox(NodeId(0));
        a.send(NodeId(1), 1, 100);
        a.send(NodeId(1), 2, 50);
        let stats = net.stats();
        assert_eq!(stats.messages_sent, 2);
        assert!(stats.bytes_sent >= 150);
    }

    #[test]
    fn cross_thread_delivery_works() {
        let net: ThreadedNet<u64> = ThreadedNet::new(2);
        let a = net.mailbox(NodeId(0));
        let b = net.mailbox(NodeId(1));
        let handle = std::thread::spawn(move || {
            let mut sum = 0u64;
            for _ in 0..100 {
                if let Some(env) = b.recv_timeout(Duration::from_secs(2)) {
                    sum += env.msg;
                }
            }
            sum
        });
        for i in 1..=100u64 {
            a.send(NodeId(1), i, 8);
        }
        assert_eq!(handle.join().unwrap(), 5050);
    }

    #[test]
    fn drain_into_batches_the_inbox() {
        let net: ThreadedNet<u32> = ThreadedNet::new(2);
        let a = net.mailbox(NodeId(0));
        let b = net.mailbox(NodeId(1));
        for i in 0..6 {
            a.send(NodeId(1), i, 4);
        }
        let mut buf = Vec::new();
        assert_eq!(b.drain_into(&mut buf, 4), 4);
        assert_eq!(b.drain_into(&mut buf, 4), 2);
        let values: Vec<u32> = buf.iter().map(|e| e.msg).collect();
        assert_eq!(values, vec![0, 1, 2, 3, 4, 5]);
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn send_batch_matches_per_message_semantics() {
        let net: ThreadedNet<u32> = ThreadedNet::new(3);
        let a = net.mailbox(NodeId(0));
        let b = net.mailbox(NodeId(1));
        let c = net.mailbox(NodeId(2));
        net.faults().partition(NodeId(0), NodeId(2));
        a.send_batch(vec![
            (NodeId(1), 1, 4),
            (NodeId(2), 2, 4), // cut link: dropped
            (NodeId(1), 3, 4),
            (NodeId(9), 4, 4), // unknown peer: dropped
        ]);
        let mut buf = Vec::new();
        b.drain_into(&mut buf, 10);
        let values: Vec<u32> = buf.iter().map(|e| e.msg).collect();
        assert_eq!(values, vec![1, 3], "per-destination FIFO preserved");
        assert!(c.try_recv().is_none());
        let stats = net.stats();
        assert_eq!(stats.messages_sent, 4);
        assert_eq!(stats.messages_dropped, 2);
        assert_eq!(stats.messages_delivered, 2);
        assert!(stats.queue_depth_hwm >= 2);
    }

    #[test]
    fn queue_depth_high_water_mark_sticks() {
        let net: ThreadedNet<u32> = ThreadedNet::new(2);
        let a = net.mailbox(NodeId(0));
        let b = net.mailbox(NodeId(1));
        for i in 0..5 {
            a.send(NodeId(1), i, 4);
        }
        assert!(net.stats().queue_depth_hwm >= 5);
        while b.try_recv().is_some() {}
        a.send(NodeId(1), 9, 4);
        // Draining the inbox must not reset the high-water mark.
        assert!(net.stats().queue_depth_hwm >= 5);
    }

    #[test]
    fn pending_reports_queue_depth() {
        let net: ThreadedNet<u32> = ThreadedNet::new(2);
        let a = net.mailbox(NodeId(0));
        let b = net.mailbox(NodeId(1));
        for i in 0..5 {
            a.send(NodeId(1), i, 4);
        }
        assert_eq!(b.pending(), 5);
    }

    #[test]
    fn link_cuts_are_tracked_per_direction_and_healing_clears_them() {
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        let faults = LinkFaults::default();
        assert!(!faults.is_cut(a, b));
        faults.partition(a, b);
        faults.partition(a, c);
        assert!(faults.is_cut(a, b) && faults.is_cut(b, a) && faults.is_cut(c, a));
        assert!(!faults.is_cut(b, c), "only what was cut");
        faults.heal_partition(a, b);
        assert!(!faults.is_cut(a, b) && faults.is_cut(a, c));
        faults.heal_partition(a, c);
        assert!(!faults.is_cut(a, c), "the last cut healed");
        faults.partition(b, c);
        faults.heal_all();
        assert!(!faults.is_cut(b, c));
        faults.partition(b, c);
        assert!(faults.is_cut(c, b), "cutting works again after a heal");
    }

    #[test]
    fn stats_add_up_every_nodes_counters() {
        let net: ThreadedNet<u32> = ThreadedNet::new(3);
        let (a, b) = (net.mailbox(NodeId(0)), net.mailbox(NodeId(1)));
        a.send(NodeId(1), 1, 10);
        a.send_batch(vec![(NodeId(1), 2, 10), (NodeId(2), 3, 10)]);
        b.send(NodeId(0), 4, 10);
        b.clone().send(NodeId(9), 5, 10); // a clone counts with its origin
        let stats = net.stats();
        assert_eq!(stats.messages_sent, 5);
        assert_eq!(stats.messages_delivered, 4);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(
            stats.bytes_sent,
            5 * (10 + crate::envelope::HEADER_BYTES) as u64
        );
        assert_eq!(stats.queue_depth_hwm, 2, "node 1's inbox held two");
    }
}
