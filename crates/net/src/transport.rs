//! The runtime-facing transport abstraction.
//!
//! [`Transport`] is the seam between a node event loop (one OS thread or
//! process per Zeus node, see `zeus-core`) and whatever moves its bytes:
//! the in-process channel mailbox ([`crate::threaded`]) or real UDP sockets
//! ([`crate::udp`]). The node loop only ever sends envelopes, drains
//! deliveries, sleeps on the transport's [`Doorbell`] when it has nothing to
//! do, and calls [`Transport::maintain`] once per iteration; the transport
//! supplies back the two signals the protocol layer consumes — its
//! retransmission timeout ([`Transport::rto_micros`]) and a congestion flag
//! ([`Transport::congested`]).

use std::time::Duration;

use zeus_proto::NodeId;

use crate::doorbell::Doorbell;
use crate::envelope::Envelope;
use crate::threaded::NodeMailbox;

/// A node's connection to its peers, as consumed by the node event loops.
///
/// All methods take `&self`: transports are handed to one loop thread but
/// may be cloned/shared internally (sockets, channels).
pub trait Transport<M>: Send + 'static {
    /// Sends `msg` of approximate `payload_bytes` size to `to`; `false`
    /// when the destination is known-unreachable (closed mailbox, cut
    /// link).
    fn send(&self, to: NodeId, msg: M, payload_bytes: usize) -> bool;

    /// Sends a whole outbox flush of `(to, msg, payload_bytes)` triples,
    /// preserving per-destination FIFO order. `msgs` is left empty with its
    /// capacity: the node loop flushes from one buffer it keeps.
    fn send_batch(&self, msgs: &mut Vec<(NodeId, M, usize)>);

    /// Moves up to `max` delivered envelopes into `buf`, returning how many
    /// were appended.
    fn drain_into(&self, buf: &mut Vec<Envelope<M>>, max: usize) -> usize;

    /// Blocking receive with a timeout; `None` on timeout or shutdown. For
    /// callers with nothing else to wait for (tests, probes): a node loop
    /// sleeps on [`Transport::doorbell`] instead.
    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>>;

    /// This node's doorbell, which the transport rings after every delivery
    /// into the inbox [`Transport::drain_into`] empties. The loop that owns
    /// the transport attaches to it, hands clones to whoever else gives it
    /// work, and parks on it when [`Transport::pending`] is zero.
    fn doorbell(&self) -> &Doorbell;

    /// Delivered messages waiting to be drained.
    fn pending(&self) -> usize;

    /// Periodic transport work (link-layer retransmission), called once per
    /// node-loop iteration with the loop's microsecond clock.
    fn maintain(&self, now_us: u64) {
        let _ = now_us;
    }

    /// The transport's current retransmission timeout in microseconds (for
    /// UDP the largest per-peer estimate), which the node loop makes the
    /// protocol layer's retry interval; `None` keeps the configured fixed
    /// one.
    fn rto_micros(&self) -> Option<u64> {
        None
    }

    /// Whether the transport itself is backlogged (e.g. a window of
    /// unacknowledged datagrams), beyond any inbox backlog the node loop
    /// observes on its own.
    fn congested(&self) -> bool {
        false
    }
}

/// The protocol retry interval of a node on the in-process mailbox, where
/// one tick is one microsecond. Channels are lossless and FIFO — only an
/// injected partition drops — so a re-send is almost always a duplicate, and
/// the simulator-tuned default (64 ticks, sized for 2–4-tick round trips)
/// would re-send every protocol message of an ordinary ~100 µs ownership
/// acquisition several times; with a window of pipelined acquisitions in
/// flight that snowballs into a retransmit storm that slows the very
/// requests it is retrying. 1 ms is an order of magnitude above a healthy
/// exchange, and when queueing delay exceeds it the node loop's congestion
/// signal stretches the interval (up to 256x) for as long as the backlog
/// lasts.
pub const MAILBOX_RTO_MICROS: u64 = 1_000;

/// The channel mailbox is a transport with nothing to probe or retransmit
/// underneath the protocols, and a fixed retransmission timeout.
impl<M: Send + 'static> Transport<M> for NodeMailbox<M> {
    fn send(&self, to: NodeId, msg: M, payload_bytes: usize) -> bool {
        NodeMailbox::send(self, to, msg, payload_bytes)
    }

    fn send_batch(&self, msgs: &mut Vec<(NodeId, M, usize)>) {
        NodeMailbox::send_batch(self, msgs.drain(..))
    }

    fn drain_into(&self, buf: &mut Vec<Envelope<M>>, max: usize) -> usize {
        NodeMailbox::drain_into(self, buf, max)
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        NodeMailbox::recv_timeout(self, timeout)
    }

    fn doorbell(&self) -> &Doorbell {
        NodeMailbox::doorbell(self)
    }

    fn pending(&self) -> usize {
        NodeMailbox::pending(self)
    }

    fn rto_micros(&self) -> Option<u64> {
        Some(MAILBOX_RTO_MICROS)
    }
}
