//! The runtime-facing transport abstraction.
//!
//! [`Transport`] is the seam between a node event loop (one OS thread or
//! process per Zeus node, see `zeus-core`) and whatever moves its bytes:
//! the in-process channel mailbox ([`crate::threaded`]), the same mailbox
//! with link probing ([`ProbedMailbox`]), or real UDP sockets
//! ([`crate::udp`]). The node loop only ever sends envelopes, drains
//! deliveries, and calls [`Transport::maintain`] once per iteration; the
//! transport supplies back the two adaptive signals the protocol layer
//! consumes — the current retransmission-timeout estimate
//! ([`Transport::rto_micros`]) and a congestion flag
//! ([`Transport::congested`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use zeus_proto::NodeId;

use crate::envelope::Envelope;
use crate::rtt::{RttConfig, RttEstimator};
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

    /// Blocking receive with a timeout; `None` on timeout or shutdown.
    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>>;

    /// Delivered messages waiting to be drained.
    fn pending(&self) -> usize;

    /// Periodic transport work (RTT probes, link-layer retransmission),
    /// called once per node-loop iteration with the loop's microsecond
    /// clock.
    fn maintain(&self, now_us: u64) {
        let _ = now_us;
    }

    /// The transport's current retransmission-timeout estimate in
    /// microseconds (the largest per-peer RTO), or `None` when the
    /// transport has no estimator and the protocol layer should keep its
    /// configured fixed interval.
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

/// The plain channel mailbox is a transport with no estimator: channels are
/// lossless and FIFO, so there is nothing to probe or retransmit.
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

    fn pending(&self) -> usize {
        NodeMailbox::pending(self)
    }
}

/// Link-layer wrapper carried over the channel transport by
/// [`ProbedMailbox`]: application payloads plus the RTT probe traffic.
#[derive(Debug, Clone)]
pub enum LinkMsg<M> {
    /// An application message.
    App(M),
    /// RTT probe; the receiver echoes `sent_us` back in a [`LinkMsg::Pong`].
    Ping {
        /// Sender-clock timestamp of the probe.
        sent_us: u64,
    },
    /// RTT probe echo; the original sender samples `now - sent_us`.
    Pong {
        /// The echoed sender-clock timestamp.
        sent_us: u64,
    },
}

/// Wire size charged per probe message (two u8 tags + a u64 timestamp is
/// close enough for accounting).
const PROBE_BYTES: usize = 9;

/// How often [`ProbedMailbox::maintain`] pings each peer.
const PING_INTERVAL_US: u64 = 10_000;

/// The in-process channel mailbox with per-peer RTT estimation.
///
/// Channels never lose messages, so the interesting "round-trip time" here
/// is *queueing delay*: how long a message sits in a peer's inbox before
/// its loop drains it. The probed mailbox measures exactly that by sending
/// a [`LinkMsg::Ping`] through the same inbox every 10 ms
/// and sampling the echo, and feeds the resulting RTO estimate back to the
/// protocol layer via [`Transport::rto_micros`] — replacing the hard-coded
/// 1 ms retransmission floor the threaded runtime used to substitute for
/// the sim-tuned default. Probe traffic rides the ordinary mailbox, so the
/// estimate tracks real inbox backlog; the estimator's `min_rto` keeps the
/// light-load answer at the old floor.
#[derive(Debug)]
pub struct ProbedMailbox<M> {
    inner: NodeMailbox<LinkMsg<M>>,
    /// Per-peer estimators; `None` disables probing (fixed-interval mode).
    rtt: Option<Vec<Mutex<RttEstimator>>>,
    started: Instant,
    last_ping_us: AtomicU64,
}

impl<M: Send + 'static> ProbedMailbox<M> {
    /// Wraps `inner` with one RTT estimator per peer of an `n`-node
    /// cluster.
    pub fn adaptive(inner: NodeMailbox<LinkMsg<M>>, n: usize, config: RttConfig) -> Self {
        ProbedMailbox {
            inner,
            rtt: Some(
                (0..n)
                    .map(|_| Mutex::new(RttEstimator::new(config)))
                    .collect(),
            ),
            started: Instant::now(),
            last_ping_us: AtomicU64::new(u64::MAX),
        }
    }

    /// Wraps `inner` without probing: no pings are sent, and
    /// [`Transport::rto_micros`] stays `None` so the node keeps its
    /// explicitly configured fixed retransmission interval.
    pub fn passthrough(inner: NodeMailbox<LinkMsg<M>>) -> Self {
        ProbedMailbox {
            inner,
            rtt: None,
            started: Instant::now(),
            last_ping_us: AtomicU64::new(0),
        }
    }

    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Handles one raw envelope: answers pings, absorbs pongs, unwraps
    /// application messages.
    fn sift(&self, env: Envelope<LinkMsg<M>>) -> Option<Envelope<M>> {
        match env.msg {
            LinkMsg::App(_) => Some(env.map(|m| match m {
                LinkMsg::App(m) => m,
                _ => unreachable!("matched App above"),
            })),
            LinkMsg::Ping { sent_us } => {
                self.inner
                    .send(env.from, LinkMsg::Pong { sent_us }, PROBE_BYTES);
                None
            }
            LinkMsg::Pong { sent_us } => {
                if let Some(rtt) = &self.rtt {
                    if let Some(est) = rtt.get(env.from.index()) {
                        est.lock().sample(self.now_us().saturating_sub(sent_us));
                    }
                }
                None
            }
        }
    }
}

impl<M: Send + 'static> Transport<M> for ProbedMailbox<M> {
    fn send(&self, to: NodeId, msg: M, payload_bytes: usize) -> bool {
        self.inner.send(to, LinkMsg::App(msg), payload_bytes)
    }

    fn send_batch(&self, msgs: &mut Vec<(NodeId, M, usize)>) {
        self.inner.send_batch(
            msgs.drain(..)
                .map(|(to, msg, bytes)| (to, LinkMsg::App(msg), bytes)),
        )
    }

    fn drain_into(&self, buf: &mut Vec<Envelope<M>>, max: usize) -> usize {
        let mut raw = Vec::new();
        self.inner.drain_into(&mut raw, max);
        let before = buf.len();
        buf.extend(raw.into_iter().filter_map(|env| self.sift(env)));
        buf.len() - before
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let env = self.inner.recv_timeout(remaining)?;
            if let Some(app) = self.sift(env) {
                return Some(app);
            }
            if Instant::now() >= deadline {
                return None;
            }
        }
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn maintain(&self, _now_us: u64) {
        let Some(rtt) = &self.rtt else { return };
        let now = self.now_us();
        // `u64::MAX` is the never-pinged sentinel: the first maintain call
        // probes immediately so an estimate exists from the start.
        let last = self.last_ping_us.load(Ordering::Relaxed);
        if last != u64::MAX && now.saturating_sub(last) < PING_INTERVAL_US {
            return;
        }
        if self
            .last_ping_us
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        for peer in 0..rtt.len() {
            let peer = NodeId(peer as u16);
            if peer != self.inner.id {
                self.inner
                    .send(peer, LinkMsg::Ping { sent_us: now }, PROBE_BYTES);
            }
        }
    }

    fn rto_micros(&self) -> Option<u64> {
        let rtt = self.rtt.as_ref()?;
        rtt.iter()
            .enumerate()
            .filter(|(i, _)| NodeId(*i as u16) != self.inner.id)
            .map(|(_, est)| est.lock().rto())
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::ThreadedNet;

    fn pair() -> (ProbedMailbox<u32>, ProbedMailbox<u32>) {
        let net: ThreadedNet<LinkMsg<u32>> = ThreadedNet::new(2);
        let config = RttConfig {
            initial_rto: 1_000,
            min_rto: 100,
            max_rto: 64_000,
        };
        (
            ProbedMailbox::adaptive(net.mailbox(NodeId(0)), 2, config),
            ProbedMailbox::adaptive(net.mailbox(NodeId(1)), 2, config),
        )
    }

    #[test]
    fn app_messages_pass_through() {
        let (a, b) = pair();
        assert!(Transport::send(&a, NodeId(1), 7u32, 4));
        let env = Transport::recv_timeout(&b, Duration::from_secs(1)).unwrap();
        assert_eq!(env.msg, 7);
        assert_eq!(env.from, NodeId(0));
    }

    #[test]
    fn probes_produce_rto_samples_and_stay_invisible() {
        let (a, b) = pair();
        assert_eq!(a.rto_micros(), Some(1_000), "initial rto before samples");
        // a pings; b answers while draining; a absorbs the pong.
        a.maintain(0);
        let mut buf = Vec::new();
        // The ping is probe traffic: nothing application-visible at b.
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(Transport::drain_into(&b, &mut buf, 16), 0);
        assert!(buf.is_empty());
        // Wait for the pong to arrive back, then drain it.
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(Transport::drain_into(&a, &mut buf, 16), 0);
        let rto = a.rto_micros().unwrap();
        assert_ne!(rto, 1_000, "pong must have fed the estimator");
        assert!(rto >= 100, "rto respects the floor");
    }

    #[test]
    fn passthrough_mode_reports_no_estimate() {
        let net: ThreadedNet<LinkMsg<u32>> = ThreadedNet::new(2);
        let a: ProbedMailbox<u32> = ProbedMailbox::passthrough(net.mailbox(NodeId(0)));
        let b: ProbedMailbox<u32> = ProbedMailbox::passthrough(net.mailbox(NodeId(1)));
        a.maintain(0);
        assert_eq!(a.rto_micros(), None);
        let mut buf = Vec::new();
        assert_eq!(Transport::drain_into(&b, &mut buf, 16), 0, "no probes sent");
        assert!(Transport::send(&a, NodeId(1), 3u32, 4));
        assert_eq!(Transport::drain_into(&b, &mut buf, 16), 1);
    }
}
