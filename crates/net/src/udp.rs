//! UDP socket runtime for the sans-io [`crate::reliable`] endpoint.
//!
//! This is the half of the stack the paper runs on real machines (§7, their
//! DPDK-based reliable messaging): datagrams are genuinely lossy and
//! unordered, so every guarantee the protocols assume — in-order delivery,
//! retransmission, dedup — comes from [`ReliableEndpoint`] driven by this
//! module. One [`UdpTransport`] per node owns one socket plus a reader
//! thread; the node's event loop keeps calling the same
//! [`crate::transport::Transport`] surface it uses in-process.
//!
//! Layering (the sans-io split):
//!
//! * [`crate::reliable`] decides *what* to (re)send and when — pure state
//!   machine, no I/O, fully unit-testable.
//! * this module decides *how*: frames envelopes onto datagrams
//!   ([`encode_frame`]/[`decode_frame`]), pumps the socket, and feeds
//!   wall-clock microseconds and RTT samples back into the endpoint's
//!   adaptive RTO ([`crate::rtt`]).
//!
//! Every frame carries the sender's **boot token**, a random value chosen
//! per transport instance. A `kill -9`'d node that restarts on the same
//! address starts its sequence numbers from 0 again; peers detect the
//! changed token and reset both directions of link state
//! ([`ReliableEndpoint::reset_peer`]), so the restarted node is neither
//! deduplicated into silence nor buffered behind sequence numbers it will
//! never send.
//!
//! Datagrams larger than [`MAX_DATAGRAM`] are dropped at send time and
//! counted as failed — the protocols keep payloads far below that, and a
//! fragmentation layer is out of scope for a loopback/LAN reproduction.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use zeus_proto::wire::Wire;
use zeus_proto::{NodeId, ProtoError};

use crate::doorbell::Doorbell;
use crate::envelope::Envelope;
use crate::reliable::{ReliableEndpoint, ReliableMsg};
use crate::rtt::{RtoPolicy, RttConfig};
use crate::threaded::{LinkFaults, SharedCounters};
use crate::transport::Transport;

/// Largest datagram the transport will put on (or accept from) a socket.
pub const MAX_DATAGRAM: usize = 60 * 1024;

/// Leading magic of every frame, so stray datagrams are rejected cheaply.
const FRAME_MAGIC: u16 = 0x5A55; // "ZU"

/// How long the reader thread blocks in `recv_from` before running the
/// endpoint's retransmission tick. Bounds both shutdown latency and the
/// extra delay a retransmission can suffer beyond its RTO.
const READ_TIMEOUT: Duration = Duration::from_micros(500);

/// Unacked-window depth past which [`Transport::congested`] reports the
/// link backlogged, so the protocol layer stretches its own retries.
const CONGESTED_UNACKED: usize = 512;

/// Deterministic send-side packet loss for tests: every outgoing frame is
/// dropped with `drop_probability`, driven by a seeded xorshift generator.
/// This is the "test-only lossy socket wrapper" — loss is injected *before*
/// the socket, so tests exercise real loss recovery without depending on
/// kernel behavior.
#[derive(Debug, Clone, Copy)]
pub struct LossyConfig {
    /// Probability in `[0, 1]` that a frame is dropped instead of sent.
    pub drop_probability: f64,
    /// PRNG seed; equal seeds drop the same frame positions.
    pub seed: u64,
}

/// Configuration of one node's UDP transport.
#[derive(Debug, Clone)]
pub struct UdpConfig {
    /// This node's id; `peers[local.index()]` is (or will be) its own bind
    /// address.
    pub local: NodeId,
    /// Socket address of every cluster member, indexed by [`NodeId`].
    pub peers: Vec<SocketAddr>,
    /// Adaptive-RTO bounds for the per-peer estimators.
    pub rtt: RttConfig,
    /// Optional deterministic send-side loss injection (tests only).
    pub loss: Option<LossyConfig>,
}

/// Encodes one reliable-layer message as a datagram frame:
/// `magic · from · boot · kind · seq/cumack · payload`.
pub fn encode_frame<M: Wire>(from: NodeId, boot: u32, msg: &ReliableMsg<M>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(17 + 8);
    FRAME_MAGIC.encode(&mut buf);
    from.0.encode(&mut buf);
    boot.encode(&mut buf);
    match msg {
        ReliableMsg::Data { seq, payload } => {
            0u8.encode(&mut buf);
            seq.encode(&mut buf);
            payload.encode(&mut buf);
        }
        ReliableMsg::Ack { next_expected } => {
            1u8.encode(&mut buf);
            next_expected.encode(&mut buf);
        }
    }
    buf
}

/// Decodes a datagram frame back into `(sender, boot_token, message)`.
pub fn decode_frame<M: Wire>(mut buf: &[u8]) -> Result<(NodeId, u32, ReliableMsg<M>), ProtoError> {
    let buf = &mut buf;
    let magic = u16::decode(buf)?;
    if magic != FRAME_MAGIC {
        return Err(ProtoError::InvalidTag {
            ty: "UdpFrame(magic)",
            tag: (magic & 0xff) as u8,
        });
    }
    let from = NodeId(u16::decode(buf)?);
    let boot = u32::decode(buf)?;
    let kind = u8::decode(buf)?;
    let msg = match kind {
        0 => ReliableMsg::Data {
            seq: u64::decode(buf)?,
            payload: M::decode(buf)?,
        },
        1 => ReliableMsg::Ack {
            next_expected: u64::decode(buf)?,
        },
        other => {
            return Err(ProtoError::InvalidTag {
                ty: "UdpFrame(kind)",
                tag: other,
            })
        }
    };
    Ok((from, boot, msg))
}

/// Seeded xorshift64 loss injector.
#[derive(Debug)]
struct Lossy {
    state: u64,
    /// Drop threshold out of 2^32.
    threshold: u64,
}

impl Lossy {
    fn new(config: LossyConfig) -> Self {
        Lossy {
            state: config.seed.max(1),
            threshold: (config.drop_probability.clamp(0.0, 1.0) * (1u64 << 32) as f64) as u64,
        }
    }

    fn drop_next(&mut self) -> bool {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (self.state & 0xffff_ffff) < self.threshold
    }
}

/// State shared between the owning node loop and the reader thread.
struct Shared<M> {
    local: NodeId,
    boot: u32,
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    endpoint: Mutex<ReliableEndpoint<M>>,
    /// Last boot token seen per peer; a change resets the peer's links.
    peer_boots: Mutex<HashMap<NodeId, u32>>,
    delivered_tx: Sender<Envelope<M>>,
    /// The owning node loop's doorbell, rung after every push into
    /// `delivered_tx`: by the reader thread, and by whoever sends the node a
    /// message of its own — which need not be the loop (a session's thread
    /// may be running the node while the loop sleeps).
    doorbell: Doorbell,
    counters: Arc<SharedCounters>,
    faults: Arc<LinkFaults>,
    loss: Option<Mutex<Lossy>>,
    started: Instant,
}

impl<M: Wire + Clone> Shared<M> {
    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// A self-send never touches the wire (mirroring the in-process
    /// mailbox): straight into the delivery queue, no sequence number
    /// consumed. `false` when the queue is closed.
    fn deliver_to_self(&self, env: Envelope<M>) -> bool {
        let delivered = self.delivered_tx.send(env).is_ok();
        self.doorbell.ring();
        delivered
    }

    /// Puts the endpoint's pending wire messages on the socket.
    fn ship(&self, out: Vec<Envelope<ReliableMsg<M>>>) {
        for env in out {
            let frame = encode_frame(self.local, self.boot, &env.msg);
            if frame.len() > MAX_DATAGRAM {
                self.counters.record_failed(frame.len());
                continue;
            }
            if self.faults.is_cut(self.local, env.to) {
                self.counters.record_failed(frame.len());
                continue;
            }
            let Some(&addr) = self.peers.get(env.to.index()) else {
                self.counters.record_failed(frame.len());
                continue;
            };
            if let Some(loss) = &self.loss {
                if loss.lock().drop_next() {
                    // Injected loss still counts as sent traffic — that is
                    // the point: the reliable layer must pay for recovery.
                    self.counters.record(frame.len(), 0);
                    continue;
                }
            }
            match self.socket.send_to(&frame, addr) {
                Ok(_) => self.counters.record(frame.len(), 0),
                Err(_) => self.counters.record_failed(frame.len()),
            }
        }
    }

    /// Handles one datagram from the socket.
    fn on_datagram(&self, buf: &[u8]) {
        let Ok((from, boot, msg)) = decode_frame::<M>(buf) else {
            // Stray or corrupt datagram: not protocol traffic, ignore.
            return;
        };
        if from == self.local {
            return;
        }
        let now = self.now_us();
        let mut endpoint = self.endpoint.lock();
        {
            let mut boots = self.peer_boots.lock();
            match boots.insert(from, boot) {
                Some(prev) if prev != boot => {
                    // The peer rebooted: its sequence space restarted, so
                    // both directions of link state are stale.
                    endpoint.reset_peer(from);
                }
                _ => {}
            }
        }
        endpoint.on_receive(from, msg, now);
        for (peer, payload) in endpoint.take_delivered() {
            let _ = self
                .delivered_tx
                .send(Envelope::with_payload_bytes(peer, self.local, payload, 0));
            self.doorbell.ring();
        }
        let out = endpoint.take_outgoing();
        drop(endpoint);
        self.ship(out);
    }

    /// Runs the endpoint's retransmission timer and ships what it produced.
    fn tick(&self) {
        let now = self.now_us();
        let mut endpoint = self.endpoint.lock();
        endpoint.tick(now);
        let out = endpoint.take_outgoing();
        drop(endpoint);
        self.ship(out);
    }
}

/// One node's UDP socket runtime (see the module docs).
///
/// Dropping the transport stops the reader thread and closes the socket.
pub struct UdpTransport<M> {
    shared: Arc<Shared<M>>,
    delivered_rx: Receiver<Envelope<M>>,
    shutdown: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
}

impl<M> std::fmt::Debug for UdpTransport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpTransport")
            .field("local", &self.shared.local)
            .field("boot", &self.shared.boot)
            .finish()
    }
}

impl<M: Wire + Clone + Send + 'static> UdpTransport<M> {
    /// Binds `config.peers[config.local]` and starts the reader thread.
    pub fn bind(config: UdpConfig) -> std::io::Result<Self> {
        let addr = *config.peers.get(config.local.index()).ok_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidInput, "local id not in peer list")
        })?;
        let socket = UdpSocket::bind(addr)?;
        Self::from_socket(
            socket,
            config,
            Arc::new(SharedCounters::default()),
            Arc::new(LinkFaults::default()),
        )
    }

    /// Wraps an already-bound socket, sharing `counters`/`faults` with
    /// sibling transports (the in-process [`UdpCluster`] case, where
    /// fault injection and traffic accounting span the whole cluster).
    ///
    /// [`UdpCluster`]: ../../zeus_core/udp_cluster/type.UdpCluster.html
    pub fn from_socket(
        socket: UdpSocket,
        config: UdpConfig,
        counters: Arc<SharedCounters>,
        faults: Arc<LinkFaults>,
    ) -> std::io::Result<Self> {
        socket.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader_socket = socket.try_clone()?;
        let (delivered_tx, delivered_rx) = unbounded();
        // The boot token only needs to differ between two incarnations of
        // the same node id on the same address; wall-clock nanos mixed with
        // the pid are ample.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let boot = (nanos ^ (nanos >> 32) ^ (std::process::id() as u64)) as u32;
        let shared = Arc::new(Shared {
            local: config.local,
            boot,
            socket,
            peers: config.peers,
            endpoint: Mutex::new(ReliableEndpoint::new(
                config.local,
                RtoPolicy::Adaptive(config.rtt),
            )),
            peer_boots: Mutex::new(HashMap::new()),
            delivered_tx,
            doorbell: Doorbell::new(),
            counters,
            faults,
            loss: config.loss.map(|l| Mutex::new(Lossy::new(l))),
            started: Instant::now(),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let reader = {
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                let mut buf = vec![0u8; MAX_DATAGRAM + 1024];
                while !shutdown.load(Ordering::Relaxed) {
                    match reader_socket.recv_from(&mut buf) {
                        Ok((n, _src)) => shared.on_datagram(&buf[..n]),
                        Err(e)
                            if e.kind() == ErrorKind::WouldBlock
                                || e.kind() == ErrorKind::TimedOut =>
                        {
                            // Idle: run the retransmission timer so loss
                            // recovery does not depend on the node loop's
                            // own cadence.
                            shared.tick();
                        }
                        // Transient errors (e.g. ICMP port-unreachable
                        // surfacing as ConnectionRefused on Linux) must not
                        // kill the reader: peers may simply not be up yet.
                        Err(_) => shared.tick(),
                    }
                }
            })
        };
        Ok(UdpTransport {
            shared,
            delivered_rx,
            shutdown,
            reader: Some(reader),
        })
    }

    /// The smoothed RTT estimate toward `peer`, if sampled yet.
    pub fn srtt_micros(&self, peer: NodeId) -> Option<u64> {
        self.shared.endpoint.lock().srtt(peer)
    }

    /// Messages sent but not yet acknowledged across all peers.
    pub fn unacked(&self) -> usize {
        self.shared.endpoint.lock().unacked_len()
    }

    /// Snapshot of this transport's traffic counters.
    pub fn stats(&self) -> crate::stats::NetStats {
        self.shared.counters.snapshot()
    }
}

impl<M> Drop for UdpTransport<M> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl<M: Wire + Clone + Send + 'static> Transport<M> for UdpTransport<M> {
    fn send(&self, to: NodeId, msg: M, payload_bytes: usize) -> bool {
        if to == self.shared.local {
            let env = Envelope::with_payload_bytes(to, to, msg, payload_bytes);
            return self.shared.deliver_to_self(env);
        }
        if self.shared.faults.is_cut(self.shared.local, to) {
            self.shared.counters.record_failed(payload_bytes);
            return false;
        }
        if self.shared.peers.get(to.index()).is_none() {
            self.shared.counters.record_failed(payload_bytes);
            return false;
        }
        let now = self.shared.now_us();
        let mut endpoint = self.shared.endpoint.lock();
        endpoint.send(to, msg, payload_bytes, now);
        let out = endpoint.take_outgoing();
        drop(endpoint);
        self.shared.ship(out);
        true
    }

    fn send_batch(&self, msgs: &mut Vec<(NodeId, M, usize)>) {
        let now = self.shared.now_us();
        let mut endpoint = self.shared.endpoint.lock();
        for (to, msg, payload_bytes) in msgs.drain(..) {
            if to == self.shared.local {
                let env = Envelope::with_payload_bytes(to, to, msg, payload_bytes);
                self.shared.deliver_to_self(env);
                continue;
            }
            if self.shared.faults.is_cut(self.shared.local, to)
                || self.shared.peers.get(to.index()).is_none()
            {
                self.shared.counters.record_failed(payload_bytes);
                continue;
            }
            endpoint.send(to, msg, payload_bytes, now);
        }
        let out = endpoint.take_outgoing();
        drop(endpoint);
        self.shared.ship(out);
    }

    fn drain_into(&self, buf: &mut Vec<Envelope<M>>, max: usize) -> usize {
        self.delivered_rx.drain_into(buf, max)
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        self.delivered_rx.recv_timeout(timeout).ok()
    }

    fn doorbell(&self) -> &Doorbell {
        &self.shared.doorbell
    }

    fn pending(&self) -> usize {
        self.delivered_rx.len()
    }

    fn maintain(&self, _now_us: u64) {
        self.shared.tick();
    }

    fn rto_micros(&self) -> Option<u64> {
        Some(self.shared.endpoint.lock().max_rto())
    }

    fn congested(&self) -> bool {
        self.shared.endpoint.lock().unacked_len() > CONGESTED_UNACKED
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_data_and_ack() {
        let data: ReliableMsg<u32> = ReliableMsg::Data {
            seq: 42,
            payload: 7,
        };
        let frame = encode_frame(NodeId(3), 0xDEAD_BEEF, &data);
        let (from, boot, msg) = decode_frame::<u32>(&frame).unwrap();
        assert_eq!(from, NodeId(3));
        assert_eq!(boot, 0xDEAD_BEEF);
        assert_eq!(msg, data);

        let ack: ReliableMsg<u32> = ReliableMsg::Ack { next_expected: 9 };
        let frame = encode_frame(NodeId(1), 1, &ack);
        let (_, _, msg) = decode_frame::<u32>(&frame).unwrap();
        assert_eq!(msg, ack);
    }

    #[test]
    fn bad_magic_and_bad_kind_are_rejected() {
        let mut frame = encode_frame(
            NodeId(0),
            1,
            &ReliableMsg::Data {
                seq: 0,
                payload: 5u32,
            },
        );
        frame[0] ^= 0xff;
        assert!(decode_frame::<u32>(&frame).is_err());
        let mut frame = encode_frame(
            NodeId(0),
            1,
            &ReliableMsg::Data {
                seq: 0,
                payload: 5u32,
            },
        );
        frame[8] = 9; // kind byte
        assert!(decode_frame::<u32>(&frame).is_err());
        assert!(decode_frame::<u32>(&[]).is_err());
    }

    #[test]
    fn lossy_seed_is_deterministic_and_respects_probability() {
        let mut a = Lossy::new(LossyConfig {
            drop_probability: 0.3,
            seed: 7,
        });
        let mut b = Lossy::new(LossyConfig {
            drop_probability: 0.3,
            seed: 7,
        });
        let pattern_a: Vec<bool> = (0..1000).map(|_| a.drop_next()).collect();
        let pattern_b: Vec<bool> = (0..1000).map(|_| b.drop_next()).collect();
        assert_eq!(pattern_a, pattern_b, "same seed, same drops");
        let drops = pattern_a.iter().filter(|&&d| d).count();
        assert!((200..400).contains(&drops), "~30% of 1000, got {drops}");
        let mut never = Lossy::new(LossyConfig {
            drop_probability: 0.0,
            seed: 7,
        });
        assert!((0..1000).all(|_| !never.drop_next()));
    }
}
