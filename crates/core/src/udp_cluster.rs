//! UDP cluster runtime: one OS thread per node, all traffic over real
//! loopback UDP sockets.
//!
//! Structurally this is [`crate::ThreadedCluster`] with the transport
//! swapped: every node runs the same [`crate::runtime`] event loop — and a
//! session's thread runs its own transaction when it finds the node free,
//! sending the commit's datagrams itself — but its
//! messages cross a [`zeus_net::UdpTransport`] — framed datagrams, the
//! sequence-numbered reliable layer, per-peer RTT estimation — instead of
//! lossless in-process channels. It exists for two reasons:
//!
//! * It is the single-process way to exercise the full UDP stack (framing,
//!   retransmission, adaptive RTO feeding the protocol retry interval), so
//!   benches and tests can compare in-process and UDP numbers on identical
//!   workloads via [`ClusterDriver`].
//! * It shares all of its node-side machinery with the process-per-node
//!   deployment ([`crate::procs`], the `zeus-node` binary): what runs here
//!   as N threads runs there as N processes, byte-identical on the wire.
//!
//! Fault injection uses the shared [`LinkFaults`] the transports consult on
//! every send, so the fig11-style partition scenarios work unchanged.

use std::net::UdpSocket;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::Bytes;
use zeus_net::threaded::{LinkFaults, SharedCounters};
use zeus_net::{LossyConfig, RttConfig, UdpConfig, UdpTransport};
use zeus_proto::{NodeId, ObjectId, OwnershipRequestKind};

use crate::client::{AdminError, ClusterDriver, RetryPolicy};
use crate::config::ZeusConfig;
use crate::runtime::{start_node, Command, NodeLink, ThreadedSession};
use crate::stats::NodeStats;
use crate::txn::TxError;
use crate::{Session, ZeusNode};

/// A Zeus cluster whose nodes talk over loopback UDP sockets.
pub struct UdpCluster {
    config: ZeusConfig,
    links: Vec<NodeLink>,
    threads: Vec<JoinHandle<()>>,
    counters: Arc<SharedCounters>,
    faults: Arc<LinkFaults>,
}

impl UdpCluster {
    /// Starts a cluster of `config.nodes` nodes, each bound to an ephemeral
    /// loopback port, with per-peer adaptive RTO
    /// ([`RttConfig::udp_default`]).
    pub fn start(config: ZeusConfig) -> std::io::Result<Self> {
        Self::start_with_loss(config, None)
    }

    /// Like [`UdpCluster::start`] but with deterministic send-side frame
    /// loss on every node — the loss-recovery soak used by tests and the
    /// `udp_smoke` bench arm's documentation of worst-case behaviour.
    pub fn start_with_loss(config: ZeusConfig, loss: Option<LossyConfig>) -> std::io::Result<Self> {
        let sockets: Vec<UdpSocket> = (0..config.nodes)
            .map(|_| UdpSocket::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let peers: Vec<std::net::SocketAddr> = sockets
            .iter()
            .map(|s| s.local_addr())
            .collect::<std::io::Result<_>>()?;
        let counters = Arc::new(SharedCounters::default());
        let faults = Arc::new(LinkFaults::default());

        let mut links = Vec::new();
        let mut threads = Vec::new();
        for (i, socket) in sockets.into_iter().enumerate() {
            let id = NodeId(i as u16);
            let udp_config = UdpConfig {
                local: id,
                peers: peers.clone(),
                rtt: RttConfig::udp_default(),
                loss: loss.map(|l| LossyConfig {
                    // Decorrelate the nodes' drop patterns.
                    seed: l.seed.wrapping_add(i as u64).max(1),
                    ..l
                }),
            };
            let transport =
                UdpTransport::from_socket(socket, udp_config, counters.clone(), faults.clone())?;
            let (link, thread) = start_node(ZeusNode::new(id, config.clone()), transport);
            links.push(link);
            threads.push(thread);
        }
        Ok(UdpCluster {
            config,
            links,
            threads,
            counters,
            faults,
        })
    }

    /// The deployment configuration.
    pub fn config(&self) -> &ZeusConfig {
        &self.config
    }

    /// A client session on node `id`.
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

    /// Stops all node threads (each join also tears down that node's socket
    /// reader thread) and waits for them to exit.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for link in &self.links {
            let _ = link.send(Command::Shutdown);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for UdpCluster {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown_inner();
        }
    }
}

impl ClusterDriver for UdpCluster {
    type Session = ThreadedSession;

    fn nodes(&self) -> usize {
        self.config.nodes
    }

    fn handle(&self, id: NodeId) -> ThreadedSession {
        UdpCluster::handle(self, id)
    }

    fn create_object(&self, object: ObjectId, data: Bytes, owner: NodeId) {
        UdpCluster::create_object(self, object, data, owner);
    }

    fn migrate(&self, object: ObjectId, to: NodeId) -> Result<u64, TxError> {
        let start = Instant::now();
        UdpCluster::handle(self, to).acquire(object, OwnershipRequestKind::AcquireOwner)?;
        Ok((start.elapsed().as_micros() as u64).max(1))
    }

    fn aggregate_stats(&self) -> NodeStats {
        let mut total = NodeStats::default();
        for i in 0..self.config.nodes as u16 {
            if let Ok((stats, _)) = self.handle(NodeId(i)).stats() {
                total.merge(&stats);
            }
        }
        total
    }

    fn net_stats(&self) -> zeus_net::NetStats {
        self.counters.snapshot()
    }

    fn quiesce(&self) {
        // Node threads and socket readers run continuously; in-flight
        // replication drains on its own. Nothing to drive.
    }

    fn admin_expel(&self, node: NodeId) -> Result<(), AdminError> {
        for vr in self.config.view_replica_set() {
            if vr != node {
                let _ = self.links[vr.index()].send(Command::AdminExpel { node });
            }
        }
        Ok(())
    }

    fn admin_readmit(&self, node: NodeId) -> Result<(), AdminError> {
        for vr in self.config.view_replica_set() {
            if vr != node {
                let _ = self.links[vr.index()].send(Command::AdminReadmit { node });
            }
        }
        Ok(())
    }

    fn fault_isolate(&self, node: NodeId) {
        for i in 0..self.config.nodes as u16 {
            let peer = NodeId(i);
            if peer != node {
                self.faults.partition(node, peer);
            }
        }
    }

    fn fault_heal(&self, node: NodeId) {
        for i in 0..self.config.nodes as u16 {
            let peer = NodeId(i);
            if peer != node {
                self.faults.heal_partition(node, peer);
            }
        }
    }

    fn fault_heal_all(&self) {
        self.faults.heal_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A real protocol message crossing two raw transports keeps its
    /// payload and routing intact.
    #[test]
    fn ownership_req_crosses_raw_udp_transports() {
        use crate::Message;
        use zeus_net::Transport;
        use zeus_proto::{Epoch, OwnershipMsg, RequestId};

        let a_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peers = vec![a_sock.local_addr().unwrap(), b_sock.local_addr().unwrap()];
        let mk = |sock, id| {
            UdpTransport::<Message>::from_socket(
                sock,
                UdpConfig {
                    local: id,
                    peers: peers.clone(),
                    rtt: RttConfig::udp_default(),
                    loss: None,
                },
                Arc::new(SharedCounters::default()),
                Arc::new(LinkFaults::default()),
            )
            .unwrap()
        };
        let a = mk(a_sock, NodeId(0));
        let b = mk(b_sock, NodeId(1));
        let msg: Message = OwnershipMsg::Req {
            req_id: RequestId::new(NodeId(1), 7),
            object: ObjectId(0),
            kind: OwnershipRequestKind::AcquireOwner,
            epoch: Epoch::ZERO,
            has_replica: true,
        }
        .into();
        let bytes = msg.payload_bytes();
        assert!(a.send(NodeId(1), msg.clone(), bytes), "send accepted");
        let got = b
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("delivered");
        assert_eq!(got.msg, msg);
        assert_eq!(got.from, NodeId(0));
    }
}
