//! UDP transport of the cluster shell: one OS thread per node, all traffic
//! over real loopback UDP sockets.
//!
//! This is [`crate::runtime::Cluster`] — the shell [`crate::ThreadedCluster`]
//! is — started on other transports: every node runs the same
//! [`crate::runtime`] event loop — and a session's thread runs its own
//! transaction when it finds the node free, sending the commit's datagrams
//! itself — but its messages cross a [`zeus_net::UdpTransport`] — framed
//! datagrams, the sequence-numbered reliable layer, per-peer RTT estimation
//! — instead of lossless in-process channels. It exists for two reasons:
//!
//! * It is the single-process way to exercise the full UDP stack (framing,
//!   retransmission, adaptive RTO feeding the protocol retry interval), so
//!   benches and tests can compare in-process and UDP numbers on identical
//!   workloads via [`crate::ClusterDriver`].
//! * It shares all of its node-side machinery with the process-per-node
//!   deployment ([`crate::procs`], the `zeus-node` binary): what runs here
//!   as N threads runs there as N processes, byte-identical on the wire.
//!
//! Fault injection uses the shared [`LinkFaults`] the transports consult on
//! every send, so the fig11-style partition scenarios work unchanged.

use std::net::UdpSocket;
use std::sync::Arc;

use zeus_net::threaded::{LinkFaults, SharedCounters};
use zeus_net::{LossyConfig, RttConfig, UdpConfig, UdpTransport};
use zeus_proto::NodeId;

use crate::config::ZeusConfig;
use crate::runtime::Cluster;

/// Transport marker of [`UdpCluster`]: one [`UdpTransport`] per node on an
/// ephemeral loopback port.
#[derive(Debug)]
pub struct LoopbackUdp;

/// A Zeus cluster whose nodes talk over loopback UDP sockets.
pub type UdpCluster = Cluster<LoopbackUdp>;

impl Cluster<LoopbackUdp> {
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
        // Every transport before any node: a socket that fails leaves no
        // node loop behind.
        let transports: Vec<UdpTransport<_>> = sockets
            .into_iter()
            .enumerate()
            .map(|(i, socket)| {
                let udp_config = UdpConfig {
                    local: NodeId(i as u16),
                    peers: peers.clone(),
                    rtt: RttConfig::udp_default(),
                    loss: loss.map(|l| LossyConfig {
                        // Decorrelate the nodes' drop patterns.
                        seed: l.seed.wrapping_add(i as u64).max(1),
                        ..l
                    }),
                };
                UdpTransport::from_socket(socket, udp_config, counters.clone(), faults.clone())
            })
            .collect::<std::io::Result<_>>()?;
        Ok(Cluster::launch(config, vec![counters], faults, transports))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_proto::{ObjectId, OwnershipRequestKind};

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
