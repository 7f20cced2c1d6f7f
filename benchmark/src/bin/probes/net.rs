//! Transport pieces: datagram framing, the sans-io reliable endpoint, a
//! loopback UDP round trip and the in-process mailbox.

use std::hint::black_box;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Duration;

use zeus_core::Message;
use zeus_net::udp::{decode_frame, encode_frame};
use zeus_net::{
    LinkFaults, ReliableEndpoint, ReliableMsg, RtoPolicy, RttConfig, SharedCounters, ThreadedNet,
    Transport, UdpConfig, UdpTransport,
};
use zeus_proto::NodeId;

use crate::proto::rinv;
use crate::Report;

/// Reliable endpoints of a small cluster joined by the datagram codec: a
/// message "sent" through it is framed, decoded, sequenced, delivered and
/// acknowledged exactly as the UDP runtime would, minus the socket.
pub struct WirePath {
    endpoints: Vec<ReliableEndpoint<Message>>,
    now: u64,
}

impl WirePath {
    pub fn new(nodes: u16) -> Self {
        WirePath {
            // A timeout no probe reaches: nothing here is ever lost.
            endpoints: (0..nodes)
                .map(|n| ReliableEndpoint::new(NodeId(n), RtoPolicy::Fixed(u64::MAX)))
                .collect(),
            now: 0,
        }
    }

    /// Carries `msg` from `from` to `to` and returns what `to` delivers.
    pub fn carry(&mut self, from: NodeId, to: NodeId, msg: Message) -> Vec<(NodeId, Message)> {
        self.now += 1;
        let bytes = msg.payload_bytes();
        self.endpoints[from.index()].send(to, msg, bytes, self.now);
        self.flush(from);
        let delivered = self.endpoints[to.index()].take_delivered();
        // The receiver's cumulative ack travels back the same way.
        self.flush(to);
        delivered
    }

    fn flush(&mut self, node: NodeId) {
        for envelope in self.endpoints[node.index()].take_outgoing() {
            let frame = encode_frame(node, 1, &envelope.msg);
            let (from, _boot, msg) = decode_frame::<Message>(&frame).expect("own frame decodes");
            self.endpoints[envelope.to.index()].on_receive(from, msg, self.now);
        }
    }
}

fn udp_pair() -> std::io::Result<[UdpTransport<Message>; 2]> {
    let sockets = [
        UdpSocket::bind("127.0.0.1:0")?,
        UdpSocket::bind("127.0.0.1:0")?,
    ];
    let peers = vec![sockets[0].local_addr()?, sockets[1].local_addr()?];
    let mut transports = Vec::new();
    for (i, socket) in sockets.into_iter().enumerate() {
        let config = UdpConfig {
            local: NodeId(i as u16),
            peers: peers.clone(),
            rtt: RttConfig::udp_default(),
            loss: None,
        };
        transports.push(UdpTransport::from_socket(
            socket,
            config,
            Arc::new(SharedCounters::default()),
            Arc::new(LinkFaults::default()),
        )?);
    }
    Ok(transports.try_into().expect("two transports"))
}

pub fn probe(report: &mut Report) {
    let payload = Message::Commit(rinv(1));
    let bytes = payload.payload_bytes();
    let data = ReliableMsg::Data {
        seq: 1,
        payload: payload.clone(),
    };
    report.op("net.frame_encode_ns", || {
        black_box(encode_frame(NodeId(0), 1, black_box(&data)));
    });
    let frame = encode_frame(NodeId(0), 1, &data);
    report.op("net.frame_decode_ns", || {
        black_box(decode_frame::<Message>(black_box(&frame)).expect("own frame decodes"));
    });

    // One message sequenced, delivered and acknowledged; no codec.
    let mut a = ReliableEndpoint::new(NodeId(0), RtoPolicy::Fixed(u64::MAX));
    let mut b = ReliableEndpoint::new(NodeId(1), RtoPolicy::Fixed(u64::MAX));
    report.op("net.reliable_send_ack_ns", || {
        a.send(NodeId(1), payload.clone(), bytes, 0);
        for envelope in a.take_outgoing() {
            b.on_receive(NodeId(0), envelope.msg, 0);
        }
        black_box(b.take_delivered());
        for envelope in b.take_outgoing() {
            a.on_receive(NodeId(1), envelope.msg, 0);
        }
    });

    // A datagram there and one back through two real loopback sockets, each
    // with the transport's own reader thread.
    match udp_pair() {
        Ok([left, right]) => report.op_micros("net.udp_loopback_rtt_us", || {
            let wait = Duration::from_secs(1);
            left.send(NodeId(1), payload.clone(), bytes);
            let there = right.recv_timeout(wait).expect("loopback datagram arrives");
            right.send(NodeId(0), there.msg, bytes);
            black_box(left.recv_timeout(wait).expect("loopback datagram returns"));
        }),
        Err(error) => {
            eprintln!("warning: no loopback UDP in this sandbox ({error})");
            report.exact("net.udp_loopback_rtt_us", 0.0);
        }
    }

    let net: ThreadedNet<Message> = ThreadedNet::new(2);
    let (sender, receiver) = (net.mailbox(NodeId(0)), net.mailbox(NodeId(1)));
    report.op("net.mailbox_send_recv_ns", || {
        sender.send(NodeId(1), payload.clone(), bytes);
        black_box(receiver.try_recv());
    });
}
