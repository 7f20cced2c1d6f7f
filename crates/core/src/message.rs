//! The top-level message type exchanged between Zeus nodes.

use zeus_net::Envelope;
use zeus_proto::wire::Wire;
use zeus_proto::{CommitMsg, MembershipMsg, OwnershipMsg, ProtoError, ViewMsg};

/// Union of all protocol traffic between Zeus nodes.
///
/// Every message is moved several times on its way — outbox, envelope,
/// network queue, inbox — so its size is paid on every hop, by the smallest
/// message as much as by the largest.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Ownership protocol traffic (§4), boxed: an ACK (placement, arbiter set
    /// and value) is about twice the size of any other message, and would
    /// set the size of every R-ACK and heartbeat. A node keeps the boxes of
    /// the ownership messages it handles and sends its next ones in them
    /// (see [`ZeusNode::handle_message`](crate::ZeusNode::handle_message)).
    Ownership(Box<OwnershipMsg>),
    /// Reliable-commit protocol traffic (§5).
    Commit(CommitMsg),
    /// Membership / failure detection traffic (§3.1).
    Membership(MembershipMsg),
    /// View-service traffic: quorum view agreement and directory metadata
    /// sync (`zeus-view`).
    View(ViewMsg),
}

// The largest variant held inline is `CommitMsg::RInv`. A fatter one fails
// the build here instead of quietly making every message larger.
const _: () = assert!(size_of::<Message>() <= 80);
const _: () = assert!(size_of::<Envelope<Message>>() <= 96);

impl Message {
    /// Approximate wire size of the message payload, used for the bandwidth
    /// accounting in the evaluation.
    pub fn payload_bytes(&self) -> usize {
        1 + match self {
            Message::Ownership(m) => m.encoded_len(),
            Message::Commit(m) => m.encoded_len(),
            Message::Membership(m) => m.encoded_len(),
            Message::View(m) => m.encoded_len(),
        }
    }

    /// Short label used in traces and statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Ownership(m) => match **m {
                OwnershipMsg::Req { .. } => "o-req",
                OwnershipMsg::Inv { .. } => "o-inv",
                OwnershipMsg::Ack { .. } => "o-ack",
                OwnershipMsg::Val { .. } => "o-val",
                OwnershipMsg::Nack { .. } => "o-nack",
                OwnershipMsg::Resp { .. } => "o-resp",
            },
            Message::Commit(CommitMsg::RInv { .. }) => "r-inv",
            Message::Commit(CommitMsg::RAck { .. }) => "r-ack",
            Message::Commit(CommitMsg::RVal { .. }) => "r-val",
            Message::Membership(MembershipMsg::Heartbeat { .. }) => "hb",
            Message::Membership(MembershipMsg::ViewChange { .. }) => "view",
            Message::Membership(MembershipMsg::ViewPull { .. }) => "view-pull",
            Message::Membership(MembershipMsg::RecoveryDone { .. }) => "recovered",
            Message::View(ViewMsg::Propose { .. }) => "view-propose",
            Message::View(ViewMsg::Grant { .. }) => "view-grant",
            Message::View(ViewMsg::Reject { .. }) => "view-reject",
            Message::View(ViewMsg::DirPull { .. }) => "dir-pull",
            Message::View(ViewMsg::DirPush { .. }) => "dir-push",
        }
    }
}

/// Wire framing: one tag byte selecting the protocol plus the inner
/// message's own encoding, matching [`Message::payload_bytes`] exactly.
/// This is what the UDP runtime puts in datagrams.
impl Wire for Message {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Ownership(m) => {
                buf.push(0);
                m.encode(buf);
            }
            Message::Commit(m) => {
                buf.push(1);
                m.encode(buf);
            }
            Message::Membership(m) => {
                buf.push(2);
                m.encode(buf);
            }
            Message::View(m) => {
                buf.push(3);
                m.encode(buf);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, ProtoError> {
        let tag = u8::decode(buf)?;
        Ok(match tag {
            0 => OwnershipMsg::decode(buf)?.into(),
            1 => Message::Commit(CommitMsg::decode(buf)?),
            2 => Message::Membership(MembershipMsg::decode(buf)?),
            3 => Message::View(ViewMsg::decode(buf)?),
            other => {
                return Err(ProtoError::InvalidTag {
                    ty: "Message",
                    tag: other,
                })
            }
        })
    }

    fn encoded_len(&self) -> usize {
        self.payload_bytes()
    }
}

impl From<OwnershipMsg> for Message {
    fn from(m: OwnershipMsg) -> Self {
        Message::Ownership(Box::new(m))
    }
}

impl From<CommitMsg> for Message {
    fn from(m: CommitMsg) -> Self {
        Message::Commit(m)
    }
}

impl From<MembershipMsg> for Message {
    fn from(m: MembershipMsg) -> Self {
        Message::Membership(m)
    }
}

impl From<ViewMsg> for Message {
    fn from(m: ViewMsg) -> Self {
        Message::View(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_proto::{Epoch, NodeId, ObjectId, ObjectUpdate, PipelineId, TxId};

    #[test]
    fn payload_bytes_track_update_size() {
        let small: Message = CommitMsg::RInv {
            tx_id: TxId::new(PipelineId::new(NodeId(0), 0), 0),
            epoch: Epoch::ZERO,
            followers: vec![NodeId(1)],
            prev_val: true,
            updates: vec![ObjectUpdate::new(
                ObjectId(1),
                zeus_proto::DataTs::default(),
                vec![0u8; 16],
            )],
        }
        .into();
        let large: Message = CommitMsg::RInv {
            tx_id: TxId::new(PipelineId::new(NodeId(0), 0), 0),
            epoch: Epoch::ZERO,
            followers: vec![NodeId(1)],
            prev_val: true,
            updates: vec![ObjectUpdate::new(
                ObjectId(1),
                zeus_proto::DataTs::default(),
                vec![0u8; 400],
            )],
        }
        .into();
        assert_eq!(large.payload_bytes() - small.payload_bytes(), 384);
        assert_eq!(large.kind(), "r-inv");
    }

    #[test]
    fn wire_roundtrip_matches_payload_bytes() {
        let msgs: Vec<Message> = vec![
            MembershipMsg::Heartbeat {
                from: NodeId(1),
                epoch: Epoch::ZERO,
            }
            .into(),
            CommitMsg::RInv {
                tx_id: TxId::new(PipelineId::new(NodeId(0), 0), 3),
                epoch: Epoch::ZERO,
                followers: vec![NodeId(1), NodeId(2)],
                prev_val: false,
                updates: vec![ObjectUpdate::new(
                    ObjectId(7),
                    zeus_proto::DataTs::default(),
                    vec![1, 2, 3],
                )],
            }
            .into(),
            zeus_proto::ViewMsg::Propose {
                epoch: Epoch(2),
                base: Epoch(1),
                live: vec![NodeId(0), NodeId(2)],
                admitted: vec![Epoch::ZERO, Epoch(2)],
                from: NodeId(2),
            }
            .into(),
        ];
        for msg in msgs {
            let bytes = zeus_proto::wire::encode_to_vec(&msg);
            assert_eq!(bytes.len(), msg.payload_bytes());
            let back: Message = zeus_proto::wire::decode_from_slice(&bytes).unwrap();
            assert_eq!(back, msg);
        }
    }

    /// One fixture per protocol tag, printed by the hand-written codec that
    /// preceded the field-list macros of `zeus_proto::wire`.
    #[test]
    fn every_tag_encodes_to_its_pinned_bytes() {
        let tx_id = TxId::new(PipelineId::new(NodeId(1), 2), 3);
        let fixtures: [(Message, &str); 4] = [
            (
                OwnershipMsg::Val {
                    req_id: zeus_proto::RequestId::new(NodeId(4), 5),
                    object: ObjectId(6),
                    o_ts: zeus_proto::OwnershipTs::new(7, NodeId(8)),
                    epoch: Epoch(9),
                }
                .into(),
                "0003040005000000000000000600000000000000070000000000000008000900000000000000",
            ),
            (
                CommitMsg::RAck {
                    tx_id,
                    from: NodeId(10),
                    epoch: Epoch(11),
                }
                .into(),
                "01010100020003000000000000000a000b00000000000000",
            ),
            (
                MembershipMsg::Heartbeat {
                    from: NodeId(12),
                    epoch: Epoch(13),
                }
                .into(),
                "02000c000d00000000000000",
            ),
            (
                ViewMsg::Grant {
                    epoch: Epoch(14),
                    from: NodeId(15),
                }
                .into(),
                "03010e000000000000000f00",
            ),
        ];
        for (msg, hex) in fixtures {
            let bytes = zeus_proto::wire::encode_to_vec(&msg);
            let printed: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(printed, hex, "encoding of {msg:?}");
            assert_eq!(msg.payload_bytes(), bytes.len(), "length of {msg:?}");
            let back: Message = zeus_proto::wire::decode_from_slice(&bytes).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn kinds_are_distinct_per_variant() {
        let hb: Message = MembershipMsg::Heartbeat {
            from: NodeId(0),
            epoch: Epoch::ZERO,
        }
        .into();
        assert_eq!(hb.kind(), "hb");
        assert!(hb.payload_bytes() > 0);
    }
}
