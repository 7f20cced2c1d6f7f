//! Whatever bytes arrive, decoding answers with a value or a typed
//! [`ProtoError`], never a panic; and a value it accepts is one the codec
//! stands behind: re-encoded, it decodes to itself.
//!
//! The inputs are random byte strings, and every truncation and every
//! single-bit flip of one message per variant (a node set past the inline
//! capacity and shipped data among them), as a bare protocol message, as a
//! [`Message`] and as a UDP frame. Each is decoded as each of the four protocol enums, as a
//! [`Message`] and through [`decode_frame`].

use bytes::Bytes;
use proptest::prelude::*;
use zeus_core::{Message, NodeId, ObjectId};
use zeus_net::udp::{decode_frame, encode_frame};
use zeus_net::ReliableMsg;
use zeus_proto::messages::NackReason;
use zeus_proto::wire::{decode_from_slice, encode_to_vec, Wire};
use zeus_proto::{
    CommitMsg, DataTs, Epoch, MembershipMsg, ObjectUpdate, OwnershipMsg, OwnershipRequestKind,
    OwnershipTs, PipelineId, ProtoError, ReplicaSet, RequestId, TxId, ViewMsg,
};

/// One message of each of the 18 variants.
fn samples() -> Vec<Message> {
    let tx_id = TxId::new(PipelineId::new(NodeId(1), 2), 3);
    let req_id = RequestId::new(NodeId(4), 5);
    let object = ObjectId(6);
    let o_ts = OwnershipTs::new(7, NodeId(8));
    let d_ts = DataTs::new(9, OwnershipTs::new(10, NodeId(11)));
    let replicas = ReplicaSet::new(NodeId(12), [NodeId(13)]);
    // Past the inline capacity of a node set.
    let spilled = ReplicaSet {
        owner: None,
        readers: (14..24).map(NodeId).collect(),
    };
    let data = Some((d_ts, Bytes::from_static(b"zeus")));
    vec![
        OwnershipMsg::Req {
            req_id,
            object,
            kind: OwnershipRequestKind::AcquireReader,
            epoch: Epoch(17),
            has_replica: true,
        }
        .into(),
        OwnershipMsg::Inv {
            req_id,
            object,
            o_ts,
            kind: OwnershipRequestKind::RemoveReader { reader: NodeId(18) },
            new_replicas: replicas.clone(),
            old_replicas: spilled.clone(),
            epoch: Epoch(19),
            ack_to_driver: true,
            requester_has_replica: false,
        }
        .into(),
        OwnershipMsg::Ack {
            req_id,
            object,
            o_ts,
            epoch: Epoch(20),
            data: data.clone(),
            from: NodeId(21),
            arbiters: [NodeId(22), NodeId(23)].into_iter().collect(),
            new_replicas: replicas.clone(),
            first_touch: true,
        }
        .into(),
        OwnershipMsg::Val {
            req_id,
            object,
            o_ts,
            epoch: Epoch(24),
        }
        .into(),
        OwnershipMsg::Nack {
            req_id,
            object,
            reason: NackReason::Recovering,
            epoch: Epoch(25),
            from: NodeId(26),
        }
        .into(),
        OwnershipMsg::Resp {
            req_id,
            object,
            o_ts,
            epoch: Epoch(27),
            data,
            new_replicas: spilled.clone(),
            first_touch: false,
        }
        .into(),
        CommitMsg::RInv {
            tx_id,
            epoch: Epoch(28),
            followers: vec![NodeId(29), NodeId(30)],
            prev_val: true,
            updates: vec![
                ObjectUpdate::new(object, d_ts, vec![0xcd; 2]),
                ObjectUpdate::new(ObjectId(31), DataTs::ZERO, Bytes::from_static(b"")),
            ],
        }
        .into(),
        CommitMsg::RAck {
            tx_id,
            from: NodeId(32),
            epoch: Epoch(33),
        }
        .into(),
        CommitMsg::RVal {
            tx_id,
            epoch: Epoch(34),
        }
        .into(),
        MembershipMsg::Heartbeat {
            from: NodeId(35),
            epoch: Epoch(36),
        }
        .into(),
        MembershipMsg::ViewChange {
            epoch: Epoch(37),
            live: vec![NodeId(38), NodeId(39)],
            admitted: vec![Epoch(40), Epoch(41)],
        }
        .into(),
        MembershipMsg::ViewPull { from: NodeId(42) }.into(),
        MembershipMsg::RecoveryDone {
            from: NodeId(43),
            epoch: Epoch(44),
            seen: vec![NodeId(45)],
        }
        .into(),
        ViewMsg::Propose {
            epoch: Epoch(46),
            base: Epoch(47),
            live: vec![NodeId(48)],
            admitted: vec![Epoch(49)],
            from: NodeId(50),
        }
        .into(),
        ViewMsg::Grant {
            epoch: Epoch(51),
            from: NodeId(52),
        }
        .into(),
        ViewMsg::Reject {
            epoch: Epoch(53),
            committed: Epoch(54),
            from: NodeId(55),
        }
        .into(),
        ViewMsg::DirPull { from: NodeId(56) }.into(),
        ViewMsg::DirPush {
            from: NodeId(57),
            epoch: Epoch(58),
            entries: vec![(object, o_ts, replicas), (ObjectId(59), o_ts, spilled)],
        }
        .into(),
    ]
}

/// Decoding `bytes` as a `T` returns (it cannot panic and still pass); an
/// accepted value survives a round trip.
fn check_as<T: Wire + PartialEq + std::fmt::Debug>(bytes: &[u8]) -> Result<(), TestCaseError> {
    let decoded: Result<T, ProtoError> = decode_from_slice(bytes);
    if let Ok(value) = decoded {
        let again: T = decode_from_slice(&encode_to_vec(&value))
            .map_err(|e| format!("{value:?}, accepted from {bytes:02x?}, re-decodes as {e:?}"))?;
        prop_assert!(again == value, "{value:?} re-decodes as {again:?}");
    }
    Ok(())
}

/// [`check_as`] for every decoder an untrusted byte string can reach.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    check_as::<OwnershipMsg>(bytes)?;
    check_as::<CommitMsg>(bytes)?;
    check_as::<MembershipMsg>(bytes)?;
    check_as::<ViewMsg>(bytes)?;
    check_as::<Message>(bytes)?;
    if let Ok((from, boot, msg)) = decode_frame::<Message>(bytes) {
        let again = decode_frame::<Message>(&encode_frame(from, boot, &msg))
            .map_err(|e| format!("{msg:?}, accepted from {bytes:02x?}, re-decodes as {e:?}"))?;
        prop_assert!(
            again == (from, boot, msg.clone()),
            "{msg:?} re-decodes as {again:?}"
        );
    }
    Ok(())
}

/// Every truncation and every single-bit flip of `encoding`.
fn check_mutations(encoding: &[u8]) -> Result<(), TestCaseError> {
    for cut in 0..encoding.len() {
        check(&encoding[..cut])?;
    }
    let mut flipped = encoding.to_vec();
    for bit in 0..encoding.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        check(&flipped)?;
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    Ok(())
}

#[test]
fn truncated_and_bit_flipped_messages_decode_or_fail_with_a_typed_error() {
    let mut encodings = Vec::new();
    for msg in samples() {
        let encoded = encode_to_vec(&msg);
        // The protocol message alone, behind its `Message` tag, in a frame.
        encodings.push(encoded[1..].to_vec());
        encodings.push(encoded);
        let data = ReliableMsg::Data {
            seq: 60,
            payload: msg,
        };
        encodings.push(encode_frame(NodeId(61), 62, &data));
    }
    let ack: ReliableMsg<Message> = ReliableMsg::Ack { next_expected: 63 };
    encodings.push(encode_frame(NodeId(64), 65, &ack));
    for encoding in &encodings {
        check_mutations(encoding).unwrap_or_else(|e| panic!("{e}"));
    }
}

proptest! {
    #[test]
    fn random_bytes_decode_or_fail_with_a_typed_error(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        tags in (0u8..4, 0u8..6),
    ) {
        check(&bytes)?;
        // The same bytes behind valid tags, so that decoding reaches the
        // fields of a variant more often than the tag check.
        let mut tagged = vec![tags.0, tags.1];
        tagged.extend_from_slice(&bytes);
        check(&tagged)?;
        check(&tagged[1..])?;
    }
}
