//! Compact hand-rolled binary wire format.
//!
//! The simulated transport passes Rust values directly, but the threaded
//! runtime and the bandwidth-accounting experiments (the paper claims Zeus
//! "uses less network bandwidth", §1/§8) need a realistic on-the-wire size
//! for every message. This module provides a small, dependency-free codec:
//! fixed-width little-endian integers, length-prefixed byte strings and
//! 1-byte enum tags — essentially what the paper's DPDK messaging layer does.
//!
//! Each composite type's layout is written once, as a `wire_struct!` or
//! `wire_enum!` invocation listing its tag and field names: the invocation
//! list is the wire layout, and a field's position in it is its position on
//! the wire. `encode`, `decode` and `encoded_len` are all generated from that
//! one list, so adding a field is one edit. A field left off the list does
//! not compile (the generated patterns and struct expressions name every
//! field); an edit that moves a listed one is caught by the per-variant
//! golden bytes in `tests/wire_roundtrip.rs`.

use bytes::Bytes;

use crate::error::ProtoError;
use crate::ids::{DataTs, Epoch, NodeId, ObjectId, OwnershipTs, PipelineId, RequestId, TxId};
use crate::messages::{
    CommitMsg, MembershipMsg, NackReason, ObjectUpdate, OwnershipMsg, OwnershipRequestKind, ViewMsg,
};
use crate::nodeset::{NodeSet, INLINE_NODES};
use crate::state::ReplicaSet;

/// Maximum length accepted for any length-prefixed field (16 MiB). Purely a
/// sanity bound against corrupted buffers.
pub const MAX_FIELD_LEN: usize = 16 * 1024 * 1024;

/// Types that can be encoded to / decoded from the Zeus wire format.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self, ProtoError>;

    /// Number of bytes [`Wire::encode`] would append. Computed from the
    /// value's shape, never by encoding it: the runtimes ask for the size of
    /// every message they send (bandwidth accounting), so an implementation
    /// that encodes into a scratch buffer would put an allocation on every
    /// send. The round-trip property test pins it to the encoder.
    fn encoded_len(&self) -> usize;
}

/// Encodes a value into a fresh buffer.
pub fn encode_to_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    value.encode(&mut buf);
    buf
}

/// Decodes a value from a slice, requiring the slice to be fully consumed.
pub fn decode_from_slice<T: Wire>(mut input: &[u8]) -> Result<T, ProtoError> {
    let value = T::decode(&mut input)?;
    if input.is_empty() {
        Ok(value)
    } else {
        Err(ProtoError::TrailingBytes {
            remaining: input.len(),
        })
    }
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], ProtoError> {
    if input.len() < n {
        return Err(ProtoError::UnexpectedEof {
            needed: n,
            remaining: input.len(),
        });
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// Reads the `u32` count in front of a length-prefixed field, bounded by
/// [`MAX_FIELD_LEN`].
fn decode_len(input: &mut &[u8]) -> Result<usize, ProtoError> {
    let len = u32::decode(input)? as usize;
    if len > MAX_FIELD_LEN {
        return Err(ProtoError::LengthTooLarge {
            len,
            max: MAX_FIELD_LEN,
        });
    }
    Ok(len)
}

impl Wire for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, ProtoError> {
        Ok(take(input, 1)?[0])
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Result<Self, ProtoError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ProtoError::InvalidTag { ty: "bool", tag }),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for u16 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, ProtoError> {
        let b = take(input, 2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn encoded_len(&self) -> usize {
        2
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, ProtoError> {
        let b = take(input, 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, ProtoError> {
        let b = take(input, 8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, ProtoError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            tag => Err(ProtoError::InvalidTag { ty: "Option", tag }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, ProtoError> {
        let len = decode_len(input)?;
        // Every element takes at least one byte: a count the input cannot
        // hold fails below, having reserved no more than the input's length.
        let mut out = Vec::with_capacity(len.min(input.len()));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

impl Wire for Bytes {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, ProtoError> {
        let len = decode_len(input)?;
        Ok(Bytes::copy_from_slice(take(input, len)?))
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, ProtoError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, ProtoError> {
        Ok((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
}

macro_rules! newtype_wire {
    ($ty:ty, $inner:ty) => {
        impl Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.0.encode(buf);
            }
            fn decode(input: &mut &[u8]) -> Result<Self, ProtoError> {
                Ok(Self(<$inner>::decode(input)?))
            }
            fn encoded_len(&self) -> usize {
                core::mem::size_of::<$inner>()
            }
        }
    };
}

newtype_wire!(NodeId, u16);
newtype_wire!(ObjectId, u64);
newtype_wire!(Epoch, u64);

/// Implements [`Wire`] for a struct from its field list, which is its wire
/// layout: the fields back to back in the order listed, no tag, no padding.
///
/// `encode` writes each field in list order and `encoded_len` sums their
/// lengths. `decode` is the struct expression `Ty { field:
/// Wire::decode(input)?, … }` in the same order, each field's type inferred
/// from the struct definition. A struct expression evaluates its fields in
/// the order they are written, not in declaration order, so each field is
/// read from where `encode` put it.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$field.encode(buf);)+
            }
            fn decode(input: &mut &[u8]) -> Result<Self, ProtoError> {
                Ok($ty { $($field: Wire::decode(input)?),+ })
            }
            fn encoded_len(&self) -> usize {
                0 $(+ self.$field.encoded_len())+
            }
        }
    };
}

/// Implements [`Wire`] for an enum from its variant list, which is its wire
/// layout: a variant is its one-byte tag, then its fields back to back in
/// the order listed.
///
/// `encode` writes the tag and each field in list order, and `encoded_len`
/// is `1` plus the fields' lengths. `decode` reads the tag and builds the
/// variant as the struct expression `Ty::Variant { field:
/// Wire::decode(input)?, … }` in the same order, each field's type inferred
/// from the enum definition; a struct expression evaluates its fields in the
/// order they are written, so each field is read from where `encode` put it.
/// An unlisted tag is [`ProtoError::InvalidTag`] named after the type.
macro_rules! wire_enum {
    ($ty:ident { $($tag:literal => $variant:ident $({ $($field:ident),+ $(,)? })?),+ $(,)? }) => {
        impl Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $({ $($field),+ })? => {
                        buf.push($tag);
                        $($($field.encode(buf);)+)?
                    })+
                }
            }
            fn decode(input: &mut &[u8]) -> Result<Self, ProtoError> {
                match u8::decode(input)? {
                    $($tag => Ok($ty::$variant $({ $($field: Wire::decode(input)?),+ })?),)+
                    tag => Err(ProtoError::InvalidTag { ty: stringify!($ty), tag }),
                }
            }
            fn encoded_len(&self) -> usize {
                match self {
                    $($ty::$variant $({ $($field),+ })? => 1 $($(+ $field.encoded_len())+)?,)+
                }
            }
        }
    };
}

wire_struct!(PipelineId { node, thread });
wire_struct!(TxId { pipeline, local });
wire_struct!(RequestId { requester, seq });
wire_struct!(OwnershipTs { version, node });
wire_struct!(DataTs { version, acquired });
wire_struct!(ReplicaSet { owner, readers });
wire_struct!(ObjectUpdate { object, ts, data });

/// Encodes as the `Vec<NodeId>` of its members in ascending order: a `u32`
/// count, then each id. Decoding accepts any order (and repeats) and
/// normalises.
impl Wire for NodeSet {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for node in self {
            node.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, ProtoError> {
        let len = decode_len(input)?;
        if len <= INLINE_NODES {
            let mut set = NodeSet::new();
            for _ in 0..len {
                set.insert(NodeId::decode(input)?);
            }
            return Ok(set);
        }
        // A long list is sorted once, not inserted id by id: decoding stays
        // `O(n log n)` whatever order a peer sent it in.
        let mut nodes = Vec::with_capacity(len.min(input.len()));
        for _ in 0..len {
            nodes.push(NodeId::decode(input)?);
        }
        Ok(nodes.into())
    }
    fn encoded_len(&self) -> usize {
        4 + 2 * self.len()
    }
}

wire_enum!(OwnershipRequestKind {
    0 => AcquireOwner,
    1 => AcquireReader,
    2 => RemoveReader { reader },
});

wire_enum!(NackReason {
    0 => LostArbitration,
    1 => PendingCommit,
    2 => StaleEpoch,
    3 => NotDirectory,
    4 => UnknownObject,
    5 => Recovering,
    6 => DataLoss,
});

wire_enum!(OwnershipMsg {
    0 => Req { req_id, object, kind, epoch, has_replica },
    1 => Inv {
        req_id, object, o_ts, kind, new_replicas, old_replicas, epoch, ack_to_driver,
        requester_has_replica,
    },
    2 => Ack { req_id, object, o_ts, epoch, data, from, arbiters, new_replicas, first_touch },
    3 => Val { req_id, object, o_ts, epoch },
    4 => Nack { req_id, object, reason, epoch, from },
    5 => Resp { req_id, object, o_ts, epoch, data, new_replicas, first_touch },
});

wire_enum!(CommitMsg {
    0 => RInv { tx_id, epoch, followers, prev_val, updates },
    1 => RAck { tx_id, from, epoch },
    2 => RVal { tx_id, epoch },
});

wire_enum!(MembershipMsg {
    0 => Heartbeat { from, epoch },
    1 => ViewChange { epoch, live, admitted },
    2 => RecoveryDone { from, epoch, seen },
    3 => ViewPull { from },
});

wire_enum!(ViewMsg {
    0 => Propose { epoch, base, live, admitted, from },
    1 => Grant { epoch, from },
    2 => Reject { epoch, committed, from },
    3 => DirPull { from },
    4 => DirPush { from, epoch, entries },
});

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + core::fmt::Debug>(value: T) {
        let encoded = encode_to_vec(&value);
        assert_eq!(encoded.len(), value.encoded_len());
        let decoded: T = decode_from_slice(&encoded).expect("decode");
        assert_eq!(decoded, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(Some(42u64));
        roundtrip(None::<u64>);
        roundtrip(vec![1u16, 2, 3]);
        roundtrip(Bytes::from(vec![1u8, 2, 3, 4]));
        roundtrip((7u64, Bytes::from_static(b"hello")));
    }

    #[test]
    fn ids_roundtrip() {
        roundtrip(NodeId(7));
        roundtrip(ObjectId(0xDEADBEEF));
        roundtrip(Epoch(99));
        roundtrip(PipelineId::new(NodeId(1), 3));
        roundtrip(TxId::new(PipelineId::new(NodeId(1), 3), 42));
        roundtrip(RequestId::new(NodeId(2), 17));
        roundtrip(OwnershipTs::new(5, NodeId(3)));
        roundtrip(DataTs::new(9, OwnershipTs::new(5, NodeId(3))));
        roundtrip(ReplicaSet::new(NodeId(0), [NodeId(1), NodeId(2)]));
    }

    #[test]
    fn ownership_messages_roundtrip() {
        let req_id = RequestId::new(NodeId(1), 9);
        let object = ObjectId(1234);
        let o_ts = OwnershipTs::new(8, NodeId(2));
        roundtrip(OwnershipMsg::Req {
            req_id,
            object,
            kind: OwnershipRequestKind::AcquireOwner,
            epoch: Epoch(1),
            has_replica: false,
        });
        roundtrip(OwnershipMsg::Inv {
            req_id,
            object,
            o_ts,
            kind: OwnershipRequestKind::RemoveReader { reader: NodeId(4) },
            new_replicas: ReplicaSet::new(NodeId(1), [NodeId(2)]),
            old_replicas: ReplicaSet::new(NodeId(2), [NodeId(1)]),
            epoch: Epoch(1),
            ack_to_driver: true,
            requester_has_replica: true,
        });
        roundtrip(OwnershipMsg::Ack {
            req_id,
            object,
            o_ts,
            epoch: Epoch(1),
            data: Some((DataTs::new(3, o_ts), Bytes::from(vec![9u8; 400]))),
            from: NodeId(5),
            arbiters: [NodeId(0), NodeId(1), NodeId(5)].into_iter().collect(),
            new_replicas: ReplicaSet::new(NodeId(1), [NodeId(5)]),
            first_touch: false,
        });
        roundtrip(OwnershipMsg::Val {
            req_id,
            object,
            o_ts,
            epoch: Epoch(2),
        });
        roundtrip(OwnershipMsg::Nack {
            req_id,
            object,
            reason: NackReason::LostArbitration,
            epoch: Epoch(2),
            from: NodeId(3),
        });
        roundtrip(OwnershipMsg::Nack {
            req_id,
            object,
            reason: NackReason::DataLoss,
            epoch: Epoch(2),
            from: NodeId(3),
        });
        roundtrip(OwnershipMsg::Resp {
            req_id,
            object,
            o_ts,
            epoch: Epoch(2),
            data: None,
            new_replicas: ReplicaSet::new(NodeId(1), [NodeId(2)]),
            first_touch: true,
        });
    }

    #[test]
    fn commit_messages_roundtrip() {
        let tx_id = TxId::new(PipelineId::new(NodeId(3), 1), 77);
        roundtrip(CommitMsg::RInv {
            tx_id,
            epoch: Epoch(4),
            followers: vec![NodeId(1), NodeId(2)],
            prev_val: false,
            updates: vec![
                ObjectUpdate::new(
                    ObjectId(1),
                    DataTs::new(10, OwnershipTs::new(2, NodeId(3))),
                    vec![1u8; 64],
                ),
                ObjectUpdate::new(
                    ObjectId(2),
                    DataTs::new(11, OwnershipTs::new(2, NodeId(3))),
                    vec![2u8; 128],
                ),
            ],
        });
        roundtrip(CommitMsg::RAck {
            tx_id,
            from: NodeId(1),
            epoch: Epoch(4),
        });
        roundtrip(CommitMsg::RVal {
            tx_id,
            epoch: Epoch(4),
        });
    }

    #[test]
    fn membership_messages_roundtrip() {
        roundtrip(MembershipMsg::Heartbeat {
            from: NodeId(1),
            epoch: Epoch(0),
        });
        roundtrip(MembershipMsg::ViewChange {
            epoch: Epoch(3),
            live: vec![NodeId(0), NodeId(2)],
            admitted: vec![Epoch(0), Epoch(3)],
        });
        roundtrip(MembershipMsg::RecoveryDone {
            from: NodeId(2),
            epoch: Epoch(3),
            seen: vec![NodeId(0), NodeId(2)],
        });
        roundtrip(MembershipMsg::ViewPull { from: NodeId(4) });
    }

    #[test]
    fn view_messages_roundtrip() {
        roundtrip(ViewMsg::Propose {
            epoch: Epoch(5),
            base: Epoch(4),
            live: vec![NodeId(0), NodeId(2)],
            admitted: vec![Epoch(0), Epoch(5)],
            from: NodeId(2),
        });
        roundtrip(ViewMsg::Grant {
            epoch: Epoch(5),
            from: NodeId(1),
        });
        roundtrip(ViewMsg::Reject {
            epoch: Epoch(5),
            committed: Epoch(6),
            from: NodeId(0),
        });
        roundtrip(ViewMsg::DirPull { from: NodeId(2) });
        roundtrip(ViewMsg::DirPush {
            from: NodeId(0),
            epoch: Epoch(6),
            entries: vec![
                (
                    ObjectId(1),
                    OwnershipTs::new(3, NodeId(1)),
                    ReplicaSet::new(NodeId(1), [NodeId(0), NodeId(2)]),
                ),
                (
                    ObjectId(9),
                    OwnershipTs::new(7, NodeId(2)),
                    ReplicaSet::new(NodeId(2), [NodeId(0)]),
                ),
            ],
        });
    }

    #[test]
    fn view_truncated_buffers_error() {
        let msg = ViewMsg::Propose {
            epoch: Epoch(5),
            base: Epoch(4),
            live: vec![NodeId(0), NodeId(2)],
            admitted: vec![Epoch(0), Epoch(5)],
            from: NodeId(2),
        };
        let encoded = encode_to_vec(&msg);
        for cut in 0..encoded.len() {
            assert!(
                decode_from_slice::<ViewMsg>(&encoded[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
        assert!(matches!(
            decode_from_slice::<ViewMsg>(&[200]),
            Err(ProtoError::InvalidTag {
                ty: "ViewMsg",
                tag: 200
            })
        ));
    }

    #[test]
    fn truncated_buffers_error() {
        let msg = CommitMsg::RVal {
            tx_id: TxId::default(),
            epoch: Epoch(1),
        };
        let encoded = encode_to_vec(&msg);
        for cut in 0..encoded.len() {
            let err = decode_from_slice::<CommitMsg>(&encoded[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn invalid_tags_error() {
        assert!(matches!(
            decode_from_slice::<OwnershipMsg>(&[200]),
            Err(ProtoError::InvalidTag { .. }) | Err(ProtoError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            decode_from_slice::<bool>(&[7]),
            Err(ProtoError::InvalidTag { ty: "bool", tag: 7 })
        ));
    }

    #[test]
    fn trailing_bytes_error() {
        let mut encoded = encode_to_vec(&NodeId(1));
        encoded.push(0xFF);
        assert!(matches!(
            decode_from_slice::<NodeId>(&encoded),
            Err(ProtoError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn rinv_size_scales_with_payload() {
        let small = CommitMsg::RInv {
            tx_id: TxId::default(),
            epoch: Epoch(0),
            followers: vec![NodeId(1)],
            prev_val: false,
            updates: vec![ObjectUpdate::new(
                ObjectId(1),
                DataTs::default(),
                vec![0u8; 16],
            )],
        };
        let large = CommitMsg::RInv {
            tx_id: TxId::default(),
            epoch: Epoch(0),
            followers: vec![NodeId(1)],
            prev_val: false,
            updates: vec![ObjectUpdate::new(
                ObjectId(1),
                DataTs::default(),
                vec![0u8; 400],
            )],
        };
        assert_eq!(large.encoded_len() - small.encoded_len(), 400 - 16);
    }
}
