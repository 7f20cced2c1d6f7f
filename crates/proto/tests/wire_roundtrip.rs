//! Property tests of the wire codec over every variant of every message
//! enum: the size a message reports is the size its encoding has
//! (`encoded_len` is computed from the message's shape, and the runtimes
//! account traffic with it), and decoding an encoding gives the message back.
//! A round trip cannot see two fields swapped in the layout, so next to them
//! the bytes of every variant of every message enum, of every `NackReason`
//! and `OwnershipRequestKind` and of the composite ids are pinned; so are the
//! bytes of the messages that carry node sets, as captured from the commit
//! that still encoded `Vec<NodeId>`, and the node-set type itself is checked
//! against a `BTreeSet` model.

use std::collections::BTreeSet;

use bytes::Bytes;
use proptest::prelude::*;
use zeus_proto::messages::NackReason;
use zeus_proto::wire::{decode_from_slice, encode_to_vec, Wire};
use zeus_proto::{
    CommitMsg, DataTs, Epoch, MembershipMsg, NodeId, NodeSet, ObjectId, ObjectUpdate, OwnershipMsg,
    OwnershipRequestKind, OwnershipTs, PipelineId, ReplicaSet, RequestId, TxId, ViewMsg,
};

/// Builds message fields out of a case's random words.
struct Fields {
    words: Vec<u64>,
    next: usize,
}

impl Fields {
    fn word(&mut self) -> u64 {
        let word = self.words[self.next % self.words.len()];
        // Words are reused once the case's supply runs out; the rotation
        // keeps a reused word from repeating its first value.
        self.next += 1;
        word.rotate_left((self.next / self.words.len()) as u32)
    }

    fn flag(&mut self) -> bool {
        self.word() & 1 == 1
    }

    fn len(&mut self, max: u64) -> usize {
        (self.word() % (max + 1)) as usize
    }

    fn node(&mut self) -> NodeId {
        NodeId(self.word() as u16)
    }

    fn nodes(&mut self) -> Vec<NodeId> {
        (0..self.len(5)).map(|_| self.node()).collect()
    }

    fn epoch(&mut self) -> Epoch {
        Epoch(self.word())
    }

    fn epochs(&mut self) -> Vec<Epoch> {
        (0..self.len(5)).map(|_| self.epoch()).collect()
    }

    fn object(&mut self) -> ObjectId {
        ObjectId(self.word())
    }

    fn request(&mut self) -> RequestId {
        RequestId::new(self.node(), self.word())
    }

    fn o_ts(&mut self) -> OwnershipTs {
        OwnershipTs::new(self.word(), self.node())
    }

    fn d_ts(&mut self) -> DataTs {
        DataTs::new(self.word(), self.o_ts())
    }

    fn bytes(&mut self) -> Bytes {
        let len = self.len(300);
        let fill = self.word() as u8;
        Bytes::from(vec![fill; len])
    }

    fn data(&mut self) -> Option<(DataTs, Bytes)> {
        self.flag().then(|| (self.d_ts(), self.bytes()))
    }

    fn replicas(&mut self) -> ReplicaSet {
        ReplicaSet {
            owner: self.flag().then(|| self.node()),
            readers: self.nodes().into_iter().collect(),
        }
    }

    fn kind(&mut self) -> OwnershipRequestKind {
        match self.word() % 3 {
            0 => OwnershipRequestKind::AcquireOwner,
            1 => OwnershipRequestKind::AcquireReader,
            _ => OwnershipRequestKind::RemoveReader {
                reader: self.node(),
            },
        }
    }

    fn reason(&mut self) -> NackReason {
        match self.word() % 7 {
            0 => NackReason::LostArbitration,
            1 => NackReason::PendingCommit,
            2 => NackReason::StaleEpoch,
            3 => NackReason::NotDirectory,
            4 => NackReason::UnknownObject,
            5 => NackReason::Recovering,
            _ => NackReason::DataLoss,
        }
    }

    fn tx(&mut self) -> TxId {
        TxId::new(
            PipelineId::new(self.node(), self.word() as u16),
            self.word(),
        )
    }

    fn updates(&mut self) -> Vec<ObjectUpdate> {
        (0..self.len(4))
            .map(|_| ObjectUpdate::new(self.object(), self.d_ts(), self.bytes()))
            .collect()
    }

    fn ownership(&mut self) -> Vec<OwnershipMsg> {
        vec![
            OwnershipMsg::Req {
                req_id: self.request(),
                object: self.object(),
                kind: self.kind(),
                epoch: self.epoch(),
                has_replica: self.flag(),
            },
            OwnershipMsg::Inv {
                req_id: self.request(),
                object: self.object(),
                o_ts: self.o_ts(),
                kind: self.kind(),
                new_replicas: self.replicas(),
                old_replicas: self.replicas(),
                epoch: self.epoch(),
                ack_to_driver: self.flag(),
                requester_has_replica: self.flag(),
            },
            OwnershipMsg::Ack {
                req_id: self.request(),
                object: self.object(),
                o_ts: self.o_ts(),
                epoch: self.epoch(),
                data: self.data(),
                from: self.node(),
                arbiters: self.nodes().into_iter().collect(),
                new_replicas: self.replicas(),
                first_touch: self.flag(),
            },
            OwnershipMsg::Val {
                req_id: self.request(),
                object: self.object(),
                o_ts: self.o_ts(),
                epoch: self.epoch(),
            },
            OwnershipMsg::Nack {
                req_id: self.request(),
                object: self.object(),
                reason: self.reason(),
                epoch: self.epoch(),
                from: self.node(),
            },
            OwnershipMsg::Resp {
                req_id: self.request(),
                object: self.object(),
                o_ts: self.o_ts(),
                epoch: self.epoch(),
                data: self.data(),
                new_replicas: self.replicas(),
                first_touch: self.flag(),
            },
        ]
    }

    fn commit(&mut self) -> Vec<CommitMsg> {
        vec![
            CommitMsg::RInv {
                tx_id: self.tx(),
                epoch: self.epoch(),
                followers: self.nodes(),
                prev_val: self.flag(),
                updates: self.updates(),
            },
            CommitMsg::RAck {
                tx_id: self.tx(),
                from: self.node(),
                epoch: self.epoch(),
            },
            CommitMsg::RVal {
                tx_id: self.tx(),
                epoch: self.epoch(),
            },
        ]
    }

    fn membership(&mut self) -> Vec<MembershipMsg> {
        vec![
            MembershipMsg::Heartbeat {
                from: self.node(),
                epoch: self.epoch(),
            },
            MembershipMsg::ViewChange {
                epoch: self.epoch(),
                live: self.nodes(),
                admitted: self.epochs(),
            },
            MembershipMsg::RecoveryDone {
                from: self.node(),
                epoch: self.epoch(),
                seen: self.nodes(),
            },
            MembershipMsg::ViewPull { from: self.node() },
        ]
    }

    fn view(&mut self) -> Vec<ViewMsg> {
        vec![
            ViewMsg::Propose {
                epoch: self.epoch(),
                base: self.epoch(),
                live: self.nodes(),
                admitted: self.epochs(),
                from: self.node(),
            },
            ViewMsg::Grant {
                epoch: self.epoch(),
                from: self.node(),
            },
            ViewMsg::Reject {
                epoch: self.epoch(),
                committed: self.epoch(),
                from: self.node(),
            },
            ViewMsg::DirPull { from: self.node() },
            ViewMsg::DirPush {
                from: self.node(),
                epoch: self.epoch(),
                entries: (0..self.len(4))
                    .map(|_| (self.object(), self.o_ts(), self.replicas()))
                    .collect(),
            },
        ]
    }
}

fn check<T: Wire + PartialEq + std::fmt::Debug>(msg: &T) -> Result<(), TestCaseError> {
    let encoded = encode_to_vec(msg);
    prop_assert_eq!(msg.encoded_len(), encoded.len());
    let decoded: T = decode_from_slice(&encoded).map_err(|e| format!("{e:?} decoding {msg:?}"))?;
    prop_assert!(&decoded == msg, "{decoded:?} decoded from {msg:?}");
    Ok(())
}

proptest! {
    #[test]
    fn every_message_variant_roundtrips_at_its_computed_length(
        words in proptest::collection::vec(any::<u64>(), 48..49),
    ) {
        let mut fields = Fields { words, next: 0 };
        let ownership = fields.ownership();
        prop_assert_eq!(ownership.len(), 6);
        for msg in &ownership {
            check(msg)?;
        }
        let commit = fields.commit();
        prop_assert_eq!(commit.len(), 3);
        for msg in &commit {
            check(msg)?;
        }
        let membership = fields.membership();
        prop_assert_eq!(membership.len(), 4);
        for msg in &membership {
            check(msg)?;
        }
        let view = fields.view();
        prop_assert_eq!(view.len(), 5);
        for msg in &view {
            check(msg)?;
        }
    }
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
        .collect()
}

/// `value` must encode to exactly `hex`, report that length, and decode back.
fn assert_golden<T: Wire + PartialEq + std::fmt::Debug>(value: &T, hex: &str) {
    let golden = unhex(hex);
    assert_eq!(encode_to_vec(value), golden, "encoding of {value:?}");
    assert_eq!(value.encoded_len(), golden.len(), "length of {value:?}");
    assert_eq!(&decode_from_slice::<T>(&golden).expect("decodes"), value);
}

/// The fixtures were printed by the parent of the commit that introduced
/// `NodeSet`, from the same values built with `Vec<NodeId>` fields: a node
/// set must stay on the wire what the vector was.
#[test]
fn node_sets_encode_byte_for_byte_what_the_vectors_did() {
    let req_id = RequestId::new(NodeId(1), 9);
    let object = ObjectId(1_234);
    let o_ts = OwnershipTs::new(8, NodeId(2));
    let epoch = Epoch(3);
    let replicas = ReplicaSet::new(NodeId(1), [NodeId(0), NodeId(2)]);
    let old = ReplicaSet::new(NodeId(4), [NodeId(1), NodeId(2)]);
    let data = Some((DataTs::new(3, o_ts), Bytes::from(vec![7u8; 5])));

    assert_golden(&replicas, "0101000200000000000200");
    // Nine readers: past the inline capacity, and ownerless.
    let mut spilled = ReplicaSet::new(NodeId(0), (1..=9).map(NodeId));
    spilled.remove_node(NodeId(0));
    assert_golden(&spilled, "0009000000010002000300040005000600070008000900");
    assert_golden(
        &OwnershipMsg::Inv {
            req_id,
            object,
            o_ts,
            kind: OwnershipRequestKind::AcquireOwner,
            new_replicas: replicas.clone(),
            old_replicas: old.clone(),
            epoch,
            ack_to_driver: false,
            requester_has_replica: true,
        },
        "0101000900000000000000d204000000000000080000000000000002000001010002000000000002000104\
         00020000000100020003000000000000000001",
    );
    assert_golden(
        &OwnershipMsg::Ack {
            req_id,
            object,
            o_ts,
            epoch,
            data: data.clone(),
            from: NodeId(4),
            arbiters: [0, 1, 2, 4].into_iter().map(NodeId).collect(),
            new_replicas: replicas.clone(),
            first_touch: false,
        },
        "0201000900000000000000d2040000000000000800000000000000020003000000000000000103000000000\
         00000080000000000000002000500000007070707070400040000000000010002000400010100020000000000\
         020000",
    );
    assert_golden(
        &OwnershipMsg::Resp {
            req_id,
            object,
            o_ts,
            epoch,
            data,
            new_replicas: replicas.clone(),
            first_touch: true,
        },
        "0501000900000000000000d2040000000000000800000000000000020003000000000000000103000000000\
         0000008000000000000000200050000000707070707010100020000000000020001",
    );
    assert_golden(
        &ViewMsg::DirPush {
            from: NodeId(0),
            epoch,
            entries: vec![
                (object, o_ts, replicas),
                (ObjectId(9), OwnershipTs::new(2, NodeId(0)), old),
            ],
        },
        "040000030000000000000002000000d20400000000000008000000000000000200010100020000000000020\
         00900000000000000020000000000000000000104000200000001000200",
    );
}

/// One fixture per message variant, per `NackReason`, per
/// `OwnershipRequestKind` and per composite id, printed by the hand-written
/// codec that preceded the field-list macros. Two fields of one type carry
/// different values, so a layout that swaps them changes the bytes.
#[test]
fn every_variant_encodes_to_its_pinned_bytes() {
    let tx_id = TxId::new(PipelineId::new(NodeId(1), 2), 3);
    let req_id = RequestId::new(NodeId(4), 5);
    let object = ObjectId(6);
    let o_ts = OwnershipTs::new(7, NodeId(8));
    let d_ts = DataTs::new(9, OwnershipTs::new(10, NodeId(11)));
    let new_replicas = ReplicaSet::new(NodeId(12), [NodeId(13)]);
    let old_replicas = ReplicaSet {
        owner: None,
        readers: [NodeId(14), NodeId(15)].into_iter().collect(),
    };

    assert_golden(&PipelineId::new(NodeId(1), 2), "01000200");
    assert_golden(&tx_id, "010002000300000000000000");
    assert_golden(&req_id, "04000500000000000000");
    assert_golden(&o_ts, "07000000000000000800");
    assert_golden(&d_ts, "09000000000000000a000000000000000b00");
    assert_golden(
        &ObjectUpdate::new(object, d_ts, vec![0xab; 3]),
        "060000000000000009000000000000000a000000000000000b0003000000ababab",
    );

    assert_golden(&OwnershipRequestKind::AcquireOwner, "00");
    assert_golden(&OwnershipRequestKind::AcquireReader, "01");
    assert_golden(
        &OwnershipRequestKind::RemoveReader { reader: NodeId(16) },
        "021000",
    );

    assert_golden(&NackReason::LostArbitration, "00");
    assert_golden(&NackReason::PendingCommit, "01");
    assert_golden(&NackReason::StaleEpoch, "02");
    assert_golden(&NackReason::NotDirectory, "03");
    assert_golden(&NackReason::UnknownObject, "04");
    assert_golden(&NackReason::Recovering, "05");
    assert_golden(&NackReason::DataLoss, "06");

    assert_golden(
        &OwnershipMsg::Req {
            req_id,
            object,
            kind: OwnershipRequestKind::AcquireReader,
            epoch: Epoch(17),
            has_replica: true,
        },
        "0004000500000000000000060000000000000001110000000000000001",
    );
    assert_golden(
        &OwnershipMsg::Inv {
            req_id,
            object,
            o_ts,
            kind: OwnershipRequestKind::RemoveReader { reader: NodeId(18) },
            new_replicas: new_replicas.clone(),
            old_replicas: old_replicas.clone(),
            epoch: Epoch(19),
            ack_to_driver: true,
            requester_has_replica: false,
        },
        "0104000500000000000000060000000000000007000000000000000800021200010c00010000000d00000200\
         00000e000f0013000000000000000100",
    );
    assert_golden(
        &OwnershipMsg::Ack {
            req_id,
            object,
            o_ts,
            epoch: Epoch(20),
            data: None,
            from: NodeId(21),
            arbiters: [NodeId(22), NodeId(23)].into_iter().collect(),
            new_replicas: new_replicas.clone(),
            first_touch: true,
        },
        "0204000500000000000000060000000000000007000000000000000800140000000000000000150002000000\
         16001700010c00010000000d0001",
    );
    assert_golden(
        &OwnershipMsg::Val {
            req_id,
            object,
            o_ts,
            epoch: Epoch(24),
        },
        "03040005000000000000000600000000000000070000000000000008001800000000000000",
    );
    assert_golden(
        &OwnershipMsg::Nack {
            req_id,
            object,
            reason: NackReason::Recovering,
            epoch: Epoch(25),
            from: NodeId(26),
        },
        "040400050000000000000006000000000000000519000000000000001a00",
    );
    assert_golden(
        &OwnershipMsg::Resp {
            req_id,
            object,
            o_ts,
            epoch: Epoch(27),
            data: Some((d_ts, Bytes::from_static(b"zeus"))),
            new_replicas: old_replicas.clone(),
            first_touch: false,
        },
        "05040005000000000000000600000000000000070000000000000008001b0000000000000001090000000000\
         00000a000000000000000b00040000007a65757300020000000e000f0000",
    );

    assert_golden(
        &CommitMsg::RInv {
            tx_id,
            epoch: Epoch(28),
            followers: vec![NodeId(29), NodeId(30)],
            prev_val: true,
            updates: vec![
                ObjectUpdate::new(object, d_ts, vec![0xcd; 2]),
                ObjectUpdate::new(ObjectId(31), DataTs::ZERO, Bytes::from_static(b"")),
            ],
        },
        "000100020003000000000000001c00000000000000020000001d001e00010200000006000000000000000900\
         0000000000000a000000000000000b0002000000cdcd1f000000000000000000000000000000000000000000\
         0000000000000000",
    );
    assert_golden(
        &CommitMsg::RAck {
            tx_id,
            from: NodeId(32),
            epoch: Epoch(33),
        },
        "0101000200030000000000000020002100000000000000",
    );
    assert_golden(
        &CommitMsg::RVal {
            tx_id,
            epoch: Epoch(34),
        },
        "020100020003000000000000002200000000000000",
    );

    assert_golden(
        &MembershipMsg::Heartbeat {
            from: NodeId(35),
            epoch: Epoch(36),
        },
        "0023002400000000000000",
    );
    assert_golden(
        &MembershipMsg::ViewChange {
            epoch: Epoch(37),
            live: vec![NodeId(38), NodeId(39)],
            admitted: vec![Epoch(40), Epoch(41)],
        },
        "01250000000000000002000000260027000200000028000000000000002900000000000000",
    );
    assert_golden(&MembershipMsg::ViewPull { from: NodeId(42) }, "032a00");
    assert_golden(
        &MembershipMsg::RecoveryDone {
            from: NodeId(43),
            epoch: Epoch(44),
            seen: vec![NodeId(45)],
        },
        "022b002c00000000000000010000002d00",
    );

    assert_golden(
        &ViewMsg::Propose {
            epoch: Epoch(46),
            base: Epoch(47),
            live: vec![NodeId(48)],
            admitted: vec![Epoch(49)],
            from: NodeId(50),
        },
        "002e000000000000002f000000000000000100000030000100000031000000000000003200",
    );
    assert_golden(
        &ViewMsg::Grant {
            epoch: Epoch(51),
            from: NodeId(52),
        },
        "0133000000000000003400",
    );
    assert_golden(
        &ViewMsg::Reject {
            epoch: Epoch(53),
            committed: Epoch(54),
            from: NodeId(55),
        },
        "02350000000000000036000000000000003700",
    );
    assert_golden(&ViewMsg::DirPull { from: NodeId(56) }, "033800");
    assert_golden(
        &ViewMsg::DirPush {
            from: NodeId(57),
            epoch: Epoch(58),
            entries: vec![
                (object, o_ts, new_replicas),
                (ObjectId(59), o_ts, old_replicas),
            ],
        },
        "0439003a0000000000000002000000060000000000000007000000000000000800010c00010000000d003b00\
         0000000000000700000000000000080000020000000e000f00",
    );
}

#[test]
fn a_node_list_in_any_order_decodes_to_the_same_set() {
    let sorted = encode_to_vec(&vec![NodeId(1), NodeId(4), NodeId(7)]);
    let shuffled = encode_to_vec(&vec![NodeId(7), NodeId(1), NodeId(4), NodeId(1)]);
    let set: NodeSet = decode_from_slice(&shuffled).expect("decodes");
    assert_eq!(set, decode_from_slice(&sorted).expect("decodes"));
    assert_eq!(encode_to_vec(&set), sorted);
    // The same for a list that spills.
    let long: Vec<NodeId> = (0..40u16).rev().map(NodeId).collect();
    let set: NodeSet = decode_from_slice(&encode_to_vec(&long)).expect("decodes");
    assert_eq!(set.len(), 40);
    assert!(set.as_slice().windows(2).all(|pair| pair[0] < pair[1]));
}

proptest! {
    /// Insert / remove / retain against a `BTreeSet`: membership, length,
    /// iteration order, equality with a set built another way, and the wire
    /// form — over sequences long enough to spill past the inline capacity
    /// and shrink back below it.
    #[test]
    fn node_set_behaves_like_a_btree_set(
        ops in proptest::collection::vec((0u8..4, 0u16..24), 0..64),
    ) {
        let mut set = NodeSet::new();
        let mut model: BTreeSet<NodeId> = BTreeSet::new();
        for (op, id) in ops {
            let node = NodeId(id);
            match op {
                0 | 1 => prop_assert_eq!(set.insert(node), model.insert(node)),
                2 => prop_assert_eq!(set.remove(node), model.remove(&node)),
                _ => {
                    set.retain(|n| n.0 % 3 != id % 3);
                    model.retain(|n| n.0 % 3 != id % 3);
                }
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            prop_assert_eq!(set.contains(node), model.contains(&node));
            prop_assert!(set.iter().eq(model.iter().copied()), "{set:?} vs {model:?}");
            // A set with the same members is equal however it was built.
            let rebuilt: NodeSet = model.iter().rev().copied().collect();
            prop_assert!(set == rebuilt, "{set:?} != {rebuilt:?}");
            let listed: Vec<NodeId> = model.iter().copied().collect();
            prop_assert_eq!(encode_to_vec(&set), encode_to_vec(&listed));
            check(&set)?;
        }
    }
}
