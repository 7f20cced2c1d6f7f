//! Property tests of the wire codec over every variant of every message
//! enum: the size a message reports is the size its encoding has
//! (`encoded_len` is computed from the message's shape, and the runtimes
//! account traffic with it), and decoding an encoding gives the message back.

use bytes::Bytes;
use proptest::prelude::*;
use zeus_proto::messages::NackReason;
use zeus_proto::wire::{decode_from_slice, encode_to_vec, Wire};
use zeus_proto::{
    CommitMsg, DataTs, Epoch, MembershipMsg, NodeId, ObjectId, ObjectUpdate, OwnershipMsg,
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
            readers: self.nodes(),
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
                arbiters: self.nodes(),
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
