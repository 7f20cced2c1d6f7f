//! Wire codec: encode and decode of the messages a replicated write and a
//! handover put on the wire.

use std::hint::black_box;

use bytes::Bytes;
use zeus_benchmark::gen::OBJECT_BYTES;
use zeus_proto::wire::{decode_from_slice, encode_to_vec, Wire};
use zeus_proto::{
    CommitMsg, DataTs, Epoch, NodeId, ObjectId, ObjectUpdate, OwnershipMsg, OwnershipRequestKind,
    OwnershipTs, PipelineId, RequestId, TxId,
};

use crate::Report;

/// The R-INV of a one-object write with two followers, as `local_write`
/// produces it.
pub fn rinv(slot: u64) -> CommitMsg {
    CommitMsg::RInv {
        tx_id: TxId::new(PipelineId::new(NodeId(0), 0), slot),
        epoch: Epoch::ZERO,
        followers: vec![NodeId(1), NodeId(2)],
        prev_val: true,
        updates: vec![ObjectUpdate::new(
            ObjectId(slot),
            DataTs::new(slot + 1, OwnershipTs::new(0, NodeId(0))),
            Bytes::from(vec![7u8; OBJECT_BYTES]),
        )],
    }
}

pub fn probe(report: &mut Report) {
    let rinv = rinv(1);
    let rack = CommitMsg::RAck {
        tx_id: TxId::new(PipelineId::new(NodeId(0), 0), 1),
        from: NodeId(1),
        epoch: Epoch::ZERO,
    };
    let req = OwnershipMsg::Req {
        req_id: RequestId::new(NodeId(2), 9),
        object: ObjectId(77),
        kind: OwnershipRequestKind::AcquireOwner,
        epoch: Epoch::ZERO,
        has_replica: true,
    };
    let mut buf = Vec::with_capacity(512);
    let mut encode = |report: &mut Report, name, msg: &dyn Fn(&mut Vec<u8>)| {
        report.op(name, || {
            buf.clear();
            msg(&mut buf);
            black_box(&buf);
        })
    };
    encode(report, "proto.encode_rinv_ns", &|b| rinv.encode(b));
    encode(report, "proto.encode_rack_ns", &|b| rack.encode(b));
    encode(report, "proto.encode_own_req_ns", &|b| req.encode(b));

    let rinv_bytes = encode_to_vec(&rinv);
    let req_bytes = encode_to_vec(&req);
    report.exact("proto.rinv_wire_bytes", rinv_bytes.len() as f64);
    report.op("proto.decode_rinv_ns", || {
        black_box(decode_from_slice::<CommitMsg>(black_box(&rinv_bytes)).expect("round trip"));
    });
    report.op("proto.decode_own_req_ns", || {
        black_box(decode_from_slice::<OwnershipMsg>(black_box(&req_bytes)).expect("round trip"));
    });
}
