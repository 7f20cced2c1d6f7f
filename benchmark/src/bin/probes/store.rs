//! Object store, reached the way the node reaches it (`ZeusNode::store()`),
//! at the size the threaded workloads load.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use zeus_benchmark::gen::{OBJECTS, OBJECT_BYTES};
use zeus_core::{NodeId, ObjectId, ZeusConfig, ZeusNode};
use zeus_proto::{AccessLevel, ReplicaSet};
use zeus_store::ObjectEntry;

use crate::Report;

pub fn probe(report: &mut Report) {
    let replicas = ReplicaSet::new(NodeId(0), [NodeId(1), NodeId(2)]);
    let value = Bytes::from(vec![0u8; OBJECT_BYTES]);
    let mut node = ZeusNode::new(NodeId(0), ZeusConfig::with_nodes(3));
    for object in 0..OBJECTS {
        node.create_object(ObjectId(object), value.clone(), replicas.clone());
    }
    let store = node.store();
    // Stride through the key space so consecutive operations miss the cache
    // like uniformly drawn keys do.
    let mut cursor = 0u64;
    let mut next = || {
        cursor = (cursor + 7_919) % OBJECTS;
        ObjectId(cursor)
    };
    report.op("store.get_ns", || {
        black_box(store.get(next()));
    });
    report.op("store.update_ns", || {
        store.with_mut(next(), |entry| entry.apply_local_write(value.clone()));
    });
    report.stages(["store.insert_ns"], |n| {
        let start = Instant::now();
        for fresh in OBJECTS..OBJECTS + n {
            let entry = ObjectEntry::new(value.clone(), AccessLevel::Owner, replicas.clone());
            store.insert(ObjectId(fresh), entry);
        }
        let elapsed = start.elapsed();
        // Untimed: take them out again so every batch inserts fresh keys.
        for fresh in OBJECTS..OBJECTS + n {
            store.remove(ObjectId(fresh));
        }
        [elapsed]
    });
}
