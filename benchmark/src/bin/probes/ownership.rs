//! Ownership engine: three directory nodes handing objects to one another by
//! hand. The host answers "yes, I store a copy" for every object, so each
//! move is the reader→owner handover of the threaded workloads, with no
//! store or commit engine behind it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use bytes::Bytes;
use zeus_ownership::{OwnershipAction, OwnershipEngine, OwnershipHost};
use zeus_proto::{DataTs, NodeId, ObjectId, OwnershipMsg, OwnershipRequestKind, ReplicaSet};

use crate::Report;

const NODES: u16 = 3;
const OBJECTS: u64 = 1_024;

struct EveryObject(Bytes);

impl OwnershipHost for EveryObject {
    fn object_value(&self, _object: ObjectId) -> Option<(DataTs, Bytes)> {
        Some((DataTs::ZERO, self.0.clone()))
    }
    fn has_pending_commits(&self, _object: ObjectId) -> bool {
        false
    }
}

pub fn probe(report: &mut Report) {
    let host = EveryObject(Bytes::from(vec![0u8; 16]));
    let directory: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let mut engines: Vec<OwnershipEngine> = (0..NODES)
        .map(|n| OwnershipEngine::new(NodeId(n), directory.clone(), NODES as usize))
        .collect();
    let mut owner: Vec<u16> = (0..OBJECTS).map(|o| (o % NODES as u64) as u16).collect();
    for object in 0..OBJECTS {
        let home = NodeId(owner[object as usize]);
        let replicas = ReplicaSet::new(home, directory.iter().copied());
        for engine in &mut engines {
            engine.register_object(ObjectId(object), replicas.clone());
        }
    }

    let mut cursor = 0u64;
    report.stages(
        [
            "ownership.request_ns",
            "ownership.directory_arbitrate_ns",
            "ownership.handover_cpu_ns",
        ],
        |n| {
            let (mut request, mut arbitrate) = (Duration::ZERO, Duration::ZERO);
            let handover = Instant::now();
            for _ in 0..n {
                cursor = (cursor + 1) % OBJECTS;
                let object = ObjectId(cursor);
                let requester = NodeId((owner[cursor as usize] + 1) % NODES);
                owner[cursor as usize] = requester.0;

                let t = Instant::now();
                let (_, actions) = engines[requester.index()].request_access(
                    object,
                    OwnershipRequestKind::AcquireOwner,
                    &host,
                );
                request += t.elapsed();

                // Shuttle messages until the move has been validated
                // everywhere. A directory node drives its own request, so
                // the REQ is a self-send the runtime loops back.
                let mut completed = false;
                let mut queue: VecDeque<(NodeId, NodeId, OwnershipMsg)> = VecDeque::new();
                let mut absorb = |from: NodeId,
                                  actions: Vec<OwnershipAction>,
                                  queue: &mut VecDeque<_>| {
                    for action in actions {
                        match action {
                            OwnershipAction::Send { to, msg } => queue.push_back((from, to, msg)),
                            OwnershipAction::Completed { .. } => completed = true,
                            OwnershipAction::Failed { reason, .. }
                            | OwnershipAction::RetryLater { reason, .. } => {
                                panic!("uncontended handover rejected: {reason:?}")
                            }
                            // Store updates the host would apply.
                            OwnershipAction::DemoteSelf { .. }
                            | OwnershipAction::ApplyReplicaChange { .. } => {}
                        }
                    }
                };
                absorb(requester, actions, &mut queue);
                while let Some((from, to, msg)) = queue.pop_front() {
                    let is_req = matches!(msg, OwnershipMsg::Req { .. });
                    let t = Instant::now();
                    let actions = engines[to.index()].handle_message(from, msg, &host);
                    if is_req {
                        arbitrate += t.elapsed();
                    }
                    absorb(to, actions, &mut queue);
                }
                assert!(
                    completed,
                    "handover of {object:?} to {requester:?} did not complete"
                );
            }
            let total = handover.elapsed();
            for engine in &mut engines {
                // Untimed: what the node's anti-entropy tick would drain.
                engine.drain_dirty_digest();
            }
            [request, arbitrate, total]
        },
    );
}
