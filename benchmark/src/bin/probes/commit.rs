//! Reliable-commit engine: a coordinator and its two followers exchanging
//! R-INV / R-ACK / R-VAL by hand, sixteen commits at a time (the pipeline
//! depth `local_write` keeps per client).

use std::time::{Duration, Instant};

use bytes::Bytes;
use zeus_benchmark::gen::OBJECT_BYTES;
use zeus_commit::{CommitAction, CommitEngine};
use zeus_proto::{CommitMsg, DataTs, NodeId, ObjectId, ObjectUpdate, OwnershipTs};

use crate::Report;

const WINDOW: u64 = 16;

/// The messages among `actions` (everything else is work for the host's
/// store, which this probe leaves out).
fn sends(actions: Vec<CommitAction>) -> impl Iterator<Item = (NodeId, CommitMsg)> {
    actions.into_iter().filter_map(|action| match action {
        CommitAction::Send { to, msg } => Some((to, msg)),
        _ => None,
    })
}

pub fn probe(report: &mut Report) {
    let coordinator = NodeId(0);
    let followers = [NodeId(1), NodeId(2)];
    let mut engines: Vec<CommitEngine> = (0..3).map(|n| CommitEngine::new(NodeId(n), 3)).collect();
    let value = Bytes::from(vec![0u8; OBJECT_BYTES]);
    let mut version = 0u64;

    report.stages(
        [
            "commit.begin_ns",
            "commit.follower_rinv_ns",
            "commit.coordinator_rack_ns",
            "commit.cycle_cpu_ns",
        ],
        |n| {
            let (mut begin, mut rinv, mut rack) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
            let cycle = Instant::now();
            for _ in 0..n.div_ceil(WINDOW) {
                // Coordinator: start a window of commits.
                let t = Instant::now();
                let mut rinvs = Vec::new();
                for slot in 0..WINDOW {
                    version += 1;
                    let update = ObjectUpdate::new(
                        ObjectId(slot),
                        DataTs::new(version, OwnershipTs::new(0, coordinator)),
                        value.clone(),
                    );
                    let (_, actions) = engines[0].begin_commit(0, vec![update], followers.to_vec());
                    rinvs.extend(sends(actions));
                }
                begin += t.elapsed();

                // Followers: apply the R-INVs (the first follower is timed).
                let mut racks = Vec::new();
                for follower in followers {
                    let t = Instant::now();
                    for (to, msg) in rinvs.iter().filter(|(to, _)| *to == follower) {
                        let actions = engines[to.index()].handle_message(coordinator, msg.clone());
                        racks.extend(sends(actions));
                    }
                    if follower == followers[0] {
                        rinv += t.elapsed();
                    }
                }

                // Coordinator: collect the R-ACKs, which releases the R-VALs.
                let t = Instant::now();
                let mut rvals = Vec::new();
                for (_, msg) in racks {
                    let CommitMsg::RAck { from, .. } = msg else {
                        unreachable!("followers answer R-INVs with R-ACKs")
                    };
                    rvals.extend(sends(engines[0].handle_message(from, msg)));
                }
                rack += t.elapsed();

                for (to, msg) in rvals {
                    engines[to.index()].handle_message(coordinator, msg);
                }
            }
            assert_eq!(
                engines[0].outstanding_commits(),
                0,
                "every commit completed"
            );
            // Two followers acknowledge every commit.
            [begin, rinv, rack / 2, cycle.elapsed()]
        },
    );
}
