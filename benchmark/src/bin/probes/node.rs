//! `ZeusNode` driven by hand: single-node command costs, the periodic tick
//! with and without a backlog of commits, and three nodes shuttling
//! `drain_outbox` — the total CPU one replicated write or one ownership
//! move costs with every layer in it and no thread or queue in between.

use std::time::{Duration, Instant};

use bytes::Bytes;
use zeus_benchmark::gen::OBJECT_BYTES;
use zeus_core::node::RequestState;
use zeus_core::{Message, NodeId, ObjectId, ReadOutcome, WriteOutcome, ZeusConfig, ZeusNode};
use zeus_locality::{AccessKind, LocalityEngine};
use zeus_proto::{AccessLevel, CommitMsg, MembershipMsg, PolicyKind, ReplicaSet, TxId};

use crate::net::WirePath;
use crate::Report;

const NODES: u16 = 3;
/// A multiple of `NODES`, so stepping by `NODES` stays on one owner.
const OBJECTS: u64 = 4_095;
/// Commands a node loop executes back to back before it flushes.
const WINDOW: u64 = 16;

/// `NODES` nodes, every object replicated on all of them, object `o` owned
/// by node `o % NODES`.
fn cluster() -> Vec<ZeusNode> {
    let value = Bytes::from(vec![0u8; OBJECT_BYTES]);
    let mut nodes: Vec<ZeusNode> = (0..NODES)
        .map(|n| ZeusNode::new(NodeId(n), ZeusConfig::with_nodes(NODES as usize)))
        .collect();
    for object in 0..OBJECTS {
        let owner = NodeId((object % NODES as u64) as u16);
        let replicas = ReplicaSet::new(owner, (0..NODES).map(NodeId));
        for node in &mut nodes {
            node.create_object(ObjectId(object), value.clone(), replicas.clone());
        }
    }
    nodes
}

fn bump(old: &[u8]) -> Vec<u8> {
    let mut new = old.to_vec();
    new[0] = new[0].wrapping_add(1);
    new
}

/// One write of `object` at `node`; `Err` carries pending ownership requests.
fn write(node: &mut ZeusNode, object: u64) -> Result<TxId, Vec<zeus_proto::RequestId>> {
    match node.execute_write(0, |tx| tx.update(ObjectId(object), bump)) {
        WriteOutcome::Committed { tx_id, .. } => Ok(tx_id),
        WriteOutcome::OwnershipPending { requests } => Err(requests),
        WriteOutcome::Aborted { error } => panic!("write of object {object} aborted: {error:?}"),
    }
}

/// Delivers every queued message, through `carry`, until all outboxes are
/// empty; adds the time node 1 spends handling R-INVs to `rinv`.
fn pump(
    nodes: &mut [ZeusNode],
    mut carry: impl FnMut(NodeId, NodeId, Message) -> Vec<(NodeId, Message)>,
    rinv: &mut Duration,
) {
    loop {
        let mut moved = false;
        for i in 0..nodes.len() {
            let from = NodeId(i as u16);
            for (to, msg) in nodes[i].drain_outbox() {
                moved = true;
                for (sender, msg) in carry(from, to, msg) {
                    let timed =
                        to == NodeId(1) && matches!(msg, Message::Commit(CommitMsg::RInv { .. }));
                    let start = timed.then(Instant::now);
                    nodes[to.index()].handle_message(sender, msg);
                    if let Some(start) = start {
                        *rinv += start.elapsed();
                    }
                }
            }
        }
        if !moved {
            return;
        }
    }
}

fn direct(from: NodeId, _to: NodeId, msg: Message) -> Vec<(NodeId, Message)> {
    vec![(from, msg)]
}

/// `n` writes at node 0 in windows of `WINDOW`, each window replicated to
/// quiescence through `carry`. Returns (R-INV handling at node 1, total).
fn trio_writes(
    nodes: &mut [ZeusNode],
    n: u64,
    mut carry: impl FnMut(NodeId, NodeId, Message) -> Vec<(NodeId, Message)>,
) -> [Duration; 2] {
    let mut rinv = Duration::ZERO;
    let start = Instant::now();
    for window in 0..n.div_ceil(WINDOW) {
        for slot in 0..WINDOW {
            // Objects owned by node 0.
            let object = (window * WINDOW + slot) * NODES as u64 % OBJECTS;
            write(&mut nodes[0], object).expect("node 0 owns the object");
        }
        pump(nodes, &mut carry, &mut rinv);
    }
    [rinv, start.elapsed()]
}

pub fn probe(report: &mut Report) {
    // --- one node, commands only -------------------------------------
    let mut nodes = cluster();
    let node = &mut nodes[0];
    let mut cursor = 0u64;
    report.stages(["core.node_write_ns"], |n| {
        let mut timed = Duration::ZERO;
        for _ in 0..n.div_ceil(WINDOW) {
            let start = Instant::now();
            let txs: Vec<TxId> = (0..WINDOW)
                .map(|_| {
                    cursor = (cursor + NODES as u64) % OBJECTS;
                    write(node, cursor).expect("node 0 owns the object")
                })
                .collect();
            timed += start.elapsed();
            // Untimed: acknowledge for both followers so nothing piles up.
            node.drain_outbox();
            for tx_id in txs {
                for from in [NodeId(1), NodeId(2)] {
                    let epoch = node.epoch();
                    node.handle_message(
                        from,
                        Message::Commit(CommitMsg::RAck { tx_id, from, epoch }),
                    );
                }
            }
            node.drain_outbox();
        }
        assert_eq!(node.outstanding_commits(), 0);
        [timed]
    });
    report.op("core.node_read_ns", || {
        cursor = (cursor + 1) % OBJECTS;
        let object = ObjectId(cursor);
        match node.execute_read(|tx| tx.read(object)) {
            ReadOutcome::Committed { value } => std::hint::black_box(value),
            ReadOutcome::Aborted { error } => panic!("read of {object:?} aborted: {error:?}"),
        };
    });

    // --- the periodic tick, idle and with a backlog to rescan ----------
    // Every tick crosses the retransmission interval, so every tick scans
    // (and re-sends) whatever is outstanding. Heartbeats from the peers keep
    // the node from fencing itself as its clock runs ahead.
    node.set_retransmit_interval(1);
    let mut now = 0u64;
    let mut tick = |node: &mut ZeusNode| {
        now += 1;
        if now.is_multiple_of(10_000) {
            for from in [NodeId(1), NodeId(2)] {
                let epoch = node.epoch();
                node.handle_message(
                    from,
                    Message::Membership(MembershipMsg::Heartbeat { from, epoch }),
                );
            }
        }
        node.tick(now);
        std::hint::black_box(node.drain_outbox());
    };
    report.op("core.node_tick_ns_0", || tick(node));
    for object in (0..1_024 * NODES as u64).step_by(NODES as usize) {
        write(node, object % OBJECTS).expect("node 0 owns the object");
    }
    assert_eq!(node.outstanding_commits(), 1_024);
    report.op("core.node_tick_ns_1024", || tick(node));

    // --- three nodes, every layer, no threads ---------------------------
    let mut nodes = cluster();
    report.stages(
        ["core.node_handle_rinv_ns", "core.node_trio_write_cpu_ns"],
        |n| trio_writes(&mut nodes, n, direct),
    );

    let mut wire = WirePath::new(NODES);
    report.stages(["core.node_trio_wire_write_cpu_ns"], |n| {
        let [_, total] = trio_writes(&mut nodes, n, |from, to, msg| wire.carry(from, to, msg));
        [total]
    });

    let mut owner: Vec<u16> = (0..OBJECTS).map(|o| (o % NODES as u64) as u16).collect();
    report.stages(["core.node_trio_handover_cpu_ns"], |n| {
        let mut unused = Duration::ZERO;
        let start = Instant::now();
        for _ in 0..n {
            cursor = (cursor + 1) % OBJECTS;
            let mover = (owner[cursor as usize] + 1) % NODES;
            owner[cursor as usize] = mover;
            let requests = write(&mut nodes[mover as usize], cursor)
                .expect_err("the object is owned elsewhere");
            pump(&mut nodes, direct, &mut unused);
            for request in requests {
                let state = nodes[mover as usize].request_state(request);
                assert_eq!(
                    state,
                    RequestState::Completed,
                    "handover of object {cursor}"
                );
            }
            write(&mut nodes[mover as usize], cursor).expect("ownership just arrived");
            pump(&mut nodes, direct, &mut unused);
        }
        [start.elapsed()]
    });

    // --- locality engine (only on the command path under the predictive
    // policy; the default reactive policy builds no engine) -------------
    let mut engine = LocalityEngine::new(PolicyKind::Predictive, 10_000, 8, 42);
    report.op("locality.record_ns", || {
        cursor = (cursor + 1) % OBJECTS;
        engine.record(
            ObjectId(cursor),
            AccessKind::Write,
            AccessLevel::Owner,
            true,
        );
    });
    let mut now = 0u64;
    report.stages(["locality.tick_ns"], |n| {
        // One planning round over a full tracker; refilling it between
        // rounds (idle entries decay and are evicted) is not timed.
        let mut timed = Duration::ZERO;
        for _ in 0..n {
            for object in 0..OBJECTS {
                engine.record(
                    ObjectId(object),
                    AccessKind::Write,
                    AccessLevel::Owner,
                    true,
                );
            }
            now += 10_000;
            let start = Instant::now();
            std::hint::black_box(engine.tick(now, |_| true));
            timed += start.elapsed();
        }
        [timed]
    });
}
