//! The allocation budgets of the replicated-write path and of a handover.
//!
//! Three `ZeusNode`s driven by hand — node 0 executes windows of 16 writes,
//! the test shuttles `drain_outbox` between the nodes until nothing is left
//! (the shape of the benchmark's `core.node_trio_write_cpu_ns` probe) — under
//! a counting global allocator. One replicated write, everything included
//! (the transaction closure's own copy of the value, the commit on the
//! coordinator, both followers, the outboxes), must stay within budget, and
//! asking a message for its size must not allocate at all.
//!
//! Then the same trio moves objects: a reader writes an object another node
//! owns, the ownership protocol runs (REQ, two INVs, three ACKs, two VALs —
//! the shape of `core.node_trio_handover_cpu_ns`), and the write runs again
//! and replicates. The protocol and the first write after the grant each
//! have a budget; cloning a placement and a tick with nothing due must not
//! allocate at all.
//!
//! Then a session on a one-node simulator runs reads that return a
//! `(u64, i64)` and writes that return `()`. A result reaches its ticket as
//! the boxed value it is, so a read has a budget of 4 (encoding the pair to
//! bytes and back cost it 6) and a write one of 3.
//!
//! Last of all, the simulated network on its own: once its in-flight queue
//! has reached its size, sending and delivering at a fixed delay must not
//! allocate at all — emptied delivery-time buckets are reused.
//!
//! And a follower that sees every third slot of a pipeline, whose cleared
//! prefix therefore never moves: recording the slots it cleared above the
//! prefix may only grow a bitmap, a handful of allocations over 100,000
//! slots.
//!
//! The per-stage splits are printed so a regression can be attributed:
//!
//! ```text
//! cargo test --release -p zeus-core --test alloc_budget -- --nocapture
//! ```
//!
//! Everything is in one `#[test]` and counted per thread, so the harness and
//! other tests cannot leak into the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use zeus_core::node::RequestState;
use zeus_core::{
    ClusterDriver, Message, NodeId, ObjectId, Session, SimCluster, WriteOutcome, ZeusConfig,
    ZeusNode,
};
use zeus_net::{Envelope, NetConfig, SimNetwork};
use zeus_proto::messages::NackReason;
use zeus_proto::{
    CommitMsg, DataTs, Epoch, MembershipMsg, ObjectUpdate, OwnershipMsg, OwnershipRequestKind,
    OwnershipTs, PipelineId, ReplicaSet, RequestId, TxId, ViewMsg,
};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs while a thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it neither allocates
// nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const NODES: u16 = 3;
/// A multiple of `NODES`, so stepping by `NODES` stays on one owner.
const OBJECTS: u64 = 4_095;
const VALUE_BYTES: usize = 128;
/// Writes a node loop executes back to back before it flushes.
const WINDOW: u64 = 16;

/// `NODES` nodes, every object replicated on all of them, object `o` owned
/// by node `o % NODES`.
fn cluster() -> Vec<ZeusNode> {
    let value = Bytes::from(vec![0u8; VALUE_BYTES]);
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

/// Allocations per stage of a replicated write.
#[derive(Debug, Default, Clone, Copy)]
struct Stages {
    execute: u64,
    rinv: u64,
    rack: u64,
    rval: u64,
}

impl Stages {
    fn total(&self) -> u64 {
        self.execute + self.rinv + self.rack + self.rval
    }
}

/// Everything `from` has queued, delivered; returns the allocations it took
/// (the senders' outboxes were grown by whoever pushed to them, earlier).
fn deliver(nodes: &mut [ZeusNode], from: &[usize]) -> u64 {
    let before = allocations();
    for &sender in from {
        for (to, msg) in nodes[sender].drain_outbox() {
            nodes[to.index()].handle_message(NodeId(sender as u16), msg);
        }
    }
    allocations() - before
}

/// `windows` windows of `WINDOW` transactions at node 0, each writing
/// `objects_per_tx` objects it owns, each window replicated to quiescence.
fn run(nodes: &mut [ZeusNode], cursor: &mut u64, windows: u64, objects_per_tx: u64) -> Stages {
    let mut stages = Stages::default();
    for _ in 0..windows {
        let before = allocations();
        for _ in 0..WINDOW {
            let first = *cursor;
            *cursor = (*cursor + objects_per_tx * NODES as u64) % OBJECTS;
            let outcome = nodes[0].execute_write(0, |tx| {
                for i in 0..objects_per_tx {
                    tx.update(ObjectId((first + i * NODES as u64) % OBJECTS), bump)?;
                }
                Ok(())
            });
            assert!(
                matches!(outcome, WriteOutcome::Committed { .. }),
                "node 0 owns what it writes"
            );
        }
        stages.execute += allocations() - before;
        stages.rinv += deliver(nodes, &[0]);
        stages.rack += deliver(nodes, &[1, 2]);
        stages.rval += deliver(nodes, &[0]);
        assert_eq!(nodes[0].outstanding_commits(), 0, "the window settled");
        assert_eq!(deliver(nodes, &[0, 1, 2]), 0, "and left nothing queued");
    }
    stages
}

/// Allocations per stage of a reader→owner move and the write it was for.
#[derive(Debug, Default, Clone, Copy)]
struct MoveStages {
    /// The write that finds the object owned elsewhere and issues the REQ.
    issue: u64,
    /// Handling the REQ, the INVs, the ACKs and the VALs.
    handling: [u64; 4],
    /// The write run again once ownership arrived, and its replication.
    first_write: u64,
    /// The same write once more, the same way: what a write of the new
    /// owner costs when it is the only one of its window.
    next_write: u64,
}

impl MoveStages {
    fn protocol(&self) -> u64 {
        self.issue + self.handling.iter().sum::<u64>()
    }
}

/// Delivers every queued message and whatever those set off, charging each
/// `handle_message` to the stage of the ownership message handled, or to
/// `write` for the messages of a commit.
fn pump(nodes: &mut [ZeusNode], handling: &mut [u64; 4], write: &mut u64) {
    loop {
        let mut moved = false;
        for sender in 0..nodes.len() {
            for (to, msg) in nodes[sender].drain_outbox() {
                moved = true;
                let stage = match msg.kind() {
                    "o-req" => &mut handling[0],
                    "o-inv" => &mut handling[1],
                    "o-ack" => &mut handling[2],
                    "o-val" => &mut handling[3],
                    "r-inv" | "r-ack" | "r-val" => &mut *write,
                    other => panic!("an uncontended move sends no {other}"),
                };
                let before = allocations();
                nodes[to.index()].handle_message(NodeId(sender as u16), msg);
                *stage += allocations() - before;
            }
        }
        if !moved {
            return;
        }
    }
}

/// One write of `object` at `node`, replicated to quiescence; returns the
/// allocations of all of it.
fn lone_write(nodes: &mut [ZeusNode], node: usize, object: ObjectId) -> u64 {
    let before = allocations();
    let outcome = nodes[node].execute_write(0, |tx| tx.update(object, bump));
    let mut allocated = allocations() - before;
    assert!(matches!(outcome, WriteOutcome::Committed { .. }));
    pump(nodes, &mut [0; 4], &mut allocated);
    assert_eq!(nodes[node].outstanding_commits(), 0, "the write settled");
    allocated
}

/// `moves` times: the next object is written at the node after its owner —
/// a reader of it — which takes the object over and then commits.
fn run_moves(
    nodes: &mut [ZeusNode],
    owner: &mut [u16],
    cursor: &mut u64,
    moves: u64,
) -> MoveStages {
    let mut stages = MoveStages::default();
    for _ in 0..moves {
        *cursor = (*cursor + 1) % OBJECTS;
        let object = ObjectId(*cursor);
        let requester = (owner[*cursor as usize] + 1) % NODES;
        owner[*cursor as usize] = requester;
        let node = requester as usize;

        let before = allocations();
        let outcome = nodes[node].execute_write(0, |tx| tx.update(object, bump));
        stages.issue += allocations() - before;
        let WriteOutcome::OwnershipPending { requests } = outcome else {
            panic!("{object:?} is owned elsewhere");
        };
        let mut commit = 0;
        pump(nodes, &mut stages.handling, &mut commit);
        assert_eq!(commit, 0, "nothing commits before the grant");
        for request in requests {
            assert_eq!(nodes[node].request_state(request), RequestState::Completed);
            nodes[node].release_request(request);
        }
        assert_eq!(nodes[node].tracked_requests(), 0);

        stages.first_write += lone_write(nodes, node, object);
        stages.next_write += lone_write(nodes, node, object);
    }
    stages
}

/// One message of every kind the nodes exchange, with realistic contents.
fn one_of_each_kind() -> Vec<Message> {
    let req_id = RequestId::new(NodeId(1), 9);
    let object = ObjectId(1_234);
    let o_ts = OwnershipTs::new(8, NodeId(2));
    let epoch = Epoch(3);
    let replicas = ReplicaSet::new(NodeId(1), [NodeId(0), NodeId(2)]);
    let data = Some((DataTs::new(3, o_ts), Bytes::from(vec![7u8; VALUE_BYTES])));
    let tx_id = TxId::new(PipelineId::new(NodeId(0), 0), 77);
    let kind = OwnershipRequestKind::RemoveReader { reader: NodeId(2) };
    vec![
        OwnershipMsg::Req {
            req_id,
            object,
            kind: OwnershipRequestKind::AcquireOwner,
            epoch,
            has_replica: true,
        }
        .into(),
        OwnershipMsg::Inv {
            req_id,
            object,
            o_ts,
            kind,
            new_replicas: replicas.clone(),
            old_replicas: replicas.clone(),
            epoch,
            ack_to_driver: false,
            requester_has_replica: true,
        }
        .into(),
        OwnershipMsg::Ack {
            req_id,
            object,
            o_ts,
            epoch,
            data: data.clone(),
            from: NodeId(2),
            arbiters: (0..3).map(NodeId).collect(),
            new_replicas: replicas.clone(),
            first_touch: false,
        }
        .into(),
        OwnershipMsg::Val {
            req_id,
            object,
            o_ts,
            epoch,
        }
        .into(),
        OwnershipMsg::Nack {
            req_id,
            object,
            reason: NackReason::PendingCommit,
            epoch,
            from: NodeId(0),
        }
        .into(),
        OwnershipMsg::Resp {
            req_id,
            object,
            o_ts,
            epoch,
            data,
            new_replicas: replicas.clone(),
            first_touch: true,
        }
        .into(),
        CommitMsg::RInv {
            tx_id,
            epoch,
            followers: vec![NodeId(1), NodeId(2)],
            prev_val: false,
            updates: vec![
                ObjectUpdate::new(object, DataTs::new(4, o_ts), vec![1u8; VALUE_BYTES]),
                ObjectUpdate::new(ObjectId(5), DataTs::new(9, o_ts), vec![2u8; VALUE_BYTES]),
            ],
        }
        .into(),
        CommitMsg::RAck {
            tx_id,
            from: NodeId(1),
            epoch,
        }
        .into(),
        CommitMsg::RVal { tx_id, epoch }.into(),
        MembershipMsg::Heartbeat {
            from: NodeId(1),
            epoch,
        }
        .into(),
        MembershipMsg::ViewChange {
            epoch,
            live: vec![NodeId(0), NodeId(2)],
            admitted: vec![Epoch(0), epoch],
        }
        .into(),
        MembershipMsg::RecoveryDone {
            from: NodeId(2),
            epoch,
            seen: vec![NodeId(0), NodeId(2)],
        }
        .into(),
        MembershipMsg::ViewPull { from: NodeId(2) }.into(),
        ViewMsg::Propose {
            epoch,
            base: Epoch(2),
            live: vec![NodeId(0), NodeId(2)],
            admitted: vec![Epoch(0), epoch],
            from: NodeId(2),
        }
        .into(),
        ViewMsg::Grant {
            epoch,
            from: NodeId(1),
        }
        .into(),
        ViewMsg::Reject {
            epoch,
            committed: Epoch(4),
            from: NodeId(0),
        }
        .into(),
        ViewMsg::DirPull { from: NodeId(2) }.into(),
        ViewMsg::DirPush {
            from: NodeId(0),
            epoch,
            entries: vec![
                (object, o_ts, replicas.clone()),
                (ObjectId(9), o_ts, replicas),
            ],
        }
        .into(),
    ]
}

/// Allocations per transaction, rounded up: a budget is not met on average.
fn per_tx(allocations: u64, windows: u64) -> u64 {
    allocations.div_ceil(windows * WINDOW)
}

/// Transactions of each kind [`session_round_trips`] measures.
const SESSION_TXS: u64 = 1_024;

/// The allocations of `SESSION_TXS` read transactions returning `(u64, i64)`
/// and of as many write transactions returning `()`, made through a session
/// on a one-node simulator: the command, the driver, the reply cell, the
/// result on its way to the ticket and the transaction itself, with no
/// follower to replicate to.
fn session_round_trips() -> (u64, u64) {
    let cluster = SimCluster::new(ZeusConfig::with_nodes(1));
    let object = ObjectId(0);
    cluster.create_object(object, vec![0u8; 16], NodeId(0));
    let session = cluster.handle(NodeId(0));
    let read = || {
        session
            .read_txn(move |tx| {
                let value = tx.read(object)?;
                let (counter, balance) = value.split_at(8);
                Ok((
                    u64::from_le_bytes(counter.try_into().expect("8 bytes")),
                    i64::from_le_bytes(balance.try_into().expect("8 bytes")),
                ))
            })
            .expect("a replica read")
    };
    let write = || {
        session
            .write_txn(move |tx| tx.write(object, Bytes::from_static(&[1; 16])))
            .expect("a local write")
    };
    // Warm-up: the simulator's and the node's buffers reach their size.
    for _ in 0..64 {
        read();
        write();
    }
    let before = allocations();
    for _ in 0..SESSION_TXS {
        std::hint::black_box(read());
    }
    let reads = allocations() - before;
    let before = allocations();
    for _ in 0..SESSION_TXS {
        write();
    }
    (reads, allocations() - before)
}

/// Rounds of seven sends and one delivery [`sim_network_rounds`] measures.
const SIM_NET_ROUNDS: u64 = 100_000;

/// The allocations of `SIM_NET_ROUNDS` rounds on a simulated network with a
/// fixed 10-tick delay, each round seven sends and then the delivery of
/// everything due, after 1,000 rounds that size the in-flight queue.
fn sim_network_rounds() -> u64 {
    const WARM_UP: u64 = 1_000;
    let mut net: SimNetwork<Message> = SimNetwork::new(NetConfig::reliable(10));
    let heartbeat: Message = MembershipMsg::Heartbeat {
        from: NodeId(0),
        epoch: Epoch(0),
    }
    .into();
    let mut delivered = 0u64;
    let mut before = 0;
    for round in 0..WARM_UP + SIM_NET_ROUNDS {
        if round == WARM_UP {
            before = allocations();
        }
        for to in 0..7 {
            let msg = heartbeat.clone();
            net.send(Envelope::with_payload_bytes(NodeId(0), NodeId(to), msg, 16));
        }
        let due = net.now() + 10;
        net.deliver_due(due, |_| delivered += 1);
    }
    let allocated = allocations() - before;
    assert_eq!(delivered, 7 * (WARM_UP + SIM_NET_ROUNDS), "all delivered");
    allocated
}

/// Slots of one pipeline [`follower_of_every_third_slot`] feeds a follower.
const FOLLOWED_SLOTS: u64 = 100_000;

/// The allocations of a follower fed every third slot of node 0's pipeline,
/// `FOLLOWED_SLOTS` of them — each slot's R-INV, then its R-VAL — after 64
/// that size its buffers. The messages are built outside the count. Only
/// slot 0 ever joins the cleared prefix, so what the count sees grow is the
/// record of the cleared slots above it.
fn follower_of_every_third_slot() -> u64 {
    const WARM_UP: u64 = 64;
    let mut follower = ZeusNode::new(NodeId(1), ZeusConfig::with_nodes(3));
    let object = ObjectId(0);
    follower.create_object(
        object,
        Bytes::from_static(&[0; 16]),
        ReplicaSet::new(NodeId(0), [NodeId(1)]),
    );
    let pipeline = PipelineId::new(NodeId(0), 0);
    let mut allocated = 0;
    for i in 0..WARM_UP + FOLLOWED_SLOTS {
        let tx_id = TxId::new(pipeline, 3 * i);
        let rinv: Message = CommitMsg::RInv {
            tx_id,
            epoch: Epoch::ZERO,
            followers: vec![NodeId(1)],
            prev_val: true,
            updates: vec![ObjectUpdate::new(
                object,
                DataTs::new(i + 1, OwnershipTs::default()),
                Bytes::from_static(b"v"),
            )],
        }
        .into();
        let rval: Message = CommitMsg::RVal {
            tx_id,
            epoch: Epoch::ZERO,
        }
        .into();
        let before = allocations();
        follower.handle_message(NodeId(0), rinv);
        follower.handle_message(NodeId(0), rval);
        follower.drain_outbox_with(|_, _| {});
        if i >= WARM_UP {
            allocated += allocations() - before;
        }
    }
    allocated
}

#[test]
fn a_replicated_write_and_a_handover_stay_within_their_allocation_budgets() {
    const MEASURED_WINDOWS: u64 = 64;
    const MEASURED_MOVES: u64 = 1_024;
    let mut nodes = cluster();
    let mut cursor = 0u64;

    // Warm-up: rings, maps and the recycled workspace reach their size.
    run(&mut nodes, &mut cursor, 8, 1);
    run(&mut nodes, &mut cursor, 8, 2);

    let one = run(&mut nodes, &mut cursor, MEASURED_WINDOWS, 1);
    let two = run(&mut nodes, &mut cursor, MEASURED_WINDOWS, 2);

    let messages = one_of_each_kind();
    let mut kinds: Vec<&str> = messages.iter().map(Message::kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(
        kinds.len(),
        18,
        "one sample of each of the 18 message kinds"
    );
    let before = allocations();
    let sized: usize = messages.iter().map(Message::payload_bytes).sum();
    let sizing = allocations() - before;
    assert!(sized > 0);

    // Moves, on the same nodes: every object goes to the node after its
    // owner. The warm-up sizes the ownership tables and the outboxes.
    let mut owner: Vec<u16> = (0..OBJECTS).map(|o| (o % NODES as u64) as u16).collect();
    run_moves(&mut nodes, &mut owner, &mut cursor, 256);
    let moved = run_moves(&mut nodes, &mut owner, &mut cursor, MEASURED_MOVES);

    let placement = ReplicaSet::new(NodeId(0), (1..8).map(NodeId));
    assert_eq!(placement.replication_degree(), 8);
    let before = allocations();
    let copy = std::hint::black_box(&placement).clone();
    let cloning = allocations() - before;
    assert_eq!(copy, placement);

    // A tick with nothing due: the first one sends what time 1 brings
    // (heartbeats), the second finds every timer in the future.
    nodes[0].tick(1);
    nodes[0].drain_outbox();
    assert!(nodes[0].next_timer(1) > 2);
    let before = allocations();
    nodes[0].tick(2);
    let idle_tick = allocations() - before;
    assert!(nodes[0].drain_outbox().is_empty(), "nothing was due");

    let (session_reads, session_writes) = session_round_trips();
    let sim_network = sim_network_rounds();
    let follower = follower_of_every_third_slot();

    // Printed after measuring: capturing output allocates.
    for (label, stages) in [("one-object", one), ("two-object", two)] {
        let n = (MEASURED_WINDOWS * WINDOW) as f64;
        println!(
            "{label} write: {:.2} allocations = execute {:.2} + R-INV {:.2} + R-ACK {:.2} + R-VAL {:.2}",
            stages.total() as f64 / n,
            stages.execute as f64 / n,
            stages.rinv as f64 / n,
            stages.rack as f64 / n,
            stages.rval as f64 / n,
        );
    }
    println!("payload_bytes over one message of each kind: {sizing} allocations");
    let n = MEASURED_MOVES as f64;
    let [req, inv, ack, val] = moved.handling.map(|stage| stage as f64 / n);
    println!(
        "reader→owner move: {:.2} allocations = issue {:.2} + REQ {req:.2} + INVs {inv:.2} + ACKs {ack:.2} + VALs {val:.2}",
        moved.protocol() as f64 / n,
        moved.issue as f64 / n,
    );
    println!(
        "first write after the grant: {:.2} allocations; the next one, alone in its window: {:.2}",
        moved.first_write as f64 / n,
        moved.next_write as f64 / n,
    );
    println!("cloning an 8-node placement: {cloning} allocations; an idle tick: {idle_tick}");
    let n = SESSION_TXS as f64;
    println!(
        "through a session on one simulated node: a read returning (u64, i64) {:.2} allocations, a write returning () {:.2}",
        session_reads as f64 / n,
        session_writes as f64 / n,
    );
    println!(
        "simulated network, {SIM_NET_ROUNDS} rounds of 7 sends and a delivery: {sim_network} allocations"
    );
    println!(
        "a follower of every third slot, {FOLLOWED_SLOTS} R-INVs and R-VALs: {follower} allocations"
    );

    assert!(
        per_tx(one.total(), MEASURED_WINDOWS) <= 16,
        "a one-object replicated write may allocate 16 times, did {one:?} over {MEASURED_WINDOWS} windows"
    );
    assert!(
        per_tx(two.total(), MEASURED_WINDOWS) <= 20,
        "a two-object replicated write may allocate 20 times, did {two:?} over {MEASURED_WINDOWS} windows"
    );
    assert_eq!(sizing, 0, "a message's size is computed, not encoded");
    assert!(
        moved.protocol().div_ceil(MEASURED_MOVES) <= 8,
        "the ownership protocol may allocate 8 times per move, did {moved:?} over {MEASURED_MOVES} moves"
    );
    assert!(
        moved.first_write.div_ceil(MEASURED_MOVES) <= 16
            && moved.first_write <= moved.next_write + MEASURED_MOVES / 4,
        "the first write after a grant may allocate as often as any other, did {moved:?} over {MEASURED_MOVES} moves"
    );
    assert_eq!(cloning, 0, "a placement of up to 8 nodes lives inline");
    assert_eq!(idle_tick, 0, "a tick with nothing due only looks at timers");
    assert!(
        session_reads.div_ceil(SESSION_TXS) <= 4,
        "a session's read returning (u64, i64) may allocate 4 times, did {session_reads} over {SESSION_TXS}"
    );
    assert!(
        session_writes.div_ceil(SESSION_TXS) <= 3,
        "a session's write returning () may allocate 3 times, did {session_writes} over {SESSION_TXS}"
    );
    assert_eq!(
        sim_network, 0,
        "a warmed-up simulated network reuses its delivery buckets"
    );
    // 300,000 slots are 4,688 words of one bit per slot: the bitmap doubles
    // about a dozen times. A set with one entry per cleared slot allocated
    // 16,666 times here.
    assert!(
        follower <= 16,
        "a follower's cleared slots may only grow a bitmap, did {follower} allocations over {FOLLOWED_SLOTS} slots"
    );
}
