//! The allocation budget of the replicated-write path.
//!
//! Three `ZeusNode`s driven by hand — node 0 executes windows of 16 writes,
//! the test shuttles `drain_outbox` between the nodes until nothing is left
//! (the shape of the benchmark's `core.node_trio_write_cpu_ns` probe) — under
//! a counting global allocator. One replicated write, everything included
//! (the transaction closure's own copy of the value, the commit on the
//! coordinator, both followers, the outboxes), must stay within budget, and
//! asking a message for its size must not allocate at all. The per-stage
//! split is printed so a regression can be attributed:
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
use zeus_core::{Message, NodeId, ObjectId, WriteOutcome, ZeusConfig, ZeusNode};
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
            arbiters: vec![NodeId(0), NodeId(1), NodeId(2)],
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

#[test]
fn a_replicated_write_stays_within_its_allocation_budget() {
    const MEASURED_WINDOWS: u64 = 64;
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

    assert!(
        per_tx(one.total(), MEASURED_WINDOWS) <= 16,
        "a one-object replicated write may allocate 16 times, did {one:?} over {MEASURED_WINDOWS} windows"
    );
    assert!(
        per_tx(two.total(), MEASURED_WINDOWS) <= 20,
        "a two-object replicated write may allocate 20 times, did {two:?} over {MEASURED_WINDOWS} windows"
    );
    assert_eq!(sizing, 0, "a message's size is computed, not encoded");
}
