//! The simulator and the node threads run one transaction driver, and the
//! node threads one cluster shell whatever carries their messages, so a
//! client sees the same `Result` from all three: one table of scenarios
//! through [`ClusterDriver`] on [`SimCluster`], on [`ThreadedCluster`] and on
//! [`UdpCluster`]. Scenarios that need a crash or an exact interleaving run
//! on the simulator alone — which suffices, because what they exercise is the
//! same code — and one that overloads a node leaves the UDP runtime out.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bytes::Bytes;
use zeus_core::{
    ClusterDriver, NodeId, ObjectId, RetryPolicy, Session, SimCluster, ThreadedCluster, TxError,
    UdpCluster, ZeusConfig,
};
use zeus_proto::messages::NackReason;
use zeus_proto::OwnershipRequestKind::{AcquireOwner, AcquireReader};

/// Lease of the fencing scenario, in ticks (1 tick = 1 µs of wall clock on
/// the threaded runtimes, of simulated time on the simulator).
const LEASE: u64 = 40_000;

/// A cluster a scenario can start, let time pass on, and stop.
trait Runtime: ClusterDriver + Sized {
    fn start(config: ZeusConfig) -> Self;
    /// Lets `ticks` of the cluster's own time pass.
    fn pass(&mut self, ticks: u64);
    fn stop(self) {}
}

impl Runtime for SimCluster {
    fn start(config: ZeusConfig) -> Self {
        SimCluster::new(config)
    }
    fn pass(&mut self, ticks: u64) {
        self.advance_ticks(ticks);
    }
}

impl Runtime for ThreadedCluster {
    fn start(config: ZeusConfig) -> Self {
        ThreadedCluster::start(config)
    }
    fn pass(&mut self, ticks: u64) {
        std::thread::sleep(Duration::from_micros(ticks));
    }
    fn stop(self) {
        self.shutdown();
    }
}

impl Runtime for UdpCluster {
    fn start(config: ZeusConfig) -> Self {
        UdpCluster::start(config).expect("bind loopback")
    }
    fn pass(&mut self, ticks: u64) {
        std::thread::sleep(Duration::from_micros(ticks));
    }
    fn stop(self) {
        self.shutdown();
    }
}

fn write(session: &impl Session, object: ObjectId) -> Result<(), TxError> {
    session.write_txn(move |tx| tx.write(object, Bytes::from_static(b"w")))
}

/// Runs a scenario's two instantiations and returns what both of them said.
fn on_both<T: PartialEq + std::fmt::Debug>(
    sim: impl FnOnce() -> T,
    threaded: impl FnOnce() -> T,
) -> T {
    let (sim, threaded) = (sim(), threaded());
    assert_eq!(sim, threaded, "simulator vs threaded runtime");
    sim
}

/// [`on_both`], and the UDP runtime as the third column.
fn on_all<T: PartialEq + std::fmt::Debug>(
    sim: impl FnOnce() -> T,
    threaded: impl FnOnce() -> T,
    udp: impl FnOnce() -> T,
) -> T {
    let sim = on_both(sim, threaded);
    assert_eq!(sim, udp(), "simulator vs UDP runtime");
    sim
}

/// A remote write needs its object moved first; the grant is the
/// continuation of its first attempt, so no retry budget is needed.
fn remote_write_without_a_budget<R: Runtime>() -> Result<(), TxError> {
    let cluster = R::start(ZeusConfig::with_nodes(3));
    let object = ObjectId(1);
    cluster.create_object(object, Bytes::from_static(b"0"), NodeId(0));
    let session = cluster
        .handle(NodeId(2))
        .with_retry(RetryPolicy::no_retry());
    let result = write(&session, object);
    cluster.stop();
    result
}

#[test]
fn a_remote_write_commits_under_a_no_retry_policy() {
    let result = on_all(
        remote_write_without_a_budget::<SimCluster>,
        remote_write_without_a_budget::<ThreadedCluster>,
        remote_write_without_a_budget::<UdpCluster>,
    );
    assert_eq!(result, Ok(()));
}

/// Node 1 keeps taking an object that a client of node 0 keeps writing, so
/// the two acquisitions race and either can lose an arbitration: within the
/// default budget both sides retry and neither ever sees the loss.
fn acquire_against_a_writer<R: Runtime>() -> (Result<(), TxError>, Result<(), TxError>) {
    let cluster = R::start(ZeusConfig::with_nodes(3));
    let object = ObjectId(1);
    cluster.create_object(object, Bytes::from_static(b"0"), NodeId(0));
    let done = AtomicBool::new(false);
    let (writer, taker) = (cluster.handle(NodeId(0)), cluster.handle(NodeId(1)));
    let results = std::thread::scope(|scope| {
        let done = &done;
        let writing = scope.spawn(move || {
            let mut result = write(&writer, object);
            while result.is_ok() && !done.load(Ordering::Acquire) {
                result = write(&writer, object);
            }
            result
        });
        let taken = (0..200).try_for_each(|_| taker.acquire(object, AcquireOwner));
        done.store(true, Ordering::Release);
        (writing.join().expect("writer"), taken)
    });
    cluster.stop();
    results
}

#[test]
fn acquiring_an_object_another_node_is_writing_succeeds_within_the_budget() {
    // No UDP column: there this scenario fails for a reason that is not the
    // driver's (benchmark/README.md finding 5, ROADMAP direction 3). A writer
    // that never waits keeps the object under a pending commit, so the owner
    // NACKs the taker for as long as it writes, and keeps thousands of
    // messages queued in front of its peers' lease heartbeats, so that
    // healthy nodes fence themselves: `Err(Fenced)` in four runs of five.
    let results = on_both(
        acquire_against_a_writer::<SimCluster>,
        acquire_against_a_writer::<ThreadedCluster>,
    );
    assert_eq!(results, (Ok(()), Ok(())));
}

/// What the clients of a node that gets cut off see: a write parked on an
/// acquisition that can no longer decide, and an acquisition asked for after
/// the lease lapsed; then whether the node serves again once healed.
fn isolation<R: Runtime>() -> (Result<(), TxError>, Result<(), TxError>, bool) {
    let mut config = ZeusConfig::with_nodes(3);
    config.lease_ticks = LEASE;
    let mut cluster = R::start(config);
    let object = ObjectId(1);
    cluster.create_object(object, Bytes::from_static(b"0"), NodeId(0));
    let session = cluster.handle(NodeId(2));
    // Load barrier (object creation is fire-and-forget on node threads).
    session.read_txn(move |tx| tx.read(object)).expect("loaded");

    cluster.admin().isolate(NodeId(2)).expect("isolate");
    let parked = write(&session, object);
    let late = session.acquire(object, AcquireOwner);

    cluster.admin().heal(NodeId(2)).expect("heal");
    let mut recovered = false;
    for _ in 0..200 {
        cluster.pass(50_000);
        if write(&session, object).is_ok() {
            recovered = true;
            break;
        }
    }
    cluster.stop();
    (parked, late, recovered)
}

#[test]
fn an_isolated_node_resolves_its_clients_to_fenced_and_serves_again_after_heal() {
    let results = on_all(
        isolation::<SimCluster>,
        isolation::<ThreadedCluster>,
        isolation::<UdpCluster>,
    );
    assert_eq!(results, (Err(TxError::Fenced), Err(TxError::Fenced), true));
}

/// Reader level of an object nobody created: the directory refuses, and the
/// refusal is terminal.
fn acquire_of_an_unknown_object<R: Runtime>() -> Result<(), TxError> {
    let cluster = R::start(ZeusConfig::with_nodes(3));
    let result = cluster
        .handle(NodeId(1))
        .acquire(ObjectId(777), AcquireReader);
    cluster.stop();
    result
}

#[test]
fn an_ownership_failure_names_the_object_it_was_for() {
    let result = on_all(
        acquire_of_an_unknown_object::<SimCluster>,
        acquire_of_an_unknown_object::<ThreadedCluster>,
        acquire_of_an_unknown_object::<UdpCluster>,
    );
    let error = TxError::OwnershipFailed {
        object: ObjectId(777),
        reason: NackReason::UnknownObject,
    };
    assert_eq!(result, Err(error));
}

/// A result type of the test's own, with nothing in it a byte codec would
/// know how to carry: a ticket returns its closure's value as it was.
#[derive(Debug, PartialEq)]
struct Receipt {
    object: ObjectId,
    seen: Bytes,
    note: String,
}

/// Replaces `object`'s value with `value` and returns what was there.
fn swap(
    session: &impl Session,
    object: ObjectId,
    value: &'static [u8],
    note: &'static str,
) -> Result<Receipt, TxError> {
    session.write_txn(move |tx| {
        let seen = tx.read(object)?;
        tx.write(object, Bytes::from_static(value))?;
        let note = note.to_string();
        Ok(Receipt { object, seen, note })
    })
}

/// A local write on the owner (on the threaded runtimes its caller runs it
/// once the loads are in), a write from node 2 that parks for the object and
/// is finished by the loop's poll, and a read: each returns a [`Receipt`].
fn receipts<R: Runtime>() -> [Result<Receipt, TxError>; 3] {
    let cluster = R::start(ZeusConfig::with_nodes(3));
    let object = ObjectId(1);
    cluster.create_object(object, Bytes::from_static(b"0"), NodeId(0));
    // Load barrier (object creation is fire-and-forget on node threads).
    for node in 0..3 {
        let session = cluster.handle(NodeId(node));
        session.read_txn(move |tx| tx.read(object)).expect("loaded");
    }
    let (owner, remote) = (cluster.handle(NodeId(0)), cluster.handle(NodeId(2)));
    let local = swap(&owner, object, b"local", "on the owner");
    let moved = swap(&remote, object, b"remote", "after the move");
    let read = remote.read_txn(move |tx| {
        let seen = tx.read(object)?;
        let note = "read".to_string();
        Ok(Receipt { object, seen, note })
    });
    cluster.stop();
    [local, moved, read]
}

#[test]
fn a_transaction_returns_its_closures_value_unchanged_on_every_runtime() {
    let results = on_all(
        receipts::<SimCluster>,
        receipts::<ThreadedCluster>,
        receipts::<UdpCluster>,
    );
    let receipt = |seen: &'static [u8], note: &str| {
        Ok(Receipt {
            object: ObjectId(1),
            seen: Bytes::from_static(seen),
            note: note.to_string(),
        })
    };
    assert_eq!(
        results,
        [
            receipt(b"0", "on the owner"),
            receipt(b"local", "after the move"),
            receipt(b"remote", "read"),
        ]
    );
}

// ---------------------------------------------------------------------------
// Simulator only: crashes and exact interleavings
// ---------------------------------------------------------------------------

#[test]
fn a_parked_write_on_a_node_that_fences_resolves_within_two_leases_of_sim_time() {
    let mut config = ZeusConfig::with_nodes(3);
    config.lease_ticks = LEASE;
    let cluster = SimCluster::new(config);
    let object = ObjectId(1);
    cluster.create_object(object, Bytes::from_static(b"0"), NodeId(0));
    cluster.admin().isolate(NodeId(2)).expect("isolate");
    let start = cluster.now();
    assert_eq!(
        write(&cluster.handle(NodeId(2)), object),
        Err(TxError::Fenced)
    );
    assert!(
        cluster.now() - start <= 2 * LEASE,
        "took {}",
        cluster.now() - start
    );
}

/// A write of `object` by node 2 that loses its first arbitration to a
/// request node 1 made one step earlier. Returns the result and how many
/// ownership requests the write cost node 2.
fn contended_write(budget: usize) -> (Result<(), TxError>, u64) {
    let mut cluster = SimCluster::new(ZeusConfig::with_nodes(3));
    let object = ObjectId(1);
    cluster.create_object(object, Bytes::from_static(b"0"), NodeId(0));
    cluster.node_mut(NodeId(1)).acquire(object, AcquireOwner);
    cluster.step();
    let session = cluster
        .handle(NodeId(2))
        .with_retry(RetryPolicy::with_budget(budget));
    let result = write(&session, object);
    let requests = cluster.node(NodeId(2)).stats().ownership_requests;
    (result, requests)
}

#[test]
fn a_budget_of_two_against_a_contended_object_retries_exactly_once() {
    let lost = TxError::OwnershipFailed {
        object: ObjectId(1),
        reason: NackReason::LostArbitration,
    };
    assert_eq!(contended_write(1), (Err(lost), 1), "no budget, no retry");
    assert_eq!(
        contended_write(2),
        (Ok(()), 2),
        "one failed round, one retry"
    );
}

#[test]
fn a_conflicting_read_surfaces_as_is_without_a_budget_and_exhausts_one() {
    let mut cluster = SimCluster::new(ZeusConfig::with_nodes(3));
    let object = ObjectId(1);
    cluster.create_object(object, Bytes::from_static(b"0"), NodeId(0));
    write(&cluster.handle(NodeId(0)), object).expect("local write");
    // One step delivers the R-INVs; cutting node 1 off then keeps the R-VAL
    // from it, so its replica stays invalidated.
    cluster.step();
    cluster.admin().isolate(NodeId(1)).expect("isolate");
    let read = |policy: RetryPolicy| {
        cluster
            .handle(NodeId(1))
            .with_retry(policy)
            .read_txn(move |tx| tx.read(object))
    };
    assert_eq!(read(RetryPolicy::no_retry()), Err(TxError::ReadConflict));
    assert_eq!(
        read(RetryPolicy::with_budget(3)),
        Err(TxError::RetriesExhausted)
    );
    assert_eq!(cluster.node(NodeId(1)).stats().txs_aborted, 1 + 3);
}

#[test]
fn an_acquisition_with_no_surviving_copy_is_a_data_loss() {
    // One copy, and the node holding it dies: the placement is pruned to
    // empty, which is not a first touch.
    let mut cluster = SimCluster::new(ZeusConfig::with_nodes(3).replication(1));
    let object = ObjectId(1);
    cluster.create_object(object, Bytes::from_static(b"only"), NodeId(2));
    cluster.admin().crash(NodeId(2)).expect("crash");
    cluster.run_until_quiescent(100_000);
    assert_eq!(
        write(&cluster.handle(NodeId(0)), object),
        Err(TxError::DataLoss)
    );
}
