//! End-to-end integration tests spanning every crate: workloads executed on
//! a simulated Zeus cluster through the session-first client API
//! ([`ClusterDriver`]/[`Session`]), and the executable two-phase-commit
//! baseline checked against Zeus on the same writes.

use zeus_baseline::exec::StaticShardedStore;
use zeus_core::{ClusterDriver, NodeId, ObjectId, Session, SimCluster, ZeusConfig};
use zeus_workloads::{
    HandoverWorkload, Operation, SmallbankWorkload, TatpWorkload, VoterWorkload, Workload,
};

/// Executes `count` operations of a workload on a 3-node simulated cluster,
/// returning (committed, aborted-or-failed). The driver loop is written
/// against [`ClusterDriver`], so the same code would run on a
/// `ThreadedCluster`.
fn run_workload_on_driver<C: ClusterDriver>(
    cluster: &C,
    workload: &mut dyn FnMut() -> Operation,
    count: usize,
) -> (u64, u64) {
    let nodes = cluster.nodes() as u64;
    let mut committed = 0;
    let mut failed = 0;
    for _ in 0..count {
        let op = workload();
        let session = cluster.handle(NodeId((op.routing_key % nodes) as u16));
        let ok = if op.read_only {
            // Read-only transactions need the objects to exist; skip unknown.
            true
        } else {
            let writes = op.writes.clone();
            session
                .write_txn(move |tx| {
                    for &(o, size) in &writes {
                        tx.update(o, |old| {
                            let mut v = old.to_vec();
                            v.resize(size.max(1), 0);
                            v[0] = v[0].wrapping_add(1);
                            v
                        })
                        .or_else(|_| tx.write(o, vec![0u8; size.max(1)]))?;
                    }
                    Ok(())
                })
                .is_ok()
        };
        if ok {
            committed += 1;
        } else {
            failed += 1;
        }
    }
    (committed, failed)
}

#[test]
fn smallbank_runs_end_to_end_with_preloaded_objects() {
    let mut workload = SmallbankWorkload::new(120, 12, 0.05, 1);
    let mut cluster = SimCluster::new(ZeusConfig::with_nodes(3));
    for obj in workload.initial_objects() {
        cluster.create_object(
            obj.id,
            vec![0u8; obj.size],
            NodeId((obj.home_key % 3) as u16),
        );
    }
    let mut committed = 0;
    for _ in 0..400 {
        let op = workload.next_operation();
        let session = cluster.handle(NodeId((op.routing_key % 3) as u16));
        let ok = if op.read_only {
            let reads = op.reads.clone();
            session
                .read_txn(move |tx| {
                    for &o in &reads {
                        tx.read(o)?;
                    }
                    Ok(())
                })
                .is_ok()
        } else {
            let reads = op.reads.clone();
            let writes = op.writes.clone();
            session
                .write_txn(move |tx| {
                    for &o in &reads {
                        tx.read(o)?;
                    }
                    for &(o, _) in &writes {
                        tx.update(o, |old| old.to_vec())?;
                    }
                    Ok(())
                })
                .is_ok()
        };
        if ok {
            committed += 1;
        }
    }
    cluster.run_until_quiescent(200_000);
    cluster.check_invariants().unwrap();
    assert!(committed >= 395, "only {committed}/400 committed");
    let stats = cluster.aggregate_stats();
    assert!(stats.write_txs_committed > 0);
    assert!(stats.read_txs_committed > 0);
}

#[test]
fn handover_workload_needs_few_ownership_changes() {
    let mut workload = HandoverWorkload::new(150, 30, 9, 0.05, 2);
    let mut cluster = SimCluster::new(ZeusConfig::with_nodes(3));
    for obj in workload.initial_objects() {
        cluster.create_object(
            obj.id,
            vec![0u8; obj.size],
            NodeId((obj.home_key % 3) as u16),
        );
    }
    for _ in 0..600 {
        let op = workload.next_operation();
        let session = cluster.handle(NodeId((op.routing_key % 3) as u16));
        let writes = op.writes.clone();
        session
            .write_txn(move |tx| {
                for &(o, _) in &writes {
                    tx.update(o, |old| old.to_vec())?;
                }
                Ok(())
            })
            .unwrap();
    }
    cluster.run_until_quiescent(200_000);
    let stats = cluster.aggregate_stats();
    // Locality: the vast majority of transactions commit without any
    // ownership traffic (the paper reports <0.5% ownership requests).
    let ratio = stats.ownership_requests as f64 / stats.write_txs_committed as f64;
    assert!(ratio < 0.25, "too many ownership requests: {ratio}");
    cluster.check_invariants().unwrap();
}

#[test]
fn tatp_reads_never_generate_network_traffic() {
    let mut workload = TatpWorkload::new(60, 6, 0.0, 3);
    let mut cluster = SimCluster::new(ZeusConfig::with_nodes(3));
    for obj in workload.initial_objects() {
        cluster.create_object(
            obj.id,
            vec![0u8; obj.size],
            NodeId((obj.home_key % 3) as u16),
        );
    }
    cluster.run_until_quiescent(10_000);
    let before = cluster.net_stats().messages_sent;
    let mut reads = 0;
    for _ in 0..300 {
        let op = workload.next_operation();
        if !op.read_only {
            continue;
        }
        reads += 1;
        let session = cluster.handle(NodeId((op.routing_key % 3) as u16));
        let reads_set = op.reads.clone();
        session
            .read_txn(move |tx| {
                for &o in &reads_set {
                    tx.read(o)?;
                }
                Ok(())
            })
            .unwrap();
    }
    assert!(reads > 100);
    assert_eq!(
        cluster.net_stats().messages_sent,
        before,
        "read-only transactions must be local (§5.3)"
    );
}

#[test]
fn voter_hot_object_migration_under_load() {
    let workload = VoterWorkload::new(50, 5, 4);
    let mut cluster = SimCluster::new(ZeusConfig::with_nodes(3));
    for obj in workload.initial_objects() {
        cluster.create_object(obj.id, vec![0u8; obj.size], NodeId(0));
    }
    let hot = workload.hot_contestant();
    // Vote a bit, migrate the hot contestant, keep voting, migrate again.
    for round in 0..3 {
        let session = cluster.handle(NodeId(round % 3));
        for v in 0..50u64 {
            session
                .write_txn(move |tx| {
                    tx.update(hot, |old| old.to_vec())?;
                    tx.update(VoterWorkload::voter(v), |old| old.to_vec())?;
                    Ok(())
                })
                .unwrap();
        }
        let target = NodeId((round + 1) % 3);
        cluster.migrate(hot, target).unwrap();
        assert!(cluster.node(target).owns(hot));
    }
    cluster.run_until_quiescent(200_000);
    cluster.check_invariants().unwrap();
}

#[test]
fn first_touch_creation_via_workload_stream() {
    // Objects are created lazily through first-touch ownership acquisition.
    let cluster = SimCluster::new(ZeusConfig::with_nodes(3));
    let mut workload = VoterWorkload::new(30, 3, 9);
    let mut gen = move || workload.next_operation();
    let (committed, failed) = run_workload_on_driver(&cluster, &mut gen, 100);
    assert_eq!(failed, 0);
    assert_eq!(committed, 100);
    let mut cluster = cluster;
    cluster.run_until_quiescent(200_000);
    cluster.check_invariants().expect("invariants hold");
}

#[test]
fn baseline_and_zeus_agree_on_final_state() {
    // Apply the same deterministic sequence of writes to Zeus and to the
    // 2PC baseline and compare the final object values.
    let objects: Vec<ObjectId> = (0..10u64).map(ObjectId).collect();
    let mut zeus = SimCluster::new(ZeusConfig::with_nodes(3));
    let mut baseline = StaticShardedStore::new(3, 3);
    for &o in &objects {
        zeus.create_object(o, vec![0u8], NodeId((o.0 % 3) as u16));
        baseline.create(o, vec![0u8]);
    }
    for i in 0..100u64 {
        let o = objects[(i % 10) as usize];
        let value = vec![(i % 251) as u8 + 1];
        let coordinator = NodeId((i % 3) as u16);
        let vz = value.clone();
        zeus.handle(coordinator)
            .write_txn(move |tx| {
                tx.write(o, vz.clone())?;
                Ok(())
            })
            .unwrap();
        assert!(baseline.write_tx(coordinator, &[(o, value.into())]));
    }
    zeus.run_until_quiescent(200_000);
    for &o in &objects {
        let read_at = |node: NodeId| zeus.handle(node).read_txn(move |tx| tx.read(o));
        let z = read_at(NodeId(0)).or_else(|_| read_at(NodeId(1))).unwrap();
        let b = baseline.get(o).unwrap();
        assert_eq!(z, b, "object {o:?} diverged");
    }
}
