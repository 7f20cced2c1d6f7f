//! Property-based and fault-injection tests of the paper's TLA+-checked
//! invariants (§8 "Formal verification"), run over the deterministic
//! simulator so every counterexample would be reproducible from its seed.

use proptest::prelude::*;
use zeus_core::{ClusterDriver, NodeId, ObjectId, Session, SimCluster, ZeusConfig};
use zeus_net::sim::NetConfig;

/// A randomised schedule of writes, migrations and crashes.
#[derive(Debug, Clone)]
enum Step {
    Write { node: u16, object: u64, value: u8 },
    Migrate { node: u16, object: u64 },
    ReadCheck { node: u16, object: u64 },
}

fn step_strategy(nodes: u16, objects: u64) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..nodes, 0..objects, any::<u8>()).prop_map(|(node, object, value)| Step::Write {
            node,
            object,
            value
        }),
        (0..nodes, 0..objects).prop_map(|(node, object)| Step::Migrate { node, object }),
        (0..nodes, 0..objects).prop_map(|(node, object)| Step::ReadCheck { node, object }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Single-owner, replica-agreement and no-lost-committed-write invariants
    /// hold under arbitrary interleavings of writes and migrations, with
    /// variable network latency (reordering across node pairs).
    #[test]
    fn invariants_hold_under_random_schedules(
        steps in proptest::collection::vec(step_strategy(3, 4), 1..25),
        seed in 0u64..1000,
    ) {
        let net = NetConfig {
            min_delay: 1,
            max_delay: 12,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            seed,
            link_overrides: Vec::new(),
        };
        let mut cluster = SimCluster::with_network(ZeusConfig::with_nodes(3), net);
        let mut expected: std::collections::HashMap<u64, u8> = Default::default();
        for o in 0..4u64 {
            cluster.create_object(ObjectId(o), vec![0u8], NodeId((o % 3) as u16));
            expected.insert(o, 0);
        }
        for step in steps {
            match step {
                Step::Write { node, object, value } => {
                    cluster
                        .handle(NodeId(node)).write_txn(move |tx| tx.write(ObjectId(object), vec![value]))
                        .unwrap();
                    // Wait for the pipelined reliable commit to finish before
                    // the next step: the linearization point exposed to other
                    // replicas is the reliable commit (§5.3), so read checks
                    // on other nodes are only valid once it completed.
                    cluster.run_until_quiescent(60_000);
                    expected.insert(object, value);
                }
                Step::Migrate { node, object } => {
                    cluster.migrate(ObjectId(object), NodeId(node)).unwrap();
                    cluster.run_until_quiescent(60_000);
                }
                Step::ReadCheck { node, object } => {
                    let value = cluster
                        .handle(NodeId(node)).read_txn(move |tx| tx.read(ObjectId(object)))
                        .unwrap();
                    prop_assert_eq!(value.as_ref(), &[expected[&object]][..]);
                }
            }
        }
        // Invariants (including directory agreement) are asserted at
        // quiescence, as in the paper's model checking of complete actions.
        cluster.run_until_quiescent(60_000);
        cluster.check_invariants().map_err(TestCaseError::fail)?;
        // Every replica converged to the last committed value.
        for (object, value) in expected {
            let got = cluster
                .handle(NodeId(0)).read_txn(move |tx| tx.read(ObjectId(object)))
                .or_else(|_| cluster.handle(NodeId(1)).read_txn(move |tx| tx.read(ObjectId(object))))
                .unwrap();
            prop_assert_eq!(got.as_ref(), &[value][..]);
        }
    }

    /// Crash-stop fault injection: killing any single node at a random point
    /// never loses a committed write and never leaves two owners.
    #[test]
    fn single_node_crash_never_loses_committed_data(
        crash_node in 0u16..3,
        crash_after in 1usize..10,
        seed in 0u64..500,
    ) {
        let net = NetConfig { min_delay: 1, max_delay: 8, drop_probability: 0.0, duplicate_probability: 0.0, seed ,
            link_overrides: Vec::new(),};
        let mut cluster = SimCluster::with_network(ZeusConfig::with_nodes(3), net);
        let object = ObjectId(1);
        cluster.create_object(object, vec![0u8], NodeId(0));
        let mut last_committed = 0u8;
        for i in 1..=14u8 {
            // Coordinators are always surviving nodes: a locally committed but
            // not yet reliably committed transaction of a node that then
            // crashes is allowed to be lost (its client never saw an ack from
            // a surviving coordinator).
            let coordinator = NodeId((crash_node + 1 + (i as u16 % 2)) % 3);
            if cluster.handle(coordinator).write_txn(move |tx| tx.write(object, vec![i])).is_ok() {
                last_committed = i;
            }
            if i as usize == crash_after {
                cluster.admin().crash(NodeId(crash_node)).unwrap();
                cluster.settle(60_000);
            }
        }
        let settled = cluster.settle(60_000);
        // Any surviving replica that can serve the object must serve the last
        // committed value (no lost committed writes, no stale reads).
        let survivors: Vec<NodeId> = cluster.live_nodes();
        let mut readable = 0;
        for &node in &survivors {
            if let Ok(v) = cluster.handle(node).read_txn(move |tx| tx.read(object)) {
                prop_assert_eq!(v.as_ref(), &[last_committed][..]);
                readable += 1;
            }
        }
        if settled {
            prop_assert!(readable > 0, "no surviving replica could serve the object");
        }
    }
}
