//! Repro commands for two findings recorded in README.md. They are ignored
//! tests, run by hand:
//!
//! ```text
//! cargo test --release --offline --manifest-path benchmark/Cargo.toml \
//!     --bin zeus-bench-e2e -- --ignored --nocapture finding
//! ```
//!
//! They assert nothing about the system — they print what happened — so a
//! later fix changes their output, not their result.

use std::time::{Duration, Instant};

use bytes::Bytes;
use zeus_benchmark::gen::{Class, Op};
use zeus_core::{ClusterDriver, NodeId, ObjectId, Session, SimCluster, UdpCluster, ZeusConfig};
use zeus_net::NetConfig;

use crate::txn;

/// Why `sim_protocol` settles the network every 16 transactions: the cost of
/// one final `quiesce()` grows much faster than the number of commits left
/// unsettled before it.
#[test]
#[ignore = "finding; run by hand, see README"]
fn finding_sim_quiesce_over_unsettled_commits() {
    for unsettled in [1_000u64, 4_000, 16_000] {
        let sim = SimCluster::with_network(ZeusConfig::with_nodes(5), NetConfig::reliable(10));
        let value = Bytes::from(txn::initial_value());
        for object in 0..1_000 {
            sim.create_object(ObjectId(object), value.clone(), NodeId((object % 5) as u16));
        }
        let sessions: Vec<_> = (0..5).map(|n| sim.handle(NodeId(n))).collect();
        let started = Instant::now();
        for i in 0..unsettled {
            let object = i % 1_000;
            let op = Op::new(object % 5, Class::Write, &[], &[(object, 1)]);
            sessions[(object % 5) as usize]
                .write_txn(txn::write(op))
                .expect("local write");
        }
        let submitted = started.elapsed();
        sim.quiesce();
        println!(
            "{unsettled:>6} unsettled local writes: submitted in {submitted:.2?}, final quiesce() {:.2?}, quiescent = {}",
            started.elapsed() - submitted,
            sim.aggregate_stats().write_txs_committed == unsettled
        );
    }
}

/// Why there is no UDP workload yet: two closed-loop clients, one write in
/// flight each, on `UdpCluster`.
#[test]
#[ignore = "finding; run by hand, see README"]
fn finding_udp_cluster_under_two_closed_loop_clients() {
    const OBJECTS: u64 = 30_000;
    let cluster = UdpCluster::start(ZeusConfig::with_nodes(3)).expect("loopback sockets");
    let value = Bytes::from(txn::initial_value());
    for object in 0..OBJECTS {
        cluster.create_object(ObjectId(object), value.clone(), NodeId((object % 3) as u16));
    }
    let before = cluster.net_stats();
    let outcomes: Vec<(u64, Vec<String>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2u64)
            .map(|client| {
                let sessions: Vec<_> = (0..3).map(|n| cluster.handle(NodeId(n))).collect();
                scope.spawn(move || {
                    let (mut committed, mut errors) = (0u64, Vec::new());
                    let end = Instant::now() + Duration::from_secs(8);
                    let mut object = client;
                    while Instant::now() < end && errors.len() < 5 {
                        object = (object + 2) % OBJECTS;
                        let op = Op::new(object % 3, Class::Write, &[], &[(object, 1)]);
                        let mut ticket =
                            sessions[(object % 3) as usize].submit_write(txn::write(op));
                        let submitted = Instant::now();
                        let result = loop {
                            if let Some(result) = ticket.try_poll() {
                                break result.map_err(|e| format!("{e:?}"));
                            }
                            if submitted.elapsed() > Duration::from_secs(10) {
                                break Err("unresolved after 10 s".to_string());
                            }
                            std::thread::sleep(Duration::from_micros(50));
                        };
                        match result {
                            Ok(()) => committed += 1,
                            Err(error) => errors.push(error),
                        }
                    }
                    (committed, errors)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client"))
            .collect()
    });
    let sent = cluster.net_stats().messages_sent - before.messages_sent;
    for (client, (committed, errors)) in outcomes.iter().enumerate() {
        println!("client {client}: {committed} committed in 8 s, errors: {errors:?}");
    }
    let committed: u64 = outcomes.iter().map(|(c, _)| c).sum();
    println!(
        "{:.1} messages per committed write",
        sent as f64 / committed.max(1) as f64
    );
}
