//! An idle cluster must cost (next to) nothing: its node loops sleep on their
//! doorbells until a heartbeat is due, they do not poll. That holds with one
//! node cut off too, once the view has dropped it: a standing suspicion wakes
//! a loop on every tick only until then. A test binary of its own, so that
//! no other test's threads run in the measured process; its tests take turns.

#![cfg(target_os = "linux")]

use std::sync::Mutex;
use std::time::{Duration, Instant};

use zeus_core::{ClusterDriver, NodeId, ThreadedCluster, ZeusConfig};

/// Held by each test for its whole run: process CPU counts every thread.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// `utime + stime` of this process in seconds, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks; `USER_HZ` is 100 on Linux).
fn process_cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // The command name (field 2) may contain spaces; fields count from the
    // parenthesis that closes it.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|field| field.parse::<u64>().expect("utime / stime"))
        .sum();
    ticks as f64 / USER_HZ
}

/// Cores this process used over the next two seconds.
fn cores_over_two_seconds() -> f64 {
    let (cpu_before, start) = (process_cpu_seconds(), Instant::now());
    std::thread::sleep(Duration::from_secs(2));
    (process_cpu_seconds() - cpu_before) / start.elapsed().as_secs_f64()
}

#[test]
fn an_idle_three_node_cluster_uses_under_a_twentieth_of_a_core() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(3));
    std::thread::sleep(Duration::from_millis(200));

    let cores = cores_over_two_seconds();

    println!("idle 3-node ThreadedCluster: {cores:.3} core");
    cluster.shutdown();
    assert!(cores < 0.05, "idle cluster burned {cores:.3} core");
}

#[test]
fn a_cluster_with_one_node_cut_off_settles_back_to_idle() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(3));
    cluster.admin().isolate(NodeId(2)).expect("node 2 exists");
    // Long enough for node 2's lease to lapse and the view without it to
    // commit on the two that can still reach each other.
    std::thread::sleep(Duration::from_millis(1_500));

    let cores = cores_over_two_seconds();

    println!("3-node ThreadedCluster, node 2 cut off: {cores:.3} core");
    cluster.shutdown();
    assert!(
        cores < 0.05,
        "cluster with a node cut off burned {cores:.3} core"
    );
}
