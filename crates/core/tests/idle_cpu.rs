//! An idle cluster must cost (next to) nothing: its node loops sleep on their
//! doorbells until a heartbeat is due, they do not poll. A test binary of
//! its own, so that no other test's threads run in the measured process.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use zeus_core::{ThreadedCluster, ZeusConfig};

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

#[test]
fn an_idle_three_node_cluster_uses_under_a_twentieth_of_a_core() {
    let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(3));
    std::thread::sleep(Duration::from_millis(200));

    let (cpu_before, start) = (process_cpu_seconds(), Instant::now());
    std::thread::sleep(Duration::from_secs(2));
    let cores = (process_cpu_seconds() - cpu_before) / start.elapsed().as_secs_f64();

    println!("idle 3-node ThreadedCluster: {cores:.3} core");
    cluster.shutdown();
    assert!(cores < 0.05, "idle cluster burned {cores:.3} core");
}
