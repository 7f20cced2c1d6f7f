//! Process-cluster harness: spawns N `zeus-node` processes on loopback,
//! runs the transfer workload, optionally `kill -9`s one node mid-run and
//! restarts it on the same address, and exits non-zero unless everything
//! (including re-admission of the restarted node) completes.
//!
//! ```text
//! zeus-procs [--config cluster.toml] [--nodes 3] [--ops 150]
//!            [--accounts 48] [--lease-us 200000] [--view-replicas 3]
//!            [--kill 0] [--kill-after-ms 300] [--log-dir procs-logs]
//!            [--seed 42] [--node-bin path/to/zeus-node]
//! ```
//!
//! `--config` reads a `cluster.toml` (see [`zeus_core::ClusterFile`]) whose
//! node table fixes the cluster size and addresses and whose `[cluster]`
//! section supplies `lease_us` / `view_replicas` defaults; explicit flags
//! override file values. Without it, ports are allocated on loopback.
//! `--node-bin` defaults to a `zeus-node` sitting next to this executable
//! (which is where `cargo build` puts both). Per-node logs are written to
//! `--log-dir`; the multiprocess CI job uploads them on failure.

use std::process::ExitCode;

use zeus_core::procs::{run_harness, HarnessOpts};

fn main() -> ExitCode {
    let opts = match HarnessOpts::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("zeus-procs: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "zeus-procs: {} nodes, {} ops/node, kill={:?}, logs in {}",
        opts.nodes,
        opts.ops,
        opts.kill.map(|n| n.0),
        opts.log_dir.display()
    );
    match run_harness(&opts) {
        Ok(report) => {
            for (id, outcome) in {
                let mut v: Vec<_> = report.survivors.iter().collect();
                v.sort_by_key(|(id, _)| **id);
                v
            } {
                println!(
                    "node {id}: committed={} aborted={}",
                    outcome.committed, outcome.aborted
                );
            }
            if let Some(outcome) = report.restarted {
                println!(
                    "restarted node: committed={} aborted={}",
                    outcome.committed, outcome.aborted
                );
            }
            println!("zeus-procs: OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("zeus-procs: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
