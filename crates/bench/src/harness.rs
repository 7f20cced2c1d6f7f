//! Shared measurement plumbing for the figure harnesses.
//!
//! Every number comes from running a workload against the real Zeus
//! implementation ([`zeus_core::ThreadedCluster`] or
//! [`zeus_core::SimCluster`]) on this machine, with populations scaled down
//! so a figure regenerates in seconds.

use std::time::{Duration, Instant};

use zeus_core::{ClusterDriver, LatencyHistogram, NodeId, Session, ThreadedCluster, ZeusConfig};
use zeus_workloads::{Operation, Workload};

/// Phased measurement parameters for [`run_instrumented`].
#[derive(Debug, Clone)]
pub struct MeasureOpts {
    /// Warmup window: operations run but are not recorded, letting ownership
    /// settle onto the nodes that use it (the paper's steady state).
    pub warmup: Duration,
    /// Measurement window.
    pub measure: Duration,
    /// Closed-loop client threads per node.
    pub clients_per_node: usize,
    /// Operations pre-generated per client (replayed round-robin so
    /// generation cost stays out of the measured loop).
    pub ops_per_client: usize,
}

impl MeasureOpts {
    /// Short smoke windows (CI) or full windows, with one client per node.
    pub fn for_mode(smoke: bool) -> Self {
        if smoke {
            MeasureOpts {
                warmup: Duration::from_millis(100),
                measure: Duration::from_millis(400),
                clients_per_node: 1,
                ops_per_client: 4_000,
            }
        } else {
            MeasureOpts {
                warmup: Duration::from_millis(500),
                measure: Duration::from_secs(2),
                clients_per_node: 2,
                ops_per_client: 10_000,
            }
        }
    }
}

/// Result of one instrumented (warmup + measure, latency-recording) run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Transactions committed inside the measurement window.
    pub committed: u64,
    /// Transactions that failed inside the measurement window (client view).
    pub aborted: u64,
    /// Length of the measurement window.
    pub elapsed: Duration,
    /// Client-observed per-transaction latency in microseconds, merged
    /// across every client thread.
    pub latency_us: LatencyHistogram,
    /// Ownership handovers completed during the measurement window.
    pub handovers: u64,
    /// Transactions the cluster aborted during the measurement window
    /// (includes transparently-retried conflicts, so it can exceed the
    /// client-visible `aborted`).
    pub cluster_aborts: u64,
    /// Transport inbox high-water mark over the whole run.
    pub queue_depth_hwm: u64,
}

impl RunStats {
    /// Committed transactions per second.
    pub fn tps(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs `make(client_index)` workload streams against a fresh threaded
/// cluster of `nodes` nodes: a warmup phase (unrecorded) followed by a
/// measurement phase in which every client records per-transaction latency
/// into its own [`LatencyHistogram`]; the histograms are merged at the end.
///
/// Every operation is routed to node `routing_key % nodes` (the same
/// placement used to load the objects, §3.1's load balancer), so all
/// clients exercise the whole cluster. With equal seeds per client index
/// the generated operation streams are deterministic, so two builds of the
/// runtime can be compared on identical inputs.
pub fn run_instrumented<W, F>(nodes: usize, opts: &MeasureOpts, make: F) -> RunStats
where
    W: Workload,
    F: Fn(usize) -> W,
{
    let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(nodes));
    let stats = run_instrumented_on(&cluster, opts, make);
    cluster.shutdown();
    stats
}

/// [`run_instrumented`] against an already-running cluster: the driver loop
/// is written once against [`ClusterDriver`]/[`Session`] and runs unchanged
/// on the threaded runtime or the simulator.
pub fn run_instrumented_on<C, W, F>(cluster: &C, opts: &MeasureOpts, make: F) -> RunStats
where
    C: ClusterDriver + Sync,
    W: Workload,
    F: Fn(usize) -> W,
{
    let nodes = cluster.nodes();
    load_workload(cluster, &make(0));
    let clients = nodes * opts.clients_per_node.max(1);
    // Pre-generate every client's operation stream BEFORE starting the
    // warmup clock: generation is sequential on this thread, and charging
    // it against the warmup window would let late-spawned clients' cold
    // start (their ownership-settling handover storm) leak into the
    // measured window.
    let op_streams: Vec<Vec<Operation>> = (0..clients)
        .map(|c| {
            let mut workload = make(c);
            (0..opts.ops_per_client.max(1))
                .map(|_| workload.next_operation())
                .collect()
        })
        .collect();
    let start = Instant::now();
    let warmup_end = start + opts.warmup;
    let end = warmup_end + opts.measure;

    let mut per_client: Vec<(LatencyHistogram, u64, u64)> = Vec::new();
    let mut warm_stats = zeus_core::NodeStats::default();
    std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for (c, ops) in op_streams.into_iter().enumerate() {
            let cluster = &*cluster;
            threads.push(scope.spawn(move || {
                // One session per node per client thread, built outside the
                // measured loop.
                let sessions = sessions_per_node(cluster);
                let mut hist = LatencyHistogram::default();
                let mut committed = 0u64;
                let mut aborted = 0u64;
                let mut i = c; // stagger replay offsets across clients
                loop {
                    let t0 = Instant::now();
                    if t0 >= end {
                        break;
                    }
                    let op = &ops[i % ops.len()];
                    let ok = execute_operation(&sessions, op);
                    if t0 >= warmup_end {
                        hist.record(t0.elapsed().as_micros() as u64);
                        if ok {
                            committed += 1;
                        } else {
                            aborted += 1;
                        }
                    }
                    i += 1;
                }
                (hist, committed, aborted)
            }));
        }
        // Snapshot cluster counters at the warmup/measure boundary so the
        // reported handover/abort counts cover only the measured window.
        let now = Instant::now();
        if now < warmup_end {
            std::thread::sleep(warmup_end - now);
        }
        warm_stats = cluster.aggregate_stats();
        per_client = threads.into_iter().map(|t| t.join().unwrap()).collect();
    });

    let final_stats = cluster.aggregate_stats();
    let net = cluster.net_stats();

    let mut latency_us = LatencyHistogram::default();
    let mut committed = 0u64;
    let mut aborted = 0u64;
    for (hist, c, a) in &per_client {
        latency_us.merge(hist);
        committed += c;
        aborted += a;
    }
    RunStats {
        committed,
        aborted,
        elapsed: opts.measure,
        latency_us,
        handovers: final_stats
            .ownership_completed
            .saturating_sub(warm_stats.ownership_completed),
        cluster_aborts: final_stats
            .txs_aborted
            .saturating_sub(warm_stats.txs_aborted),
        queue_depth_hwm: net.queue_depth_hwm,
    }
}

/// Loads a workload's objects into a cluster, each on node `home_key %
/// nodes`.
pub fn load_workload<C: ClusterDriver>(cluster: &C, workload: &impl Workload) {
    let nodes = cluster.nodes() as u64;
    for obj in workload.initial_objects() {
        let home = NodeId((obj.home_key % nodes) as u16);
        cluster.create_object(obj.id, vec![0u8; obj.size].into(), home);
    }
}

/// One prebuilt session per node, so the per-operation hot path pays a
/// routing decision instead of a session construction.
pub fn sessions_per_node<C: ClusterDriver>(cluster: &C) -> Vec<C::Session> {
    (0..cluster.nodes() as u16)
        .map(|i| cluster.handle(NodeId(i)))
        .collect()
}

/// Executes `op` through the prebuilt session of node `routing_key % nodes`
/// (see [`sessions_per_node`]), returning whether it committed.
pub fn execute_operation<S: Session>(sessions: &[S], op: &Operation) -> bool {
    let session = &sessions[(op.routing_key % sessions.len() as u64) as usize];
    if op.read_only {
        let reads = op.reads.clone();
        session
            .read_txn(move |tx| {
                let mut total = 0u64;
                for &o in &reads {
                    total += tx.read(o)?.len() as u64;
                }
                Ok(total)
            })
            .is_ok()
    } else {
        let reads = op.reads.clone();
        let writes = op.writes.clone();
        session
            .write_txn(move |tx| {
                for &o in &reads {
                    let _ = tx.read(o)?;
                }
                for &(o, size) in &writes {
                    tx.update(o, |old| {
                        let mut v = old.to_vec();
                        v.resize(size, 0);
                        v[0] = v[0].wrapping_add(1);
                        v
                    })?;
                }
                Ok(())
            })
            .is_ok()
    }
}

/// Prints a CSV header + rows helper.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    println!("{}", header.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
    println!();
}

/// The cluster sizes evaluated in the paper.
pub const PAPER_NODE_COUNTS: [usize; 2] = [3, 6];

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_workloads::SmallbankWorkload;

    #[test]
    fn histogram_merge_across_threads_preserves_counts_and_percentiles() {
        // Each "node thread" records a disjoint latency band; the merged
        // histogram must see every sample and its percentiles must span the
        // full range — this is exactly how run_instrumented aggregates
        // per-client histograms.
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut h = LatencyHistogram::default();
                    for v in 0..1_000u64 {
                        h.record(t * 100 + v % 90 + 1);
                    }
                    h
                })
            })
            .collect();
        let mut merged = LatencyHistogram::default();
        for handle in handles {
            merged.merge(&handle.join().unwrap());
        }
        assert_eq!(merged.count(), 4_000);
        assert!(merged.percentile(50.0) <= merged.percentile(99.0));
        assert!(merged.percentile(99.0) <= merged.percentile(99.9));
        // The lowest band starts at 1 us, the highest reaches ~390 us.
        assert!(merged.percentile(1.0) <= 20);
        assert!(merged.max() >= 380);
    }

    #[test]
    fn percentile_matches_exact_rank_on_unit_buckets() {
        // Values 1..=100 land in the histogram's 1 us-resolution region, so
        // percentiles are exact there: p50 of 1..=100 is 50, p99 is 99.
        let mut h = LatencyHistogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 50);
        assert_eq!(h.percentile(99.0), 99);
        assert_eq!(h.percentile(100.0), 100);
    }

    #[test]
    fn instrumented_run_records_latency_and_commits() {
        let opts = MeasureOpts {
            warmup: Duration::from_millis(30),
            measure: Duration::from_millis(150),
            clients_per_node: 1,
            ops_per_client: 500,
        };
        let stats = run_instrumented(3, &opts, |c| {
            SmallbankWorkload::new(200, 30, 0.0, 7 + c as u64)
        });
        assert!(stats.committed > 0, "no transactions committed");
        assert_eq!(
            stats.latency_us.count(),
            stats.committed + stats.aborted,
            "every measured op must be recorded exactly once"
        );
        assert!(stats.latency_us.percentile(50.0) <= stats.latency_us.percentile(99.9));
        assert!(stats.tps() > 0.0);
    }
}
