//! The four closed-loop workloads on `ThreadedCluster`.
//!
//! Closed loop, because Zeus's clients are application threads that block on
//! their own transactions: `CLIENTS` generator threads each keep at most
//! `Workload::depth()` writes in flight (reads block) and submit the next
//! operation only when a slot frees up.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bytes::Bytes;
use zeus_benchmark::gen::{Class, Op, OpGen, Workload, CLIENTS, INITIAL_BALANCE, NODES, OBJECTS};
use zeus_benchmark::trace::{Span, SpanKind, SAMPLE_EVERY};
use zeus_core::{
    LatencyHistogram, NodeId, NodeStats, ObjectId, Session, ThreadedCluster, ThreadedSession,
    TxError, TxTicket, ZeusConfig,
};
use zeus_net::NetStats;

use crate::txn;

/// A write ticket unresolved for this long counts as failed and aborts the
/// workload: the benchmark must never hang on the system it measures.
const TICKET_DEADLINE: Duration = Duration::from_secs(10);
/// Pause between polls of an unresolved ticket.
const POLL_INTERVAL: Duration = Duration::from_micros(50);
/// How long replicas get to converge before the output check gives up.
const CONVERGE_DEADLINE: Duration = Duration::from_secs(5);
/// Objects per bulk read of the output check.
const DUMP_BATCH: u64 = 1_000;

/// Transactions each client runs before the clock starts: caches fill, the
/// adaptive drain cap and RTT estimators settle. Counted into `setup_s`.
fn warmup_ops(workload: Workload) -> u64 {
    match workload {
        Workload::Handover => 4_000,
        _ => 20_000,
    }
}

/// A measured window is cut into slices of this length. Every timing metric
/// is computed per slice and reported as the median over slices: the sandbox's
/// cores change speed for seconds at a time (README, "Host noise"), and a
/// median over many short slices follows the state the host was mostly in
/// instead of averaging over whatever mix a run happened to see.
pub const SLICE: Duration = Duration::from_millis(250);

/// One measured window of a repeat.
#[derive(Debug, Clone, Copy)]
pub struct WindowPlan {
    pub duration: Duration,
    pub traced: bool,
}

/// What one client saw during one window.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    committed: u64,
    failed: u64,
    /// Nanoseconds from submission to node-side resolve, by class.
    latency: [Vec<u64>; 3],
    spans: Vec<Span>,
}

/// One slice of a window, all clients merged.
#[derive(Debug, Default, Clone)]
pub struct Slice {
    /// Sum over clients of committed ÷ that client's elapsed time.
    pub tx_per_s: f64,
    /// Nanoseconds, all classes, sorted.
    pub latency: Vec<u64>,
}

/// One window, all clients merged.
#[derive(Debug, Default)]
pub struct WindowResult {
    pub traced: bool,
    pub slices: Vec<Slice>,
    pub attempted: u64,
    pub committed: u64,
    pub failed: u64,
    /// Sorted nanoseconds of the whole window, indexed by `Class as usize`.
    pub latency: [Vec<u64>; 3],
    pub spans: Vec<Span>,
}

/// Counters sampled around the measured windows.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub at: Instant,
    pub nodes: NodeStats,
    pub net: NetStats,
}

/// One fresh cluster: set-up, the planned windows, the output checks.
#[derive(Debug)]
pub struct Repeat {
    /// Cluster start, object load, load barrier and warm-up.
    pub setup: Duration,
    /// Transactions the warm-up attempted and how many of them failed.
    pub warmup: [u64; 2],
    pub windows: Vec<WindowResult>,
    pub before: Snapshot,
    pub after: Snapshot,
    /// Ownership-request latency as the nodes measured it, since start.
    pub ownership_latency: LatencyHistogram,
    /// Median round trip of a no-op read on the idle cluster.
    pub idle_roundtrip_ns: Option<u64>,
    /// Failure of an output check, if any.
    pub check: Result<(), String>,
}

enum Stop {
    AfterOps(u64),
    At(Instant),
}

struct Pending {
    ticket: TxTicket<()>,
    op: Op,
    submitted: Instant,
    /// When `submit_write` returned; kept for sampled transactions only.
    handed: Option<(u64, Instant)>,
}

struct Client<'a> {
    id: u64,
    workload: Workload,
    sessions: Vec<ThreadedSession>,
    gen: OpGen,
    inflight: VecDeque<Pending>,
    next_tx: u64,
    /// Committed writes per object and committed balance change: what the
    /// output check compares the replicas against.
    written: Vec<u32>,
    delta_sum: i64,
    abort: &'a AtomicBool,
}

impl Client<'_> {
    fn run(&mut self, stop: Stop, traced: bool) -> Tally {
        let mut tally = Tally::default();
        let depth = self.workload.depth();
        while !self.abort.load(Ordering::Relaxed) {
            match stop {
                Stop::AfterOps(n) if tally.attempted >= n => break,
                Stop::At(deadline) if Instant::now() >= deadline => break,
                _ => {}
            }
            let tx = self.next_tx;
            self.next_tx += 1;
            let sampled = traced && tx.is_multiple_of(SAMPLE_EVERY);
            let gen_started = sampled.then(Instant::now);
            let op = self.gen.next_op();
            let submitted = Instant::now();
            if let Some(start) = gen_started {
                tally
                    .spans
                    .push(self.span(SpanKind::Gen, tx, start, submitted));
            }
            tally.attempted += 1;
            let session = &self.sessions[usize::from(op.node)];
            if op.class == Class::Read {
                let result = session.read_txn(txn::read(op));
                let resolved = Instant::now();
                if sampled {
                    tally
                        .spans
                        .push(self.span(SpanKind::Wait, tx, submitted, resolved));
                }
                let result = result.and_then(|seen| self.check_read(seen));
                self.settle(&mut tally, op, result, submitted, resolved);
            } else {
                let ticket = session.submit_write(txn::write(op));
                let handed = sampled.then(|| (tx, Instant::now()));
                if let Some((_, at)) = handed {
                    tally
                        .spans
                        .push(self.span(SpanKind::Submit, tx, submitted, at));
                }
                self.inflight.push_back(Pending {
                    ticket,
                    op,
                    submitted,
                    handed,
                });
                if self.inflight.len() >= depth {
                    self.harvest(&mut tally);
                }
            }
        }
        while !self.inflight.is_empty() {
            self.harvest(&mut tally);
        }
        tally
    }

    fn span(&self, kind: SpanKind, tx: u64, start: Instant, end: Instant) -> Span {
        Span {
            kind,
            client: self.id,
            tx,
            start,
            end,
        }
    }

    /// `replica_read` never writes, so every read must see the initial
    /// state; a wrong value counts as a failed transaction.
    fn check_read(&self, (count, balance): (u64, i64)) -> Result<(), TxError> {
        if self.workload == Workload::ReplicaRead && (count, balance) != (0, 2 * INITIAL_BALANCE) {
            eprintln!("replica_read saw counter sum {count}, balance sum {balance}");
            return Err(TxError::ValidationFailed);
        }
        Ok(())
    }

    /// Waits for the oldest in-flight write, polling so that a wedged node
    /// costs a deadline, not the run.
    fn harvest(&mut self, tally: &mut Tally) {
        let Some(mut pending) = self.inflight.pop_front() else {
            return;
        };
        let mut polls = 0u32;
        let resolved = loop {
            if let Some(resolved) = pending.ticket.try_poll_timed() {
                break Some(resolved);
            }
            // Sleep, don't spin: five threads share two cores here, and a
            // spinning client takes its core from a node loop. Measured on
            // `local_write`: spinning (with `yield_now`) 69–77k tx/s with
            // p50 between 63 and 132 us; sleeping 88–93k tx/s, p50 102–115.
            std::thread::sleep(POLL_INTERVAL);
            polls += 1;
            if polls.is_multiple_of(64) && pending.submitted.elapsed() > TICKET_DEADLINE {
                break None;
            }
        };
        match resolved {
            Some((result, at)) => {
                if let Some((tx, handed)) = pending.handed {
                    tally.spans.push(self.span(SpanKind::Wait, tx, handed, at));
                }
                self.settle(tally, pending.op, result, pending.submitted, at);
            }
            None => {
                eprintln!(
                    "client {}: ticket unresolved after {TICKET_DEADLINE:?}; aborting the workload",
                    self.id
                );
                // The timed-out ticket and everything still behind it fail.
                tally.failed += 1 + self.inflight.len() as u64;
                self.inflight.clear();
                self.abort.store(true, Ordering::Relaxed);
            }
        }
    }

    fn settle(
        &mut self,
        tally: &mut Tally,
        op: Op,
        result: Result<(), TxError>,
        submitted: Instant,
        resolved: Instant,
    ) {
        match result {
            Ok(()) => {
                tally.committed += 1;
                let nanos = resolved.saturating_duration_since(submitted).as_nanos() as u64;
                tally.latency[op.class as usize].push(nanos);
                for &(object, delta) in op.writes() {
                    self.written[object as usize] += 1;
                    self.delta_sum += delta;
                }
            }
            Err(error) => {
                if tally.failed < 5 {
                    eprintln!("client {}: {op:?} failed: {error:?}", self.id);
                }
                tally.failed += 1;
            }
        }
    }
}

/// Runs one repeat of `workload` on a fresh three-node cluster.
pub fn run_repeat(
    workload: Workload,
    seed: u64,
    plan: &[WindowPlan],
    probe_idle: bool,
) -> Result<Repeat, String> {
    let started = Instant::now();
    let cluster = ThreadedCluster::start(ZeusConfig::with_nodes(NODES as usize));
    let value = Bytes::from(txn::initial_value());
    for object in 0..OBJECTS {
        let owner = NodeId(workload.home(object) as u16);
        cluster.create_object(ObjectId(object), value.clone(), owner);
    }
    // `create_object` is fire-and-forget, but a node serves its commands in
    // order: once every node answers a read of the last object created, all
    // of them are loaded.
    let last = Op::new(0, Class::Read, &[OBJECTS - 1], &[]);
    for node in 0..NODES {
        let seen = cluster
            .handle(NodeId(node as u16))
            .read_txn(txn::read(last));
        if seen != Ok((0, INITIAL_BALANCE)) {
            return Err(format!("load barrier on node {node}: {seen:?}"));
        }
    }

    let abort = AtomicBool::new(false);
    let barrier = Barrier::new(CLIENTS as usize + 1);
    let snapshot = || Snapshot {
        at: Instant::now(),
        nodes: cluster.aggregate_stats(),
        net: cluster.net_stats(),
    };
    let (setup, idle_roundtrip_ns, before, after, clients) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let mut client = Client {
                    id,
                    workload,
                    sessions: (0..NODES)
                        .map(|n| cluster.handle(NodeId(n as u16)))
                        .collect(),
                    gen: OpGen::new(workload, seed, id),
                    inflight: VecDeque::new(),
                    next_tx: 0,
                    written: vec![0; OBJECTS as usize],
                    delta_sum: 0,
                    abort: &abort,
                };
                let barrier = &barrier;
                scope.spawn(move || {
                    let warmup = client.run(Stop::AfterOps(warmup_ops(workload)), false);
                    barrier.wait();
                    let mut windows = Vec::new();
                    for window in plan {
                        barrier.wait();
                        let end = Instant::now() + window.duration;
                        let mut slices = Vec::new();
                        // After a ticket timeout `run` returns at once: stop
                        // slicing, but still meet the barriers below.
                        while Instant::now() + SLICE / 2 < end
                            && !client.abort.load(Ordering::Relaxed)
                        {
                            let start = Instant::now();
                            let tally = client.run(Stop::At(start + SLICE), window.traced);
                            slices.push((tally, start.elapsed()));
                        }
                        windows.push(slices);
                        barrier.wait();
                    }
                    (
                        [warmup.attempted, warmup.failed],
                        windows,
                        client.written,
                        client.delta_sum,
                    )
                })
            })
            .collect();
        barrier.wait();
        let setup = started.elapsed();
        let idle = probe_idle.then(|| idle_roundtrip(&cluster));
        let before = snapshot();
        for _ in plan {
            barrier.wait();
            barrier.wait();
        }
        let after = snapshot();
        let clients: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (setup, idle, before, after, clients)
    });

    // Merge the clients, window by window and slice by slice.
    let mut windows: Vec<WindowResult> = plan
        .iter()
        .map(|window| WindowResult {
            traced: window.traced,
            ..WindowResult::default()
        })
        .collect();
    let mut written = vec![0u32; OBJECTS as usize];
    let mut delta_sum = 0i64;
    let mut warmup = [0; 2];
    for (client_warmup, client_windows, client_written, client_delta) in clients {
        warmup[0] += client_warmup[0];
        warmup[1] += client_warmup[1];
        for (merged, slices) in windows.iter_mut().zip(client_windows) {
            for (j, (tally, elapsed)) in slices.into_iter().enumerate() {
                if merged.slices.len() <= j {
                    merged.slices.push(Slice::default());
                }
                let slice = &mut merged.slices[j];
                slice.tx_per_s += tally.committed as f64 / elapsed.as_secs_f64();
                slice.latency.extend(tally.latency.iter().flatten());
                merged.attempted += tally.attempted;
                merged.committed += tally.committed;
                merged.failed += tally.failed;
                for (all, mine) in merged.latency.iter_mut().zip(tally.latency) {
                    all.extend(mine);
                }
                merged.spans.extend(tally.spans);
            }
        }
        for (total, mine) in written.iter_mut().zip(client_written) {
            *total += mine;
        }
        delta_sum += client_delta;
    }
    for window in &mut windows {
        window.latency.iter_mut().for_each(|l| l.sort_unstable());
        window
            .slices
            .iter_mut()
            .for_each(|s| s.latency.sort_unstable());
    }

    let mut ownership_latency = LatencyHistogram::default();
    for node in 0..NODES {
        let (_, latency) = cluster
            .handle(NodeId(node as u16))
            .stats()
            .map_err(|e| format!("stats of node {node}: {e:?}"))?;
        ownership_latency.merge(&latency);
    }

    let mut check = if abort.load(Ordering::Relaxed) {
        Err("a ticket timed out; the workload was aborted".to_string())
    } else {
        check_replicas(&cluster, &written, delta_sum)
    };
    if check.is_ok() && workload == Workload::LocalWrite && after.nodes.ownership_completed != 0 {
        check = Err(format!(
            "local_write completed {} ownership requests; it must need none",
            after.nodes.ownership_completed
        ));
    }
    cluster.shutdown();
    Ok(Repeat {
        setup,
        warmup,
        windows,
        before,
        after,
        ownership_latency,
        idle_roundtrip_ns,
        check,
    })
}

/// Median round trip of a no-op read while nothing else runs: the floor the
/// command queue and the node loop's wake-up put under every latency.
fn idle_roundtrip(cluster: &ThreadedCluster) -> u64 {
    let session = cluster.handle(NodeId(0));
    let mut nanos: Vec<u64> = (0..2_000)
        .map(|_| {
            let start = Instant::now();
            let _ = session.read_txn(|_| Ok(()));
            start.elapsed().as_nanos() as u64
        })
        .collect();
    nanos.sort_unstable();
    nanos[nanos.len() / 2]
}

/// Every node's copy of every object must carry exactly the committed write
/// count, and the balances must add up; replicas get `CONVERGE_DEADLINE` to
/// apply what is still in flight.
fn check_replicas(
    cluster: &ThreadedCluster,
    written: &[u32],
    delta_sum: i64,
) -> Result<(), String> {
    let deadline = Instant::now() + CONVERGE_DEADLINE;
    loop {
        match check_replicas_once(cluster, written, delta_sum) {
            Ok(()) => return Ok(()),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn check_replicas_once(
    cluster: &ThreadedCluster,
    written: &[u32],
    delta_sum: i64,
) -> Result<(), String> {
    for node in 0..NODES {
        let session = cluster.handle(NodeId(node as u16));
        let mut total = 0i64;
        for start in (0..OBJECTS).step_by(DUMP_BATCH as usize) {
            let range = start..(start + DUMP_BATCH).min(OBJECTS);
            let bytes = session
                .read_txn(txn::dump(range.clone()))
                .map_err(|e| format!("node {node}: reading {range:?}: {e:?}"))?;
            for (object, (count, balance)) in range.zip(txn::undump(&bytes)) {
                if count != u64::from(written[object as usize]) {
                    return Err(format!(
                        "node {node}, object {object}: {count} writes applied, {} committed",
                        written[object as usize]
                    ));
                }
                total += balance;
            }
        }
        let expected = OBJECTS as i64 * INITIAL_BALANCE + delta_sum;
        if total != expected {
            return Err(format!(
                "node {node}: balances sum to {total}, expected {expected}"
            ));
        }
    }
    Ok(())
}
