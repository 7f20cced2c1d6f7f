//! `sim_protocol`: a fixed protocol script on the deterministic simulator.
//!
//! The script draws nothing from a random generator — node roles rotate
//! round-robin — so every count it reports is a constant of the protocol
//! implementation, identical on every run and every seed. The seed only
//! varies the amounts written. Wall-clock time of the same script is the
//! workload's end-to-end measurement: the whole protocol stack on one
//! thread, with no scheduler in the way.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use bytes::Bytes;
use zeus_benchmark::gen::{Class, Op, INITIAL_BALANCE};
use zeus_benchmark::trace::{Span, SpanKind, SAMPLE_EVERY};
use zeus_core::node::RequestState;
use zeus_core::{ClusterDriver, NodeId, ObjectId, Session, SimCluster, TxError, ZeusConfig};
use zeus_net::{NetConfig, NetStats};
use zeus_proto::OwnershipRequestKind;

use crate::txn;

const NODES: u64 = 5;
/// One-way delay in ticks; a round trip is twice that.
const DELAY: u64 = 10;
const RTT: f64 = (2 * DELAY) as f64;

/// Transactions per block; the script settles the network after each block.
/// Without that, hundreds of thousands of unsettled pipelined commits make a
/// single final `quiesce()` take longer than the run (see README, findings).
pub const BLOCK: u64 = 16;
/// Blocks in the bulk phase.
const BLOCKS: u64 = 1_250;
/// Isolated, individually measured operations per kind.
const ISOLATED: u64 = 60;

/// Objects written locally and read at replicas.
const STEADY: u64 = 1_000;
/// Objects that move between the three members of their replica set.
const MOVING: u64 = 1_000;
/// Objects a non-replica acquires (once each: afterwards it is a replica).
const FRESH: u64 = BLOCKS + ISOLATED;
// Moves of one object are spaced by a settle, isolated or in bulk.
const _: () = assert!(MOVING >= 3 * BLOCK);
const OBJECTS: u64 = STEADY + MOVING + FRESH;
/// The steady object whose owner the script crashes at the end.
const VICTIM: u64 = 0;

/// Exact protocol costs of one script execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Costs {
    pub msgs_per_tx: f64,
    pub bytes_per_tx: f64,
    pub commit_rtts: f64,
    pub handover_rtts: f64,
    pub session_handover_rtts: f64,
    pub failover_ticks: f64,
    pub msgs_per_local_write: f64,
    pub bytes_per_local_write: f64,
    pub msgs_per_read: f64,
    pub msgs_per_handover_reader: f64,
    pub msgs_per_handover_nonreplica: f64,
    pub bytes_per_handover_nonreplica: f64,
    pub rtts_nonreplica: f64,
    pub commit_retransmits: f64,
    pub ownership_retransmits: f64,
    pub ownership_nacks: f64,
    pub view_changes: f64,
    pub msgs_delivered: u64,
}

/// One execution of the script.
#[derive(Debug)]
pub struct ScriptRun {
    pub costs: Costs,
    /// Cluster creation and object load.
    pub setup: Duration,
    /// The script itself (isolated phase, bulk phase, crash).
    pub elapsed: Duration,
    pub attempted: u64,
    pub failed: u64,
    /// Wall-clock nanoseconds per transaction, one sample per bulk block
    /// (the block with its settle, divided by `BLOCK`).
    pub block_tx_nanos: Vec<u64>,
    /// Spans of a traced execution: one transaction in 16, every settle.
    pub spans: Vec<Span>,
}

struct Script {
    sim: SimCluster,
    sessions: Vec<<SimCluster as ClusterDriver>::Session>,
    amount: i64,
    attempted: u64,
    failed: u64,
    /// How often each moving object has moved (its owner is
    /// `home + moves` modulo its three-member replica set).
    moves: Vec<u64>,
    next_fresh: u64,
    written: Vec<u32>,
    delta_sum: i64,
    /// `Some` in a traced execution.
    spans: Option<Vec<Span>>,
}

fn home(object: u64) -> u64 {
    object % NODES
}

impl Script {
    fn count(&mut self, result: Result<(), TxError>, writes: &[(u64, i64)]) {
        self.attempted += 1;
        match result {
            Ok(()) => {
                for &(object, delta) in writes {
                    self.written[object as usize] += 1;
                    self.delta_sum += delta;
                }
            }
            Err(_) => self.failed += 1,
        }
    }

    fn write(&mut self, node: u64, object: u64) {
        let op = Op::new(node, Class::Write, &[], &[(object, self.amount)]);
        let start = Instant::now();
        let result = self.sessions[node as usize].write_txn(txn::write(op));
        self.span(SpanKind::Wait, start);
        self.count(result, op.writes());
    }

    /// A write at the owner of steady object `i`.
    fn local_write(&mut self, i: u64) -> u64 {
        let object = i % STEADY;
        self.write(home(object), object);
        home(object)
    }

    /// A read-only transaction of two steady objects at a reader of both.
    fn replica_read(&mut self, i: u64) {
        // Objects o and o+1 are homed on h and h+1; h+2 is a reader of both.
        let object = i % (STEADY - 1);
        let node = (home(object) + 2) % NODES;
        let expect = self.written[object as usize] + self.written[object as usize + 1];
        self.attempted += 1;
        let op = Op::new(node, Class::Read, &[object, object + 1], &[]);
        let start = Instant::now();
        let seen = self.sessions[node as usize].read_txn(txn::read(op));
        self.span(SpanKind::Wait, start);
        match seen {
            // Replication is asynchronous: a replica may not have seen the
            // latest commits yet, but never more than were committed.
            Ok((count, _)) if count <= u64::from(expect) => {}
            _ => self.failed += 1,
        }
    }

    /// The next reader in the replica set of moving object `i`, and the
    /// object: that node's write needs a reader→owner handover.
    fn next_reader_move(&mut self, i: u64) -> (u64, u64) {
        let slot = i % MOVING;
        let object = STEADY + slot;
        self.moves[slot as usize] += 1;
        (
            (home(object) + self.moves[slot as usize] % 3) % NODES,
            object,
        )
    }

    /// A node that holds no replica of a fresh object, and the object: that
    /// node's write needs a handover that ships the value.
    fn next_nonreplica_move(&mut self) -> (u64, u64) {
        let object = STEADY + MOVING + self.next_fresh;
        self.next_fresh += 1;
        ((home(object) + 3) % NODES, object)
    }

    fn handover_reader(&mut self, i: u64) {
        let (node, object) = self.next_reader_move(i);
        self.write(node, object);
    }

    fn handover_nonreplica(&mut self) {
        let (node, object) = self.next_nonreplica_move();
        self.write(node, object);
    }

    /// Drives an ownership acquisition by stepping the network only — no
    /// session in between — and returns the simulated ticks it took.
    fn acquire(&mut self, node: u64, object: u64) -> Result<u64, String> {
        let node = NodeId(node as u16);
        let t0 = self.sim.now();
        let request = self
            .sim
            .node_mut(node)
            .acquire(ObjectId(object), OwnershipRequestKind::AcquireOwner);
        for _ in 0..1_000 {
            let state = self.sim.node(node).request_state(request);
            match state {
                RequestState::Completed => return Ok(self.sim.now() - t0),
                RequestState::Pending => self.sim.step(),
                RequestState::Failed(reason) => {
                    return Err(format!("acquisition of {object} at {node:?}: {reason:?}"))
                }
            };
        }
        Err(format!(
            "acquisition of {object} at {node:?} did not complete"
        ))
    }

    fn settle(&mut self) {
        let start = Instant::now();
        self.sim.quiesce();
        self.span(SpanKind::Settle, start);
    }

    /// Records a span ending now, for the transaction just attempted (one
    /// in `SAMPLE_EVERY`) or for a settle (all of them).
    fn span(&mut self, kind: SpanKind, start: Instant) {
        let tx = self.attempted;
        if let Some(spans) = &mut self.spans {
            if kind == SpanKind::Settle || tx.is_multiple_of(SAMPLE_EVERY) {
                spans.push(Span {
                    kind,
                    client: 0,
                    tx,
                    start,
                    end: Instant::now(),
                });
            }
        }
    }

    fn net(&self) -> NetStats {
        self.sim.net_stats()
    }
}

fn delta(after: &NetStats, before: &NetStats) -> (f64, f64) {
    (
        (after.messages_sent - before.messages_sent) as f64,
        (after.bytes_sent - before.bytes_sent) as f64,
    )
}

/// Runs the script once on a fresh simulated cluster.
pub fn run_script(seed: u64, traced: bool) -> Result<ScriptRun, String> {
    let started = Instant::now();
    let sim = SimCluster::with_network(
        ZeusConfig::with_nodes(NODES as usize),
        NetConfig::reliable(DELAY),
    );
    let value = Bytes::from(txn::initial_value());
    for object in 0..OBJECTS {
        sim.create_object(ObjectId(object), value.clone(), NodeId(home(object) as u16));
    }
    let sessions = (0..NODES).map(|n| sim.handle(NodeId(n as u16))).collect();
    sim.quiesce();
    let setup = started.elapsed();

    let script_started = Instant::now();
    let mut costs = Costs::default();
    let mut s = Script {
        sim,
        sessions,
        amount: 1 + (seed % 100) as i64,
        attempted: 0,
        failed: 0,
        moves: vec![0; MOVING as usize],
        next_fresh: 0,
        written: vec![0; OBJECTS as usize],
        delta_sum: 0,
        spans: traced.then(Vec::new),
    };

    // Phase 1: each kind of transaction on a quiet network, one at a time.
    // Sums first, one division at the end, so the averages are exact.
    let n = ISOLATED as f64;
    for i in 0..ISOLATED {
        let before = s.net();
        let t0 = s.sim.now();
        let coordinator = NodeId(s.local_write(i) as u16);
        while s.sim.node(coordinator).outstanding_commits() > 0 {
            s.sim.step();
        }
        costs.commit_rtts += (s.sim.now() - t0) as f64;
        s.settle();
        let (msgs, bytes) = delta(&s.net(), &before);
        costs.msgs_per_local_write += msgs;
        costs.bytes_per_local_write += bytes;
    }
    for i in 0..ISOLATED {
        let before = s.net();
        s.replica_read(i);
        s.settle();
        costs.msgs_per_read += delta(&s.net(), &before).0;
    }
    for i in 0..ISOLATED {
        let before = s.net();
        let (node, object) = s.next_reader_move(i);
        costs.handover_rtts += s.acquire(node, object)? as f64;
        s.settle();
        costs.msgs_per_handover_reader += delta(&s.net(), &before).0;
        s.write(node, object);
        s.settle();
    }
    for i in ISOLATED..2 * ISOLATED {
        // The same move through the session: what a SimSession client sees.
        let t0 = s.sim.now();
        s.handover_reader(i);
        costs.session_handover_rtts += (s.sim.now() - t0) as f64;
        s.settle();
    }
    for _ in 0..ISOLATED {
        let before = s.net();
        let (node, object) = s.next_nonreplica_move();
        costs.rtts_nonreplica += s.acquire(node, object)? as f64;
        s.settle();
        let (msgs, bytes) = delta(&s.net(), &before);
        costs.msgs_per_handover_nonreplica += msgs;
        costs.bytes_per_handover_nonreplica += bytes;
        s.write(node, object);
        s.settle();
    }
    for ticks in [
        &mut costs.commit_rtts,
        &mut costs.handover_rtts,
        &mut costs.session_handover_rtts,
        &mut costs.rtts_nonreplica,
    ] {
        *ticks /= RTT * n;
    }
    for count in [
        &mut costs.msgs_per_local_write,
        &mut costs.bytes_per_local_write,
        &mut costs.msgs_per_read,
        &mut costs.msgs_per_handover_reader,
        &mut costs.msgs_per_handover_nonreplica,
        &mut costs.bytes_per_handover_nonreplica,
    ] {
        *count /= n;
    }

    // Phase 2: the bulk mix, settled once per block.
    let before = s.net();
    let attempted_before = s.attempted;
    let mut block_tx_nanos = Vec::with_capacity(BLOCKS as usize);
    for block in 0..BLOCKS {
        let t0 = Instant::now();
        for i in 0..8 {
            s.local_write(block * 8 + i);
        }
        for i in 0..4 {
            s.replica_read(block * 4 + i);
        }
        for i in 0..3 {
            s.handover_reader(block * 3 + i);
        }
        s.handover_nonreplica();
        s.settle();
        block_tx_nanos.push(t0.elapsed().as_nanos() as u64 / BLOCK);
    }
    let (msgs, bytes) = delta(&s.net(), &before);
    let bulk = (s.attempted - attempted_before) as f64;
    costs.msgs_per_tx = msgs / bulk;
    costs.bytes_per_tx = bytes / bulk;

    // Phase 3: crash the owner of a steady object; a reader of it writes.
    let crashed_at = s.sim.now();
    let epoch_before = s.sim.node(NodeId(1)).epoch().0;
    s.sim
        .admin()
        .crash(NodeId(home(VICTIM) as u16))
        .map_err(|e| format!("crash: {e}"))?;
    s.write((home(VICTIM) + 1) % NODES, VICTIM);
    costs.failover_ticks = (s.sim.now() - crashed_at) as f64;
    s.settle();
    costs.view_changes = (s.sim.node(NodeId(1)).epoch().0 - epoch_before) as f64;
    let elapsed = script_started.elapsed();

    for n in (0..NODES).filter(|&n| n != home(VICTIM)) {
        let node = s.sim.node(NodeId(n as u16));
        let (commit, own) = (node.commit_stats(), node.ownership_stats());
        costs.commit_retransmits +=
            (commit.rinvs_retransmitted + commit.rvals_retransmitted) as f64;
        costs.ownership_retransmits += own.requests_retransmitted as f64;
        costs.ownership_nacks += (own.requests_failed + own.requests_retried) as f64;
    }
    costs.msgs_delivered = s.net().messages_delivered;

    s.sim
        .check_invariants()
        .map_err(|e| format!("check_invariants: {e}"))?;
    verify(&s)?;
    Ok(ScriptRun {
        costs,
        setup,
        elapsed,
        attempted: s.attempted,
        failed: s.failed,
        block_tx_nanos,
        spans: s.spans.take().unwrap_or_default(),
    })
}

/// What one `canary()` takes in the state this sandbox is in most of the
/// time, so that scaled and unscaled timings agree there.
pub const CANARY_REFERENCE: Duration = Duration::from_micros(4_500);

/// Times a fixed piece of the benchmark's own work of the kind the simulator
/// does: hash-map and B-tree updates, small allocations, 128-byte copies.
/// `sim_protocol` runs on one thread and follows the speed of its core, which
/// on this sandbox changes by a quarter either way for tens of seconds
/// (README, "Host noise"); the canary, run after every script execution,
/// follows it too, and the end-to-end timings are scaled by it.
pub fn canary() -> Duration {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut values: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut recent: BTreeMap<u64, u8> = BTreeMap::new();
    for i in 0..60_000_u64 {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let value = values
            .entry(x.wrapping_mul(0x2545_F491_4F6C_DD1D) % 4_096)
            .or_insert_with(|| vec![0; 128]);
        let byte = &mut value[(i % 128) as usize];
        *byte = byte.wrapping_add(1);
        let copy = value.clone();
        recent.insert(i, copy[0]);
        if i >= 64 {
            recent.remove(&(i - 64));
        }
    }
    std::hint::black_box((values, recent));
    start.elapsed()
}

/// Every surviving node's copy of every object carries the write count and
/// balance the script committed.
fn verify(s: &Script) -> Result<(), String> {
    let dead = home(VICTIM);
    let mut total = 0i64;
    for object in 0..OBJECTS {
        let mut seen = None;
        for node in (0..NODES).filter(|&n| n != dead) {
            // Non-replicas answer NotReplicated; replicas must agree.
            let op = Op::new(node, Class::Read, &[object], &[]);
            if let Ok((count, balance)) = s.sessions[node as usize].read_txn(txn::read(op)) {
                if count != u64::from(s.written[object as usize]) {
                    return Err(format!(
                        "object {object} on node {node}: {count} writes, script committed {}",
                        s.written[object as usize]
                    ));
                }
                seen = Some(balance);
            }
        }
        total += seen.ok_or_else(|| format!("object {object} has no live replica"))?;
    }
    let expected = OBJECTS as i64 * INITIAL_BALANCE + s.delta_sum;
    if total != expected {
        return Err(format!("total balance {total}, expected {expected}"));
    }
    Ok(())
}

/// The 0% gate on the exact protocol costs: each may not exceed its ceiling.
/// The first four ceilings are the paper's claims (§4–§5: a replica read
/// sends nothing, a commit takes one round trip, a handover 1.5); the rest
/// are the values measured when the benchmark was defined, so a change that
/// lowers a cost passes and one that raises it fails the run.
pub fn check_claims(costs: &Costs) -> Result<(), String> {
    let ceilings = [
        ("net.msgs_per_read", costs.msgs_per_read, 0.0),
        ("sim.commit_rtts", costs.commit_rtts, 1.0),
        ("sim.handover_rtts", costs.handover_rtts, 1.5),
        ("ownership.rtts_nonreplica", costs.rtts_nonreplica, 1.5),
        (
            "sim.session_handover_rtts",
            costs.session_handover_rtts,
            3.0,
        ),
        ("sim.msgs_per_tx", costs.msgs_per_tx, 8.2863),
        ("sim.bytes_per_tx", costs.bytes_per_tx, 1034.6805),
        ("sim.failover_ticks", costs.failover_ticks, 100.0),
        ("net.msgs_per_local_write", costs.msgs_per_local_write, 7.2),
        (
            "net.bytes_per_local_write",
            costs.bytes_per_local_write,
            51_322.0 / 60.0,
        ),
        (
            "net.msgs_per_handover_reader",
            costs.msgs_per_handover_reader,
            12.6,
        ),
        (
            "net.msgs_per_handover_nonreplica",
            costs.msgs_per_handover_nonreplica,
            13.0,
        ),
        (
            "net.bytes_per_handover_nonreplica",
            costs.bytes_per_handover_nonreplica,
            1492.7,
        ),
    ];
    for (name, measured, ceiling) in ceilings {
        // The costs are quotients of whole counts; the slack only absorbs
        // the last bit of the division.
        if measured > ceiling * (1.0 + 1e-12) {
            return Err(format!("{name} = {measured} exceeds its ceiling {ceiling}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cost_above_its_ceiling_fails_the_run() {
        let measured = run_script(42, false).expect("script").costs;
        assert_eq!(check_claims(&measured), Ok(()));
        let worse = Costs {
            msgs_per_local_write: measured.msgs_per_local_write + 1.0 / 60.0,
            ..measured
        };
        assert!(check_claims(&worse).is_err());
    }
}
