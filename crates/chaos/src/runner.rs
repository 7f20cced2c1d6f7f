//! Schedule execution and the oracle layer.
//!
//! [`run_schedule`] replays a [`Schedule`] on a deterministic
//! [`SimCluster`] and checks, during and after the run:
//!
//! 1. **History oracle** — every committed value is tagged with a globally
//!    unique 8-byte id, giving each object a totally ordered write log
//!    (Zeus serializes per object). Committed reads must return a value
//!    from that log (integrity) and must never move backwards in it
//!    (monotonicity): reads only observe reliably-committed values, so a
//!    read of write *k* after any read of write *j > k* is a
//!    serializability violation.
//! 2. **Convergence / durability** — at quiescence every live `Valid`
//!    replica must be at or past the newest observed write, and committed
//!    writes newer than the converged value may only be missing if their
//!    coordinator was at risk (crashed, cut off, or expelled) after
//!    committing them — the documented crash-of-coordinator semantics.
//! 3. **Cluster invariants** — the TLA+-derived checks of
//!    [`SimCluster::check_invariants`] (single owner, replica agreement,
//!    directory agreement).
//! 4. **Membership convergence** — after the final heal, every non-crashed
//!    node must land in the same epoch; a node wedged in an old epoch is
//!    the fig11-class expulsion wedge.
//! 5. **Liveness** — the cluster must reach quiescence within the settle
//!    budget once all link faults are healed.
//!
//! A run is deterministic: replaying the same schedule yields the same
//! [`RunOutcome`], including the violation (if any).

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::Bytes;
use zeus_core::{ClusterDriver, NodeId, ObjectId, Session, SimCluster, ZeusConfig};
use zeus_net::sim::{LinkOverride, NetConfig};
use zeus_proto::{DataTs, PolicyKind, TState};

use crate::schedule::{ChaosStep, Schedule};

/// Options controlling a schedule run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Whether falsely-suspected nodes are re-admitted on heartbeat (the
    /// production default). The acceptance test flips this to re-create the
    /// pre-fix expulsion wedge and prove the oracles catch it.
    pub readmit_suspects: bool,
    /// Step budget of the final (oracle) settle.
    pub settle_budget: usize,
    /// Placement policy each node runs during the schedule. The default
    /// (`Reactive`) keeps every existing corpus replay bit-identical; the
    /// policy-churn profile flips this to `Predictive` so locality-engine
    /// actions race the injected faults under the same oracles.
    pub policy: PolicyKind,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            readmit_suspects: true,
            settle_budget: 150_000,
            policy: PolicyKind::Reactive,
        }
    }
}

/// An oracle violation found by a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Violation class (`history`, `invariant`, `membership`, `liveness`,
    /// `panic`).
    pub kind: String,
    /// Human-readable description.
    pub detail: String,
    /// Index of the schedule step active when the violation was detected
    /// (`None` for end-of-run oracle checks).
    pub step: Option<usize>,
}

impl Violation {
    fn new(kind: &str, detail: impl Into<String>, step: Option<usize>) -> Self {
        Violation {
            kind: kind.into(),
            detail: detail.into(),
            step,
        }
    }
}

zeus_proto::counters! {
    /// Deterministic per-run statistics.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct RunStats {
        /// Committed write transactions (including hot-burst rounds).
        pub committed_writes: u64,
        /// Committed read-only transactions.
        pub committed_reads: u64,
        /// Operations that failed (fenced node, exhausted retries, missing
        /// replica, ...). Failures are recorded, not violations.
        pub failed_ops: u64,
        /// Operations skipped because their target node was crashed.
        pub skipped_ops: u64,
        /// Simulated duration of the run in ticks.
        pub sim_ticks: u64,
        /// Completed ownership acquisitions across live nodes.
        pub handovers: u64,
        /// Aborted transactions across live nodes.
        pub aborts: u64,
    }
}

/// Result of replaying one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Deterministic run statistics.
    pub stats: RunStats,
    /// The first violation found, if any.
    pub violation: Option<Violation>,
}

impl RunOutcome {
    /// Whether the run passed every oracle.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

/// Replays `schedule` and runs the oracle layer. Panics inside the
/// simulated cluster are converted into `panic` violations so the explorer
/// and shrinker can treat them like any other failure.
pub fn run_schedule(schedule: &Schedule, opts: &RunOptions) -> RunOutcome {
    match catch_unwind(AssertUnwindSafe(|| Harness::new(schedule, opts).run())) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            RunOutcome {
                stats: RunStats::default(),
                violation: Some(Violation::new("panic", msg, None)),
            }
        }
    }
}

/// Per-object write log entry.
struct WriteRec {
    coordinator: Option<u16>,
    /// Whether losing this write is excusable: its coordinator was at risk
    /// (crashed / cut off / expelled) at some point after the commit.
    excusable: bool,
    /// Owner-qualified commit timestamp the coordinator assigned to this
    /// write (read off its store right after the local commit; `None` only
    /// if the entry vanished before it could be sampled). Keys the
    /// per-object order oracle: committed writes of one object must carry
    /// unique, and — for writes whose loss is not excusable — strictly
    /// increasing `DataTs`, which kills the version-fork class by
    /// construction.
    ts: Option<DataTs>,
}

struct Harness<'a> {
    schedule: &'a Schedule,
    settle_budget: usize,
    cluster: SimCluster,
    stats: RunStats,
    /// Value id → (object, index in the object's write log).
    values: HashMap<u64, (u64, usize)>,
    /// Per-object write log; index 0 is the initial value.
    log: HashMap<u64, Vec<WriteRec>>,
    /// Per-object high-water mark of observed (read) write indices.
    hwm: HashMap<u64, usize>,
    next_value: u64,
    crashed: HashSet<u16>,
    /// Directed cut pairs currently active (runner-side mirror).
    cut_pairs: HashSet<(u16, u16)>,
    /// Nodes currently known to be at risk (for excusability marking).
    at_risk: HashSet<u16>,
}

impl<'a> Harness<'a> {
    fn new(schedule: &'a Schedule, opts: &RunOptions) -> Self {
        let mut config = ZeusConfig::with_nodes(schedule.nodes as usize);
        config.lease_ticks = schedule.lease_ticks.max(1);
        config.readmit_suspects = opts.readmit_suspects;
        // Bound per-op latency: chaos schedules tolerate failed ops, and a
        // wedged acquisition retrying 256 times would dominate the run.
        config.max_ownership_retries = 8;
        config.policy = opts.policy;
        if opts.policy == PolicyKind::Predictive {
            // Tick the engine well inside a lease so placement actions and
            // fault-driven view changes genuinely interleave.
            config.policy_interval_ticks = (schedule.lease_ticks / 4).max(1);
            config.policy_budget = 4;
        }
        let net = NetConfig {
            min_delay: schedule.net.min_delay.max(1),
            max_delay: schedule.net.max_delay.max(schedule.net.min_delay.max(1)),
            drop_probability: schedule.net.drop_probability,
            duplicate_probability: schedule.net.duplicate_probability,
            seed: schedule.net.seed,
            link_overrides: schedule
                .net
                .links
                .iter()
                .map(
                    |&(from, to, min_delay, max_delay, drop_probability)| LinkOverride {
                        from: NodeId(from),
                        to: NodeId(to),
                        min_delay,
                        max_delay: max_delay.max(min_delay),
                        drop_probability,
                    },
                )
                .collect(),
        };
        Harness {
            schedule,
            settle_budget: opts.settle_budget,
            cluster: SimCluster::with_network(config, net),
            stats: RunStats::default(),
            values: HashMap::new(),
            log: HashMap::new(),
            hwm: HashMap::new(),
            next_value: 0,
            crashed: HashSet::new(),
            cut_pairs: HashSet::new(),
            at_risk: HashSet::new(),
        }
    }

    fn alloc_value(&mut self, object: u64, coordinator: Option<u16>) -> u64 {
        let value = self.next_value;
        self.next_value += 1;
        let log = self.log.entry(object).or_default();
        let excusable = coordinator.is_some_and(|c| self.at_risk.contains(&c));
        log.push(WriteRec {
            coordinator,
            excusable,
            ts: None,
        });
        self.values.insert(value, (object, log.len() - 1));
        value
    }

    fn encode(value: u64) -> Bytes {
        Bytes::from(value.to_be_bytes().to_vec())
    }

    fn decode(data: &Bytes) -> Option<u64> {
        <[u8; 8]>::try_from(data.as_ref())
            .ok()
            .map(u64::from_be_bytes)
    }

    fn valid_node(&self, node: u16) -> bool {
        node < self.schedule.nodes
    }

    /// The highest epoch among non-crashed nodes identifies the
    /// authoritative view (epochs are unique per install).
    fn authoritative(&self) -> (zeus_proto::Epoch, NodeId) {
        (0..self.schedule.nodes)
            .filter(|n| !self.crashed.contains(n))
            .map(|n| (self.cluster.node(NodeId(n)).epoch(), NodeId(n)))
            .max_by_key(|(e, _)| *e)
            .expect("at least one non-crashed node")
    }

    /// Recomputes the at-risk set and marks existing writes of newly
    /// at-risk coordinators excusable.
    fn refresh_at_risk(&mut self) {
        let (_, auth_node) = self.authoritative();
        let auth_view = self.cluster.node(auth_node).cluster_view().clone();
        let mut now_at_risk: HashSet<u16> = HashSet::new();
        for n in 0..self.schedule.nodes {
            let cut = self.cut_pairs.iter().any(|&(a, b)| a == n || b == n);
            if self.crashed.contains(&n) || cut || !auth_view.is_live(NodeId(n)) {
                now_at_risk.insert(n);
            }
        }
        for &n in &now_at_risk {
            if !self.at_risk.contains(&n) {
                for log in self.log.values_mut() {
                    for rec in log.iter_mut() {
                        if rec.coordinator == Some(n) {
                            rec.excusable = true;
                        }
                    }
                }
            }
        }
        self.at_risk = now_at_risk;
    }

    /// Whether reads at `node` count toward the monotonicity high-water
    /// mark: the node must not be at risk and must be in the authoritative
    /// epoch. (Reads at at-risk nodes are still integrity-checked.)
    fn read_eligible(&self, node: u16) -> bool {
        let (auth_epoch, _) = self.authoritative();
        !self.at_risk.contains(&node) && self.cluster.node(NodeId(node)).epoch() == auth_epoch
    }

    fn do_write(&mut self, node: u16, object: u64) -> Option<Violation> {
        if !self.valid_node(node) || object >= self.schedule.objects {
            self.stats.skipped_ops += 1;
            return None;
        }
        if self.crashed.contains(&node) {
            self.stats.skipped_ops += 1;
            return None;
        }
        let value = self.alloc_value(object, Some(node));
        let data = Self::encode(value);
        match self
            .cluster
            .handle(NodeId(node))
            .write_txn(move |tx| tx.write(ObjectId(object), data.clone()))
        {
            Ok(()) => {
                self.stats.committed_writes += 1;
                // Sample the commit timestamp the coordinator assigned.
                // Steps run sequentially, so right after the commit the
                // owner's entry still holds exactly this write's DataTs.
                let ts = self
                    .cluster
                    .node(NodeId(node))
                    .store()
                    .get(ObjectId(object))
                    .map(|e| e.ts);
                if let Some((obj, idx)) = self.values.get(&value).copied() {
                    self.log.get_mut(&obj).expect("log exists")[idx].ts = ts;
                }
            }
            Err(_) => {
                self.stats.failed_ops += 1;
                // The write never committed: remove it from the log so the
                // integrity oracle treats any appearance of the value as a
                // violation (a resurrected aborted write).
                if let Some((obj, idx)) = self.values.get(&value).copied() {
                    let log = self.log.get_mut(&obj).expect("log exists");
                    if idx == log.len() - 1 {
                        log.pop();
                        self.values.remove(&value);
                    } else {
                        // Later writes were appended meanwhile (cannot
                        // happen — ops are sequential — but stay safe).
                        log[idx].excusable = true;
                    }
                }
            }
        }
        None
    }

    fn do_read(&mut self, node: u16, object: u64, step: usize) -> Option<Violation> {
        if !self.valid_node(node) || object >= self.schedule.objects {
            self.stats.skipped_ops += 1;
            return None;
        }
        if self.crashed.contains(&node) {
            self.stats.skipped_ops += 1;
            return None;
        }
        match self
            .cluster
            .handle(NodeId(node))
            .read_txn(move |tx| tx.read(ObjectId(object)))
        {
            Ok(data) => {
                self.stats.committed_reads += 1;
                let Some(value) = Self::decode(&data) else {
                    return Some(Violation::new(
                        "history",
                        format!("read at node {node} of object {object} returned undecodable data {data:?}"),
                        Some(step),
                    ));
                };
                let Some(&(owner_obj, idx)) = self.values.get(&value) else {
                    return Some(Violation::new(
                        "history",
                        format!(
                            "read at node {node} of object {object} returned value {value} that no committed write produced"
                        ),
                        Some(step),
                    ));
                };
                if owner_obj != object {
                    return Some(Violation::new(
                        "history",
                        format!(
                            "read at node {node} of object {object} returned a value written to object {owner_obj}"
                        ),
                        Some(step),
                    ));
                }
                if self.read_eligible(node) {
                    let hwm = self.hwm.entry(object).or_insert(0);
                    if idx < *hwm {
                        return Some(Violation::new(
                            "history",
                            format!(
                                "stale read at node {node}: object {object} went backwards from write #{hwm} to write #{idx}"
                            ),
                            Some(step),
                        ));
                    }
                    *hwm = idx;
                }
            }
            Err(_) => {
                self.stats.failed_ops += 1;
            }
        }
        None
    }

    fn apply_step(&mut self, index: usize, step: &ChaosStep) -> Option<Violation> {
        match step {
            ChaosStep::Write { node, object } => return self.do_write(*node, *object),
            ChaosStep::Read { node, object } => return self.do_read(*node, *object, index),
            ChaosStep::Migrate { node, object } => {
                if self.valid_node(*node)
                    && *object < self.schedule.objects
                    && !self.crashed.contains(node)
                {
                    match self.cluster.migrate(ObjectId(*object), NodeId(*node)) {
                        Ok(_) => {}
                        Err(_) => self.stats.failed_ops += 1,
                    }
                } else {
                    self.stats.skipped_ops += 1;
                }
            }
            ChaosStep::HotBurst {
                object,
                writers,
                rounds,
            } => {
                for _ in 0..*rounds {
                    for &w in writers {
                        if let Some(v) = self.do_write(w, *object) {
                            return Some(v);
                        }
                    }
                }
            }
            ChaosStep::Crash { node } => {
                // Never crash the last two nodes: the protocols need a
                // surviving manager plus at least one peer.
                let live = self.schedule.nodes as usize - self.crashed.len();
                if self.valid_node(*node) && !self.crashed.contains(node) && live > 2 {
                    self.crashed.insert(*node);
                    self.cluster
                        .admin()
                        .crash(NodeId(*node))
                        .expect("crash of a validated node");
                } else {
                    self.stats.skipped_ops += 1;
                }
            }
            ChaosStep::Restart { node } => {
                if self.crashed.remove(node) {
                    self.cluster
                        .admin()
                        .restart(NodeId(*node))
                        .expect("restart of a crashed node");
                } else {
                    self.stats.skipped_ops += 1;
                }
            }
            ChaosStep::Isolate { node } => {
                if self.valid_node(*node) {
                    for peer in 0..self.schedule.nodes {
                        if peer != *node {
                            self.cut_pairs.insert((*node, peer));
                        }
                    }
                    self.cluster
                        .admin()
                        .isolate(NodeId(*node))
                        .expect("isolate of a validated node");
                } else {
                    self.stats.skipped_ops += 1;
                }
            }
            ChaosStep::PartitionPair { a, b } => {
                if self.valid_node(*a) && self.valid_node(*b) && a != b {
                    self.cut_pairs.insert((*a, *b));
                    self.cluster.partition_pair(NodeId(*a), NodeId(*b));
                } else {
                    self.stats.skipped_ops += 1;
                }
            }
            ChaosStep::HealNode { node } => {
                self.cut_pairs.retain(|&(a, b)| a != *node && b != *node);
                if self.valid_node(*node) {
                    self.cluster
                        .admin()
                        .heal(NodeId(*node))
                        .expect("heal of a validated node");
                }
            }
            ChaosStep::HealAll => {
                self.cut_pairs.clear();
                self.cluster.admin().heal_all();
            }
            ChaosStep::Spike { from, to, extra } => {
                if self.valid_node(*from) && self.valid_node(*to) {
                    self.cluster.spike_link(NodeId(*from), NodeId(*to), *extra);
                }
            }
            ChaosStep::DropBurst { from, to, count } => {
                if self.valid_node(*from) && self.valid_node(*to) {
                    self.cluster.drop_burst(NodeId(*from), NodeId(*to), *count);
                }
            }
            ChaosStep::Advance { ticks } => self.cluster.advance_ticks(*ticks),
            ChaosStep::Settle { steps } => {
                let budget = usize::try_from(*steps).unwrap_or(usize::MAX).min(500_000);
                self.cluster.settle(budget);
            }
        }
        None
    }

    fn run(mut self) -> RunOutcome {
        // Pre-create the objects with their home placement and a unique
        // initial value per object (write-log index 0).
        for object in 0..self.schedule.objects {
            let owner = NodeId((object % u64::from(self.schedule.nodes)) as u16);
            let value = self.alloc_value(object, None);
            self.log.get_mut(&object).expect("log exists")[0].ts = Some(DataTs::ZERO);
            self.cluster
                .create_object(ObjectId(object), Self::encode(value), owner);
        }

        let mut violation = None;
        let trace = std::env::var_os("CHAOS_TRACE").is_some();
        let steps = self.schedule.steps.clone();
        for (index, step) in steps.iter().enumerate() {
            if let Some(v) = self.apply_step(index, step) {
                violation = Some(v);
                break;
            }
            self.refresh_at_risk();
            if trace {
                self.trace_state(index, step);
            }
        }

        if violation.is_none() {
            violation = self.final_oracles();
        }

        // Deterministic stats, independent of violation state.
        self.stats.sim_ticks = self.cluster.now();
        for n in 0..self.schedule.nodes {
            if !self.crashed.contains(&n) {
                let node = self.cluster.node(NodeId(n));
                self.stats.handovers += node.stats().ownership_completed;
                self.stats.aborts += node.stats().txs_aborted;
            }
        }
        RunOutcome {
            stats: self.stats,
            violation,
        }
    }

    fn final_oracles(&mut self) -> Option<Violation> {
        // Heal every link fault so pending protocol work can drain; crashed
        // nodes stay crashed (they were admin-removed).
        self.cut_pairs.clear();
        self.cluster.admin().heal_all();
        let opts_budget = self.settle_budget();
        if !self.cluster.settle(opts_budget) {
            return Some(Violation::new(
                "liveness",
                format!(
                    "cluster failed to quiesce within {opts_budget} settle steps after healing all links; {}",
                    self.liveness_diagnostic()
                ),
                None,
            ));
        }
        // Give re-admissions a chance: a healed node re-enters on its next
        // heartbeat. Then require full membership convergence.
        self.cluster.advance_ticks(self.schedule.lease_ticks * 4);
        if !self.cluster.settle(opts_budget) {
            return Some(Violation::new(
                "liveness",
                format!(
                    "cluster failed to re-quiesce after the re-admission window; {}",
                    self.liveness_diagnostic()
                ),
                None,
            ));
        }
        self.refresh_at_risk();
        let (auth_epoch, _) = self.authoritative();
        for n in 0..self.schedule.nodes {
            if self.crashed.contains(&n) {
                continue;
            }
            let epoch = self.cluster.node(NodeId(n)).epoch();
            if epoch != auth_epoch {
                return Some(Violation::new(
                    "membership",
                    format!(
                        "node {n} is wedged at epoch {epoch:?} while the cluster is at {auth_epoch:?} (expulsion wedge)"
                    ),
                    None,
                ));
            }
        }
        if let Err(detail) = self.cluster.check_invariants() {
            return Some(Violation::new("invariant", detail, None));
        }
        if let Some(v) = self.data_ts_order_oracle() {
            return Some(v);
        }
        self.history_convergence_oracle()
    }

    /// Per-object commit-timestamp oracle: every committed write of an
    /// object must carry a unique [`DataTs`] (two commits sharing one is a
    /// version fork — the exact class the owner-qualified timestamp exists
    /// to kill), and writes whose loss is not excusable must carry strictly
    /// increasing timestamps in commit order (a regression means a later
    /// owner overwrote surviving history it never observed).
    fn data_ts_order_oracle(&self) -> Option<Violation> {
        for object in 0..self.schedule.objects {
            let log = &self.log[&object];
            let mut last_durable: Option<(usize, DataTs)> = None;
            let mut seen: Vec<(DataTs, usize)> = Vec::new();
            for (idx, rec) in log.iter().enumerate() {
                let Some(ts) = rec.ts else { continue };
                if let Some(&(prev_idx, _)) = seen.iter().find(|(t, _)| *t == ts) {
                    return Some(Violation::new(
                        "history",
                        format!(
                            "object {object}: committed writes #{prev_idx} and #{idx} share commit timestamp {ts} (version fork)"
                        ),
                        None,
                    ));
                }
                seen.push((ts, idx));
                if rec.excusable {
                    continue;
                }
                if let Some((prev_idx, prev_ts)) = last_durable {
                    if ts <= prev_ts {
                        return Some(Violation::new(
                            "history",
                            format!(
                                "object {object}: durable write #{idx} at {ts} does not supersede durable write #{prev_idx} at {prev_ts}"
                            ),
                            None,
                        ));
                    }
                }
                last_durable = Some((idx, ts));
            }
        }
        None
    }

    fn settle_budget(&self) -> usize {
        self.settle_budget
    }

    /// Debug dump of per-object state after a step (`CHAOS_TRACE=1`).
    fn trace_state(&self, index: usize, step: &ChaosStep) {
        eprintln!("--- step {index}: {step:?} (t={})", self.cluster.now());
        for object in 0..self.schedule.objects {
            let mut parts = Vec::new();
            for n in 0..self.schedule.nodes {
                if self.crashed.contains(&n) {
                    parts.push(format!("n{n}:CRASHED"));
                    continue;
                }
                let node = self.cluster.node(NodeId(n));
                let entry = node.store().get(ObjectId(object));
                let dir = node.directory_owner(ObjectId(object));
                parts.push(format!(
                    "n{n}:{}dir={}",
                    entry
                        .map(|e| format!("{:?}@{} {:?} {:?} ", e.level, e.ts, e.t_state, e.o_ts))
                        .unwrap_or_else(|| "- ".into()),
                    match dir {
                        None => "-".into(),
                        Some(None) => "none".into(),
                        Some(Some(o)) => format!("{o}"),
                    },
                ));
            }
            eprintln!("  o{object}: {}", parts.join(" | "));
        }
    }

    /// Per-node protocol state summary embedded in liveness violations, so
    /// a repro explains *what* is spinning.
    fn liveness_diagnostic(&self) -> String {
        let mut parts = Vec::new();
        for n in 0..self.schedule.nodes {
            if self.crashed.contains(&n) {
                continue;
            }
            let node = self.cluster.node(NodeId(n));
            let own = node.ownership_stats();
            parts.push(format!(
                "n{n}{{epoch:{:?},fenced:{},quiescent:{},own_enabled:{},outstanding:{},pending_reqs:{},retried:{}}}",
                node.epoch().0,
                node.is_fenced(),
                node.is_quiescent(),
                node.ownership_enabled(),
                node.outstanding_commits(),
                own.requests_issued - own.requests_completed - own.requests_failed,
                own.requests_retried,
            ));
        }
        parts.join(" ")
    }

    /// End-of-run history checks: converged replicas must be at or past the
    /// observed high-water mark, and newer committed writes may be missing
    /// only if their coordinator was at risk.
    fn history_convergence_oracle(&mut self) -> Option<Violation> {
        for object in 0..self.schedule.objects {
            let log = &self.log[&object];
            let hwm = self.hwm.get(&object).copied().unwrap_or(0);
            let mut final_max: Option<usize> = None;
            for n in 0..self.schedule.nodes {
                if self.crashed.contains(&n) {
                    continue;
                }
                let Some(entry) = self.cluster.node(NodeId(n)).store().get(ObjectId(object)) else {
                    continue;
                };
                if entry.t_state != TState::Valid {
                    continue;
                }
                let Some(value) = Self::decode(&entry.data) else {
                    return Some(Violation::new(
                        "history",
                        format!("node {n} holds undecodable data for object {object}"),
                        None,
                    ));
                };
                let Some(&(owner_obj, idx)) = self.values.get(&value) else {
                    return Some(Violation::new(
                        "history",
                        format!(
                            "node {n} holds value {value} for object {object} that no committed write produced"
                        ),
                        None,
                    ));
                };
                if owner_obj != object {
                    return Some(Violation::new(
                        "history",
                        format!(
                            "node {n} holds a value of object {owner_obj} under object {object}"
                        ),
                        None,
                    ));
                }
                if idx < hwm {
                    return Some(Violation::new(
                        "history",
                        format!(
                            "converged replica at node {n} of object {object} is at write #{idx}, behind observed write #{hwm}"
                        ),
                        None,
                    ));
                }
                final_max = Some(final_max.map_or(idx, |m: usize| m.max(idx)));
            }
            if let Some(final_max) = final_max {
                for (idx, rec) in log.iter().enumerate().skip(final_max + 1) {
                    if !rec.excusable {
                        return Some(Violation::new(
                            "history",
                            format!(
                                "committed write #{idx} to object {object} (coordinator {:?}) was lost: cluster converged at write #{final_max}",
                                rec.coordinator
                            ),
                            None,
                        ));
                    }
                }
            }
        }
        None
    }
}
