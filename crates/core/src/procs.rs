//! Process-per-node deployment: the `zeus-node` binary and the harness that
//! drives N of them as real OS processes.
//!
//! [`run_node`] is everything a `zeus-node` process does: bind a
//! [`UdpTransport`], run the shared [`crate::runtime`] node loop on it,
//! create the workload's objects, and execute a seeded transfer workload
//! through the same session API the in-process runtimes use (so the
//! process's main thread runs its transfers itself whenever the loop thread
//! is not holding the node). The process
//! speaks a tiny line protocol on stdio so a parent can orchestrate it:
//!
//! * it prints `READY` once the socket is bound and objects are created,
//! * it waits for `GO` on stdin before starting the workload (so all peers
//!   are up first),
//! * it prints `DONE committed=<n> aborted=<n>` when the workload finishes,
//! * it keeps serving (heartbeats, replication, ownership) until stdin
//!   closes — a finished node is still a cluster member.
//!
//! [`run_harness`] is the `zeus-procs` binary and the multiprocess CI job:
//! it spawns the processes, coordinates the line protocol, optionally
//! `kill -9`s one node mid-workload and restarts it on the same address
//! (the restarted process comes back with a fresh boot token and empty
//! state; the survivors' membership layer re-admits it), and asserts the
//! workload completed. Per-node logs land in a directory the CI job uploads
//! on failure.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::process::{Child, Command as ProcCommand, Stdio};
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use zeus_net::{RttConfig, UdpConfig, UdpTransport};
use zeus_proto::NodeId;

use crate::client::{RetryPolicy, Session};
use crate::cluster_config::{ClusterFile, NodeAddr};
use crate::config::ZeusConfig;
use crate::runtime::{start_node, Command, ThreadedSession};
use crate::txn::TxError;
use crate::{ObjectId, ZeusNode};

// ---------------------------------------------------------------------------
// The node side (`zeus-node`)
// ---------------------------------------------------------------------------

/// Command-line options of one `zeus-node` process.
#[derive(Debug, Clone)]
pub struct NodeOpts {
    /// This node's id; `addrs[id]` must be its own address.
    pub id: NodeId,
    /// Every node's UDP address (literal or `host:port` DNS name, resolved
    /// at bind time), indexed by node id.
    pub addrs: Vec<NodeAddr>,
    /// Transfer operations this node executes once released with `GO`.
    pub ops: u64,
    /// Number of account objects (shared by all nodes; object `i` is homed
    /// on node `i % nodes`).
    pub accounts: u64,
    /// Failure-detection lease in microseconds.
    pub lease_us: u64,
    /// Size of the quorum view-replica set (the first N node ids); `None`
    /// keeps the [`ZeusConfig`] default.
    pub view_replicas: Option<usize>,
    /// Workload seed (each node decorrelates it with its id).
    pub seed: u64,
}

impl NodeOpts {
    /// Parses `--id N [--config cluster.toml] [--addrs a:p,b:p,...]
    /// [--ops N] [--accounts N] [--lease-us N] [--view-replicas N]
    /// [--seed N]`. The node list and cluster tunables may come from a
    /// [`crate::cluster_config::ClusterFile`]; explicit flags override file
    /// values.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<NodeOpts, String> {
        let mut shared = SharedFlags::default();
        let mut id = None;
        let mut addrs: Vec<NodeAddr> = Vec::new();
        while let Some(flag) = args.next() {
            if shared.take(&flag, &mut args)? {
                continue;
            }
            match flag.as_str() {
                "--id" => id = Some(flag_value::<u16>(&flag, &mut args)?),
                "--addrs" => {
                    addrs = flag_value::<String>(&flag, &mut args)?
                        .split(',')
                        .map(|a| NodeAddr::parse(a).map_err(|e| format!("--addrs: {e}")))
                        .collect::<Result<_, String>>()?;
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if let Some(file) = shared.load_file()? {
            if addrs.is_empty() {
                addrs = file.addrs;
            }
        }
        let id = id.ok_or("--id is required")?;
        if addrs.is_empty() {
            return Err("--addrs or --config is required".into());
        }
        if id as usize >= addrs.len() {
            return Err(format!("--id {id} out of range for {} addrs", addrs.len()));
        }
        Ok(NodeOpts {
            id: NodeId(id),
            addrs,
            ops: shared.ops.unwrap_or(200),
            accounts: shared.accounts.unwrap_or(64),
            lease_us: shared.lease_us.unwrap_or(200_000),
            view_replicas: shared.view_replicas,
            seed: shared.seed.unwrap_or(42),
        })
    }
}

/// The flags `zeus-node` and `zeus-procs` share, each `None` until given.
#[derive(Debug, Default)]
struct SharedFlags {
    config: Option<PathBuf>,
    ops: Option<u64>,
    accounts: Option<u64>,
    lease_us: Option<u64>,
    view_replicas: Option<usize>,
    seed: Option<u64>,
}

impl SharedFlags {
    /// Reads `flag`'s value from `args` if it is a shared flag; `false` if
    /// it is not one.
    fn take(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--config" => self.config = Some(flag_value(flag, args)?),
            "--ops" => self.ops = Some(flag_value(flag, args)?),
            "--accounts" => self.accounts = Some(flag_value(flag, args)?),
            "--lease-us" => self.lease_us = Some(flag_value(flag, args)?),
            "--view-replicas" => self.view_replicas = Some(flag_value(flag, args)?),
            "--seed" => self.seed = Some(flag_value(flag, args)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Loads the `--config` file, if one was given, and fills in the
    /// tunables its `[cluster]` section sets that no flag did.
    fn load_file(&mut self) -> Result<Option<ClusterFile>, String> {
        let Some(path) = &self.config else {
            return Ok(None);
        };
        let file = ClusterFile::load(path)?;
        self.lease_us = self.lease_us.or(file.lease_us);
        self.view_replicas = self.view_replicas.or(file.view_replicas);
        Ok(Some(file))
    }
}

/// The value after `flag`, parsed; the error names the flag.
fn flag_value<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = args
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// xorshift64 — the same tiny deterministic generator the lossy socket
/// wrapper uses; good enough to pick accounts.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// How long one workload operation may retry before it counts as aborted.
/// Generous on purpose: an operation issued the instant a peer is
/// `kill -9`ed must survive failure detection (a lease of silence), the
/// view change and ownership recovery.
const OP_DEADLINE: Duration = Duration::from_secs(60);

/// Runs one Zeus node process end to end (see the module docs for the
/// stdio protocol). Returns the `(committed, aborted)` workload counts.
pub fn run_node(opts: NodeOpts) -> Result<(u64, u64), String> {
    let nodes = opts.addrs.len();
    let mut config = ZeusConfig::with_nodes(nodes);
    config.lease_ticks = opts.lease_us;
    if let Some(vr) = opts.view_replicas {
        config.view_replicas = vr;
    }

    // Resolve every peer (DNS names included) now, at bind/connect time:
    // the config may have been written on a machine with a different
    // name-to-address view than the one this process runs on.
    let peers: Vec<SocketAddr> = opts
        .addrs
        .iter()
        .map(NodeAddr::resolve)
        .collect::<Result<_, String>>()?;
    let transport = UdpTransport::bind(UdpConfig {
        local: opts.id,
        peers,
        rtt: RttConfig::udp_default(),
        loss: None,
    })
    .map_err(|e| format!("bind {}: {e}", opts.addrs[opts.id.index()]))?;

    let (link, node_thread) = start_node(ZeusNode::new(opts.id, config.clone()), transport);

    // Every process creates every object locally with the same deterministic
    // placement, so the cluster-wide directory agrees without coordination.
    for i in 0..opts.accounts {
        let owner = NodeId((i % nodes as u64) as u16);
        let _ = link.send(Command::CreateObject {
            object: ObjectId(i),
            data: vec![0u8; 8].into(),
            replicas: config.default_replicas(owner),
        });
    }

    println!("READY");
    std::io::stdout().flush().ok();

    // Wait for the harness to release the workload; EOF means "serve only".
    let stdin = std::io::stdin();
    let mut released = false;
    let mut lines = stdin.lock().lines();
    for line in lines.by_ref() {
        match line {
            Ok(l) if l.trim() == "GO" => {
                released = true;
                break;
            }
            Ok(_) => continue,
            Err(e) => return Err(format!("stdin: {e}")),
        }
    }

    let (mut committed, mut aborted) = (0u64, 0u64);
    if released {
        let session = ThreadedSession::new(
            opts.id,
            link.clone(),
            RetryPolicy::with_budget(config.max_ownership_retries),
        );
        let mut rng = opts.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(opts.id.0 as u64 + 1));
        for _ in 0..opts.ops {
            let from = ObjectId(next_rand(&mut rng) % opts.accounts);
            let to = ObjectId(next_rand(&mut rng) % opts.accounts);
            if transfer(&session, from, to) {
                committed += 1;
            } else {
                aborted += 1;
            }
        }
        let _ = session.drain();
        println!("DONE committed={committed} aborted={aborted}");
        std::io::stdout().flush().ok();

        // Stay a live member (replication target, ownership peer) until the
        // harness closes stdin.
        for line in lines {
            if line.is_err() {
                break;
            }
        }
    }

    let _ = link.send(Command::Shutdown);
    let _ = node_thread.join();
    Ok((committed, aborted))
}

/// One transfer: move 1 unit between two 8-byte little-endian i64 balances.
/// Retries until [`OP_DEADLINE`]; `true` iff it committed.
fn transfer(session: &ThreadedSession, from: ObjectId, to: ObjectId) -> bool {
    let deadline = Instant::now() + OP_DEADLINE;
    loop {
        let result = session.write_txn(move |tx| {
            let adjust = |delta: i64| {
                move |old: &[u8]| {
                    let mut balance = [0u8; 8];
                    balance.copy_from_slice(&old[..8]);
                    (i64::from_le_bytes(balance) + delta).to_le_bytes().to_vec()
                }
            };
            if from == to {
                tx.update(from, adjust(0))?;
            } else {
                tx.update(from, adjust(-1))?;
                tx.update(to, adjust(1))?;
            }
            Ok(())
        });
        match result {
            Ok(()) => return true,
            Err(TxError::NodeUnavailable) => return false,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return false,
        }
    }
}

// ---------------------------------------------------------------------------
// The harness side (`zeus-procs` and the multiprocess CI job)
// ---------------------------------------------------------------------------

/// Options of a [`run_harness`] run.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Path of the `zeus-node` binary to spawn.
    pub node_bin: PathBuf,
    /// Cluster size.
    pub nodes: usize,
    /// Workload operations per node.
    pub ops: u64,
    /// Account objects shared by the cluster.
    pub accounts: u64,
    /// Failure-detection lease in microseconds.
    pub lease_us: u64,
    /// Size of the quorum view-replica set, forwarded to every node;
    /// `None` keeps the node-side default.
    pub view_replicas: Option<usize>,
    /// Fixed node addresses (e.g. from a `cluster.toml`, hostnames
    /// allowed); `None` allocates ephemeral loopback ports. When set, its
    /// length must equal `nodes`.
    pub addrs: Option<Vec<NodeAddr>>,
    /// Node to `kill -9` mid-workload and then restart on the same
    /// address; `None` runs the workload undisturbed.
    pub kill: Option<NodeId>,
    /// How long after releasing the workload the kill fires.
    pub kill_after: Duration,
    /// Directory receiving one `node-<i>.log` per process (stdout+stderr,
    /// restarts appended). Created if missing.
    pub log_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            node_bin: PathBuf::from("zeus-node"),
            nodes: 3,
            ops: 150,
            accounts: 48,
            lease_us: 200_000,
            view_replicas: None,
            addrs: None,
            kill: None,
            kill_after: Duration::from_millis(300),
            log_dir: PathBuf::from("procs-logs"),
            seed: 42,
        }
    }
}

impl HarnessOpts {
    /// Parses `[--config cluster.toml] [--nodes 3] [--ops 150]
    /// [--accounts 48] [--lease-us 200000] [--view-replicas 3] [--kill 0]
    /// [--kill-after-ms 300] [--log-dir procs-logs] [--seed 42]
    /// [--node-bin path/to/zeus-node]`. A cluster file's node table fixes
    /// the cluster size and addresses; explicit flags override its
    /// `[cluster]` values. `--node-bin` defaults to a `zeus-node` next to
    /// the running executable.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<HarnessOpts, String> {
        let mut opts = HarnessOpts::default();
        let mut shared = SharedFlags::default();
        let mut nodes: Option<usize> = None;
        let mut node_bin: Option<PathBuf> = None;
        while let Some(flag) = args.next() {
            if shared.take(&flag, &mut args)? {
                continue;
            }
            match flag.as_str() {
                "--nodes" => nodes = Some(flag_value(&flag, &mut args)?),
                "--kill" => opts.kill = Some(NodeId(flag_value(&flag, &mut args)?)),
                "--kill-after-ms" => {
                    opts.kill_after = Duration::from_millis(flag_value(&flag, &mut args)?)
                }
                "--log-dir" => opts.log_dir = flag_value(&flag, &mut args)?,
                "--node-bin" => node_bin = Some(flag_value(&flag, &mut args)?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if let Some(file) = shared.load_file()? {
            opts.nodes = file.addrs.len();
            opts.addrs = Some(file.addrs);
            if let (Some(n), Some(path)) = (nodes, &shared.config) {
                if n != opts.nodes {
                    return Err(format!(
                        "--nodes {n} conflicts with the {} [[node]] tables in {}",
                        opts.nodes,
                        path.display()
                    ));
                }
            }
        } else if let Some(n) = nodes {
            opts.nodes = n;
        }
        opts.ops = shared.ops.unwrap_or(opts.ops);
        opts.accounts = shared.accounts.unwrap_or(opts.accounts);
        opts.lease_us = shared.lease_us.unwrap_or(opts.lease_us);
        opts.view_replicas = shared.view_replicas;
        opts.seed = shared.seed.unwrap_or(opts.seed);
        opts.node_bin = match node_bin {
            Some(p) => p,
            None => {
                let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
                me.parent()
                    .ok_or("current_exe has no parent directory")?
                    .join("zeus-node")
            }
        };
        if let Some(victim) = opts.kill {
            if victim.index() >= opts.nodes {
                return Err(format!("--kill {} out of range", victim.0));
            }
        }
        Ok(opts)
    }
}

/// What one node process reported over its lifetime.
#[derive(Debug, Clone, Default)]
pub struct NodeOutcome {
    /// Workload commits it printed in `DONE`.
    pub committed: u64,
    /// Workload aborts it printed in `DONE`.
    pub aborted: u64,
}

/// The result of a successful harness run.
#[derive(Debug, Clone, Default)]
pub struct HarnessReport {
    /// Outcome per surviving original process, by node id.
    pub survivors: HashMap<u16, NodeOutcome>,
    /// Outcome of the restarted process, if a kill was requested.
    pub restarted: Option<NodeOutcome>,
}

/// Stdout-derived state of one child, updated by its log-pump thread.
#[derive(Debug, Default)]
struct ChildStatus {
    ready: bool,
    done: Option<NodeOutcome>,
}

struct ChildProc {
    child: Child,
    stdin: Option<std::process::ChildStdin>,
    status: Arc<Mutex<ChildStatus>>,
}

fn spawn_node(opts: &HarnessOpts, id: u16, addrs: &str) -> Result<ChildProc, String> {
    let log_path = opts.log_dir.join(format!("node-{id}.log"));
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log_path)
        .map_err(|e| format!("open {}: {e}", log_path.display()))?;
    let stderr_log = log
        .try_clone()
        .map_err(|e| format!("clone log handle: {e}"))?;
    let mut cmd = ProcCommand::new(&opts.node_bin);
    cmd.arg("--id")
        .arg(id.to_string())
        .arg("--addrs")
        .arg(addrs)
        .arg("--ops")
        .arg(opts.ops.to_string())
        .arg("--accounts")
        .arg(opts.accounts.to_string())
        .arg("--lease-us")
        .arg(opts.lease_us.to_string())
        .arg("--seed")
        .arg(opts.seed.to_string());
    if let Some(vr) = opts.view_replicas {
        cmd.arg("--view-replicas").arg(vr.to_string());
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(stderr_log))
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", opts.node_bin.display()))?;

    let stdin = child.stdin.take();
    let stdout = child.stdout.take().expect("stdout piped");
    let status = Arc::new(Mutex::new(ChildStatus::default()));
    let pump_status = status.clone();
    let mut pump_log = log;
    // Tee the child's stdout into its log file while parsing the READY /
    // DONE protocol lines.
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            let _ = writeln!(pump_log, "{line}");
            let mut status = pump_status.lock().unwrap();
            if line.trim() == "READY" {
                status.ready = true;
            } else if let Some(rest) = line.trim().strip_prefix("DONE ") {
                let mut outcome = NodeOutcome::default();
                for part in rest.split_whitespace() {
                    if let Some(v) = part.strip_prefix("committed=") {
                        outcome.committed = v.parse().unwrap_or(0);
                    } else if let Some(v) = part.strip_prefix("aborted=") {
                        outcome.aborted = v.parse().unwrap_or(0);
                    }
                }
                status.done = Some(outcome);
            }
        }
    });
    Ok(ChildProc {
        child,
        stdin,
        status,
    })
}

fn wait_ready(proc_: &ChildProc, id: u16, deadline: Duration) -> Result<(), String> {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if proc_.status.lock().unwrap().ready {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Err(format!("node {id} did not print READY within {deadline:?}"))
}

fn wait_done(proc_: &ChildProc, id: u16, deadline: Duration) -> Result<NodeOutcome, String> {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if let Some(outcome) = proc_.status.lock().unwrap().done.clone() {
            return Ok(outcome);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Err(format!("node {id} did not print DONE within {deadline:?}"))
}

/// Allocates `n` distinct loopback UDP ports by binding and releasing them.
/// (A released port can in principle be grabbed by another process before
/// the node binds it; on a CI runner the window is negligible.)
fn allocate_addrs(n: usize) -> Result<Vec<SocketAddr>, String> {
    let sockets: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("allocate ports: {e}"))?;
    sockets
        .iter()
        .map(|s| s.local_addr().map_err(|e| format!("local_addr: {e}")))
        .collect()
}

/// Spawns an N-process cluster, runs the workload, optionally `kill -9`s a
/// node mid-run and restarts it, and verifies completion. See the module
/// docs for the full choreography. On failure the per-node logs in
/// `opts.log_dir` tell the story.
pub fn run_harness(opts: &HarnessOpts) -> Result<HarnessReport, String> {
    std::fs::create_dir_all(&opts.log_dir)
        .map_err(|e| format!("create {}: {e}", opts.log_dir.display()))?;
    let addrs = match &opts.addrs {
        Some(fixed) => {
            if fixed.len() != opts.nodes {
                return Err(format!(
                    "config lists {} nodes but --nodes is {}",
                    fixed.len(),
                    opts.nodes
                ));
            }
            fixed.clone()
        }
        None => allocate_addrs(opts.nodes)?
            .into_iter()
            .map(NodeAddr::from)
            .collect(),
    };
    let addrs_arg = addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");

    let mut procs: Vec<ChildProc> = Vec::new();
    for id in 0..opts.nodes as u16 {
        procs.push(spawn_node(opts, id, &addrs_arg)?);
    }
    let result = run_harness_inner(opts, &mut procs, &addrs_arg);
    for p in procs.iter_mut() {
        let _ = p.child.kill();
        let _ = p.child.wait();
    }
    result
}

fn run_harness_inner(
    opts: &HarnessOpts,
    procs: &mut [ChildProc],
    addrs_arg: &str,
) -> Result<HarnessReport, String> {
    for (id, p) in procs.iter().enumerate() {
        wait_ready(p, id as u16, Duration::from_secs(30))?;
    }
    // Release the workload everywhere only once every process is up.
    for p in procs.iter_mut() {
        if let Some(stdin) = p.stdin.as_mut() {
            writeln!(stdin, "GO").map_err(|e| format!("release workload: {e}"))?;
        }
    }

    let mut report = HarnessReport::default();
    if let Some(victim) = opts.kill {
        std::thread::sleep(opts.kill_after);
        let v = victim.index();
        // SIGKILL: no destructors, no goodbyes — the real crash the
        // membership layer exists for.
        procs[v]
            .child
            .kill()
            .map_err(|e| format!("kill node {victim:?}: {e}"))?;
        let _ = procs[v].child.wait();

        for (id, p) in procs.iter().enumerate() {
            if id == v {
                continue;
            }
            let outcome = wait_done(p, id as u16, Duration::from_secs(180))?;
            if outcome.committed + outcome.aborted != opts.ops {
                return Err(format!(
                    "survivor {id}: committed {} + aborted {} != ops {}",
                    outcome.committed, outcome.aborted, opts.ops
                ));
            }
            if outcome.committed == 0 {
                return Err(format!("survivor {id} committed nothing after the kill"));
            }
            report.survivors.insert(id as u16, outcome);
        }

        // Restart the victim on the same address: fresh process, fresh boot
        // token, empty state. The survivors must re-admit it and its own
        // workload must complete.
        let mut restarted = spawn_node(opts, victim.0, addrs_arg)?;
        wait_ready(&restarted, victim.0, Duration::from_secs(30))?;
        if let Some(stdin) = restarted.stdin.as_mut() {
            writeln!(stdin, "GO").map_err(|e| format!("release restarted node: {e}"))?;
        }
        let outcome = wait_done(&restarted, victim.0, Duration::from_secs(180))?;
        if outcome.committed + outcome.aborted != opts.ops {
            return Err(format!(
                "restarted node: committed {} + aborted {} != ops {}",
                outcome.committed, outcome.aborted, opts.ops
            ));
        }
        if outcome.committed == 0 {
            return Err("restarted node committed nothing — re-admission failed".into());
        }
        report.restarted = Some(outcome);
        procs[v] = restarted; // so the caller's cleanup tears it down too
    } else {
        for (id, p) in procs.iter().enumerate() {
            let outcome = wait_done(p, id as u16, Duration::from_secs(180))?;
            if outcome.committed + outcome.aborted != opts.ops {
                return Err(format!(
                    "node {id}: committed {} + aborted {} != ops {}",
                    outcome.committed, outcome.aborted, opts.ops
                ));
            }
            if outcome.aborted != 0 {
                return Err(format!(
                    "node {id} aborted {} ops on an undisturbed cluster",
                    outcome.aborted
                ));
            }
            report.survivors.insert(id as u16, outcome);
        }
    }

    // Close every stdin: the processes exit their serve loops.
    for p in procs.iter_mut() {
        p.stdin.take();
    }
    let until = Instant::now() + Duration::from_secs(20);
    for (id, p) in procs.iter_mut().enumerate() {
        loop {
            match p.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(20)),
                Ok(None) => return Err(format!("node {id} did not exit after stdin closed")),
                Err(e) => return Err(format!("wait node {id}: {e}")),
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(flags: &str) -> Result<NodeOpts, String> {
        let args = format!("--id 0 --addrs 127.0.0.1:7000,127.0.0.1:7001 {flags}");
        NodeOpts::parse(args.split_whitespace().map(String::from))
    }

    fn harness(flags: &str) -> Result<HarnessOpts, String> {
        HarnessOpts::parse(flags.split_whitespace().map(String::from))
    }

    #[test]
    fn the_shared_flags_read_the_same_in_both_parsers() {
        let flags = "--ops 7 --accounts 9 --lease-us 1234 --view-replicas 2 --seed 5";
        let (n, h) = (node(flags).unwrap(), harness(flags).unwrap());
        assert_eq!(
            (n.ops, n.accounts, n.lease_us, n.view_replicas, n.seed),
            (7, 9, 1234, Some(2), 5)
        );
        assert_eq!(
            (h.ops, h.accounts, h.lease_us, h.view_replicas, h.seed),
            (n.ops, n.accounts, n.lease_us, n.view_replicas, n.seed)
        );
    }

    #[test]
    fn a_bad_value_is_the_same_error_from_both_parsers() {
        for flags in ["--ops x", "--lease-us -1", "--view-replicas", "--seed 1.5"] {
            let err = node(flags).unwrap_err();
            assert_eq!(harness(flags).unwrap_err(), err, "{flags}");
            assert!(err.starts_with(flags.split(' ').next().unwrap()), "{err}");
        }
    }

    #[test]
    fn an_explicit_flag_overrides_the_cluster_file() {
        let path =
            std::env::temp_dir().join(format!("zeus-procs-flags-{}.toml", std::process::id()));
        std::fs::write(
            &path,
            "[cluster]\nview_replicas = 1\nlease_us = 9000\n\n[[node]]\nid = 0\naddr = \"127.0.0.1:7000\"\n\n[[node]]\nid = 1\naddr = \"127.0.0.1:7001\"\n",
        )
        .unwrap();
        let config = format!("--config {}", path.display());
        let n = NodeOpts::parse(
            format!("--id 1 {config} --lease-us 50")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let h = harness(&format!("{config} --lease-us 50")).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            (n.lease_us, n.view_replicas, n.addrs.len()),
            (50, Some(1), 2)
        );
        assert_eq!((h.lease_us, h.view_replicas, h.nodes), (50, Some(1), 2));
    }

    #[test]
    fn a_kill_out_of_range_is_refused() {
        assert_eq!(
            harness("--nodes 3 --kill 3").unwrap_err(),
            "--kill 3 out of range"
        );
        assert_eq!(harness("--nodes 3 --kill 2").unwrap().kill, Some(NodeId(2)));
    }
}
