//! Zeus: a locality-aware, strongly-consistent, replicated in-memory
//! transactional datastore (EuroSys '21 reproduction).
//!
//! Zeus departs from conventional distributed commit: instead of executing a
//! transaction across nodes, it *localises* the transaction — the coordinator
//! acquires ownership of every object the transaction touches (via the
//! [`zeus_ownership`] protocol), executes and commits locally, and then
//! replicates the updates asynchronously with the pipelined
//! [`zeus_commit`] protocol. Repeated transactions over the same objects run
//! entirely locally, which is where workloads with access locality win.
//!
//! This crate assembles the full node and cluster:
//!
//! * [`node::ZeusNode`] — one Zeus server: object store, ownership engine,
//!   reliable-commit engine, membership engine and the transaction layer
//!   (write transactions with opacity, pipelined replication, and local
//!   strictly-serializable read-only transactions from any replica).
//! * [`txn`] — the transactional-memory-style API surface
//!   (read/write/abort inside closures, as in the paper's
//!   `tr_open_read`/`tr_open_write`, §7).
//! * [`client`] — the session-first client API: one [`ClusterDriver`]
//!   surface over every runtime, typed transactions
//!   ([`Session::write_txn`]/[`Session::read_txn`] return whatever `Send`
//!   value their closure does), explicit [`client::RetryPolicy`] retry
//!   classification, and pipelined non-blocking submission
//!   ([`Session::submit_write`] → [`client::TxTicket`]). Behind it, one
//!   transaction driver (`driver.rs`) parks, retries, backs off and fences
//!   commands the same way on every runtime below.
//! * [`sim::SimCluster`] — a deterministic multi-node harness over the
//!   simulated network, used by tests, fault injection and the bounded
//!   model-checking harness.
//! * [`runtime::Cluster`] — one OS thread per node: the node loop, the
//!   session that runs a transaction on its caller's thread when the node
//!   is free, and the one cluster shell for every transport.
//!   [`ThreadedCluster`] starts it on in-process mailboxes (the throughput
//!   experiments, Figures 7–15).
//! * [`udp_cluster`] — the shell's other constructor, [`UdpCluster`]: the
//!   same node loops over real loopback UDP sockets; and [`procs`] — the
//!   process-per-node deployment behind the `zeus-node` / `zeus-procs`
//!   binaries and the multiprocess CI job.
//! * [`stats`] — latency histograms and per-node statistics backing the
//!   evaluation figures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod cluster_config;
pub mod config;
mod driver;
pub mod message;
pub mod node;
pub mod procs;
pub mod runtime;
pub mod sim;
pub mod stats;
pub mod txn;
pub mod udp_cluster;

pub use client::{Admin, AdminError, ClusterDriver, RetryPolicy, Session, TxTicket};
pub use cluster_config::{ClusterFile, NodeAddr};
pub use config::ZeusConfig;
pub use message::Message;
pub use node::ZeusNode;
pub use runtime::{ThreadedCluster, ThreadedSession};
pub use sim::{SimCluster, SimSession};
pub use stats::{LatencyHistogram, NodeStats};
pub use txn::{ReadOutcome, TxCtx, TxError, WriteOutcome};
pub use udp_cluster::UdpCluster;

pub use zeus_proto::{AccessLevel, NodeId, ObjectId};
