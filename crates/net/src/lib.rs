//! Cluster transport substrate for the Zeus reproduction.
//!
//! The paper runs Zeus over a custom reliable messaging library built on DPDK
//! (§7). This crate provides the equivalent substrate, split along a strict
//! **sans-io / runtime** boundary:
//!
//! *Sans-io policy* — pure state machines, no sockets, no threads, no
//! clocks of their own; every test can drive them deterministically:
//!
//! * [`reliable`] — a sequence-numbered, cumulative-ack, retransmitting
//!   link layer that turns a lossy transport into the reliable, in-order
//!   channel the Zeus protocols assume (mirroring the paper's "reliable
//!   messaging protocol with low-level retransmission", §3.1). Callers feed
//!   it receives and clock ticks; it hands back wire envelopes to ship.
//! * [`rtt`] — per-peer RTT estimation (RFC 6298: EWMA of `srtt`/`rttvar`,
//!   RTO = `srtt + 4·rttvar` clamped to a floor/ceiling, exponential
//!   backoff on timeout) supplying the endpoint's [`rtt::RtoPolicy`].
//! * [`sim::SimNetwork`] — a deterministic, seeded, discrete-time network
//!   simulator with configurable latency, message loss, duplication,
//!   reordering and node partitions. All protocol tests and the bounded
//!   model-checking harness run on top of it, so faulty executions are
//!   reproducible from a seed.
//!
//! *Runtimes* — the I/O layers that drive the policy objects, all behind
//! the [`transport::Transport`] trait the `zeus-core` node loops consume:
//!
//! * [`threaded::ThreadedNet`] — a crossbeam-channel transport with one
//!   mailbox per node for single-process deployments. Channels are lossless
//!   and FIFO, so it skips the reliable layer entirely and reports one fixed
//!   retransmission timeout ([`transport::MAILBOX_RTO_MICROS`]).
//! * [`udp`] — one socket plus reader thread per node, framing envelopes
//!   onto datagrams and driving [`reliable::ReliableEndpoint`] with real
//!   wall-clock time: actual loss, actual reordering, actual processes
//!   (the `zeus-node` binary and the multiprocess CI job run on this).
//! * [`doorbell::Doorbell`] — the one thing a node loop sleeps on: every
//!   transport rings its node's doorbell after delivering into the inbox,
//!   and the runtime rings it after queueing a command.
//! * [`stats::NetStats`] — message and byte accounting used by the
//!   bandwidth-related claims of the evaluation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod doorbell;
pub mod envelope;
pub mod reliable;
pub mod rtt;
pub mod sim;
pub mod stats;
pub mod threaded;
pub mod transport;
pub mod udp;

pub use doorbell::Doorbell;
pub use envelope::Envelope;
pub use reliable::{ReliableEndpoint, ReliableMsg};
pub use rtt::{RtoPolicy, RttConfig, RttEstimator};
pub use sim::{FaultPlan, LinkOverride, NetConfig, SimNetwork};
pub use stats::NetStats;
pub use threaded::{LinkFaults, NodeMailbox, SharedCounters, ThreadedNet};
pub use transport::Transport;
pub use udp::{LossyConfig, UdpConfig, UdpTransport};
