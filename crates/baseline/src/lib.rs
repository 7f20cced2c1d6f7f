//! A statically-sharded, distributed-commit baseline.
//!
//! The paper compares Zeus against FaRM, FaSST and DrTM — RDMA systems none
//! of which can run on this substrate. What the comparison exercises is
//! *structural*: a statically-sharded store must execute remote reads and a
//! multi-round-trip distributed commit for every transaction that spans
//! nodes, and it must block the transaction pipeline until replication
//! completes, whereas Zeus localises the transaction (occasionally paying an
//! ownership migration) and pipelines its single-round-trip reliable commit.
//!
//! [`exec`] is a small executable statically-sharded store with two-phase
//! commit. The integration tests run it next to Zeus on the same write
//! sequence, and the `smallbank` example prints its message counts beside
//! Zeus's.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
