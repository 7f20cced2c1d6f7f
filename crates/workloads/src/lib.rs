//! Benchmark workloads for the Zeus evaluation.
//!
//! The crate implements the four OLTP benchmarks of Table 2 — Handovers,
//! Smallbank, TATP and Voter — plus the Zipf sampler their skewed access
//! patterns draw from.
//!
//! Workloads are expressed as streams of [`Operation`]s over [`ObjectId`]s,
//! so the same generator drives the Zeus cluster runtimes and the
//! statically-sharded baseline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod handovers;
pub mod smallbank;
pub mod tatp;
pub mod voter;
pub mod zipf;

pub use handovers::HandoverWorkload;
pub use smallbank::SmallbankWorkload;
pub use tatp::TatpWorkload;
pub use voter::VoterWorkload;
pub use zipf::Zipf;

use zeus_proto::ObjectId;

/// One transaction request produced by a workload generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Application-level routing key (what the load balancer hashes, §3.1).
    pub routing_key: u64,
    /// Objects read (and not written).
    pub reads: Vec<ObjectId>,
    /// Objects written, with the size in bytes of the new value.
    pub writes: Vec<(ObjectId, usize)>,
    /// Whether this is a read-only transaction.
    pub read_only: bool,
    /// Label of the transaction type (for per-type statistics).
    pub kind: &'static str,
}

impl Operation {
    /// A write transaction over the given objects.
    pub fn write(
        kind: &'static str,
        routing_key: u64,
        reads: Vec<ObjectId>,
        writes: Vec<(ObjectId, usize)>,
    ) -> Self {
        Operation {
            routing_key,
            reads,
            writes,
            read_only: false,
            kind,
        }
    }

    /// A read-only transaction over the given objects.
    pub fn read(kind: &'static str, routing_key: u64, reads: Vec<ObjectId>) -> Self {
        Operation {
            routing_key,
            reads,
            writes: Vec::new(),
            read_only: true,
            kind,
        }
    }

    /// All objects the operation touches.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.reads
            .iter()
            .copied()
            .chain(self.writes.iter().map(|(o, _)| *o))
    }
}

/// An object that must exist before the workload runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialObject {
    /// The object.
    pub id: ObjectId,
    /// Initial payload size in bytes.
    pub size: usize,
    /// The routing key whose requests touch this object most (used for the
    /// initial, locality-respecting sharding).
    pub home_key: u64,
}

/// A benchmark workload: a population of objects plus a transaction stream.
pub trait Workload {
    /// Objects to create before the run.
    fn initial_objects(&self) -> Vec<InitialObject>;

    /// Produces the next transaction of the stream.
    fn next_operation(&mut self) -> Operation;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operation_helpers() {
        let w = Operation::write("t", 1, vec![ObjectId(1)], vec![(ObjectId(2), 8)]);
        assert!(!w.read_only);
        assert_eq!(w.objects().count(), 2);
        let r = Operation::read("t", 1, vec![ObjectId(1)]);
        assert!(r.read_only);
    }
}
