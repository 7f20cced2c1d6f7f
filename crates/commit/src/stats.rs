//! Reliable-commit protocol counters.

zeus_proto::counters! {
    /// Counters describing the reliable-commit traffic a node has processed.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct CommitStats {
        /// Write transactions this node started reliable commits for
        /// (as coordinator).
        pub commits_started: u64,
        /// Reliable commits completed at this node (as coordinator).
        pub commits_completed: u64,
        /// R-INV messages applied as a follower.
        pub rinvs_applied: u64,
        /// R-INV messages buffered waiting for pipeline order.
        pub rinvs_buffered: u64,
        /// R-VAL messages applied as a follower.
        pub rvals_applied: u64,
        /// Pending reliable commits replayed during failure recovery.
        pub replays: u64,
        /// R-INV messages re-sent to unresponsive followers (reliable-transport
        /// retransmission, §3.1).
        pub rinvs_retransmitted: u64,
        /// R-VAL messages re-broadcast for already-cleared slots while later
        /// slots of the same pipeline were outstanding (the pipeline-order
        /// unwedge of the retransmission tick).
        pub rvals_retransmitted: u64,
        /// Times this node discarded its commit state after being re-admitted to
        /// the view (false suspicion or restart).
        pub rejoin_resets: u64,
        /// Coordinator-side ring entries looked at while handling R-ACKs and
        /// scanning for retransmissions: the work those two paths do, which must
        /// stay proportional to the commits they settle or re-send — not to
        /// everything outstanding.
        pub ring_entries_visited: u64,
    }
}
