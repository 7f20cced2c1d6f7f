//! Reliable-commit protocol counters.

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

impl CommitStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &CommitStats) {
        self.commits_started += other.commits_started;
        self.commits_completed += other.commits_completed;
        self.rinvs_applied += other.rinvs_applied;
        self.rinvs_buffered += other.rinvs_buffered;
        self.rvals_applied += other.rvals_applied;
        self.replays += other.replays;
        self.rinvs_retransmitted += other.rinvs_retransmitted;
        self.rvals_retransmitted += other.rvals_retransmitted;
        self.rejoin_resets += other.rejoin_resets;
        self.ring_entries_visited += other.ring_entries_visited;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = CommitStats::new();
        a.commits_started = 1;
        let mut b = CommitStats::new();
        b.commits_started = 2;
        b.replays = 3;
        a.merge(&b);
        assert_eq!(a.commits_started, 3);
        assert_eq!(a.replays, 3);
    }
}
