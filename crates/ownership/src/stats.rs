//! Ownership protocol counters.

zeus_proto::counters! {
    /// Counters describing the ownership traffic a node has processed.
    ///
    /// The Voter experiments (Figures 10–12) are driven by these: objects moved
    /// per second, and the latency distribution of ownership requests (latency
    /// itself is measured by the hosting runtime, which knows the clock).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct OwnershipStats {
        /// Requests issued by this node (as requester).
        pub requests_issued: u64,
        /// Requests completed successfully at this node (as requester).
        pub requests_completed: u64,
        /// Requests that failed (lost arbitration or other terminal NACK).
        pub requests_failed: u64,
        /// Requests NACKed with a retryable reason (pending commit, recovering).
        pub requests_retried: u64,
        /// REQ messages driven by this node (as a directory driver).
        pub requests_driven: u64,
        /// INV messages processed as an arbiter.
        pub invalidations_processed: u64,
        /// VAL messages applied as an arbiter.
        pub validations_applied: u64,
        /// Arb-replays initiated during failure recovery.
        pub arb_replays: u64,
        /// REQ messages re-sent for pending requests (reliable-transport
        /// retransmission, §3.1).
        pub requests_retransmitted: u64,
        /// Times this node discarded its ownership state after being re-admitted
        /// to the view (false suspicion or restart).
        pub rejoin_resets: u64,
        /// Ghost arbitrations aborted after an arbiter reported that a drive
        /// from stale metadata lost against a higher timestamp.
        pub ghost_arbitrations_aborted: u64,
        /// Acquisitions aborted with `DataLoss` because they decided without a
        /// surviving data-bearing arbiter while the placement proved the object
        /// was not a genuine first touch (fail-instead-of-fabricate).
        pub data_loss_aborts: u64,
        /// Would-be `DataLoss` aborts completed as a reset-to-first-touch
        /// instead, because every other replica of the decided placement
        /// arbitrated the request and ACKed without data — the object provably
        /// holds no surviving copy anywhere (e.g. its only replica was a
        /// data-less owner), so refusing to install would wedge it forever.
        pub empty_placement_resets: u64,
        /// Placement entries adopted from a directory push (view-service
        /// metadata sync: rejoin catch-up or anti-entropy reconciliation).
        pub dir_entries_adopted: u64,
    }
}
