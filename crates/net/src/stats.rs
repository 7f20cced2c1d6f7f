//! Message and byte accounting.

zeus_proto::counters! {
    /// Counters describing the traffic a transport has carried.
    ///
    /// The evaluation uses these to back the paper's bandwidth claims (Zeus
    /// commits a transaction with one R-INV/R-ACK/R-VAL exchange per follower,
    /// versus several round trips for distributed commit).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct NetStats {
        /// Total messages submitted for sending.
        pub messages_sent: u64,
        /// Total messages delivered to a destination.
        pub messages_delivered: u64,
        /// Total messages dropped by fault injection.
        pub messages_dropped: u64,
        /// Total messages duplicated by fault injection.
        pub messages_duplicated: u64,
        /// Total bytes submitted for sending (wire size).
        pub bytes_sent: u64,
        /// Total bytes delivered.
        pub bytes_delivered: u64,
        /// High-water mark of any receiver inbox depth (messages queued but not
        /// yet drained). The threaded transport's channels are unbounded, so
        /// this is the backpressure signal the bench harness reports: a growing
        /// mark means a node loop is falling behind its peers.
        pub queue_depth_hwm: u64 [max],
    }
}

impl NetStats {
    /// Records a submitted message of `bytes` wire bytes.
    pub fn record_send(&mut self, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
    }

    /// Records a delivered message of `bytes` wire bytes.
    pub fn record_delivery(&mut self, bytes: usize) {
        self.messages_delivered += 1;
        self.bytes_delivered += bytes as u64;
    }

    /// Records a dropped message.
    pub fn record_drop(&mut self) {
        self.messages_dropped += 1;
    }

    /// Records a duplicated message.
    pub fn record_duplicate(&mut self) {
        self.messages_duplicated += 1;
    }

    /// Records an observed receiver-inbox depth, keeping the maximum.
    pub fn record_queue_depth(&mut self, depth: usize) {
        self.queue_depth_hwm = self.queue_depth_hwm.max(depth as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats::default();
        s.record_send(100);
        s.record_send(50);
        s.record_send(10);
        s.record_delivery(100);
        s.record_drop();
        s.record_duplicate();
        assert_eq!(s.messages_sent, 3);
        assert_eq!(s.bytes_sent, 160);
        assert_eq!(s.messages_delivered, 1);
        assert_eq!(s.messages_dropped, 1);
        assert_eq!(s.messages_duplicated, 1);
    }

    #[test]
    fn queue_depth_keeps_high_water_mark() {
        let mut s = NetStats::default();
        s.record_queue_depth(3);
        s.record_queue_depth(9);
        s.record_queue_depth(4);
        assert_eq!(s.queue_depth_hwm, 9);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = NetStats::default();
        a.record_send(10);
        a.record_queue_depth(2);
        let mut b = NetStats::default();
        b.record_send(20);
        b.record_send(5);
        b.record_delivery(20);
        b.record_queue_depth(7);
        a.merge(&b);
        assert_eq!(a.queue_depth_hwm, 7);
        assert_eq!(a.messages_sent, 3);
        assert_eq!(a.bytes_sent, 35);
        assert_eq!(a.messages_delivered, 1);
        let mut shallower = NetStats::default();
        shallower.record_queue_depth(4);
        a.merge(&shallower);
        assert_eq!(a.queue_depth_hwm, 7, "a high-water mark is not a sum");
    }
}
