//! Latency histograms and per-node statistics.

/// A fixed-bucket latency histogram (microsecond resolution by convention).
///
/// Used for the ownership-latency CDF of Figure 12 and the per-transaction
/// latency numbers quoted in the evaluation.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Bucket upper bounds (exclusive), in the same unit as recorded samples.
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        // 1 µs resolution up to 100 µs, then coarser up to 100 ms.
        let mut bounds: Vec<u64> = (1..=100).collect();
        bounds.extend((110..=1000).step_by(10).map(|v| v as u64));
        bounds.extend((2000..=100_000).step_by(1000).map(|v| v as u64));
        LatencyHistogram::with_bounds(bounds)
    }
}

impl LatencyHistogram {
    /// Creates a histogram with explicit bucket upper bounds (must be sorted
    /// and non-empty).
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let n = bounds.len();
        LatencyHistogram {
            bounds,
            counts: vec![0; n + 1],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        // Bucket `i` covers values `<= bounds[i]`; the last (overflow) bucket
        // covers everything larger than the final bound.
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at the given percentile (0.0–100.0), approximated by the bucket
    /// upper bound. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
            }
        }
        self.max
    }

    /// Returns `(bound, cumulative_fraction)` pairs — the CDF used to plot
    /// Figure 12.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.total == 0 {
            return out;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 {
                let bound = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                out.push((bound, seen as f64 / self.total as f64));
            }
        }
        out
    }

    /// Merges another histogram with identical bounds.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

zeus_proto::counters! {
    /// Aggregate per-node statistics exposed by the cluster runtimes.
    #[derive(Debug, Clone, Default)]
    pub struct NodeStats {
        /// Write transactions committed (locally + reliably).
        pub write_txs_committed: u64,
        /// Read-only transactions committed.
        pub read_txs_committed: u64,
        /// Transactions aborted (validation failure, read conflict or user abort).
        pub txs_aborted: u64,
        /// Transactions that had to wait for at least one ownership acquisition.
        pub txs_needing_ownership: u64,
        /// Ownership requests issued.
        pub ownership_requests: u64,
        /// Ownership requests completed.
        pub ownership_completed: u64,
        /// Objects currently owned by the node.
        pub objects_owned: u64,
        /// Transactions refused because the node had fenced itself (isolated
        /// from all peers or expelled from the view).
        pub txs_fenced: u64,
        /// Times this node discarded its replica state after re-admission.
        pub rejoin_resets: u64,
        /// Commands that shared their drained batch with at least one other
        /// command (cross-session batching). A batch of `n >= 2` adds `n`; the
        /// simulator's synchronous sessions never queue a command, so this
        /// stays 0 there.
        pub batched_commands: u64,
        /// Largest command batch the node loop executed as one unit (0 in the
        /// simulator, for the same reason).
        pub batch_occupancy_hwm: u64 [max],
        /// Commands that ran on the thread that submitted them, because it found
        /// the node free. In the simulator that is every session command: a
        /// session runs its command on the node itself.
        pub inline_commands: u64,
        /// Ticks that ran: looked at every timer, and sent what was due.
        pub ticks: u64,
        /// Ticks that only advanced the clock, because the last tick that ran
        /// found nothing due before then (see `ZeusNode::tick`).
        pub quiet_ticks: u64,
        /// Boxes allocated for ownership messages this node sent: a message
        /// goes out in the box of one the node handled when it kept one.
        pub ownership_boxes_allocated: u64,
        /// Messages this node sent itself and handled without the transport:
        /// a node loop's flush handles them in place (the REQ and the
        /// driver's own ACK of a move a directory replica drives for itself,
        /// two per reader→owner move). Always 0 in the simulator, which
        /// carries them over the node's own link.
        pub messages_looped_back: u64,
    }
}

impl NodeStats {
    /// Total committed transactions (read + write).
    pub fn total_committed(&self) -> u64 {
        self.write_txs_committed + self.read_txs_committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_monotonic() {
        let mut h = LatencyHistogram::default();
        for v in 1..=1000u64 {
            h.record(v % 90 + 1);
        }
        assert_eq!(h.count(), 1000);
        assert!(h.mean() > 0.0);
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        let p999 = h.percentile(99.9);
        assert!(p50 <= p99 && p99 <= p999);
        assert!(h.max() >= p999);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn cdf_reaches_one() {
        let mut h = LatencyHistogram::default();
        for v in [5u64, 17, 17, 36, 90, 200] {
            h.record(v);
        }
        let cdf = h.cdf();
        let last = cdf.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-9);
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn merge_requires_same_bounds_and_adds() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(10);
        b.record(20);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 30);
    }

    #[test]
    fn node_stats_merge_and_totals() {
        let mut a = NodeStats {
            write_txs_committed: 10,
            read_txs_committed: 5,
            batch_occupancy_hwm: 3,
            ..Default::default()
        };
        let b = NodeStats {
            write_txs_committed: 1,
            txs_aborted: 2,
            batch_occupancy_hwm: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.write_txs_committed, 11);
        assert_eq!(a.txs_aborted, 2);
        assert_eq!(a.total_committed(), 16);
        assert_eq!(a.batch_occupancy_hwm, 5, "the deeper batch wins");
        a.merge(&NodeStats {
            batch_occupancy_hwm: 2,
            ..Default::default()
        });
        assert_eq!(a.batch_occupancy_hwm, 5, "a high-water mark is not a sum");
    }
}
