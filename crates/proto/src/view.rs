//! Epoch-stamped membership views.

use crate::ids::{Epoch, NodeId};

/// A membership view: the set of live nodes at a given epoch, and the epoch
/// at which each of them last (re)entered the view.
///
/// Views are totally ordered by epoch; a node only ever installs views with
/// strictly increasing epochs, which gives every node the same sequence of
/// views (the paper compares this to ZooKeeper with leases, §3.1). The
/// admission epochs travel with every view, so a node that missed view
/// changes still learns which peers re-entered with wiped state since the
/// epoch it last saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Epoch id of this view (`e_id`).
    pub epoch: Epoch,
    /// Live nodes, sorted by id.
    pub live: Vec<NodeId>,
    /// Parallel to `live`: the epoch at which each node last (re)entered
    /// the view, `Epoch::ZERO` for initial members.
    pub admitted: Vec<Epoch>,
}

impl View {
    /// Creates the initial view containing nodes `0..n`, at epoch 0.
    pub fn initial(n: usize) -> Self {
        View {
            epoch: Epoch::ZERO,
            live: (0..n as u16).map(NodeId).collect(),
            admitted: vec![Epoch::ZERO; n],
        }
    }

    /// Creates a view from nodes and their admission epochs, paired by
    /// position and then sorted by node. A node without an admission entry
    /// (a malformed or trimmed message) reads `Epoch::ZERO`, which at worst
    /// skips a reset the next view refresh re-asserts; a node listed twice
    /// keeps its last entry.
    pub fn new(epoch: Epoch, live: Vec<NodeId>, admitted: Vec<Epoch>) -> Self {
        let mut pairs: Vec<(NodeId, Epoch)> = live
            .into_iter()
            .zip(admitted.into_iter().chain(std::iter::repeat(Epoch::ZERO)))
            .collect();
        // Reversed and sorted stably, so the last entry of a node comes first
        // and survives the dedup.
        pairs.reverse();
        pairs.sort_by_key(|&(node, _)| node);
        pairs.dedup_by_key(|&mut (node, _)| node);
        let (live, admitted) = pairs.into_iter().unzip();
        View {
            epoch,
            live,
            admitted,
        }
    }

    /// Whether `node` is live in this view.
    pub fn is_live(&self, node: NodeId) -> bool {
        self.live.binary_search(&node).is_ok()
    }

    /// Whether the view is empty (no live nodes).
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_view_contains_all_nodes_at_epoch_zero() {
        let v = View::initial(3);
        assert_eq!(v.epoch, Epoch::ZERO);
        assert_eq!(v.live, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(v.admitted, vec![Epoch::ZERO; 3]);
        assert!(v.is_live(NodeId(2)));
        assert!(!v.is_live(NodeId(3)));
    }

    /// Admissions follow their nodes through the sort, and a node listed
    /// twice keeps its last entry.
    #[test]
    fn new_sorts_and_dedups() {
        let v = View::new(
            Epoch(4),
            vec![NodeId(5), NodeId(0), NodeId(3), NodeId(5)],
            vec![Epoch(2), Epoch(1), Epoch(3), Epoch(4)],
        );
        assert_eq!(v.live, vec![NodeId(0), NodeId(3), NodeId(5)]);
        assert_eq!(v.admitted, vec![Epoch(1), Epoch(3), Epoch(4)]);
        assert!(!v.is_empty());
    }

    #[test]
    fn a_missing_admission_reads_zero() {
        let v = View::new(Epoch(2), vec![NodeId(2), NodeId(1)], vec![Epoch(2)]);
        assert_eq!(v.live, vec![NodeId(1), NodeId(2)]);
        assert_eq!(v.admitted, vec![Epoch::ZERO, Epoch(2)]);
        // Also when the missing entry is a node's last.
        let v = View::new(Epoch(3), vec![NodeId(1), NodeId(1)], vec![Epoch(3)]);
        assert_eq!(v.admitted, vec![Epoch::ZERO]);
    }
}
