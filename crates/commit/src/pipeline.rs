//! Per-pipeline slot bookkeeping: the slot-ordered ring both roles keep their
//! in-flight commits in, and the follower's cleared-slot tracker.

use std::collections::{BTreeSet, VecDeque};

/// The in-flight entries of one pipeline, keyed by slot and kept in slot
/// order.
///
/// Why slot order makes this sound. A pipeline's slots are handed out by one
/// coordinator thread as a dense, increasing sequence (`TxId = (pipeline,
/// local)`, §5.2), followers apply and acknowledge them in that order, and an
/// R-ACK is cumulative. So entries enter at the back, leave — almost always —
/// from the front, and everything the protocol asks about a slot's
/// neighbourhood is a question about positions: *is the previous slot still
/// in flight* is one probe at `slot - 1`, *is a later slot in flight* is a
/// look at the back, *which entries does this cumulative ack cover* is a
/// prefix, and *which R-INVs are old enough to re-send* is a prefix too
/// (older slots were sent earlier). None of them needs a hash, a sort or a
/// walk over the whole set, which is what a `HashMap<TxId, _>` costs for each.
///
/// While the ring is dense (the coordinator's own pipelines, until a commit
/// with a different follower set completes out of order) a slot sits at index
/// `slot - front_slot` and a lookup is O(1). Gaps are legal — a follower sees
/// a partial stream of a pipeline, and a recovery replay re-coordinates only
/// the slots it had stored — and cost a binary search instead.
#[derive(Debug, Clone)]
pub(crate) struct SlotRing<T> {
    entries: VecDeque<(u64, T)>,
}

impl<T> Default for SlotRing<T> {
    fn default() -> Self {
        SlotRing {
            entries: VecDeque::new(),
        }
    }
}

impl<T> SlotRing<T> {
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The highest slot in the ring.
    pub(crate) fn last_slot(&self) -> Option<u64> {
        self.entries.back().map(|(slot, _)| *slot)
    }

    /// `Ok(index)` of `slot`, or `Err(index)` of where it would be inserted.
    pub(crate) fn index_of(&self, slot: u64) -> Result<usize, usize> {
        let (Some(&(front, _)), Some(&(back, _))) = (self.entries.front(), self.entries.back())
        else {
            return Err(0);
        };
        if slot < front {
            return Err(0);
        }
        if slot > back {
            return Err(self.entries.len());
        }
        // While the ring is dense the slot sits `slot - front` positions in.
        if let Ok(offset) = usize::try_from(slot - front) {
            if matches!(self.entries.get(offset), Some((found, _)) if *found == slot) {
                return Ok(offset);
            }
        }
        self.entries.binary_search_by_key(&slot, |(s, _)| *s)
    }

    pub(crate) fn contains(&self, slot: u64) -> bool {
        self.index_of(slot).is_ok()
    }

    pub(crate) fn get_mut(&mut self, slot: u64) -> Option<&mut T> {
        let index = self.index_of(slot).ok()?;
        self.entries.get_mut(index).map(|(_, entry)| entry)
    }

    /// The slot and entry at `index` (in slot order).
    pub(crate) fn at(&self, index: usize) -> Option<(u64, &T)> {
        self.entries.get(index).map(|(slot, entry)| (*slot, entry))
    }

    /// Mutable variant of [`SlotRing::at`].
    pub(crate) fn at_mut(&mut self, index: usize) -> Option<(u64, &mut T)> {
        self.entries
            .get_mut(index)
            .map(|(slot, entry)| (*slot, entry))
    }

    /// Inserts `entry` at `slot`, returning the entry it replaced.
    pub(crate) fn insert(&mut self, slot: u64, entry: T) -> Option<T> {
        match self.index_of(slot) {
            Ok(index) => Some(std::mem::replace(&mut self.entries[index].1, entry)),
            Err(index) => {
                self.entries.insert(index, (slot, entry));
                None
            }
        }
    }

    pub(crate) fn remove(&mut self, slot: u64) -> Option<T> {
        let index = self.index_of(slot).ok()?;
        self.remove_at(index).map(|(_, entry)| entry)
    }

    /// Removes the entry at `index`; O(1) at the front, where completed
    /// commits leave.
    pub(crate) fn remove_at(&mut self, index: usize) -> Option<(u64, T)> {
        self.entries.remove(index)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.entries.iter().map(|(slot, entry)| (*slot, entry))
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Tracks which slots of one pipeline a follower has *cleared* — i.e. has
/// either applied the slot's R-INV or received its R-VAL (§5.2).
///
/// A follower may observe only a partial stream of a pipeline (it is a
/// follower per transaction, not per pipeline), so cleared slots are not
/// necessarily contiguous. The tracker keeps a dense prefix plus a sparse
/// set above it, so memory stays proportional to the number of gaps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClearedTracker {
    /// Every slot `< prefix` is cleared.
    prefix: u64,
    /// Cleared slots `>= prefix` (non-contiguous).
    sparse: BTreeSet<u64>,
}

impl ClearedTracker {
    /// Creates an empty tracker (no slot cleared).
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `slot` as cleared.
    pub fn mark(&mut self, slot: u64) {
        if slot < self.prefix {
            return;
        }
        if slot > self.prefix {
            self.sparse.insert(slot);
            return;
        }
        // The in-order case never touches the sparse set.
        self.prefix += 1;
        while !self.sparse.is_empty() && self.sparse.remove(&self.prefix) {
            self.prefix += 1;
        }
    }

    /// Whether `slot` is cleared.
    pub fn is_cleared(&self, slot: u64) -> bool {
        slot < self.prefix || self.sparse.contains(&slot)
    }

    /// The dense cleared prefix (all slots below this are cleared).
    pub fn prefix(&self) -> u64 {
        self.prefix
    }

    /// Number of cleared slots tracked sparsely above the prefix.
    pub fn sparse_len(&self) -> usize {
        self.sparse.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots(ring: &SlotRing<&'static str>) -> Vec<u64> {
        ring.iter().map(|(slot, _)| slot).collect()
    }

    #[test]
    fn dense_ring_is_indexed_by_offset_from_its_front() {
        let mut ring = SlotRing::default();
        for slot in 10..20 {
            assert!(ring.insert(slot, "x").is_none());
        }
        assert_eq!(ring.len(), 10);
        assert_eq!(ring.index_of(10), Ok(0));
        assert_eq!(ring.index_of(17), Ok(7));
        assert_eq!(ring.index_of(9), Err(0), "before the front");
        assert_eq!(ring.index_of(20), Err(10), "past the back");
        assert_eq!(ring.last_slot(), Some(19));
        // Leaving from the front keeps it dense.
        assert_eq!(ring.remove(10), Some("x"));
        assert_eq!(ring.index_of(17), Ok(6));
        assert!(!ring.contains(10));
    }

    #[test]
    fn gaps_fall_back_to_a_search_and_stay_ordered() {
        let mut ring = SlotRing::default();
        for slot in [5, 9, 6, 40, 7] {
            ring.insert(slot, "x");
        }
        assert_eq!(slots(&ring), vec![5, 6, 7, 9, 40]);
        assert_eq!(ring.index_of(9), Ok(3), "behind a gap");
        assert_eq!(ring.index_of(8), Err(3), "in the gap");
        assert_eq!(ring.index_of(40), Ok(4));
        // Out-of-order departure from the middle.
        assert_eq!(ring.remove(6), Some("x"));
        assert_eq!(slots(&ring), vec![5, 7, 9, 40]);
        assert_eq!(ring.index_of(7), Ok(1));
        assert_eq!(ring.remove(6), None);
        // Re-inserting an occupied slot replaces its entry.
        assert_eq!(ring.insert(9, "y"), Some("x"));
        assert_eq!(ring.get_mut(9).map(|e| *e), Some("y"));
        assert_eq!(ring.len(), 4);
    }

    #[test]
    fn positional_access_walks_in_slot_order() {
        let mut ring = SlotRing::default();
        assert!(ring.is_empty() && ring.last_slot().is_none());
        assert_eq!(ring.index_of(0), Err(0));
        for slot in [3, 1, 2] {
            ring.insert(slot, "x");
        }
        assert_eq!(ring.at(0).map(|(slot, _)| slot), Some(1));
        assert_eq!(ring.at_mut(2).map(|(slot, _)| slot), Some(3));
        assert!(ring.at(3).is_none());
        assert_eq!(ring.remove_at(1), Some((2, "x")));
        assert_eq!(slots(&ring), vec![1, 3]);
        ring.clear();
        assert!(ring.is_empty());
    }

    #[test]
    fn contiguous_marks_advance_prefix() {
        let mut t = ClearedTracker::new();
        assert!(!t.is_cleared(0));
        t.mark(0);
        t.mark(1);
        t.mark(2);
        assert_eq!(t.prefix(), 3);
        assert_eq!(t.sparse_len(), 0);
        assert!(t.is_cleared(2));
        assert!(!t.is_cleared(3));
    }

    #[test]
    fn gaps_stay_sparse_until_filled() {
        let mut t = ClearedTracker::new();
        t.mark(0);
        t.mark(2);
        t.mark(4);
        assert_eq!(t.prefix(), 1);
        assert_eq!(t.sparse_len(), 2);
        assert!(t.is_cleared(2));
        assert!(!t.is_cleared(1));
        t.mark(1);
        assert_eq!(t.prefix(), 3);
        t.mark(3);
        assert_eq!(t.prefix(), 5);
        assert_eq!(t.sparse_len(), 0);
    }

    #[test]
    fn double_mark_is_idempotent() {
        let mut t = ClearedTracker::new();
        t.mark(0);
        t.mark(0);
        assert_eq!(t.prefix(), 1);
        t.mark(5);
        t.mark(5);
        assert_eq!(t.sparse_len(), 1);
    }
}
