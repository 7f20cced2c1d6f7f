//! Per-pipeline slot bookkeeping: the slot-ordered ring both roles keep their
//! in-flight commits in, and the follower's cleared-slot tracker.

use std::collections::VecDeque;

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
/// necessarily contiguous. The tracker keeps a dense prefix plus a bitmap
/// of the cleared slots above it: one bit per slot, in 64-slot words from
/// the word of the lowest such slot to the word of the highest. Marking and
/// asking cost a bit operation; the prefix moves over a run of cleared
/// slots a word at a time, dropping the words it passes.
///
/// Memory is linear in the span of the cleared slots above the prefix,
/// cleared or not, and not in the slot numbers themselves: a follower that
/// first meets a pipeline late (a restarted or newly added node) starts its
/// bitmap at the first slot it sees. But the prefix only moves when the
/// follower clears the slot it stands at. A follower that never sees some
/// slot of the pipeline — with fewer replicas than nodes, most followers —
/// keeps its prefix below that slot for good, and the bitmap grows by a bit
/// per slot the coordinator hands out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClearedTracker {
    /// Every slot `< prefix` is cleared.
    prefix: u64,
    /// The word number (`slot / 64`) of the front of `words`; never below
    /// `prefix / 64`.
    base: u64,
    /// Cleared slots `>= prefix`: bit `s % 64` of word `s / 64 - base`
    /// stands for slot `s`. When the front word is the prefix's own, its
    /// bits below the prefix are set; otherwise the prefix sits on a word
    /// boundary. Empty when nothing above the prefix is cleared.
    words: VecDeque<u64>,
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
        let word = slot / 64;
        if self.words.is_empty() {
            self.base = word;
        }
        // Below the lowest word held: grow the bitmap down to it.
        while word < self.base {
            self.words.push_front(0);
            self.base -= 1;
        }
        let index =
            usize::try_from(word - self.base).expect("a cleared slot's word is addressable");
        if index >= self.words.len() {
            self.words.resize(index + 1, 0);
        }
        self.words[index] |= 1 << (slot % 64);
        if slot > self.prefix {
            return;
        }
        // The prefix's own word is the front one now. Move the prefix over
        // the run of set bits that starts at it, one word at a time,
        // dropping every word it leaves behind.
        while let Some(&front) = self.words.front() {
            let bit = self.prefix % 64;
            let run = u64::from((!(front >> bit)).trailing_zeros());
            self.prefix += run;
            if bit + run < 64 {
                break;
            }
            self.words.pop_front();
            self.base += 1;
        }
    }

    /// Whether `slot` is cleared.
    pub fn is_cleared(&self, slot: u64) -> bool {
        if slot < self.prefix {
            return true;
        }
        (slot / 64)
            .checked_sub(self.base)
            .and_then(|index| usize::try_from(index).ok())
            .and_then(|index| self.words.get(index))
            .is_some_and(|word| word >> (slot % 64) & 1 == 1)
    }

    /// The dense cleared prefix (all slots below this are cleared).
    pub fn prefix(&self) -> u64 {
        self.prefix
    }

    /// Number of cleared slots tracked sparsely above the prefix.
    pub fn sparse_len(&self) -> usize {
        let set: u32 = self.words.iter().map(|word| word.count_ones()).sum();
        // The bits below the prefix in its own word are set, and not sparse;
        // with any other front word the prefix is on a word boundary.
        set as usize - (self.prefix % 64) as usize
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

    #[test]
    fn the_prefix_crosses_words_and_drops_what_it_passes() {
        let mut t = ClearedTracker::new();
        for slot in (1..130).chain([200]) {
            t.mark(slot);
        }
        assert_eq!((t.prefix(), t.sparse_len()), (0, 130));
        assert_eq!(t.words.len(), 4, "slots 0–255");
        t.mark(0);
        assert_eq!((t.prefix(), t.sparse_len()), (130, 1));
        assert_eq!(t.words.len(), 2, "slots 128–255");
        assert!(t.is_cleared(129) && !t.is_cleared(130) && t.is_cleared(200));
        assert!(!t.is_cleared(u64::MAX), "far past the bitmap");
    }

    #[test]
    fn a_follower_that_first_sees_a_late_slot_holds_only_the_words_it_saw() {
        const LATE: u64 = 1 << 40;
        let mut t = ClearedTracker::new();
        t.mark(LATE);
        assert_eq!((t.prefix(), t.sparse_len(), t.words.len()), (0, 1, 1));
        assert!(t.is_cleared(LATE) && !t.is_cleared(LATE - 1) && !t.is_cleared(LATE + 1));
        assert!(!t.is_cleared(0) && !t.is_cleared(LATE - 64));
        // Slots just below and above what it has seen grow the bitmap by
        // their own words, not down to the prefix.
        t.mark(LATE - 100);
        t.mark(LATE + 200);
        assert_eq!((t.sparse_len(), t.words.len()), (3, 6));
        assert!(t.is_cleared(LATE - 100) && !t.is_cleared(LATE - 99));
    }

    /// The cleared set as a plain ordered set: a dense prefix and every
    /// cleared slot above it.
    #[derive(Default)]
    struct Model {
        prefix: u64,
        sparse: std::collections::BTreeSet<u64>,
    }

    impl Model {
        fn mark(&mut self, slot: u64) {
            if slot >= self.prefix {
                self.sparse.insert(slot);
            }
            while self.sparse.remove(&self.prefix) {
                self.prefix += 1;
            }
        }

        fn is_cleared(&self, slot: u64) -> bool {
            slot < self.prefix || self.sparse.contains(&slot)
        }
    }

    #[test]
    fn answers_like_an_ordered_set_over_seeded_random_marks() {
        for round in 0..200u64 {
            // xorshift64, seeded per round.
            let mut state = 0x9e37_79b9_7f4a_7c15 ^ (round + 1);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let (mut tracker, mut model) = (ClearedTracker::new(), Model::default());
            // The first marks land at the prefix, a few words above it, or
            // far above it (a follower that first meets the pipeline late,
            // whose prefix then never moves).
            let origin = [0, 5 * 64 + round % 64, (1 << 40) + round][round as usize % 3];
            // Marks land in a window a few words wide just above the prefix
            // (or the origin, while the prefix is below it), now and then far
            // above it or in the words just below it, and some repeat or
            // fall below the prefix.
            let width = 64 + round % 7 * 96;
            for _ in 0..2_000 {
                let r = next();
                let low = model.prefix.max(origin);
                let slot = match r % 16 {
                    0 if model.prefix > 0 => model.prefix - 1 - (r >> 8) % model.prefix.min(64),
                    1 => low + 64 * 9 + (r >> 8) % 1_000,
                    2 => low.saturating_sub(r >> 8 & 511).max(model.prefix),
                    _ => low + (r >> 8) % width,
                };
                tracker.mark(slot);
                model.mark(slot);
                assert_eq!(tracker.prefix(), model.prefix, "round {round}");
                assert_eq!(tracker.sparse_len(), model.sparse.len(), "round {round}");
                // The bitmap spans the slots seen above the prefix, not the
                // slot numbers.
                assert!(tracker.words.len() <= 40, "round {round}");
                let probe = low.saturating_sub(600) + (r >> 32) % (width + 2_200);
                for slot in [probe, slot, model.prefix, model.prefix + 1] {
                    assert_eq!(
                        tracker.is_cleared(slot),
                        model.is_cleared(slot),
                        "round {round}, slot {slot}"
                    );
                }
            }
        }
    }
}
