//! Per-object access-pattern tracking.
//!
//! Each node tracks only what it can observe for free on its own command
//! path: how often *it* reads and writes each object, whether those
//! accesses were served from the local replica, and what its current
//! access level is. That is enough for every policy decision to be a
//! *pull toward self* — pre-migrate what this node writes remotely, widen
//! what it reads remotely, shrink what it stopped accessing — so no
//! cross-node exchange of access statistics is needed and the whole
//! tracker stays deterministic per node.

use std::collections::HashMap;

use zeus_proto::{AccessLevel, ObjectId};

/// Fixed-point scale of the EWMA rates: `RATE_ONE` = one access per decay
/// interval. All rate arithmetic is integer, so runs replay exactly.
pub const RATE_ONE: u32 = 256;

/// Whether an access read or wrote the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read access (read-only transaction, or the read set of a write).
    Read,
    /// Write access.
    Write,
}

/// Maximum tracked objects. The map is pre-allocated at this capacity and
/// never grows: accesses to new objects beyond it are counted in
/// [`AccessTracker::dropped`] and dropped (existing entries keep updating),
/// so the hot path never allocates.
const CAPACITY: usize = 4096;

/// EWMA half-life control: each interval keeps `1 - 1/2^DECAY_SHIFT` of the
/// rate and blends the new interval's count in at weight `1/2^DECAY_SHIFT`.
const DECAY_SHIFT: u32 = 2;

/// Saturation cap for the remote-access streak counter.
const STREAK_CAP: u16 = 64;

/// Tracked state of one object at one node.
#[derive(Debug, Clone, Default)]
pub struct ObjectStats {
    /// EWMA read rate, `RATE_ONE` fixed point per decay interval.
    pub read_rate: u32,
    /// EWMA write rate, `RATE_ONE` fixed point per decay interval.
    pub write_rate: u32,
    /// Consecutive accesses that were not served by the local replica.
    pub remote_streak: u16,
    /// The node's access level as of the last access (or the last
    /// placement note).
    pub level: AccessLevel,
    /// Interval index of the most recent access.
    pub last_access_interval: u64,
    reads_this_interval: u32,
    writes_this_interval: u32,
}

impl ObjectStats {
    /// Combined read+write rate.
    pub fn total_rate(&self) -> u32 {
        self.read_rate.saturating_add(self.write_rate)
    }

    fn is_dead(&self) -> bool {
        self.read_rate == 0
            && self.write_rate == 0
            && self.reads_this_interval == 0
            && self.writes_this_interval == 0
            && self.remote_streak == 0
            // A tracked reader entry stays alive even at rate zero: it is
            // exactly the shrink candidate the policy wants to see.
            && self.level != AccessLevel::Reader
    }
}

/// Bounded, allocation-free-per-access map of [`ObjectStats`].
#[derive(Debug)]
pub struct AccessTracker {
    entries: HashMap<ObjectId, ObjectStats>,
    /// Completed decay intervals.
    interval: u64,
    /// Accesses to new objects dropped by the capacity cap.
    dropped: u64,
}

impl Default for AccessTracker {
    fn default() -> Self {
        AccessTracker {
            entries: HashMap::with_capacity(CAPACITY),
            interval: 0,
            dropped: 0,
        }
    }
}

impl AccessTracker {
    /// Records one access. O(1), no allocation: the map is pre-allocated to
    /// `CAPACITY`.
    pub fn record(
        &mut self,
        object: ObjectId,
        kind: AccessKind,
        level: AccessLevel,
        served_locally: bool,
    ) {
        if self.entries.len() >= CAPACITY && !self.entries.contains_key(&object) {
            self.dropped += 1;
            return;
        }
        let e = self.entries.entry(object).or_default();
        match kind {
            AccessKind::Read => e.reads_this_interval = e.reads_this_interval.saturating_add(1),
            AccessKind::Write => e.writes_this_interval = e.writes_this_interval.saturating_add(1),
        }
        e.level = level;
        e.last_access_interval = self.interval;
        e.remote_streak = if served_locally {
            0
        } else {
            e.remote_streak.saturating_add(1).min(STREAK_CAP)
        };
    }

    /// Folds a placement change in without an access: the node completed
    /// (or witnessed) an acquisition for `object`. Clears the remote
    /// streak — the placement just moved in this node's favor — and drops
    /// the entry entirely when the node stopped replicating the object
    /// (nothing left to decide about it).
    pub fn note_placement(&mut self, object: ObjectId, level: AccessLevel) {
        if level == AccessLevel::NonReplica {
            self.entries.remove(&object);
            return;
        }
        if let Some(e) = self.entries.get_mut(&object) {
            e.level = level;
            e.remote_streak = 0;
        }
    }

    /// Closes the current decay interval: blends each entry's interval
    /// counts into its EWMA rates, evicts entries that decayed to nothing,
    /// and advances the interval index.
    pub fn on_interval(&mut self) {
        self.entries.retain(|_, e| {
            // Subtract at least 1 per idle interval: a pure `rate >> shift`
            // decay stalls at small rates (3 >> 2 == 0) and the entry would
            // never cool to zero or be evicted.
            let blend = |rate: u32, count: u32| {
                rate.saturating_sub((rate >> DECAY_SHIFT).max(1))
                    + ((count.saturating_mul(RATE_ONE)) >> DECAY_SHIFT)
            };
            e.read_rate = blend(e.read_rate, e.reads_this_interval);
            e.write_rate = blend(e.write_rate, e.writes_this_interval);
            e.reads_this_interval = 0;
            e.writes_this_interval = 0;
            !e.is_dead()
        });
        self.interval += 1;
    }

    /// The completed-interval count (the tracker's coarse clock).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Accesses to new objects dropped by the capacity cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Stats for one object, if tracked.
    pub fn get(&self, object: ObjectId) -> Option<&ObjectStats> {
        self.entries.get(&object)
    }

    /// Number of tracked objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All tracked objects in ascending id order (policies iterate this
    /// for deterministic candidate enumeration).
    pub fn iter_sorted(&self) -> Vec<(ObjectId, &ObjectStats)> {
        let mut v: Vec<_> = self.entries.iter().map(|(o, s)| (*o, s)).collect();
        v.sort_by_key(|(o, _)| *o);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn ewma_rises_under_load_and_decays_when_idle() {
        let mut t = AccessTracker::default();
        for _ in 0..4 {
            t.record(obj(1), AccessKind::Write, AccessLevel::Owner, true);
        }
        t.on_interval();
        let after_burst = t.get(obj(1)).unwrap().write_rate;
        // 4 writes blended at 1/4 weight: 4*256/4 = 256.
        assert_eq!(after_burst, 4 * RATE_ONE / 4);
        // Idle intervals decay the rate toward zero...
        for _ in 0..3 {
            t.on_interval();
        }
        let decayed = t.get(obj(1)).unwrap().write_rate;
        assert!(decayed < after_burst, "{decayed} !< {after_burst}");
        // ...and eventually the entry is evicted outright (it is not a
        // reader replica, so nothing remains to decide).
        for _ in 0..64 {
            t.on_interval();
        }
        assert!(t.get(obj(1)).is_none(), "idle non-reader entry evicted");
    }

    #[test]
    fn reader_entries_survive_decay_for_the_shrink_policy() {
        let mut t = AccessTracker::default();
        t.record(obj(2), AccessKind::Read, AccessLevel::Reader, true);
        for _ in 0..80 {
            t.on_interval();
        }
        let e = t.get(obj(2)).expect("reader entry retained");
        assert_eq!(e.read_rate, 0);
        assert_eq!(e.level, AccessLevel::Reader);
    }

    #[test]
    fn remote_streak_counts_consecutive_misses_and_resets_on_local_service() {
        let mut t = AccessTracker::default();
        for _ in 0..3 {
            t.record(obj(3), AccessKind::Write, AccessLevel::NonReplica, false);
        }
        assert_eq!(t.get(obj(3)).unwrap().remote_streak, 3);
        t.record(obj(3), AccessKind::Write, AccessLevel::Owner, true);
        assert_eq!(t.get(obj(3)).unwrap().remote_streak, 0);
    }

    #[test]
    fn note_placement_clears_streak_and_forgets_dropped_replicas() {
        let mut t = AccessTracker::default();
        t.record(obj(4), AccessKind::Read, AccessLevel::NonReplica, false);
        t.note_placement(obj(4), AccessLevel::Reader);
        let e = t.get(obj(4)).unwrap();
        assert_eq!(e.remote_streak, 0);
        assert_eq!(e.level, AccessLevel::Reader);
        t.note_placement(obj(4), AccessLevel::NonReplica);
        assert!(t.get(obj(4)).is_none());
    }

    #[test]
    fn capacity_cap_drops_new_objects_without_allocating() {
        let mut t = AccessTracker::default();
        for o in 0..=CAPACITY as u64 {
            t.record(obj(o), AccessKind::Write, AccessLevel::Owner, true);
        }
        assert_eq!(t.len(), CAPACITY);
        assert_eq!(t.dropped(), 1);
        // Existing entries keep counting.
        t.record(obj(0), AccessKind::Write, AccessLevel::Owner, true);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn iteration_order_is_sorted_by_object_id() {
        let mut t = AccessTracker::default();
        for o in [5u64, 1, 9, 3] {
            t.record(obj(o), AccessKind::Read, AccessLevel::Reader, true);
        }
        let ids: Vec<u64> = t.iter_sorted().iter().map(|(o, _)| o.0).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
    }
}
