//! Per-transaction private workspace (read/write sets with opacity).
//!
//! Before its first update to an object, a Zeus transaction creates a private
//! copy and performs all further accesses on that copy (§3.2, step 1). The
//! workspace also records the commit timestamp ([`DataTs`]) of every object
//! read so that the local
//! commit can verify that the transaction observed a consistent snapshot —
//! this is the opacity guarantee of §6.2: even transactions that abort never
//! observe inconsistent state.

use bytes::Bytes;
use zeus_proto::{DataTs, ObjectId};

/// Read and write sets of one in-flight transaction.
///
/// Both sets are vectors in first-touch order, searched linearly: a
/// transaction touches a handful of objects, for which a scan beats hashing,
/// and a cleared workspace keeps its capacity, so a node that recycles one
/// workspace across transactions allocates for neither set.
#[derive(Debug, Default, Clone)]
pub struct TxWorkspace {
    /// Commit timestamp of each object at the time the transaction first
    /// read it.
    reads: Vec<(ObjectId, DataTs)>,
    /// Private copies of objects the transaction has written.
    writes: Vec<(ObjectId, Bytes)>,
}

impl TxWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the transaction read `object` at commit timestamp `ts`.
    /// The first recorded timestamp wins: later reads of the same object
    /// inside the same transaction are served from the private copy or the
    /// same snapshot.
    pub fn record_read(&mut self, object: ObjectId, ts: DataTs) {
        if self.read_ts(object).is_none() {
            self.reads.push((object, ts));
        }
    }

    /// Records a write of `data` to `object` (creating/replacing the private
    /// copy).
    pub fn record_write(&mut self, object: ObjectId, data: impl Into<Bytes>) {
        let data = data.into();
        match self.writes.iter_mut().find(|(id, _)| *id == object) {
            Some((_, private)) => *private = data,
            None => self.writes.push((object, data)),
        }
    }

    /// Returns the private copy of `object`, if the transaction wrote it.
    pub fn written(&self, object: ObjectId) -> Option<&Bytes> {
        self.writes
            .iter()
            .find(|(id, _)| *id == object)
            .map(|(_, data)| data)
    }

    /// Returns the commit timestamp at which `object` was first read, if
    /// recorded.
    pub fn read_ts(&self, object: ObjectId) -> Option<DataTs> {
        self.reads
            .iter()
            .find(|(id, _)| *id == object)
            .map(|&(_, ts)| ts)
    }

    /// Objects in the read set, in first-read order.
    pub fn read_set(&self) -> impl Iterator<Item = (ObjectId, DataTs)> + '_ {
        self.reads.iter().copied()
    }

    /// Objects in the write set, in first-write order.
    pub fn write_set(&self) -> impl Iterator<Item = (ObjectId, &Bytes)> + '_ {
        self.writes.iter().map(|(id, data)| (*id, data))
    }

    /// Number of objects written.
    pub fn write_count(&self) -> usize {
        self.writes.len()
    }

    /// Number of objects read.
    pub fn read_count(&self) -> usize {
        self.reads.len()
    }

    /// Whether the transaction wrote anything (a pure read-only workspace
    /// needs no reliable commit).
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    /// Verifies the objects the transaction read *but did not write* against
    /// the current commit timestamps supplied by `current`: returns `true`
    /// iff each still has the timestamp observed. An object the transaction
    /// also wrote is checked against its read timestamp
    /// ([`TxWorkspace::read_ts`]) by whoever applies the write, in the same
    /// visit to the object — so opacity holds for it as well, without a
    /// second lookup.
    pub fn validate_unwritten_reads(
        &self,
        mut current: impl FnMut(ObjectId) -> Option<DataTs>,
    ) -> bool {
        self.reads
            .iter()
            .filter(|(id, _)| self.written(*id).is_none())
            .all(|&(id, ts)| current(id) == Some(ts))
    }

    /// Clears both sets, allowing the workspace to be reused (abort/retry).
    pub fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_proto::OwnershipTs;

    fn ts(version: u64) -> DataTs {
        DataTs::new(version, OwnershipTs::default())
    }

    #[test]
    fn first_read_version_wins() {
        let mut ws = TxWorkspace::new();
        ws.record_read(ObjectId(1), ts(5));
        ws.record_read(ObjectId(1), ts(9));
        assert_eq!(ws.read_ts(ObjectId(1)), Some(ts(5)));
        assert_eq!(ws.read_count(), 1);
    }

    #[test]
    fn writes_create_private_copies() {
        let mut ws = TxWorkspace::new();
        assert!(ws.is_read_only());
        ws.record_write(ObjectId(2), Bytes::from_static(b"a"));
        ws.record_write(ObjectId(2), Bytes::from_static(b"b"));
        assert_eq!(ws.written(ObjectId(2)), Some(&Bytes::from_static(b"b")));
        assert_eq!(ws.write_count(), 1);
        assert!(!ws.is_read_only());
        let written: Vec<ObjectId> = ws.write_set().map(|(id, _)| id).collect();
        assert_eq!(written, vec![ObjectId(2)]);
    }

    #[test]
    fn validation_detects_version_changes_of_objects_only_read() {
        let mut ws = TxWorkspace::new();
        ws.record_read(ObjectId(1), ts(3));
        ws.record_read(ObjectId(2), ts(7));
        assert!(ws.validate_unwritten_reads(|id| match id {
            ObjectId(1) => Some(ts(3)),
            ObjectId(2) => Some(ts(7)),
            _ => None,
        }));
        assert!(!ws.validate_unwritten_reads(|id| match id {
            ObjectId(1) => Some(ts(4)),
            ObjectId(2) => Some(ts(7)),
            _ => None,
        }));
        assert!(
            !ws.validate_unwritten_reads(|_| None),
            "missing object fails validation"
        );
        // A written object is left to the visit that applies its write.
        ws.record_write(ObjectId(1), Bytes::new());
        assert!(ws.validate_unwritten_reads(|id| match id {
            ObjectId(1) => panic!("object 1 is written: not looked up here"),
            ObjectId(2) => Some(ts(7)),
            _ => None,
        }));
    }

    #[test]
    fn clear_resets_both_sets() {
        let mut ws = TxWorkspace::new();
        ws.record_read(ObjectId(1), ts(1));
        ws.record_write(ObjectId(1), Bytes::new());
        ws.clear();
        assert_eq!(ws.read_count(), 0);
        assert_eq!(ws.write_count(), 0);
        assert!(ws.is_read_only());
    }

    #[test]
    fn iterators_expose_sets() {
        let mut ws = TxWorkspace::new();
        ws.record_read(ObjectId(1), ts(1));
        ws.record_write(ObjectId(2), Bytes::from_static(b"x"));
        assert_eq!(ws.read_set().count(), 1);
        assert_eq!(ws.write_set().count(), 1);
    }
}
