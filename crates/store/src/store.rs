//! Sharded, internally synchronised object store.

use bytes::Bytes;
use parking_lot::RwLock;
use zeus_proto::hash::spread;
use zeus_proto::{AccessLevel, IdHashMap, ObjectId, ReplicaSet};

use crate::entry::ObjectEntry;

/// Counters describing store contents and activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of objects stored (all access levels).
    pub objects: usize,
    /// Objects this node owns.
    pub owned: usize,
    /// Objects this node stores as a reader replica.
    pub reader: usize,
    /// Total bytes of object payloads.
    pub payload_bytes: usize,
}

/// The per-node object store.
///
/// Objects are partitioned across a fixed number of shards, each protected by
/// its own `RwLock`. The threading this serves: one thread at a time — the
/// node's event loop, or an application thread running the node under its
/// lock — makes every mutation, and any number of application (session)
/// threads read concurrently, executing read-only transactions against an
/// `Arc<Store>` the node shares with them (§5.3, §7). Every method locks one
/// shard for one entry access, so a reader sees each entry's fields
/// (`data`, `ts`, `t_state`, `level`) as one write left them; consistency
/// *across* entries is the reader's job (optimistic read, then re-validate
/// every timestamp). Sharding keeps a reader and the writer from meeting on
/// one lock unless they touch the same shard.
///
/// Why the shards stay although a node has one writer at a time: the readers
/// are not that writer. A session's caller-thread read (`ReadPort::try_read`
/// in `zeus-core`) takes a shard's read lock while whoever holds the node
/// lock takes write locks to apply commits and R-INVs, and a single lock
/// would put every replica read of the node behind every one of its writes.
/// The shard count is [`Store::default`]'s 64 in every deployment: a node
/// has no setting for it.
///
/// An access costs one multiplicative hash of the id
/// ([`zeus_proto::hash`]): its high bits pick the shard, and the shard's map
/// indexes by its low bits, so the two choices are independent.
#[derive(Debug)]
pub struct Store {
    shards: Vec<RwLock<Shard>>,
}

type Shard = IdHashMap<ObjectId, ObjectEntry>;

impl Default for Store {
    fn default() -> Self {
        Store::new(64)
    }
}

impl Store {
    /// Creates a store with the given number of shards (rounded up to 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Store {
            shards: (0..shards).map(|_| RwLock::default()).collect(),
        }
    }

    fn shard(&self, id: ObjectId) -> &RwLock<Shard> {
        // The same value the shard's map hashes `id` to; the map takes its
        // bucket from the low bits, the shard comes from the high half.
        let idx = (spread(id.0) >> 32) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Creates an object (the `malloc` of the transactional-memory API, §7).
    /// Overwrites any existing entry with the same id.
    pub fn create(
        &self,
        id: ObjectId,
        data: impl Into<Bytes>,
        level: AccessLevel,
        replicas: ReplicaSet,
    ) {
        let entry = ObjectEntry::new(data, level, replicas);
        self.shard(id).write().insert(id, entry);
    }

    /// Inserts a pre-built entry (used when ownership migration hands a full
    /// replica to a previously non-replica node).
    pub fn insert(&self, id: ObjectId, entry: ObjectEntry) {
        self.shard(id).write().insert(id, entry);
    }

    /// Removes an object (the `free` of the transactional-memory API).
    /// Returns the removed entry, if any.
    pub fn remove(&self, id: ObjectId) -> Option<ObjectEntry> {
        self.shard(id).write().remove(&id)
    }

    /// Removes every object (a re-admitted node discarding stale replicas).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    /// Whether the node stores a replica of the object.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.shard(id).read().contains_key(&id)
    }

    /// Clones the entry for `id` (cheap: payload is a refcounted `Bytes`).
    pub fn get(&self, id: ObjectId) -> Option<ObjectEntry> {
        self.shard(id).read().get(&id).cloned()
    }

    /// Runs a closure over the entry for `id`, if present.
    pub fn with<R>(&self, id: ObjectId, f: impl FnOnce(&ObjectEntry) -> R) -> Option<R> {
        self.shard(id).read().get(&id).map(f)
    }

    /// Runs a closure over a mutable entry for `id`, if present.
    pub fn with_mut<R>(&self, id: ObjectId, f: impl FnOnce(&mut ObjectEntry) -> R) -> Option<R> {
        self.shard(id).write().get_mut(&id).map(f)
    }

    /// Runs a closure over a mutable entry, inserting `default()` first if
    /// the object is absent.
    pub fn with_mut_or_insert<R>(
        &self,
        id: ObjectId,
        default: impl FnOnce() -> ObjectEntry,
        f: impl FnOnce(&mut ObjectEntry) -> R,
    ) -> R {
        let mut shard = self.shard(id).write();
        let entry = shard.entry(id).or_insert_with(default);
        f(entry)
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the ids of all stored objects (unordered).
    pub fn object_ids(&self) -> Vec<ObjectId> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(shard.read().keys().copied());
        }
        out
    }

    /// Returns the ids of all objects this node owns.
    pub fn owned_ids(&self) -> Vec<ObjectId> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .read()
                    .iter()
                    .filter(|(_, e)| e.level == AccessLevel::Owner)
                    .map(|(id, _)| *id),
            );
        }
        out
    }

    /// Aggregate statistics over the whole store.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for shard in &self.shards {
            for entry in shard.read().values() {
                stats.objects += 1;
                stats.payload_bytes += entry.data.len();
                match entry.level {
                    AccessLevel::Owner => stats.owned += 1,
                    AccessLevel::Reader => stats.reader += 1,
                    AccessLevel::NonReplica => {}
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_proto::{DataTs, NodeId, OwnershipTs};

    fn replicas() -> ReplicaSet {
        ReplicaSet::new(NodeId(0), [NodeId(1)])
    }

    #[test]
    fn create_get_remove_roundtrip() {
        let store = Store::new(8);
        let id = ObjectId(42);
        store.create(
            id,
            Bytes::from_static(b"hello"),
            AccessLevel::Owner,
            replicas(),
        );
        assert!(store.contains(id));
        let entry = store.get(id).unwrap();
        assert_eq!(entry.data, Bytes::from_static(b"hello"));
        assert_eq!(store.len(), 1);
        let removed = store.remove(id).unwrap();
        assert_eq!(removed.data, Bytes::from_static(b"hello"));
        assert!(store.is_empty());
        assert!(store.get(id).is_none());
    }

    #[test]
    fn with_mut_updates_in_place() {
        let store = Store::new(8);
        let id = ObjectId(1);
        store.create(id, Bytes::new(), AccessLevel::Owner, replicas());
        store
            .with_mut(id, |e| e.apply_local_write(Bytes::from_static(b"x")))
            .unwrap();
        assert_eq!(store.get(id).unwrap().ts.version, 1);
        assert!(store.with(ObjectId(999), |_| ()).is_none());
    }

    #[test]
    fn with_mut_or_insert_creates_missing_entries() {
        let store = Store::new(8);
        let id = ObjectId(7);
        let ts = store.with_mut_or_insert(
            id,
            || ObjectEntry::new(Bytes::new(), AccessLevel::Reader, ReplicaSet::default()),
            |e| {
                e.apply_follower_update(
                    DataTs::new(5, OwnershipTs::default()),
                    Bytes::from_static(b"new"),
                );
                e.ts
            },
        );
        assert_eq!(ts.version, 5);
        assert!(store.contains(id));
    }

    #[test]
    fn stats_and_owned_ids_reflect_levels() {
        let store = Store::new(4);
        store.create(ObjectId(1), vec![0u8; 10], AccessLevel::Owner, replicas());
        store.create(ObjectId(2), vec![0u8; 20], AccessLevel::Reader, replicas());
        store.create(ObjectId(3), vec![0u8; 30], AccessLevel::Owner, replicas());
        let stats = store.stats();
        assert_eq!(stats.objects, 3);
        assert_eq!(stats.owned, 2);
        assert_eq!(stats.reader, 1);
        assert_eq!(stats.payload_bytes, 60);
        let mut owned = store.owned_ids();
        owned.sort_unstable();
        assert_eq!(owned, vec![ObjectId(1), ObjectId(3)]);
        assert_eq!(store.object_ids().len(), 3);
    }

    #[test]
    fn concurrent_access_from_many_threads() {
        use std::sync::Arc;
        let store = Arc::new(Store::new(16));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let id = ObjectId(t * 1000 + i);
                    store.create(id, vec![0u8; 8], AccessLevel::Owner, ReplicaSet::default());
                    store.with_mut(id, |e| e.apply_local_write(Bytes::from_static(b"y")));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 8 * 500);
        assert!(store.stats().owned == 8 * 500);
    }
}
