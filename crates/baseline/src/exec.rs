//! A small executable statically-sharded store with two-phase commit.
//!
//! This is not meant to be fast: it executes a lock-based two-phase commit
//! over statically sharded, replicated objects so the integration tests can
//! check it against Zeus on the same writes, and so the examples can show
//! the programming-model difference (remote aborts, blocking on
//! replication) next to Zeus.

use std::collections::HashMap;

use bytes::Bytes;
use zeus_proto::{NodeId, ObjectId};

/// Message counters of one baseline execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselineStats {
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted because a lock was held.
    pub aborted: u64,
    /// Messages exchanged (requests + responses).
    pub messages: u64,
    /// Remote object reads performed.
    pub remote_reads: u64,
}

/// One replica's copy of an object.
#[derive(Debug, Clone)]
struct Replica {
    data: Bytes,
    version: u64,
    locked: bool,
}

/// A statically-sharded, synchronously replicated store with lock-based
/// two-phase commit. All "nodes" live in one process; messages are counted,
/// not sent.
#[derive(Debug)]
pub struct StaticShardedStore {
    nodes: usize,
    replication: usize,
    /// Per-node primary copies.
    primaries: Vec<HashMap<ObjectId, Replica>>,
    /// Per-node backup copies.
    backups: Vec<HashMap<ObjectId, Replica>>,
    stats: BaselineStats,
}

impl StaticShardedStore {
    /// Creates a store over `nodes` nodes with the given replication degree.
    pub fn new(nodes: usize, replication: usize) -> Self {
        assert!(nodes >= 1);
        StaticShardedStore {
            nodes,
            replication: replication.clamp(1, nodes),
            primaries: vec![HashMap::new(); nodes],
            backups: vec![HashMap::new(); nodes],
            stats: BaselineStats::default(),
        }
    }

    /// Home (primary) node of an object under static sharding.
    pub fn home_of(&self, object: ObjectId) -> NodeId {
        NodeId((object.0 % self.nodes as u64) as u16)
    }

    /// Loads an object onto its home node and backups.
    pub fn create(&mut self, object: ObjectId, data: impl Into<Bytes>) {
        let data = data.into();
        let home = self.home_of(object).index();
        self.primaries[home].insert(
            object,
            Replica {
                data: data.clone(),
                version: 0,
                locked: false,
            },
        );
        for i in 1..self.replication {
            let backup = (home + i) % self.nodes;
            self.backups[backup].insert(
                object,
                Replica {
                    data: data.clone(),
                    version: 0,
                    locked: false,
                },
            );
        }
    }

    /// Executes a read-only transaction from `coordinator`: remote objects
    /// cost one round-trip each.
    pub fn read_tx(&mut self, coordinator: NodeId, objects: &[ObjectId]) -> Option<Vec<Bytes>> {
        let mut out = Vec::with_capacity(objects.len());
        for &object in objects {
            let home = self.home_of(object);
            if home != coordinator {
                self.stats.messages += 2;
                self.stats.remote_reads += 1;
            }
            let replica = self.primaries[home.index()].get(&object)?;
            out.push(replica.data.clone());
        }
        self.stats.committed += 1;
        Some(out)
    }

    /// Executes a write transaction with lock-based two-phase commit from
    /// `coordinator`, writing `data` to every object in `writes`.
    /// Returns `false` (and aborts) if any lock is unavailable.
    pub fn write_tx(&mut self, coordinator: NodeId, writes: &[(ObjectId, Bytes)]) -> bool {
        // Phase 0: remote reads/lookups for every remote object.
        for (object, _) in writes {
            if self.home_of(*object) != coordinator {
                self.stats.messages += 2;
                self.stats.remote_reads += 1;
            }
        }
        // Phase 1: lock every primary (prepare). One round-trip per remote
        // participant; local locks are free.
        let mut locked = Vec::new();
        let mut ok = true;
        for (object, _) in writes {
            let home = self.home_of(*object);
            if home != coordinator {
                self.stats.messages += 2;
            }
            match self.primaries[home.index()].get_mut(object) {
                Some(replica) if !replica.locked => {
                    replica.locked = true;
                    locked.push(*object);
                }
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            // Abort: unlock what we locked (one message per remote primary).
            for object in locked {
                let home = self.home_of(object);
                if home != coordinator {
                    self.stats.messages += 1;
                }
                if let Some(r) = self.primaries[home.index()].get_mut(&object) {
                    r.locked = false;
                }
            }
            self.stats.aborted += 1;
            return false;
        }
        // Phase 2: commit — write primaries, synchronously replicate to the
        // backups of every written object, then unlock.
        for (object, data) in writes {
            let home = self.home_of(*object);
            if home != coordinator {
                self.stats.messages += 2;
            }
            let replica = self.primaries[home.index()]
                .get_mut(object)
                .expect("locked object exists");
            replica.data = data.clone();
            replica.version += 1;
            replica.locked = false;
            let version = replica.version;
            for i in 1..self.replication {
                let backup = (home.index() + i) % self.nodes;
                self.stats.messages += 2;
                if let Some(b) = self.backups[backup].get_mut(object) {
                    b.data = data.clone();
                    b.version = version;
                }
            }
        }
        self.stats.committed += 1;
        true
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> BaselineStats {
        self.stats
    }

    /// Current primary value of an object (tests).
    pub fn get(&self, object: ObjectId) -> Option<Bytes> {
        self.primaries[self.home_of(object).index()]
            .get(&object)
            .map(|r| r.data.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_write_uses_only_replication_messages() {
        let mut s = StaticShardedStore::new(3, 3);
        let obj = ObjectId(3); // home = node 0
        s.create(obj, Bytes::from_static(b"a"));
        assert!(s.write_tx(NodeId(0), &[(obj, Bytes::from_static(b"b"))]));
        // 2 backups × 2 messages each, nothing else.
        assert_eq!(s.stats().messages, 4);
        assert_eq!(s.get(obj).unwrap(), Bytes::from_static(b"b"));
    }

    #[test]
    fn remote_write_needs_many_more_messages() {
        let mut s = StaticShardedStore::new(3, 3);
        let obj = ObjectId(4); // home = node 1
        s.create(obj, Bytes::from_static(b"a"));
        assert!(s.write_tx(NodeId(0), &[(obj, Bytes::from_static(b"b"))]));
        // Remote read + prepare + commit round-trips + backup replication.
        assert!(s.stats().messages > 4, "got {}", s.stats().messages);
        assert_eq!(s.stats().remote_reads, 1);
    }

    #[test]
    fn conflicting_writers_abort() {
        let mut s = StaticShardedStore::new(2, 1);
        let obj = ObjectId(2);
        s.create(obj, Bytes::from_static(b"a"));
        // Manually lock the primary to simulate a concurrent prepare.
        s.primaries[0].get_mut(&obj).unwrap().locked = true;
        assert!(!s.write_tx(NodeId(0), &[(obj, Bytes::from_static(b"b"))]));
        assert_eq!(s.stats().aborted, 1);
        assert_eq!(s.get(obj).unwrap(), Bytes::from_static(b"a"));
    }

    #[test]
    fn read_tx_counts_remote_reads() {
        let mut s = StaticShardedStore::new(3, 1);
        for i in 0..3u64 {
            s.create(ObjectId(i), Bytes::from_static(b"x"));
        }
        let values = s
            .read_tx(NodeId(0), &[ObjectId(0), ObjectId(1), ObjectId(2)])
            .unwrap();
        assert_eq!(values.len(), 3);
        assert_eq!(s.stats().remote_reads, 2);
    }
}
