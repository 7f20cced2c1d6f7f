//! Transaction API: contexts, outcomes and errors.
//!
//! The surface mirrors the paper's transactional-memory API (§7): a
//! transaction is arbitrary code that opens objects for reading or writing
//! through a [`TxCtx`]; Zeus verifies the required access level on each open
//! and acquires ownership on demand. Write transactions enjoy *opacity*
//! (§6.2): every read is validated against the versions observed, even if the
//! transaction ultimately aborts.

use bytes::Bytes;
use zeus_proto::messages::NackReason;
use zeus_proto::{ObjectId, OwnershipRequestKind, RequestId, TxId};
use zeus_store::{Store, TxWorkspace};

/// Why a transaction could not commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// The node lacks the access level needed for `object`; ownership is
    /// being (or must be) acquired. Write transactions surface this through
    /// [`WriteOutcome::OwnershipPending`] rather than an abort.
    NeedsOwnership {
        /// The object that must be acquired.
        object: ObjectId,
        /// The level to acquire.
        kind: OwnershipRequestKind,
    },
    /// A read-only transaction touched an object this node does not
    /// replicate; route it to a replica instead (§5.3).
    NotReplicated {
        /// The missing object.
        object: ObjectId,
    },
    /// A read-only transaction hit an invalidated object or a version change
    /// (a conflicting reliable commit is in flight); retry locally.
    ReadConflict,
    /// Opacity validation failed at local commit (a concurrent local
    /// transaction or incoming migration changed a read object).
    ValidationFailed,
    /// A read-only transaction attempted a write.
    WriteInReadOnly,
    /// The application aborted the transaction.
    UserAbort,
    /// An ownership acquisition failed terminally.
    OwnershipFailed {
        /// The object whose acquisition failed.
        object: ObjectId,
        /// The protocol-level reason.
        reason: NackReason,
    },
    /// The transaction exhausted its ownership-retry budget (back-off
    /// deadlock avoidance, §6.2).
    RetriesExhausted,
    /// The node fenced itself: it is isolated from every peer of its view
    /// (or was removed from the view) and must not serve transactions, since
    /// the rest of the cluster may have expelled it and moved on (the
    /// node-side lease contract, §3.1). Route the request to another node
    /// and retry once the node is re-admitted.
    Fenced,
    /// An ownership acquisition decided without any surviving data-bearing
    /// arbiter, and the placement proves the object is not a genuine first
    /// touch: its committed history is (currently) unreachable. The
    /// transaction aborts instead of fabricating an empty version-0 object;
    /// a retry re-fetches the value from the surviving readers named in the
    /// placement once they answer.
    DataLoss,
    /// The node could not be reached at all: its command channel is closed
    /// (the node thread exited or the cluster shut down). Unlike
    /// [`TxError::RetriesExhausted`] this is not a protocol outcome — the
    /// transaction was never handed to the node. Route the request to
    /// another node.
    NodeUnavailable,
}

impl TxError {
    /// Whether a transaction aborted with this error may be retried with a
    /// fresh execution — the classification a
    /// [`crate::client::RetryPolicy`] applies.
    ///
    /// Retryable: transient local conflicts ([`TxError::ValidationFailed`],
    /// [`TxError::ReadConflict`]) and
    /// transient ownership-protocol rejections (lost arbitration, pending
    /// commit, in-progress recovery — the paper's §6.2 back-off cases).
    /// Everything else is terminal for the issuing session: application
    /// aborts, fencing, missing replicas, data loss, exhausted budgets and
    /// unreachable nodes.
    pub fn is_retryable(&self) -> bool {
        use zeus_proto::messages::NackReason;
        match self {
            TxError::ValidationFailed | TxError::ReadConflict => true,
            TxError::OwnershipFailed { reason, .. } => matches!(
                reason,
                NackReason::LostArbitration | NackReason::PendingCommit | NackReason::Recovering
            ),
            // `NeedsOwnership` is not an abort: the runtimes park the
            // transaction until the acquisition completes.
            TxError::NeedsOwnership { .. } => false,
            TxError::NotReplicated { .. }
            | TxError::WriteInReadOnly
            | TxError::UserAbort
            | TxError::RetriesExhausted
            | TxError::Fenced
            | TxError::DataLoss
            | TxError::NodeUnavailable => false,
        }
    }
}

/// Outcome of a write-transaction execution attempt on a node.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOutcome<R> {
    /// The transaction committed locally; its reliable commit is pipelined.
    Committed {
        /// The transaction id assigned by the commit pipeline.
        tx_id: TxId,
        /// The value returned by the transaction closure.
        value: R,
    },
    /// The transaction touched objects this node does not hold at the
    /// required level. Ownership requests were issued; re-execute the
    /// transaction once they complete (the application thread blocks here in
    /// the paper, §3.2).
    OwnershipPending {
        /// The outstanding ownership requests.
        requests: Vec<RequestId>,
    },
    /// The transaction aborted.
    Aborted {
        /// Why it aborted.
        error: TxError,
    },
}

impl<R> WriteOutcome<R> {
    /// Returns the committed value, panicking otherwise (test helper).
    pub fn unwrap_committed(self) -> R {
        match self {
            WriteOutcome::Committed { value, .. } => value,
            other => panic!("expected Committed, got {:?}", discriminant_name(&other)),
        }
    }

    /// Whether the outcome is `Committed`.
    pub fn is_committed(&self) -> bool {
        matches!(self, WriteOutcome::Committed { .. })
    }
}

fn discriminant_name<R>(o: &WriteOutcome<R>) -> &'static str {
    match o {
        WriteOutcome::Committed { .. } => "Committed",
        WriteOutcome::OwnershipPending { .. } => "OwnershipPending",
        WriteOutcome::Aborted { .. } => "Aborted",
    }
}

/// Outcome of a read-only transaction (§5.3): it either commits after its
/// local validation or aborts (no network traffic either way).
#[derive(Debug, Clone, PartialEq)]
pub enum ReadOutcome<R> {
    /// The transaction observed a consistent, reliably committed snapshot.
    Committed {
        /// The value returned by the transaction closure.
        value: R,
    },
    /// The transaction aborted (conflict or missing replica).
    Aborted {
        /// Why it aborted.
        error: TxError,
    },
}

impl<R> ReadOutcome<R> {
    /// Returns the committed value, panicking otherwise (test helper).
    pub fn unwrap_committed(self) -> R {
        match self {
            ReadOutcome::Committed { value } => value,
            ReadOutcome::Aborted { error } => panic!("read-only tx aborted: {error:?}"),
        }
    }

    /// Whether the outcome is `Committed`.
    pub fn is_committed(&self) -> bool {
        matches!(self, ReadOutcome::Committed { .. })
    }
}

/// Runs one attempt of a read-only transaction against `store` (§5.3): an
/// optimistic execution of `f`, then the local commit — every object read
/// must still be `Valid` at the timestamp it was read at. Each access takes
/// its shard lock on its own, so the routine is safe on any thread while the
/// node loop mutates the store: all reads precede all re-checks and a value
/// never changes without its timestamp moving, so a successful re-check
/// proves the values read were all current, and reliably committed, at one
/// instant between the two passes. A failed re-check is a
/// [`TxError::ReadConflict`]. The workspace is returned for its read set.
///
/// This is the only implementation of read-only execution: the node (loop
/// and simulator) and the sessions' caller-thread fast path both call it.
pub(crate) fn execute_read_only<R>(
    store: &Store,
    f: impl FnOnce(&mut TxCtx<'_>) -> Result<R, TxError>,
) -> (Result<R, TxError>, TxWorkspace) {
    let mut ctx = TxCtx::read_tx(store);
    let result = f(&mut ctx);
    let ws = ctx.ws;
    let result = result.and_then(|value| {
        let consistent = ws.read_set().all(|(object, ts)| {
            store
                .with(object, |e| e.t_state.readable() && e.ts == ts)
                .unwrap_or(false)
        });
        consistent.then_some(value).ok_or(TxError::ReadConflict)
    });
    (result, ws)
}

/// Execution context handed to transaction closures.
///
/// The context records the read and write sets, serves reads from the
/// transaction's private copies (write-your-own-read), and accumulates the
/// access levels that are missing so the node can acquire them.
#[derive(Debug)]
pub struct TxCtx<'a> {
    store: &'a Store,
    read_only: bool,
    ws: TxWorkspace,
    missing: Vec<(ObjectId, OwnershipRequestKind)>,
}

impl<'a> TxCtx<'a> {
    /// Creates a context for a write transaction that records its sets in
    /// `ws` (empty; the node hands in the one it recycles).
    pub(crate) fn write_tx(store: &'a Store, ws: TxWorkspace) -> Self {
        debug_assert!(ws.read_count() == 0 && ws.write_count() == 0);
        TxCtx {
            store,
            read_only: false,
            ws,
            missing: Vec::new(),
        }
    }

    /// Creates a context for a read-only transaction.
    pub(crate) fn read_tx(store: &'a Store) -> Self {
        TxCtx {
            store,
            read_only: true,
            ws: TxWorkspace::new(),
            missing: Vec::new(),
        }
    }

    /// Opens `object` for reading and returns its data
    /// (`tr_open_read`, §7).
    pub fn read(&mut self, object: ObjectId) -> Result<Bytes, TxError> {
        if let Some(private) = self.ws.written(object) {
            return Ok(private.clone());
        }
        // Copy out only what a read needs, under the shard lock: cloning the
        // whole entry would heap-allocate its replica list on every read.
        let seen = self.store.with(object, |e| {
            e.level
                .can_read()
                .then(|| (e.data.clone(), e.ts, e.t_state))
        });
        match seen {
            Some(Some((data, ts, t_state))) => {
                if self.read_only && !t_state.readable() {
                    // A reliable commit is in flight: the replica may return
                    // neither the old nor the new value (§5.3).
                    return Err(TxError::ReadConflict);
                }
                self.ws.record_read(object, ts);
                Ok(data)
            }
            _ if self.read_only => Err(TxError::NotReplicated { object }),
            _ => {
                let kind = OwnershipRequestKind::AcquireReader;
                self.missing.push((object, kind));
                Err(TxError::NeedsOwnership { object, kind })
            }
        }
    }

    /// Opens `object` for writing and installs `data` as its new value in the
    /// transaction's private copy (`tr_open_write`, §7).
    pub fn write(&mut self, object: ObjectId, data: impl Into<Bytes>) -> Result<(), TxError> {
        if self.read_only {
            return Err(TxError::WriteInReadOnly);
        }
        // Already opened for writing: write access was checked then.
        if self.ws.written(object).is_some() {
            self.ws.record_write(object, data.into());
            return Ok(());
        }
        match self
            .store
            .with(object, |e| e.level.can_write().then_some(e.ts))
        {
            Some(Some(ts)) => {
                self.ws.record_read(object, ts);
                self.ws.record_write(object, data.into());
                Ok(())
            }
            _ => Err(self.needs_owner(object)),
        }
    }

    /// Notes that `object` must be acquired as owner before the transaction
    /// can run, and returns the error saying so.
    fn needs_owner(&mut self, object: ObjectId) -> TxError {
        let kind = OwnershipRequestKind::AcquireOwner;
        self.missing.push((object, kind));
        TxError::NeedsOwnership { object, kind }
    }

    /// Reads `object`, applies `f` to its value and writes the result back —
    /// the common read-modify-write shape of the OLTP benchmarks.
    pub fn update(
        &mut self,
        object: ObjectId,
        f: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> Result<(), TxError> {
        if self.read_only {
            let current = self.read(object)?;
            return self.write(object, f(&current));
        }
        if let Some(private) = self.ws.written(object) {
            let new = f(private);
            self.ws.record_write(object, new);
            return Ok(());
        }
        // One visit opens the object for writing: the access check (a write
        // will be needed, so owner level is asked for up front and a single
        // ownership round-trip suffices), the value and its timestamp.
        match self.store.with(object, |e| {
            e.level.can_write().then(|| (e.data.clone(), e.ts))
        }) {
            Some(Some((current, ts))) => {
                self.ws.record_read(object, ts);
                self.ws.record_write(object, f(&current));
                Ok(())
            }
            _ => Err(self.needs_owner(object)),
        }
    }

    /// Marks the transaction as aborted by the application.
    pub fn abort<T>(&self) -> Result<T, TxError> {
        Err(TxError::UserAbort)
    }

    /// Number of objects read so far.
    pub fn reads(&self) -> usize {
        self.ws.read_count()
    }

    /// Number of objects written so far.
    pub fn writes(&self) -> usize {
        self.ws.write_count()
    }

    /// Consumes the context, returning the workspace and the missing access
    /// levels (deduplicated, strongest level wins).
    pub(crate) fn into_parts(self) -> (TxWorkspace, Vec<(ObjectId, OwnershipRequestKind)>) {
        // In place: the deduplicated prefix grows behind the cursor.
        let mut missing = self.missing;
        let mut kept = 0;
        for i in 0..missing.len() {
            let (object, kind) = missing[i];
            match missing[..kept].iter_mut().find(|(o, _)| *o == object) {
                Some(existing) if kind == OwnershipRequestKind::AcquireOwner => existing.1 = kind,
                Some(_) => {}
                None => {
                    missing[kept] = (object, kind);
                    kept += 1;
                }
            }
        }
        missing.truncate(kept);
        (self.ws, missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_proto::{AccessLevel, NodeId, ReplicaSet};

    fn store_with(level: AccessLevel) -> Store {
        let store = Store::new(4);
        store.create(
            ObjectId(1),
            Bytes::from_static(b"v1"),
            level,
            ReplicaSet::new(NodeId(0), [NodeId(1)]),
        );
        store
    }

    #[test]
    fn write_tx_reads_and_writes_owned_object() {
        let store = store_with(AccessLevel::Owner);
        let mut ctx = TxCtx::write_tx(&store, TxWorkspace::new());
        assert_eq!(ctx.read(ObjectId(1)).unwrap(), Bytes::from_static(b"v1"));
        ctx.write(ObjectId(1), Bytes::from_static(b"v2")).unwrap();
        assert_eq!(ctx.read(ObjectId(1)).unwrap(), Bytes::from_static(b"v2"));
        let (ws, missing) = ctx.into_parts();
        assert!(missing.is_empty());
        assert_eq!(ws.write_count(), 1);
    }

    #[test]
    fn write_to_reader_object_requests_ownership() {
        let store = store_with(AccessLevel::Reader);
        let mut ctx = TxCtx::write_tx(&store, TxWorkspace::new());
        let err = ctx.write(ObjectId(1), Bytes::new()).unwrap_err();
        assert!(matches!(err, TxError::NeedsOwnership { .. }));
        let (_, missing) = ctx.into_parts();
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].1, OwnershipRequestKind::AcquireOwner);
    }

    #[test]
    fn read_of_unknown_object_requests_reader_level() {
        let store = Store::new(4);
        let mut ctx = TxCtx::write_tx(&store, TxWorkspace::new());
        assert!(ctx.read(ObjectId(9)).is_err());
        let (_, missing) = ctx.into_parts();
        assert_eq!(missing[0].1, OwnershipRequestKind::AcquireReader);
    }

    #[test]
    fn missing_levels_deduplicate_to_strongest() {
        let store = Store::new(4);
        let mut ctx = TxCtx::write_tx(&store, TxWorkspace::new());
        let _ = ctx.read(ObjectId(5));
        let _ = ctx.write(ObjectId(5), Bytes::new());
        let (_, missing) = ctx.into_parts();
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].1, OwnershipRequestKind::AcquireOwner);
    }

    #[test]
    fn read_only_tx_rejects_writes_and_missing_replicas() {
        let store = store_with(AccessLevel::Reader);
        let mut ctx = TxCtx::read_tx(&store);
        assert_eq!(ctx.read(ObjectId(1)).unwrap(), Bytes::from_static(b"v1"));
        assert_eq!(
            ctx.write(ObjectId(1), Bytes::new()).unwrap_err(),
            TxError::WriteInReadOnly
        );
        assert!(matches!(
            ctx.read(ObjectId(99)).unwrap_err(),
            TxError::NotReplicated { .. }
        ));
    }

    #[test]
    fn read_only_tx_aborts_on_invalidated_object() {
        let store = store_with(AccessLevel::Reader);
        store
            .with_mut(ObjectId(1), |e| {
                e.apply_follower_update(
                    zeus_proto::DataTs::new(5, Default::default()),
                    Bytes::from_static(b"new"),
                );
            })
            .unwrap();
        let mut ctx = TxCtx::read_tx(&store);
        assert_eq!(ctx.read(ObjectId(1)).unwrap_err(), TxError::ReadConflict);
    }

    #[test]
    fn update_helper_does_read_modify_write() {
        let store = store_with(AccessLevel::Owner);
        let mut ctx = TxCtx::write_tx(&store, TxWorkspace::new());
        ctx.update(ObjectId(1), |old| {
            let mut v = old.to_vec();
            v.push(b'!');
            v
        })
        .unwrap();
        assert_eq!(ctx.read(ObjectId(1)).unwrap(), Bytes::from_static(b"v1!"));
    }

    #[test]
    fn unwrap_helpers_behave() {
        let ok: WriteOutcome<u32> = WriteOutcome::Committed {
            tx_id: Default::default(),
            value: 7,
        };
        assert!(ok.is_committed());
        assert_eq!(ok.unwrap_committed(), 7);
        let ro: ReadOutcome<u32> = ReadOutcome::Committed { value: 9 };
        assert!(ro.is_committed());
        assert_eq!(ro.unwrap_committed(), 9);
    }
}
