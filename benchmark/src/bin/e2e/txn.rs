//! The transaction bodies every workload submits, and the object layout
//! they maintain so outputs can be checked afterwards.
//!
//! An object is `OBJECT_BYTES` long: a little-endian `u64` write counter, a
//! little-endian `i64` balance, zero padding. Every write bumps the counter
//! by one and adds the operation's delta to the balance, so after a run each
//! replica's counter must equal the number of committed writes the generator
//! counted for that object, and the balances must sum to what they started
//! at plus every committed delta.

use zeus_benchmark::gen::{Op, INITIAL_BALANCE, OBJECT_BYTES};
use zeus_core::{ObjectId, TxCtx, TxError};

/// The value every object is created with.
pub fn initial_value() -> Vec<u8> {
    let mut value = vec![0u8; OBJECT_BYTES];
    value[8..16].copy_from_slice(&INITIAL_BALANCE.to_le_bytes());
    value
}

fn decode(value: &[u8]) -> (u64, i64) {
    (
        u64::from_le_bytes(value[..8].try_into().expect("object holds a counter")),
        i64::from_le_bytes(value[8..16].try_into().expect("object holds a balance")),
    )
}

fn apply(old: &[u8], delta: i64) -> Vec<u8> {
    let (count, balance) = decode(old);
    let mut new = old.to_vec();
    new[..8].copy_from_slice(&(count + 1).to_le_bytes());
    new[8..16].copy_from_slice(&(balance + delta).to_le_bytes());
    new
}

/// The body of a write transaction for `op`.
pub fn write(op: Op) -> impl FnMut(&mut TxCtx<'_>) -> Result<(), TxError> + Send + 'static {
    move |tx| {
        for &object in op.reads() {
            tx.read(ObjectId(object))?;
        }
        // Open every written object before giving up on a missing one, so a
        // two-object transaction requests both ownerships in one round.
        let mut missing = None;
        for &(object, delta) in op.writes() {
            if let Err(e) = tx.update(ObjectId(object), |old| apply(old, delta)) {
                missing.get_or_insert(e);
            }
        }
        missing.map_or(Ok(()), Err)
    }
}

/// The body of a read-only transaction over `op.reads()`: the sums of the
/// write counters and of the balances it saw.
pub fn read(op: Op) -> impl FnMut(&mut TxCtx<'_>) -> Result<(u64, i64), TxError> + Send + 'static {
    move |tx| {
        let mut sums = (0u64, 0i64);
        for &object in op.reads() {
            let (count, balance) = decode(&tx.read(ObjectId(object))?);
            sums = (sums.0 + count, sums.1 + balance);
        }
        Ok(sums)
    }
}

/// The body of a read-only transaction returning the `(counter, balance)`
/// pairs of `objects`, 16 bytes each — the bulk read of the output checks.
pub fn dump(
    objects: std::ops::Range<u64>,
) -> impl FnMut(&mut TxCtx<'_>) -> Result<Vec<u8>, TxError> + Send + 'static {
    move |tx| {
        let mut out = Vec::with_capacity(16 * (objects.end - objects.start) as usize);
        for object in objects.clone() {
            out.extend_from_slice(&tx.read(ObjectId(object))?[..16]);
        }
        Ok(out)
    }
}

/// Splits a [`dump`] back into `(counter, balance)` pairs.
pub fn undump(bytes: &[u8]) -> impl Iterator<Item = (u64, i64)> + '_ {
    bytes.chunks_exact(16).map(decode)
}
