//! Decoding reserves no more memory than its input could fill. A length
//! prefix is a claim, not a promise: a 9-byte frame that claims 16M updates
//! must fail with `UnexpectedEof` having reserved room for at most as many
//! elements as it has bytes left, since every element takes at least one.
//!
//! A test binary of its own because it installs a counting global allocator;
//! the largest allocation is recorded per thread, so the harness cannot leak
//! into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zeus_proto::wire::{decode_from_slice, encode_to_vec, Wire};
use zeus_proto::{CommitMsg, Epoch, NodeId, NodeSet, ObjectUpdate, PipelineId, ProtoError, TxId};

thread_local! {
    /// Largest single allocation this thread made since measuring started,
    /// or `None` while it is not measuring.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

struct LargestAllocation;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is being torn down.
    let _ = LARGEST.try_with(|largest| {
        if let Some(max) = largest.get() {
            largest.set(Some(max.max(size)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the record is a const-initialised
// thread-local `Cell` without a destructor, so touching it neither allocates
// nor re-enters the allocator.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestAllocation = LargestAllocation;

/// A count of 2^24 elements: the largest length prefix decoding accepts.
const CLAIMED: u32 = 1 << 24;

/// Decodes `frame` as a `T`, returning the error it must fail with and the
/// largest single allocation made meanwhile.
fn decode_measured<T: Wire + std::fmt::Debug>(frame: &[u8]) -> (ProtoError, usize) {
    LARGEST.with(|largest| largest.set(Some(0)));
    let result = decode_from_slice::<T>(frame);
    let largest = LARGEST
        .with(|largest| largest.replace(None))
        .expect("measuring");
    (result.expect_err("the frame is truncated"), largest)
}

/// `CLAIMED` as a length prefix, then `tail`.
fn claim_then(tail: &[u8]) -> Vec<u8> {
    let mut frame = encode_to_vec(&CLAIMED);
    frame.extend_from_slice(tail);
    frame
}

#[test]
fn a_short_frame_claiming_millions_of_elements_reserves_room_for_its_bytes_only() {
    let update = std::mem::size_of::<ObjectUpdate>();

    // The bare list: 4 bytes of count, 5 bytes left.
    let frame = claim_then(&[0; 5]);
    assert_eq!(frame.len(), 9);
    let (err, largest) = decode_measured::<Vec<ObjectUpdate>>(&frame);
    assert!(matches!(err, ProtoError::UnexpectedEof { .. }), "{err:?}");
    println!("Vec<ObjectUpdate> from 9 bytes: largest allocation {largest} B");
    assert!(largest <= 5 * update, "reserved {largest} B for 5 bytes");

    // The same claim as the `updates` of an R-INV.
    let mut frame = encode_to_vec(&CommitMsg::RInv {
        tx_id: TxId::new(PipelineId::new(NodeId(1), 0), 7),
        epoch: Epoch(2),
        followers: vec![NodeId(2)],
        prev_val: false,
        updates: Vec::new(),
    });
    frame.truncate(frame.len() - 4);
    frame.extend_from_slice(&claim_then(&[0; 5]));
    let (err, largest) = decode_measured::<CommitMsg>(&frame);
    assert!(matches!(err, ProtoError::UnexpectedEof { .. }), "{err:?}");
    assert!(
        largest <= 5 * update,
        "R-INV reserved {largest} B for 5 bytes"
    );

    // A node list long enough to skip the inline set.
    let (err, largest) = decode_measured::<NodeSet>(&claim_then(&[0; 5]));
    assert!(matches!(err, ProtoError::UnexpectedEof { .. }), "{err:?}");
    let node = std::mem::size_of::<NodeId>();
    assert!(
        largest <= 5 * node,
        "NodeSet reserved {largest} B for 5 bytes"
    );
}
