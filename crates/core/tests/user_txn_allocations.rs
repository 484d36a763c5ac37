//! A committed write costs no allocation of its own: the commit copies
//! each value once, into the payload it appends, and the row store keeps
//! a window into that payload. So a warmed-up 16-write `user_txn` makes
//! no more allocations than a 1-write one.
//!
//! A test binary of its own, because it installs a counting global
//! allocator.

use bytes::Bytes;
use marlin_common::{ClusterConfig, GranuleLayout, KeyRange, NodeId, TableId};
use marlin_core::LocalCluster;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // Thread teardown may allocate after the slot is gone; those calls
    // are not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator, so
// the caller's guarantees for each method are the ones `System` needs.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` has a non-zero size, as `alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // checked `new_size` as `realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TABLE: TableId = TableId(0);

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn sixteen_writes_allocate_no_more_than_one() {
    let mut cluster = LocalCluster::bootstrap(&ClusterConfig {
        initial_nodes: vec![NodeId(0)],
        tables: vec![GranuleLayout::uniform(
            TABLE,
            KeyRange::new(0, 64),
            1,
            64 * 1024,
            1024,
        )],
        ..ClusterConfig::default()
    });
    let writes = |n: u64, round: u64| -> Vec<(u64, Bytes)> {
        (0..n)
            .map(|k| (k, Bytes::from(vec![(round + k) as u8; 64])))
            .collect()
    };
    let mut call = |w: &[(u64, Bytes)]| {
        cluster.user_txn(NodeId(0), TABLE, &[], w).unwrap();
    };
    // Warm up: every key exists, the lock table and the log have grown.
    for round in 0..64 {
        call(&writes(16, round));
        call(&writes(1, round));
    }
    // The log's record list still doubles now and then, under either
    // shape: compare the cheapest call of each.
    let (mut one, mut sixteen) = (u64::MAX, u64::MAX);
    for round in 64..80 {
        let (w1, w16) = (writes(1, round), writes(16, round));
        one = one.min(allocations(|| call(&w1)));
        sixteen = sixteen.min(allocations(|| call(&w16)));
    }
    assert!(one > 0, "the counter counts");
    assert!(
        sixteen <= one,
        "a 16-write user_txn made {sixteen} allocations, a 1-write one {one}"
    );
}
