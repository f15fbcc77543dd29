//! After warm-up the generator allocates nothing per query: every drawn
//! `(template, mask)` has interned its lists, the selectivities are
//! inline, and template-popularity shocks rebuild their sampler in place.
//!
//! A counting allocator tallies this thread's allocations; the file holds
//! a single test so no other test allocates on the same thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use catalog::tpch::{tpch_schema, ScaleFactor};
use workload::{WorkloadConfig, WorkloadGenerator};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn next_query_allocates_nothing_after_warm_up() {
    let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
    let mut g = WorkloadGenerator::new(schema, WorkloadConfig::default(), 5);
    // Warm-up: every key this stream draws appears within it.
    for _ in 0..20_000 {
        drop(g.next_query());
    }
    let before = ALLOCATIONS.with(Cell::get);
    // Spans several popularity shocks (one per 2,000 queries).
    for _ in 0..20_000 {
        drop(g.next_query());
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocations, 0, "next_query allocated {allocations} times");
}
