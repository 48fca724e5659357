//! A counting `GlobalAlloc` for the traced run.
//!
//! Counts are kept per thread, so a measurement sees only the allocations of
//! the thread that asked (the engine runs a query on its caller's thread) and
//! the self-tests can run in parallel. Counting is off unless a
//! [`measure`] call is in flight somewhere; end-to-end runs never call it and
//! pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of `measure` calls in flight, over all threads.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching these from
    // inside the allocator never allocates and never observes a dead slot.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

#[inline]
fn note(size: usize) {
    if ACTIVE.load(Ordering::Relaxed) != 0 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's own arguments,
// so `System`'s contract is the caller's contract; the bookkeeping touches
// only plain thread-local integers and an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap traffic of one [`measure`]d call: allocation calls (`alloc`,
/// `alloc_zeroed` and `realloc` alike) and the bytes they asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapUse {
    pub allocs: u64,
    pub bytes: u64,
}

/// Runs `f` and returns what the calling thread allocated meanwhile.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapUse) {
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let result = f();
    let after = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    ACTIVE.fetch_sub(1, Ordering::Relaxed);
    (result, HeapUse { allocs: after.0 - before.0, bytes: after.1 - before.1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_only() {
        let (_, idle) = measure(|| std::hint::black_box(1 + 1));
        assert_eq!(idle, HeapUse::default());
        let (v, used) = measure(|| std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(v.len(), 4096);
        assert_eq!(used.allocs, 1);
        assert_eq!(used.bytes, 4096);
    }
}
