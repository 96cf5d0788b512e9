//! Per-thread heap-allocation counting.
//!
//! Each thread counts its own allocation calls in a thread-local cell, so a
//! measurement taken on one thread is never inflated by allocations other
//! threads make at the same time (worker pools, the test harness). A
//! process-wide counter cannot make that promise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, which the allocator below depends on.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocation calls (fresh, zeroed and
/// growth via realloc) on the calling thread. Frees are not counted.
pub struct CountingAlloc;

fn bump() {
    // `try_with`: the slot is gone while a thread is being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter update neither allocates nor touches
// the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation calls made so far by the calling thread.
pub fn thread_calls() -> u64 {
    CALLS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_threads_do_not_count_here() {
        let before = thread_calls();
        std::thread::scope(|s| {
            s.spawn(|| {
                let v: Vec<Vec<u8>> = (0..1000).map(|i| vec![0; i + 1]).collect();
                assert!(thread_calls() >= 1000);
                std::hint::black_box(v);
            });
        });
        // Spawning allocates a little on this thread, but far less than the
        // thousand allocations the other thread made.
        assert!(thread_calls() - before < 100);
        let v = std::hint::black_box(vec![1u8; 16]);
        assert!(thread_calls() - before >= 1);
        drop(v);
    }
}
