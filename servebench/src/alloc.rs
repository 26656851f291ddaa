//! The benchmark's global allocator: `doc_bench::alloc_counter`'s
//! counting allocator, plus a count per thread. Layer allocations are
//! read from the calling thread's count, so a concurrent generator or
//! worker thread's allocations never land on the pump's figures.

use doc_bench::alloc_counter::CountingAllocator;
use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;

/// [`CountingAllocator`] with a per-thread event count on top.
pub struct ThreadCounting;

thread_local! {
    // Const-initialised and without a destructor: accessing it never
    // allocates and never registers a destructor, so the allocator may
    // touch it.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocation events (alloc, realloc, alloc_zeroed) of the calling
/// thread since it started.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: a pass-through to `CountingAllocator`, itself a pass-through
// to `System`: every pointer returned or accepted comes from / goes to
// that allocator unmodified, so its `GlobalAlloc` contract carries over.
// The only added behavior is a bump of a const-initialised thread-local
// `Cell`, which allocates nothing and cannot unwind.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's layout and contract, forwarded verbatim.
        unsafe { CountingAllocator.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from
        // `CountingAllocator`, with this layout.
        unsafe { CountingAllocator.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as for `dealloc`; the caller upholds the realloc
        // contract.
        unsafe { CountingAllocator.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's layout and contract, forwarded verbatim.
        unsafe { CountingAllocator.alloc_zeroed(layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::thread_allocs;

    #[test]
    fn another_threads_allocations_are_not_counted() {
        let before = thread_allocs();
        let theirs = std::thread::spawn(|| {
            let t0 = thread_allocs();
            for _ in 0..1000 {
                std::hint::black_box(vec![0u8; 64]);
            }
            thread_allocs() - t0
        })
        .join()
        .expect("allocating thread");
        // Spawning and joining allocate a little on this thread; the
        // other thread's 1000 vectors are not among it.
        let mine = thread_allocs() - before;
        assert_eq!(theirs, 1000);
        assert!(mine < 100, "{mine}");
    }
}
