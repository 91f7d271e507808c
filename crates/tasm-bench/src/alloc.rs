//! A counting global allocator for the memory experiment (Fig. 10).
//!
//! Wraps the system allocator and tracks live bytes and the high-water
//! mark. The experiment binary installs it with `#[global_allocator]`,
//! resets the peak before each algorithm run and reads the delta after —
//! the Rust analogue of the paper's "memory used by the Java virtual
//! machine" measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Bytes requested by this thread. Const-initialized and free of
    /// destructors, so touching it inside the allocator never allocates.
    static THREAD_BYTES: Cell<usize> = const { Cell::new(0) };
    /// Allocation events of this thread (same properties).
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Adds one allocation event of `bytes` to the calling thread's tallies
/// (a no-op while the thread is being torn down).
fn count_thread_alloc(bytes: usize) {
    let _ = THREAD_BYTES.try_with(|b| b.set(b.get().wrapping_add(bytes)));
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Counting wrapper around the system allocator.
pub struct CountingAlloc;

// SAFETY: delegates entirely to `System`; the counters are monotonic
// atomics with no aliasing concerns.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            count_thread_alloc(layout.size());
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            count_thread_alloc(new_size);
            if new_size >= layout.size() {
                let live = LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size();
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new_ptr
    }
}

/// Bytes currently allocated.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Total number of allocation events (alloc + realloc calls) since
/// process start. Monotonic; diff two snapshots to count the allocations
/// a code region performed — the zero-allocation steady-state regression
/// test is built on this.
pub fn alloc_count() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocation events (alloc + realloc calls) of the calling thread
/// since it started. Monotonic per thread; diff two snapshots taken on
/// one thread to count what a code region allocated, undisturbed by
/// other threads (such as concurrently running tests). Work spread
/// over worker threads needs the process-wide [`alloc_count`].
pub fn thread_alloc_count() -> usize {
    THREAD_ALLOCS.with(Cell::get)
}

/// Total bytes the calling thread has requested since it started
/// (every allocation's size, and the new size of every reallocation).
/// Monotonic per thread; diff two snapshots taken on one thread to
/// measure what a code region allocated, undisturbed by other threads
/// (such as concurrently running tests).
pub fn thread_allocated_bytes() -> usize {
    THREAD_BYTES.with(Cell::get)
}

/// High-water mark since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live volume and returns that
/// baseline. The next [`peak_bytes`] minus the baseline is the extra
/// memory an algorithm needed.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Runs `f`, returning its result and the extra peak heap it required
/// beyond what was live at entry.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = reset_peak();
    let out = f();
    let peak = peak_bytes();
    (out, peak.saturating_sub(baseline))
}
