//! Counting allocations: [`CountingAlloc`] wraps the system allocator,
//! and [`allocated_by`] / [`allocated_during`] read its per-thread
//! counters — how a test shows a decoder reserves nothing on a hostile
//! length, a payload is not copied, or a fork weighs what it claims.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    /// Bytes this thread has ever asked for: every allocation, and every
    /// growth of one. Never decreases — the unit a "copies nothing" claim
    /// is made in, since a copy needs somewhere to land.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting per thread the bytes currently
/// allocated and the bytes ever allocated. A test binary installs it with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;` so that
/// [`allocated_by`] can weigh what a call keeps and [`allocated_during`]
/// what it asks for.
pub struct CountingAlloc;

impl CountingAlloc {
    fn count(delta: isize) {
        // A thread being torn down has no counter left; nothing measures
        // there.
        let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
        if delta > 0 {
            let _ = ALLOCATED.try_with(|all| all.set(all.get() + delta as usize));
        }
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// plain thread-local integers with no destructor and no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::count(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    // Forwarded so a growing buffer is charged its growth, as `System`
    // serves it (in place where it can), not a fresh block plus a copy.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

/// Whether [`CountingAlloc`] is this binary's global allocator: a probe
/// allocation moves the thread's counter.
fn counting() -> bool {
    let all = || ALLOCATED.with(Cell::get);
    let before = all();
    drop(std::hint::black_box(Box::new(0u64)));
    all() != before
}

/// Bytes `make`'s result keeps allocated (on this thread), with the
/// result; `None` when [`CountingAlloc`] is not the global allocator.
pub fn allocated_by<T>(make: impl FnOnce() -> T) -> Option<(T, usize)> {
    let live = || LIVE_BYTES.with(Cell::get);
    let counting = counting();
    let before = live();
    let made = make();
    counting.then(|| (made, (live() - before).max(0) as usize))
}

/// Bytes this thread allocated while `call` ran — kept or freed alike —
/// with its result; `None` when [`CountingAlloc`] is not the global
/// allocator.
pub fn allocated_during<T>(call: impl FnOnce() -> T) -> Option<(T, usize)> {
    let all = || ALLOCATED.with(Cell::get);
    let counting = counting();
    let before = all();
    let result = call();
    counting.then(|| (result, all() - before))
}
