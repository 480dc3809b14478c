//! Counting global allocator: every allocation the benchmark process makes
//! is counted (calls and requested bytes) so each workload has an
//! exact-repeat companion to its noisy timings.
//!
//! Counters are striped per thread (a slot picked on a thread's first
//! allocation) and cache-line padded, so the two engine threads of
//! `fleet_steady_par` and `live_day` never contend on one counter line.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

const STRIPES: usize = 64;

#[repr(align(64))]
struct Stripe {
    calls: AtomicU64,
    bytes: AtomicU64,
}

static STRIPES_TABLE: [Stripe; STRIPES] =
    [const { Stripe { calls: AtomicU64::new(0), bytes: AtomicU64::new(0) } }; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const` initialiser and no destructor: safe to touch from inside the
    // allocator at any point of a thread's life.
    static MY_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn count(size: usize) {
    let stripe = MY_STRIPE
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_STRIPE.fetch_add(1, Relaxed) % STRIPES);
            }
            s.get()
        })
        .unwrap_or(0);
    STRIPES_TABLE[stripe].calls.fetch_add(1, Relaxed);
    STRIPES_TABLE[stripe].bytes.fetch_add(size as u64, Relaxed);
}

/// The system allocator plus two relaxed counter increments per call.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the added counting touches only
// statics and a destructor-free thread-local, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator (i.e. from `System`) with
        // `layout`, as the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (i.e. from `System`) with
        // `layout`, as the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocation calls, bytes requested)` since process start, all threads.
pub fn totals() -> (u64, u64) {
    STRIPES_TABLE
        .iter()
        .fold((0, 0), |(c, b), s| (c + s.calls.load(Relaxed), b + s.bytes.load(Relaxed)))
}
