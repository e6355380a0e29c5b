//! Counting global allocator with per-layer attribution.
//!
//! Every thread carries a layer tag ([`enter`]). While counting is on
//! ([`enable`], traced runs only), each allocation — `realloc` included,
//! as in the repository's own counting-allocator tests — is added to the
//! counter of the allocating thread's current layer, and live bytes are
//! tracked for retained-memory measurements. Untraced runs pay one
//! relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// Allocation layers, in report order. `Other` is everything outside a
/// tagged call: the work-stealing scheduler, thread start-up, the
/// benchmark's own bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Other = 0,
    Population,
    Bytecode,
    Prepare,
    Place,
    Sim,
    Harness,
    Tables,
}

pub const LAYERS: usize = 8;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static CURRENT: Cell<Layer> = const { Cell::new(Layer::Other) };
}

struct Counting;

impl Counting {
    fn count(size: isize) {
        if ENABLED.load(Relaxed) {
            let layer = CURRENT.with(Cell::get);
            COUNTS[layer as usize].fetch_add(1, Relaxed);
            LIVE_BYTES.fetch_add(size as i64, Relaxed);
        }
    }
}

// SAFETY: every call is forwarded verbatim to `System`; the counters are
// a side effect and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Turns counting on for the rest of the process.
pub fn enable() {
    ENABLED.store(true, Relaxed);
}

/// Tags this thread's allocations with `layer` until the guard drops.
pub fn enter(layer: Layer) -> Guard {
    Guard(CURRENT.with(|c| c.replace(layer)))
}

/// Restores the previous layer tag on drop.
pub struct Guard(Layer);

impl Drop for Guard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.0));
    }
}

/// Allocation counts per layer so far.
pub fn counts() -> [u64; LAYERS] {
    std::array::from_fn(|i| COUNTS[i].load(Relaxed))
}

/// Bytes allocated and not yet freed since counting was enabled.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Relaxed)
}
