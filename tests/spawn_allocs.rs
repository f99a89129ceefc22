//! Heap allocations per GLT ULT: `Glt::ult_create` + `try_join`, from
//! inside a running unit, after a warm-up region has filled the stack
//! cache and grown every queue to its working size.
//!
//! A ULT is one allocation — its closure, its result and its record
//! share one `Arc`, and Qthreads' FEB return word lives in it too —
//! plus whatever the backend's model adds on top: Converse's call-site
//! spawn travels to its processor as a message (one box). Every extra
//! alloc/free pair costs a 64-unit region about 50 ns per unit once
//! glibc's per-size caches overflow, so this count is the spawn path's
//! budget.
//!
//! The counting allocator is process-wide, so this file holds a single
//! test and measures one backend at a time; the region runs on one
//! worker, where the only thread allocating is the one being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use lwt::{BackendKind, Glt};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every call to `System` unchanged; the counter is a
// relaxed atomic and allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Units per region, as in the benchmark's `spawn-join-fine`.
const FANOUT: usize = 64;
/// Measured regions, after as many warm-up ones.
const REGIONS: usize = 16;

/// Allocations per unit over `REGIONS` regions of `FANOUT` grain-zero
/// units, each forked and joined from inside a root unit.
fn allocs_per_unit(kind: BackendKind) -> f64 {
    let glt = Glt::builder(kind).workers(1).build();
    let inner = glt.clone();
    let total = glt
        .ult_create(move || {
            let region = |glt: &Glt| {
                let handles: Vec<_> = (0..FANOUT)
                    .map(|i| glt.ult_create(move || std::hint::black_box(i)))
                    .collect();
                for h in handles {
                    h.try_join().expect("grain-zero unit cannot panic");
                }
            };
            for _ in 0..REGIONS {
                region(&inner);
            }
            // The handle vector itself is one allocation per region;
            // count it separately so the bound speaks of units only.
            ALLOCS.store(0, Ordering::Relaxed);
            ARMED.store(true, Ordering::SeqCst);
            for _ in 0..REGIONS {
                region(&inner);
            }
            ARMED.store(false, Ordering::SeqCst);
            ALLOCS.load(Ordering::Relaxed) - REGIONS
        })
        .join();
    glt.finalize().expect("clean drain");
    total as f64 / (REGIONS * FANOUT) as f64
}

#[test]
fn a_glt_ult_costs_at_most_its_models_allocations() {
    let bounds = [
        (BackendKind::Argobots, 1.0),
        (BackendKind::Qthreads, 2.0),
        (BackendKind::MassiveThreads, 1.0),
        (BackendKind::Converse, 2.0),
        (BackendKind::Go, 1.0),
    ];
    let counts: Vec<(BackendKind, f64, f64)> = bounds
        .into_iter()
        .map(|(kind, bound)| (kind, allocs_per_unit(kind), bound))
        .collect();
    for (kind, per_unit, bound) in &counts {
        eprintln!("{:<17} {per_unit:.2} allocations per ULT (bound {bound})", kind.name());
    }
    for (kind, per_unit, bound) in counts {
        assert!(
            per_unit <= bound,
            "{kind}: {per_unit:.2} heap allocations per ult_create + try_join, bound {bound}"
        );
    }
}
