//! Recycled fiber stacks: a per-thread free-list with a global
//! overflow pool.
//!
//! Allocating a fresh 64 KiB [`Stack`] for every ULT is the single
//! largest cost on the spawn path — the real LWT libraries the
//! workspace reproduces (Argobots, Qthreads, MassiveThreads) all keep
//! per-worker stack caches for exactly this reason. This module gives
//! the workspace the same fast path:
//!
//! * [`acquire`] first tries the calling thread's free-list, then the
//!   global overflow pool, and only then allocates. Steady-state spawn
//!   performs **zero heap allocation** for the stack.
//! * [`CachedStack`] (the handle `acquire` returns) sends its stack
//!   back to the cache on drop, wherever that drop happens — a stack
//!   released on a thread that never spawns overflows into the global
//!   pool, where spawning workers pick it up.
//! * Every reused stack has its canary words re-verified before it is
//!   handed out; a torn canary means some earlier fiber overflowed,
//!   and [`acquire`] panics rather than propagate the corruption.
//!
//! Free-lists are keyed by the stack's allocated byte size (the
//! canonical [`StackSize::bytes`] value), so mixed-size workloads
//! never hand a small stack to a request for a big one.
//!
//! ## Sizing
//!
//! The per-thread free-list keeps at most [`capacity`] stacks per
//! size class (default [`DEFAULT_CAPACITY`]); the global pool keeps
//! `capacity() * 8` per size class. Beyond that, released stacks are
//! freed. Override with the `LWT_STACK_CACHE_CAP` environment
//! variable or programmatically with [`set_capacity`]; `0` disables
//! caching entirely (every acquire allocates, every release frees).
//!
//! ## Metrics
//!
//! [`acquire`] increments `stack_cache_hits` / `stack_cache_misses`
//! in [`lwt_metrics::registry::COUNTERS`], so benches and tests can
//! read the steady-state hit rate straight off a snapshot.

use std::cell::RefCell;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};

use lwt_metrics::registry::COUNTERS;

use crate::sysapi::{Mutex, MutexGuard};

use crate::stack::{Stack, StackSize};

/// Default per-thread free-list capacity, per stack-size class.
pub const DEFAULT_CAPACITY: usize = 64;

/// Global pool holds `capacity() * GLOBAL_FACTOR` stacks per class.
const GLOBAL_FACTOR: usize = 8;

const CAP_UNSET: usize = usize::MAX;
static CAP: AtomicUsize = AtomicUsize::new(CAP_UNSET);

/// Current per-thread capacity per size class. Resolved from
/// `LWT_STACK_CACHE_CAP` on first use; `0` means caching is disabled.
#[must_use]
pub fn capacity() -> usize {
    match CAP.load(Ordering::Relaxed) {
        CAP_UNSET => init_capacity_from_env(),
        cap => cap,
    }
}

#[cold]
fn init_capacity_from_env() -> usize {
    let cap = std::env::var("LWT_STACK_CACHE_CAP")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_CAPACITY)
        .min(CAP_UNSET - 1);
    // Lose gracefully to a concurrent `set_capacity`.
    let _ = CAP.compare_exchange(CAP_UNSET, cap, Ordering::Relaxed, Ordering::Relaxed);
    CAP.load(Ordering::Relaxed)
}

/// Set the per-thread capacity per size class (overrides
/// `LWT_STACK_CACHE_CAP`). `0` disables caching. Applies to stacks
/// released after the call; already-cached stacks stay cached.
pub fn set_capacity(cap: usize) {
    CAP.store(cap.min(CAP_UNSET - 1), Ordering::Relaxed);
}

/// Size-class bins: `(allocated_bytes, stacks)`. Workloads use one or
/// two stack sizes, so a linear scan beats any map here.
type Bins = Vec<(usize, Vec<Stack>)>;

fn bin_pop(bins: &mut Bins, bytes: usize) -> Option<Stack> {
    bins.iter_mut().find(|(b, _)| *b == bytes)?.1.pop()
}

/// Push into a bin unless it already holds `cap` stacks; returns the
/// stack back on overflow.
fn bin_push(bins: &mut Bins, stack: Stack, cap: usize) -> Option<Stack> {
    let bytes = stack.size();
    match bins.iter_mut().find(|(b, _)| *b == bytes) {
        Some((_, list)) if list.len() >= cap => Some(stack),
        Some((_, list)) => {
            list.push(stack);
            None
        }
        None => {
            bins.push((bytes, vec![stack]));
            None
        }
    }
}

static GLOBAL: Mutex<Bins> = Mutex::new(Vec::new());

fn global_lock() -> MutexGuard<'static, Bins> {
    GLOBAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Local free-lists; the wrapper's `Drop` donates survivors to the
/// global pool when the thread exits, so a short-lived worker's warm
/// stacks outlive it.
struct LocalBins(RefCell<Bins>);

impl Drop for LocalBins {
    fn drop(&mut self) {
        let cap = capacity().saturating_mul(GLOBAL_FACTOR);
        let mut global = global_lock();
        for (_, list) in self.0.borrow_mut().drain(..) {
            for stack in list {
                // Overflow past the global cap frees the stack here.
                let _ = bin_push(&mut global, stack, cap);
            }
        }
    }
}

thread_local! {
    static LOCAL: LocalBins = LocalBins(RefCell::new(Vec::new()));
}

/// A [`Stack`] on loan from the cache. Dereferences to the stack;
/// dropping it returns the stack to the cache (or frees it when the
/// cache is full or disabled).
#[derive(Debug)]
pub struct CachedStack {
    inner: Option<Stack>,
}

impl Deref for CachedStack {
    type Target = Stack;

    fn deref(&self) -> &Stack {
        self.inner.as_ref().expect("stack present until drop")
    }
}

impl Drop for CachedStack {
    fn drop(&mut self) {
        if let Some(stack) = self.inner.take() {
            release(stack);
        }
    }
}

/// Get a stack of (at least) `size`: recycled when the cache has one,
/// freshly allocated otherwise.
///
/// Chaos decision point: `StackCacheMiss` skips the recycle lookup so
/// the acquire degrades to the fresh-allocation path — the exact
/// fallback a cache-exhausted or allocation-starved run takes. Spawns
/// get slower, never fail; the miss is counted like any real one.
///
/// # Panics
///
/// If a recycled stack's canary words were overwritten — a fiber that
/// ran on it previously overflowed, and reusing the allocation would
/// propagate silent corruption.
#[must_use]
pub fn acquire(size: StackSize) -> CachedStack {
    let bytes = size.bytes();
    if capacity() > 0 && !lwt_chaos::should_inject(lwt_chaos::FaultSite::StackCacheMiss) {
        // try_with: acquire during TLS teardown falls through to the
        // global pool instead of panicking.
        let local = LOCAL
            .try_with(|l| bin_pop(&mut l.0.borrow_mut(), bytes))
            .unwrap_or_default();
        if let Some(stack) = local.or_else(|| bin_pop(&mut global_lock(), bytes)) {
            let stack = verified(stack);
            COUNTERS.stack_cache_hits.inc();
            return CachedStack { inner: Some(stack) };
        }
    }
    COUNTERS.stack_cache_misses.inc();
    CachedStack {
        inner: Some(Stack::new(size)),
    }
}

fn verified(stack: Stack) -> Stack {
    if stack.canary_intact() {
        return stack;
    }
    // Don't run Stack's destructor (its own canary assertion would
    // double-panic); the allocation is corrupt, leak it.
    std::mem::forget(stack);
    panic!(
        "lwt-fiber stack cache: recycled stack's canary was \
         overwritten — a fiber previously run on it overflowed"
    );
}

/// Return a stack to the cache: the current thread's free-list first,
/// the global pool second, freed if both are at capacity (or the
/// cache is disabled). Stacks with torn canaries are never cached.
fn release(stack: Stack) {
    let cap = capacity();
    if cap == 0 || !stack.canary_intact() {
        // A torn canary drops through to Stack's destructor, which
        // reports it (debug builds) and frees the allocation.
        return;
    }
    let overflow = LOCAL
        .try_with(|l| bin_push(&mut l.0.borrow_mut(), stack, cap))
        // TLS already torn down: route straight to the global pool.
        .unwrap_or_else(|_| None);
    let Some(stack) = overflow else { return };
    let _ = bin_push(&mut global_lock(), stack, cap.saturating_mul(GLOBAL_FACTOR));
}

/// Free every cached stack (this thread's free-list and the global
/// pool). For tests that need a cold cache.
pub fn purge() {
    let _ = LOCAL.try_with(|l| l.0.borrow_mut().clear());
    global_lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The cache (and its capacity knob) is process-global; these tests
    // serialize against each other so one test's `set_capacity(0)` or
    // `purge` can't invalidate another's acquire/release expectations.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Stacks cached on this thread, all size classes.
    fn local_len() -> usize {
        LOCAL.with(|l| l.0.borrow().iter().map(|(_, v)| v.len()).sum())
    }

    /// Stacks in the global overflow pool, all size classes.
    fn global_len() -> usize {
        global_lock().iter().map(|(_, v)| v.len()).sum()
    }

    #[test]
    fn acquire_release_round_trips_are_reused() {
        let _s = serial();
        let size = StackSize(512 * 1024); // distinct class, test-only
        let a = acquire(size);
        let base = a.base();
        drop(a);
        let b = acquire(size);
        assert_eq!(b.base(), base, "released stack must be recycled LIFO");
        assert!(b.canary_intact());
    }

    #[test]
    fn sizes_do_not_cross_classes() {
        let _s = serial();
        let small = acquire(StackSize(256 * 1024));
        let small_base = small.base();
        drop(small);
        let big = acquire(StackSize(1024 * 1024));
        assert_ne!(big.base(), small_base);
        assert!(big.size() >= 1024 * 1024);
    }

    #[test]
    fn purge_empties_this_thread_and_global() {
        let _s = serial();
        drop(acquire(StackSize(128 * 1024)));
        assert!(local_len() > 0 || global_len() > 0);
        purge();
        assert_eq!(local_len(), 0);
        assert_eq!(global_len(), 0);
    }

    #[test]
    fn cross_thread_release_lands_in_a_pool() {
        let _s = serial();
        purge();
        let size = StackSize(768 * 1024);
        let stack = acquire(size);
        std::thread::spawn(move || drop(stack)).join().unwrap();
        // The spawned thread's free-list donated to the global pool on
        // exit, so the stack is reachable from here.
        let again = acquire(size);
        assert!(again.canary_intact());
        assert_eq!(again.size(), size.bytes());
    }

    #[test]
    fn disabled_cache_always_allocates() {
        let _s = serial();
        let before = capacity();
        set_capacity(0);
        let size = StackSize(384 * 1024);
        drop(acquire(size));
        assert_eq!(local_len(), 0, "disabled cache must not retain stacks");
        set_capacity(before);
    }
}
