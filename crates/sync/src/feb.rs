//! Full/empty-bit (FEB) synchronization, Qthreads style.
//!
//! Qthreads tags memory words with a full/empty bit and synchronizes
//! ULTs through word-granularity operations: `writeEF` (wait empty,
//! write, mark full), `readFF` (wait full, read, leave full — the join
//! primitive the paper benchmarks), and `readFE` (wait full, take, mark
//! empty — a mutex acquire). Because the C library attaches FEBs to
//! arbitrary addresses, it keeps a hashed side table; the paper notes
//! this "hidden synchronization … may severely impact performance", an
//! effect [`FebTable`] reproduces faithfully.

use std::collections::HashMap;
use std::mem::MaybeUninit;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use crate::spin::SpinLock;
use crate::sysapi::{AtomicU8, UnsafeCell};
use crate::waitlist::WaitList;

const EMPTY: u8 = 0;
const FULL: u8 = 1;
/// Transitional state while a writer/reader owns the slot.
const BUSY: u8 = 2;

/// Cap on chaos-injected stall rounds per acquire: even at a 100%
/// injection rate a FEB wait only *delays*, it never livelocks.
const MAX_INJECTED_STALLS: u32 = 3;

/// A typed cell guarded by a full/empty bit.
///
/// ```
/// use lwt_sync::{FebCell, thread_yield_relax};
/// let cell = FebCell::new();
/// cell.write_ef(7, thread_yield_relax);
/// assert_eq!(cell.read_ff(thread_yield_relax), 7);   // stays full
/// assert_eq!(cell.read_fe(thread_yield_relax), 7);   // now empty
/// assert!(!cell.is_full());
/// ```
pub struct FebCell<T> {
    state: AtomicU8,
    value: UnsafeCell<MaybeUninit<T>>,
    /// Fired on every fill and every empty.
    waiters: WaitList,
}

// SAFETY: the state machine grants exclusive access during BUSY and
// publishes the value with Release/Acquire transitions, so the cell is
// a proper synchronization point for Send values.
unsafe impl<T: Send> Send for FebCell<T> {}
// SAFETY: see above; `T: Send` is enough because a value is only ever
// observed by one side at a time (readFF copies require T: Copy).
unsafe impl<T: Send> Sync for FebCell<T> {}

impl<T> FebCell<T> {
    /// Create an *empty* cell.
    #[must_use]
    pub fn new() -> Self {
        FebCell {
            state: AtomicU8::new(EMPTY),
            value: UnsafeCell::new(MaybeUninit::uninit()),
            waiters: WaitList::new(),
        }
    }

    /// Create a *full* cell holding `value`.
    #[must_use]
    pub fn full(value: T) -> Self {
        FebCell {
            state: AtomicU8::new(FULL),
            value: UnsafeCell::new(MaybeUninit::new(value)),
            waiters: WaitList::new(),
        }
    }

    /// Whether the bit is currently full (racy; for tests/diagnostics).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.state.load(Ordering::Acquire) == FULL
    }

    /// `Ready` while the bit is full; else `cx`'s waker waits for the
    /// next fill or empty. The body of a relax that blocks: the `*F*`
    /// operations retry their acquire when it returns.
    pub fn poll_full(&self, cx: &mut Context<'_>) -> Poll<()> {
        self.waiters.poll_until(cx, || self.is_full())
    }

    /// [`FebCell::poll_full`] for the `*E*` operations: `Ready` while
    /// the bit is empty.
    pub fn poll_empty(&self, cx: &mut Context<'_>) -> Poll<()> {
        self.waiters.poll_until(cx, || self.state.load(Ordering::Acquire) == EMPTY)
    }

    /// Leave `BUSY` for a stable state and wake blocked waiters.
    fn settle(&self, state: u8) {
        self.state.store(state, Ordering::Release);
        self.waiters.wake_all();
    }

    /// Acquire the slot by moving `from` → `BUSY`, relaxing in between.
    ///
    /// Chaos decision point: `FebStallWake` delays the acquire for up
    /// to [`MAX_INJECTED_STALLS`] extra relax rounds (a late wake),
    /// `FebSpuriousWake` adds a relax round after a genuine miss (a
    /// wake without the condition). Both only reorder/delay — they
    /// never drop the acquire. Waits that actually miss register with
    /// the stall watchdog so a never-satisfied FEB shows up in the
    /// blocked-unit table instead of hanging silently.
    fn acquire_from(&self, from: u8, relax: &mut impl FnMut()) {
        let mut injected = 0u32;
        // Held for the whole wait so the watchdog sees the block.
        let mut _watch: Option<lwt_chaos::BlockGuard> = None;
        // Tracks whether this wait genuinely missed (the guard alone
        // can't: block_enter returns None when the watchdog is off).
        let mut blocked = false;
        loop {
            if injected < MAX_INJECTED_STALLS
                && lwt_chaos::should_inject(lwt_chaos::FaultSite::FebStallWake)
            {
                injected += 1;
                relax();
                continue;
            }
            match self
                .state
                .compare_exchange(from, BUSY, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => {
                    if blocked {
                        // The wait actually blocked; record the resume
                        // (carries the waiter's span when traced).
                        lwt_metrics::emit(lwt_metrics::EventKind::FebWake, 0);
                    }
                    return;
                }
                Err(_) => {
                    if !blocked {
                        blocked = true;
                        _watch = lwt_chaos::block_enter(
                            lwt_chaos::BlockKind::Feb,
                            std::ptr::from_ref(self) as u64,
                        );
                        lwt_metrics::emit(lwt_metrics::EventKind::FebBlock, 0);
                    }
                    relax();
                    if injected < MAX_INJECTED_STALLS
                        && lwt_chaos::should_inject(lwt_chaos::FaultSite::FebSpuriousWake)
                    {
                        injected += 1;
                        relax();
                    }
                }
            }
        }
    }

    /// Wait (via `relax`) until the cell is full or `timeout` elapses;
    /// `true` iff fullness was observed. The cell is not modified —
    /// pair with [`FebCell::read_ff`]/[`FebCell::try_read_fe`] after a
    /// `true` return. This is the degrade-gracefully alternative to
    /// the unbounded FEB waits: a never-filled cell costs `timeout`,
    /// not forever.
    pub fn wait_timeout(&self, timeout: Duration, mut relax: impl FnMut()) -> bool {
        let deadline = Instant::now() + timeout;
        let watch = lwt_chaos::block_enter(
            lwt_chaos::BlockKind::Feb,
            std::ptr::from_ref(self) as u64,
        );
        loop {
            if self.is_full() {
                drop(watch);
                return true;
            }
            if Instant::now() >= deadline {
                drop(watch);
                return false;
            }
            relax();
        }
    }

    /// Wait until empty, then write `value` and mark full
    /// (Qthreads `qthread_writeEF`).
    pub fn write_ef(&self, value: T, mut relax: impl FnMut()) {
        self.acquire_from(EMPTY, &mut relax);
        // SAFETY: BUSY grants us exclusive access; the slot is empty so
        // no previous value needs dropping.
        unsafe { (*self.value.get()).write(value) };
        self.settle(FULL);
    }

    /// Write `value` unconditionally and mark full
    /// (Qthreads `qthread_writeF`). Any previous value is dropped.
    pub fn write_f(&self, value: T, mut relax: impl FnMut()) {
        // Take the slot from either stable state.
        let prev = loop {
            let cur = self.state.load(Ordering::Relaxed);
            if cur == BUSY {
                relax();
                continue;
            }
            if self
                .state
                .compare_exchange(cur, BUSY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                break cur;
            }
            relax();
        };
        // SAFETY: exclusive via BUSY; drop the old value only if full.
        unsafe {
            if prev == FULL {
                (*self.value.get()).assume_init_drop();
            }
            (*self.value.get()).write(value);
        }
        self.settle(FULL);
    }

    /// Wait until full, then take the value and mark empty
    /// (Qthreads `qthread_readFE` — a mutex acquire).
    pub fn read_fe(&self, mut relax: impl FnMut()) -> T {
        self.acquire_from(FULL, &mut relax);
        // SAFETY: exclusive via BUSY; the slot was full.
        let value = unsafe { (*self.value.get()).assume_init_read() };
        self.settle(EMPTY);
        value
    }

    /// Try [`FebCell::read_fe`] without waiting.
    pub fn try_read_fe(&self) -> Option<T> {
        if self
            .state
            .compare_exchange(FULL, BUSY, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        // SAFETY: exclusive via BUSY; the slot was full.
        let value = unsafe { (*self.value.get()).assume_init_read() };
        self.settle(EMPTY);
        Some(value)
    }

    /// Mark the cell empty, dropping any stored value
    /// (Qthreads `qthread_empty` / purge).
    pub fn purge(&self, mut relax: impl FnMut()) {
        let prev = loop {
            let cur = self.state.load(Ordering::Relaxed);
            if cur == BUSY {
                relax();
                continue;
            }
            if self
                .state
                .compare_exchange(cur, BUSY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                break cur;
            }
            relax();
        };
        if prev == FULL {
            // SAFETY: exclusive via BUSY; the slot was full.
            unsafe { (*self.value.get()).assume_init_drop() };
        }
        self.settle(EMPTY);
    }
}

impl<T: Copy> FebCell<T> {
    /// Wait until full, then read a copy, leaving the cell full
    /// (Qthreads `qthread_readFF` — the join primitive).
    pub fn read_ff(&self, mut relax: impl FnMut()) -> T {
        self.acquire_from(FULL, &mut relax);
        // SAFETY: exclusive via BUSY; the slot was full; T: Copy so the
        // value stays initialized after the read.
        let value = unsafe { (*self.value.get()).assume_init() };
        self.settle(FULL);
        value
    }
}

impl<T> Default for FebCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for FebCell<T> {
    fn drop(&mut self) {
        if *self.state.get_mut() == FULL {
            // SAFETY: &mut self gives exclusivity; the slot is full.
            unsafe { (*self.value.get()).assume_init_drop() };
        }
    }
}

impl<T> std::fmt::Debug for FebCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self.state.load(Ordering::Relaxed) {
            EMPTY => "empty",
            FULL => "full",
            _ => "busy",
        };
        write!(f, "FebCell({s})")
    }
}

/// Address-keyed FEB side table — the "FEB on any word of memory"
/// facility of Qthreads, including its hidden-synchronization cost.
///
/// Addresses hash into a fixed number of spin-locked buckets; each
/// address lazily materializes a [`FebCell<u64>`]. All waiting happens
/// outside the bucket locks.
///
/// ```
/// use lwt_sync::{FebTable, thread_yield_relax};
/// let table = FebTable::with_buckets(16);
/// let x = 0u64; // any word can carry a FEB
/// let addr = std::ptr::addr_of!(x) as usize;
/// table.write_ef(addr, 99, thread_yield_relax);
/// assert_eq!(table.read_ff(addr, thread_yield_relax), 99);
/// ```
pub struct FebTable {
    buckets: Box<[SpinLock<HashMap<usize, Arc<FebCell<u64>>>>]>,
}

impl FebTable {
    /// Create a table with `buckets` hash buckets (rounded up to a
    /// power of two, minimum 1).
    #[must_use]
    pub fn with_buckets(buckets: usize) -> Self {
        let n = buckets.max(1).next_power_of_two();
        FebTable {
            buckets: (0..n).map(|_| SpinLock::new(HashMap::new())).collect(),
        }
    }

    /// Fetch (or create, in `EMPTY` state) the cell for `addr`.
    fn cell(&self, addr: usize) -> Arc<FebCell<u64>> {
        // Fibonacci hashing over the address.
        let h = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let idx = h & (self.buckets.len() - 1);
        let mut bucket = self.buckets[idx].lock();
        bucket.entry(addr).or_default().clone()
    }

    /// `writeEF` on the FEB associated with `addr`.
    pub fn write_ef(&self, addr: usize, value: u64, relax: impl FnMut()) {
        self.cell(addr).write_ef(value, relax);
    }

    /// `readFF` on the FEB associated with `addr`.
    pub fn read_ff(&self, addr: usize, relax: impl FnMut()) -> u64 {
        self.cell(addr).read_ff(relax)
    }

    /// `readFE` on the FEB associated with `addr`.
    pub fn read_fe(&self, addr: usize, relax: impl FnMut()) -> u64 {
        self.cell(addr).read_fe(relax)
    }

    /// Whether the FEB for `addr` is full. Creates the FEB if absent.
    #[must_use]
    pub fn is_full(&self, addr: usize) -> bool {
        self.cell(addr).is_full()
    }

    /// Drop the FEB state associated with `addr`.
    pub fn remove(&self, addr: usize) {
        let h = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let idx = h & (self.buckets.len() - 1);
        self.buckets[idx].lock().remove(&addr);
    }
}

impl Default for FebTable {
    fn default() -> Self {
        Self::with_buckets(64)
    }
}

impl std::fmt::Debug for FebTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FebTable")
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread_yield_relax;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn write_then_read_round_trip() {
        let c = FebCell::new();
        assert!(!c.is_full());
        c.write_ef(1u64, thread_yield_relax);
        assert!(c.is_full());
        assert_eq!(c.read_ff(thread_yield_relax), 1);
        assert!(c.is_full());
        assert_eq!(c.read_fe(thread_yield_relax), 1);
        assert!(!c.is_full());
    }

    #[test]
    fn write_f_overwrites_and_drops() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Clone)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let c = FebCell::new();
        c.write_f(D, thread_yield_relax);
        c.write_f(D, thread_yield_relax); // drops the first
        assert_eq!(DROPS.load(Ordering::Relaxed), 1);
        drop(c); // drops the second
        assert_eq!(DROPS.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn purge_empties_and_drops() {
        let c = FebCell::full(String::from("x"));
        assert!(c.is_full());
        c.purge(thread_yield_relax);
        assert!(!c.is_full());
        // Purging an empty cell is a no-op.
        c.purge(thread_yield_relax);
        assert!(!c.is_full());
    }

    #[test]
    fn try_read_fe_does_not_block() {
        let c: FebCell<u32> = FebCell::new();
        assert_eq!(c.try_read_fe(), None);
        c.write_ef(5, thread_yield_relax);
        assert_eq!(c.try_read_fe(), Some(5));
        assert_eq!(c.try_read_fe(), None);
    }

    #[test]
    fn producer_consumer_through_cell() {
        let c = Arc::new(FebCell::new());
        let p = c.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..100u64 {
                p.write_ef(i, thread_yield_relax);
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(c.read_fe(thread_yield_relax));
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn readfe_acts_as_mutex() {
        // Classic FEB mutex: the word holds a token; readFE acquires,
        // writeEF releases. A counter protected this way must be exact.
        const THREADS: usize = 4;
        const ITERS: usize = 2_000;
        let lock = Arc::new(FebCell::full(0u64));
        let counter = Arc::new(std::cell::UnsafeCell::new(0usize));
        // SAFETY wrapper: the FEB mutex serializes access.
        struct Shared(Arc<std::cell::UnsafeCell<usize>>);
        unsafe impl Send for Shared {}
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let lock = lock.clone();
                let shared = Shared(counter.clone());
                std::thread::spawn(move || {
                    // Capture the whole wrapper, not the disjoint field,
                    // so the manual `Send` impl applies.
                    let shared = shared;
                    for _ in 0..ITERS {
                        let token = lock.read_fe(thread_yield_relax);
                        // SAFETY: we hold the FEB token exclusively.
                        unsafe { *shared.0.get() += 1 };
                        lock.write_ef(token, thread_yield_relax);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let token = lock.read_fe(thread_yield_relax);
        assert_eq!(token, 0);
        // SAFETY: all workers joined.
        assert_eq!(unsafe { *counter.get() }, THREADS * ITERS);
    }

    #[test]
    fn table_addresses_are_independent() {
        let t = FebTable::with_buckets(4);
        t.write_ef(0x1000, 1, thread_yield_relax);
        t.write_ef(0x2000, 2, thread_yield_relax);
        assert_eq!(t.read_ff(0x1000, thread_yield_relax), 1);
        assert_eq!(t.read_ff(0x2000, thread_yield_relax), 2);
        assert!(t.is_full(0x1000));
        t.remove(0x1000);
        assert!(!t.is_full(0x1000)); // recreated empty
    }

    #[test]
    fn table_cross_thread_join() {
        let t = Arc::new(FebTable::default());
        let addr = 0xBEEF_usize;
        let t2 = t.clone();
        let child = std::thread::spawn(move || {
            t2.write_ef(addr, 77, thread_yield_relax);
        });
        assert_eq!(t.read_ff(addr, thread_yield_relax), 77);
        child.join().unwrap();
    }

    #[test]
    fn wait_timeout_observes_fullness_or_expires() {
        let c: FebCell<u64> = FebCell::new();
        assert!(!c.wait_timeout(Duration::from_millis(20), thread_yield_relax));
        c.write_ef(9, thread_yield_relax);
        assert!(c.wait_timeout(Duration::from_millis(20), thread_yield_relax));
        assert_eq!(c.read_ff(thread_yield_relax), 9); // untouched by the wait
    }

    #[test]
    fn injected_feb_stalls_only_delay() {
        // Even at 100% injection the acquire completes.
        lwt_chaos::force_chaos(42, 100);
        let c = FebCell::full(5u64);
        assert_eq!(c.read_fe(thread_yield_relax), 5);
        c.write_ef(6, thread_yield_relax);
        assert_eq!(c.read_ff(thread_yield_relax), 6);
        lwt_chaos::reset_to_env();
    }

    #[test]
    fn debug_formats() {
        let c: FebCell<u8> = FebCell::new();
        assert_eq!(format!("{c:?}"), "FebCell(empty)");
        let c = FebCell::full(1u8);
        assert_eq!(format!("{c:?}"), "FebCell(full)");
        let t = FebTable::with_buckets(3);
        assert!(format!("{t:?}").contains("buckets: 4")); // rounded up
    }
}
