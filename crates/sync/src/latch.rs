//! Join latches: one-shot events and countdown latches.
//!
//! These model the *status-flag* join family the paper contrasts with
//! barriers: Argobots' `ABT_thread_free` polls the work-unit status
//! word ([`Event`]); joining a whole batch is a countdown
//! ([`CountLatch`]). The waiter chooses how to relax: OS threads spin
//! or yield; a ULT runtime's relax *blocks* on the latch's [`WaitList`]
//! (`poll_set`/`poll_released`): one suspend, one wake.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use crate::waitlist::WaitList;

/// A one-shot "it happened" flag.
///
/// ```
/// use lwt_sync::{Event, thread_yield_relax};
/// let e = Event::new();
/// assert!(!e.is_set());
/// e.set();
/// e.wait(thread_yield_relax); // returns immediately
/// ```
#[derive(Debug, Default)]
pub struct Event {
    set: AtomicBool,
    waiters: WaitList,
}

impl Event {
    /// Create an unset event.
    #[must_use]
    pub fn new() -> Self {
        Event {
            set: AtomicBool::new(false),
            waiters: WaitList::new(),
        }
    }

    /// Fire the event and wake whoever blocked on it. Idempotent.
    #[inline]
    pub fn set(&self) {
        self.set.store(true, Ordering::Release);
        self.waiters.wake_all();
    }

    /// `Ready` once fired; else `cx`'s waker waits for [`Event::set`].
    pub fn poll_set(&self, cx: &mut Context<'_>) -> Poll<()> {
        self.waiters.poll_until(cx, || self.is_set())
    }

    /// Whether the event has fired.
    #[inline]
    #[must_use]
    pub fn is_set(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }

    /// Wait (via `relax`) until the event fires.
    pub fn wait(&self, mut relax: impl FnMut()) {
        if self.is_set() {
            return;
        }
        // Slow path only: register with the stall watchdog so a join
        // stuck on a never-set event lands in the blocked-unit table.
        let _watch = lwt_chaos::block_enter(
            lwt_chaos::BlockKind::Event,
            std::ptr::from_ref(self) as u64,
        );
        while !self.is_set() {
            relax();
        }
    }

    /// Wait until the event fires or `timeout` elapses; `true` iff it
    /// fired. The bounded-join building block: callers that would
    /// otherwise hang on a lost completion degrade to a timeout.
    pub fn wait_timeout(&self, timeout: Duration, mut relax: impl FnMut()) -> bool {
        if self.is_set() {
            return true;
        }
        let deadline = Instant::now() + timeout;
        let _watch = lwt_chaos::block_enter(
            lwt_chaos::BlockKind::Event,
            std::ptr::from_ref(self) as u64,
        );
        loop {
            if self.is_set() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            relax();
        }
    }
}

/// A countdown latch: waiters proceed once `count` decrements reach zero.
///
/// Mirrors the bulk-join shape of the paper's microbenchmarks (one
/// work unit per thread / per task, joined by the master).
///
/// ```
/// use lwt_sync::{CountLatch, thread_yield_relax};
/// let l = CountLatch::new(2);
/// l.count_down();
/// assert!(!l.is_released());
/// l.count_down();
/// l.wait(thread_yield_relax);
/// ```
#[derive(Debug)]
pub struct CountLatch {
    remaining: AtomicUsize,
    waiters: WaitList,
}

impl CountLatch {
    /// Create a latch expecting `count` countdowns. A zero count is
    /// already released.
    #[must_use]
    pub fn new(count: usize) -> Self {
        CountLatch {
            remaining: AtomicUsize::new(count),
            waiters: WaitList::new(),
        }
    }

    /// Record one completion. Returns `true` iff this call released the
    /// latch (and woke whoever blocked on it).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on countdown past zero — a lost-join
    /// accounting bug in the caller.
    #[inline]
    pub fn count_down(&self) -> bool {
        let prev = self.remaining.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "CountLatch counted down past zero");
        if prev == 1 {
            self.waiters.wake_all();
        }
        prev == 1
    }

    /// `Ready` once released; else `cx`'s waker waits for the
    /// releasing countdown.
    pub fn poll_released(&self, cx: &mut Context<'_>) -> Poll<()> {
        self.waiters.poll_until(cx, || self.is_released())
    }

    /// Add `n` more expected countdowns (for dynamically discovered
    /// work, e.g. nested task spawns). Must not be called after release.
    #[inline]
    pub fn add(&self, n: usize) {
        let prev = self.remaining.fetch_add(n, Ordering::AcqRel);
        debug_assert!(
            prev > 0 || n == 0,
            "CountLatch::add after the latch was released"
        );
    }

    /// Whether the latch has been released.
    #[inline]
    #[must_use]
    pub fn is_released(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Remaining countdowns (racy; diagnostics only).
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Relaxed)
    }

    /// Wait (via `relax`) until the latch releases.
    pub fn wait(&self, mut relax: impl FnMut()) {
        if self.is_released() {
            return;
        }
        // Slow path only, like `Event::wait`.
        let _watch =
            lwt_chaos::block_enter(lwt_chaos::BlockKind::Join, std::ptr::from_ref(self) as u64);
        while !self.is_released() {
            relax();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread_yield_relax;
    use std::sync::Arc;

    #[test]
    fn event_fires_once_and_stays() {
        let e = Event::new();
        assert!(!e.is_set());
        e.set();
        e.set();
        assert!(e.is_set());
        e.wait(|| panic!("must not relax on a set event"));
    }

    #[test]
    fn event_publishes_data_across_threads() {
        let e = Arc::new(Event::new());
        let data = Arc::new(AtomicUsize::new(0));
        let (e2, d2) = (e.clone(), data.clone());
        let t = std::thread::spawn(move || {
            d2.store(123, Ordering::Relaxed);
            e2.set();
        });
        e.wait(thread_yield_relax);
        // Release/Acquire on the event orders the data store.
        assert_eq!(data.load(Ordering::Relaxed), 123);
        t.join().unwrap();
    }

    #[test]
    fn event_wait_timeout_bounds_the_wait() {
        let e = Event::new();
        assert!(!e.wait_timeout(Duration::from_millis(20), thread_yield_relax));
        e.set();
        assert!(e.wait_timeout(Duration::from_millis(20), || {
            panic!("must not relax on a set event")
        }));
    }

    #[test]
    fn zero_latch_is_released() {
        let l = CountLatch::new(0);
        assert!(l.is_released());
        l.wait(|| panic!("must not relax"));
    }

    #[test]
    fn exactly_one_releaser() {
        let l = CountLatch::new(5);
        let mut releases = 0;
        for _ in 0..5 {
            if l.count_down() {
                releases += 1;
            }
        }
        assert_eq!(releases, 1);
        assert!(l.is_released());
    }

    #[test]
    fn add_extends_the_latch() {
        let l = CountLatch::new(1);
        l.add(2);
        assert_eq!(l.remaining(), 3);
        l.count_down();
        l.count_down();
        assert!(!l.is_released());
        assert!(l.count_down());
    }

    #[test]
    fn many_threads_count_down() {
        const THREADS: usize = 8;
        const EACH: usize = 1_000;
        let l = Arc::new(CountLatch::new(THREADS * EACH));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let l = l.clone();
                std::thread::spawn(move || {
                    for _ in 0..EACH {
                        l.count_down();
                    }
                })
            })
            .collect();
        l.wait(thread_yield_relax);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.remaining(), 0);
    }
}
