//! A test-and-test-and-set spin lock with exponential backoff.
//!
//! This is the lock guarding every "mutex-protected shared queue" in the
//! workspace (Go's global run queue, `gcc` OpenMP's shared task queue,
//! MassiveThreads' stealable ready deques). Keeping it home-grown — not
//! `std::sync::Mutex` — matters for the reproduction: the paper's
//! contention effects come from *spinning* work-unit queues, and the
//! lock must also be safe to take from ULT context, where blocking the
//! OS thread in a futex could deadlock the worker.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;

use crate::backoff::Backoff;
use crate::sysapi::{self, AtomicBool, UnsafeCell};

/// A spin lock protecting a `T`.
///
/// ```
/// use lwt_sync::SpinLock;
/// let lock = SpinLock::new(0u64);
/// *lock.lock() += 1;
/// assert_eq!(*lock.lock(), 1);
/// ```
pub struct SpinLock<T: ?Sized> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: the lock provides the required mutual exclusion; sending a
// SpinLock sends its value.
unsafe impl<T: ?Sized + Send> Send for SpinLock<T> {}
// SAFETY: access to `value` only happens through the guard, which holds
// the lock; `T: Send` suffices because only one thread sees `&mut T` at
// a time (same bound set as std's Mutex).
unsafe impl<T: ?Sized + Send> Sync for SpinLock<T> {}

impl<T> SpinLock<T> {
    /// Create an unlocked lock holding `value`.
    #[must_use]
    pub const fn new(value: T) -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Consume the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> SpinLock<T> {
    /// Acquire the lock, spinning with backoff until it is free.
    pub fn lock(&self) -> SpinLockGuard<'_, T> {
        let mut backoff = Backoff::new();
        loop {
            if let Some(g) = self.try_lock() {
                return g;
            }
            // Test-and-test-and-set: spin on a plain load so the cache
            // line stays shared while the lock is held.
            while self.locked.load(Ordering::Relaxed) {
                backoff.spin();
                if backoff.is_saturated() {
                    sysapi::yield_thread();
                }
            }
        }
    }

    /// Try to acquire the lock without spinning.
    pub fn try_lock(&self) -> Option<SpinLockGuard<'_, T>> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(SpinLockGuard { lock: self })
        } else {
            None
        }
    }

    /// Access the value mutably without locking (requires `&mut self`,
    /// so exclusivity is statically guaranteed).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for SpinLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("SpinLock").field("value", &&*g).finish(),
            None => f.write_str("SpinLock { <locked> }"),
        }
    }
}

impl<T: Default> Default for SpinLock<T> {
    fn default() -> Self {
        SpinLock::new(T::default())
    }
}

/// RAII guard for [`SpinLock`]; releases on drop.
pub struct SpinLockGuard<'a, T: ?Sized> {
    lock: &'a SpinLock<T>,
}

impl<T: ?Sized> Deref for SpinLockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock, so access is exclusive.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> DerefMut for SpinLockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock, so access is exclusive.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for SpinLockGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_mutation() {
        let lock = SpinLock::new(vec![1, 2]);
        lock.lock().push(3);
        assert_eq!(*lock.lock(), vec![1, 2, 3]);
        assert_eq!(lock.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let lock = SpinLock::new(());
        let g = lock.try_lock().unwrap();
        assert!(lock.try_lock().is_none());
        drop(g);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn get_mut_bypasses_lock() {
        let mut lock = SpinLock::new(5);
        *lock.get_mut() += 1;
        assert_eq!(*lock.lock(), 6);
    }

    #[test]
    fn debug_formats() {
        let lock = SpinLock::new(1);
        assert!(format!("{lock:?}").contains('1'));
        let g = lock.lock();
        assert!(format!("{lock:?}").contains("locked"));
        drop(g);
    }

    #[test]
    fn contended_counter_is_exact() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 10_000;
        let lock = Arc::new(SpinLock::new(0usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let lock = lock.clone();
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        *lock.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), THREADS * PER_THREAD);
    }

    #[test]
    fn guard_release_makes_value_visible() {
        // Acquire/Release pairing: a write made under the lock must be
        // visible to the next owner on another thread.
        let lock = Arc::new(SpinLock::new(0u64));
        let l2 = lock.clone();
        let t = std::thread::spawn(move || {
            loop {
                let g = l2.lock();
                if *g != 0 {
                    break *g;
                }
                drop(g);
                std::thread::yield_now();
            }
        });
        *lock.lock() = 42;
        assert_eq!(t.join().unwrap(), 42);
    }
}
