//! OS-thread parking — the OpenMP "passive" wait policy.
//!
//! The paper's task benchmarks set `OMP_WAIT_POLICY=passive` for `gcc`
//! so idle threads stop hammering the shared task queue. [`Parker`] is
//! the primitive behind that policy: a one-token park/unpark pair built
//! on a mutex + condvar, with the token preventing lost wakeups.
//!
//! ## Model checkability
//!
//! The token state machine — the part with the sleep/wake race — runs
//! on a [`crate::sysapi`] atomic, so under `--cfg lwt_model` the *real*
//! transition code is explored by the deterministic checker
//! (`crates/model/tests/park.rs`). Only the OS blocking primitive is
//! swapped: the model build replaces the condvar wait with a yield
//! loop on the state atomic (a lost token then shows up as a reported
//! livelock instead of a hung test).

use std::sync::atomic::Ordering;
#[cfg(not(lwt_model))]
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::sysapi::AtomicU8;

const IDLE: u8 = 0;
const PARKED: u8 = 1;
const NOTIFIED: u8 = 2;

/// How many state polls a model-build `park_timeout` makes before
/// giving up — the logical-time stand-in for the wall-clock deadline.
#[cfg(lwt_model)]
const MODEL_TIMEOUT_POLLS: usize = 4;

/// A one-token thread parker.
///
/// [`Parker::unpark`] deposits a token; [`Parker::park`] consumes one,
/// blocking until a token arrives. An unpark that happens *before* the
/// park is not lost.
///
/// ```
/// use std::sync::Arc;
/// use lwt_sync::Parker;
/// let p = Arc::new(Parker::new());
/// p.unpark();     // token deposited early
/// p.park();       // consumes it without blocking
/// ```
#[derive(Debug)]
pub struct Parker {
    state: AtomicU8,
    #[cfg(not(lwt_model))]
    lock: Mutex<()>,
    #[cfg(not(lwt_model))]
    cvar: Condvar,
}

impl Default for Parker {
    fn default() -> Self {
        Self::new()
    }
}

impl Parker {
    /// A parker with no pending token.
    #[must_use]
    pub const fn new() -> Self {
        Parker {
            state: AtomicU8::new(IDLE),
            #[cfg(not(lwt_model))]
            lock: Mutex::new(()),
            #[cfg(not(lwt_model))]
            cvar: Condvar::new(),
        }
    }

    /// Consume a pre-deposited token without blocking, or transition
    /// IDLE→PARKED. Returns `true` when the caller can return at once
    /// (a token was consumed). (The real build inlines this sequence
    /// under its mutex, so only the model paths call it.)
    #[cfg(lwt_model)]
    fn claim_or_mark_parked(&self) -> bool {
        // Fast path: token already present.
        if self
            .state
            .compare_exchange(NOTIFIED, IDLE, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return true;
        }
        match self
            .state
            .compare_exchange(IDLE, PARKED, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => false,
            // A token arrived between the fast path and here.
            Err(_) => {
                self.state.store(IDLE, Ordering::Relaxed);
                true
            }
        }
    }

    /// Consume a pending token without blocking: `true` if there was
    /// one. For a thread that sleeps somewhere else (the reactor's
    /// turn) while its parker still collects the tokens aimed at it.
    pub fn try_park(&self) -> bool {
        self.state
            .compare_exchange(NOTIFIED, IDLE, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Block the calling OS thread until a token is available, then
    /// consume it.
    #[cfg(not(lwt_model))]
    pub fn park(&self) {
        if self
            .state
            .compare_exchange(NOTIFIED, IDLE, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        let mut guard = self.lock.lock().expect("parker mutex poisoned");
        match self
            .state
            .compare_exchange(IDLE, PARKED, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => {}
            // A token arrived between the fast path and taking the lock.
            Err(_) => {
                self.state.store(IDLE, Ordering::Relaxed);
                return;
            }
        }
        while self.state.load(Ordering::Acquire) != NOTIFIED {
            guard = self.cvar.wait(guard).expect("parker mutex poisoned");
        }
        self.state.store(IDLE, Ordering::Relaxed);
    }

    /// Model build: same token machine, blocking replaced by yields.
    /// A token that never arrives exhausts the checker's step budget
    /// and is reported as a livelock — exactly what a lost wake is.
    #[cfg(lwt_model)]
    pub fn park(&self) {
        if self.claim_or_mark_parked() {
            return;
        }
        while self.state.load(Ordering::Acquire) != NOTIFIED {
            crate::sysapi::spin_hint();
        }
        self.state.store(IDLE, Ordering::Relaxed);
    }

    /// Like [`Parker::park`] but gives up after `timeout`.
    ///
    /// Returns `true` if a token was consumed, `false` on timeout.
    #[cfg(not(lwt_model))]
    pub fn park_timeout(&self, timeout: Duration) -> bool {
        if self
            .state
            .compare_exchange(NOTIFIED, IDLE, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return true;
        }
        let mut guard = self.lock.lock().expect("parker mutex poisoned");
        if self
            .state
            .compare_exchange(IDLE, PARKED, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            self.state.store(IDLE, Ordering::Relaxed);
            return true;
        }
        let deadline = std::time::Instant::now() + timeout;
        while self.state.load(Ordering::Acquire) != NOTIFIED {
            let now = std::time::Instant::now();
            let Some(left) = deadline.checked_duration_since(now) else {
                // Timed out: retract the PARKED state unless a token
                // raced in at the last moment.
                let raced = self.state.swap(IDLE, Ordering::Acquire) == NOTIFIED;
                return raced;
            };
            let (g, _timeout_result) = self
                .cvar
                .wait_timeout(guard, left)
                .expect("parker mutex poisoned");
            guard = g;
        }
        self.state.store(IDLE, Ordering::Relaxed);
        true
    }

    /// Model build: a bounded number of polls stands in for the
    /// wall-clock deadline; the timed-out retract keeps the exact
    /// last-moment-token race of the real implementation.
    #[cfg(lwt_model)]
    pub fn park_timeout(&self, _timeout: Duration) -> bool {
        if self.claim_or_mark_parked() {
            return true;
        }
        for _ in 0..MODEL_TIMEOUT_POLLS {
            if self.state.load(Ordering::Acquire) == NOTIFIED {
                self.state.store(IDLE, Ordering::Relaxed);
                return true;
            }
            crate::sysapi::spin_hint();
        }
        let raced = self.state.swap(IDLE, Ordering::Acquire) == NOTIFIED;
        raced
    }

    /// Deposit a token, waking the parked thread if any. Multiple
    /// unparks coalesce into a single token.
    pub fn unpark(&self) {
        let prev = self.state.swap(NOTIFIED, Ordering::Release);
        #[cfg(not(lwt_model))]
        if prev == PARKED {
            // Take the lock to ensure the parker is actually inside
            // `cvar.wait` (not between the state change and the wait).
            drop(self.lock.lock().expect("parker mutex poisoned"));
            self.cvar.notify_one();
        }
        #[cfg(lwt_model)]
        let _ = prev;
    }
}

#[cfg(all(test, not(lwt_model)))]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn pre_deposited_token_skips_blocking() {
        let p = Parker::new();
        p.unpark();
        let t0 = Instant::now();
        p.park();
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn unparks_coalesce() {
        let p = Parker::new();
        p.unpark();
        p.unpark();
        p.park();
        // Second park would block: verify via timeout.
        assert!(!p.park_timeout(Duration::from_millis(10)));
    }

    #[test]
    fn cross_thread_wakeup() {
        let p = Arc::new(Parker::new());
        let p2 = p.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            p2.unpark();
        });
        p.park();
        t.join().unwrap();
    }

    #[test]
    fn timeout_expires_without_token() {
        let p = Parker::new();
        let t0 = Instant::now();
        assert!(!p.park_timeout(Duration::from_millis(15)));
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn repeated_park_unpark_cycles() {
        let p = Arc::new(Parker::new());
        let p2 = p.clone();
        const ROUNDS: usize = 200;
        let t = std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                p2.park();
            }
        });
        for _ in 0..ROUNDS {
            p.unpark();
            // Give the parker a chance to consume; coalescing means we
            // must not outrun it.
            while p.state.load(Ordering::Relaxed) == NOTIFIED {
                std::thread::yield_now();
            }
        }
        t.join().unwrap();
    }
}
