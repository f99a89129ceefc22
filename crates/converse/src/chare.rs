//! Client-server / actor interaction over Converse messages.
//!
//! Converse exists to host higher-level programming models — "the
//! implementation of the Charm++ programming model is currently built
//! on top of Converse Threads, and several Converse Threads modules
//! (e.g., client-server) have been implemented specifically for that
//! interaction" (paper §III-B). This module provides that layer in
//! miniature:
//!
//! * [`Chare`] — a Charm++-style *chare*: state pinned to one
//!   processor, driven exclusively by messages, so method executions
//!   on one chare never run concurrently (messages execute atomically
//!   and in queue order on their processor).
//! * [`Chare::send`] — fire-and-forget method invocation
//!   (entry-method semantics).
//! * [`Chare::call`] — client-server request/response: the caller
//!   blocks (ULT-aware) until the chare's processor has run the
//!   handler and posted the reply.

use std::sync::Arc;

use lwt_sync::{Event, SpinLock};
use lwt_ultcore::block_on;

use crate::Runtime;

/// An actor pinned to a Converse processor.
///
/// ```
/// use lwt_converse::{Chare, Config, Runtime};
///
/// let rt = Runtime::init(Config { num_processors: 2, ..Config::default() });
/// let counter = Chare::new(&rt, 1, 0u64);
/// for _ in 0..10 {
///     counter.send(|n| *n += 1);
/// }
/// assert_eq!(counter.call(|n| *n), 10);
/// rt.shutdown();
/// ```
pub struct Chare<S> {
    rt: Runtime,
    proc: usize,
    /// The chare state. The lock is uncontended by construction (all
    /// access happens on one processor, message-at-a-time); it exists
    /// to satisfy Rust's aliasing rules, not for synchronization.
    state: Arc<SpinLock<S>>,
}

impl<S: Send + 'static> Chare<S> {
    /// Create a chare with `initial` state, homed on processor `proc`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range (first send/call reports it).
    #[must_use]
    pub fn new(rt: &Runtime, proc: usize, initial: S) -> Self {
        assert!(
            proc < rt.num_processors(),
            "chare homed on nonexistent processor {proc}"
        );
        Chare {
            rt: rt.clone(),
            proc,
            state: Arc::new(SpinLock::new(initial)),
        }
    }

    /// The processor this chare lives on.
    #[must_use]
    pub fn home(&self) -> usize {
        self.proc
    }

    /// Fire-and-forget entry method: `f` runs on the chare's processor
    /// with exclusive access to the state, in message order relative to
    /// other invocations from the same sender.
    pub fn send<F>(&self, f: F)
    where
        F: FnOnce(&mut S) + Send + 'static,
    {
        let state = self.state.clone();
        self.rt.send(self.proc, move || {
            f(&mut state.lock());
        });
    }

    /// Client-server call: run `f` on the chare's processor and wait
    /// (a ULT is suspended, an external thread parked) for its reply.
    ///
    /// Must not be called from a *message running on the chare's own
    /// processor* — that would wait on itself (the same no-blocking
    /// rule as [`crate::UltHandle::join`]). ULTs and external threads
    /// are fine.
    pub fn call<F, R>(&self, f: F) -> R
    where
        F: FnOnce(&mut S) -> R + Send + 'static,
        R: Send + 'static,
    {
        let state = self.state.clone();
        let done = Arc::new(Event::new());
        let slot: Arc<SpinLock<Option<R>>> = Arc::new(SpinLock::new(None));
        let (d2, s2) = (done.clone(), slot.clone());
        self.rt.send(self.proc, move || {
            let reply = f(&mut state.lock());
            *s2.lock() = Some(reply);
            d2.set();
        });
        done.wait(|| block_on(|cx| done.poll_set(cx)));
        let reply = slot.lock().take();
        reply.expect("chare reply missing")
    }
}

impl<S> Clone for Chare<S> {
    fn clone(&self) -> Self {
        Chare {
            rt: self.rt.clone(),
            proc: self.proc,
            state: self.state.clone(),
        }
    }
}

impl<S> std::fmt::Debug for Chare<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chare").field("proc", &self.proc).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sends_apply_in_order_from_one_sender() {
        let rt = Runtime::init(Config { num_processors: 2, ..Config::default() });
        let log = Chare::new(&rt, 0, Vec::new());
        for i in 0..20 {
            log.send(move |v: &mut Vec<usize>| v.push(i));
        }
        let got = log.call(|v| v.clone());
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        rt.shutdown();
    }

    #[test]
    fn calls_serialize_against_sends() {
        let rt = Runtime::init(Config { num_processors: 3, ..Config::default() });
        let acc = Chare::new(&rt, 1, 0i64);
        for i in 1..=100 {
            acc.send(move |n| *n += i);
        }
        // The call is a message behind the 100 sends on the same
        // processor queue: it must observe all of them.
        assert_eq!(acc.call(|n| *n), 5050);
        rt.shutdown();
    }

    #[test]
    fn concurrent_clients_from_work_units() {
        let rt = Runtime::init(Config { num_processors: 3, ..Config::default() });
        let server = Chare::new(&rt, 0, 0u64);
        let replies = Arc::new(AtomicUsize::new(0));
        // Clients on *other* processors call into the server chare.
        for _ in 0..30 {
            let (server, replies) = (server.clone(), replies.clone());
            rt.send(1, move || {
                // A message may not block, so do the request from a ULT
                // (which may suspend while waiting for the reply).
                let rt2 = server.rt.clone();
                let _ult = rt2.spawn_ult(move || {
                    let ticket = server.call(|n| {
                        *n += 1;
                        *n
                    });
                    assert!(ticket >= 1);
                    replies.fetch_add(1, Ordering::Relaxed);
                });
            });
        }
        rt.barrier();
        assert_eq!(replies.load(Ordering::Relaxed), 30);
        assert_eq!(server.call(|n| *n), 30);
        rt.shutdown();
    }

    #[test]
    fn chares_on_different_processors_run_concurrently() {
        let rt = Runtime::init(Config { num_processors: 2, ..Config::default() });
        let a = Chare::new(&rt, 0, 0usize);
        let b = Chare::new(&rt, 1, 0usize);
        for _ in 0..50 {
            a.send(|n| *n += 1);
            b.send(|n| *n += 2);
        }
        assert_eq!(a.call(|n| *n), 50);
        assert_eq!(b.call(|n| *n), 100);
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "nonexistent processor")]
    fn bad_home_rejected() {
        let rt = Runtime::init(Config { num_processors: 1, ..Config::default() });
        let _ = Chare::new(&rt, 5, ());
    }
}
