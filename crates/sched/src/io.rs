//! The reactor seam: the idle-poll hook between the backends' idle
//! paths and the I/O reactor, with the dependency arrow pointing the
//! right way, and the hand-off deciding who harvests readiness.
//!
//! `lwt-net` (the epoll reactor) sits *above* the backend crates in
//! the dependency graph — it spawns work through the GLT API — so the
//! backends cannot call into it directly. Instead the reactor
//! registers a bare `fn() -> usize` here at initialization, and every
//! backend's worker loop calls [`io_poll`] when its steal sweep comes
//! up dry, right before parking on the [`ParkGroup`]. The hook gives
//! an otherwise-idle worker a chance to collect readiness events (and
//! thereby requeue woken tasks through the backend's own `post_task`
//! path) without waiting for the reactor driver thread to be
//! scheduled — which matters on saturated or single-core machines.
//!
//! **Who harvests ([`IoStandby`]).** The kernel wakes a driver blocked
//! in `epoll_wait` for every edge, so while workers poll, the driver
//! naps one wheel tick at a time instead; a worker committing to sleep
//! in [`ParkGroup::park`] hands the role back ([`io_hand_back`]).
//!
//! When no reactor has started, [`io_poll`] and [`io_hand_back`] are
//! one relaxed load and a predictable branch each: runtimes that never
//! touch the network pay nothing for this seam.
//!
//! Ordering contract (DESIGN.md §15): the hook itself carries no
//! synchronization promises. A non-zero return means "readiness was
//! dispatched; ready queues may have grown through `post_task`", and
//! the caller must re-run its sweep before parking — the same re-check
//! discipline [`ParkGroup::park`]'s `pending` closure enforces for
//! queue pushes. `crates/model/tests/io_standby.rs` checks the hand-off.
//!
//! [`ParkGroup`]: crate::ParkGroup
//! [`ParkGroup::park`]: crate::ParkGroup::park

use std::sync::atomic::Ordering;
use std::time::Duration;

use lwt_sync::Parker;

use crate::sysapi::{fence, AtomicBool, AtomicUsize};

/// The registered poll hook, stored as a thin `fn` pointer (0 = none).
/// A `fn() -> usize` is ABI-compatible with a pointer-sized word on
/// every platform the workspace targets. A `std` atomic: it gates the
/// seam and takes no part in the hand-off.
static IO_POLL: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// The process's hand-off, for the reactor driver (a process singleton).
pub static IO_STANDBY: IoStandby = IoStandby::new();

/// Register the process-wide I/O poll hook. The hook must be
/// non-blocking (an `epoll_wait` with a zero timeout, or a try-lock
/// that bails when another thread is already polling) and must return
/// the number of readiness events it dispatched.
///
/// First registration wins and returns `true`; later calls are
/// ignored and return `false` (the reactor is a process singleton, so
/// a second registration is a bug on the caller's side, but ignoring
/// it keeps racing initializers safe).
pub fn set_io_poll(hook: fn() -> usize) -> bool {
    IO_POLL
        .compare_exchange(0, hook as usize, Ordering::Release, Ordering::Relaxed)
        .is_ok()
}

/// Whether a reactor has registered an idle-poll hook.
#[must_use]
pub fn io_poll_registered() -> bool {
    IO_POLL.load(Ordering::Relaxed) != 0
}

/// Poll the reactor for readiness, if one is running. Returns the
/// number of events dispatched (0 when no reactor is registered, when
/// another thread holds the poll slot, or when nothing was ready).
///
/// Backends call this on the idle path: a non-zero return means wakes
/// were delivered — some may have landed in this worker's own queues —
/// so the caller should re-sweep instead of parking.
#[inline]
#[must_use]
pub fn io_poll() -> usize {
    let raw = IO_POLL.load(Ordering::Acquire);
    if raw == 0 {
        return 0;
    }
    IO_STANDBY.note_poll();
    // Safety: the only non-zero value ever stored is a valid
    // `fn() -> usize`, written with Release by `set_io_poll` and read
    // here with Acquire.
    let hook: fn() -> usize = unsafe { std::mem::transmute(raw) };
    hook()
}

/// A worker is about to sleep on its parker: hand the poller role back
/// to the reactor driver ([`IoStandby::hand_back`]); a no-op without a
/// reactor.
#[inline]
pub fn io_hand_back() {
    if IO_POLL.load(Ordering::Relaxed) != 0 {
        IO_STANDBY.hand_back();
    }
}

/// The poll and sleep counts the driver saw at its last look.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoLook {
    polls: usize,
    sleeps: usize,
}

/// The driver/worker hand-off (module docs). Store-buffering, like
/// [`crate::ParkGroup`]: the worker counts its sleep, fences, reads
/// `aside`; the driver stores `aside`, fences, re-reads the sleep count.
/// One side sees the other: the driver never naps, or gets unparked.
#[derive(Debug, Default)]
pub struct IoStandby {
    /// Zero-timeout polls by workers. Relaxed: a hint that publishes
    /// nothing; a stale read only delays a step-aside by one turn.
    polls: AtomicUsize,
    /// Workers that committed to sleep.
    sleeps: AtomicUsize,
    /// The driver is napping instead of blocking in `epoll_wait`.
    aside: AtomicBool,
    /// The driver's nap; a hand-back deposits its token.
    driver: Parker,
}

impl IoStandby {
    /// No polls, no sleeps, the driver in charge.
    #[must_use]
    pub const fn new() -> Self {
        IoStandby {
            polls: AtomicUsize::new(0),
            sleeps: AtomicUsize::new(0),
            aside: AtomicBool::new(false),
            driver: Parker::new(),
        }
    }

    /// Worker side of [`io_poll`]: count one zero-timeout poll.
    pub fn note_poll(&self) {
        self.polls.fetch_add(1, Ordering::Relaxed);
    }

    /// Worker side of [`io_hand_back`]: count the sleep, fence, and
    /// unpark the driver if it is aside.
    pub fn hand_back(&self) {
        self.sleeps.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if self.aside.load(Ordering::SeqCst) {
            self.driver.unpark();
        }
    }

    /// Driver side, at the top of each turn: if a worker polled since
    /// `look` and none committed to sleep since then, step aside — nap
    /// until a hand-back or `tick` — and return `true` (take a zero-
    /// timeout turn, look again); else `false` (block in `epoll_wait`).
    /// A stale token only shortens a nap. The model build naps without
    /// a timeout: a lost hand-back is a livelock.
    pub fn stand_by(&self, look: &mut IoLook, tick: Duration) -> bool {
        self.stand_by_with(look, tick, true)
    }

    /// `stand_by` without the re-read after the fence: the model
    /// suite's mutation check.
    #[cfg(lwt_model)]
    pub fn stand_by_seeded_missing_reread(&self, look: &mut IoLook, tick: Duration) -> bool {
        self.stand_by_with(look, tick, false)
    }

    fn stand_by_with(&self, look: &mut IoLook, tick: Duration, reread: bool) -> bool {
        let seen = IoLook {
            polls: self.polls.load(Ordering::Relaxed),
            sleeps: self.sleeps.load(Ordering::SeqCst),
        };
        let step = seen.polls != look.polls && seen.sleeps == look.sleeps;
        *look = seen;
        if !step {
            return false;
        }
        self.aside.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        // A sleep since the look may have missed `aside`: skip the nap,
        // and the next look sees that sleep and blocks.
        if !reread || self.sleeps.load(Ordering::SeqCst) == seen.sleeps {
            #[cfg(not(lwt_model))]
            let _ = self.driver.park_timeout(tick);
            #[cfg(lwt_model)]
            {
                let _ = tick;
                self.driver.park();
            }
        }
        self.aside.store(false, Ordering::SeqCst);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    std::thread_local! {
        /// What the hook reports on this thread. The hook stays
        /// registered for the rest of this test binary, and the
        /// grace-window tests in `park.rs`, on their own threads, need
        /// polls that find no readiness.
        static DISPATCHED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn fake_poll() -> usize {
        DISPATCHED.with(std::cell::Cell::get)
    }

    #[test]
    fn unregistered_hook_is_a_noop() {
        // May race with `first_registration_wins` in the same process;
        // only assert the no-crash property plus a consistent pair.
        if !io_poll_registered() {
            assert_eq!(io_poll(), 0);
        }
    }

    #[test]
    fn first_registration_wins() {
        let first = set_io_poll(fake_poll);
        // Either we registered it or someone else did; a second
        // attempt must always lose.
        assert!(!set_io_poll(fake_poll) || !first);
        assert!(io_poll_registered());
        // `io_poll` passes the hook's own count through.
        DISPATCHED.with(|d| d.set(7));
        let polled = io_poll();
        DISPATCHED.with(|d| d.set(0));
        assert_eq!(polled, 7);
    }
}
