//! The reactor seam and the driver role. `lwt-net` sits *above* the
//! backends, so its epoll reactor registers itself here as an
//! [`IoDriver`]; worker loops poll it when a sweep comes up dry
//! ([`io_poll`]) and every few units while busy ([`io_busy_poll`]). A
//! non-zero poll means queues may have grown: re-sweep before parking.
//!
//! **The driver role.** There is no reactor thread. The one thread that
//! blocks in the reactor's turn holds the process's [`DriverRole`]: the
//! first worker to commit to sleep in `ParkGroup::park`, or a plain
//! thread waiting on a socket ([`block_thread_on_io`]). Other sleepers
//! wait on the role's *bench*; a holder that leaves to run work wakes one
//! of them to take it over (the hand-on). DESIGN.md §15; checked by
//! `crates/model/tests/driver_slot.rs`.
//! Without a reactor, the role costs `park` one load.

use std::sync::atomic::Ordering;
use std::sync::OnceLock;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::Duration;

use lwt_sync::{Parker, SpinLock};

use crate::sysapi::AtomicBool;

/// The reactor as the idle paths see it ([`set_io_poll`]).
pub trait IoDriver: Sync {
    /// One zero-timeout turn, skipped if another thread is in one.
    /// Returns the deliveries made (timers fired included).
    fn poll(&self) -> usize;
    /// The role holder's blocking turn: sleep until readiness, the
    /// next timer deadline, a [`IoDriver::wake`] or `cap` (`None`: no
    /// cap), then dispatch. Returns the deliveries made.
    fn turn(&self, cap: Option<Duration>) -> usize;
    /// End the holder's current (or next) turn.
    fn wake(&self);
}

/// A sleeper on the bench: a worker in `ParkGroup::park` by its slot's
/// parker — it unbenches before it leaves `park`, and the hand-on wakes
/// under the bench lock, so the pointer is live whenever used — or a
/// plain thread by its waker.
pub(crate) enum Benched {
    Worker(*const Parker),
    Thread(Waker),
}

// SAFETY: see `Benched`; `Parker` is `Sync`.
unsafe impl Send for Benched {}

impl Benched {
    fn is(&self, other: &Benched) -> bool {
        match (self, other) {
            (Benched::Worker(a), Benched::Worker(b)) => std::ptr::eq(*a, *b),
            (Benched::Thread(a), Benched::Thread(b)) => a.will_wake(b),
            _ => false,
        }
    }
}

/// Who may block in the reactor's turn (module docs): one per process,
/// plus the model suite's own.
pub struct DriverRole {
    io: OnceLock<&'static dyn IoDriver>,
    /// Taken, and given up to the bench, under the bench lock.
    held: AtomicBool,
    bench: SpinLock<Vec<Benched>>,
    /// Zero-timeout polls so far: a hint, outside the model facade.
    polls: std::sync::atomic::AtomicUsize,
    /// The model suite's seeded defect: no hand-on.
    #[cfg(lwt_model)]
    no_hand_on: bool,
}

#[allow(clippy::new_without_default)]
impl DriverRole {
    /// A vacant role with no reactor registered.
    #[must_use]
    pub const fn new() -> Self {
        DriverRole {
            io: OnceLock::new(),
            held: AtomicBool::new(false),
            bench: SpinLock::new(Vec::new()),
            polls: std::sync::atomic::AtomicUsize::new(0),
            #[cfg(lwt_model)]
            no_hand_on: false,
        }
    }

    /// A role whose hand-on is removed: the model suite's mutation.
    #[cfg(lwt_model)]
    #[must_use]
    pub const fn without_hand_on() -> Self {
        let mut role = Self::new();
        role.no_hand_on = true;
        role
    }

    /// A thread outside the model suite's group takes the role, as a
    /// plain thread blocked on a socket would: the group's sleepers bench.
    #[cfg(lwt_model)]
    pub fn hold_elsewhere(&self) {
        self.held.store(true, Ordering::SeqCst);
    }

    /// The outside holder of [`DriverRole::hold_elsewhere`] leaves to run
    /// work: it gives the role up and hands it on.
    #[cfg(lwt_model)]
    pub fn hand_over(&self) {
        self.release();
        self.hand_on();
    }

    /// Register the reactor; the first registration wins (`true`).
    pub fn set_io(&self, io: &'static dyn IoDriver) -> bool {
        self.io.set(io).is_ok()
    }

    #[inline]
    pub(crate) fn io(&self) -> Option<&'static dyn IoDriver> {
        self.io.get().copied()
    }

    /// One zero-timeout poll of the reactor, if one is registered.
    #[inline]
    pub fn poll(&self) -> usize {
        self.io().map_or(0, |io| {
            self.polls.fetch_add(1, Ordering::Relaxed);
            io.poll()
        })
    }

    pub(crate) fn polls(&self) -> usize {
        self.polls.load(Ordering::Relaxed)
    }

    /// Take the role if it is free (`true`), else bench `me`.
    pub(crate) fn take_or_bench(&self, me: Benched) -> bool {
        let mut bench = self.bench.lock();
        let held = self.held.swap(true, Ordering::SeqCst);
        if held {
            bench.push(me);
        }
        !held
    }

    /// Take `me` off the bench: `false` if it was gone already, which
    /// only [`DriverRole::hand_on`] does — the explicit hand-on mark.
    pub(crate) fn unbench(&self, me: &Benched) -> bool {
        let mut bench = self.bench.lock();
        let listed = bench.len();
        bench.retain(|b| !b.is(me));
        bench.len() < listed
    }

    pub(crate) fn release(&self) {
        self.held.store(false, Ordering::SeqCst);
    }

    /// Give the role up and bench `me` — unless someone is benched
    /// already, who could not take it over.
    pub(crate) fn step_down(&self, me: Benched) -> bool {
        let mut bench = self.bench.lock();
        let free = bench.is_empty();
        if free {
            self.held.store(false, Ordering::SeqCst);
            bench.push(me);
        }
        free
    }

    /// A holder leaves the idle path to run work: if the role is still
    /// vacant, wake the last sleeper benched to take it over. Popping it
    /// off the bench is what tells it the wake was a hand-on.
    pub(crate) fn hand_on(&self) {
        #[cfg(lwt_model)]
        if self.no_hand_on {
            return;
        }
        let mut bench = self.bench.lock();
        if !self.held.load(Ordering::SeqCst) {
            match bench.pop() {
                // SAFETY: see `Benched::Worker`; the lock is held.
                Some(Benched::Worker(parker)) => unsafe { (*parker).unpark() },
                Some(Benched::Thread(waker)) => waker.wake(),
                None => {}
            }
        }
    }
}

pub(crate) static DRIVER: DriverRole = DriverRole::new();

/// Register the process's reactor. First registration wins and returns
/// `true`; later calls are ignored (a racing initializer stays safe).
pub fn set_io_poll(io: &'static dyn IoDriver) -> bool {
    DRIVER.set_io(io)
}

/// Poll the reactor, if one is registered: the deliveries made. A
/// non-zero return means wakes may have landed in the caller's own
/// queues, so it should re-sweep instead of parking.
#[inline]
#[must_use]
pub fn io_poll() -> usize {
    DRIVER.poll()
}

/// A busy worker's poll: [`io_poll`] while nobody holds the role.
#[inline]
pub fn io_busy_poll() {
    if !DRIVER.held.load(Ordering::Relaxed) {
        let _ = io_poll();
    }
}

/// The waker a plain-thread holder leaves on its registrations: a
/// delivery by another poller, or a close, ends its turn.
fn holder_waker() -> Waker {
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, wake, wake, drop);
    fn clone(_: *const ()) -> RawWaker {
        RawWaker::new(std::ptr::null(), &VTABLE)
    }
    fn wake(_: *const ()) {
        if let Some(io) = DRIVER.io() {
            io.wake();
        }
    }
    fn drop(_: *const ()) {}
    // SAFETY: no vtable function touches the (null) data pointer.
    unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &VTABLE)) }
}

/// Gives the role up and hands it on, however the holder's wait ends.
struct Holding;

impl Drop for Holding {
    fn drop(&mut self) {
        DRIVER.release();
        DRIVER.hand_on();
    }
}

/// [`lwt_sync::block_thread_on`] for a plain thread waiting on the
/// reactor: it turns the reactor itself if the role is free, else
/// sleeps on the bench.
pub fn block_thread_on_io<T>(mut poll: impl FnMut(&mut Context<'_>) -> Poll<T>) -> T {
    let Some(io) = DRIVER.io() else {
        return lwt_sync::block_thread_on(poll);
    };
    let mut benched = false;
    lwt_sync::block_thread_on(|cx| {
        if std::mem::take(&mut benched) {
            DRIVER.unbench(&Benched::Thread(cx.waker().clone()));
        }
        if let ready @ Poll::Ready(_) = poll(cx) {
            return ready;
        }
        if !DRIVER.take_or_bench(Benched::Thread(cx.waker().clone())) {
            benched = true;
            return Poll::Pending;
        }
        let _holding = Holding;
        let waker = holder_waker();
        let mut held = Context::from_waker(&waker);
        loop {
            if let ready @ Poll::Ready(_) = poll(&mut held) {
                return ready;
            }
            io.turn(None);
        }
    })
}

#[cfg(all(test, not(lwt_model)))]
mod tests {
    use super::*;

    std::thread_local! {
        /// What the poll reports on this thread. The reactor stays
        /// registered for the rest of this test binary, and the
        /// grace-window tests in `park.rs`, on their own threads, need
        /// polls that find no readiness.
        static DISPATCHED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A reactor with nothing registered: its turn sleeps out the cap
    /// unless woken, and delivers nothing.
    struct FakeIo(Parker);

    impl IoDriver for FakeIo {
        fn poll(&self) -> usize {
            DISPATCHED.with(std::cell::Cell::get)
        }

        fn turn(&self, cap: Option<Duration>) -> usize {
            let _ = self.0.park_timeout(cap.unwrap_or(Duration::from_secs(1)));
            0
        }

        fn wake(&self) {
            self.0.unpark();
        }
    }

    static FAKE: FakeIo = FakeIo(Parker::new());

    #[test]
    fn first_registration_wins() {
        let first = set_io_poll(&FAKE);
        // Either we registered it or someone else did; a second
        // attempt must always lose.
        assert!(!set_io_poll(&FAKE) || !first);
        // `io_poll` passes the reactor's own count through.
        DISPATCHED.with(|d| d.set(7));
        let polled = io_poll();
        DISPATCHED.with(|d| d.set(0));
        assert_eq!(polled, 7);
    }

    #[test]
    fn the_role_is_held_once_and_the_bench_empties() {
        let role = DriverRole::new();
        assert_eq!(role.poll(), 0, "no reactor registered");
        assert!(role.take_or_bench(Benched::Thread(holder_waker())));
        assert!(!role.take_or_bench(Benched::Thread(holder_waker())), "held twice");
        assert!(role.unbench(&Benched::Thread(holder_waker())), "not benched");
        assert!(role.bench.lock().is_empty());
        role.release();
        assert!(role.take_or_bench(Benched::Thread(holder_waker())), "not released");
    }
}
