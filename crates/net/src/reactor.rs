//! The epoll reactor: one process-global epoll set that turns kernel
//! readiness edges into work-unit wakes, turned by the threads that
//! wait on it — there is no reactor thread.
//!
//! Full contract in DESIGN.md §15. The load-bearing pieces:
//!
//! * **Edge-triggered, registered once.** Every socket is added to the
//!   epoll set at registration with `EPOLLIN|EPOLLOUT|EPOLLRDHUP|
//!   EPOLLET` and never modified again — no `epoll_ctl` on the hot
//!   path. An edge is *consumed* the moment the kernel reports it, so
//!   delivery must never be dropped: dispatch always records readiness
//!   in the registration's per-direction `ready` flag before doing
//!   anything else.
//! * **Try first, then wait.** Both direction flags start `true`; I/O
//!   paths attempt the syscall optimistically and only fall back to
//!   waiting after observing `WouldBlock` (see `Registration::
//!   clear_ready` for the re-check that closes the clear/edge race).
//! * **One wait path.** Every waiter parks a `Waker` in the
//!   registration and suspends — publish waker → re-check flag →
//!   suspend ([`Registration::poll_ready_deadline`], the only
//!   readiness wait in the crate). An async task returns `Pending`
//!   and is re-enqueued through `TaskCell` → `post_task`; a stackful
//!   ULT or an OS thread gets the same function through
//!   `lwt_core::block_unit_on`, whose waker awakens the suspended ULT
//!   through its runtime's requeue hook (or unparks the thread). Either
//!   way the push ends in `ParkGroup::notify`, and a blocked unit costs
//!   its worker nothing.
//! * **One blocker, many pollers.** The reactor registers itself with
//!   `lwt_sched` as an [`lwt_sched::IoDriver`]. Idle workers poll the
//!   set with a zero timeout (behind a try-lock) before parking, and
//!   busy ones every few dispatches; the one thread that blocks in
//!   `epoll_wait` is the holder of `lwt_sched`'s driver role — the
//!   first worker to commit to sleep, or a plain OS thread waiting on a
//!   socket ([`lwt_sched::block_thread_on_io`]). The kernel hands each
//!   edge to exactly one concurrent waiter, so double delivery cannot
//!   happen; double *observation* of the flag is harmless.
//! * **Zero-syscall wakes, wheel-driven sleeps.** Every turn advances
//!   the process [`lwt_sched::TimerWheel`] (ticks = milliseconds since
//!   the reactor epoch), and the holder sleeps exactly until the
//!   wheel's next deadline, capped by its own backstop. Arming an
//!   earlier deadline signals the eventfd registered in the epoll set,
//!   so the holder replans immediately instead of discovering the timer
//!   on a fixed tick. The eventfd is level-triggered and only the
//!   blocking turn drains it, so a wake meant for the holder cannot be
//!   swallowed by a zero-timeout poll.
//! * **Chaos.** `NetDelayedReadiness` stashes an observed event for
//!   one dispatch turn (never drops it — ET edges are not redelivered)
//!   to widen the readiness/park race window; whichever turn comes
//!   first flushes it — a poll's, or the holder's (a non-empty stash
//!   forces its sleep to a zero timeout).

use std::cell::Cell;
use std::collections::HashMap;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use lwt_chaos::{should_inject, FaultSite};
use lwt_metrics::{emit, EventKind, COUNTERS};
use lwt_sched::{TimerEntry, TimerWheel};
use lwt_sync::SpinLock;

use crate::sys;

/// Which half of a socket a wait concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    /// Readable (or accept-ready on a listener).
    Read = 0,
    /// Writable.
    Write = 1,
}

/// Events that make `Dir::Read` ready. `ERR`/`HUP` wake both sides so
/// waiters observe failures through their next syscall instead of
/// sleeping through them.
const READ_EVENTS: u32 = sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLERR | sys::EPOLLHUP;
const WRITE_EVENTS: u32 = sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP;

/// One registered socket: the token-addressed rendezvous between
/// whoever turns the reactor (producer of readiness) and at most one
/// waiter per direction (consumer).
pub(crate) struct Registration {
    fd: RawFd,
    token: u64,
    read: DirState,
    write: DirState,
    closed: AtomicBool,
}

struct DirState {
    /// "The kernel has reported an edge not yet consumed by a
    /// `WouldBlock`." Starts true: try the syscall before waiting.
    ready: AtomicBool,
    /// The parked waiter, if any: an async task's waker, a suspended
    /// ULT's, or an OS thread's — the dispatch cannot tell and does
    /// not care.
    waker: SpinLock<Option<Waker>>,
}

impl DirState {
    fn new() -> Self {
        DirState {
            ready: AtomicBool::new(true),
            waker: SpinLock::new(None),
        }
    }

    /// Dispatch side: raise the flag, then fire any parked waker. The
    /// flag store is `Release` and precedes the waker take, so a
    /// waiter woken by this call observes `ready == true`.
    fn deliver(&self, arg: u64) {
        COUNTERS.io_events.inc();
        emit(EventKind::IoReady, arg);
        self.ready.store(true, Ordering::Release);
        let parked = self.waker.lock().take();
        if let Some(w) = parked {
            COUNTERS.io_wakes.inc();
            w.wake();
        }
    }
}

impl Registration {
    fn dir(&self, dir: Dir) -> &DirState {
        match dir {
            Dir::Read => &self.read,
            Dir::Write => &self.write,
        }
    }

    /// `IoWait`/`IoReady` event payload (and watchdog token):
    /// `(token << 1) | direction`.
    pub(crate) fn wait_arg(&self, dir: Dir) -> u64 {
        (self.token << 1) | dir as u64
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Mark the registration closed and wake every waiter (both
    /// directions). Waiters surface `closed_error()`; in-flight
    /// syscalls on the still-open fd finish normally.
    pub(crate) fn close_wake(&self) {
        self.closed.store(true, Ordering::Release);
        self.read.deliver(self.wait_arg(Dir::Read));
        self.write.deliver(self.wait_arg(Dir::Write));
    }

    /// Consume the readiness flag after a `WouldBlock`. Returns `true`
    /// if the flag was up again by the time it was cleared — a turn
    /// may have delivered an edge between the failing syscall
    /// and this clear, and that edge must not be lost, so the caller
    /// retries the syscall instead of waiting.
    pub(crate) fn clear_ready(&self, dir: Dir) -> bool {
        let st = self.dir(dir);
        st.ready.store(false, Ordering::Release);
        // Single racing producer (a dispatch) — a swap isn't needed,
        // but the re-read must happen after the clear.
        st.ready.load(Ordering::Acquire)
    }

    /// The readiness wait, for every kind of waiter: park the waker
    /// and report `Pending` unless the direction is (or concurrently
    /// became) ready. The park/re-check order closes the lost-wake
    /// race: the waker is published *before* the final flag read, and
    /// a dispatch raises the flag *before* taking the waker, so at
    /// least one side always sees the other. What `Pending` then means
    /// is the caller's business — an async task returns it to its
    /// executor, `lwt_core::block_unit_on` suspends the ULT or thread.
    /// A fired `deadline` entry resolves the poll to `TimedOut`; a
    /// still-armed one gets the waker parked on it as well, so the
    /// wheel's fire re-polls the waiter just like an I/O edge would.
    pub(crate) fn poll_ready_deadline(
        &self,
        dir: Dir,
        cx: &mut Context<'_>,
        deadline: Option<&TimerEntry>,
    ) -> Poll<std::io::Result<()>> {
        let st = self.dir(dir);
        if self.is_closed() {
            return Poll::Ready(Err(closed_error()));
        }
        if st.ready.load(Ordering::Acquire) {
            return Poll::Ready(Ok(()));
        }
        if let Some(timer) = deadline {
            if timer.has_fired() {
                COUNTERS.io_timeouts.inc();
                return Poll::Ready(Err(timeout_error()));
            }
        }
        {
            let mut slot = st.waker.lock();
            match slot.as_mut() {
                Some(w) if w.will_wake(cx.waker()) => {}
                _ => *slot = Some(cx.waker().clone()),
            }
        }
        if let Some(timer) = deadline {
            // Park on the timer too; `register_waker` refusing means
            // the entry fired between the check above and here.
            if !timer.register_waker(cx.waker()) {
                COUNTERS.io_timeouts.inc();
                return Poll::Ready(Err(timeout_error()));
            }
        }
        if st.ready.load(Ordering::Acquire) {
            // Delivered between the first check and the park; the
            // parked waker may fire later as a spurious wake, which
            // the contract permits.
            return Poll::Ready(Ok(()));
        }
        if self.is_closed() {
            return Poll::Ready(Err(closed_error()));
        }
        emit(EventKind::IoWait, self.wait_arg(dir));
        Poll::Pending
    }
}

pub(crate) fn closed_error() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::NotConnected,
        "lwt-net: socket shut down",
    )
}

fn timeout_error() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::TimedOut,
        "lwt-net: I/O deadline elapsed",
    )
}

/// Events fetched per `epoll_wait` call (blocking turns and polls).
const EVENT_BATCH: usize = 256;

/// A readiness observation deferred by `NetDelayedReadiness`: the
/// masks are dispatched at the head of the next turn.
struct Delayed {
    token: u64,
    read: bool,
    write: bool,
}

pub(crate) struct Reactor {
    epfd: i32,
    wake_fd: i32,
    registrations: SpinLock<HashMap<u64, Arc<Registration>>>,
    next_token: AtomicU64,
    /// Exclusive dispatch slot for zero-timeout polls: `try_lock`
    /// semantics via `Mutex::try_lock` keep at most one worker in
    /// `epoll_wait(0)` while never blocking the idle path.
    idle_slot: Mutex<Box<[sys::EpollEvent]>>,
    delayed: SpinLock<Vec<Delayed>>,
    /// Every deadline in the process, in milliseconds-since-`epoch`
    /// ticks. Every turn advances it; the holder sleeps until its next
    /// deadline.
    wheel: TimerWheel,
    epoch: Instant,
    /// Absolute tick the role's holder plans to sleep until (`u64::MAX`
    /// when it blocks indefinitely, 0 while nobody sleeps in a turn).
    /// An armer that beats this plan signals the eventfd so the holder
    /// replans. Synchronization: the holder stores the plan *before*
    /// re-reading the wheel, and an armer inserts *before* loading the
    /// plan; the wheel's internal lock orders the two, so one side
    /// always sees the other.
    planned_wake: AtomicU64,
}

/// The wake eventfd's registration token (never allocated to sockets).
const WAKE_TOKEN: u64 = 0;

static REACTOR: OnceLock<&'static Reactor> = OnceLock::new();

std::thread_local! {
    /// This thread is dispatching a blocking turn: a wake it causes
    /// (its own notify, its own waker) needs no eventfd write, since
    /// the turn is over and its holder re-checks before the next one.
    static IN_TURN: Cell<bool> = const { Cell::new(false) };
}

/// The process-global reactor, created and registered with
/// `lwt_sched` (`set_io_poll`) on first use.
///
/// # Panics
/// If the kernel refuses an epoll instance or an eventfd — both
/// unrecoverable configuration errors.
pub(crate) fn reactor() -> &'static Reactor {
    REACTOR.get_or_init(|| {
        let epfd = sys::epoll_create1().expect("lwt-net: epoll_create1");
        let wake_fd = sys::eventfd().expect("lwt-net: eventfd");
        // Level-triggered: it stays readable until a blocking turn
        // drains it, whichever zero-timeout polls see it first.
        sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, wake_fd, sys::EPOLLIN, WAKE_TOKEN)
            .expect("lwt-net: register wake eventfd");
        let r: &'static Reactor = Box::leak(Box::new(Reactor {
            epfd,
            wake_fd,
            registrations: SpinLock::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            idle_slot: Mutex::new(vec![sys::EpollEvent::ZERO; EVENT_BATCH].into_boxed_slice()),
            delayed: SpinLock::new(Vec::new()),
            wheel: TimerWheel::new(),
            epoch: Instant::now(),
            planned_wake: AtomicU64::new(0),
        }));
        let registered = lwt_sched::set_io_poll(r);
        debug_assert!(registered, "reactor initialized twice");
        r
    })
}

impl lwt_sched::IoDriver for Reactor {
    /// One zero-timeout turn, skipped entirely when another thread is
    /// already in one (it will deliver). Also advances the timer
    /// wheel, so deadlines keep firing while every worker is busy.
    fn poll(&self) -> usize {
        let fired = self.wheel.advance(self.now_ms());
        fired
            + match self.idle_slot.try_lock() {
                Ok(mut buf) => self.turn_with(&mut buf, 0, false),
                Err(_) => 0,
            }
    }

    /// The role holder's turn: fire what is due, else sleep in
    /// `epoll_wait` until the wheel's next deadline (capped), an edge
    /// or an eventfd wake, then dispatch and fire again.
    fn turn(&self, cap: Option<Duration>) -> usize {
        let fired = self.wheel.advance(self.now_ms());
        if fired > 0 {
            return fired;
        }
        let timeout = self.plan_sleep(cap);
        COUNTERS.io_driver_turns.inc();
        let mut buf = [sys::EpollEvent::ZERO; EVENT_BATCH];
        IN_TURN.with(|t| t.set(true));
        let delivered = self.turn_with(&mut buf, timeout, true);
        self.planned_wake.store(0, Ordering::SeqCst);
        let fired = self.wheel.advance(self.now_ms());
        IN_TURN.with(|t| t.set(false));
        delivered + fired
    }

    fn wake(&self) {
        if !IN_TURN.with(Cell::get) {
            self.wake_holder();
        }
    }
}

impl Reactor {
    /// Register `fd`, transferring readiness-tracking ownership to the
    /// returned handle. `fd` must already be nonblocking.
    pub(crate) fn register(&self, fd: RawFd) -> std::io::Result<Arc<Registration>> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let reg = Arc::new(Registration {
            fd,
            token,
            read: DirState::new(),
            write: DirState::new(),
            closed: AtomicBool::new(false),
        });
        self.registrations.lock().insert(token, Arc::clone(&reg));
        let interest = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
        if let Err(e) = sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, interest, token) {
            self.registrations.lock().remove(&token);
            return Err(e);
        }
        COUNTERS.io_registrations.inc();
        Ok(reg)
    }

    /// Drop a registration: out of the epoll set, out of the table,
    /// waiters woken with `closed_error()`. Idempotent; called by
    /// socket `Drop` and by explicit shutdowns. The caller still owns
    /// (and closes) the fd itself.
    pub(crate) fn deregister(&self, reg: &Registration) {
        let was_present = self.registrations.lock().remove(&reg.token).is_some();
        if was_present {
            // DEL can fail only if the fd is already gone; either way
            // the kernel side no longer references the token.
            let _ = sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, reg.fd, 0, 0);
        }
        reg.close_wake();
    }

    /// End the holder's current (or next) blocking turn: timer arms
    /// that beat the planned wake, notifies and wakers aimed at it.
    fn wake_holder(&self) {
        let _ = sys::eventfd_signal(self.wake_fd);
    }

    /// Milliseconds since the reactor epoch — the wheel's tick unit.
    pub(crate) fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Arm a deadline `delay_ms` from now on the process wheel. If it
    /// is earlier than the holder's planned wake, the eventfd is
    /// signalled so the holder replans immediately — the zero-syscall
    /// wake path (one `write` on the armer, no timer fd, no tick).
    pub(crate) fn arm_timer_ms(&self, delay_ms: u64) -> Arc<TimerEntry> {
        let deadline = self.now_ms().saturating_add(delay_ms.max(1));
        let entry = self.wheel.arm(deadline);
        // The insert above happened under the wheel lock; this load is
        // therefore ordered after the holder's latest plan store (see
        // `planned_wake` field docs), so a stale-late plan read is
        // impossible: either the holder saw our entry, or we see its
        // plan and signal.
        if entry.deadline() < self.planned_wake.load(Ordering::SeqCst) {
            self.wake_holder();
        }
        entry
    }

    /// Decide how long the holder may sleep, at most `cap`: publish the
    /// plan, then re-read the wheel so an arm racing the publish is
    /// never slept past. Returns an `epoll_wait` timeout in ms (`-1` =
    /// forever).
    fn plan_sleep(&self, cap: Option<Duration>) -> i32 {
        if !self.delayed.lock().is_empty() {
            // A chaos-stashed event must flush next turn: don't sleep.
            self.planned_wake.store(0, Ordering::SeqCst);
            return 0;
        }
        let cap = cap.map_or(u64::MAX, |cap| {
            let ms = u64::try_from(cap.as_millis()).unwrap_or(u64::MAX);
            self.now_ms().saturating_add(ms)
        });
        let next = || self.wheel.next_deadline().unwrap_or(u64::MAX).min(cap);
        let mut plan = next();
        loop {
            self.planned_wake.store(plan, Ordering::SeqCst);
            let fresh = next();
            if fresh >= plan {
                break;
            }
            plan = fresh;
        }
        if plan == u64::MAX {
            return -1;
        }
        let delta = plan.saturating_sub(self.now_ms());
        i32::try_from(delta).unwrap_or(i32::MAX).max(0)
    }

    /// One dispatch turn: flush chaos-delayed observations, fetch one
    /// batch of kernel events, dispatch readiness. Returns the number
    /// of direction-deliveries made. Only the `holding` turn drains the
    /// wake eventfd; the others pass over it.
    fn turn_with(&self, buf: &mut [sys::EpollEvent], timeout_ms: i32, holding: bool) -> usize {
        let mut delivered = 0;

        // Deferred observations first: exactly one turn of delay.
        let stashed: Vec<Delayed> = std::mem::take(&mut *self.delayed.lock());
        for d in stashed {
            delivered += self.deliver(d.token, d.read, d.write, false);
        }

        let n = match sys::epoll_wait(self.epfd, buf, timeout_ms) {
            Ok(n) => n,
            Err(_) => 0, // EBADF during teardown races; nothing to do.
        };
        for ev in &buf[..n] {
            let (events, token) = ({ ev.events }, { ev.data });
            if token == WAKE_TOKEN {
                if holding {
                    sys::eventfd_drain(self.wake_fd);
                }
                continue;
            }
            let read = events & READ_EVENTS != 0;
            let write = events & WRITE_EVENTS != 0;
            delivered += self.deliver(token, read, write, true);
        }
        delivered
    }

    /// Deliver one observation, or stash it for the next turn under
    /// `NetDelayedReadiness` (fresh kernel events only: a stashed
    /// event is never re-deferred, keeping the injected delay bounded
    /// at one turn).
    fn deliver(&self, token: u64, read: bool, write: bool, may_defer: bool) -> usize {
        if may_defer && should_inject(FaultSite::NetDelayedReadiness) {
            self.delayed.lock().push(Delayed { token, read, write });
            return 0;
        }
        let reg = match self.registrations.lock().get(&token) {
            Some(reg) => Arc::clone(reg),
            // Deregistered while the event was in flight; token ids
            // are never reused, so this is a stale edge, safe to drop.
            None => return 0,
        };
        let mut n = 0;
        if read {
            reg.read.deliver(reg.wait_arg(Dir::Read));
            n += 1;
        }
        if write {
            reg.write.deliver(reg.wait_arg(Dir::Write));
            n += 1;
        }
        n
    }
}

/// Test-and-docs handle: number of live registrations (listeners +
/// streams currently in the epoll interest set).
#[must_use]
pub fn live_registrations() -> usize {
    REACTOR.get().map_or(0, |r| r.registrations.lock().len())
}

/// Create the process reactor and register it with `lwt_sched`, if
/// that has not happened yet. Returns at once and starts no thread;
/// touching any socket type does the same implicitly.
pub fn ensure_started() {
    let _ = reactor();
}
