//! Waker lists: the one way a blocked wait learns its condition came
//! true.
//!
//! A join, an event wait, a FEB read and a channel receive are the
//! same wait: some other party will make a condition true, and the
//! waiter wants to cost nothing until then. [`WaitList`] is the piece
//! they share — a small list of [`Waker`]s owned by the awaited object
//! — and the protocol around it is the one `lwt-net`'s reactor already
//! follows (DESIGN §15):
//!
//! * **waiter**: publish the waker → re-check the condition → suspend
//!   ([`WaitList::poll_until`] does the first two and says `Pending`;
//!   [`block_on`] turns `Pending` into a suspension of whatever the
//!   caller is);
//! * **completer**: publish the condition → [`WaitList::wake_all`].
//!
//! Either the completer finds the waker, or the waiter's re-check finds
//! the condition: both sides put a `SeqCst` fence between their store
//! and their load, so "neither" is not an outcome (model-checked in
//! `crates/model/tests/waitlist.rs`). Both suspend primitives the
//! wakers resume — `lwt_ultcore::suspend` (every backend's ULTs) and
//! `thread::park` — treat a wake that arrived early as a reason to
//! return at once, so waiters simply loop.
//!
//! The list costs an un-awaited object nothing it can notice: no
//! allocation (the first waker lives inline), and `wake_all` on a list
//! nobody registered with is a fence and one load.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use lwt_chaos::BlockKind;
use lwt_metrics::registry::COUNTERS;

use crate::backoff::AdaptiveRelax;
use crate::spin::SpinLock;
use crate::sysapi::{fence, AtomicBool};

/// The registered wakers: one inline (a join has one waiter), the rest
/// spilled.
struct Slots {
    first: Option<Waker>,
    rest: Vec<Waker>,
}

/// A list of wakers waiting for a condition its owner publishes.
///
/// ```
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
/// use lwt_sync::{block_thread_on, WaitList};
///
/// let shared = Arc::new((AtomicBool::new(false), WaitList::new()));
/// let s2 = shared.clone();
/// let t = std::thread::spawn(move || {
///     s2.0.store(true, Ordering::Release); // publish the condition…
///     s2.1.wake_all();                     // …then fire the list
/// });
/// // Sleeps in `thread::park` until the wake.
/// block_thread_on(|cx| shared.1.poll_until(cx, || shared.0.load(Ordering::Acquire)));
/// t.join().unwrap();
/// ```
pub struct WaitList {
    /// Whether `slots` holds a waker; written under the lock, read
    /// without it so an idle `wake_all` never takes the lock.
    armed: AtomicBool,
    slots: SpinLock<Slots>,
}

impl WaitList {
    /// An empty list. Allocates nothing.
    #[must_use]
    pub const fn new() -> Self {
        WaitList {
            armed: AtomicBool::new(false),
            slots: SpinLock::new(Slots {
                first: None,
                rest: Vec::new(),
            }),
        }
    }

    /// The waiter's half: `Ready` if `cond` holds; otherwise publish
    /// `cx`'s waker, re-check, and only then report `Pending` — after
    /// which the caller suspends and polls again when woken. The
    /// re-check is what closes the race with a completer that fired
    /// the list just before the waker got there.
    pub fn poll_until(&self, cx: &mut Context<'_>, mut cond: impl FnMut() -> bool) -> Poll<()> {
        let waker = cx.waker();
        if !cond() {
            {
                let mut slots = self.slots.lock();
                // A re-poll after a spurious wake finds its waker still
                // here; one entry per waiter.
                if !slots.first.iter().chain(&slots.rest).any(|w| w.will_wake(waker)) {
                    if slots.first.is_none() {
                        slots.first = Some(waker.clone());
                    } else {
                        slots.rest.push(waker.clone());
                    }
                }
                self.armed.store(true, Ordering::Relaxed);
            }
            // Pairs with the fence in `wake_all`: of this waiter's
            // (store waker, load cond) and the completer's (store cond,
            // load armed), at least one load sees the other's store.
            fence(Ordering::SeqCst);
            if !cond() {
                COUNTERS.wait_blocks.inc();
                return Poll::Pending;
            }
        }
        // The completer may never look at the list again (a one-shot
        // condition), so a waker no wake has claimed comes back out.
        self.remove(waker);
        Poll::Ready(())
    }

    /// Take `waker` back out, if it is still registered — for a waiter
    /// that stops waiting before the list fires (the arm of a select
    /// that did not deliver).
    pub fn remove(&self, waker: &Waker) {
        if self.armed.load(Ordering::Relaxed) {
            let mut slots = self.slots.lock();
            slots.first.take_if(|w| w.will_wake(waker));
            slots.rest.retain(|w| !w.will_wake(waker));
        }
    }

    /// A whole wait: return once `cond` holds, blocked on this list in
    /// between through `block_on` — the caller's poll → suspend loop
    /// for whatever context it runs in (`lwt_ultcore::block_on`,
    /// [`block_thread_on`]). A wait that
    /// actually blocks registers with the stall watchdog as a `kind`
    /// wait on the list's address — a field of the awaited unit or
    /// latch — so the blocked-unit table names what is waited *for*.
    pub fn wait_until(
        &self,
        kind: BlockKind,
        mut cond: impl FnMut() -> bool,
        block_on: impl FnOnce(&mut dyn FnMut(&mut Context<'_>) -> Poll<()>),
    ) {
        if cond() {
            return;
        }
        let _watch = lwt_chaos::block_enter(kind, std::ptr::from_ref(self) as u64);
        block_on(&mut |cx| self.poll_until(cx, &mut cond));
    }

    /// The completer's half: wake every registered waiter. Call it
    /// *after* publishing the condition, so that a waiter resumed by
    /// this call finds the condition true.
    pub fn wake_all(&self) {
        fence(Ordering::SeqCst);
        if !self.armed.load(Ordering::Relaxed) {
            return;
        }
        let (first, rest) = {
            let mut slots = self.slots.lock();
            self.armed.store(false, Ordering::Relaxed);
            (slots.first.take(), std::mem::take(&mut slots.rest))
        };
        // Outside the lock: a wake enqueues a unit or unparks a thread.
        first.into_iter().chain(rest).for_each(Waker::wake);
    }
}

impl Default for WaitList {
    fn default() -> Self {
        WaitList::new()
    }
}

impl std::fmt::Debug for WaitList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaitList")
            .field("armed", &self.armed.load(Ordering::Relaxed))
            .finish()
    }
}

/// Drive `poll` to completion, calling `suspend` after each `Pending`
/// — the poll → suspend loop every blocking wait in the workspace runs.
/// `waker` must resume whatever `suspend` parks (a ULT's own `Arc`, or
/// [`block_thread_on`]'s thread waker), and `suspend` must return at
/// once when the wake beat it, so a wake is early, never lost.
pub fn block_on<T>(
    waker: &Waker,
    mut suspend: impl FnMut(),
    mut poll: impl FnMut(&mut Context<'_>) -> Poll<T>,
) -> T {
    let mut cx = Context::from_waker(waker);
    loop {
        if let Poll::Ready(out) = poll(&mut cx) {
            return out;
        }
        suspend();
    }
}

/// A plain OS thread's waker: a flag for the polling tiers of
/// [`ThreadUnpark::suspend`], `unpark` for its sleep.
struct ThreadUnpark {
    woken: std::sync::atomic::AtomicBool,
    thread: std::thread::Thread,
}

impl ThreadUnpark {
    /// [`AdaptiveRelax`]'s ladder with a real sleep as its last tier:
    /// spin, then yield — a fine-grained join (the paper's Fig. 3
    /// master) ends within that, for less than a futex round trip, and
    /// on an oversubscribed host the yield hands the core to the unit
    /// being waited for — then `thread::park` instead of napping.
    fn suspend(&self) {
        let mut relax = AdaptiveRelax::new();
        // A wake caught while polling leaves its unpark token behind;
        // the flag, not the token, says whether this wait was woken.
        while !self.woken.swap(false, Ordering::Acquire) {
            if relax.is_sleeping() {
                std::thread::park();
            } else {
                relax.relax();
            }
        }
    }
}

impl Wake for ThreadUnpark {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.woken.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

thread_local! {
    /// The calling OS thread's waker, built once per thread so a
    /// blocking wait from a plain thread allocates only the first time.
    static THREAD_WAKER: Arc<ThreadUnpark> = Arc::new(ThreadUnpark {
        woken: std::sync::atomic::AtomicBool::new(false),
        thread: std::thread::current(),
    });
}

/// [`block_on`] for a plain OS thread: a bounded spin-then-yield look
/// for the wake, then `thread::park`, between polls.
pub fn block_thread_on<T>(poll: impl FnMut(&mut Context<'_>) -> Poll<T>) -> T {
    THREAD_WAKER.with(|me| block_on(&Waker::from(me.clone()), || me.suspend(), poll))
}
