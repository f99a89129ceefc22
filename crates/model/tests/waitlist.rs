//! Model-checked blocking waits: the *real* [`WaitList`] from
//! `lwt-sync` (routed through its `sysapi` facade onto the `lwt-model`
//! shims) together with the real [`UnitPark`] handshake it resumes,
//! explored under the deterministic scheduler.
//!
//! Every join, event wait, FEB read and channel receive is this
//! protocol (DESIGN §15):
//!
//! * waiter — publish the waker ([`WaitList::poll_until`]) → re-check
//!   the condition → suspend (the post-switch [`UnitPark::park`]);
//! * completer — publish the condition → [`WaitList::wake_all`] →
//!   [`UnitPark::unpark`] → requeue.
//!
//! The property is the one `unitpark.rs` states for the park word,
//! extended back through the list: a wait that suspends is requeued
//! **exactly once** — never zero times (the lost wake: the unit sits in
//! no queue forever) and never twice (two queue entries for one saved
//! context) — and a wait that does not suspend is never requeued.
//!
//! Hermetic: every test builds its own list, condition and unit; no
//! process-global state is touched, so the tests run in parallel.
//!
//! Build and run with:
//! `RUSTFLAGS="--cfg lwt_model" cargo test -p lwt-model --test waitlist`
#![cfg(lwt_model)]

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::task::{Context, Wake, Waker};

use lwt_model::sync::atomic::{AtomicBool, Ordering};
use lwt_model::{thread, Checker, Outcome};
use lwt_sched::UnitPark;
use lwt_sync::WaitList;

fn quick() -> Checker {
    Checker::new()
        .preemptions(2)
        .max_executions(400_000)
        .time_budget_ms(45_000)
}

/// The awaited object: a condition and the list announcing it.
struct Awaited {
    done: AtomicBool,
    waiters: WaitList,
}

impl Awaited {
    fn new() -> Arc<Self> {
        Arc::new(Awaited {
            done: AtomicBool::new(false),
            waiters: WaitList::new(),
        })
    }

    /// The completer: publish, then fire.
    fn complete(&self) {
        self.done.store(true, Ordering::Release);
        self.waiters.wake_all();
    }
}

/// A waiting unit as the wait path sees it: its park word, the ledger
/// of queue entries made for it, and its worker's suspended count (the
/// drain contract: raised before the park, lowered after the push).
/// The two ledgers are the test's own bookkeeping, not part of the
/// protocol, so they are plain `std` atomics: no schedule points spent
/// on them.
struct Unit {
    park: UnitPark,
    requeues: AtomicUsize,
    suspended: AtomicUsize,
}

impl Unit {
    fn new() -> Arc<Self> {
        Arc::new(Unit {
            park: UnitPark::new(),
            requeues: AtomicUsize::new(0),
            suspended: AtomicUsize::new(0),
        })
    }

    fn requeue(&self) {
        self.requeues.fetch_add(1, Ordering::SeqCst);
        self.suspended.fetch_sub(1, Ordering::SeqCst);
    }

    /// The waiter: one poll, and on `Pending` the post-switch park.
    /// `true` iff the unit suspended. `cond` is the re-checked
    /// predicate (a parameter so the mutation test can break it).
    fn wait(self: &Arc<Self>, on: &Awaited, cond: impl FnMut() -> bool) -> bool {
        let waker = Waker::from(Arc::clone(self));
        let mut cx = Context::from_waker(&waker);
        if on.waiters.poll_until(&mut cx, cond).is_ready() {
            return false;
        }
        self.suspended.fetch_add(1, Ordering::SeqCst);
        if !self.park.park() {
            // The wake got in during the switch: the parker requeues.
            self.requeue();
        }
        true
    }

    fn assert_requeued_exactly_once_iff(&self, suspended: bool) {
        assert_eq!(
            self.requeues.load(Ordering::SeqCst),
            usize::from(suspended),
            "suspended={suspended}: a suspension needs exactly one requeue \
             (0 = lost wake, 2 = double requeue), a non-suspension none"
        );
        assert_eq!(self.suspended.load(Ordering::SeqCst), 0, "suspended count leaked");
    }
}

impl Wake for Unit {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if self.park.unpark() {
            self.requeue();
        }
    }
}

/// Wake-before-wait: the unit finished before anyone joined it. The
/// join must not block, must not leave a waker behind, and the
/// completion must not have cost more than the idle `wake_all`.
#[test]
fn completion_before_the_wait_never_blocks_or_registers() {
    quick().check(|| {
        let (awaited, unit) = (Awaited::new(), Unit::new());
        let a2 = Arc::clone(&awaited);
        thread::spawn(move || a2.complete()).join();

        let suspended = unit.wait(&awaited, || awaited.done.load(Ordering::Acquire));
        assert!(!suspended, "joined a finished unit and blocked");
        unit.assert_requeued_exactly_once_iff(false);
        assert_eq!(Arc::strong_count(&unit), 1, "waker left in the list");
    });
}

/// The race the whole wait path reduces to: the completion lands
/// anywhere relative to the waiter's publish → re-check → switch →
/// park — before the waker is published, between the publish and the
/// re-check, between the re-check and the park (the context switch),
/// or after the park.
#[test]
fn completion_racing_publish_recheck_and_park_is_never_lost() {
    quick().check(|| {
        let (awaited, unit) = (Awaited::new(), Unit::new());
        let a2 = Arc::clone(&awaited);
        let completer = thread::spawn(move || a2.complete());

        let suspended = unit.wait(&awaited, || awaited.done.load(Ordering::Acquire));

        completer.join();
        unit.assert_requeued_exactly_once_iff(suspended);
    });
}

/// A waker that only counts: for properties of the list alone.
struct Bell(AtomicUsize);

impl Wake for Bell {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }
}

/// Two waiters, one completion (an `ABT_eventual` with two readers, a
/// unit joined through a cloned handle): the first waiter is already
/// parked on the list when the second one's registration — into the
/// spill slots — races the completion. The single `wake_all` owes
/// every waiter that went `Pending` its own wake, exactly one each.
#[test]
fn one_completion_wakes_every_waiter() {
    fn poll(on: &Awaited, bell: &Arc<Bell>) -> bool {
        let waker = Waker::from(Arc::clone(bell));
        let mut cx = Context::from_waker(&waker);
        on.waiters
            .poll_until(&mut cx, || on.done.load(Ordering::Acquire))
            .is_pending()
    }
    quick().check(|| {
        let awaited = Awaited::new();
        let (b1, b2) = (
            Arc::new(Bell(AtomicUsize::new(0))),
            Arc::new(Bell(AtomicUsize::new(0))),
        );
        assert!(poll(&awaited, &b1), "nothing completed yet");
        let a2 = Arc::clone(&awaited);
        let completer = thread::spawn(move || a2.complete());

        let p2 = poll(&awaited, &b2);

        completer.join();
        for (pending, bell) in [(true, &b1), (p2, &b2)] {
            // A waiter whose re-check saw the completion may still be
            // rung by it (the completer took the waker first): early,
            // harmless. One that went Pending must be rung.
            let rings = bell.0.load(std::sync::atomic::Ordering::SeqCst);
            assert!(
                rings <= 1 && (rings == 1 || !pending),
                "pending={pending}, rung {rings} times: a Pending waiter is woken exactly once"
            );
        }
    });
}

/// Completion on worker B while the joiner suspends on worker A, with
/// a second wake source in play (a stale waker from an earlier wait, a
/// timer): the joiner still gets exactly one queue entry, and A's
/// suspended count is back to zero only after that entry exists.
#[test]
fn completion_on_another_worker_plus_a_stray_wake_requeues_once() {
    quick().check(|| {
        let (awaited, unit) = (Awaited::new(), Unit::new());
        let a2 = Arc::clone(&awaited);
        let worker_b = thread::spawn(move || a2.complete());
        let stray = Arc::clone(&unit);
        let timer = thread::spawn(move || stray.wake_by_ref());

        let suspended = unit.wait(&awaited, || awaited.done.load(Ordering::Acquire));

        worker_b.join();
        timer.join();
        unit.assert_requeued_exactly_once_iff(suspended);
    });
}

/// Drop-while-waiting: the awaited object goes away with a waker still
/// registered (the waiter gave up, e.g. its runtime was finalized past
/// a drain deadline). The waker is released, not fired and not leaked,
/// whichever side drops the last reference.
#[test]
fn dropping_the_list_releases_a_registered_waker() {
    quick().check(|| {
        let (awaited, unit) = (Awaited::new(), Unit::new());
        let (a2, u2) = (Arc::clone(&awaited), Arc::clone(&unit));
        let waiter = thread::spawn(move || {
            let waker = Waker::from(u2);
            let mut cx = Context::from_waker(&waker);
            a2.waiters.poll_until(&mut cx, || false).is_pending()
            // `a2` drops here, racing the owner's drop below.
        });
        drop(awaited);
        assert!(waiter.join(), "a false condition must report Pending");
        assert_eq!(Arc::strong_count(&unit), 1, "dropped list leaked its waker");
        assert_eq!(unit.requeues.load(Ordering::SeqCst), 0, "dropped list fired its waker");
    });
}

/// Mutation check: the same race as above with the post-publish
/// re-check removed (the predicate answers honestly once, then says
/// "not yet"). The checker must find the lost wake — the completer
/// reads the list before the waker is in it, the waiter never looks at
/// the condition again, and the unit parks with nobody left to requeue
/// it. If this ever passes, the suite above proves nothing.
#[test]
fn without_the_recheck_the_checker_finds_the_lost_wake() {
    let outcome = quick().run(|| {
        let (awaited, unit) = (Awaited::new(), Unit::new());
        let a2 = Arc::clone(&awaited);
        let completer = thread::spawn(move || a2.complete());

        let mut polls = 0;
        let suspended = unit.wait(&awaited, || {
            polls += 1;
            polls == 1 && awaited.done.load(Ordering::Acquire)
        });

        completer.join();
        unit.assert_requeued_exactly_once_iff(suspended);
    });
    let Outcome::Fail { message, .. } = outcome else {
        panic!("a wait without the re-check was not caught: {outcome:?}");
    };
    assert!(message.contains("lost wake"), "wrong failure: {message}");
}
