//! Model-checked driver role: the *real* `DriverRole` and `ParkGroup`
//! from `lwt-sched` (routed through the `sysapi` facades onto the
//! `lwt-model` shims) with a fake reactor, explored under the
//! deterministic scheduler.
//!
//! The first worker to commit to sleep holds the role and sleeps in the
//! reactor's blocking turn; the rest sleep on their parkers, benched
//! (DESIGN §15). Two orderings carry it:
//!
//! * holder — mark the slot driving → fence → re-check its token and
//!   `pending()` → turn; notifier — push → token → fence → read the
//!   mark → wake the turn if set. One side sees the other.
//! * hand-on — whoever leaves the idle path to run work while the role
//!   is vacant wakes one benched sleeper, which takes the role over.
//!
//! The fake reactor's turn has no timeout, like the model build's park:
//! a turn nobody ends, or a role nobody takes back, is a livelock the
//! checker reports rather than a backstop a timeout would absorb. Its
//! turn harvests the test's readiness edges; a harvested edge queues
//! one unit and notifies the group, as a dispatched wake does.
//!
//! A woken sleeper stays in `park` only if the hand-on took it off the
//! bench and `unpark_all` did not reach it: a sleeper a notify woke for
//! a unit somebody else took leaves through the idle exit, which clears
//! the handoff, and the finalize sequence's token ends `park` even when
//! it coalesced with a hand-on's.
//!
//! A third ordering is the holder's step-down: after a turn that
//! brought it nothing while another thread polled, it benches itself —
//! only if nobody is benched already.
//!
//! Coverage, as tier-1's model stage reports it: the notify race, the
//! hand-on, the step-down, the taken unit and the shutdown racing a
//! hand-on are exhaustive; the two-sleeper case stops at its time cap
//! (capped). Both mutation checks
//! must fail with a livelock.
//!
//! Every test builds its own role, reactor and group, so the tests run
//! in parallel; all three are leaked, well under a kilobyte per
//! execution.
//!
//! Build and run with:
//! `RUSTFLAGS="--cfg lwt_model" cargo test -p lwt-model --test driver_slot`
#![cfg(lwt_model)]

use std::sync::Arc;
use std::time::Duration;

use lwt_model::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use lwt_model::{thread, Checker, Outcome};
use lwt_sched::{force_wait_policy, DriverRole, IoDriver, ParkGroup, WaitPolicy};

fn checker(secs: u64) -> Checker {
    Checker::new()
        .preemptions(2)
        .max_executions(400_000)
        .time_budget_ms(secs * 1000)
}

/// The fake reactor and the units its edges queue.
struct Kernel {
    /// Readiness edges raised and not yet harvested.
    edges: AtomicUsize,
    /// Edges that wake nobody (a try-first read took their data),
    /// harvested before the others.
    flags: AtomicUsize,
    /// The eventfd: set by `wake`, consumed by the next blocking turn.
    woken: AtomicBool,
    /// `wake` writes the eventfd; `false` is the mutation in which a
    /// notify never ends the holder's turn.
    wakes: bool,
    /// Threads inside a blocking turn: only the holder, ever.
    turning: AtomicUsize,
    /// Units queued and not yet taken.
    queued: AtomicUsize,
    /// Units taken so far; the next one's index.
    taken: AtomicUsize,
    stop: AtomicBool,
    /// Who a delivery notifies.
    group: std::sync::OnceLock<Arc<ParkGroup>>,
}

impl Kernel {
    fn group(&self) -> &ParkGroup {
        self.group.get().expect("group set before any thread runs")
    }

    /// Take one edge, if any, and deliver it: queue its unit, notify.
    fn harvest(&self) -> usize {
        let flags = self.flags.load(Ordering::SeqCst);
        if flags > 0
            && self
                .flags
                .compare_exchange(flags, flags - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            return 1;
        }
        let mut edges = self.edges.load(Ordering::SeqCst);
        while edges > 0 {
            match self
                .edges
                .compare_exchange(edges, edges - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    self.queued.fetch_add(1, Ordering::SeqCst);
                    self.group().notify();
                    return 1;
                }
                Err(now) => edges = now,
            }
        }
        0
    }

    /// What a worker's re-check counts: queued units only. The stop flag
    /// is not work, as in `worker_loop`: a park racing the shutdown must
    /// end on the finalize sequence's token.
    fn pending(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    /// Take one queued unit, if any: its index.
    fn take(&self) -> Option<usize> {
        let queued = self.queued.load(Ordering::SeqCst);
        (queued > 0
            && self
                .queued
                .compare_exchange(queued, queued - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok())
        .then(|| self.taken.fetch_add(1, Ordering::SeqCst))
    }

    /// The finalize sequence: stop, then tokens for every slot.
    fn shut_down(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.group().unpark_all();
    }

    /// A worker: run units until stopped, parking when dry. Like
    /// `worker_loop`, it checks the stop flag before each park.
    fn worker(&self, w: usize, run: impl Fn(usize)) {
        while !self.stop.load(Ordering::SeqCst) {
            match self.take() {
                Some(unit) => run(unit),
                None => {
                    let _ = self.group().park(w, None, || self.pending());
                }
            }
        }
    }
}

impl IoDriver for Kernel {
    fn poll(&self) -> usize {
        self.harvest()
    }

    fn turn(&self, _cap: Option<Duration>) -> usize {
        assert_eq!(
            self.turning.fetch_add(1, Ordering::SeqCst),
            0,
            "two threads in the reactor's blocking turn"
        );
        let delivered = loop {
            if self.woken.swap(false, Ordering::SeqCst) {
                break 0;
            }
            let n = self.harvest();
            if n > 0 {
                break n;
            }
            lwt_model::hint::spin_loop();
        };
        self.turning.fetch_sub(1, Ordering::SeqCst);
        delivered
    }

    fn wake(&self) {
        if self.wakes {
            self.woken.store(true, Ordering::SeqCst);
        }
    }
}

/// A seeded defect for the mutation checks.
#[derive(Clone, Copy, PartialEq)]
enum Mutant {
    /// A notify deposits its token but the holder's turn never ends.
    NotifySkipsWake,
    /// Leaving the idle path with work hands the role to nobody.
    NoHandOn,
}

/// A fresh role and reactor, `edges` already raised, and a group of
/// `workers` driven by them with spent grace budgets (no window: every
/// park goes straight to the commit the role is taken at).
fn world(workers: usize, edges: usize, mutant: Option<Mutant>) -> (&'static Kernel, &'static DriverRole) {
    let role: &'static DriverRole = Box::leak(Box::new(if mutant == Some(Mutant::NoHandOn) {
        DriverRole::without_hand_on()
    } else {
        DriverRole::new()
    }));
    let kernel: &'static Kernel = Box::leak(Box::new(Kernel {
        edges: AtomicUsize::new(edges),
        flags: AtomicUsize::new(0),
        woken: AtomicBool::new(false),
        wakes: mutant != Some(Mutant::NotifySkipsWake),
        turning: AtomicUsize::new(0),
        queued: AtomicUsize::new(0),
        taken: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        group: std::sync::OnceLock::new(),
    }));
    assert!(role.set_io(kernel));
    let group = ParkGroup::with_spent_grace(workers).driven_by(role);
    assert!(kernel.group.set(Arc::new(group)).is_ok());
    (kernel, role)
}

/// The wait policy is process-wide; every case here parks adaptively.
fn adaptive() {
    force_wait_policy(WaitPolicy::Adaptive);
}

fn assert_exhaustive(outcome: &Outcome) {
    assert!(matches!(outcome, Outcome::Pass { complete: true, .. }), "{outcome:?}");
}

fn assert_livelock(outcome: Outcome, what: &str) {
    let Outcome::Fail { message, .. } = outcome else {
        panic!("{what} was not caught: {outcome:?}");
    };
    assert!(message.contains("livelock"), "wrong failure for {what}: {message}");
}

/// One worker takes the role and turns while a producer pushes a unit
/// and notifies: the worker's re-check sees the unit, or the notify
/// finds it driving and ends its turn. There is no edge to end it.
fn role_taken_while_a_notify_races(mutant: Option<Mutant>) {
    adaptive();
    let (k, _) = world(1, 0, mutant);
    let worker = thread::spawn(move || k.worker(0, |_| k.shut_down()));
    k.queued.fetch_add(1, Ordering::SeqCst);
    k.group().notify();
    worker.join();
}

/// Exhaustive (well under a second).
#[test]
fn taking_the_role_while_a_notify_races_it() {
    let outcome = checker(45).check(|| role_taken_while_a_notify_races(None));
    assert_exhaustive(&outcome);
}

/// Mutation check: a notify that deposits its token but never wakes
/// the turn strands the holder — no edge will ever end that turn. (The
/// fake's `wake` does nothing: to the holder, exactly a notify that
/// skips it.)
#[test]
fn a_notify_that_skips_the_wake_is_caught() {
    let outcome = checker(45).run(|| role_taken_while_a_notify_races(Some(Mutant::NotifySkipsWake)));
    assert_livelock(outcome, "a notify that skips the holder's wake");
}

/// Capped. Two workers commit to sleep at once while one unit is pushed
/// and notified: the fake turn asserts that at most one of them is ever
/// in it, and the unit must reach whichever the notify picks — the
/// holder through its turn, the benched one through its parker. The
/// consumer then runs the finalize sequence, whose tokens must end the
/// holder's turn too.
#[test]
fn two_sleepers_one_holder_and_a_notify_reaches_either() {
    let outcome = checker(30).check(|| {
        adaptive();
        let (k, _) = world(2, 0, None);
        let workers: Vec<_> = (0..2)
            .map(|w| thread::spawn(move || k.worker(w, |_| k.shut_down())))
            .collect();
        k.queued.fetch_add(1, Ordering::SeqCst);
        k.group().notify();
        for t in workers {
            t.join();
        }
    });
    assert!(matches!(outcome, Outcome::Pass { .. }), "{outcome:?}");
}

/// Two workers; one edge is raised up front. Its unit raises a second
/// edge and then spins until that edge's unit has run — a handler that
/// keeps its worker busy. So whoever runs the first unit leaves the
/// idle path holding (or right after) the role, and only the other
/// worker can harvest the second edge: it must be handed the role.
fn hand_on_then_a_later_edge(mutant: Option<Mutant>) {
    adaptive();
    let (k, _) = world(2, 1, mutant);
    let run = move |unit: usize| {
        if unit == 0 {
            k.edges.fetch_add(1, Ordering::SeqCst);
            while k.taken.load(Ordering::SeqCst) < 2 {
                lwt_model::hint::spin_loop();
            }
        } else {
            k.shut_down();
        }
    };
    let other = thread::spawn(move || k.worker(1, run));
    k.worker(0, run);
    other.join();
}

/// Exhaustive (about 12 s on a 2-vCPU box).
#[test]
fn a_holder_that_leaves_with_work_hands_on_and_a_later_edge_is_harvested() {
    let outcome = checker(90).check(|| hand_on_then_a_later_edge(None));
    assert_exhaustive(&outcome);
}

/// Mutation check: without the hand-on, the worker left benched sleeps
/// while the busy one spins, and the second edge has nobody to turn
/// the reactor for it.
#[test]
fn without_the_hand_on_the_later_edge_is_stranded() {
    let outcome = checker(45).run(|| hand_on_then_a_later_edge(Some(Mutant::NoHandOn)));
    assert_livelock(outcome, "a missing hand-on");
}

/// Two workers. One polls the reactor, then raises an edge that wakes
/// nobody and one that queues a unit, then parks; the other holds the
/// role, or benches behind the first. A holder whose turn brings it only
/// the first edge after the other polled steps down to the bench if,
/// and only if, nobody is benched: with the poller asleep on the bench,
/// stepping down would leave the second edge to nobody. (Dropping that
/// check is caught as a livelock at the first execution; the check was
/// run once by hand, it is not kept as a seeded mutant.)
fn step_down_then_a_later_edge() {
    adaptive();
    let (k, role) = world(2, 0, None);
    let other = thread::spawn(move || k.worker(1, |_| k.shut_down()));
    // The poll count is a plain atomic, not a schedule point: yield
    // first, so the other worker can take the role before the poll.
    thread::yield_now();
    let _ = role.poll();
    k.flags.fetch_add(1, Ordering::SeqCst);
    k.edges.fetch_add(1, Ordering::SeqCst);
    k.worker(0, |_| k.shut_down());
    other.join();
}

/// Exhaustive (about 20 s on a 2-vCPU box).
#[test]
fn a_holder_steps_down_only_when_nobody_is_benched() {
    let outcome = checker(90).check(step_down_then_a_later_edge);
    assert_exhaustive(&outcome);
}

/// One worker, benched behind a holder outside the group, and a
/// producer that never parks: it pushes a unit and notifies, takes the
/// unit back itself if the worker did not beat it there, lets the
/// outside holder leave (a hand-on to the worker), then pushes and
/// notifies a second unit, whose runner shuts down. The worker woken
/// for the first unit may find nothing. Not handed on, it must leave
/// `park` (the idle exit clears the handoff); handed on, with the two
/// tokens coalesced or not, it must clear the handoff before it
/// re-checks and takes the role. Either way a handoff left set would
/// suppress the second notify and strand the second unit. (Two rules
/// were caught here as livelocks, each run once by hand and not kept
/// as a seeded mutant: the one this replaced — stay for any token that
/// brought no work and was not `unpark_all`'s — and a handed-on
/// sleeper that does not clear the handoff.)
fn a_notified_unit_taken_by_a_busy_producer() {
    adaptive();
    let (k, role) = world(1, 0, None);
    role.hold_elsewhere();
    let worker = thread::spawn(move || {
        k.worker(0, |unit| {
            if unit == 1 {
                k.shut_down();
            }
        });
    });
    k.queued.fetch_add(1, Ordering::SeqCst);
    k.group().notify();
    let _ = k.take();
    role.hand_over();
    k.queued.fetch_add(1, Ordering::SeqCst);
    k.group().notify();
    worker.join();
}

/// Exhaustive.
#[test]
fn a_notified_unit_taken_by_a_busy_producer_does_not_strand_the_next() {
    let outcome = checker(45).check(a_notified_unit_taken_by_a_busy_producer);
    assert_exhaustive(&outcome);
}

/// One worker, benched behind a holder outside the group. The holder
/// leaves (a hand-on to the worker) and the finalize sequence runs at
/// once: the worker may wake once for both tokens. It must leave `park`
/// and see the stop flag, not take the role and turn for a token it
/// already spent. (A sleeper that ignores `unpark_all`'s per-slot flag
/// was caught here as a livelock; that run was made once by hand, it is
/// not kept as a seeded mutant.)
fn a_shutdown_racing_a_hand_on() {
    adaptive();
    let (k, role) = world(1, 0, None);
    role.hold_elsewhere();
    let worker = thread::spawn(move || k.worker(0, |_| {}));
    role.hand_over();
    k.shut_down();
    worker.join();
}

/// Exhaustive.
#[test]
fn a_shutdown_racing_a_hand_on_ends_the_park() {
    let outcome = checker(45).check(a_shutdown_racing_a_hand_on);
    assert_exhaustive(&outcome);
}
