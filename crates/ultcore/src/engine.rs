//! The worker engine: everything about a runtime that is *not* one of
//! the paper's Table I differences, written once for all five.
//!
//! * [`Policy`] + [`worker_loop`] — the scheduling loop every worker,
//!   processor and execution stream runs. The loop owns the idle path
//!   (exit test → reactor poll → park) and the busy poll; a
//!   policy owns what
//!   Table I says the libraries disagree on: where the next unit comes
//!   from, how it runs, which queues the worker can reach.
//! * [`Control`] + [`Crew`] — the lifecycle: named worker threads, the
//!   `stop`/`abandon` flags and the park group they watch, `shutdown`,
//!   the bounded `shutdown_within` ladder, and `Drop`.
//! * [`Pool`] — the queue topology Go, MassiveThreads and Qthreads
//!   share: one [`ReadyQueue`] per worker, the per-worker suspended
//!   count, and the [`Requeue`] hook over them.
//! * [`TaskHost`] — how a stackless task gets (back) onto a runtime's
//!   queues.
//!
//! DESIGN.md "The worker engine" has the table mapping each backend's
//! Table I cells onto its policy, and the ordering contracts a policy
//! cannot change.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lwt_metrics::registry::{emit, COUNTERS, STEAL_DWELL};
use lwt_metrics::{clock, timeline, EventKind, WorkerState};
use lwt_sched::{ParkGroup, ReadyQueue};
use lwt_sync::SpinLock;

use crate::{
    current_worker, enter_worker, DrainError, PollTask, ReadyUnit, Requeue, Straggler,
    UltCore,
};

/// What one worker's scheduler decides — the Table I differences, as
/// seen from inside [`worker_loop`]. A policy value lives on its
/// worker's stack for the life of the loop, so per-worker state (a
/// victim RNG, a sibling list, a scheduler stack) is a plain field and
/// the worker id is not a parameter.
///
/// A policy may decide the victim order, which end a requeue lands on,
/// where external spawns go and which unit kinds exist. It cannot
/// change what the loop does around it: `abandon` is checked between
/// units only, the exit test runs before the reactor poll, and a
/// worker parks only after re-checking [`Policy::reachable`] behind
/// its announcement.
pub trait Policy {
    /// The backend's queue element.
    type Unit;

    /// Whether [`Policy::next`] has a steal phase; the loop samples the
    /// steal-dwell histogram for those that do.
    const STEALS: bool;

    /// The next unit: the worker's own queue first, then whatever the
    /// backend allows it to take from others. One bounded sweep — no
    /// retry loop: an empty one sends the worker to the park, whose
    /// grace window does the retrying.
    fn next(&mut self) -> Option<Self::Unit>;

    /// Execute one unit until it yields, suspends or finishes.
    fn run(&mut self, unit: Self::Unit);

    /// Units this worker could acquire right now (its own queue in
    /// full, only the stealable part of its victims'): the re-check
    /// [`ParkGroup::park`] makes after announcing the worker idle.
    fn reachable(&self) -> usize;

    /// The drain contract's exit test, consulted once `stop` is up and
    /// a sweep came back empty: nothing suspended on this worker, and
    /// — read second, see [`may_exit`] — nothing queued.
    fn drained(&self) -> bool;

    /// Runs first on every dry sweep. Return `true` if it did work in
    /// place of a unit, which sends the loop straight back to
    /// [`Policy::next`]. Converse serves a pending barrier episode
    /// here; nobody else has anything to do.
    fn dry_sweep(&mut self) -> bool {
        false
    }
}

/// Units a busy worker dispatches between two reactor polls while no
/// thread holds the driver role: the bound on how long readiness waits
/// when every worker is busy (tokio's `event_interval` is 61 too).
const BUSY_POLL_DISPATCHES: u32 = 61;

/// The scheduling loop of worker `worker`, run on its own OS thread
/// until `ctl` says stop and the policy reports the worker drained (or
/// says abandon). `label` names the backend in watchdog reports.
pub fn worker_loop<P: Policy>(ctl: &Control, worker: usize, label: &'static str, mut policy: P) {
    let mut dispatched: u32 = 0;
    // Timestamp of the moment this worker ran dry; 0 while it has
    // work. Feeds the steal-dwell histogram on the next acquire: two
    // clock reads per idle episode, none per unit while busy.
    let mut idle_since_ns: u64 = 0;
    let heartbeat = lwt_chaos::register_worker(label, worker);
    loop {
        heartbeat.beat();
        // Between units, never inside one: a bounded drain gives up on
        // queued work, it does not unwind a running unit.
        if ctl.abandon.load(Ordering::Acquire) {
            break;
        }
        match policy.next() {
            Some(unit) => {
                if P::STEALS && idle_since_ns != 0 {
                    STEAL_DWELL.record(clock::now_ns().saturating_sub(idle_since_ns));
                    idle_since_ns = 0;
                }
                if lwt_chaos::should_inject(lwt_chaos::FaultSite::YieldPoint) {
                    std::thread::yield_now();
                }
                policy.run(unit);
                // With every worker busy nobody sleeps in the reactor.
                dispatched += 1;
                if dispatched == BUSY_POLL_DISPATCHES {
                    dispatched = 0;
                    lwt_sched::io_busy_poll();
                }
            }
            None => {
                if P::STEALS && idle_since_ns == 0 {
                    idle_since_ns = clock::now_ns();
                }
                if policy.dry_sweep() {
                    continue;
                }
                if ctl.stop.load(Ordering::Acquire) && policy.drained() {
                    break;
                }
                timeline::enter(WorkerState::Idle);
                // One dry sweep proves the worker dry. Give the I/O
                // reactor (if one is running) a zero-timeout poll —
                // readiness wakes repost through the runtime's own
                // queues, so a non-zero return means work may exist —
                // then park. The park's grace window is the idle
                // path's only spin, and an adaptive one: a spin here
                // ahead of it would catch the gaps the window learns
                // from. The re-check counts only work this worker can
                // reach, so a unit somebody else must run never aborts
                // the park; why the park ended does not matter, the
                // next sweep finds out.
                if lwt_sched::io_poll() > 0 {
                    continue;
                }
                let _ = ctl.park.park(worker, Some(&heartbeat), || policy.reachable());
            }
        }
    }
}

/// The drain contract's exit test for a worker that found nothing to
/// run after `stop` was raised: it may leave only once no unit is
/// suspended on it (`suspended`, its [`Requeue::suspended`] count) and
/// `queue_is_empty` still holds *after* that count read zero — a wake
/// pushes before it decrements, so that order cannot miss a unit that
/// was resumed in between.
#[must_use]
pub fn may_exit(suspended: &AtomicUsize, queue_is_empty: impl FnOnce() -> bool) -> bool {
    suspended.load(Ordering::Acquire) == 0 && queue_is_empty()
}

/// What a runtime's workers share with whoever owns them: the flags
/// [`worker_loop`] watches and the park group it sleeps in. Workers
/// hold this (inside their queues' shared state) and *not* the
/// [`Crew`], so the last runtime handle can drop while they run.
pub struct Control {
    stop: AtomicBool,
    /// Bounded-drain escape hatch: set when a `shutdown_within`
    /// deadline expires so workers exit even with queued (wedged)
    /// units still rotating through their queues.
    abandon: AtomicBool,
    /// Idle-worker parking; every push site notifies (push first, then
    /// notify — see the `ParkGroup` docs for why that order is what
    /// prevents lost wakes).
    pub park: ParkGroup,
}

/// Grace period granted after a drain deadline expires, between
/// raising `abandon` and detaching workers that still have not exited:
/// long enough for a worker parked between units to notice the flag,
/// short enough that a worker wedged *inside* a unit cannot stall
/// `shutdown_within` indefinitely.
const ABANDON_GRACE: Duration = Duration::from_millis(500);

/// Poll `handles` until every thread has finished or `deadline`
/// elapses; `true` iff all finished in time. The threads are *not*
/// joined.
fn join_within(handles: &[JoinHandle<()>], deadline: Duration) -> bool {
    let until = Instant::now() + deadline;
    let _watch = lwt_chaos::block_enter(lwt_chaos::BlockKind::Finalize, handles.len() as u64);
    loop {
        if handles.iter().all(JoinHandle::is_finished) {
            return true;
        }
        if Instant::now() >= until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A runtime's worker threads and their lifecycle. Owned by the state
/// behind the runtime's handles; dropping it (the last handle going
/// away without a `shutdown`) stops and joins the workers.
pub struct Crew {
    ctl: Arc<Control>,
    shut: AtomicBool,
    threads: SpinLock<Vec<JoinHandle<()>>>,
}

impl Crew {
    /// A crew with no threads yet and `park_slots` parker slots
    /// (worker ids beyond them nap instead of sleeping).
    #[must_use]
    pub fn new(park_slots: usize) -> Self {
        Crew {
            ctl: Arc::new(Control {
                stop: AtomicBool::new(false),
                abandon: AtomicBool::new(false),
                park: ParkGroup::new(park_slots),
            }),
            shut: AtomicBool::new(false),
            threads: SpinLock::new(Vec::new()),
        }
    }

    /// The flags and park group to hand to the workers.
    #[must_use]
    pub fn control(&self) -> &Arc<Control> {
        &self.ctl
    }

    /// Start one worker thread called `name`.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses the thread.
    pub fn spawn(&self, name: String, body: impl FnOnce() + Send + 'static) {
        COUNTERS.os_threads_spawned.inc();
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(body)
            .expect("spawn lwt worker thread");
        self.threads.lock().push(thread);
    }

    /// Raise `stop`, wake every sleeper, and take the handles.
    fn halt(&self) -> Vec<JoinHandle<()>> {
        self.ctl.stop.store(true, Ordering::Release);
        // A fully parked pool must notice the flag now, not after a
        // backstop timeout (and, for a bounded drain, *before* the
        // deadline starts, instead of eating it in 20–200 ms backstop
        // increments).
        self.ctl.park.unpark_all();
        std::mem::take(&mut *self.threads.lock())
    }

    /// Stop the workers and join them. Idempotent. Unbounded: a unit
    /// that never finishes (suspended on a wake that never comes)
    /// keeps its worker from exiting forever — use
    /// [`Crew::shutdown_within`] to degrade gracefully instead.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn shutdown(&self) {
        if self.shut.swap(true, Ordering::AcqRel) {
            return;
        }
        for t in self.halt() {
            t.join().expect("lwt worker thread panicked");
        }
    }

    /// [`Crew::shutdown`] with a drain deadline: wait up to `deadline`
    /// for the workers to finish their queues, then order them to
    /// abandon whatever is left and report `stragglers()`. Workers
    /// idle between units are joined either way; one wedged *inside* a
    /// unit is detached rather than waited for (never killed — the
    /// state it shares keeps it safe). Idempotent (later calls return
    /// `Ok`).
    ///
    /// # Errors
    ///
    /// [`DrainError`] when the deadline expired with units still
    /// queued, suspended or running.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn shutdown_within(
        &self,
        deadline: Duration,
        stragglers: impl FnOnce() -> Vec<Straggler>,
    ) -> Result<(), DrainError> {
        if self.shut.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        let handles = self.halt();
        let timed_out = !join_within(&handles, deadline);
        if timed_out {
            self.ctl.abandon.store(true, Ordering::Release);
            self.ctl.park.unpark_all();
            // Grace for workers idling between units to notice the flag.
            join_within(&handles, ABANDON_GRACE);
        }
        for t in handles {
            // An unfinished handle is dropped: detached, not hung on.
            if t.is_finished() {
                t.join().expect("lwt worker thread panicked");
            }
        }
        if timed_out {
            Err(DrainError {
                waited: deadline,
                stragglers: stragglers(),
            })
        } else {
            Ok(())
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        if self.shut.swap(true, Ordering::AcqRel) {
            return;
        }
        // The last handle can die on a worker (inside a unit's closure,
        // or a dropped `TaskResched`): that thread detaches itself and
        // leaves through its loop's exit test like the others.
        let me = std::thread::current().id();
        for t in self.halt() {
            if t.thread().id() != me {
                let _ = t.join();
            }
        }
    }
}

/// The straggler table of a drain that gave up: one row per worker
/// (or pool) that still has units queued — `queued`, labelled `what` —
/// then one per worker with units suspended, in no queue at all.
pub fn straggler_table(
    queued: impl Iterator<Item = usize>,
    what: &'static str,
    suspended: impl Iterator<Item = usize>,
) -> Vec<Straggler> {
    fn rows(
        counts: impl Iterator<Item = usize>,
        what: &'static str,
    ) -> impl Iterator<Item = Straggler> {
        counts
            .enumerate()
            .filter(|&(_, pending)| pending > 0)
            .map(move |(worker, pending)| Straggler {
                worker,
                pending,
                what,
            })
    }
    rows(queued, what)
        .chain(rows(suspended, "suspended units (blocked, in no queue)"))
        .collect()
}

/// The queue topology Go, MassiveThreads and Qthreads share: one
/// [`ReadyQueue`] per worker — ULTs and stackless future tasks in the
/// same queues ([`ReadyUnit`]) — plus the drain ledger and the
/// [`Requeue`] hook over them. What differs between the three (victim
/// order, external-spawn target, stealing scope) comes in as arguments.
pub struct Pool {
    queues: Box<[ReadyQueue<ReadyUnit>]>,
    /// Units suspended on each worker ([`Requeue::suspended`]).
    suspended: Box<[AtomicUsize]>,
    /// Stealing is confined to fixed domains, so a queue's owner
    /// always gets its own wake: see `Pool::notify`.
    scoped: bool,
    ctl: Arc<Control>,
}

impl Pool {
    /// `workers` empty queues whose pushes notify `ctl`'s park group.
    /// `scoped`: the policies steal only inside fixed domains (Qthreads
    /// shepherds) instead of from anyone.
    #[must_use]
    pub fn new(workers: usize, scoped: bool, ctl: Arc<Control>) -> Arc<Self> {
        Arc::new(Pool {
            queues: (0..workers).map(|_| ReadyQueue::new()).collect(),
            suspended: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
            scoped,
            ctl,
        })
    }

    /// Wake a sleeper for a unit just pushed to `target`'s queue. The
    /// group's wake-one drops a notification while an earlier wake is
    /// in flight, because the worker being woken will find this unit
    /// too or pass the wake on — if it can reach `target`'s queue.
    /// Under scoped stealing it may belong to another domain, and
    /// `target` would sleep out its 20 ms backstop with the unit
    /// queued whenever two wakes fall within a scheduling latency
    /// (most of a paced server's latency tail). So a scoped pool first
    /// hands the owner a token nothing suppresses; the wake-one after
    /// it still finds a sibling when the owner is busy inside a unit.
    #[inline]
    fn notify(&self, target: usize) {
        if self.scoped {
            self.ctl.park.notify_worker(target);
        }
        self.ctl.park.notify_near(target);
    }

    /// Number of workers (queues).
    #[must_use]
    #[inline]
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Units queued anywhere in the pool (racy; diagnostics).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queues.iter().map(ReadyQueue::len).sum()
    }

    /// Queue `unit` on worker `target`: its own deque when the caller
    /// *is* that worker (the zero-allocation owner fast path), its
    /// inbox otherwise. Push first, then wake at most one sleeper near
    /// the target.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    #[inline]
    pub fn push(&self, target: usize, unit: ReadyUnit) {
        self.queues[target].push(unit);
        self.notify(target);
    }

    /// Queue `unit` at the *back* of worker `target`'s queue (its
    /// inbox) whoever the caller is: pushed onto the owner's LIFO
    /// deque a requeued unit would be popped right back, above the
    /// sibling it made way for.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    #[inline]
    pub fn inject(&self, target: usize, unit: ReadyUnit) {
        self.queues[target].inject(unit);
        self.notify(target);
    }

    /// Queue `unit` where a spawn without a placement goes: the
    /// caller's own deque from one of this pool's workers, else the
    /// worker `external` names (the backend's dispatch for spawns from
    /// outside).
    pub fn submit(&self, unit: ReadyUnit, external: impl FnOnce() -> usize) {
        let target = match current_worker() {
            Some(w) if w < self.queues.len() => w,
            _ => external(),
        };
        self.push(target, unit);
    }

    /// Queue a stackless task: on worker `pin` if given, else like
    /// [`Pool::submit`].
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range.
    pub fn post_task(
        &self,
        pin: Option<usize>,
        task: Arc<dyn PollTask>,
        external: impl FnOnce() -> usize,
    ) {
        match pin {
            Some(worker) => self.push(worker, ReadyUnit::Task(task)),
            None => self.submit(ReadyUnit::Task(task), external),
        }
    }

    /// The body of worker `worker`'s OS thread: register it as an
    /// executor whose yields and wakes come back to this pool, bind
    /// its queue, and run `policy` until shutdown.
    pub fn run_worker(
        self: &Arc<Self>,
        worker: usize,
        label: &'static str,
        policy: impl Policy<Unit = ReadyUnit>,
    ) {
        let _guard = enter_worker(worker, self.clone());
        self.queues[worker].bind();
        worker_loop(&self.ctl, worker, label, policy);
    }

    /// [`Policy::next`] over this pool: `worker`'s own queue (deque,
    /// shared lane, inbox), then one steal attempt per victim, in the
    /// order given. `victims` is consumed only if the own queue is dry.
    pub fn next(
        &self,
        worker: usize,
        victims: impl IntoIterator<Item = usize>,
    ) -> Option<ReadyUnit> {
        self.queues[worker].pop().or_else(|| {
            timeline::enter(WorkerState::Steal);
            victims.into_iter().find_map(|v| {
                COUNTERS.steal_attempts.inc();
                emit(EventKind::StealAttempt, v as u64);
                let stolen = self.queues[v].steal();
                if stolen.is_some() {
                    COUNTERS.steal_hits.inc();
                    emit(EventKind::StealHit, v as u64);
                }
                stolen
            })
        })
    }

    /// [`Policy::reachable`] over this pool: `worker`'s own queue in
    /// full, the victims' deques and shared lanes only (their inboxes
    /// are single-consumer — unreachable to a thief).
    #[must_use]
    pub fn reachable(&self, worker: usize, victims: impl IntoIterator<Item = usize>) -> usize {
        self.queues[worker].len()
            + victims
                .into_iter()
                .map(|v| self.queues[v].stealable_len())
                .sum::<usize>()
    }

    /// [`Policy::drained`] over this pool.
    #[must_use]
    #[inline]
    pub fn drained(&self, worker: usize) -> bool {
        may_exit(&self.suspended[worker], || self.queues[worker].is_empty())
    }

    /// [`straggler_table`] over this pool, its queue rows labelled
    /// `what`.
    #[must_use]
    pub fn stragglers(&self, what: &'static str) -> Vec<Straggler> {
        straggler_table(
            self.queues.iter().map(ReadyQueue::len),
            what,
            self.suspended.iter().map(|c| c.load(Ordering::Acquire)),
        )
    }
}

impl Requeue for Pool {
    fn requeue(&self, worker: usize, ult: Arc<UltCore>) {
        // Yielded/displaced ULTs go to the *back* of the current
        // worker's queue (the inbox): the owner pops its deque LIFO, so
        // queued children run before the unit that yielded (progress),
        // and a displaced main flow becomes stealable once the owner
        // batches the inbox onto the deque.
        self.inject(worker, ult.into());
    }

    fn wake(&self, worker: usize, ult: Arc<UltCore>) {
        // Fired from another thread (reactor, timer, a completing
        // worker): the shared lane, which thieves can reach even while
        // this worker is tied up in one long unit.
        self.queues[worker].push_shared(ult.into());
        self.notify(worker);
    }

    fn suspended(&self, worker: usize) -> Option<&AtomicUsize> {
        Some(&self.suspended[worker])
    }
}

/// A runtime that can host stackless tasks. The `Glt` layer builds
/// each task's [`crate::TaskResched`] hook over a clone of the
/// runtime, so the initial enqueue and every waker-driven requeue go
/// through this one method — and a pending task keeps its runtime
/// alive, so a late wake still has somewhere to land.
pub trait TaskHost: Clone + Send + Sync + 'static {
    /// Queue `task` for one poll: on execution resource `pin` if
    /// given, else wherever the backend dispatches a spawn that names
    /// no placement (the caller's own queue from a worker, its
    /// round-robin or fixed external target otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range.
    fn post_task(&self, pin: Option<usize>, task: Arc<dyn PollTask>);
}
