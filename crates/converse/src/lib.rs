//! # lwt-converse — a Converse-Threads-model lightweight-thread runtime
//!
//! From-scratch Rust implementation of the programming model the paper
//! describes for Converse Threads (Kalé et al.), the substrate of
//! Charm++ and one of the oldest LWT designs:
//!
//! * **Processors** — OS threads, each with its own work-unit queue.
//!   The queue is a lock-free MPSC injector ([`lwt_sched::Injector`]):
//!   any number of senders, one consumer — exactly the shape the
//!   insertion rule below prescribes, with no lock on the pop path.
//! * **Two work-unit types**: stackful **ULTs** (`CthThread`,
//!   [`Runtime::spawn_ult`], or [`Runtime::send_ult`] from anywhere)
//!   and stackless **Messages** (
//!   [`Runtime::send`]) that "are executed atomically" and serve as the
//!   inter-processor communication *and* synchronization mechanism.
//! * **The insertion rule** the paper highlights: "each thread has its
//!   own work unit queue but **only messages can be inserted, before
//!   their execution, into other thread's queues**". Accordingly,
//!   [`Runtime::send`]/[`Runtime::send_rr`] (messages) accept any
//!   caller, while [`Runtime::spawn_ult`] is only callable *from a
//!   processor* and lands on that processor's own queue. A ULT made
//!   elsewhere ([`Runtime::send_ult`]) travels inside a message, which
//!   enqueues it on the processor that runs it.
//! * **Barrier-based join** ([`Runtime::barrier`]) in the Converse
//!   *return mode*: the master dispatches messages round-robin and then
//!   waits for global quiescence at a barrier all processors
//!   participate in — the mechanism behind Converse's linearly-growing
//!   join time in the paper's Fig. 3.
//!
//! The processors run the shared worker loop and lifecycle
//! (`lwt_ultcore::engine`) over their own queues; this crate is the
//! message/ULT API and a policy — own queue only, no stealing, and a
//! pending barrier episode served whenever the queue runs dry. The
//! Charm++ layer above Converse (chares, entry methods) is not
//! modelled: a chare call is a message plus an `lwt_sync::Event`.
//!
//! ## Example
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//! use lwt_converse::{Config, Runtime};
//!
//! let rt = Runtime::init(Config { num_processors: 2, ..Config::default() });
//! let hits = Arc::new(AtomicUsize::new(0));
//! for _ in 0..10 {
//!     let hits = hits.clone();
//!     rt.send_rr(move || {
//!         hits.fetch_add(1, Ordering::Relaxed);
//!     });
//! }
//! rt.barrier(); // return-mode join
//! assert_eq!(hits.load(Ordering::Relaxed), 10);
//! rt.shutdown();
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lwt_fiber::StackSize;
use lwt_metrics::registry::{emit, COUNTERS};
use lwt_metrics::EventKind;
use lwt_sched::{Injector, RoundRobin};
use lwt_sync::SenseBarrier;
use lwt_ultcore::{
    enter_worker, may_exit, run_ult, straggler_table, worker_loop, Control, Crew, DrainError,
    Handle, Policy, PollTask, Requeue, TaskHost, UltCore,
};

pub use lwt_ultcore::{current_worker as current_processor, in_ult, yield_now, JoinError};

/// Park the calling ULT until [`awaken`] (`CthSuspend`).
///
/// # Panics
///
/// Panics when called outside a ULT (messages cannot suspend).
pub fn suspend() {
    lwt_ultcore::suspend();
}

/// Resume a [`suspend`]ed ULT on its own processor (`CthAwaken`) —
/// Converse ULTs never migrate, so the processor it suspended on is the
/// one that created it. A wake that overtakes the suspend is
/// remembered. Returns `false` once the ULT has terminated.
pub fn awaken<T>(ult: &Handle<T>) -> bool {
    lwt_ultcore::awaken(&ult.unit())
}

/// Runtime configuration (`ConverseInit`).
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of processors (`+p` in Converse command lines).
    pub num_processors: usize,
    /// ULT stack size (`CthCreate`'s stack argument; Converse defaults
    /// to 64 KiB on Linux, the workspace default).
    pub stack_size: StackSize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            num_processors: std::thread::available_parallelism().map_or(4, usize::from),
            stack_size: StackSize::DEFAULT,
        }
    }
}

/// A queued work unit on a processor.
enum ConvUnit {
    /// Stackless, atomically executed message (`CmiSyncSend`).
    Message(Box<dyn FnOnce() + Send + 'static>),
    /// Stackful ULT (`CthThread`).
    Ult(Arc<UltCore>),
    /// Stackless poll task (`Glt::spawn_async` bridge). Executes
    /// message-like — atomically, no suspension — which is exactly a
    /// `Future`'s poll contract, so it obeys the insertion rule the
    /// same way messages do: any caller may enqueue one anywhere.
    Task(Arc<dyn PollTask>),
}

/// The runtime's state, as the processors share it.
struct Procs {
    /// One queue per processor. MPSC: any thread may send, only the
    /// owning processor pops.
    queues: Vec<Injector<ConvUnit>>,
    /// ULTs suspended on each processor ([`Requeue::suspended`]).
    suspended: Vec<AtomicUsize>,
    /// Stop/abandon flags and idle-processor parking. Converse queues
    /// are single-consumer, so wakes are strictly targeted
    /// (`ParkGroup::notify_worker`): waking anyone but the queue's
    /// owner cannot help.
    ctl: Arc<Control>,
    stack_size: StackSize,
    /// Work units created but not yet fully executed; the quiescence
    /// condition for barrier entry.
    outstanding: AtomicUsize,
    /// Barrier epochs requested by the master vs completed.
    barrier_requested: AtomicUsize,
    barrier_completed: AtomicUsize,
    barrier: SenseBarrier,
    rr: RoundRobin,
}

struct RtInner {
    procs: Arc<Procs>,
    /// The processors; dropping the last handle stops and joins them.
    crew: Crew,
}

/// The Converse-model runtime. Cheap to clone.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
}

impl Runtime {
    /// Start the processors (`ConverseInit`).
    ///
    /// # Panics
    ///
    /// Panics if `config.num_processors` is zero.
    #[must_use]
    pub fn init(config: Config) -> Self {
        assert!(config.num_processors > 0, "need at least one processor");
        let crew = Crew::new(config.num_processors);
        let procs = Arc::new(Procs {
            queues: (0..config.num_processors).map(|_| Injector::new()).collect(),
            suspended: (0..config.num_processors).map(|_| AtomicUsize::new(0)).collect(),
            ctl: crew.control().clone(),
            stack_size: config.stack_size,
            outstanding: AtomicUsize::new(0),
            barrier_requested: AtomicUsize::new(0),
            barrier_completed: AtomicUsize::new(0),
            // Processors + the external master.
            barrier: SenseBarrier::new(config.num_processors + 1),
            rr: RoundRobin::new(config.num_processors),
        });
        for p in 0..config.num_processors {
            let procs = procs.clone();
            crew.spawn(format!("cvt-p{p}"), move || {
                let _guard = enter_worker(p, procs.clone());
                let processor = Processor {
                    procs: &procs,
                    p,
                    served: 0,
                };
                worker_loop(&procs.ctl, p, "converse", processor);
            });
        }
        Runtime {
            inner: Arc::new(RtInner { procs, crew }),
        }
    }

    /// [`Runtime::init`] with defaults.
    #[must_use]
    pub fn init_default() -> Self {
        Self::init(Config::default())
    }

    /// Number of processors.
    #[must_use]
    pub fn num_processors(&self) -> usize {
        self.inner.procs.queues.len()
    }

    /// Send a message to a specific processor's queue (`CmiSyncSend`).
    /// Messages run atomically: no yield, no suspension.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn send<F>(&self, proc: usize, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.inner.procs.enqueue(proc, ConvUnit::Message(Box::new(f)));
    }

    /// Send a message with round-robin processor selection — the
    /// master-thread dispatch the paper's microbenchmarks use.
    pub fn send_rr<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.send(self.inner.procs.rr.next(), f);
    }

    /// Create a ULT on the *calling* processor's queue (`CthCreate`).
    ///
    /// Join its handle from a ULT or an external thread — **never from
    /// a message**: messages execute atomically on their processor's
    /// scheduler stack, so blocking in one wedges the processor (the
    /// same rule as in C Converse). Prefer [`Runtime::barrier`] for
    /// message-fanout joins.
    ///
    /// # Panics
    ///
    /// Panics when called from outside a processor — per the paper,
    /// "only messages can be inserted … into other thread's queues",
    /// so external threads must use [`Runtime::send`] (or
    /// [`Runtime::send_ult`]).
    pub fn spawn_ult<T, F>(&self, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let proc = current_processor().expect(
            "CthCreate outside a processor: only messages may enter another \
             processor's queue",
        );
        let ult = Handle::spawn(self.inner.procs.stack_size, f);
        emit(EventKind::UltSpawn, proc as u64);
        self.inner.procs.enqueue(proc, ConvUnit::Ult(ult.unit()));
        ult
    }

    /// Create a ULT from anywhere and run it on processor `proc`: the
    /// ULT is made here, where its causal parent runs, but only a
    /// message crosses to `proc` — the insertion rule — and, executing
    /// there, puts the ULT on its own processor's queue, as a
    /// [`Runtime::spawn_ult`] inside it would.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn send_ult<T, F>(&self, proc: usize, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let ult = Handle::spawn(self.inner.procs.stack_size, f);
        emit(EventKind::UltSpawn, proc as u64);
        let (procs, unit) = (self.inner.procs.clone(), ult.unit());
        self.send(proc, move || procs.enqueue(proc, ConvUnit::Ult(unit)));
        ult
    }

    /// [`Runtime::send_ult`] to the next processor in round-robin order.
    pub fn send_ult_rr<T, F>(&self, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.send_ult(self.inner.procs.rr.next(), f)
    }

    /// Return-mode join: wait until every queued work unit (including
    /// transitively created ones) has executed, synchronizing with all
    /// processors at a barrier.
    ///
    /// The barrier episode costs O(processors) — the linear join the
    /// paper measures for Converse Threads in Fig. 3.
    pub fn barrier(&self) {
        let procs = &self.inner.procs;
        procs.barrier_requested.fetch_add(1, Ordering::SeqCst);
        // Every processor owes the episode a visit — parked ones
        // included. Wake them all; backstop timeouts are defense in
        // depth, not how barriers are supposed to make progress.
        procs.ctl.park.unpark_all();
        procs.enter_barrier();
    }

    /// Wait up to `deadline` for global quiescence (no outstanding work
    /// units), the precondition for [`Runtime::barrier`] to complete.
    /// Returns whether quiescence was reached — entering the barrier
    /// after a `false` would hang the master on a wedged unit.
    #[must_use]
    pub fn quiesce_within(&self, deadline: std::time::Duration) -> bool {
        let until = std::time::Instant::now() + deadline;
        let _watch = lwt_chaos::block_enter(
            lwt_chaos::BlockKind::Finalize,
            Arc::as_ptr(&self.inner) as u64,
        );
        let mut relax = lwt_sync::AdaptiveRelax::new();
        while self.inner.procs.outstanding.load(Ordering::Acquire) != 0 {
            if std::time::Instant::now() >= until {
                return false;
            }
            relax.relax();
        }
        true
    }

    /// Stop all processors and join their threads (`ConverseExit`).
    /// Idempotent; also what dropping the last clone does. Waits
    /// unboundedly; see [`Runtime::shutdown_within`] for a drain with
    /// a deadline.
    pub fn shutdown(&self) {
        self.inner.crew.shutdown();
    }

    /// [`Runtime::shutdown`] with a drain deadline: processors get
    /// `deadline` to finish queued work; past it they are told to
    /// abandon their queues (no thread is ever killed) and the
    /// leftovers are reported.
    ///
    /// # Errors
    ///
    /// [`DrainError`] listing per-processor queue residue when the
    /// deadline expired before quiescence.
    pub fn shutdown_within(&self, deadline: std::time::Duration) -> Result<(), DrainError> {
        self.inner.crew.shutdown_within(deadline, || {
            let procs = &self.inner.procs;
            straggler_table(
                procs.queues.iter().map(Injector::len),
                "processor queue",
                procs.suspended.iter().map(|c| c.load(Ordering::Acquire)),
            )
        })
    }
}

impl TaskHost for Runtime {
    /// The calling processor's own queue when called from one,
    /// otherwise round-robin like a master dispatch. Tasks are
    /// message-like (stackless, executed atomically), so any caller
    /// may target any processor — the paper's insertion rule restricts
    /// only stackful ULTs. Each scheduled poll counts as outstanding
    /// work, so a [`Runtime::barrier`] waits for already-queued polls
    /// (but not for tasks parked on an external wake — those are not
    /// queued work).
    fn post_task(&self, pin: Option<usize>, task: Arc<dyn PollTask>) {
        let proc = pin.unwrap_or_else(|| match current_processor() {
            Some(p) if p < self.num_processors() => p,
            _ => self.inner.procs.rr.next(),
        });
        self.inner.procs.enqueue(proc, ConvUnit::Task(task));
    }
}

impl Procs {
    /// Count `unit` as outstanding and queue it on processor `proc`.
    fn enqueue(&self, proc: usize, unit: ConvUnit) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        self.queues[proc].push(unit);
        // Push first, then wake the owner if it is parked (see
        // ParkGroup docs for why this order prevents lost wakes).
        self.ctl.park.notify_worker(proc);
    }

    /// One work unit retired. Quiescence is a wake condition: the
    /// processors that found a barrier requested but work outstanding
    /// went back to sleep, and only the retirement that balances the
    /// ledger can tell them the episode may start (else they sit out
    /// their park backstop, 20 ms per barrier).
    fn retire(&self) {
        if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1
            && self.barrier_requested.load(Ordering::SeqCst)
                > self.barrier_completed.load(Ordering::SeqCst)
        {
            self.ctl.park.unpark_all();
        }
    }

    /// Sit out one barrier episode (the master and every processor
    /// do); the leader books it as completed.
    fn enter_barrier(&self) {
        let mut relax = lwt_sync::AdaptiveRelax::new();
        if self.barrier.wait(move || relax.relax()) {
            self.barrier_completed.fetch_add(1, Ordering::AcqRel);
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("converse::Runtime")
            .field("processors", &self.num_processors())
            .field(
                "outstanding",
                &self.inner.procs.outstanding.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl Requeue for Procs {
    fn requeue(&self, worker: usize, u: Arc<UltCore>) {
        // Yielded ULTs return to their current processor's queue —
        // ULTs never migrate through another queue (messages only).
        self.queues[worker].push(ConvUnit::Ult(u));
    }

    fn wake(&self, worker: usize, u: Arc<UltCore>) {
        // So do awakened ones (`CthAwaken`) — but the wake may come
        // from the reactor or a timer while the processor sleeps.
        self.requeue(worker, u);
        self.ctl.park.notify_worker(worker);
    }

    fn suspended(&self, worker: usize) -> Option<&AtomicUsize> {
        Some(&self.suspended[worker])
    }
}

/// One processor's scheduling policy: its own queue and nothing else —
/// Converse ULTs never migrate, so there is no steal phase.
struct Processor<'a> {
    procs: &'a Procs,
    p: usize,
    /// Barrier episodes this processor has been through. Its own count,
    /// not `barrier_completed`: the leader bumps that *after* releasing
    /// the others, and a processor re-checking in between would enter an
    /// episode nobody requested and sit in it, deaf to its queue.
    served: usize,
}

impl Policy for Processor<'_> {
    type Unit = ConvUnit;
    const STEALS: bool = false;

    fn next(&mut self) -> Option<ConvUnit> {
        self.procs.queues[self.p].pop()
    }

    fn run(&mut self, unit: ConvUnit) {
        match unit {
            ConvUnit::Message(f) => {
                // Messages execute atomically on the processor's stack.
                COUNTERS.messages_executed.inc();
                lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Busy);
                emit(EventKind::TaskletExec, 0);
                f();
                lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Dispatch);
                self.procs.retire();
            }
            ConvUnit::Ult(u) => {
                let claimed = run_ult(&u);
                if claimed && u.is_terminated() {
                    self.procs.retire();
                }
            }
            ConvUnit::Task(t) => {
                // One queued poll, one execution: run() emits its own
                // timeline/metrics; a wake that requeues the task goes
                // back through post_task and re-increments outstanding.
                t.run();
                self.procs.retire();
            }
        }
    }

    /// Only our own queue feeds us; barrier requests and shutdown
    /// arrive as wake tokens (their senders call `unpark_all`).
    fn reachable(&self) -> usize {
        self.procs.queues[self.p].len()
    }

    fn drained(&self) -> bool {
        may_exit(&self.procs.suspended[self.p], || {
            self.procs.queues[self.p].is_empty()
        })
    }

    /// Quiescent with a barrier pending? Serve the episode.
    fn dry_sweep(&mut self) -> bool {
        let due = self.procs.barrier_requested.load(Ordering::Acquire) > self.served
            && self.procs.outstanding.load(Ordering::Acquire) == 0;
        if due {
            self.procs.enter_barrier();
            self.served += 1;
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwt_sync::SpinLock;
    use std::sync::atomic::AtomicUsize;

    fn rt(n: usize) -> Runtime {
        Runtime::init(Config {
            num_processors: n,
            ..Config::default()
        })
    }

    #[test]
    fn messages_execute_and_barrier_joins() {
        let rt = rt(2);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let hits = hits.clone();
            rt.send_rr(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.barrier();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        rt.shutdown();
    }

    #[test]
    fn send_targets_specific_processor() {
        let rt = rt(3);
        let seen = Arc::new(SpinLock::new(Vec::new()));
        for p in 0..3 {
            let seen = seen.clone();
            rt.send(p, move || {
                seen.lock().push((p, current_processor().unwrap()));
            });
        }
        rt.barrier();
        let mut seen = seen.lock().clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 0), (1, 1), (2, 2)]);
        rt.shutdown();
    }

    #[test]
    fn repeated_barriers_work() {
        let rt = rt(2);
        let hits = Arc::new(AtomicUsize::new(0));
        for round in 1..=5 {
            for _ in 0..10 {
                let hits = hits.clone();
                rt.send_rr(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            rt.barrier();
            assert_eq!(hits.load(Ordering::Relaxed), round * 10);
        }
        rt.shutdown();
    }

    #[test]
    fn messages_spawning_messages_reach_quiescence() {
        let rt = rt(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let rt2 = rt.clone();
        let h2 = hits.clone();
        rt.send(0, move || {
            h2.fetch_add(1, Ordering::Relaxed);
            for _ in 0..10 {
                let h = h2.clone();
                rt2.send_rr(move || {
                    h.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        rt.barrier();
        assert_eq!(hits.load(Ordering::Relaxed), 11);
        rt.shutdown();
    }

    #[test]
    fn ults_spawn_on_own_processor_and_yield() {
        let rt = rt(2);
        let rt2 = rt.clone();
        let out = Arc::new(SpinLock::new(None));
        let o = out.clone();
        // Messages execute atomically and must not block, so the
        // message only *creates* the ULT; the return-mode barrier below
        // waits for the ULT itself (it counts as outstanding work).
        rt.send(1, move || {
            let o2 = o.clone();
            let _ = rt2.spawn_ult(move || {
                let me = current_processor();
                yield_now();
                // ULTs requeue to their own processor: still proc 1.
                assert_eq!(current_processor(), me);
                *o2.lock() = Some(me);
            });
        });
        rt.barrier();
        assert_eq!(*out.lock(), Some(Some(1)));
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "only messages may enter")]
    fn external_ult_creation_is_rejected() {
        let rt = rt(1);
        // Keep the runtime alive past the panic so worker threads
        // shut down cleanly in the unwind.
        let _ = rt.spawn_ult(|| ());
    }

    #[test]
    fn barrier_with_no_work_returns() {
        let rt = rt(4);
        rt.barrier();
        rt.barrier();
        rt.shutdown();
    }

    #[test]
    fn shutdown_idempotent_and_drop_safe() {
        let rt = rt(2);
        rt.send_rr(|| ());
        rt.barrier();
        rt.shutdown();
        rt.shutdown();
        drop(rt);
    }
}

#[cfg(test)]
mod suspend_tests {
    use super::*;
    use lwt_sync::SpinLock;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn cth_suspend_awaken_round_trip() {
        let rt = Runtime::init(Config {
            num_processors: 2,
            ..Config::default()
        });
        let progress = Arc::new(AtomicUsize::new(0));
        let handle_cell: Arc<SpinLock<Option<Handle<()>>>> =
            Arc::new(SpinLock::new(None));
        let (rt2, p2, hc) = (rt.clone(), progress.clone(), handle_cell.clone());
        rt.send(0, move || {
            let p3 = p2.clone();
            let h = rt2.spawn_ult(move || {
                p3.fetch_add(1, Ordering::SeqCst);
                suspend();
                p3.fetch_add(1, Ordering::SeqCst);
            });
            *hc.lock() = Some(h);
        });
        // Wait until the ULT parked after its first step.
        while progress.load(Ordering::SeqCst) < 1 {
            std::thread::yield_now();
        }
        let h = loop {
            if let Some(h) = handle_cell.lock().take() {
                break h;
            }
            std::thread::yield_now();
        };
        // Spin until the park is visible, then wake it.
        while !awaken(&h) {
            if h.is_finished() {
                panic!("ULT finished without awaken");
            }
            std::thread::yield_now();
        }
        h.join();
        assert_eq!(progress.load(Ordering::SeqCst), 2);
        rt.shutdown();
    }
}
