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
//!   [`Runtime::spawn_ult`]) and stackless **Messages** (
//!   [`Runtime::send`]) that "are executed atomically" and serve as the
//!   inter-processor communication *and* synchronization mechanism.
//! * **The insertion rule** the paper highlights: "each thread has its
//!   own work unit queue but **only messages can be inserted, before
//!   their execution, into other thread's queues**". Accordingly,
//!   [`Runtime::send`]/[`Runtime::send_rr`] (messages) accept any
//!   caller, while [`Runtime::spawn_ult`] is only callable *from a
//!   processor* and lands on that processor's own queue.
//! * **Barrier-based join** ([`Runtime::barrier`]) in the Converse
//!   *return mode*: the master dispatches messages round-robin and then
//!   waits for global quiescence at a barrier all processors
//!   participate in — the mechanism behind Converse's linearly-growing
//!   join time in the paper's Fig. 3.
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

mod chare;

pub use chare::Chare;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use lwt_fiber::StackSize;
use lwt_metrics::registry::{emit, COUNTERS};
use lwt_metrics::EventKind;
use lwt_sched::{Injector, ParkGroup, RoundRobin};
use lwt_sync::{SenseBarrier, SpinLock};
use lwt_ultcore::{
    enter_worker, join_within, may_exit, run_ult, suspended_stragglers, DrainError,
    PollTask, Requeue, ResultCell, Straggler, TaskResched, UltCore, ABANDON_GRACE,
};

pub use lwt_ultcore::{current_worker as current_processor, in_ult, yield_now, JoinError};

/// Park the calling ULT until [`UltHandle::awaken`] (`CthSuspend`).
///
/// # Panics
///
/// Panics when called outside a ULT (messages cannot suspend).
pub fn suspend() {
    lwt_ultcore::suspend();
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

struct Proc {
    /// MPSC: any thread may send, only the owning processor pops.
    queue: Injector<ConvUnit>,
}

struct RtInner {
    procs: Vec<Arc<Proc>>,
    /// ULTs suspended on each processor ([`Requeue::suspended`]).
    suspended: Vec<AtomicUsize>,
    /// Idle-processor parking. Converse queues are single-consumer, so
    /// wakes are strictly targeted ([`ParkGroup::notify_worker`]):
    /// waking anyone but the queue's owner cannot help.
    park: ParkGroup,
    stack_size: StackSize,
    /// Work units created but not yet fully executed; the quiescence
    /// condition for barrier entry.
    outstanding: AtomicUsize,
    /// Barrier epochs requested by the master vs completed.
    barrier_requested: AtomicUsize,
    barrier_completed: AtomicUsize,
    barrier: SenseBarrier,
    threads: SpinLock<Vec<Option<std::thread::JoinHandle<()>>>>,
    rr: RoundRobin,
    stop: AtomicBool,
    shut: AtomicBool,
    /// Degradation switch: set by [`Runtime::shutdown_within`] when the
    /// drain deadline expires; processors break out of their loop even
    /// with work still queued.
    abandon: AtomicBool,
}

/// The Converse-model runtime. Cheap to clone.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
}

/// Handle to a ULT created with [`Runtime::spawn_ult`].
pub struct UltHandle<T> {
    ult: Arc<UltCore>,
    result: Arc<ResultCell<T>>,
}

impl<T> UltHandle<T> {
    /// Wait for completion (suspended when inside a ULT) and take the
    /// result, surfacing an escaped panic as a [`JoinError`] instead of
    /// re-raising it.
    ///
    /// Must be called from a ULT or an external thread — **never from
    /// a message**: messages execute atomically on their processor's
    /// scheduler stack, so blocking in one wedges the processor (the
    /// same rule as in C Converse). Prefer [`Runtime::barrier`] for
    /// message-fanout joins.
    ///
    /// # Errors
    ///
    /// [`JoinError`] carrying the panic payload.
    pub fn try_join(self) -> Result<T, JoinError> {
        self.ult.join_wait();
        lwt_metrics::span::on_join(self.ult.span_id());
        if let Some(p) = self.ult.take_panic() {
            return Err(JoinError::new(p));
        }
        // SAFETY: TERMINATED observed; sole joiner.
        Ok(unsafe { self.result.take() }.expect("converse ULT result missing"))
    }

    /// Wait for completion and take the result.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that escaped the ULT's closure.
    pub fn join(self) -> T {
        self.try_join().unwrap_or_else(|e| e.resume())
    }

    /// Non-consuming completion test.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.ult.is_terminated()
    }

    /// Resume a [`suspend`]ed ULT on its own processor (`CthAwaken`) —
    /// Converse ULTs never migrate, so the processor it suspended on is
    /// the one that created it. A wake that overtakes the suspend is
    /// remembered. Returns `false` once the ULT has terminated.
    pub fn awaken(&self) -> bool {
        lwt_ultcore::awaken(&self.ult)
    }
}

impl<T> std::fmt::Debug for UltHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("converse::UltHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
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
        let procs: Vec<Arc<Proc>> = (0..config.num_processors)
            .map(|_| {
                Arc::new(Proc {
                    queue: Injector::new(),
                })
            })
            .collect();
        let inner = Arc::new(RtInner {
            park: ParkGroup::new(procs.len()),
            suspended: procs.iter().map(|_| AtomicUsize::new(0)).collect(),
            procs,
            stack_size: config.stack_size,
            outstanding: AtomicUsize::new(0),
            barrier_requested: AtomicUsize::new(0),
            barrier_completed: AtomicUsize::new(0),
            // Processors + the external master.
            barrier: SenseBarrier::new(config.num_processors + 1),
            threads: SpinLock::new(Vec::new()),
            rr: RoundRobin::new(config.num_processors),
            stop: AtomicBool::new(false),
            shut: AtomicBool::new(false),
            abandon: AtomicBool::new(false),
        });
        let rt = Runtime { inner };
        let mut threads = rt.inner.threads.lock();
        for p in 0..config.num_processors {
            let inner = rt.inner.clone();
            COUNTERS.os_threads_spawned.inc();
            threads.push(Some(
                std::thread::Builder::new()
                    .name(format!("cvt-p{p}"))
                    .spawn(move || proc_main(&inner, p))
                    .expect("spawn converse processor"),
            ));
        }
        drop(threads);
        rt
    }

    /// [`Runtime::init`] with defaults.
    #[must_use]
    pub fn init_default() -> Self {
        Self::init(Config::default())
    }

    /// Number of processors.
    #[must_use]
    pub fn num_processors(&self) -> usize {
        self.inner.procs.len()
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
        self.inner.outstanding.fetch_add(1, Ordering::AcqRel);
        self.inner.procs[proc].queue.push(ConvUnit::Message(Box::new(f)));
        // Push first, then wake the owner if it is parked (see
        // ParkGroup docs for why this order prevents lost wakes).
        self.inner.park.notify_worker(proc);
    }

    /// Send a message with round-robin processor selection — the
    /// master-thread dispatch the paper's microbenchmarks use.
    pub fn send_rr<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.send(self.inner.rr.next(), f);
    }

    /// Enqueue a stackless poll task: the calling processor's own
    /// queue when called from one, otherwise round-robin like a master
    /// dispatch. Each scheduled poll counts as outstanding work, so a
    /// [`Runtime::barrier`] waits for already-queued polls (but not for
    /// tasks parked on an external wake — those are not queued work).
    pub fn post_task(&self, task: Arc<dyn PollTask>) {
        match current_processor() {
            Some(p) if p < self.inner.procs.len() => self.post_task_to(p, task),
            _ => self.post_task_to(self.inner.rr.next(), task),
        }
    }

    /// Enqueue a stackless poll task onto a specific processor's queue.
    /// Tasks are message-like (stackless, executed atomically), so any
    /// caller may target any processor — the paper's insertion rule
    /// restricts only stackful ULTs.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn post_task_to(&self, proc: usize, task: Arc<dyn PollTask>) {
        self.inner.outstanding.fetch_add(1, Ordering::AcqRel);
        self.inner.procs[proc].queue.push(ConvUnit::Task(task));
        self.inner.park.notify_worker(proc);
    }

    /// A reschedule hook posting via [`Runtime::post_task`]; holds the
    /// runtime alive so late wakes (after user drop) still land.
    #[must_use]
    pub fn task_poster(&self) -> TaskResched {
        let rt = self.clone();
        Arc::new(move |t| rt.post_task(t))
    }

    /// A reschedule hook pinning every (re)schedule to processor
    /// `proc`.
    #[must_use]
    pub fn task_poster_to(&self, proc: usize) -> TaskResched {
        let rt = self.clone();
        Arc::new(move |t| rt.post_task_to(proc, t))
    }

    /// Create a ULT on the *calling* processor's queue (`CthCreate`).
    ///
    /// # Panics
    ///
    /// Panics when called from outside a processor — per the paper,
    /// "only messages can be inserted … into other thread's queues",
    /// so external threads must use [`Runtime::send`].
    pub fn spawn_ult<T, F>(&self, f: F) -> UltHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_ult_spanned(lwt_metrics::span::on_spawn(), f)
    }

    /// [`Runtime::spawn_ult`] adopting an already-allocated causal span
    /// instead of recording a fresh spawn edge — for two-stage spawns
    /// where the causal parent lives on the thread that *sent* the
    /// bootstrap message, not the processor executing it (the unified
    /// API's `GLT_ult_create` path). Pass `0` to run span-less.
    ///
    /// # Panics
    ///
    /// Panics when called from outside a processor, like
    /// [`Runtime::spawn_ult`].
    pub fn spawn_ult_spanned<T, F>(&self, span: u64, f: F) -> UltHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let proc = current_processor().expect(
            "CthCreate outside a processor: only messages may enter another \
             processor's queue",
        );
        let result = ResultCell::new();
        let slot = result.clone();
        let ult = UltCore::with_span(self.inner.stack_size, span, move || {
            let value = f();
            // SAFETY: sole writer, before TERMINATED.
            unsafe { slot.put(value) };
        });
        self.inner.outstanding.fetch_add(1, Ordering::AcqRel);
        emit(EventKind::UltSpawn, proc as u64);
        self.inner.procs[proc].queue.push(ConvUnit::Ult(ult.clone()));
        self.inner.park.notify_worker(proc);
        UltHandle { ult, result }
    }

    /// Return-mode join: wait until every queued work unit (including
    /// transitively created ones) has executed, synchronizing with all
    /// processors at a barrier.
    ///
    /// The barrier episode costs O(processors) — the linear join the
    /// paper measures for Converse Threads in Fig. 3.
    pub fn barrier(&self) {
        self.inner.barrier_requested.fetch_add(1, Ordering::SeqCst);
        // Every processor owes the episode a visit — parked ones
        // included. Wake them all; backstop timeouts are defense in
        // depth, not how barriers are supposed to make progress.
        self.inner.park.unpark_all();
        let mut relax = lwt_sync::AdaptiveRelax::new();
        if self.inner.barrier.wait(move || relax.relax()) {
            self.inner.barrier_completed.fetch_add(1, Ordering::AcqRel);
        }
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
        while self.inner.outstanding.load(Ordering::Acquire) != 0 {
            if std::time::Instant::now() >= until {
                return false;
            }
            relax.relax();
        }
        true
    }

    /// Stop all processors and join their threads (`ConverseExit`).
    /// Idempotent. Waits unboundedly; see [`Runtime::shutdown_within`]
    /// for a drain with a deadline.
    pub fn shutdown(&self) {
        if self.inner.shut.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.stop.store(true, Ordering::Release);
        // A fully parked pool must notice the flag now, not after a
        // backstop timeout.
        self.inner.park.unpark_all();
        let mut threads = self.inner.threads.lock();
        for t in threads.iter_mut() {
            if let Some(t) = t.take() {
                t.join().expect("converse processor panicked");
            }
        }
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
        if self.inner.shut.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        self.inner.stop.store(true, Ordering::Release);
        // Wake every sleeper *before* the drain deadline starts: a
        // fully parked pool drains instantly instead of eating the
        // deadline in 20–200 ms backstop increments.
        self.inner.park.unpark_all();
        let handles: Vec<_> = {
            let mut threads = self.inner.threads.lock();
            threads.iter_mut().filter_map(Option::take).collect()
        };
        let timed_out = !join_within(&handles, deadline);
        if timed_out {
            self.inner.abandon.store(true, Ordering::Release);
            self.inner.park.unpark_all();
            // Grace for workers idling between units to notice the flag.
            join_within(&handles, ABANDON_GRACE);
        }
        for t in handles {
            if t.is_finished() {
                t.join().expect("converse processor panicked");
            } else {
                // Wedged inside a unit: detach rather than hang (never
                // kill); the thread's Arcs keep its shared state alive.
                drop(t);
            }
        }
        if timed_out {
            let stragglers = self
                .inner
                .procs
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.queue.is_empty())
                .map(|(worker, p)| Straggler {
                    worker,
                    pending: p.queue.len(),
                    what: "processor queue",
                })
                .chain(suspended_stragglers(&self.inner.suspended))
                .collect();
            Err(DrainError {
                waited: deadline,
                stragglers,
            })
        } else {
            Ok(())
        }
    }
}

impl RtInner {
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
            self.park.unpark_all();
        }
    }
}

impl Drop for RtInner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.park.unpark_all();
        for t in self.threads.lock().iter_mut() {
            if let Some(t) = t.take() {
                let _ = t.join();
            }
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("converse::Runtime")
            .field("processors", &self.num_processors())
            .field("outstanding", &self.inner.outstanding.load(Ordering::Relaxed))
            .finish()
    }
}

impl Requeue for RtInner {
    fn requeue(&self, worker: usize, u: Arc<UltCore>) {
        // Yielded ULTs return to their current processor's queue —
        // ULTs never migrate through another queue (messages only).
        self.procs[worker].queue.push(ConvUnit::Ult(u));
    }

    fn wake(&self, worker: usize, u: Arc<UltCore>) {
        // So do awakened ones (`CthAwaken`) — but the wake may come
        // from the reactor or a timer while the processor sleeps.
        self.requeue(worker, u);
        self.park.notify_worker(worker);
    }

    fn suspended(&self, worker: usize) -> Option<&AtomicUsize> {
        Some(&self.suspended[worker])
    }
}

fn proc_main(inner: &Arc<RtInner>, p: usize) {
    let proc = inner.procs[p].clone();
    let _guard = enter_worker(p, inner.clone());
    let heartbeat = lwt_chaos::register_worker("converse", p);
    let mut backoff = lwt_sync::Backoff::new();
    // Barrier episodes this processor has been through. Its own count,
    // not `barrier_completed`: the leader bumps that *after* releasing
    // the others, and a processor re-checking in between would enter an
    // episode nobody requested and sit in it, deaf to its queue.
    let mut served = 0;
    loop {
        heartbeat.beat();
        if inner.abandon.load(Ordering::Acquire) {
            break;
        }
        let unit = proc.queue.pop();
        if unit.is_some() && lwt_chaos::should_inject(lwt_chaos::FaultSite::YieldPoint) {
            std::thread::yield_now();
        }
        match unit {
            Some(ConvUnit::Message(f)) => {
                backoff.reset();
                // Messages execute atomically on the processor's stack.
                COUNTERS.messages_executed.inc();
                lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Busy);
                emit(EventKind::TaskletExec, 0);
                f();
                lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Dispatch);
                inner.retire();
            }
            Some(ConvUnit::Ult(u)) => {
                backoff.reset();
                let claimed = run_ult(&u);
                if claimed && u.is_terminated() {
                    inner.retire();
                }
            }
            Some(ConvUnit::Task(t)) => {
                backoff.reset();
                // One queued poll, one execution: run() emits its own
                // timeline/metrics; a wake that requeues the task goes
                // back through post_task and re-increments outstanding.
                t.run();
                inner.retire();
            }
            None => {
                // Quiescent? Serve a pending barrier episode.
                if inner.barrier_requested.load(Ordering::Acquire) > served
                    && inner.outstanding.load(Ordering::Acquire) == 0
                {
                    let mut relax = lwt_sync::AdaptiveRelax::new();
                    if inner.barrier.wait(move || relax.relax()) {
                        inner.barrier_completed.fetch_add(1, Ordering::AcqRel);
                    }
                    served += 1;
                    continue;
                }
                if inner.stop.load(Ordering::Acquire)
                    && may_exit(&inner.suspended[p], || proc.queue.is_empty())
                {
                    break;
                }
                // No steal phase here: Converse ULTs never migrate, so
                // an empty queue goes straight to Idle.
                lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Idle);
                // Reactor idle hook: collect I/O readiness (wakes
                // repost through this runtime) before backing off.
                if lwt_sched::io_poll() > 0 {
                    backoff.reset();
                    continue;
                }
                backoff.spin();
                if backoff.is_saturated() {
                    // The queue is dry and no barrier episode is due:
                    // sleep instead of burning the core. Only our own
                    // queue feeds us, so the re-check counts just its
                    // length; barrier requests and shutdown arrive as
                    // wake tokens (their senders call `unpark_all`).
                    let _ = inner
                        .park
                        .park(p, Some(&heartbeat), || proc.queue.len());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn cth_suspend_awaken_round_trip() {
        let rt = Runtime::init(Config {
            num_processors: 2,
            ..Config::default()
        });
        let progress = Arc::new(AtomicUsize::new(0));
        let handle_cell: Arc<SpinLock<Option<UltHandle<()>>>> =
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
        while !h.awaken() {
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
