//! # lwt-massive — a MassiveThreads-model lightweight-thread runtime
//!
//! From-scratch Rust implementation of the programming model the paper
//! describes for MassiveThreads (Nakashima & Taura): "a
//! recursion-oriented LWT solution that follows the work-first
//! scheduling policy".
//!
//! * **Workers** are hardware resources (one OS thread each); their
//!   count is fixed at init (`MYTH_NUM_WORKERS`).
//! * Each worker owns a ready queue ([`lwt_sched::ReadyQueue`]: a
//!   lock-free Chase-Lev deque plus an MPSC inbox for cross-worker
//!   submissions); **load balance is pursued with random work
//!   stealing** — an idle worker steals another worker's oldest ULT
//!   from the deque's far end. (Real MassiveThreads guards its deque
//!   with a mutex; the spawn/join fast-path redesign trades that for
//!   the lock-free structure while keeping the same owner-LIFO /
//!   thief-FIFO discipline.)
//! * **Creation policies** ([`Policy`]): *work-first* (`myth_create`
//!   default — "when a new ULT is created, it is immediately executed,
//!   and the current ULT is moved into a ready queue") and *help-first*
//!   (the child is queued, the parent continues). The paper benchmarks
//!   both as "MassiveThreads (W)" and "MassiveThreads (H)".
//!
//! Unlike the other runtimes in this workspace, the *main program runs
//! as a ULT* ([`Runtime::run`]) — exactly as `myth_init` turns `main`
//! into a user-level thread. This is what produces the paper's
//! signature Fig. 2 curves: under help-first the main ULT creates all
//! work units into **its own worker's queue** at constant cost and lets
//! stealing distribute them; under work-first the main flow itself
//! migrates from worker to worker as each spawn displaces it.
//!
//! ## Example
//!
//! ```
//! use lwt_massive::{Config, Policy, Runtime};
//!
//! let rt = Runtime::init(Config { num_workers: 2, ..Config::default() });
//! let out = rt.run(|rt| {
//!     let h = rt.spawn(|| 40 + 2);
//!     h.join()
//! });
//! assert_eq!(out, 42);
//! rt.shutdown();
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use lwt_fiber::StackSize;
use lwt_metrics::registry::{emit, COUNTERS, STEAL_DWELL};
use lwt_metrics::{clock, EventKind};
use lwt_sched::{near_first, ParkGroup, ParkResult, RandomVictim, ReadyQueue};
use lwt_sync::SpinLock;
use lwt_ultcore::{
    enter_worker, join_within, may_exit, run_unit, suspended_stragglers, yield_to,
    DrainError, PollTask, ReadyUnit, Requeue, ResultCell, Straggler, TaskResched, UltCore,
    ABANDON_GRACE,
};

pub use lwt_ultcore::{current_worker, in_ult, yield_now, JoinError};

/// ULT creation policy (`MYTH_CHILD_FIRST` / help-first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Child runs immediately; the parent is pushed to the ready deque
    /// (stealable). MassiveThreads' default; the paper's "(W)" series.
    #[default]
    WorkFirst,
    /// Child is queued; the parent keeps running. The paper's "(H)"
    /// series, which wins its Figs. 2/4.
    HelpFirst,
}

/// Runtime configuration (`myth_init` environment).
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of workers (`MYTH_NUM_WORKERS`).
    pub num_workers: usize,
    /// Default creation policy (overridable per spawn).
    pub policy: Policy,
    /// ULT stack size (`MYTH_DEF_STKSIZE`).
    pub stack_size: StackSize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            num_workers: std::thread::available_parallelism().map_or(4, usize::from),
            policy: Policy::default(),
            stack_size: StackSize::DEFAULT,
        }
    }
}

struct RtInner {
    /// ULTs and stackless future tasks share the queues
    /// ([`ReadyUnit`]).
    queues: Vec<ReadyQueue<ReadyUnit>>,
    /// ULTs suspended on each worker ([`Requeue::suspended`]).
    suspended: Vec<AtomicUsize>,
    /// Idle-worker parking (wake-one); every push site notifies.
    park: ParkGroup,
    threads: SpinLock<Vec<Option<std::thread::JoinHandle<()>>>>,
    stop: AtomicBool,
    /// Bounded-drain escape hatch: workers exit even with (wedged)
    /// units still queued once a `shutdown_within` deadline expires.
    abandon: AtomicBool,
    policy: Policy,
    stack_size: StackSize,
    shut: AtomicBool,
}

/// The MassiveThreads-model runtime. Cheap to clone.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
}

/// Join handle for a spawned ULT (`myth_thread_t` + `myth_join`).
pub struct Handle<T> {
    ult: Arc<UltCore>,
    result: Arc<ResultCell<T>>,
}

impl<T> Handle<T> {
    /// Wait for completion (`myth_join`) and take the result, surfacing
    /// an escaped panic as a [`JoinError`] instead of re-raising it.
    /// Inside a ULT the joiner is suspended, letting the worker keep
    /// executing (and stealing) other work until the joined unit's
    /// completion requeues it.
    ///
    /// # Errors
    ///
    /// [`JoinError`] carrying the panic payload.
    pub fn try_join(self) -> Result<T, JoinError> {
        self.ult.join_wait();
        // Causal join edge: this context observed the unit's completion.
        lwt_metrics::span::on_join(self.ult.span_id());
        if let Some(p) = self.ult.take_panic() {
            return Err(JoinError::new(p));
        }
        // SAFETY: TERMINATED observed; sole joiner.
        Ok(unsafe { self.result.take() }.expect("massivethreads result missing"))
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
}

impl<T> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("massive::Handle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl Runtime {
    /// Initialize workers (`myth_init`).
    ///
    /// # Panics
    ///
    /// Panics if `config.num_workers` is zero.
    #[must_use]
    pub fn init(config: Config) -> Self {
        assert!(config.num_workers > 0, "need at least one worker");
        let inner = Arc::new(RtInner {
            queues: (0..config.num_workers).map(|_| ReadyQueue::new()).collect(),
            suspended: (0..config.num_workers).map(|_| AtomicUsize::new(0)).collect(),
            park: ParkGroup::new(config.num_workers),
            threads: SpinLock::new(Vec::new()),
            stop: AtomicBool::new(false),
            abandon: AtomicBool::new(false),
            policy: config.policy,
            stack_size: config.stack_size,
            shut: AtomicBool::new(false),
        });
        let rt = Runtime { inner };
        let mut threads = rt.inner.threads.lock();
        for w in 0..config.num_workers {
            let inner = rt.inner.clone();
            COUNTERS.os_threads_spawned.inc();
            threads.push(Some(
                std::thread::Builder::new()
                    .name(format!("myth-w{w}"))
                    .spawn(move || worker_main(&inner, w))
                    .expect("spawn massivethreads worker"),
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

    /// Number of workers.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.inner.queues.len()
    }

    /// The configured default creation policy.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.inner.policy
    }

    /// Run `f` as the primary ULT (what `myth_init` does to `main`) and
    /// wait for its result from the calling (external) thread.
    ///
    /// Spawns inside `f` follow the configured policy; under work-first
    /// the "main flow" migrates between workers exactly as the paper
    /// describes for MassiveThreads (W).
    pub fn run<T, F>(&self, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(&Runtime) -> T + Send + 'static,
    {
        let rt = self.clone();
        let result = ResultCell::new();
        let slot = result.clone();
        let ult = UltCore::new(self.inner.stack_size, move || {
            let value = f(&rt);
            // SAFETY: sole writer, before TERMINATED.
            unsafe { slot.put(value) };
        });
        emit(EventKind::UltSpawn, 0);
        self.inner.queues[0].inject(ult.clone().into());
        self.inner.park.notify_near(0);
        ult.join_wait();
        lwt_metrics::span::on_join(ult.span_id());
        if let Some(p) = ult.take_panic() {
            std::panic::resume_unwind(p);
        }
        // SAFETY: TERMINATED observed; sole joiner.
        unsafe { result.take() }.expect("primary ULT result missing")
    }

    /// Create a ULT under the configured policy (`myth_create`).
    pub fn spawn<T, F>(&self, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_with(self.inner.policy, f)
    }

    /// Create a ULT under an explicit policy
    /// (`myth_create_ex` with custom options).
    pub fn spawn_with<T, F>(&self, policy: Policy, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let result = ResultCell::new();
        let slot = result.clone();
        let ult = UltCore::new(self.inner.stack_size, move || {
            let value = f();
            // SAFETY: sole writer, before TERMINATED.
            unsafe { slot.put(value) };
        });
        // `arg` records the spawn path the paper benchmarks separately:
        // 1 = work-first ("(W)"), 0 = help-first ("(H)").
        emit(
            EventKind::UltSpawn,
            u64::from(policy == Policy::WorkFirst),
        );
        match (policy, current_worker()) {
            (Policy::WorkFirst, Some(_)) if in_ult() => {
                // Work-first from inside a ULT: run the child now; the
                // post-switch protocol requeues the parent into the
                // current worker's queue, where it can be stolen.
                if !yield_to(&ult) {
                    // Claim raced (cannot normally happen for a fresh
                    // ULT); degrade to help-first.
                    self.inner.queues[0].inject(ult.clone().into());
                    self.inner.park.notify_near(0);
                }
            }
            (_, Some(w)) => {
                // Help-first from a worker: straight onto this worker's
                // own deque (the zero-allocation owner fast path). Wake
                // a thief so a parked pool still spreads the load.
                self.inner.queues[w].push(ult.clone().into());
                self.inner.park.notify_near(w);
            }
            (_, None) => {
                // External thread: into worker 0's inbox, to be batched
                // onto its deque and stolen from there (the paper's
                // MassiveThreads (H) shape).
                self.inner.queues[0].inject(ult.clone().into());
                self.inner.park.notify_near(0);
            }
        }
        Handle { ult, result }
    }

    /// Enqueue a stackless future task: onto the calling worker's own
    /// deque from inside the runtime (help-first shape — a polled task
    /// cannot displace its poller), else into worker 0's inbox like an
    /// external spawn, from where stealing spreads it.
    pub fn post_task(&self, task: Arc<dyn PollTask>) {
        match current_worker() {
            Some(w) if w < self.inner.queues.len() => {
                self.inner.queues[w].push(ReadyUnit::Task(task));
                self.inner.park.notify_near(w);
            }
            _ => {
                self.inner.queues[0].inject(ReadyUnit::Task(task));
                self.inner.park.notify_near(0);
            }
        }
    }

    /// Enqueue a stackless future task on worker `worker`'s queue —
    /// internal placement the ULT API deliberately does not expose
    /// (the work-first scheduler owns ULT placement; tasks have no
    /// displacement semantics, so pinning them is harmless).
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn post_task_to(&self, worker: usize, task: Arc<dyn PollTask>) {
        self.inner.queues[worker].push(ReadyUnit::Task(task));
        self.inner.park.notify_near(worker);
    }

    /// A cloneable hook that [`Runtime::post_task`]s into this runtime;
    /// holds the shared state alive for late wakes.
    #[must_use]
    pub fn task_poster(&self) -> TaskResched {
        let rt = Runtime {
            inner: self.inner.clone(),
        };
        Arc::new(move |t: Arc<dyn PollTask>| rt.post_task(t))
    }

    /// [`Runtime::task_poster`] pinned to one worker's queue.
    ///
    /// # Panics
    ///
    /// The returned hook panics if `worker` is out of range.
    #[must_use]
    pub fn task_poster_to(&self, worker: usize) -> TaskResched {
        let rt = Runtime {
            inner: self.inner.clone(),
        };
        Arc::new(move |t: Arc<dyn PollTask>| rt.post_task_to(worker, t))
    }

    /// Stop all workers and join their OS threads (`myth_fini`).
    /// Idempotent. Unbounded: a ULT suspended on a join that can
    /// never be satisfied keeps its worker from exiting forever — use
    /// [`Runtime::shutdown_within`] to degrade gracefully instead.
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
                t.join().expect("massivethreads worker panicked");
            }
        }
    }

    /// [`Runtime::shutdown`] with a drain deadline: wait up to
    /// `deadline` for the workers to drain their deques, then order
    /// them to abandon the rest and report stragglers. Workers are
    /// joined either way — on `Err` nothing is still running, but the
    /// listed units never completed. Idempotent (later calls return
    /// `Ok`).
    ///
    /// # Errors
    ///
    /// [`DrainError`] when the deadline expired with units still
    /// queued or running.
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
                t.join().expect("massivethreads worker panicked");
            } else {
                // Wedged inside a unit: detach rather than hang (never
                // kill); the thread's Arcs keep its shared state alive.
                drop(t);
            }
        }
        if timed_out {
            let stragglers = self
                .inner
                .queues
                .iter()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .map(|(worker, q)| Straggler {
                    worker,
                    pending: q.len(),
                    what: "worker deque",
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
        f.debug_struct("massive::Runtime")
            .field("workers", &self.num_workers())
            .field("policy", &self.inner.policy)
            .finish()
    }
}

impl Requeue for RtInner {
    fn requeue(&self, worker: usize, u: Arc<UltCore>) {
        // Yielded/displaced ULTs go to the *back* of the current
        // worker's queue (the inbox): the owner pops its deque LIFO, so
        // queued children run before the unit that yielded (progress),
        // and the displaced main flow becomes stealable once the owner
        // batches the inbox onto the deque — the paper's "another
        // thread steals the main task".
        self.queues[worker].inject(u.into());
        self.park.notify_near(worker);
    }

    fn wake(&self, worker: usize, u: Arc<UltCore>) {
        // Fired from another thread (reactor, timer): the shared lane,
        // which thieves can reach even while this worker is tied up.
        self.queues[worker].push_shared(u.into());
        self.park.notify_near(worker);
    }

    fn suspended(&self, worker: usize) -> Option<&AtomicUsize> {
        Some(&self.suspended[worker])
    }
}

fn worker_main(inner: &Arc<RtInner>, w: usize) {
    let _guard = enter_worker(w, inner.clone());
    inner.queues[w].bind();
    let victims = RandomVictim::new(inner.queues.len(), 0x9E3779B9 ^ (w as u64) << 17 | 1);
    let mut backoff = lwt_sync::Backoff::new();
    // Timestamp of the moment this worker ran dry; 0 while it has
    // work. Feeds the steal-loop dwell histogram on the next acquire.
    let mut idle_since_ns: u64 = 0;
    let heartbeat = lwt_chaos::register_worker("massivethreads", w);
    loop {
        heartbeat.beat();
        if inner.abandon.load(Ordering::Acquire) {
            break;
        }
        // Own queue first (depth-first), then random stealing.
        let unit = inner.queues[w].pop().or_else(|| {
            lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Steal);
            let v = victims.pick(w);
            if v == w {
                None
            } else {
                COUNTERS.steal_attempts.inc();
                emit(EventKind::StealAttempt, v as u64);
                let stolen = inner.queues[v].steal();
                if stolen.is_some() {
                    COUNTERS.steal_hits.inc();
                    emit(EventKind::StealHit, v as u64);
                }
                stolen
            }
        });
        match unit {
            Some(u) => {
                if idle_since_ns != 0 {
                    STEAL_DWELL.record(clock::now_ns().saturating_sub(idle_since_ns));
                    idle_since_ns = 0;
                }
                if lwt_chaos::should_inject(lwt_chaos::FaultSite::YieldPoint) {
                    std::thread::yield_now();
                }
                backoff.reset();
                run_unit(&u);
            }
            None => {
                if idle_since_ns == 0 {
                    idle_since_ns = clock::now_ns();
                }
                if inner.stop.load(Ordering::Acquire)
                    && may_exit(&inner.suspended[w], || inner.queues[w].is_empty())
                {
                    break;
                }
                lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Idle);
                // Reactor idle hook: collect I/O readiness (wakes
                // repost through this runtime) before backing off.
                if lwt_sched::io_poll() > 0 {
                    backoff.reset();
                    continue;
                }
                backoff.spin();
                if backoff.is_saturated() {
                    // Random probing came up dry long enough: sleep
                    // instead of burning the core. The re-check counts
                    // every reachable unit (own queue in full, victims'
                    // deques only), so a loaded victim the random picks
                    // kept missing aborts the park — and the reset
                    // below sends us back to probing for it.
                    let res = inner.park.park(w, Some(&heartbeat), || {
                        inner.queues[w].len()
                            + near_first(w, inner.queues.len())
                                .map(|v| inner.queues[v].stealable_len())
                                .sum::<usize>()
                    });
                    if matches!(res, ParkResult::FoundWork | ParkResult::Woken) {
                        backoff.reset();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn rt(workers: usize, policy: Policy) -> Runtime {
        Runtime::init(Config {
            num_workers: workers,
            policy,
            stack_size: StackSize(32 * 1024),
        })
    }

    #[test]
    fn run_executes_main_as_ult() {
        let rt = rt(2, Policy::HelpFirst);
        let was_ult = rt.run(|_| in_ult());
        assert!(was_ult);
        rt.shutdown();
    }

    #[test]
    fn spawn_help_first_parent_continues() {
        let rt = rt(1, Policy::HelpFirst);
        let order = Arc::new(SpinLock::new(Vec::new()));
        let o = order.clone();
        rt.run(move |rt| {
            let o2 = o.clone();
            let h = rt.spawn(move || o2.lock().push("child"));
            o.lock().push("parent-after-spawn");
            h.join();
        });
        // Help-first on one worker: parent records first.
        assert_eq!(order.lock().clone(), vec!["parent-after-spawn", "child"]);
        rt.shutdown();
    }

    #[test]
    fn spawn_work_first_child_runs_immediately() {
        let rt = rt(1, Policy::WorkFirst);
        let order = Arc::new(SpinLock::new(Vec::new()));
        let o = order.clone();
        rt.run(move |rt| {
            let o2 = o.clone();
            let h = rt.spawn(move || o2.lock().push("child"));
            o.lock().push("parent-after-spawn");
            h.join();
        });
        // Work-first: the child preempts the parent.
        assert_eq!(order.lock().clone(), vec!["child", "parent-after-spawn"]);
        rt.shutdown();
    }

    #[test]
    fn recursive_fib_work_first() {
        let rt = rt(2, Policy::WorkFirst);
        fn fib(rt: &Runtime, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let rt2 = rt.clone();
            let h = rt.spawn(move || fib(&rt2, n - 1));
            let b = fib(rt, n - 2);
            h.join() + b
        }
        let out = rt.run(|rt| fib(rt, 12));
        assert_eq!(out, 144);
        rt.shutdown();
    }

    #[test]
    fn recursive_fib_help_first() {
        let rt = rt(2, Policy::HelpFirst);
        fn fib(rt: &Runtime, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let rt2 = rt.clone();
            let h = rt.spawn(move || fib(&rt2, n - 1));
            let b = fib(rt, n - 2);
            h.join() + b
        }
        let out = rt.run(|rt| fib(rt, 12));
        assert_eq!(out, 144);
        rt.shutdown();
    }

    #[test]
    fn external_spawn_lands_on_worker_zero_queue() {
        let rt = rt(2, Policy::HelpFirst);
        let handles: Vec<_> = (0..50).map(|i| rt.spawn(move || i)).collect();
        let sum: usize = handles.into_iter().map(Handle::join).sum();
        assert_eq!(sum, 50 * 49 / 2);
        rt.shutdown();
    }

    #[test]
    fn work_is_stolen_across_workers() {
        let rt = rt(4, Policy::HelpFirst);
        let seen = Arc::new(SpinLock::new(std::collections::HashSet::new()));
        let handles: Vec<_> = (0..200)
            .map(|_| {
                let seen = seen.clone();
                rt.spawn(move || {
                    seen.lock().insert(current_worker().unwrap());
                    // Give thieves a window.
                    std::thread::yield_now();
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        // All spawned to worker 0; stealing must have spread them.
        let seen = seen.lock().clone();
        assert!(seen.len() > 1, "no work stealing happened: {seen:?}");
        rt.shutdown();
    }

    #[test]
    fn yields_work_inside_ults() {
        let rt = rt(1, Policy::HelpFirst);
        let v = rt.run(|rt| {
            let h = rt.spawn(|| {
                for _ in 0..3 {
                    yield_now();
                }
                5
            });
            h.join()
        });
        assert_eq!(v, 5);
        rt.shutdown();
    }

    #[test]
    fn per_spawn_policy_override() {
        let rt = rt(1, Policy::WorkFirst);
        let order = Arc::new(SpinLock::new(Vec::new()));
        let o = order.clone();
        rt.run(move |rt| {
            let o2 = o.clone();
            let h = rt.spawn_with(Policy::HelpFirst, move || o2.lock().push("child"));
            o.lock().push("parent");
            h.join();
        });
        assert_eq!(order.lock().clone(), vec!["parent", "child"]);
        rt.shutdown();
    }

    #[test]
    fn counts_are_exact_under_load() {
        let rt = rt(3, Policy::WorkFirst);
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = counter.clone();
        rt.run(move |rt| {
            let handles: Vec<_> = (0..300)
                .map(|_| {
                    let c = c2.clone();
                    rt.spawn(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 300);
        rt.shutdown();
    }

    #[test]
    fn panic_propagates_through_run_and_join() {
        let rt = rt(1, Policy::HelpFirst);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|_| panic!("myth boom"))
        }))
        .expect_err("run must re-raise");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"myth boom"));
        rt.shutdown();
    }

    #[test]
    fn shutdown_idempotent_and_drop_safe() {
        let rt = rt(2, Policy::WorkFirst);
        rt.run(|_| ());
        rt.shutdown();
        rt.shutdown();
        drop(rt);
    }
}
