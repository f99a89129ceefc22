//! # lwt-massive — a MassiveThreads-model lightweight-thread runtime
//!
//! From-scratch Rust implementation of the programming model the paper
//! describes for MassiveThreads (Nakashima & Taura): "a
//! recursion-oriented LWT solution that follows the work-first
//! scheduling policy".
//!
//! * **Workers** are hardware resources (one OS thread each); their
//!   count is fixed at init (`MYTH_NUM_WORKERS`).
//! * Each worker owns a ready queue and **load balance is pursued with
//!   random work stealing** — an idle worker steals another worker's
//!   oldest ULT from the deque's far end. (Real MassiveThreads guards
//!   its deque with a mutex; the shared [`lwt_ultcore::Pool`] keeps the
//!   same owner-LIFO / thief-FIFO discipline lock-free.)
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
//! The workers run the shared worker engine (`lwt_ultcore::engine`:
//! loop, lifecycle, queues); this crate is the spawn API, the join
//! handle and a policy — one random victim per sweep.
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

use std::sync::Arc;

use lwt_fiber::StackSize;
use lwt_metrics::registry::emit;
use lwt_metrics::EventKind;
use lwt_sched::{near_first, RandomVictim};
use lwt_ultcore::{
    run_unit, yield_to, Crew, DrainError, Policy as WorkerPolicy, PollTask, Pool, ReadyUnit,
    TaskHost,
};

pub use lwt_ultcore::{current_worker, in_ult, yield_now, Handle, JoinError};

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
    /// One ready queue per worker; external spawns enter at worker 0
    /// and stealing spreads them.
    pool: Arc<Pool>,
    policy: Policy,
    stack_size: StackSize,
    /// The workers; dropping the last handle stops and joins them.
    crew: Crew,
}

/// One worker's scheduling policy: depth-first on its own queue, then
/// one random victim per sweep.
struct Sched<'a> {
    pool: &'a Pool,
    id: usize,
    victims: RandomVictim,
}

impl WorkerPolicy for Sched<'_> {
    type Unit = ReadyUnit;
    const STEALS: bool = true;

    fn next(&mut self) -> Option<ReadyUnit> {
        // A self-pick (one worker, or a chaos misdirect) is a sweep
        // without an attempt.
        let victim = std::iter::once_with(|| self.victims.pick(self.id)).filter(|&v| v != self.id);
        self.pool.next(self.id, victim)
    }

    fn run(&mut self, unit: ReadyUnit) {
        run_unit(&unit);
    }

    /// Every other worker, not just the next pick: a loaded victim the
    /// random picks keep missing aborts the park, and the worker goes
    /// back to probing for it.
    fn reachable(&self) -> usize {
        self.pool
            .reachable(self.id, near_first(self.id, self.pool.workers()))
    }

    fn drained(&self) -> bool {
        self.pool.drained(self.id)
    }
}

/// The MassiveThreads-model runtime. Cheap to clone.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
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
        let crew = Crew::new(config.num_workers);
        let pool = Pool::new(config.num_workers, false, crew.control().clone());
        for id in 0..config.num_workers {
            let pool = pool.clone();
            crew.spawn(format!("myth-w{id}"), move || {
                let victims =
                    RandomVictim::new(pool.workers(), 0x9E3779B9 ^ (id as u64) << 17 | 1);
                let sched = Sched {
                    pool: &pool,
                    id,
                    victims,
                };
                pool.run_worker(id, "massivethreads", sched);
            });
        }
        Runtime {
            inner: Arc::new(RtInner {
                pool,
                policy: config.policy,
                stack_size: config.stack_size,
                crew,
            }),
        }
    }

    /// [`Runtime::init`] with defaults.
    #[must_use]
    pub fn init_default() -> Self {
        Self::init(Config::default())
    }

    /// Number of workers.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.inner.pool.workers()
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
        let main = Handle::spawn(self.inner.stack_size, move || f(&rt));
        emit(EventKind::UltSpawn, 0);
        self.inner.pool.inject(0, main.unit().into());
        main.join()
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
        let child = Handle::spawn(self.inner.stack_size, f);
        let ult = child.unit();
        // `arg` records the spawn path the paper benchmarks separately:
        // 1 = work-first ("(W)"), 0 = help-first ("(H)").
        emit(
            EventKind::UltSpawn,
            u64::from(policy == Policy::WorkFirst),
        );
        if policy == Policy::WorkFirst && in_ult() {
            // Work-first from inside a ULT: run the child now; the
            // post-switch protocol requeues the parent into the
            // current worker's queue, where it can be stolen.
            if !yield_to(&ult) {
                // Claim raced (cannot normally happen for a fresh
                // ULT); degrade to help-first.
                self.inner.pool.inject(0, ult.into());
            }
        } else {
            // Help-first from a worker: straight onto this worker's
            // own deque (the zero-allocation owner fast path), waking
            // a thief so a parked pool still spreads the load. From an
            // external thread: into worker 0's inbox, to be batched
            // onto its deque and stolen from there (the paper's
            // MassiveThreads (H) shape).
            self.inner.pool.submit(ult.into(), || 0);
        }
        child
    }

    /// Stop all workers and join their OS threads (`myth_fini`).
    /// Idempotent; also what dropping the last clone does. Unbounded:
    /// a ULT suspended on a join that can never be satisfied keeps its
    /// worker from exiting forever — use [`Runtime::shutdown_within`]
    /// to degrade gracefully instead.
    pub fn shutdown(&self) {
        self.inner.crew.shutdown();
    }

    /// [`Runtime::shutdown`] with a drain deadline: wait up to
    /// `deadline` for the workers to drain their deques, then order
    /// them to abandon the rest and report stragglers. On `Err` the
    /// listed units never completed. Idempotent (later calls return
    /// `Ok`).
    ///
    /// # Errors
    ///
    /// [`DrainError`] when the deadline expired with units still
    /// queued or running.
    pub fn shutdown_within(&self, deadline: std::time::Duration) -> Result<(), DrainError> {
        self.inner
            .crew
            .shutdown_within(deadline, || self.inner.pool.stragglers("worker deque"))
    }
}

impl TaskHost for Runtime {
    /// Help-first shape (a polled task cannot displace its poller):
    /// the calling worker's own deque, else worker 0's inbox like an
    /// external spawn. Pinning is internal placement the ULT API
    /// deliberately does not expose — the work-first scheduler owns
    /// ULT placement, but tasks have no displacement semantics.
    fn post_task(&self, pin: Option<usize>, task: Arc<dyn PollTask>) {
        self.inner.pool.post_task(pin, task, || 0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use lwt_sync::SpinLock;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

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
        let first = Arc::new(AtomicBool::new(true));
        let s = seen.clone();
        // Spawned from the main ULT, so every unit lands on worker 0's
        // own deque and is stealable at once (an external spawn waits
        // in its single-consumer inbox until worker 0 batches it over).
        rt.run(move |rt| {
            let handles: Vec<_> = (0..200)
                .map(|_| {
                    let (seen, first) = (s.clone(), first.clone());
                    rt.spawn(move || {
                        seen.lock().insert(current_worker().unwrap());
                        if first.swap(false, Ordering::AcqRel) {
                            // Hold this worker — an OS-level wait, not
                            // a yield — until another one has run a
                            // unit, so stealing is the only way the rest
                            // can finish (worker 0 alone would otherwise
                            // sometimes run all 200 before a thief wakes).
                            let until = Instant::now() + Duration::from_secs(10);
                            while seen.lock().len() < 2 && Instant::now() < until {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
        });
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
