//! # lwt-qthreads — a Qthreads-model lightweight-thread runtime
//!
//! From-scratch Rust implementation of the programming model the paper
//! describes for Qthreads (Wheeler, Murphy & Thain): a **three-level
//! hierarchy** — unique in the paper's Table I — of
//!
//! * **Shepherds**: locality domains, each owning one work-unit queue.
//!   Bind one per node, per socket, or per CPU; the paper's evaluation
//!   settles on *one shepherd per CPU* for most benchmarks.
//! * **Workers**: OS threads executing work units, one or more per
//!   shepherd ([`Config::workers_per_shepherd`]).
//! * **Work units**: stackful, yieldable ULTs ([`Runtime::fork`]).
//!
//! Synchronization is word-granularity **full/empty bits**: a fork
//! returns a handle whose join performs `readFF` on the ULT's return
//! word ([`Handle::join`]), and any address can carry a FEB through the
//! runtime's [`FebTable`] ([`Runtime::feb`]) — including the "hidden
//! synchronization" cost the paper warns about. Work can be pushed to
//! the caller's shepherd (`qthread_fork` ≙ [`Runtime::fork`]), to a
//! specific shepherd (`qthread_fork_to` ≙ [`Runtime::fork_to`]), or
//! round-robin over shepherds ([`Runtime::fork_rr`], the paper's
//! microbenchmark dispatch). Loop and reduction helpers
//! ([`Runtime::loop_par`], [`Runtime::loop_accum`]) mirror
//! `qt_loop`/`qt_loopaccum`.
//!
//! The workers run the shared worker engine (`lwt_ultcore::engine`:
//! loop, lifecycle, queues); this crate is the fork API, the FEB join
//! handle and a policy — steal from the siblings of the same shepherd
//! only. Qthreads' distributed structures (`qt_sinc`, `qt_dictionary`,
//! `qt_queue`) and `qutil` are not modelled: they are no Table I
//! difference, and `lwt_sync` plus the loop helpers above do those
//! jobs.
//!
//! ## Example
//!
//! ```
//! use lwt_qthreads::{Config, Runtime};
//!
//! let rt = Runtime::init(Config { num_shepherds: 2, ..Config::default() });
//! let h = rt.fork(|| 21 * 2);
//! assert_eq!(h.join(), 42);
//! let sum = rt.loop_accum(0..100usize, 0usize, |i| i, |a, b| a + b);
//! assert_eq!(sum, 4950);
//! rt.shutdown();
//! ```

#![warn(missing_docs)]

use std::ops::Range;
use std::sync::Arc;

use lwt_fiber::StackSize;
use lwt_metrics::registry::{emit, COUNTERS};
use lwt_metrics::EventKind;
use lwt_sched::RoundRobin;
use lwt_sync::{FebCell, FebTable};
use lwt_ultcore::{
    block_on, run_unit, Crew, DrainError, Policy, PollTask, Pool, ReadyUnit, ResultCell, TaskHost,
    UltCore,
};

pub use lwt_ultcore::{current_worker, in_ult, yield_now, JoinError};

/// Runtime configuration (`qthread_initialize` environment).
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of shepherds (`QTHREAD_NUM_SHEPHERDS`).
    pub num_shepherds: usize,
    /// Workers per shepherd (`QTHREAD_NUM_WORKERS_PER_SHEPHERD`).
    pub workers_per_shepherd: usize,
    /// ULT stack size (`QTHREAD_STACK_SIZE`).
    pub stack_size: StackSize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            num_shepherds: std::thread::available_parallelism().map_or(4, usize::from),
            workers_per_shepherd: 1,
            stack_size: StackSize::DEFAULT,
        }
    }
}

struct RtInner {
    /// One ready queue per *worker*; a shepherd's queue of the paper
    /// is realised as its workers' queues plus same-shepherd stealing,
    /// so work still never leaves its locality domain. The pool is
    /// *scoped* for the same reason: a push always wakes the queue's
    /// own worker, because a sleeper of another shepherd — which is
    /// whom a wake-one already in flight may be for — cannot reach the
    /// unit. (Worker ids are laid out shepherd-major, so the wake-one
    /// scan that follows tries the siblings first.)
    pool: Arc<Pool>,
    /// Shepherd id → the global worker ids it owns.
    shepherd_workers: Vec<Vec<usize>>,
    /// Per-shepherd round-robin for external dispatch into it.
    shepherd_rr: Vec<RoundRobin>,
    /// Global worker id → shepherd id.
    worker_shepherd: Vec<usize>,
    rr: RoundRobin,
    stack_size: StackSize,
    feb: FebTable,
    /// The workers; dropping the last handle stops and joins them.
    crew: Crew,
}

/// One worker's scheduling policy: stealing stays within the shepherd,
/// so work never leaves its locality domain (the hierarchy the paper's
/// Table I highlights).
struct Sched<'a> {
    pool: &'a Pool,
    id: usize,
    /// The other workers of this worker's shepherd.
    siblings: Vec<usize>,
}

impl Policy for Sched<'_> {
    type Unit = ReadyUnit;
    const STEALS: bool = true;

    fn next(&mut self) -> Option<ReadyUnit> {
        self.pool.next(self.id, self.siblings.iter().copied())
    }

    fn run(&mut self, unit: ReadyUnit) {
        run_unit(&unit);
    }

    /// Own queue plus sibling deques; other shepherds' queues are
    /// invisible by design.
    fn reachable(&self) -> usize {
        self.pool.reachable(self.id, self.siblings.iter().copied())
    }

    fn drained(&self) -> bool {
        self.pool.drained(self.id)
    }
}

/// The Qthreads-model runtime. Cheap to clone.
///
/// The calling thread is external: it forks and joins but does not
/// execute work units (the paper's master-thread pattern).
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
}

/// Handle to a forked work unit; joining performs `readFF` on the
/// unit's full/empty return word.
pub struct Handle<T> {
    ult: Arc<UltCore>,
    result: Arc<ResultCell<T>>,
    ret: Arc<FebCell<u64>>,
}

impl<T> Handle<T> {
    /// Wait for completion (`qthread_readFF` on the return word) and
    /// take the result, surfacing an escaped panic as a [`JoinError`]
    /// instead of re-raising it.
    ///
    /// # Errors
    ///
    /// [`JoinError`] carrying the panic payload.
    pub fn try_join(self) -> Result<T, JoinError> {
        // The FEB is the paper-faithful join signal … (the FebCell
        // itself emits the FebBlock/FebWake ring events, span-tagged;
        // the counters stay here because they count *joins* that
        // blocked, the §IX-C formula the fidelity tests assert).
        // A reader that finds the word empty is suspended on the cell
        // and resumed by the fill (`block_on` over `poll_full`).
        let until_full = || block_on(|cx| self.ret.poll_full(cx));
        if self.ret.is_full() {
            self.ret.read_ff(until_full);
        } else {
            COUNTERS.feb_blocks.inc();
            self.ret.read_ff(until_full);
            COUNTERS.feb_wakes.inc();
        }
        // … and TERMINATED is the memory-safety contract for the slot.
        self.ult.join_wait();
        // Causal join edge: this context observed the unit's completion.
        lwt_metrics::span::on_join(self.ult.span_id());
        if let Some(p) = self.ult.take_panic() {
            return Err(JoinError::new(p));
        }
        // SAFETY: TERMINATED observed; we consume the only handle.
        Ok(unsafe { self.result.take() }.expect("qthreads result missing"))
    }

    /// Wait for completion and take the result.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that escaped the work unit's closure.
    pub fn join(self) -> T {
        self.try_join().unwrap_or_else(|e| e.resume())
    }

    /// Non-consuming completion test (`qthread_feb_status`).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.ret.is_full()
    }
}

impl<T> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("qthreads::Handle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl Runtime {
    /// Initialize shepherds and workers (`qthread_initialize`).
    ///
    /// # Panics
    ///
    /// Panics if either hierarchy dimension is zero.
    #[must_use]
    pub fn init(config: Config) -> Self {
        assert!(config.num_shepherds > 0, "need at least one shepherd");
        assert!(config.workers_per_shepherd > 0, "need at least one worker");
        let mut worker_shepherd = Vec::new();
        let mut shepherd_workers = vec![Vec::new(); config.num_shepherds];
        for s in 0..config.num_shepherds {
            for _ in 0..config.workers_per_shepherd {
                shepherd_workers[s].push(worker_shepherd.len());
                worker_shepherd.push(s);
            }
        }
        let crew = Crew::new(worker_shepherd.len());
        let pool = Pool::new(worker_shepherd.len(), true, crew.control().clone());
        for (id, &shep) in worker_shepherd.iter().enumerate() {
            let pool = pool.clone();
            let siblings: Vec<usize> = shepherd_workers[shep]
                .iter()
                .copied()
                .filter(|&w| w != id)
                .collect();
            crew.spawn(format!("qth-s{shep}-w{id}"), move || {
                let sched = Sched {
                    pool: &pool,
                    id,
                    siblings,
                };
                pool.run_worker(id, "qthreads", sched);
            });
        }
        Runtime {
            inner: Arc::new(RtInner {
                pool,
                shepherd_workers,
                shepherd_rr: (0..config.num_shepherds)
                    .map(|_| RoundRobin::new(config.workers_per_shepherd))
                    .collect(),
                worker_shepherd,
                rr: RoundRobin::new(config.num_shepherds),
                stack_size: config.stack_size,
                feb: FebTable::default(),
                crew,
            }),
        }
    }

    /// [`Runtime::init`] with defaults (one shepherd per CPU, one
    /// worker each — the paper's preferred configuration).
    #[must_use]
    pub fn init_default() -> Self {
        Self::init(Config::default())
    }

    /// Number of shepherds.
    #[must_use]
    pub fn num_shepherds(&self) -> usize {
        self.inner.shepherd_workers.len()
    }

    /// Total number of workers.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.inner.worker_shepherd.len()
    }

    /// The address-keyed full/empty-bit table (`qthread_readFF` &
    /// friends on arbitrary words).
    #[must_use]
    pub fn feb(&self) -> &FebTable {
        &self.inner.feb
    }

    /// Fork into the *caller's* shepherd (`qthread_fork`): the current
    /// worker's shepherd from inside a work unit, shepherd 0 from an
    /// external thread.
    pub fn fork<T, F>(&self, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let shep = current_worker()
            .and_then(|w| self.inner.worker_shepherd.get(w).copied())
            .unwrap_or(0);
        self.fork_to(shep, f)
    }

    /// Fork round-robin over shepherds — the `qthread_fork_to`
    /// dispatch the paper's microbenchmarks use from the master thread.
    pub fn fork_rr<T, F>(&self, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.fork_to(self.inner.rr.next(), f)
    }

    /// Fork into a specific shepherd's queue (`qthread_fork_to`).
    ///
    /// # Panics
    ///
    /// Panics if `shepherd` is out of range.
    pub fn fork_to<T, F>(&self, shepherd: usize, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let result = ResultCell::new();
        let ret = Arc::new(FebCell::new());
        let (slot, word) = (result.clone(), ret.clone());
        let ult = UltCore::new(self.inner.stack_size, move || {
            // Fill the return word even if `f` panics (drop guard runs
            // during unwinding): joiners' readFF must always unblock. 0
            // is the aligned_t "success" value qthread_fork writes.
            struct FillOnExit(Arc<FebCell<u64>>);
            impl Drop for FillOnExit {
                fn drop(&mut self) {
                    self.0.write_ef(0, std::hint::spin_loop);
                }
            }
            let _fill = FillOnExit(word);
            let value = f();
            // SAFETY: sole writer, before TERMINATED.
            unsafe { slot.put(value) };
        });
        // `arg` = target shepherd: the fork_to dispatch decision.
        emit(EventKind::UltSpawn, shepherd as u64);
        // A fork from a worker already inside the target shepherd lands
        // on that worker's own deque (zero-contention fast path);
        // everything else is injected round-robin over the shepherd's
        // workers.
        let target = match current_worker() {
            Some(w) if self.inner.worker_shepherd.get(w) == Some(&shepherd) => w,
            _ => self.worker_of(shepherd),
        };
        self.inner.pool.push(target, ult.clone().into());
        Handle { ult, result, ret }
    }

    /// The next worker of `shepherd` in its external-dispatch rotation.
    fn worker_of(&self, shepherd: usize) -> usize {
        self.inner.shepherd_workers[shepherd][self.inner.shepherd_rr[shepherd].next()]
    }

    /// Parallel for over `range` (`qt_loop`): one work unit per worker,
    /// statically chunked; joins before returning.
    pub fn loop_par<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let n = range.len();
        if n == 0 {
            return;
        }
        let workers = self.num_workers().max(1);
        let chunk = n.div_ceil(workers);
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = f.clone();
                let lo = (range.start + w * chunk).min(range.end);
                let hi = (range.start + (w + 1) * chunk).min(range.end);
                self.fork_rr(move || {
                    for i in lo..hi {
                        f(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
    }

    /// Parallel reduction over `range` (`qt_loopaccum`). `identity`
    /// must be a neutral element of `reduce` (it seeds every partial
    /// accumulator); empty ranges return it unchanged.
    pub fn loop_accum<T, F, R>(&self, range: Range<usize>, identity: T, f: F, reduce: R) -> T
    where
        T: Send + Clone + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
        R: Fn(T, T) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let reduce = Arc::new(reduce);
        let n = range.len();
        if n == 0 {
            return identity;
        }
        let workers = self.num_workers().max(1);
        let chunk = n.div_ceil(workers);
        let handles: Vec<_> = (0..workers)
            .filter_map(|w| {
                let lo = (range.start + w * chunk).min(range.end);
                let hi = (range.start + (w + 1) * chunk).min(range.end);
                if lo >= hi {
                    return None;
                }
                let f = f.clone();
                let reduce = reduce.clone();
                let id = identity.clone();
                Some(self.fork_rr(move || {
                    let mut acc = id;
                    for i in lo..hi {
                        acc = reduce(acc, f(i));
                    }
                    acc
                }))
            })
            .collect();
        let mut acc = identity;
        for h in handles {
            acc = reduce(acc, h.join());
        }
        acc
    }

    /// Stop all workers and join their OS threads
    /// (`qthread_finalize`). Idempotent; also what dropping the last
    /// clone does. Unbounded: a ULT wedged on a never-filled FEB keeps
    /// its queue occupied forever — use [`Runtime::shutdown_within`]
    /// to degrade gracefully instead.
    pub fn shutdown(&self) {
        self.inner.crew.shutdown();
    }

    /// [`Runtime::shutdown`] with a drain deadline: wait up to
    /// `deadline` for the workers to drain their queues, then order
    /// them to abandon the rest and report stragglers. On `Err` the
    /// listed units (typically ULTs wedged on never-filled FEBs) never
    /// completed. Idempotent (later calls return `Ok`).
    ///
    /// # Errors
    ///
    /// [`DrainError`] when the deadline expired with units still
    /// queued or running.
    pub fn shutdown_within(&self, deadline: std::time::Duration) -> Result<(), DrainError> {
        self.inner
            .crew
            .shutdown_within(deadline, || self.inner.pool.stragglers("shepherd ready queue"))
    }
}

impl TaskHost for Runtime {
    /// `qthread_fork`'s placement: the caller's own deque from a
    /// worker, otherwise round-robin over the shepherds like an
    /// external fork. A pin names a *worker* (finer-grained than
    /// `fork_to`'s shepherd targeting: a waker must put the task
    /// exactly where the placement policy said).
    fn post_task(&self, pin: Option<usize>, task: Arc<dyn PollTask>) {
        self.inner
            .pool
            .post_task(pin, task, || self.worker_of(self.inner.rr.next()));
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("qthreads::Runtime")
            .field("shepherds", &self.num_shepherds())
            .field("workers", &self.num_workers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn rt(sheps: usize, wps: usize) -> Runtime {
        Runtime::init(Config {
            num_shepherds: sheps,
            workers_per_shepherd: wps,
            stack_size: StackSize(32 * 1024),
        })
    }

    #[test]
    fn fork_join_returns_value() {
        let rt = rt(2, 1);
        assert_eq!(rt.fork(|| 7u64).join(), 7);
        rt.shutdown();
    }

    #[test]
    fn hierarchy_dimensions_report() {
        let rt = rt(2, 3);
        assert_eq!(rt.num_shepherds(), 2);
        assert_eq!(rt.num_workers(), 6);
        rt.shutdown();
    }

    #[test]
    fn fork_to_targets_shepherd() {
        let rt = rt(3, 1);
        for s in 0..3 {
            let h = rt.fork_to(s, move || current_worker());
            // Worker ids are laid out shepherd-major with 1 worker per
            // shepherd, so worker id == shepherd id.
            assert_eq!(h.join(), Some(s));
        }
        rt.shutdown();
    }

    #[test]
    fn fork_rr_round_robins() {
        let rt = rt(2, 1);
        let a = rt.fork_rr(current_worker).join();
        let b = rt.fork_rr(current_worker).join();
        let c = rt.fork_rr(current_worker).join();
        assert_eq!(a, c);
        assert_ne!(a, b);
        rt.shutdown();
    }

    #[test]
    fn many_forks_complete() {
        let rt = rt(2, 2);
        let handles: Vec<_> = (0..300).map(|i| rt.fork_rr(move || i)).collect();
        let sum: usize = handles.into_iter().map(Handle::join).sum();
        assert_eq!(sum, 300 * 299 / 2);
        rt.shutdown();
    }

    #[test]
    fn nested_fork_from_ult_uses_own_shepherd() {
        let rt = rt(2, 1);
        let rt2 = rt.clone();
        let h = rt.fork_to(1, move || {
            // qthread_fork from inside lands on the caller's shepherd.
            rt2.fork(|| current_worker()).join()
        });
        assert_eq!(h.join(), Some(1));
        rt.shutdown();
    }

    #[test]
    fn ults_yield_cooperatively() {
        let rt = rt(1, 1);
        let h = rt.fork(|| {
            for _ in 0..5 {
                yield_now();
            }
            "done"
        });
        assert_eq!(h.join(), "done");
        rt.shutdown();
    }

    #[test]
    fn feb_table_synchronizes_units() {
        let rt = rt(2, 1);
        let addr = 0xABCD_usize;
        let rt2 = rt.clone();
        let producer = rt.fork(move || {
            rt2.feb().write_ef(addr, 31337, || yield_now());
        });
        let rt3 = rt.clone();
        let consumer = rt.fork(move || rt3.feb().read_ff(addr, || yield_now()));
        assert_eq!(consumer.join(), 31337);
        producer.join();
        rt.shutdown();
    }

    #[test]
    fn loop_par_covers_every_index() {
        let rt = rt(2, 2);
        let hits: Arc<Vec<AtomicUsize>> =
            Arc::new((0..500).map(|_| AtomicUsize::new(0)).collect());
        let h2 = hits.clone();
        rt.loop_par(0..500, move |i| {
            h2[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        rt.shutdown();
    }

    #[test]
    fn loop_accum_reduces() {
        let rt = rt(3, 1);
        let total = rt.loop_accum(1..101usize, 0usize, |i| i * i, |a, b| a + b);
        assert_eq!(total, (1..101).map(|i| i * i).sum());
        rt.shutdown();
    }

    #[test]
    fn empty_loop_is_fine() {
        let rt = rt(2, 1);
        rt.loop_par(5..5, |_| panic!("must not run"));
        assert_eq!(rt.loop_accum(5..5, 42, |_| 0, |a, b| a + b), 42);
        rt.shutdown();
    }

    #[test]
    fn panic_propagates_at_join() {
        let rt = rt(1, 1);
        let h = rt.fork(|| panic!("qth boom"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join()))
            .expect_err("join must re-raise");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"qth boom"));
        rt.shutdown();
    }

    #[test]
    fn shutdown_idempotent_and_drop_safe() {
        let rt = rt(1, 1);
        rt.fork(|| ()).join();
        rt.shutdown();
        rt.shutdown();
        let rt2 = rt.clone();
        drop(rt);
        drop(rt2);
    }
}
