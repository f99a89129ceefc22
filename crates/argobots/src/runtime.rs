//! Runtime lifecycle and work-unit creation APIs.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use lwt_fiber::StackSize;
use lwt_metrics::registry::{emit, timestamp_if_tracing, COUNTERS};
use lwt_metrics::EventKind;
use lwt_sync::SpinLock;
use lwt_ultcore::state::READY;
use lwt_ultcore::{straggler_table, Crew, DrainError, Handle, PollTask, ReadyUnit, TaskHost, Work};

use crate::pool::{PoolPolicy, PoolShared, Pools};
use crate::sched::Scheduler;
use crate::stream::{es_main, StreamShared};
use crate::unit::{Tasklet, TaskletHandle, Unit};

/// Runtime configuration (`ABT_init` parameters).
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of execution streams created at init (more can be added
    /// dynamically with [`Runtime::stream_create`]).
    pub num_streams: usize,
    /// Pool topology.
    pub pool_policy: PoolPolicy,
    /// Stack size for ULTs (tasklets have none).
    pub stack_size: StackSize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            num_streams: std::thread::available_parallelism().map_or(4, usize::from),
            pool_policy: PoolPolicy::default(),
            stack_size: StackSize::DEFAULT,
        }
    }
}

struct RtInner {
    stack_size: StackSize,
    /// All pools (under `PrivatePerStream`, index i belongs to stream
    /// i) and the requeue hook over them.
    pools: Arc<Pools>,
    /// Also serializes `stream_create`, so stream i gets pool i.
    streams: SpinLock<Vec<Arc<StreamShared>>>,
    rr: AtomicUsize,
    /// The stream threads and the park group they sleep in: one slot
    /// per stream, sized with headroom at init so a few dynamically
    /// created streams can still sleep; streams beyond the capacity
    /// degrade to bounded naps (see `ParkGroup::park`). Streams hold
    /// their pools and the crew's `Control`, never this struct, so
    /// dropping the last handle stops and joins them — streams must
    /// not outlive the pools they reference.
    crew: Crew,
}

/// The Argobots-model runtime. Cheap to clone; all clones share the
/// same streams and pools.
///
/// The calling ("primary") thread is *external*: it creates and joins
/// work units but does not execute them — matching how the paper's
/// microbenchmarks drive the libraries from a master thread.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
}

impl Runtime {
    /// Initialize the runtime: spawn the execution streams and their
    /// pools per `config` (`ABT_init`).
    ///
    /// # Panics
    ///
    /// Panics if `config.num_streams` is zero.
    #[must_use]
    pub fn init(config: Config) -> Self {
        assert!(config.num_streams > 0, "need at least one stream");
        let inner = Arc::new(RtInner {
            stack_size: config.stack_size,
            pools: Arc::new(Pools::new(config.pool_policy)),
            streams: SpinLock::new(Vec::new()),
            rr: AtomicUsize::new(0),
            crew: Crew::new(config.num_streams + 8),
        });
        let rt = Runtime { inner };
        if config.pool_policy == PoolPolicy::SharedSingle {
            let pool = PoolShared::new_shared();
            // Any stream pops the shared pool, so a push wakes whichever
            // sleeper the scanning wake-one picks.
            pool.set_waker(rt.inner.crew.control().clone(), None);
            rt.inner.pools.push(Arc::new(pool));
        }
        for _ in 0..config.num_streams {
            rt.stream_create();
        }
        rt
    }

    /// [`Runtime::init`] with defaults.
    #[must_use]
    pub fn init_default() -> Self {
        Self::init(Config::default())
    }

    /// Dynamically add an execution stream (`ABT_xstream_create`) —
    /// the capability that distinguishes Argobots' "Group Control" in
    /// the paper's Table I. Returns the new stream's id.
    pub fn stream_create(&self) -> usize {
        let pools = &self.inner.pools;
        let mut streams = self.inner.streams.lock();
        let id = streams.len();
        if pools.policy == PoolPolicy::PrivatePerStream {
            let pool = PoolShared::new();
            // MPSC: only stream `id` ever pops this pool, so pushes wake
            // that stream specifically (a scanning wake-one could spend
            // its single wake on a stream that cannot pop it).
            pool.set_waker(self.inner.crew.control().clone(), Some(id));
            pools.push(Arc::new(pool));
        }
        let shared = Arc::new(StreamShared {
            id,
            pools: vec![pools.get(pools.of_stream(id)).clone()],
            hook: pools.clone(),
            ctl: self.inner.crew.control().clone(),
            mailbox: SpinLock::new(Vec::new()),
        });
        streams.push(shared.clone());
        self.inner
            .crew
            .spawn(format!("abt-es-{id}"), move || es_main(&shared));
        id
    }

    /// Number of live execution streams.
    #[must_use]
    pub fn num_streams(&self) -> usize {
        self.inner.streams.lock().len()
    }

    /// Stack a custom scheduler on stream `stream`
    /// (`ABT_sched_create` + set; the stream pops back to its previous
    /// scheduler when this one reports [`crate::Pick::Done`]).
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub fn push_scheduler(&self, stream: usize, sched: Box<dyn Scheduler>) {
        let streams = self.inner.streams.lock();
        streams[stream].mailbox.lock().push(sched);
    }

    /// Pick the pool new work is dispatched to, round-robin under the
    /// private policy (the paper's master-thread dispatch).
    fn next_pool(&self) -> usize {
        let pools = &self.inner.pools;
        match pools.policy {
            PoolPolicy::SharedSingle => 0,
            PoolPolicy::PrivatePerStream => {
                self.inner.rr.fetch_add(1, Ordering::Relaxed) % pools.len()
            }
        }
    }

    /// Create a ULT (`ABT_thread_create`), dispatched round-robin under
    /// the private pool policy.
    pub fn ult_create<T, F>(&self, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.ult_create_in(self.next_pool(), f)
    }

    /// Create a ULT in the pool of a specific stream
    /// (`ABT_thread_create` with an explicit target pool).
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub fn ult_create_to<T, F>(&self, stream: usize, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.ult_create_in(self.inner.pools.of_stream(stream), f)
    }

    /// The ULT belongs to pool `home` for life: its yields and resumes
    /// send it back there ([`Pools`]' requeue hook).
    fn ult_create_in<T, F>(&self, home: usize, f: F) -> Handle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let ult = Handle::spawn_with(self.inner.stack_size, home, (), f);
        emit(EventKind::UltSpawn, 0);
        self.inner
            .pools
            .get(home)
            .push(Unit::Ready(ult.unit().into()));
        ult
    }

    /// Create a tasklet (`ABT_task_create`): a stackless work unit that
    /// runs atomically on the executing stream's own stack. Tasklets
    /// cannot yield — this is what makes them ~2× cheaper than ULTs in
    /// the paper's Figs. 2/5/6.
    pub fn tasklet_create<T, F>(&self, f: F) -> TaskletHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.tasklet_create_in(self.next_pool(), f)
    }

    /// Create a tasklet in the pool of a specific stream.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub fn tasklet_create_to<T, F>(&self, stream: usize, f: F) -> TaskletHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.tasklet_create_in(self.inner.pools.of_stream(stream), f)
    }

    fn tasklet_create_in<T, F>(&self, pool: usize, f: F) -> TaskletHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        COUNTERS.tasklets_created.inc();
        // arg = 1 distinguishes tasklet spawns from ULT spawns.
        emit(EventKind::UltSpawn, 1);
        let inner = Arc::new(Tasklet {
            state: AtomicU8::new(READY),
            joiners: lwt_sync::WaitList::new(),
            spawn_ns: AtomicU64::new(timestamp_if_tracing()),
            span: lwt_metrics::span::on_spawn(),
            body: Work::new(f, ()),
        });
        self.inner
            .pools
            .get(pool)
            .push(Unit::Tasklet(inner.clone()));
        TaskletHandle {
            inner,
            result: std::marker::PhantomData,
        }
    }

    /// Stop every stream and join their OS threads (`ABT_finalize`).
    /// Idempotent; also invoked when the last clone drops.
    ///
    /// Queued-but-unjoined work units may or may not have run; join
    /// handles before shutting down for deterministic completion.
    /// Waits unboundedly; see [`Runtime::shutdown_within`] for a drain
    /// with a deadline.
    pub fn shutdown(&self) {
        self.inner.crew.shutdown();
    }

    /// [`Runtime::shutdown`] with a drain deadline: streams get
    /// `deadline` to go idle; past it they are told to abandon their
    /// pools (no thread is ever killed) and the residue is reported.
    ///
    /// # Errors
    ///
    /// [`DrainError`] listing per-pool unit-hint residue when the
    /// deadline expired before every stream went idle.
    pub fn shutdown_within(&self, deadline: std::time::Duration) -> Result<(), DrainError> {
        self.inner.crew.shutdown_within(deadline, || {
            let pools = &self.inner.pools;
            straggler_table(
                pools.iter().map(|p| p.len()),
                "stream pool",
                pools.iter().map(|p| p.suspended.load(Ordering::Acquire)),
            )
        })
    }
}

impl TaskHost for Runtime {
    /// Dispatched like a tasklet: round-robin over pools under the
    /// private policy, the single pool otherwise; a pin names a
    /// stream's pool. Wakes re-enter through the same path, so an
    /// unpinned task may migrate between streams across polls (pools
    /// are the placement unit, exactly as for `ABT_task_create`).
    fn post_task(&self, pin: Option<usize>, task: Arc<dyn PollTask>) {
        let pools = &self.inner.pools;
        let pool = pin.map_or_else(|| self.next_pool(), |stream| pools.of_stream(stream));
        pools.get(pool).push(Unit::Ready(ReadyUnit::Task(task)));
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("argobots::Runtime")
            .field("streams", &self.num_streams())
            .field("policy", &self.inner.pools.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{current_stream, in_ult, yield_now, yield_to};
    use std::sync::atomic::AtomicUsize;

    fn rt(n: usize, policy: PoolPolicy) -> Runtime {
        Runtime::init(Config {
            num_streams: n,
            pool_policy: policy,
            stack_size: StackSize(32 * 1024),
        })
    }

    #[test]
    fn ult_returns_value() {
        let rt = rt(2, PoolPolicy::PrivatePerStream);
        let h = rt.ult_create(|| 6 * 7);
        assert_eq!(h.join(), 42);
        rt.shutdown();
    }

    #[test]
    fn tasklet_returns_value() {
        let rt = rt(2, PoolPolicy::SharedSingle);
        let h = rt.tasklet_create(|| String::from("atomic"));
        assert_eq!(h.join(), "atomic");
        rt.shutdown();
    }

    #[test]
    fn many_ults_all_run_private_pools() {
        let rt = rt(3, PoolPolicy::PrivatePerStream);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..200)
            .map(|_| {
                let c = counter.clone();
                rt.ult_create(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        rt.shutdown();
    }

    #[test]
    fn many_tasklets_all_run_shared_pool() {
        let rt = rt(3, PoolPolicy::SharedSingle);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..200)
            .map(|_| {
                let c = counter.clone();
                rt.tasklet_create(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        rt.shutdown();
    }

    #[test]
    fn ults_can_yield() {
        let rt = rt(1, PoolPolicy::PrivatePerStream);
        let h = rt.ult_create(|| {
            let mut acc = 0;
            for i in 0..5 {
                acc += i;
                yield_now();
            }
            acc
        });
        assert_eq!(h.join(), 10);
        rt.shutdown();
    }

    #[test]
    fn yields_interleave_on_one_stream() {
        // Two ULTs on a single stream must alternate across yields —
        // proves yield really suspends rather than running to completion.
        let rt = rt(1, PoolPolicy::PrivatePerStream);
        let log = Arc::new(SpinLock::new(Vec::new()));
        let (l1, l2) = (log.clone(), log.clone());
        let a = rt.ult_create(move || {
            for i in 0..3 {
                l1.lock().push(('a', i));
                yield_now();
            }
        });
        let b = rt.ult_create(move || {
            for i in 0..3 {
                l2.lock().push(('b', i));
                yield_now();
            }
        });
        a.join();
        b.join();
        let log = log.lock().clone();
        // Strict alternation: same-ULT entries are never adjacent.
        for w in log.windows(2) {
            assert_ne!(w[0].0, w[1].0, "yield did not interleave: {log:?}");
        }
        rt.shutdown();
    }

    #[test]
    fn yield_to_transfers_directly() {
        let rt = rt(1, PoolPolicy::PrivatePerStream);
        let order = Arc::new(SpinLock::new(Vec::new()));
        let o2 = order.clone();
        let rt2 = rt.clone();
        // The source spawns the target while itself running, so the
        // target is guaranteed still READY; yield_to then claims it and
        // switches into it without a scheduler pick.
        let src = rt.ult_create(move || {
            let o1 = o2.clone();
            let target = rt2.ult_create(move || {
                o1.lock().push("target");
            });
            o2.lock().push("src-before");
            yield_to(&target);
            o2.lock().push("src-after");
            target.join();
        });
        src.join();
        assert_eq!(
            order.lock().clone(),
            vec!["src-before", "target", "src-after"]
        );
        rt.shutdown();
    }

    #[test]
    fn nested_spawn_from_ult() {
        let rt = rt(2, PoolPolicy::PrivatePerStream);
        let rt2 = rt.clone();
        let h = rt.ult_create(move || {
            let children: Vec<_> = (0..10).map(|i| rt2.ult_create(move || i)).collect();
            children.into_iter().map(|c| c.join()).sum::<i32>()
        });
        assert_eq!(h.join(), 45);
        rt.shutdown();
    }

    #[test]
    fn dynamic_stream_creation() {
        let rt = rt(1, PoolPolicy::PrivatePerStream);
        assert_eq!(rt.num_streams(), 1);
        let id = rt.stream_create();
        assert_eq!(id, 1);
        assert_eq!(rt.num_streams(), 2);
        // Work dispatched to the new stream runs.
        let h = rt.ult_create_to(1, current_stream);
        assert_eq!(h.join(), Some(1));
        rt.shutdown();
    }

    #[test]
    fn targeted_dispatch_lands_on_stream() {
        let rt = rt(3, PoolPolicy::PrivatePerStream);
        for s in 0..3 {
            let h = rt.ult_create_to(s, current_stream);
            assert_eq!(h.join(), Some(s));
        }
        rt.shutdown();
    }

    #[test]
    fn in_ult_and_stream_id_report() {
        let rt = rt(1, PoolPolicy::PrivatePerStream);
        assert!(!in_ult());
        assert_eq!(current_stream(), None);
        let h = rt.ult_create(|| in_ult());
        assert!(h.join());
        rt.shutdown();
    }

    #[test]
    fn panic_in_ult_propagates_at_join() {
        let rt = rt(1, PoolPolicy::PrivatePerStream);
        let h = rt.ult_create(|| panic!("ult boom"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join()))
            .expect_err("join must re-raise");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"ult boom"));
        rt.shutdown();
    }

    #[test]
    fn panic_in_tasklet_propagates_at_join() {
        let rt = rt(1, PoolPolicy::PrivatePerStream);
        let h = rt.tasklet_create(|| panic!("tasklet boom"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join()))
            .expect_err("join must re-raise");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"tasklet boom"));
        rt.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let rt = rt(2, PoolPolicy::PrivatePerStream);
        rt.ult_create(|| 1).join();
        rt.shutdown();
        rt.shutdown();
        drop(rt);
        // And pure-drop without explicit shutdown:
        let rt2 = self::tests::rt(1, PoolPolicy::SharedSingle);
        rt2.ult_create(|| ()).join();
        drop(rt2);
    }

    #[test]
    fn custom_scheduler_runs_lifo() {
        struct Lifo {
            stash: Vec<crate::sched::WorkUnit>,
        }
        impl Scheduler for Lifo {
            fn pick(&mut self, ctx: &crate::sched::SchedContext) -> crate::sched::Pick {
                // Drain everything available, then serve newest-first.
                while let Some(u) = ctx.pop(0) {
                    self.stash.push(u);
                }
                match self.stash.pop() {
                    Some(u) => crate::sched::Pick::Run(u),
                    None => crate::sched::Pick::Idle,
                }
            }
        }
        let rt = rt(1, PoolPolicy::PrivatePerStream);
        rt.push_scheduler(0, Box::new(Lifo { stash: Vec::new() }));
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..50)
            .map(|_| {
                let c = counter.clone();
                rt.ult_create(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        rt.shutdown();
    }

    #[test]
    fn stacked_scheduler_pops_on_done() {
        // A scheduler that runs a fixed number of units then reports
        // Done; the stream must fall back to the base scheduler.
        struct Limited {
            budget: usize,
        }
        impl Scheduler for Limited {
            fn pick(&mut self, ctx: &crate::sched::SchedContext) -> crate::sched::Pick {
                if self.budget == 0 {
                    return crate::sched::Pick::Done;
                }
                match ctx.pop(0) {
                    Some(u) => {
                        self.budget -= 1;
                        crate::sched::Pick::Run(u)
                    }
                    None => crate::sched::Pick::Idle,
                }
            }
        }
        let rt = rt(1, PoolPolicy::PrivatePerStream);
        rt.push_scheduler(0, Box::new(Limited { budget: 3 }));
        let handles: Vec<_> = (0..20).map(|i| rt.ult_create(move || i)).collect();
        let sum: i32 = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, 190);
        rt.shutdown();
    }
}
