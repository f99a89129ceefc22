//! The generic LWT interface over the five runtime backends.

use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use lwt_fiber::StackSize;
use lwt_sched::{force_wait_policy, WaitPolicy};
use lwt_sync::{Event, SpinLock};
use lwt_ultcore::task::{TaskCell, TaskOutcome, TaskResched};
use lwt_ultcore::{blocking, DrainError, Handle, JoinError, TaskHost};

use crate::error::{PlacementError, SpawnError};

/// Which runtime model executes the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// `lwt-argobots`: execution streams, private pools, ULTs+tasklets.
    Argobots,
    /// `lwt-qthreads`: shepherds/workers, FEB joins.
    Qthreads,
    /// `lwt-massive`: work-first workers with random stealing.
    MassiveThreads,
    /// `lwt-converse`: processors + messages (work units are messages,
    /// as in the paper's Converse microbenchmarks).
    Converse,
    /// `lwt-go`: global run queue + channel completion.
    Go,
}

impl BackendKind {
    /// All backends, in the paper's Table II column order.
    pub const ALL: [BackendKind; 5] = [
        BackendKind::Argobots,
        BackendKind::Qthreads,
        BackendKind::MassiveThreads,
        BackendKind::Converse,
        BackendKind::Go,
    ];

    /// Human-readable backend name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Argobots => "Argobots",
            BackendKind::Qthreads => "Qthreads",
            BackendKind::MassiveThreads => "MassiveThreads",
            BackendKind::Converse => "Converse Threads",
            BackendKind::Go => "Go",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scheduler/pool topology knob of the unified API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Each execution resource owns a private ready queue; cross-worker
    /// traffic goes through the lock-free injector. Every backend's
    /// default, and the configuration the paper's evaluation selects.
    #[default]
    PrivatePerWorker,
    /// One shared, mutex-protected queue. Only Argobots exposes this
    /// topology (`ABT_POOL_ACCESS_MPMC` ≙ `PoolPolicy::SharedSingle`);
    /// the other backends have no shared-queue mode and ignore the
    /// knob, keeping their private queues.
    SharedQueue,
}

/// Full configuration consumed by [`Glt::with_config`]; normally
/// assembled through [`Glt::builder`].
///
/// ```
/// use lwt_core::{BackendKind, Glt, GltConfig, SchedPolicy};
///
/// let mut cfg = GltConfig::new(BackendKind::Argobots);
/// cfg.workers = 2;
/// cfg.scheduler = SchedPolicy::SharedQueue; // ABT_POOL_ACCESS_MPMC
/// let glt = Glt::with_config(cfg);
/// assert_eq!(glt.workers(), 2);
/// glt.finalize().expect("clean drain");
/// ```
#[derive(Debug, Clone)]
pub struct GltConfig {
    /// Which runtime model executes the work.
    pub backend: BackendKind,
    /// Number of execution resources (streams / shepherds / workers /
    /// processors / scheduler threads). Must be non-zero.
    pub workers: usize,
    /// Stack size for stackful work units.
    pub stack_size: StackSize,
    /// Per-worker stack-cache capacity override. `None` keeps the
    /// process-wide setting (`LWT_STACK_CACHE_CAP`, default 64);
    /// `Some(0)` disables recycling. Note the cache is process-global,
    /// so this override outlives the [`Glt`] instance that set it.
    pub stack_cache_capacity: Option<usize>,
    /// Ready-queue topology (see [`SchedPolicy`]).
    pub scheduler: SchedPolicy,
    /// How long [`Glt::finalize`] waits for in-flight work to drain
    /// before abandoning wedged workers and reporting a
    /// [`DrainError`]. Generous by default (30 s) so healthy workloads
    /// never see it; shrink it in tests that provoke hangs.
    pub drain_timeout: Duration,
    /// Idle-worker wait policy override (mirrors `OMP_WAIT_POLICY`).
    /// `None` keeps the process-wide setting, which itself defaults to
    /// `LWT_WAIT_POLICY` (adaptive when unset). Note the policy is
    /// process-global, so an override outlives the [`Glt`] instance
    /// that set it.
    pub wait_policy: Option<WaitPolicy>,
    /// Growth ceiling override for the [`Glt::spawn_blocking`]
    /// OS-thread pool. `None` keeps the process-wide setting
    /// (`LWT_BLOCKING_THREADS`, default 8); `Some(0)` disables the
    /// pool. Like the stack cache and wait policy, the pool is
    /// process-global, so an override outlives the [`Glt`] instance
    /// that set it.
    pub blocking_threads: Option<usize>,
    /// Queue placement for [`Glt::spawn_async`] tasks (initial
    /// schedule and waker-driven reschedules alike).
    pub async_queue: AsyncQueuePolicy,
}

impl GltConfig {
    /// Defaults for `backend`: workers per [`default_workers`]
    /// (`LWT_WORKERS`, else machine topology), default stacks,
    /// inherited stack-cache capacity, private per-worker queues,
    /// inherited wait policy.
    #[must_use]
    pub fn new(backend: BackendKind) -> Self {
        GltConfig {
            backend,
            workers: default_workers(),
            stack_size: StackSize::DEFAULT,
            stack_cache_capacity: None,
            scheduler: SchedPolicy::default(),
            drain_timeout: Duration::from_secs(30),
            wait_policy: None,
            blocking_threads: None,
            async_queue: AsyncQueuePolicy::default(),
        }
    }
}

/// The worker count new configs start from: `LWT_WORKERS=N` forces `N`
/// execution resources, while `LWT_WORKERS=auto` — or the variable
/// unset, empty, zero, or unparsable — sizes the pool from the machine
/// topology (`available_parallelism`), the analogue of
/// `OMP_NUM_THREADS` defaulting to the core count.
#[must_use]
pub fn default_workers() -> usize {
    workers_from(std::env::var("LWT_WORKERS").ok().as_deref())
}

fn workers_from(spec: Option<&str>) -> usize {
    let auto = || std::thread::available_parallelism().map_or(4, usize::from);
    match spec.map(str::trim) {
        None | Some("") => auto(),
        Some(s) if s.eq_ignore_ascii_case("auto") => auto(),
        Some(s) => s.parse().ok().filter(|&n| n > 0).unwrap_or_else(auto),
    }
}

/// Builder returned by [`Glt::builder`]; every setter is optional.
///
/// ```
/// use lwt_core::{BackendKind, Glt};
///
/// let glt = Glt::builder(BackendKind::Qthreads).workers(2).build();
/// let h = glt.ult_create(|| 6 * 7);
/// assert_eq!(h.join(), 42);
/// glt.finalize().expect("clean drain");
/// ```
#[derive(Debug, Clone)]
pub struct GltBuilder {
    cfg: GltConfig,
}

impl GltBuilder {
    /// Number of execution resources (streams / shepherds / workers /
    /// processors / scheduler threads).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Stack size for stackful work units.
    #[must_use]
    pub fn stack_size(mut self, size: StackSize) -> Self {
        self.cfg.stack_size = size;
        self
    }

    /// Per-worker stack-cache capacity (see
    /// [`GltConfig::stack_cache_capacity`]).
    #[must_use]
    pub fn stack_cache_capacity(mut self, cap: usize) -> Self {
        self.cfg.stack_cache_capacity = Some(cap);
        self
    }

    /// Ready-queue topology.
    #[must_use]
    pub fn scheduler(mut self, policy: SchedPolicy) -> Self {
        self.cfg.scheduler = policy;
        self
    }

    /// Drain deadline for [`Glt::finalize`] (see
    /// [`GltConfig::drain_timeout`]).
    #[must_use]
    pub fn drain_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.drain_timeout = timeout;
        self
    }

    /// Idle-worker wait policy (see [`GltConfig::wait_policy`]).
    #[must_use]
    pub fn wait_policy(mut self, policy: WaitPolicy) -> Self {
        self.cfg.wait_policy = Some(policy);
        self
    }

    /// Growth ceiling for the [`Glt::spawn_blocking`] OS-thread pool
    /// (see [`GltConfig::blocking_threads`]); `0` disables it.
    #[must_use]
    pub fn blocking_threads(mut self, max: usize) -> Self {
        self.cfg.blocking_threads = Some(max);
        self
    }

    /// Queue placement for [`Glt::spawn_async`] tasks (see
    /// [`AsyncQueuePolicy`]).
    #[must_use]
    pub fn async_queue(mut self, policy: AsyncQueuePolicy) -> Self {
        self.cfg.async_queue = policy;
        self
    }

    /// The accumulated configuration, without starting a runtime.
    #[must_use]
    pub fn config(&self) -> &GltConfig {
        &self.cfg
    }

    /// Start the runtime.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn build(self) -> Glt {
        Glt::with_config(self.cfg)
    }
}

/// Where [`Glt::spawn_async`] tasks are queued, both for the initial
/// schedule and for every waker-driven reschedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AsyncQueuePolicy {
    /// Spread polls over the execution resources: the caller's own
    /// queue when spawned or woken from a worker, round-robin dispatch
    /// otherwise — the same placement the backend's `ult_create` uses.
    #[default]
    RoundRobin,
    /// Pin every poll to one execution resource. Useful when the
    /// future touches worker-local state or to keep a latency-critical
    /// task out of the steal traffic. Validated against the worker
    /// count at [`GltBuilder::build`] time.
    Pinned(usize),
}

#[derive(Clone)]
enum Backend {
    Argobots(lwt_argobots::Runtime),
    Qthreads(lwt_qthreads::Runtime),
    Massive(lwt_massive::Runtime),
    Converse(lwt_converse::Runtime),
    Go(lwt_go::Runtime),
}

/// Completion slot for work that is no ULT and has no handle of its
/// own: Converse messages (its tasklets) and blocking-pool jobs.
struct EventSlot<T> {
    done: Event,
    value: SpinLock<Option<T>>,
    panicked: SpinLock<Option<Box<dyn std::any::Any + Send>>>,
    /// Causal span of the work unit (0 when tracing was off at spawn);
    /// carried here so joins through event-backed handles record the
    /// same join edge the native handles do.
    span: u64,
}

impl<T> EventSlot<T> {
    fn new(span: u64) -> Arc<Self> {
        Arc::new(EventSlot {
            done: Event::new(),
            value: SpinLock::new(None),
            panicked: SpinLock::new(None),
            span,
        })
    }

    fn fulfill(&self, out: std::thread::Result<T>) {
        match out {
            Ok(v) => *self.value.lock() = Some(v),
            Err(p) => *self.panicked.lock() = Some(p),
        }
        self.done.set();
    }

    fn try_wait(&self) -> Result<T, JoinError> {
        wait_event(&self.done);
        lwt_metrics::span::on_join(self.span);
        if let Some(p) = self.panicked.lock().take() {
            return Err(JoinError::new(p));
        }
        Ok(self.value.lock().take().expect("GLT result missing"))
    }
}

/// Run `f` with `span` current on the executing thread, completing the
/// span afterwards — the execution-side half of the causal trace for
/// work units that travel as bare closures (Converse messages, blocking
/// jobs) instead of span-carrying ULT structures.
fn run_spanned<T>(span: u64, f: impl FnOnce() -> T) -> T {
    if span != 0 {
        lwt_metrics::span::set_current(span);
    }
    let out = f();
    lwt_metrics::span::on_complete(span);
    if span != 0 {
        lwt_metrics::span::set_current(lwt_metrics::span::NO_SPAN);
    }
    out
}

/// Join handle returned by [`Glt::ult_create`] / [`Glt::tasklet_create`].
/// Opaque: the variant (and thus the join mechanism) is the backend's
/// business.
pub struct GltHandle<T> {
    inner: HandleInner<T>,
}

enum HandleInner<T> {
    /// A ULT of any backend: the unit's own record is the join (the
    /// Qthreads FEB return word lives inside it).
    Ult(Handle<T>),
    /// Argobots tasklet handle.
    Tasklet(lwt_argobots::TaskletHandle<T>),
    /// Event-backed completion (Converse messages, blocking-pool jobs).
    Event(Arc<EventSlot<T>>),
    /// Stackless future spawned with [`Glt::spawn_async`]; completion
    /// is the task cell's own done event.
    Async(Arc<dyn TaskOutcome<T>>),
}

impl<T> From<HandleInner<T>> for GltHandle<T> {
    fn from(inner: HandleInner<T>) -> Self {
        GltHandle { inner }
    }
}

impl<T> GltHandle<T> {
    /// Wait for completion (the backend's native join mechanism
    /// underneath) and take the result, surfacing a panic that escaped
    /// the work unit as a [`JoinError`] instead of re-raising it.
    ///
    /// ```
    /// use lwt_core::{BackendKind, Glt};
    ///
    /// let glt = Glt::builder(BackendKind::Argobots).workers(1).build();
    /// assert_eq!(glt.ult_create(|| 6 * 7).try_join().unwrap(), 42);
    /// // A panic inside the work unit comes back as a JoinError
    /// // instead of tearing down the joiner:
    /// let boom = glt.ult_create(|| -> u32 { panic!("unit failed") });
    /// assert!(boom.try_join().is_err());
    /// glt.finalize().expect("clean drain");
    /// ```
    ///
    /// # Errors
    ///
    /// [`JoinError`] carrying the panic payload.
    pub fn try_join(self) -> Result<T, JoinError> {
        match self.inner {
            HandleInner::Ult(h) => h.try_join(),
            HandleInner::Tasklet(h) => h.try_join(),
            HandleInner::Event(slot) => slot.try_wait(),
            HandleInner::Async(outcome) => {
                wait_event(outcome.done());
                lwt_metrics::span::on_join(outcome.span_id());
                match outcome.take().expect("async result already taken") {
                    Ok(v) => Ok(v),
                    Err(p) => Err(JoinError::new(p)),
                }
            }
        }
    }

    /// Wait for completion and take the result.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that escaped the work unit.
    pub fn join(self) -> T {
        self.try_join().unwrap_or_else(|e| e.resume())
    }

    /// Non-consuming completion test.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        match &self.inner {
            HandleInner::Ult(h) => h.is_finished(),
            HandleInner::Tasklet(h) => h.is_finished(),
            HandleInner::Event(slot) => slot.done.is_set(),
            HandleInner::Async(outcome) => outcome.done().is_set(),
        }
    }

    /// Bounded join: wait at most `timeout` for completion, yielding
    /// cooperatively when called from inside a work unit.
    ///
    /// ```
    /// use std::time::Duration;
    /// use lwt_core::{BackendKind, Glt};
    ///
    /// let glt = Glt::builder(BackendKind::Qthreads).workers(1).build();
    /// let h = glt.ult_create(|| 7);
    /// let out = match h.join_timeout(Duration::from_secs(5)) {
    ///     Ok(joined) => joined.expect("no panic"),
    ///     Err(_handle) => panic!("trivial unit should finish in 5s"),
    /// };
    /// assert_eq!(out, 7);
    /// glt.finalize().expect("clean drain");
    /// ```
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` — the still-usable handle — when the unit
    /// had not completed within `timeout`, so the caller can retry,
    /// keep polling [`GltHandle::is_finished`], or drop it.
    pub fn join_timeout(self, timeout: Duration) -> Result<Result<T, JoinError>, Self> {
        let until = Instant::now() + timeout;
        let mut relax = lwt_sync::AdaptiveRelax::new();
        loop {
            if self.is_finished() {
                return Ok(self.try_join());
            }
            if Instant::now() >= until {
                return Err(self);
            }
            yield_unit();
            relax.relax();
        }
    }
}

impl<T> std::fmt::Debug for GltHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GltHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

/// The wait under event-backed and async joins: the caller — a ULT of
/// whichever backend, or a plain OS thread — is suspended on the event
/// and resumed by `Event::set`. Go deliberately exposes no yield, but
/// a goroutine blocked in a GLT join is parked like one blocked on a
/// channel, so it never wedges a scheduler thread.
fn wait_event(done: &Event) {
    done.wait(|| block_unit_on(|cx| done.poll_set(cx)));
}

/// Yield the currently-running work unit back to its scheduler,
/// whichever backend it belongs to, and report whether the caller was
/// inside one. From an ordinary OS thread this is a no-op returning
/// `false`.
///
/// This is the backend-agnostic building block for code layered
/// *above* the GLT API that must relax politely without knowing which
/// runtime is hosting it: every backend's ULT is an `lwt_ultcore` unit
/// and its context is thread-local, so one probe finds it regardless
/// of which `Glt` spawned the caller. To wait for an *event*, suspend
/// instead: [`block_unit_on`].
pub fn yield_unit() -> bool {
    let in_ult = lwt_ultcore::in_ult();
    if in_ult {
        lwt_ultcore::yield_now();
    }
    in_ult
}

/// Block the calling context on a poll function, suspending *the unit,
/// not the worker*: the one wait primitive for code layered above the
/// GLT API (every synchronous `lwt-net` socket call is this function
/// over the same `poll_*` the async path awaits).
///
/// `poll` is called with a [`Context`] whose waker resumes the caller,
/// whatever the caller is:
///
/// * a ULT of any backend — `lwt_ultcore::suspend`, awakened through
///   its runtime's `Requeue::wake` hook (`CthSuspend`/`CthAwaken`; an
///   Argobots ULT is resumed into its home pool, `ABT_thread_resume`);
/// * a plain OS thread — `thread::park`/`unpark`.
///
/// Each `Pending` suspends until the waker fires, then polls again.
/// `poll` must follow the usual future contract — publish
/// `cx.waker()` where the event source will find it, *then* re-check
/// the condition, and only then return `Pending` — because both
/// suspends take a wake that arrived early as a reason to return at
/// once, never as lost. Spurious re-polls are possible and harmless.
/// The steady state allocates nothing: a ULT's waker is a clone of
/// its own `Arc`.
pub fn block_unit_on<T>(poll: impl FnMut(&mut Context<'_>) -> Poll<T>) -> T {
    lwt_ultcore::block_on(poll)
}

/// The unified runtime (`GLT_init` … `GLT_finalize`).
///
/// Cloning is cheap — every backend runtime is an `Arc`-shared handle
/// — and clones refer to the *same* pool of workers, so layered
/// subsystems (the `lwt-net` HTTP server's acceptor, long-lived
/// services) can hold their own spawn capability. Exactly one clone
/// should call [`Glt::finalize`], after the others are done spawning.
#[derive(Clone)]
pub struct Glt {
    backend: Backend,
    workers: usize,
    /// Stack size of the ULTs this layer builds itself (goroutines
    /// with a join handle).
    stack_size: StackSize,
    drain_timeout: Duration,
    async_queue: AsyncQueuePolicy,
}

impl Glt {
    /// Start configuring a runtime for `kind`. Finish with
    /// [`GltBuilder::build`].
    #[must_use]
    pub fn builder(kind: BackendKind) -> GltBuilder {
        GltBuilder {
            cfg: GltConfig::new(kind),
        }
    }

    /// Initialize a backend from a fully-spelled-out [`GltConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` is zero.
    #[must_use]
    pub fn with_config(cfg: GltConfig) -> Self {
        assert!(cfg.workers > 0, "GLT needs at least one execution resource");
        if let AsyncQueuePolicy::Pinned(w) = cfg.async_queue {
            assert!(
                w < cfg.workers,
                "async_queue pinned to worker {w} but the runtime has {} workers",
                cfg.workers
            );
        }
        if let Some(cap) = cfg.stack_cache_capacity {
            lwt_fiber::cache::set_capacity(cap);
        }
        if let Some(max) = cfg.blocking_threads {
            blocking::set_max_threads(max);
        }
        if let Some(policy) = cfg.wait_policy {
            // Before backend init, so workers idle under the requested
            // policy from their very first empty pick.
            force_wait_policy(policy);
        }
        let backend = match cfg.backend {
            BackendKind::Argobots => Backend::Argobots(lwt_argobots::Runtime::init(
                lwt_argobots::Config {
                    num_streams: cfg.workers,
                    pool_policy: match cfg.scheduler {
                        SchedPolicy::PrivatePerWorker => {
                            lwt_argobots::PoolPolicy::PrivatePerStream
                        }
                        SchedPolicy::SharedQueue => lwt_argobots::PoolPolicy::SharedSingle,
                    },
                    stack_size: cfg.stack_size,
                },
            )),
            BackendKind::Qthreads => Backend::Qthreads(lwt_qthreads::Runtime::init(
                // One worker per shepherd: GLT worker index ≙ shepherd
                // index, which is what fork_to targets.
                lwt_qthreads::Config {
                    num_shepherds: cfg.workers,
                    workers_per_shepherd: 1,
                    stack_size: cfg.stack_size,
                },
            )),
            BackendKind::MassiveThreads => Backend::Massive(lwt_massive::Runtime::init(
                lwt_massive::Config {
                    num_workers: cfg.workers,
                    stack_size: cfg.stack_size,
                    ..Default::default()
                },
            )),
            BackendKind::Converse => Backend::Converse(lwt_converse::Runtime::init(
                lwt_converse::Config {
                    num_processors: cfg.workers,
                    stack_size: cfg.stack_size,
                },
            )),
            BackendKind::Go => Backend::Go(lwt_go::Runtime::init(lwt_go::Config {
                num_threads: cfg.workers,
                stack_size: cfg.stack_size,
            })),
        };
        Glt {
            backend,
            workers: cfg.workers,
            stack_size: cfg.stack_size,
            drain_timeout: cfg.drain_timeout,
            async_queue: cfg.async_queue,
        }
    }

    /// Number of execution resources this runtime was started with.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Which backend this instance drives.
    #[must_use]
    pub fn kind(&self) -> BackendKind {
        match &self.backend {
            Backend::Argobots(_) => BackendKind::Argobots,
            Backend::Qthreads(_) => BackendKind::Qthreads,
            Backend::Massive(_) => BackendKind::MassiveThreads,
            Backend::Converse(_) => BackendKind::Converse,
            Backend::Go(_) => BackendKind::Go,
        }
    }

    /// Create a yieldable work unit (`*_creation_function` in the
    /// paper's Listing 4).
    ///
    /// Converse note: external callers cannot create ULTs in other
    /// processors' queues (the paper's insertion rule), so the Converse
    /// backend dispatches a *message*, exactly as the paper's own
    /// Converse microbenchmarks do.
    pub fn ult_create<T, F>(&self, f: F) -> GltHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        HandleInner::Ult(match &self.backend {
            Backend::Argobots(rt) => rt.ult_create(f),
            Backend::Qthreads(rt) => rt.fork_rr(f),
            Backend::Massive(rt) => rt.spawn(f),
            // A GLT ULT is yieldable by contract (Table II maps it to
            // CthCreate), but Converse's insertion rule says only
            // messages may enter another processor's queue: the ULT is
            // built here, where its causal parent runs, and a message
            // carries it to its processor.
            Backend::Converse(rt) => rt.send_ult_rr(f),
            // Go has no join; the unified API keeps the goroutine's own
            // handle.
            Backend::Go(rt) => {
                let h = Handle::spawn(self.stack_size, f);
                rt.go_unit(h.unit());
                h
            }
        })
        .into()
    }

    /// Create a yieldable work unit pinned to execution resource
    /// `worker` — Argobots ES-targeted creation (`ABT_thread_create` on
    /// a specific stream's pool), Qthreads `qthread_fork_to` and a
    /// Converse destination-processor send.
    ///
    /// ```
    /// use lwt_core::{BackendKind, Glt, PlacementError};
    ///
    /// let glt = Glt::builder(BackendKind::Qthreads).workers(2).build();
    /// // qthread_fork_to: pin the unit to shepherd 1.
    /// let pinned = glt.ult_create_to(1, || 7).expect("worker 1 exists");
    /// assert_eq!(pinned.join(), 7);
    /// // Out-of-range placement is rejected up front, not wrapped.
    /// assert!(matches!(
    ///     glt.ult_create_to(9, || 0),
    ///     Err(PlacementError::OutOfRange { .. })
    /// ));
    /// glt.finalize().expect("clean drain");
    /// ```
    ///
    /// # Errors
    ///
    /// [`PlacementError::Unsupported`] on MassiveThreads (the
    /// work-first scheduler owns placement) and Go (processors are
    /// hidden); [`PlacementError::OutOfRange`] when `worker` ≥
    /// [`Glt::workers`].
    pub fn ult_create_to<T, F>(&self, worker: usize, f: F) -> Result<GltHandle<T>, PlacementError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        match &self.backend {
            Backend::Massive(_) => {
                return Err(PlacementError::Unsupported(BackendKind::MassiveThreads))
            }
            Backend::Go(_) => return Err(PlacementError::Unsupported(BackendKind::Go)),
            _ => {}
        }
        if worker >= self.workers {
            return Err(PlacementError::OutOfRange {
                worker,
                workers: self.workers,
            });
        }
        Ok(HandleInner::Ult(match &self.backend {
            Backend::Argobots(rt) => rt.ult_create_to(worker, f),
            Backend::Qthreads(rt) => rt.fork_to(worker, f),
            // The message runs on `worker`, so the ULT stays pinned there.
            Backend::Converse(rt) => rt.send_ult(worker, f),
            Backend::Massive(_) | Backend::Go(_) => unreachable!("rejected above"),
        })
        .into())
    }

    /// Create a stackless, atomically-executed work unit where the
    /// backend has one (Argobots tasklets, Converse messages); falls
    /// back to [`Glt::ult_create`] elsewhere — the degradation path the
    /// common-API design implies.
    pub fn tasklet_create<T, F>(&self, f: F) -> GltHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        match &self.backend {
            Backend::Argobots(rt) => HandleInner::Tasklet(rt.tasklet_create(f)).into(),
            Backend::Converse(rt) => {
                // A Converse message IS the tasklet: stackless and
                // atomically executed on the processor's own stack.
                // (ult_create sends a ULT for yieldability; tasklets
                // must not yield, so the bare send is the faithful
                // mapping.)
                let span = lwt_metrics::span::on_spawn();
                let slot = EventSlot::new(span);
                let s2 = slot.clone();
                rt.send_rr(move || {
                    s2.fulfill(run_spanned(span, || {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                    }));
                });
                HandleInner::Event(slot).into()
            }
            _ => self.ult_create(f),
        }
    }

    /// The reschedule hook encoding this runtime's [`AsyncQueuePolicy`]:
    /// the initial enqueue and every waker-driven requeue go through it,
    /// so placement is decided in exactly one place.
    fn task_resched(&self) -> TaskResched {
        /// The hook holds a clone of the runtime, so a late wake (a
        /// blocking-pool completion after the master dropped its
        /// handle) still has somewhere to enqueue.
        fn hook(rt: &impl TaskHost, pin: Option<usize>) -> TaskResched {
            let rt = rt.clone();
            Arc::new(move |task| rt.post_task(pin, task))
        }
        let pin = match self.async_queue {
            AsyncQueuePolicy::RoundRobin => None,
            AsyncQueuePolicy::Pinned(worker) => Some(worker),
        };
        match &self.backend {
            Backend::Argobots(rt) => hook(rt, pin),
            Backend::Qthreads(rt) => hook(rt, pin),
            Backend::Massive(rt) => hook(rt, pin),
            Backend::Converse(rt) => hook(rt, pin),
            Backend::Go(rt) => hook(rt, pin),
        }
    }

    /// Spawn a stackless `Future` onto the backend's ready queues — the
    /// third execution model next to stackful ULTs and run-to-completion
    /// tasklets.
    ///
    /// Each poll runs atomically on a scheduler worker (like a tasklet);
    /// `Pending` parks the task *without* a stack, and the waker the
    /// future captured re-enqueues it through the backend's own dispatch
    /// path, so woken polls mix with ULTs and tasklets in the same
    /// queues. The handle joins like any other GLT handle; a panic
    /// inside `poll` surfaces at [`GltHandle::try_join`] as a
    /// [`JoinError`].
    ///
    /// ```
    /// use lwt_core::{BackendKind, Glt};
    ///
    /// let glt = Glt::builder(BackendKind::Qthreads).workers(2).build();
    /// let h = glt.spawn_async(async { 6 * 7 });
    /// assert_eq!(h.join(), 42);
    /// glt.finalize().expect("clean drain");
    /// ```
    pub fn spawn_async<F>(&self, fut: F) -> GltHandle<F::Output>
    where
        F: std::future::Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let resched = self.task_resched();
        let (outcome, task) = TaskCell::spawn(fut, resched.clone());
        // The task is born SCHEDULED; this push is its first schedule.
        resched(task);
        HandleInner::Async(outcome).into()
    }

    /// Run `f` on an OS thread that is *allowed* to block (file I/O,
    /// syscalls, long-running FFI) instead of wedging a scheduler
    /// worker — the jobs go to a process-global, lazily-grown thread
    /// pool capped by [`GltBuilder::blocking_threads`] /
    /// `LWT_BLOCKING_THREADS`. Completion sets the handle's event, so
    /// joiners (including ULTs and `spawn_async` futures waiting via
    /// [`GltHandle::join_timeout`] polling) wake like any other
    /// event-backed join.
    ///
    /// ```
    /// use lwt_core::{BackendKind, Glt};
    ///
    /// let glt = Glt::builder(BackendKind::Go).workers(1).build();
    /// let h = glt.spawn_blocking(|| {
    ///     std::thread::sleep(std::time::Duration::from_millis(1));
    ///     "done off-worker"
    /// });
    /// assert_eq!(h.join(), "done off-worker");
    /// glt.finalize().expect("clean drain");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when the pool rejects the job (disabled by a zero
    /// ceiling, or the OS refused the first thread); use
    /// [`Glt::try_spawn_blocking`] to handle that as an error.
    pub fn spawn_blocking<T, F>(&self, f: F) -> GltHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.try_spawn_blocking(f)
            .unwrap_or_else(|e| panic!("spawn_blocking failed: {e}"))
    }

    /// Fallible [`Glt::spawn_blocking`].
    ///
    /// # Errors
    ///
    /// [`SpawnError::BlockingPool`] when the pool is disabled
    /// (`blocking_threads(0)` / `LWT_BLOCKING_THREADS=0`) or had no
    /// thread and could not start one; the closure is returned to the
    /// caller unrun in the sense that no handle exists for it.
    pub fn try_spawn_blocking<T, F>(&self, f: F) -> Result<GltHandle<T>, SpawnError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        // Blocking jobs travel as bare closures like Converse messages,
        // so the span rides in the payload the same way.
        let span = lwt_metrics::span::on_spawn();
        let slot = EventSlot::new(span);
        let s2 = slot.clone();
        blocking::submit(move || {
            s2.fulfill(run_spanned(span, || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            }));
        })?;
        Ok(HandleInner::Event(slot).into())
    }

    /// Whether the backend distinguishes tasklets from ULTs (paper
    /// Table I, "Tasklet Support").
    #[must_use]
    pub fn supports_tasklets(&self) -> bool {
        matches!(
            self.backend,
            Backend::Argobots(_) | Backend::Converse(_)
        )
    }

    /// Yield the calling work unit (`yield_function`). A no-op on the
    /// Go backend — the paper's Table I marks Go as offering no yield.
    pub fn yield_now(&self) {
        if !matches!(self.backend, Backend::Go(_)) {
            yield_unit();
        }
    }

    /// Shut the backend down (`finalize_function`), waiting at most
    /// [`GltConfig::drain_timeout`] for in-flight work to drain. Past
    /// the deadline the backend's workers are told to abandon their
    /// queues (wedged ones are detached — never killed) and the
    /// leftovers come back as a [`DrainError`] straggler table instead
    /// of the historical hang.
    ///
    /// Converse note: its return-mode join needs global quiescence
    /// before the exit barrier, so the deadline bounds *each* of the
    /// quiescence wait and the processor join (worst case ~2×).
    ///
    /// # Errors
    ///
    /// [`DrainError`] when work was still pending at the deadline.
    pub fn finalize(self) -> Result<(), DrainError> {
        let deadline = self.drain_timeout;
        let result = match self.backend {
            Backend::Argobots(rt) => rt.shutdown_within(deadline),
            Backend::Qthreads(rt) => rt.shutdown_within(deadline),
            Backend::Massive(rt) => rt.shutdown_within(deadline),
            Backend::Converse(rt) => {
                // Entering the barrier while a unit is wedged would
                // hang the master: the barrier requires quiescence.
                if rt.quiesce_within(deadline) {
                    rt.barrier();
                }
                rt.shutdown_within(deadline)
            }
            Backend::Go(rt) => rt.shutdown_within(deadline),
        };
        if result.is_err() {
            // Post-mortem bundle for the straggler table (armed by
            // LWT_FLIGHTREC; a no-op otherwise).
            lwt_chaos::register_flightrec_sections();
            let _ = lwt_metrics::flightrec::dump("drain_error");
        }
        result
    }
}

impl std::fmt::Debug for Glt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Glt").field("backend", &self.kind()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn worker_spec_parses_numbers_and_auto() {
        let topo = std::thread::available_parallelism().map_or(4, usize::from);
        assert_eq!(workers_from(Some("3")), 3);
        assert_eq!(workers_from(Some(" 16 ")), 16);
        for auto in [None, Some("auto"), Some("AUTO"), Some(""), Some("0"), Some("cores")] {
            assert_eq!(workers_from(auto), topo, "spec {auto:?}");
        }
    }

    #[test]
    fn builder_wait_policy_reaches_the_global_knob() {
        let glt = Glt::builder(BackendKind::Go)
            .workers(1)
            .wait_policy(WaitPolicy::Passive)
            .build();
        assert_eq!(lwt_sched::current_wait_policy(), WaitPolicy::Passive);
        glt.finalize().expect("clean drain");
        lwt_sched::reset_wait_policy_to_env();
    }

    #[test]
    fn every_backend_runs_ults() {
        for kind in BackendKind::ALL {
            let glt = Glt::builder(kind).workers(2).build();
            let hits = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..50)
                .map(|_| {
                    let h = hits.clone();
                    glt.ult_create(move || {
                        h.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(hits.load(Ordering::Relaxed), 50, "backend {kind}");
            glt.finalize().expect("clean drain");
        }
    }

    #[test]
    fn every_backend_returns_values() {
        for kind in BackendKind::ALL {
            let glt = Glt::builder(kind).workers(2).build();
            let sum: u64 = (0..20)
                .map(|i| glt.ult_create(move || i as u64))
                .collect::<Vec<_>>()
                .into_iter()
                .map(GltHandle::join)
                .sum();
            assert_eq!(sum, 190, "backend {kind}");
            glt.finalize().expect("clean drain");
        }
    }

    #[test]
    fn tasklets_run_everywhere_with_fallback() {
        for kind in BackendKind::ALL {
            let glt = Glt::builder(kind).workers(2).build();
            let h = glt.tasklet_create(|| 3u32.pow(3));
            assert_eq!(h.join(), 27, "backend {kind}");
            glt.finalize().expect("clean drain");
        }
    }

    #[test]
    fn tasklet_support_matches_table_one() {
        for (kind, expect) in [
            (BackendKind::Argobots, true),
            (BackendKind::Qthreads, false),
            (BackendKind::MassiveThreads, false),
            (BackendKind::Converse, true),
            (BackendKind::Go, false),
        ] {
            let glt = Glt::builder(kind).workers(1).build();
            assert_eq!(glt.supports_tasklets(), expect, "backend {kind}");
            glt.finalize().expect("clean drain");
        }
    }

    #[test]
    fn panics_propagate_through_the_generic_join() {
        for kind in BackendKind::ALL {
            let glt = Glt::builder(kind).workers(1).build();
            let h = glt.ult_create(|| -> () { panic!("glt boom") });
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join()))
                .expect_err("join must re-raise");
            assert_eq!(
                err.downcast_ref::<&str>(),
                Some(&"glt boom"),
                "backend {kind}"
            );
            glt.finalize().expect("clean drain");
        }
    }

    #[test]
    fn listing4_pseudocode_shape_works() {
        // The paper's Listing 4: init → create N → yield → join N →
        // finalize, expressed 1:1 in the generic API.
        const N: usize = 100;
        for kind in BackendKind::ALL {
            let glt = Glt::builder(kind).workers(2).build();
            let handles: Vec<_> = (0..N).map(|_| glt.ult_create(|| ())).collect();
            glt.yield_now();
            for h in handles {
                h.join();
            }
            glt.finalize().expect("clean drain");
        }
    }
}
