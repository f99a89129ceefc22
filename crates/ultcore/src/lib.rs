//! # lwt-ultcore — the shared ULT executor core and worker engine
//!
//! All five of the workspace's runtimes (Argobots, Qthreads,
//! MassiveThreads, Converse Threads, Go) execute stackful user-level
//! threads with identical low-level mechanics and run the same worker
//! loop and lifecycle around their queues; they differ only in *queue
//! topology and policy* (the paper's Table I). This crate houses what
//! they share, exactly once:
//!
//! * [`engine`] — the worker engine: [`Policy`] + [`worker_loop`] (the
//!   scheduling loop of every worker, processor and stream),
//!   [`Control`] + [`Crew`] (thread spawn, `shutdown`,
//!   `shutdown_within`, `Drop`), [`Pool`] (the per-worker
//!   `ReadyQueue`s of Go, MassiveThreads and Qthreads with their
//!   [`Requeue`] hook) and [`TaskHost`] (task posting).
//! * [`UltCore`] — the work-unit record (state word, saved context,
//!   stack) with the unit's [`Work`] — closure, then result — as its
//!   unsized tail: one allocation per ULT, for every backend's ULTs.
//! * [`Handle`] — the one typed join handle over that record: the
//!   same `Arc`, reading the result back through [`Body::take_into`].
//! * [`WorkerCtx`]/[`enter_worker`] — the per-OS-thread executor
//!   context with the **post-switch protocol** (see below).
//! * [`run_ult`] — claim + switch into a ULT from a worker loop.
//! * [`yield_now`]/[`in_ult`]/[`current_worker`] — the in-ULT
//!   primitives, parameterized by the runtime's requeue policy.
//! * [`suspend`]/[`awaken`]/[`unit_waker`] — park a ULT *off* every
//!   queue (`CthSuspend`/`CthAwaken`) and the `Waker` that resumes it,
//!   over the shared [`lwt_sched::UnitPark`] handshake.
//! * [`block_on`]/[`UltCore::join_wait`] — every wait: poll, and on
//!   `Pending` suspend the ULT (or park the plain thread) until the
//!   awaited object's [`WaitList`] fires. A join is one suspend and
//!   one wake.
//! * [`TaskCell`]/[`ReadyUnit`]/[`run_unit`] ([`task`]) — the stackless
//!   futures bridge: `core::future::Future`s dispatched from the same
//!   ready queues as ULTs, with a hand-rolled waker vtable.
//! * [`blocking`] — the `spawn_blocking` OS-thread pool, so blocking
//!   syscalls never wedge a scheduler worker.
//!
//! ## The post-switch protocol
//!
//! A suspending ULT cannot mark itself resumable *before* its context
//! is saved (a racing worker could resume a stale context) nor *after*
//! (it no longer runs). So the suspender records a deferred action in
//! the worker context, and whichever code gains control after the
//! switch — the worker loop, or the next resumed ULT — executes it:
//! re-queue on yield (via the runtime's [`Requeue`] policy), or
//! `TERMINATED` publication on exit (only once the dying stack has been
//! switched away from).

#![warn(missing_docs)]

pub mod blocking;
pub mod engine;
pub mod task;

pub use blocking::BlockingPoolError;
pub use engine::{
    may_exit, straggler_table, worker_loop, Control, Crew, Policy, Pool, TaskHost,
};
pub use task::{run_unit, PollTask, ReadyUnit, TaskCell, TaskOutcome, TaskResched};

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use lwt_fiber::{cache, init_context, switch, switch_final, CachedStack, RawContext, StackSize};
use lwt_metrics::registry::{emit, record_spawn_latency, timestamp_if_tracing, COUNTERS};
use lwt_metrics::{span, timeline, EventKind};
use lwt_chaos::BlockKind;
use lwt_sched::UnitPark;
use lwt_sync::WaitList;

/// Work-unit lifecycle states.
pub mod state {
    /// Queued and claimable.
    pub const READY: u8 = 0;
    /// Claimed by a worker (running or suspended mid-yield-handoff).
    pub const RUNNING: u8 = 1;
    /// Completed.
    pub const TERMINATED: u8 = 2;
    /// Parked by [`crate::suspend`]; resumable only via
    /// [`crate::awaken`].
    pub const BLOCKED: u8 = 3;
}

/// The runtime-specific "where does a yielded ULT go" policy.
///
/// `worker` is the id passed to [`enter_worker`] by the worker loop the
/// yield happened on — MassiveThreads pushes to that worker's own
/// deque, Qthreads to the worker's shepherd, Go to the global queue;
/// Argobots ignores it and sends the unit to its home pool
/// ([`UltCore::home_queue`]).
pub trait Requeue: Send + Sync + 'static {
    /// Make a yielded `ult` runnable again; called on `worker`'s own
    /// thread. The core has already stored `READY` (Release) into the
    /// state word; implementations only enqueue the hint.
    fn requeue(&self, worker: usize, ult: Arc<UltCore>);

    /// Make an [`awaken`]ed `ult` runnable again on `worker`, the one
    /// it suspended on — called *from whatever thread fired the wake*
    /// (a reactor turn, a timer, another runtime's worker), so
    /// implementations must enqueue through a path any thread may use,
    /// keep the unit reachable if that worker is tied up, and wake the
    /// worker if it sleeps. Defaults to [`Requeue::requeue`].
    fn wake(&self, worker: usize, ult: Arc<UltCore>) {
        self.requeue(worker, ult);
    }

    /// The runtime's count of units suspended on `worker` — the drain
    /// contract's ledger. A suspended unit sits in no queue, so the
    /// core counts it here from just before it parks until just after
    /// its wake has requeued it, and a worker loop must not exit on
    /// `stop` while its count is non-zero (see [`may_exit`]). `None`
    /// (the default, and what bare closures get) opts out.
    fn suspended(&self, _worker: usize) -> Option<&AtomicUsize> {
        None
    }
}

impl<F: Fn(usize, Arc<UltCore>) + Send + Sync + 'static> Requeue for F {
    fn requeue(&self, worker: usize, ult: Arc<UltCore>) {
        self(worker, ult);
    }
}

/// What a unit runs and what its join takes: the unsized tail of every
/// [`UltCore`] (and of an Argobots tasklet). [`Work`] is the one
/// implementation; the trait exists so queues can hold units whose
/// closures and result types differ, and a typed handle reads the
/// result back through [`Body::take_into`].
pub trait Body: Send + Sync + 'static {
    /// Run the unit's closure, catching a panic, and keep its outcome
    /// for the join; then fill the backend's [`Signal`].
    ///
    /// # Safety
    ///
    /// The caller holds the unit's RUNNING claim, and calls this once.
    unsafe fn run(&self);

    /// Move the outcome — the value, or the panic that escaped the
    /// closure — into `out`; leaves `out` alone if it was taken already.
    ///
    /// # Safety
    ///
    /// `out` points to an `Option<std::thread::Result<T>>` for the
    /// closure's own result type `T`; the caller observed the unit's
    /// `TERMINATED` state (Acquire) and is the only taker.
    unsafe fn take_into(&self, out: *mut ());

    /// Wait on the backend's [`Signal`]; returns at once for `()`.
    fn wait_signal(&self);
}

/// A backend's own completion word, kept in the unit's allocation:
/// filled by the unit right after its closure returns or panics, and
/// waited on by its join before the state word. Qthreads' FEB return
/// word (`readFF`) is one; `()` is the none every other backend uses.
pub trait Signal: Send + Sync + 'static {
    /// Publish completion. Called once, on the unit's own stack.
    fn fill(&self);
    /// Block (suspend, inside a unit) until [`Signal::fill`].
    fn wait(&self);
}

impl Signal for () {
    fn fill(&self) {}
    fn wait(&self) {}
}

enum Stage<F, T> {
    /// Not run yet.
    Pending(F),
    /// Ran: the value, or the escaped panic.
    Done(std::thread::Result<T>),
    /// Running, or joined.
    Taken,
}

/// A unit's closure, then its outcome, in place, plus the backend's
/// [`Signal`]: the tail that makes a unit one allocation.
pub struct Work<F, T, S> {
    stage: UnsafeCell<Stage<F, T>>,
    signal: S,
}

// SAFETY: `stage` follows the claim protocol — the closure is taken and
// the outcome stored by the worker holding the RUNNING claim, and the
// outcome is taken only after TERMINATED (Release/Acquire) by the one
// consuming joiner.
unsafe impl<F: Send, T: Send, S: Send> Send for Work<F, T, S> {}
// SAFETY: see above; `signal` is shared as is.
unsafe impl<F: Send, T: Send, S: Sync> Sync for Work<F, T, S> {}

impl<F, T, S> Work<F, T, S> {
    /// `f`, not yet run, with `signal` empty.
    pub fn new(f: F, signal: S) -> Self {
        Work {
            stage: UnsafeCell::new(Stage::Pending(f)),
            signal,
        }
    }
}

impl<F, T, S> Body for Work<F, T, S>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
    S: Signal,
{
    unsafe fn run(&self) {
        // SAFETY: the RUNNING claim makes this the only access.
        let Stage::Pending(f) = (unsafe { std::mem::replace(&mut *self.stage.get(), Stage::Taken) })
        else {
            unreachable!("a unit's closure runs once")
        };
        let out = catch_unwind(AssertUnwindSafe(f));
        // SAFETY: still exclusive until TERMINATED is published.
        unsafe { *self.stage.get() = Stage::Done(out) };
        self.signal.fill();
    }

    unsafe fn take_into(&self, out: *mut ()) {
        // SAFETY: forwarded contract — the unit is done with the slot,
        // and `out` has this closure's result type.
        unsafe {
            if let Stage::Done(o) = std::mem::replace(&mut *self.stage.get(), Stage::Taken) {
                *out.cast::<Option<std::thread::Result<T>>>() = Some(o);
            }
        }
    }

    fn wait_signal(&self) {
        self.signal.wait();
    }
}

/// Re-types the thin address of a unit as the record every queue holds.
type Erase = fn(*const ()) -> *const UltCore;

/// [`Erase`] for units whose tail is `W`.
fn erase<W: Body>(p: *const ()) -> *const UltCore {
    p.cast::<UltCore<W>>() as *const UltCore
}

/// A stackful user-level thread record, with its [`Body`] as the
/// unsized tail. Queues, workers, wakers and its [`Handle`] all hold
/// the one allocation as `Arc<UltCore>` (`UltCore<dyn Body>`).
#[repr(C)]
pub struct UltCore<B: ?Sized = dyn Body> {
    /// First, so a waker's thin pointer to the record finds it
    /// (`repr(C)`: offset 0 whatever the tail).
    erase: Erase,
    state: AtomicU8,
    /// Saved context; valid whenever not RUNNING.
    ctx: UnsafeCell<RawContext>,
    /// Owned stack, on loan from the recycle cache; returned to it
    /// when the last Arc drops.
    stack: UnsafeCell<Option<CachedStack>>,
    /// The suspend/awaken handshake ([`crate::suspend`] parks in the
    /// post-switch Block processing, [`crate::awaken`] unparks).
    park: UnitPark,
    /// Whoever is blocked in [`UltCore::join_wait`]; fired once, right
    /// after `TERMINATED` is published.
    joiners: WaitList,
    /// Where a wake sends the unit: its runtime's hook (fixed at the
    /// first suspend — units never change runtimes; `Weak` so a parked
    /// unit cannot keep a finished runtime alive) and the worker it
    /// last suspended on.
    home: OnceLock<Weak<dyn Requeue>>,
    home_worker: AtomicUsize,
    /// The queue this unit belongs to whichever worker runs it, for a
    /// runtime whose hook places units by queue rather than by worker
    /// (Argobots' home pool); 0 and unread elsewhere. Written once at
    /// creation, like `span`; a `u32` fits the state word's padding.
    home_queue: u32,
    /// Creation timestamp for the spawn-to-first-run histogram; zero
    /// when tracing is off (the stamp is skipped) or already consumed.
    spawn_ns: AtomicU64,
    /// Causal span id ([`lwt_metrics::span`]), written once in `build`
    /// before the Arc is shared — plain field, no atomic needed. Zero
    /// when tracing was off at spawn; every hot-path use is gated on
    /// that, so the disabled cost is one field load.
    span: u64,
    /// The closure, then its outcome.
    body: B,
}

// SAFETY: interior fields follow the claim protocol — only the worker
// holding the RUNNING claim touches ctx and runs the body; state
// transitions publish with Release/Acquire.
unsafe impl<B: ?Sized + Send> Send for UltCore<B> {}
// SAFETY: see above.
unsafe impl<B: ?Sized + Sync> Sync for UltCore<B> {}

impl UltCore {
    /// Allocate a ULT that will run `f` when first scheduled, with no
    /// join handle (goroutines; [`Handle::spawn`] for one).
    ///
    /// The returned Arc must be enqueued by the caller (state starts
    /// READY).
    #[must_use]
    pub fn new<F>(stack_size: StackSize, f: F) -> Arc<UltCore>
    where
        F: FnOnce() + Send + 'static,
    {
        build(stack_size, 0, Work::new(f, ()))
    }

    /// Claim READY → RUNNING, acquiring exclusive execution rights.
    pub fn claim(&self) -> bool {
        self.state
            .compare_exchange(
                state::READY,
                state::RUNNING,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// The lifecycle state word (one of [`state`]'s constants).
    #[must_use]
    pub fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    /// The queue index given to [`Handle::spawn_with`] (0 otherwise):
    /// where an Argobots ULT goes back to on every yield and wake.
    #[must_use]
    #[inline]
    pub fn home_queue(&self) -> usize {
        self.home_queue as usize
    }

    /// The causal span id assigned at spawn (0 when tracing was off).
    /// Joiners pass this to [`lwt_metrics::span::on_join`].
    #[must_use]
    pub fn span_id(&self) -> u64 {
        self.span
    }

    /// Whether the ULT has completed.
    #[must_use]
    pub fn is_terminated(&self) -> bool {
        self.state.load(Ordering::Acquire) == state::TERMINATED
    }

    /// Wait for the ULT to complete — the mechanism under every
    /// join. A joiner inside a ULT is suspended and requeued by the
    /// completing worker; one on a plain OS thread sleeps in
    /// `thread::park`.
    pub fn join_wait(&self) {
        self.joiners
            .wait_until(BlockKind::Join, || self.is_terminated(), |poll| block_on(poll));
    }
}

/// Allocate the record for `body`, bootstrap its context on a cached
/// stack, and record the spawn: the one place a ULT is made.
fn build<W: Body>(stack_size: StackSize, home_queue: u32, body: W) -> Arc<UltCore<W>> {
    COUNTERS.ults_created.inc();
    let stack = cache::acquire(stack_size);
    // SAFETY: ult_entry never returns and finds its unit in the
    // worker's `current`, not through the (unused) data pointer.
    let ctx = unsafe { init_context(&stack, ult_entry, std::ptr::null_mut()) };
    Arc::new(UltCore {
        erase: erase::<W>,
        state: AtomicU8::new(state::READY),
        ctx: UnsafeCell::new(ctx),
        // Moving the stack into the record does not move its memory.
        stack: UnsafeCell::new(Some(stack)),
        park: UnitPark::new(),
        joiners: WaitList::new(),
        home: OnceLock::new(),
        home_worker: AtomicUsize::new(0),
        home_queue,
        spawn_ns: AtomicU64::new(timestamp_if_tracing()),
        span: span::on_spawn(),
        body,
    })
}

impl std::fmt::Debug for UltCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self.state.load(Ordering::Relaxed) {
            state::READY => "ready",
            state::RUNNING => "running",
            state::BLOCKED => "blocked",
            _ => "terminated",
        };
        write!(f, "UltCore({s})")
    }
}

/// The join handle of a ULT, on every backend: the unit's own `Arc`,
/// typed by the closure's result. Dropping it without joining detaches
/// the unit.
pub struct Handle<T> {
    ult: Arc<UltCore>,
    /// Only the constructors below make a handle, each from a [`Work`]
    /// whose result type is `T` (and `Send`): what `take_into` needs.
    result: PhantomData<fn() -> T>,
}

impl<T: Send + 'static> Handle<T> {
    /// Allocate a ULT that will run `f` when first scheduled. Enqueue
    /// [`Handle::unit`] to start it.
    #[must_use]
    pub fn spawn<F>(stack_size: StackSize, f: F) -> Self
    where
        F: FnOnce() -> T + Send + 'static,
    {
        Self::spawn_with(stack_size, 0, (), f)
    }

    /// [`Handle::spawn`] for a unit that belongs to queue `home_queue`
    /// of its runtime ([`UltCore::home_queue`]; Argobots' home pool, 0
    /// elsewhere) and whose join waits on `signal` before the state
    /// word (Qthreads' FEB return word, `()` elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if `home_queue` does not fit in a `u32`.
    #[must_use]
    pub fn spawn_with<F, S>(stack_size: StackSize, home_queue: usize, signal: S, f: F) -> Self
    where
        F: FnOnce() -> T + Send + 'static,
        S: Signal,
    {
        let home_queue = u32::try_from(home_queue).expect("queue index fits in u32");
        Handle {
            ult: build(stack_size, home_queue, Work::new(f, signal)),
            result: PhantomData,
        }
    }
}

impl<T> Handle<T> {
    /// The unit as queues hold it: the same allocation, one more
    /// reference.
    #[must_use]
    pub fn unit(&self) -> Arc<UltCore> {
        self.ult.clone()
    }

    /// Wait for completion and take the result, surfacing a panic that
    /// escaped the closure as a [`JoinError`] instead of re-raising it.
    /// Inside a ULT the joiner is suspended (its worker runs other units
    /// meanwhile) and requeued by the completion; a plain OS thread —
    /// the paper's master-thread join — sleeps in `thread::park`.
    ///
    /// # Errors
    ///
    /// [`JoinError`] carrying the panic payload.
    pub fn try_join(self) -> Result<T, JoinError> {
        self.ult.body.wait_signal();
        self.ult.join_wait();
        // Causal join edge: this context observed the unit's completion.
        span::on_join(self.ult.span);
        let mut out: Option<std::thread::Result<T>> = None;
        // SAFETY: the unit's result type is `T` (see `result`);
        // join_wait returned, so TERMINATED was observed with Acquire;
        // the handle is consumed, so this is the only take.
        unsafe { self.ult.body.take_into((&raw mut out).cast()) };
        out.expect("ULT result already taken").map_err(JoinError::new)
    }

    /// Wait for completion and take the result.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that escaped the closure.
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
        f.debug_tuple("Handle").field(&self.ult).finish()
    }
}

enum Post {
    None,
    Requeue(Arc<UltCore>),
    Terminated(Arc<UltCore>),
    /// Park the ULT (suspend) unless a wakeup already raced in, in
    /// which case requeue immediately.
    Block(Arc<UltCore>),
}

/// Per-OS-thread executor context.
pub struct WorkerCtx {
    sched_ctx: RawContext,
    current: Option<Arc<UltCore>>,
    post: Post,
    worker_id: usize,
    requeue: Arc<dyn Requeue>,
}

thread_local! {
    static WORKER: Cell<*mut WorkerCtx> = const { Cell::new(std::ptr::null_mut()) };
}

/// Read the worker TLS through an opaque call.
///
/// CRITICAL: every TLS read that can sit *after* a context switch in
/// the same function body must go through this `#[inline(never)]`
/// barrier. A ULT can resume on a different OS thread than it
/// suspended on; with the read inlined, LLVM legitimately CSEs the
/// thread-local address computed *before* the switch and hands the
/// resumed ULT the *previous* worker's context — double-processing its
/// post actions (observed as double-resumed ULTs in release builds).
#[inline(never)]
fn worker_ptr() -> *mut WorkerCtx {
    WORKER.with(Cell::get)
}

/// RAII registration of the calling OS thread as an executor.
///
/// Worker loops create this once, then call [`run_ult`] repeatedly.
pub struct WorkerGuard {
    ctx: *mut WorkerCtx,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        // SAFETY: ctx is live until the Box::from_raw below.
        emit(EventKind::EsStop, unsafe { (*self.ctx).worker_id } as u64);
        // Close the time-accounting books: stop extrapolating this
        // worker's in-progress state once it leaves the loop.
        timeline::retire();
        WORKER.with(|c| c.set(std::ptr::null_mut()));
        // SAFETY: created by Box::into_raw in enter_worker; no ULT is
        // running when the worker loop exits.
        drop(unsafe { Box::from_raw(self.ctx) });
    }
}

/// Register the calling OS thread as worker `worker_id` with the given
/// requeue policy. The guard must live for the whole worker loop.
#[must_use]
pub fn enter_worker(worker_id: usize, requeue: Arc<dyn Requeue>) -> WorkerGuard {
    let ctx = Box::into_raw(Box::new(WorkerCtx {
        sched_ctx: RawContext::null(),
        current: None,
        post: Post::None,
        worker_id,
        requeue,
    }));
    WORKER.with(|c| {
        assert!(c.get().is_null(), "thread is already an lwt worker");
        c.set(ctx);
    });
    emit(EventKind::EsStart, worker_id as u64);
    timeline::enter(timeline::WorkerState::Dispatch);
    WorkerGuard { ctx }
}

/// Run the deferred action left by whichever side switched away.
///
/// # Safety
///
/// `w` must be this thread's live `WorkerCtx`.
unsafe fn process_post(w: *mut WorkerCtx) {
    // SAFETY: exclusive by contract.
    let post = std::mem::replace(unsafe { &mut (*w).post }, Post::None);
    match post {
        Post::None => {}
        Post::Requeue(u) => {
            // READY must be published before the hint so the claim by
            // the eventual popper succeeds.
            u.state.store(state::READY, Ordering::Release);
            // SAFETY: worker fields are plain reads.
            let (id, rq) = unsafe { ((*w).worker_id, (*w).requeue.clone()) };
            rq.requeue(id, u);
        }
        Post::Terminated(u) => {
            u.state.store(state::TERMINATED, Ordering::Release);
            // After the publication, so a joiner resumed by this wake
            // finds TERMINATED; nobody waiting costs a fence and a load.
            u.joiners.wake_all();
        }
        Post::Block(u) => {
            // SAFETY: worker fields are plain reads; `w` outlives this
            // call, so the hook can be borrowed instead of cloned.
            let (id, rq) = unsafe { ((*w).worker_id, &*(*w).requeue) };
            // Counted before parking, so the decrement of the wake
            // that ends this suspension can never precede it.
            let count = rq.suspended(id);
            if let Some(c) = count {
                c.fetch_add(1, Ordering::Relaxed);
            }
            u.state.store(state::BLOCKED, Ordering::Release);
            if !u.park.park() {
                // awaken() arrived while the ULT was still switching
                // away: make it runnable again right now.
                u.state.store(state::READY, Ordering::Release);
                rq.requeue(id, u);
                if let Some(c) = count {
                    c.fetch_sub(1, Ordering::Release);
                }
            }
        }
    }
}

/// Claim and execute one ULT hint from a worker loop.
///
/// Returns `false` for stale hints (already claimed elsewhere), `true`
/// once the ULT ran until it yielded or finished.
///
/// # Panics
///
/// Panics if the calling thread has not [`enter_worker`]ed.
pub fn run_ult(ult: &Arc<UltCore>) -> bool {
    let w = worker_ptr();
    assert!(!w.is_null(), "run_ult outside an lwt worker");
    if !ult.claim() {
        return false;
    }
    record_spawn_latency(&ult.spawn_ns);
    if ult.span != 0 {
        // The unit's events (and any spans it spawns) attribute to it.
        span::set_current(ult.span);
    }
    timeline::enter(timeline::WorkerState::Busy);
    emit(EventKind::UltRun, 0);
    // SAFETY: the claim grants exclusive execution; `ctx` holds the
    // suspended (or bootstrap) context; `w` is live for the whole loop.
    unsafe {
        (*w).current = Some(ult.clone());
        let target = *ult.ctx.get();
        switch(&mut (*w).sched_ctx, target);
        process_post(w);
    }
    timeline::enter(timeline::WorkerState::Dispatch);
    if lwt_metrics::tracing_enabled() {
        // Back in scheduler context; `yield_to` chains may have left a
        // different span current, so clear unconditionally under the
        // tracing gate.
        span::set_current(span::NO_SPAN);
    }
    true
}

/// Entry point of every ULT (first frames on its own stack).
unsafe extern "sysv64" fn ult_entry(_: *mut u8) -> ! {
    let w = worker_ptr();
    debug_assert!(!w.is_null());
    // SAFETY: live worker ctx; completes any handoff that targeted us.
    unsafe { process_post(w) };

    // The unit is whatever the worker just switched into. A raw
    // pointer, not a borrow of `current`: yields hand the unit from
    // worker to worker, and whichever holds it keeps it alive.
    // SAFETY: live worker ctx, whose `current` is this unit.
    let ult: *const UltCore =
        unsafe { Arc::as_ptr((*w).current.as_ref().expect("starting ULT not current")) };
    // SAFETY: the RUNNING claim grants exclusive access, once.
    unsafe { (*ult).body.run() };
    // Final segment ends here, on whichever worker ran it.
    // SAFETY: see above.
    span::on_complete(unsafe { (*ult).span });

    // Re-fetch: yields may have migrated us to another worker.
    let w = worker_ptr();
    // SAFETY: live worker ctx of whichever worker resumed us.
    unsafe {
        let me = (*w).current.take().expect("finishing ULT not current");
        (*w).post = Post::Terminated(me);
        let sched = (*w).sched_ctx;
        switch_final(sched)
    }
}

/// Yield the calling ULT: its runtime's [`Requeue`] policy decides
/// where it becomes runnable again.
///
/// # Panics
///
/// Panics when called outside a ULT.
pub fn yield_now() {
    let w = worker_ptr();
    assert!(
        !w.is_null() && unsafe { (*w).current.is_some() },
        "lwt_ultcore::yield_now() outside a ULT"
    );
    COUNTERS.yields.inc();
    emit(EventKind::Yield, 0);
    // SAFETY: same protocol as lwt-argobots (see module docs): the
    // requeue is deferred to whoever gains control after the switch.
    unsafe {
        let me = (*w).current.take().expect("yielding ULT not current");
        let my_ctx: *mut RawContext = me.ctx.get();
        (*w).post = Post::Requeue(me);
        let sched = (*w).sched_ctx;
        switch(&mut *my_ctx, sched);
        let w = worker_ptr();
        process_post(w);
    }
}

/// Transfer control directly to `target`, re-queuing the calling ULT
/// via the runtime's [`Requeue`] policy — the primitive behind
/// MassiveThreads' *work-first* creation ("the current work unit is
/// pushed into the ready queue and the thread executes the new work
/// unit").
///
/// Returns `false` (without switching) when `target` could not be
/// claimed (already running or finished).
///
/// # Panics
///
/// Panics when called outside a ULT.
pub fn yield_to(target: &Arc<UltCore>) -> bool {
    let w = worker_ptr();
    assert!(
        !w.is_null() && unsafe { (*w).current.is_some() },
        "lwt_ultcore::yield_to() outside a ULT"
    );
    if !target.claim() {
        return false;
    }
    COUNTERS.yields.inc();
    emit(EventKind::Yield, 0);
    record_spawn_latency(&target.spawn_ns);
    if target.span != 0 {
        span::set_current(target.span);
    }
    emit(EventKind::UltRun, 0);
    // SAFETY: same protocol as yield_now, with control landing in the
    // claimed target; the target's resume path (or entry) performs our
    // requeue.
    unsafe {
        let me = (*w).current.take().expect("yielding ULT not current");
        let my_ctx: *mut RawContext = me.ctx.get();
        (*w).post = Post::Requeue(me);
        (*w).current = Some(target.clone());
        let tctx = *target.ctx.get();
        switch(&mut *my_ctx, tctx);
        let w = worker_ptr();
        process_post(w);
    }
    true
}

/// Park the calling ULT (`CthSuspend`): it leaves every queue and
/// costs its worker nothing until some other code calls [`awaken`] on
/// it (directly, or through a [`unit_waker`]). A wake that arrived
/// since the last suspend makes this return immediately, so callers
/// loop on their condition.
///
/// # Panics
///
/// Panics when called outside a ULT.
pub fn suspend() {
    let w = worker_ptr();
    assert!(
        !w.is_null() && unsafe { (*w).current.is_some() },
        "lwt_ultcore::suspend() outside a ULT"
    );
    // SAFETY: same switching protocol as yield_now; publication of the
    // BLOCKED state is deferred to the post-switch processing, which
    // also resolves races with concurrent awaken() calls.
    unsafe {
        let me = (*w).current.take().expect("suspending ULT not current");
        me.home.get_or_init(|| Arc::downgrade(&(*w).requeue));
        me.home_worker.store((*w).worker_id, Ordering::Relaxed);
        let my_ctx: *mut RawContext = me.ctx.get();
        (*w).post = Post::Block(me);
        let sched = (*w).sched_ctx;
        switch(&mut *my_ctx, sched);
        let w = worker_ptr();
        process_post(w);
    }
}

/// Make a [`suspend`]ed ULT runnable again (`CthAwaken`) through its
/// runtime's [`Requeue::wake`] hook, on the worker it suspended on. Callable
/// from any thread, any number of times: a wake that finds the ULT
/// still running (or mid-switch, or not yet started) is remembered
/// and makes its next [`suspend`] return at once — early, never lost.
/// Returns `false` only when there is nothing left to wake: the ULT
/// has terminated.
pub fn awaken(ult: &Arc<UltCore>) -> bool {
    if ult.park.unpark() {
        // Parked, so `suspend` recorded where to; a unit whose runtime
        // is already gone has nowhere to run and is simply dropped.
        if let Some(home) = ult.home.get().and_then(Weak::upgrade) {
            let worker = ult.home_worker.load(Ordering::Relaxed);
            ult.state.store(state::READY, Ordering::Release);
            home.wake(worker, ult.clone());
            // After the push (Release): a worker that reads zero here
            // also sees the queue entry — see `may_exit`.
            if let Some(c) = home.suspended(worker) {
                c.fetch_sub(1, Ordering::Release);
            }
        }
        // Woken, even if its worker has already run it to the end.
        return true;
    }
    !ult.is_terminated()
}

/// The unit a waker's data pointer — a thin `Arc::into_raw` of it —
/// names.
///
/// # Safety
///
/// `p` came from [`unit_waker`] (or a clone) and its reference is live.
unsafe fn waker_unit(p: *const ()) -> *const UltCore {
    // SAFETY: `p` addresses a live UltCore, whose first field
    // (`repr(C)`) is its `erase` function.
    unsafe { (*p.cast::<Erase>())(p) }
}

/// `Waker` vtable over a unit's own `Arc`: `clone` is one count
/// increment, `wake` an [`awaken`]. (`Waker::from(Arc<_>)` needs a
/// sized `Arc`; a unit's is a fat pointer, so the data word carries
/// its thin address and the record re-types it.)
const UNIT_WAKER: RawWakerVTable = RawWakerVTable::new(
    // SAFETY (all four): `p` holds one reference, per `waker_unit`.
    |p| {
        unsafe { Arc::increment_strong_count(waker_unit(p)) };
        RawWaker::new(p, &UNIT_WAKER)
    },
    |p| {
        awaken(&unsafe { Arc::from_raw(waker_unit(p)) });
    },
    |p| {
        awaken(&ManuallyDrop::new(unsafe { Arc::from_raw(waker_unit(p)) }));
    },
    |p| drop(unsafe { Arc::from_raw(waker_unit(p)) }),
);

/// A [`Waker`] that [`awaken`]s the calling ULT — a clone of the unit's
/// own `Arc`, so building one allocates nothing. Pair it with
/// [`suspend`]: publish the waker, re-check the condition, suspend.
///
/// # Panics
///
/// Panics when called outside a ULT.
#[must_use]
pub fn unit_waker() -> Waker {
    let w = worker_ptr();
    assert!(!w.is_null(), "lwt_ultcore::unit_waker() outside a ULT");
    // SAFETY: live ctx of this thread.
    let me = unsafe { (*w).current.clone() };
    let me = me.expect("lwt_ultcore::unit_waker() outside a ULT");
    let p = Arc::into_raw(me).cast::<()>();
    // SAFETY: UNIT_WAKER's contract matches the reference `p` holds.
    unsafe { Waker::from_raw(RawWaker::new(p, &UNIT_WAKER)) }
}

/// Whether the caller is executing inside a ULT.
#[must_use]
pub fn in_ult() -> bool {
    let w = worker_ptr();
    // SAFETY: when non-null, w is this thread's live ctx.
    !w.is_null() && unsafe { (*w).current.is_some() }
}

/// Id of the worker executing the caller, if on a worker thread.
#[must_use]
pub fn current_worker() -> Option<usize> {
    let w = worker_ptr();
    if w.is_null() {
        None
    } else {
        // SAFETY: live ctx.
        Some(unsafe { (*w).worker_id })
    }
}

/// Drive `poll` to completion, suspending the caller after each
/// `Pending`: a ULT through [`suspend`] (its waker [`awaken`]s it), a
/// plain OS thread through `thread::park`. `poll` follows the future
/// contract — publish `cx.waker()`, re-check, then `Pending` — which
/// [`WaitList::poll_until`] and the `lwt-sync` `poll_*` methods do.
pub fn block_on<T>(poll: impl FnMut(&mut Context<'_>) -> Poll<T>) -> T {
    if in_ult() {
        lwt_sync::block_on(&unit_waker(), suspend, poll)
    } else {
        lwt_sync::block_thread_on(poll)
    }
}

/// One work unit (or queue of them) still pending when a bounded
/// drain gave up — an entry in [`DrainError`]'s straggler table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Straggler {
    /// Worker/queue index the pending work was observed on.
    pub worker: usize,
    /// How many units were still pending there.
    pub pending: usize,
    /// What the pending count measures (backend-specific: "ready
    /// queue", "pool", "outstanding messages", …).
    pub what: &'static str,
}

impl std::fmt::Display for Straggler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker {}: {} pending in {}", self.worker, self.pending, self.what)
    }
}

/// A bounded runtime drain (`Glt::finalize`, backend
/// `shutdown_within`) hit its deadline with work still outstanding.
///
/// The runtime's workers were told to abandon their loops and were
/// joined — nothing is left running — but the listed [`Straggler`]s
/// never completed. Blocked units were *abandoned in place* (their
/// stacks and results are freed with the runtime), never unwound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainError {
    /// How long the drain waited before giving up.
    pub waited: std::time::Duration,
    /// Where work was still pending, one entry per non-idle location.
    /// May be empty: a wedged unit *running* (not queued) on a worker
    /// leaves no queue residue but still fails the drain.
    pub stragglers: Vec<Straggler>,
}

impl std::fmt::Display for DrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "runtime drain incomplete after {:?}: ",
            self.waited
        )?;
        if self.stragglers.is_empty() {
            write!(f, "workers still busy (no queued stragglers)")
        } else {
            let total: usize = self.stragglers.iter().map(|s| s.pending).sum();
            write!(f, "{total} unit(s) never completed [")?;
            for (i, s) in self.stragglers.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "{s}")?;
            }
            write!(f, "]")
        }
    }
}

impl std::error::Error for DrainError {}

/// Why a fallible join (`try_join`) failed: the joined work unit
/// panicked instead of completing.
///
/// Every runtime's `Handle::try_join` (and the GLT layer's
/// `GltHandle::try_join`) returns this one type, so cross-backend
/// code handles child panics uniformly. The infallible `join`s are
/// thin wrappers that [`JoinError::resume`] the payload.
pub struct JoinError(Box<dyn Any + Send>);

impl JoinError {
    /// Wrap a captured panic payload.
    #[must_use]
    pub fn new(payload: Box<dyn Any + Send>) -> Self {
        JoinError(payload)
    }

    /// The panic payload, for inspection or re-raising by hand.
    #[must_use]
    pub fn into_panic(self) -> Box<dyn Any + Send> {
        self.0
    }

    /// Re-raise the child's panic on the calling thread — the behavior
    /// of the infallible `join`s.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.0)
    }

    /// Panic message, when the payload is a string (the common case).
    #[must_use]
    pub fn message(&self) -> Option<&str> {
        self.0
            .downcast_ref::<&'static str>()
            .copied()
            .or_else(|| self.0.downcast_ref::<String>().map(String::as_str))
    }
}

impl std::fmt::Debug for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("JoinError")
            .field(&self.message().unwrap_or("<non-string panic payload>"))
            .finish()
    }
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.message() {
            Some(msg) => write!(f, "joined work unit panicked: {msg}"),
            None => write!(f, "joined work unit panicked"),
        }
    }
}

impl std::error::Error for JoinError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// Minimal runtime over the core and the engine: a [`Pool`] whose
    /// workers steal from every other worker, round-robin external
    /// injection.
    pub(super) struct MiniRt {
        pub(super) pool: Arc<Pool>,
        next: AtomicUsize,
        crew: Crew,
    }

    struct Sweep<'a> {
        pool: &'a Pool,
        id: usize,
    }

    impl Sweep<'_> {
        fn others(&self) -> impl Iterator<Item = usize> + '_ {
            (0..self.pool.workers()).filter(move |&v| v != self.id)
        }
    }

    impl Policy for Sweep<'_> {
        type Unit = ReadyUnit;
        const STEALS: bool = true;

        fn next(&mut self) -> Option<ReadyUnit> {
            self.pool.next(self.id, self.others())
        }

        fn run(&mut self, unit: ReadyUnit) {
            run_unit(&unit);
        }

        fn reachable(&self) -> usize {
            self.pool.reachable(self.id, self.others())
        }

        fn drained(&self) -> bool {
            self.pool.drained(self.id)
        }
    }

    impl MiniRt {
        pub(super) fn new(nworkers: usize) -> Self {
            let crew = Crew::new(nworkers);
            let pool = Pool::new(nworkers, false, crew.control().clone());
            for id in 0..nworkers {
                let pool = pool.clone();
                crew.spawn(format!("mini-{id}"), move || {
                    pool.run_worker(id, "test", Sweep { pool: &pool, id });
                });
            }
            MiniRt {
                pool,
                next: AtomicUsize::new(0),
                crew,
            }
        }

        pub(super) fn spawn(&self, f: impl FnOnce() + Send + 'static) -> Arc<UltCore> {
            let u = UltCore::new(StackSize(32 * 1024), f);
            let target = self.next.fetch_add(1, Ordering::Relaxed) % self.pool.workers();
            self.pool.inject(target, u.clone().into());
            u
        }

        pub(super) fn shutdown(self) {
            self.crew.shutdown();
        }
    }

    #[test]
    fn ults_run_and_terminate() {
        let rt = MiniRt::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let ults: Vec<_> = (0..100)
            .map(|_| {
                let h = hits.clone();
                rt.spawn(move || {
                    h.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for u in &ults {
            u.join_wait();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        rt.shutdown();
    }

    #[test]
    fn yield_interleaves_and_migrates() {
        let rt = MiniRt::new(2);
        let u = rt.spawn(|| {
            for _ in 0..10 {
                assert!(in_ult());
                assert!(current_worker().is_some());
                yield_now();
            }
        });
        u.join_wait();
        rt.shutdown();
    }

    #[test]
    fn handle_round_trip() {
        let rt = MiniRt::new(1);
        let h = Handle::spawn(StackSize(32 * 1024), || 99);
        rt.pool.inject(0, h.unit().into());
        assert_eq!(h.join(), 99);
        rt.shutdown();
    }

    #[test]
    fn panic_is_captured_not_fatal() {
        let rt = MiniRt::new(1);
        let h = Handle::spawn(StackSize(32 * 1024), || -> u8 { panic!("inside ULT") });
        rt.pool.inject(0, h.unit().into());
        let p = h.try_join().expect_err("panic captured").into_panic();
        assert_eq!(p.downcast_ref::<&str>(), Some(&"inside ULT"));
        rt.shutdown();
    }

    #[test]
    fn stale_hints_are_skipped() {
        let rt = MiniRt::new(1);
        let u = rt.spawn(|| {});
        u.join_wait();
        // The unit already ran; a duplicate hint must not re-execute.
        assert!(!run_ult_from_external(&u));
        rt.shutdown();
    }

    fn run_ult_from_external(u: &Arc<UltCore>) -> bool {
        // Claim should fail on a terminated unit; we do not need a
        // worker context for a failed claim.
        u.claim()
    }

    #[test]
    fn outside_worker_reports() {
        assert!(!in_ult());
        assert_eq!(current_worker(), None);
    }

    #[test]
    fn a_ult_joiner_is_suspended_not_rescheduled() {
        let rt = MiniRt::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        let g2 = gate.clone();
        let child = rt.spawn(move || {
            while !g2.load(Ordering::Acquire) {
                yield_now();
            }
        });
        let c2 = child.clone();
        let joiner = rt.spawn(move || c2.join_wait());
        // The joiner leaves the queue; only the child keeps running.
        while joiner.state.load(Ordering::Acquire) != state::BLOCKED {
            std::thread::yield_now();
        }
        gate.store(true, Ordering::Release);
        joiner.join_wait();
        assert!(child.is_terminated());
        rt.shutdown();
    }
}

#[cfg(test)]
mod suspend_tests {
    use super::tests::MiniRt;
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    #[test]
    fn suspend_then_awaken_resumes() {
        let rt = MiniRt::new(1);
        let progress = Arc::new(AtomicUsize::new(0));
        let p = progress.clone();
        let u = rt.spawn(move || {
            p.fetch_add(1, Ordering::SeqCst);
            suspend();
            p.fetch_add(1, Ordering::SeqCst);
        });
        // Wait until parked.
        while progress.load(Ordering::SeqCst) < 1 || !matches!(
            u.state.load(Ordering::Acquire),
            state::BLOCKED
        ) {
            std::thread::yield_now();
        }
        assert_eq!(progress.load(Ordering::SeqCst), 1);
        assert!(awaken(&u));
        u.join_wait();
        assert_eq!(progress.load(Ordering::SeqCst), 2);
        rt.shutdown();
    }

    #[test]
    fn awaken_racing_suspend_is_not_lost() {
        // Hammer the park/wake race: the awakener fires as fast as it
        // can while the ULT suspends repeatedly.
        const ROUNDS: usize = 200;
        let rt = MiniRt::new(1);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let u = rt.spawn(move || {
            for _ in 0..ROUNDS {
                suspend();
                h.fetch_add(1, Ordering::SeqCst);
            }
        });
        let mut woken = 0;
        while woken < ROUNDS {
            if awaken(&u) {
                woken += 1;
                // Wait for the wakeup to be consumed before the next,
                // so each suspend pairs with one awaken.
                let target = woken;
                while hits.load(Ordering::SeqCst) < target && !u.is_terminated() {
                    std::thread::yield_now();
                }
            } else {
                std::thread::yield_now();
            }
        }
        u.join_wait();
        assert_eq!(hits.load(Ordering::SeqCst), ROUNDS);
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "outside a ULT")]
    fn suspend_outside_ult_panics() {
        suspend();
    }

    #[test]
    fn awaken_before_the_first_suspend_is_remembered() {
        // The waker can fire before the unit has ever suspended (or
        // even run): the wake must make that first suspend return.
        let rt = MiniRt::new(1);
        let u = UltCore::new(lwt_fiber::StackSize(16 * 1024), suspend);
        assert!(awaken(&u));
        rt.pool.inject(0, u.clone().into());
        u.join_wait();
        assert!(!awaken(&u), "nothing left to wake");
        rt.shutdown();
    }

    #[test]
    fn debug_names_the_blocked_state() {
        let u = UltCore::new(lwt_fiber::StackSize(16 * 1024), || ());
        u.state.store(state::BLOCKED, Ordering::Relaxed);
        assert_eq!(format!("{u:?}"), "UltCore(blocked)");
    }

    #[test]
    fn unit_waker_resumes_from_a_foreign_thread() {
        let rt = MiniRt::new(1);
        let slot: Arc<std::sync::Mutex<Option<Waker>>> = Arc::default();
        let done = Arc::new(AtomicBool::new(false));
        let (s2, d2) = (slot.clone(), done.clone());
        let u = rt.spawn(move || {
            *s2.lock().unwrap() = Some(unit_waker());
            while !d2.load(Ordering::Acquire) {
                suspend();
            }
        });
        let waker = loop {
            if let Some(w) = slot.lock().unwrap().take() {
                break w;
            }
            std::thread::yield_now();
        };
        done.store(true, Ordering::Release);
        waker.wake();
        u.join_wait();
        rt.shutdown();
    }
}
