//! Execution streams: the scheduler loop, the post-switch protocol, and
//! the in-ULT primitives (`yield_now`, `yield_to`).
//!
//! ## The post-switch protocol
//!
//! A suspending ULT cannot publish "I am resumable" *before* its
//! context is saved (a racing stream could resume a stale context), and
//! cannot publish it *after* (it no longer runs). The runtime therefore
//! hands the publication to whichever code gains control after the
//! switch: the suspender records a [`Post`] action in the stream-local
//! [`EsCtx`], and the scheduler loop (after its `switch` returns) or
//! the resumed ULT (first thing after *its* `switch` returns, or at
//! entry for a fresh ULT) executes it. The same mechanism lets a
//! finishing ULT be marked `TERMINATED` only after its dying stack has
//! been switched away from — closing the stack-free race described in
//! `DESIGN.md` §7.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use lwt_fiber::{switch, switch_final, RawContext};
use lwt_metrics::registry::{emit, COUNTERS};
use lwt_metrics::{span, timeline, EventKind};
use lwt_sync::SpinLock;
use lwt_ultcore::{worker_loop, Control, Policy};

use crate::pool::PoolShared;
use crate::sched::{BasicScheduler, Pick, SchedContext, Scheduler};
use crate::unit::{
    record_spawn_latency, Unit, UltHandle, UltInner, BLOCKED, READY, RUNNING, TERMINATED,
};

/// Deferred action executed by whoever gains control after a switch.
pub(crate) enum Post {
    None,
    /// Mark READY and push back into its home pool (a yield).
    Requeue(Arc<UltInner>),
    /// Mark TERMINATED (the ULT finished; its stack is now quiescent).
    Terminated(Arc<UltInner>),
    /// Park the ULT off every pool (`self_suspend`) unless a resume
    /// already raced in, in which case requeue immediately.
    Block(Arc<UltInner>),
}

/// Stream-local execution context, owned by the stream's OS thread and
/// reached from ULTs through the `ES` thread-local.
pub(crate) struct EsCtx {
    pub(crate) sched_ctx: RawContext,
    pub(crate) current: Option<Arc<UltInner>>,
    pub(crate) post: Post,
    pub(crate) stream_id: usize,
}

thread_local! {
    static ES: Cell<*mut EsCtx> = const { Cell::new(std::ptr::null_mut()) };
}

/// Read the stream TLS through an opaque call — see
/// `lwt_ultcore::worker_ptr` for why this must be `#[inline(never)]`:
/// a ULT resumed on another stream must re-read the thread-local, and
/// inlined reads get CSE'd across the switch in release builds.
#[inline(never)]
fn es_ptr() -> *mut EsCtx {
    ES.with(Cell::get)
}

/// Shared state of one execution stream.
pub(crate) struct StreamShared {
    pub(crate) id: usize,
    /// Pools this stream drains, own pool first. Fixed at creation.
    pub(crate) pools: Vec<Arc<PoolShared>>,
    /// Runtime-wide stop/abandon flags and park group; slot `id` is
    /// this stream's parker. (Streams beyond the park group's capacity
    /// — heavy `stream_create` use — degrade to a bounded nap inside
    /// `park`.) Pushes into any of this stream's pools fire the pool's
    /// wake hook.
    pub(crate) ctl: Arc<Control>,
    /// Schedulers pushed by `Runtime::push_scheduler`, adopted by the
    /// stream loop (stacked on top of the current one).
    pub(crate) mailbox: SpinLock<Vec<Box<dyn Scheduler>>>,
}

/// One stream's scheduling policy: whatever the scheduler on top of
/// its stack picks — the pluggable, stackable part of Table I.
struct Stream<'a> {
    shared: &'a StreamShared,
    es: *mut EsCtx,
    ctx: SchedContext,
    scheds: Vec<Box<dyn Scheduler>>,
}

impl Policy for Stream<'_> {
    type Unit = Unit;
    /// Pools are the placement unit; streams do not steal.
    const STEALS: bool = false;

    fn next(&mut self) -> Option<Unit> {
        {
            let mut mb = self.shared.mailbox.lock();
            while let Some(s) = mb.pop() {
                self.scheds.push(s);
            }
        }
        loop {
            let top = self.scheds.last_mut().expect("scheduler stack never empties");
            match top.pick(&self.ctx) {
                Pick::Run(unit) => return Some(unit.0),
                Pick::Idle => return None,
                // Pop back to the previous scheduler and ask it. The
                // base scheduler never reports Done.
                Pick::Done if self.scheds.len() > 1 => {
                    let mut done = self.scheds.pop().expect("non-empty stack");
                    done.unload(&self.ctx);
                }
                Pick::Done => return None,
            }
        }
    }

    fn run(&mut self, unit: Unit) {
        // SAFETY: `es` is live for the whole loop; no aliasing &mut
        // exists while execute runs (ULTs reach it only via the same
        // raw pointer).
        unsafe { execute(self.es, unit) };
    }

    fn reachable(&self) -> usize {
        self.shared.pools.iter().map(|p| p.len()).sum()
    }

    fn drained(&self) -> bool {
        self.shared.pools.iter().all(|p| p.is_drained())
    }
}

/// The stream main loop, run on a dedicated OS thread.
pub(crate) fn es_main(shared: &StreamShared) {
    let es = Box::into_raw(Box::new(EsCtx {
        sched_ctx: RawContext::null(),
        current: None,
        post: Post::None,
        stream_id: shared.id,
    }));
    ES.with(|c| c.set(es));
    emit(EventKind::EsStart, shared.id as u64);
    timeline::enter(timeline::WorkerState::Dispatch);

    let stream = Stream {
        shared,
        es,
        ctx: SchedContext {
            pools: shared.pools.clone(),
        },
        scheds: vec![Box::new(BasicScheduler::new())],
    };
    worker_loop(&shared.ctl, shared.id, "argobots", stream);

    emit(EventKind::EsStop, shared.id as u64);
    timeline::retire();
    ES.with(|c| c.set(std::ptr::null_mut()));
    // SAFETY: `es` came from Box::into_raw above; no ULT still runs on
    // this stream (the loop exits only between units).
    drop(unsafe { Box::from_raw(es) });
}

/// Execute one claimed-or-stale unit hint.
///
/// # Safety
///
/// `es` must be this thread's live `EsCtx` with no outstanding `&mut`.
unsafe fn execute(es: *mut EsCtx, unit: Unit) {
    match unit {
        Unit::Task(t) => {
            // The task's state machine is its claim CAS (begin_poll
            // fails on a stale hint) and run() does its own timeline,
            // span, and metrics bookkeeping.
            t.run();
        }
        Unit::Tasklet(t) => {
            if !t.claim() {
                return; // stale hint
            }
            record_spawn_latency(&t.spawn_ns);
            timeline::enter(timeline::WorkerState::Busy);
            if t.span != 0 {
                span::set_current(t.span);
            }
            emit(EventKind::TaskletExec, 0);
            // SAFETY: the claim grants exclusive access to `entry`.
            let f = unsafe { (*t.entry.get()).take().expect("tasklet entry missing") };
            if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
                // SAFETY: still exclusive until TERMINATED is published.
                unsafe { *t.panic.get() = Some(p) };
            }
            span::on_complete(t.span);
            if t.span != 0 {
                span::set_current(span::NO_SPAN);
            }
            timeline::enter(timeline::WorkerState::Dispatch);
            t.state.store(TERMINATED, Ordering::Release);
            t.joiners.wake_all();
        }
        Unit::Ult(u) => {
            if !u.claim() {
                return; // stale hint
            }
            record_spawn_latency(&u.spawn_ns);
            timeline::enter(timeline::WorkerState::Busy);
            if u.span != 0 {
                span::set_current(u.span);
            }
            emit(EventKind::UltRun, 0);
            // SAFETY: the claim grants exclusive execution; `ctx` holds
            // the ULT's suspended (or bootstrap) context.
            unsafe {
                (*es).current = Some(u.clone());
                let target = *u.ctx.get();
                switch(&mut (*es).sched_ctx, target);
                process_post(es);
            }
            timeline::enter(timeline::WorkerState::Dispatch);
            // A yield_to chain may have left some other ULT's span
            // current on this thread; clear it so scheduler-side events
            // don't get mis-attributed.
            if lwt_metrics::tracing_enabled() {
                span::set_current(span::NO_SPAN);
            }
        }
    }
}

/// Run the deferred action left behind by the side that switched away.
///
/// # Safety
///
/// `es` must be this thread's live `EsCtx`.
pub(crate) unsafe fn process_post(es: *mut EsCtx) {
    // SAFETY: exclusive by contract.
    let post = std::mem::replace(unsafe { &mut (*es).post }, Post::None);
    match post {
        Post::None => {}
        Post::Requeue(u) => {
            // SAFETY: `home` is written once at creation.
            let home = unsafe { (*u.home.get()).clone().expect("ULT has no home pool") };
            // READY must be visible before the hint, or a racing popper
            // would fail the claim and drop the only wakeup.
            u.state.store(READY, Ordering::Release);
            home.push(Unit::Ult(u));
        }
        Post::Terminated(u) => {
            u.state.store(TERMINATED, Ordering::Release);
            // After the publication, so a joiner resumed by this wake
            // finds TERMINATED; nobody waiting costs a fence and a load.
            u.joiners.wake_all();
        }
        Post::Block(u) => {
            // SAFETY: `home` is written once at creation.
            let home = unsafe { (*u.home.get()).clone().expect("ULT has no home pool") };
            // Counted before parking, so the decrement of the resume
            // that ends this suspension can never precede it.
            home.suspended.fetch_add(1, Ordering::Relaxed);
            u.state.store(BLOCKED, Ordering::Release);
            if !u.park.park() {
                // resume() arrived while the ULT was still switching
                // away: it is runnable again right now.
                requeue_resumed(&home, u);
            }
        }
    }
}

/// Second half of a resume, run by whichever side of the
/// [`lwt_sched::UnitPark`] handshake owns the requeue: publish READY,
/// push, and only then stop counting the unit as suspended (a stream
/// that reads zero must also see the pool entry).
fn requeue_resumed(home: &PoolShared, u: Arc<UltInner>) {
    u.state.store(READY, Ordering::Release);
    home.push(Unit::Ult(u));
    home.suspended.fetch_sub(1, Ordering::Release);
}

/// Make a suspended ULT runnable again in its home pool
/// (`ABT_thread_resume`); see [`UltHandle::resume`].
pub(crate) fn resume(u: &Arc<UltInner>) {
    if u.park.unpark() {
        // SAFETY: `home` is written once at creation.
        let home = unsafe { (*u.home.get()).clone().expect("ULT has no home pool") };
        requeue_resumed(&home, u.clone());
    }
}

impl Wake for UltInner {
    fn wake(self: Arc<Self>) {
        resume(&self);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        resume(self);
    }
}

/// Entry point of every ULT (runs on the ULT's own stack).
pub(crate) unsafe extern "sysv64" fn ult_entry(data: *mut u8) -> ! {
    let es = es_ptr();
    debug_assert!(!es.is_null());
    // Complete a yield_to handoff that targeted this fresh ULT.
    // SAFETY: es is this worker's live context.
    unsafe { process_post(es) };

    // SAFETY: `data` is the UltInner kept alive by the Arc in
    // es.current for the whole execution.
    let inner = unsafe { &*data.cast::<UltInner>() };
    // SAFETY: the RUNNING claim grants exclusive access to `entry`.
    let f = unsafe { (*inner.entry.get()).take().expect("ULT entry missing") };
    if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
        // SAFETY: still the exclusive owner until TERMINATED.
        unsafe { *inner.panic.get() = Some(p) };
    }
    span::on_complete(inner.span);

    // Re-fetch: the ULT may have migrated to another stream via yields.
    let es = es_ptr();
    // SAFETY: es is the live context of whichever stream resumed us.
    unsafe {
        let me = (*es).current.take().expect("finishing ULT not current");
        (*es).post = Post::Terminated(me);
        let sched = (*es).sched_ctx;
        switch_final(sched)
    }
}

/// Yield the calling ULT back to its stream's scheduler
/// (`ABT_thread_yield`).
///
/// # Panics
///
/// Panics when called outside a ULT.
pub fn yield_now() {
    let es = es_ptr();
    assert!(
        !es.is_null() && unsafe { (*es).current.is_some() },
        "lwt_argobots::yield_now() outside a ULT"
    );
    COUNTERS.yields.inc();
    emit(EventKind::Yield, 0);
    // SAFETY: es live; `me` stays alive through the Arc moved into
    // `post` plus the pool hint; my ctx slot outlives the suspension.
    unsafe {
        let me = (*es).current.take().expect("yielding ULT not current");
        let my_ctx: *mut RawContext = me.ctx.get();
        (*es).post = Post::Requeue(me);
        let sched = (*es).sched_ctx;
        switch(&mut *my_ctx, sched);
        // Resumed (possibly on another stream): finish the resumer's
        // handoff.
        let es = es_ptr();
        process_post(es);
    }
}

/// Park the calling ULT (`ABT_self_suspend`): it leaves every pool and
/// costs its stream nothing until [`UltHandle::resume`] or a
/// [`unit_waker`] puts it back in its home pool. A resume that arrived
/// since the last suspend makes this return immediately, so callers
/// loop on their condition.
///
/// # Panics
///
/// Panics when called outside a ULT.
pub fn self_suspend() {
    let es = es_ptr();
    assert!(
        !es.is_null() && unsafe { (*es).current.is_some() },
        "lwt_argobots::self_suspend() outside a ULT"
    );
    // SAFETY: same switching protocol as yield_now; the park itself is
    // deferred to the post-switch processing, which also resolves
    // races with concurrent resume() calls.
    unsafe {
        let me = (*es).current.take().expect("suspending ULT not current");
        let my_ctx: *mut RawContext = me.ctx.get();
        (*es).post = Post::Block(me);
        let sched = (*es).sched_ctx;
        switch(&mut *my_ctx, sched);
        let es = es_ptr();
        process_post(es);
    }
}

/// A [`Waker`] that resumes the calling ULT — a clone of the unit's
/// own `Arc`, so building one allocates nothing. Pair it with
/// [`self_suspend`]: publish the waker, re-check the condition,
/// suspend.
///
/// # Panics
///
/// Panics when called outside a ULT.
#[must_use]
pub fn unit_waker() -> Waker {
    let es = es_ptr();
    assert!(!es.is_null(), "lwt_argobots::unit_waker() outside a ULT");
    // SAFETY: live EsCtx of this thread.
    let me = unsafe { (*es).current.clone() };
    Waker::from(me.expect("lwt_argobots::unit_waker() outside a ULT"))
}

/// Transfer control directly to `target`, bypassing the scheduler
/// (`ABT_thread_yield_to`) — the calling ULT is re-queued as if it had
/// yielded.
///
/// Falls back to [`yield_now`] when `target` is currently running on
/// some stream, and is a no-op when it already terminated.
///
/// # Panics
///
/// Panics when called outside a ULT.
pub fn yield_to<T>(target: &UltHandle<T>) {
    let es = es_ptr();
    assert!(
        !es.is_null() && unsafe { (*es).current.is_some() },
        "lwt_argobots::yield_to() outside a ULT"
    );
    match target.inner.state.load(Ordering::Acquire) {
        TERMINATED => return,
        RUNNING => return yield_now(),
        _ => {}
    }
    if !target.inner.claim() {
        // Lost the claim race; degrade to a plain yield.
        return yield_now();
    }
    COUNTERS.yields.inc();
    emit(EventKind::Yield, 0);
    record_spawn_latency(&target.inner.spawn_ns);
    if target.inner.span != 0 {
        span::set_current(target.inner.span);
    }
    emit(EventKind::UltRun, 0);
    // SAFETY: same protocol as yield_now, except control lands in the
    // claimed target instead of the scheduler; the target's resume path
    // (or entry) performs our requeue.
    unsafe {
        let me = (*es).current.take().expect("yielding ULT not current");
        let my_ctx: *mut RawContext = me.ctx.get();
        (*es).post = Post::Requeue(me);
        (*es).current = Some(target.inner.clone());
        let tctx = *target.inner.ctx.get();
        switch(&mut *my_ctx, tctx);
        let es = es_ptr();
        process_post(es);
    }
}

/// Whether the caller is running inside a ULT on some stream.
#[must_use]
pub fn in_ult() -> bool {
    let es = es_ptr();
    // SAFETY: es, when non-null, is the live EsCtx of this thread.
    !es.is_null() && unsafe { (*es).current.is_some() }
}

/// The id of the stream executing the caller, if any.
#[must_use]
pub fn current_stream() -> Option<usize> {
    let es = es_ptr();
    if es.is_null() {
        None
    } else {
        // SAFETY: live EsCtx of this thread.
        Some(unsafe { (*es).stream_id })
    }
}

/// Drive `poll` to completion, suspending the caller after each
/// `Pending`: a ULT through [`self_suspend`] (its waker resumes it into
/// its home pool), a plain OS thread through `thread::park` — this
/// crate's counterpart of `lwt_ultcore::block_on`.
pub fn block_on<T>(poll: impl FnMut(&mut Context<'_>) -> Poll<T>) -> T {
    if in_ult() {
        lwt_sync::block_on(&unit_waker(), self_suspend, poll)
    } else {
        lwt_sync::block_thread_on(poll)
    }
}
