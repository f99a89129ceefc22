//! Work units: ULTs (stackful) and Tasklets (stackless).

use std::any::Any;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU8, AtomicU64, Ordering};
use std::sync::Arc;

use lwt_fiber::{CachedStack, RawContext};
use lwt_metrics::registry::SPAWN_LATENCY;
use lwt_sched::UnitPark;
use lwt_sync::WaitList;
use lwt_ultcore::{JoinError, PollTask};

use crate::pool::PoolShared;

/// Observable lifecycle of a work unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitState {
    /// Queued in a pool, claimable by a stream (or `yield_to`).
    Ready,
    /// Executing (or suspended mid-execution awaiting re-queue).
    Running,
    /// Completed; joiners may proceed and the structure may be freed.
    Terminated,
    /// Suspended by [`crate::self_suspend`] (`ABT_THREAD_STATE_BLOCKED`):
    /// in no pool until [`UltHandle::resume`] or its waker fires.
    Blocked,
}

pub(crate) const READY: u8 = 0;
pub(crate) const RUNNING: u8 = 1;
pub(crate) const TERMINATED: u8 = 2;
pub(crate) const BLOCKED: u8 = 3;

fn state_from_u8(v: u8) -> UnitState {
    match v {
        READY => UnitState::Ready,
        RUNNING => UnitState::Running,
        BLOCKED => UnitState::Blocked,
        _ => UnitState::Terminated,
    }
}

/// Type-erased entry closure.
pub(crate) type Entry = Box<dyn FnOnce() + Send + 'static>;

/// Feed the spawn-to-first-run histogram when a unit is first
/// dispatched. `spawn_ns` is zero when tracing was off at creation or
/// the stamp was already consumed — that fast path is one relaxed
/// load.
#[inline]
pub(crate) fn record_spawn_latency(spawn_ns: &AtomicU64) {
    if spawn_ns.load(Ordering::Relaxed) != 0 {
        let t0 = spawn_ns.swap(0, Ordering::Relaxed);
        if t0 != 0 {
            SPAWN_LATENCY.record(lwt_metrics::clock::now_ns().saturating_sub(t0));
        }
    }
}

/// Shared state of a ULT.
pub(crate) struct UltInner {
    pub(crate) state: AtomicU8,
    /// Suspended context; valid whenever the ULT is not running.
    pub(crate) ctx: UnsafeCell<RawContext>,
    /// Owned stack, recycled through the per-worker stack cache when
    /// the last Arc drops (join + handle drop ≙ `ABT_thread_free`).
    pub(crate) stack: UnsafeCell<Option<CachedStack>>,
    /// Entry closure, taken exactly once at first execution.
    pub(crate) entry: UnsafeCell<Option<Entry>>,
    /// Pool this ULT returns to when it yields or is resumed.
    pub(crate) home: UnsafeCell<Option<Arc<PoolShared>>>,
    /// The `self_suspend`/`resume` handshake — the same machine the
    /// ultcore runtimes use.
    pub(crate) park: UnitPark,
    /// Whoever is blocked joining this ULT; fired right after
    /// `TERMINATED` is published.
    pub(crate) joiners: WaitList,
    /// Panic payload captured from the entry closure, re-raised at join.
    pub(crate) panic: UnsafeCell<Option<Box<dyn Any + Send>>>,
    /// Creation timestamp for the spawn-to-first-run histogram; zero
    /// when tracing is off or already consumed.
    pub(crate) spawn_ns: AtomicU64,
    /// Causal trace span id (0 when tracing was off at creation).
    /// Written once before the Arc is shared; plain field, no atomic.
    pub(crate) span: u64,
}

// SAFETY: interior fields follow the claim protocol — `ctx`, `entry`
// and `panic` are only touched by the thread that owns the unit's
// RUNNING claim (or before first enqueue); `home` is written once at
// creation; `state` transitions publish with Release/Acquire.
unsafe impl Send for UltInner {}
// SAFETY: see above.
unsafe impl Sync for UltInner {}

impl UltInner {
    pub(crate) fn state(&self) -> UnitState {
        state_from_u8(self.state.load(Ordering::Acquire))
    }

    /// Claim READY → RUNNING; grants exclusive execution rights.
    pub(crate) fn claim(&self) -> bool {
        self.state
            .compare_exchange(READY, RUNNING, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    pub(crate) fn is_terminated(&self) -> bool {
        self.state.load(Ordering::Acquire) == TERMINATED
    }
}

/// Shared state of a tasklet: no stack, no context — just a closure
/// executed atomically on the scheduler's own stack.
pub(crate) struct TaskletInner {
    pub(crate) state: AtomicU8,
    pub(crate) entry: UnsafeCell<Option<Entry>>,
    pub(crate) panic: UnsafeCell<Option<Box<dyn Any + Send>>>,
    /// See [`UltInner::joiners`].
    pub(crate) joiners: WaitList,
    /// See [`UltInner::spawn_ns`].
    pub(crate) spawn_ns: AtomicU64,
    /// See [`UltInner::span`].
    pub(crate) span: u64,
}

// SAFETY: same claim protocol as UltInner, minus the context fields.
unsafe impl Send for TaskletInner {}
// SAFETY: see above.
unsafe impl Sync for TaskletInner {}

impl TaskletInner {
    pub(crate) fn state(&self) -> UnitState {
        state_from_u8(self.state.load(Ordering::Acquire))
    }

    pub(crate) fn claim(&self) -> bool {
        self.state
            .compare_exchange(READY, RUNNING, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    pub(crate) fn is_terminated(&self) -> bool {
        self.state.load(Ordering::Acquire) == TERMINATED
    }
}

/// A queued work unit (pool entry). Entries are *hints*: execution
/// rights come from the claim CAS, so a stale entry for an already
/// claimed unit is skipped harmlessly.
#[derive(Clone)]
pub(crate) enum Unit {
    Ult(Arc<UltInner>),
    Tasklet(Arc<TaskletInner>),
    /// Stackless poll task (`Glt::spawn_async` bridge). Like a tasklet
    /// it runs atomically on the stream's own stack; unlike one it may
    /// be re-queued many times (one entry per scheduled poll), with
    /// staleness handled by the task's own state machine.
    Task(Arc<dyn PollTask>),
}

/// Slot the spawned closure writes its result into; synchronized by the
/// TERMINATED transition of the owning unit.
pub(crate) struct ResultCell<T>(pub(crate) UnsafeCell<Option<T>>);

// SAFETY: exactly one writer (the unit, before TERMINATED) and readers
// only after observing TERMINATED with Acquire.
unsafe impl<T: Send> Send for ResultCell<T> {}
// SAFETY: see above.
unsafe impl<T: Send> Sync for ResultCell<T> {}

/// Handle to a spawned ULT; join to obtain the closure's result.
///
/// Dropping the handle after (or without) joining releases the ULT
/// structure — together, `join` + drop correspond to
/// `ABT_thread_free`.
pub struct UltHandle<T> {
    pub(crate) inner: Arc<UltInner>,
    pub(crate) result: Arc<ResultCell<T>>,
}

impl<T> UltHandle<T> {
    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> UnitState {
        self.inner.state()
    }

    /// Wait for completion and take the result, surfacing a panic that
    /// escaped the ULT's closure as a [`JoinError`] instead of
    /// re-raising it.
    ///
    /// Inside a ULT this suspends the caller until the joined unit's
    /// stream resumes it (the stream runs other units meanwhile); an
    /// external thread — the paper's master-thread join — sleeps in
    /// `thread::park`.
    ///
    /// # Errors
    ///
    /// [`JoinError`] carrying the panic payload.
    pub fn try_join(self) -> Result<T, JoinError> {
        self.inner.joiners.wait_until(
            lwt_chaos::BlockKind::Join,
            || self.inner.is_terminated(),
            |poll| crate::block_on(poll),
        );
        lwt_metrics::span::on_join(self.inner.span);
        // SAFETY: TERMINATED observed with Acquire; the unit will never
        // touch `panic`/result again; we own the handle.
        unsafe {
            if let Some(p) = (*self.inner.panic.get()).take() {
                return Err(JoinError::new(p));
            }
            Ok((*self.result.0.get())
                .take()
                .expect("ULT result already taken"))
        }
    }

    /// Wait for completion and take the result.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that escaped the ULT's closure, and panics if
    /// the result was already taken.
    pub fn join(self) -> T {
        self.try_join().unwrap_or_else(|e| e.resume())
    }

    /// Non-consuming completion test.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.inner.is_terminated()
    }

    /// Make a [`crate::self_suspend`]ed ULT runnable again in its home
    /// pool (`ABT_thread_resume`). Callable from any thread; a resume
    /// that overtakes the suspend is remembered and makes that suspend
    /// return at once.
    pub fn resume(&self) {
        crate::stream::resume(&self.inner);
    }
}

impl<T> std::fmt::Debug for UltHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UltHandle")
            .field("state", &self.state())
            .finish()
    }
}

/// Handle to a spawned tasklet.
pub struct TaskletHandle<T> {
    pub(crate) inner: Arc<TaskletInner>,
    pub(crate) result: Arc<ResultCell<T>>,
}

impl<T> TaskletHandle<T> {
    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> UnitState {
        self.inner.state()
    }

    /// Wait for completion and take the result, surfacing an escaped
    /// panic as a [`JoinError`] (see [`UltHandle::try_join`] for the
    /// waiting discipline).
    ///
    /// # Errors
    ///
    /// [`JoinError`] carrying the panic payload.
    pub fn try_join(self) -> Result<T, JoinError> {
        self.inner.joiners.wait_until(
            lwt_chaos::BlockKind::Join,
            || self.inner.is_terminated(),
            |poll| crate::block_on(poll),
        );
        lwt_metrics::span::on_join(self.inner.span);
        // SAFETY: as in UltHandle::try_join.
        unsafe {
            if let Some(p) = (*self.inner.panic.get()).take() {
                return Err(JoinError::new(p));
            }
            Ok((*self.result.0.get())
                .take()
                .expect("tasklet result already taken"))
        }
    }

    /// Wait for completion and take the result.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that escaped the tasklet's closure.
    pub fn join(self) -> T {
        self.try_join().unwrap_or_else(|e| e.resume())
    }

    /// Non-consuming completion test.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.inner.is_terminated()
    }
}

impl<T> std::fmt::Debug for TaskletHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskletHandle")
            .field("state", &self.state())
            .finish()
    }
}
