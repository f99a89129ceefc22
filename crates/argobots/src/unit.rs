//! Work units: ULTs (stackful) and Tasklets (stackless).

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use lwt_sync::WaitList;
use lwt_ultcore::state::{BLOCKED, READY, RUNNING, TERMINATED};
use lwt_ultcore::{Body, Handle, JoinError, ReadyUnit};

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
    /// in no pool until [`UltExt::resume`] or its waker fires.
    Blocked,
}

fn state_from_u8(v: u8) -> UnitState {
    match v {
        READY => UnitState::Ready,
        RUNNING => UnitState::Running,
        BLOCKED => UnitState::Blocked,
        _ => UnitState::Terminated,
    }
}

/// A tasklet: no stack, no context — just its `lwt_ultcore::Work`
/// (closure, then result), executed atomically on the scheduler's own
/// stack and kept in one allocation with the record, as a ULT's is.
/// Its state word uses the ULT constants ([`lwt_ultcore::state`]).
pub(crate) struct Tasklet<B: ?Sized = dyn Body> {
    pub(crate) state: AtomicU8,
    /// Whoever is blocked joining this tasklet; fired right after
    /// `TERMINATED` is published.
    pub(crate) joiners: WaitList,
    /// Creation timestamp for the spawn-to-first-run histogram; zero
    /// when tracing is off or already consumed.
    pub(crate) spawn_ns: AtomicU64,
    /// Causal trace span id (0 when tracing was off at creation).
    /// Written once before the Arc is shared; plain field, no atomic.
    pub(crate) span: u64,
    pub(crate) body: B,
}

impl Tasklet {
    pub(crate) fn claim(&self) -> bool {
        self.state
            .compare_exchange(READY, RUNNING, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    pub(crate) fn is_terminated(&self) -> bool {
        self.state.load(Ordering::Acquire) == TERMINATED
    }
}

/// A queued work unit (pool entry): what every ultcore queue holds — a
/// ULT or a stackless poll task (`Glt::spawn_async`), dispatched by
/// `run_unit` — or a tasklet. Entries are *hints*: execution rights
/// come from the claim CAS, so a stale entry for an already claimed
/// unit is skipped harmlessly.
pub(crate) enum Unit {
    Ready(ReadyUnit),
    Tasklet(Arc<Tasklet>),
}

/// The Argobots calls on a ULT's [`Handle`] — `ABT_thread_get_state`
/// and `ABT_thread_resume`. (`join` + drop is `ABT_thread_free`.)
pub trait UltExt {
    /// Current lifecycle state.
    fn state(&self) -> UnitState;

    /// Make a [`crate::self_suspend`]ed ULT runnable again in its home
    /// pool. Callable from any thread; a resume that overtakes the
    /// suspend is remembered and makes that suspend return at once.
    fn resume(&self);
}

impl<T> UltExt for Handle<T> {
    fn state(&self) -> UnitState {
        state_from_u8(self.unit().state())
    }

    fn resume(&self) {
        lwt_ultcore::awaken(&self.unit());
    }
}

/// Handle to a spawned tasklet.
pub struct TaskletHandle<T> {
    pub(crate) inner: Arc<Tasklet>,
    /// Made only by `tasklet_create_in`, from a body whose result type
    /// is `T`.
    pub(crate) result: PhantomData<fn() -> T>,
}

impl<T> TaskletHandle<T> {
    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> UnitState {
        state_from_u8(self.inner.state.load(Ordering::Acquire))
    }

    /// Wait for completion and take the result, surfacing an escaped
    /// panic as a [`JoinError`] (see [`Handle::try_join`] for the
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
        let mut out: Option<std::thread::Result<T>> = None;
        // SAFETY: the body's result type is `T` (see `result`);
        // TERMINATED observed with Acquire; we own the handle.
        unsafe { self.inner.body.take_into((&raw mut out).cast()) };
        out.expect("tasklet result already taken").map_err(JoinError::new)
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
