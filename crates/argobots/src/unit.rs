//! Work units: ULTs (stackful) and Tasklets (stackless).

use std::any::Any;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use lwt_sync::WaitList;
use lwt_ultcore::state::{BLOCKED, READY, RUNNING, TERMINATED};
use lwt_ultcore::{JoinError, ReadyUnit, ResultCell, UltCore};

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

fn state_from_u8(v: u8) -> UnitState {
    match v {
        READY => UnitState::Ready,
        RUNNING => UnitState::Running,
        BLOCKED => UnitState::Blocked,
        _ => UnitState::Terminated,
    }
}

/// Shared state of a tasklet: no stack, no context — just a closure
/// executed atomically on the scheduler's own stack. Its state word
/// uses the ULT constants ([`lwt_ultcore::state`]).
pub(crate) struct TaskletInner {
    pub(crate) state: AtomicU8,
    pub(crate) entry: UnsafeCell<Option<Box<dyn FnOnce() + Send + 'static>>>,
    pub(crate) panic: UnsafeCell<Option<Box<dyn Any + Send>>>,
    /// Whoever is blocked joining this tasklet; fired right after
    /// `TERMINATED` is published.
    pub(crate) joiners: WaitList,
    /// Creation timestamp for the spawn-to-first-run histogram; zero
    /// when tracing is off or already consumed.
    pub(crate) spawn_ns: AtomicU64,
    /// Causal trace span id (0 when tracing was off at creation).
    /// Written once before the Arc is shared; plain field, no atomic.
    pub(crate) span: u64,
}

// SAFETY: `entry` and `panic` are only touched by the thread that owns
// the RUNNING claim (or before first enqueue); `state` transitions
// publish with Release/Acquire.
unsafe impl Send for TaskletInner {}
// SAFETY: see above.
unsafe impl Sync for TaskletInner {}

impl TaskletInner {
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
    Tasklet(Arc<TaskletInner>),
}

/// Handle to a spawned ULT; join to obtain the closure's result.
///
/// Dropping the handle after (or without) joining releases the ULT
/// structure — together, `join` + drop correspond to
/// `ABT_thread_free`.
pub struct UltHandle<T> {
    pub(crate) ult: Arc<UltCore>,
    pub(crate) result: Arc<ResultCell<T>>,
}

impl<T> UltHandle<T> {
    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> UnitState {
        state_from_u8(self.ult.state())
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
        self.ult.join_wait();
        lwt_metrics::span::on_join(self.ult.span_id());
        if let Some(p) = self.ult.take_panic() {
            return Err(JoinError::new(p));
        }
        // SAFETY: TERMINATED observed; we own the handle, sole joiner.
        Ok(unsafe { self.result.take() }.expect("ULT result already taken"))
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
        self.ult.is_terminated()
    }

    /// Make a [`crate::self_suspend`]ed ULT runnable again in its home
    /// pool (`ABT_thread_resume`). Callable from any thread; a resume
    /// that overtakes the suspend is remembered and makes that suspend
    /// return at once.
    pub fn resume(&self) {
        lwt_ultcore::awaken(&self.ult);
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
        state_from_u8(self.inner.state.load(Ordering::Acquire))
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
        // SAFETY: TERMINATED observed with Acquire; the tasklet never
        // touches `panic`/result again; we own the handle.
        unsafe {
            if let Some(p) = (*self.inner.panic.get()).take() {
                return Err(JoinError::new(p));
            }
            Ok(self.result.take().expect("tasklet result already taken"))
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
