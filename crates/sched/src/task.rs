//! Future-task state machine: the no-lost-wake core of the async
//! bridge.
//!
//! A stackless future task is a heap cell that bounces between a ready
//! queue and a worker's poll loop. Unlike a ULT — which parks *inside*
//! its own stack and is resumed exactly once by exactly one waker — a
//! future's waker is a free-floating handle that any thread may fire
//! any number of times, including *while the task is being polled*.
//! The state machine here serializes those races so that
//!
//! 1. a task is never enqueued twice concurrently (one queue entry at
//!    a time, so `Future::poll`'s `&mut` exclusivity holds), and
//! 2. a wake is never lost: if a waker fires during a poll that then
//!    returns `Pending`, the task is re-enqueued by the *runner*
//!    (the coalesce path), so progress is preserved without the waker
//!    needing to see the poll's outcome.
//!
//! The atomics route through [`crate::sysapi`], so the exact same
//! transition code runs under the `lwt-model` checker
//! (`crates/model/tests/waker.rs`) that pins property 2 against
//! adversarial interleavings.
//!
//! [`UnitPark`], at the bottom of this file, is the same idea for the
//! *stackful* case: the suspend/awaken handshake every ULT runtime
//! shares.

use crate::sysapi::AtomicUsize;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};

/// Task is parked: not queued, not running. A wake must enqueue it.
const IDLE: usize = 0;
/// Task sits in a ready queue awaiting dispatch. Wakes coalesce.
const SCHEDULED: usize = 1;
/// A worker is inside `poll`. Wakes set [`NOTIFIED`] instead of
/// enqueueing, because the cell's future is exclusively borrowed.
const RUNNING: usize = 2;
/// A wake landed mid-poll. The runner, on seeing this when its poll
/// returns `Pending`, re-enqueues the task itself.
const NOTIFIED: usize = 3;
/// `poll` returned `Ready`. Terminal: wakes are no-ops forever.
const COMPLETE: usize = 4;

/// What the caller of [`TaskState::on_wake`] must do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeAction {
    /// The wake won the idle→scheduled race: push the task onto a
    /// ready queue now. Exactly one concurrent waker gets this.
    Schedule,
    /// The task was mid-poll; the wake was recorded and the *runner*
    /// will requeue. Count it, emit a trace event, but do not push.
    Coalesced,
    /// The task already sits in a queue (or a prior mid-poll wake is
    /// pending). Nothing to do.
    AlreadyQueued,
    /// The task finished. Wakes on completed tasks are no-ops.
    Complete,
}

/// The five-state lifecycle of one future task, shared between its
/// wakers (any thread) and its runner (one worker at a time).
///
/// State is a single [`AtomicUsize`] because [`crate::sysapi`] — the
/// facade that lets this code run unmodified inside the model checker
/// — exposes only the word-sized atomic.
#[derive(Debug)]
pub struct TaskState {
    state: AtomicUsize,
}

impl Default for TaskState {
    fn default() -> Self {
        TaskState::new()
    }
}

impl TaskState {
    /// A fresh task, born `SCHEDULED`: `spawn_async` enqueues the cell
    /// immediately, so the initial push *is* the first schedule and no
    /// waker exists yet to race with.
    #[must_use]
    pub fn new() -> Self {
        TaskState {
            state: AtomicUsize::new(SCHEDULED),
        }
    }

    /// A waker fired. Resolves the wake against the current state and
    /// tells the caller what to do ([`WakeAction`]).
    ///
    /// The CAS loop is the crux: `IDLE → SCHEDULED` hands exactly one
    /// winner the enqueue obligation; `RUNNING → NOTIFIED` records a
    /// mid-poll wake for the runner to honor. `AcqRel` on success makes
    /// everything the waker observed before calling `wake` visible to
    /// the worker that later dispatches the task.
    pub fn on_wake(&self) -> WakeAction {
        let mut cur = self.state.load(Acquire);
        loop {
            let (next, action) = match cur {
                IDLE => (SCHEDULED, WakeAction::Schedule),
                RUNNING => (NOTIFIED, WakeAction::Coalesced),
                SCHEDULED | NOTIFIED => return WakeAction::AlreadyQueued,
                _ => return WakeAction::Complete,
            };
            match self.state.compare_exchange(cur, next, AcqRel, Acquire) {
                Ok(_) => return action,
                Err(observed) => cur = observed,
            }
        }
    }

    /// A worker dequeued the task and is about to poll. Claims the
    /// `SCHEDULED → RUNNING` edge; returns `false` if the claim fails
    /// (the cell was completed or is already running — a stale queue
    /// entry from a chaos double-enqueue), in which case the worker
    /// must drop the entry without polling.
    #[must_use]
    pub fn begin_poll(&self) -> bool {
        self.state
            .compare_exchange(SCHEDULED, RUNNING, Acquire, Relaxed)
            .is_ok()
    }

    /// The poll returned `Pending`. Tries `RUNNING → IDLE`; if a wake
    /// coalesced mid-poll (`NOTIFIED` observed instead), transitions to
    /// `SCHEDULED` and returns `true` — the caller **must** re-enqueue
    /// the task, or that wake is lost.
    ///
    /// `Release` on the idle store publishes the future's post-poll
    /// state to the next waker; `Release` on the scheduled store does
    /// the same for the next dispatcher.
    #[must_use]
    pub fn finish_pending(&self) -> bool {
        match self.state.compare_exchange(RUNNING, IDLE, Release, Acquire) {
            Ok(_) => false,
            Err(_) => {
                // Only a waker writes NOTIFIED, and only over RUNNING,
                // which we exclusively own between begin_poll and here.
                self.state.store(SCHEDULED, Release);
                true
            }
        }
    }

    /// The poll returned `Ready`. Terminal; any concurrently-recorded
    /// `NOTIFIED` is deliberately discarded — there is nothing left to
    /// poll.
    pub fn complete(&self) {
        self.state.store(COMPLETE, Release);
    }

    /// Whether the task has reached its terminal state.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.state.load(Acquire) == COMPLETE
    }
}

/// Unit is running (or queued); no wake is pending.
const EMPTY: usize = 0;
/// Unit is suspended: it sits in no queue until an unpark requeues it.
const PARKED: usize = 1;
/// An unpark arrived while the unit was not parked; the next park
/// consumes it and returns immediately.
const WOKEN: usize = 2;

/// The suspend/awaken handshake of a *stackful* unit — the sibling of
/// [`TaskState`] for units that park inside their own stack.
///
/// A suspending ULT cannot publish "parked" before its context is
/// saved, so [`park`](UnitPark::park) runs *after* the switch, on
/// whichever code gained control (the post-switch protocol of
/// `lwt-ultcore` and `lwt-argobots`), while [`unpark`](UnitPark::unpark)
/// may fire from any thread at any time — before the switch, during
/// it, after it, or twice. One word resolves all of it: exactly one
/// side ends up owning the requeue, and an unpark that finds nobody
/// parked leaves a token (like `std::thread::park`) so the wake is
/// never lost, only early. Model-checked in
/// `crates/model/tests/unitpark.rs`.
#[derive(Debug)]
pub struct UnitPark {
    state: AtomicUsize,
}

impl Default for UnitPark {
    fn default() -> Self {
        UnitPark::new()
    }
}

impl UnitPark {
    /// A running unit with no wake pending.
    #[must_use]
    pub fn new() -> Self {
        UnitPark {
            state: AtomicUsize::new(EMPTY),
        }
    }

    /// Post-switch side: the unit's context is saved and it is in no
    /// queue. Returns `true` if it is now parked (a later
    /// [`unpark`](UnitPark::unpark) owns the requeue); `false` if a
    /// wake got in first — the token is consumed and the **caller**
    /// must requeue the unit right away.
    ///
    /// `Release` on the parking CAS publishes the saved context (and
    /// whatever the unit wrote before suspending) to the unparker that
    /// requeues it.
    #[must_use]
    pub fn park(&self) -> bool {
        match self.state.compare_exchange(EMPTY, PARKED, AcqRel, Acquire) {
            Ok(_) => true,
            Err(_) => {
                // Only an unparker writes WOKEN, and only the (single)
                // parker ever leaves EMPTY any other way.
                self.state.store(EMPTY, Release);
                false
            }
        }
    }

    /// Waker side. Returns `true` if this call took the unit out of
    /// its park — the caller **must** requeue it, exactly once. `false`
    /// means the unit was not parked: the wake is recorded for its
    /// next park (or coalesced with one already recorded).
    #[must_use]
    pub fn unpark(&self) -> bool {
        let mut cur = self.state.load(Acquire);
        loop {
            let next = match cur {
                PARKED => EMPTY,
                EMPTY => WOKEN,
                _ => return false,
            };
            match self.state.compare_exchange(cur, next, AcqRel, Acquire) {
                Ok(_) => return cur == PARKED,
                Err(observed) => cur = observed,
            }
        }
    }
}

#[cfg(all(test, not(lwt_model)))]
mod tests {
    use super::*;

    #[test]
    fn unpark_before_park_leaves_a_token() {
        let p = UnitPark::new();
        assert!(!p.unpark()); // nobody parked: token recorded
        assert!(!p.unpark()); // coalesced
        assert!(!p.park()); // token consumed: caller requeues
        assert!(p.park()); // no token left: really parked
        assert!(p.unpark()); // this unparker owns the requeue
    }

    #[test]
    fn spawn_then_poll_then_complete() {
        let s = TaskState::new();
        // Born scheduled: a wake before the first poll coalesces.
        assert_eq!(s.on_wake(), WakeAction::AlreadyQueued);
        assert!(s.begin_poll());
        s.complete();
        assert!(s.is_complete());
        assert_eq!(s.on_wake(), WakeAction::Complete);
    }

    #[test]
    fn pending_then_wake_schedules_exactly_once() {
        let s = TaskState::new();
        assert!(s.begin_poll());
        assert!(!s.finish_pending()); // clean park: no requeue
        assert_eq!(s.on_wake(), WakeAction::Schedule);
        assert_eq!(s.on_wake(), WakeAction::AlreadyQueued);
    }

    #[test]
    fn wake_during_poll_makes_runner_requeue() {
        let s = TaskState::new();
        assert!(s.begin_poll());
        assert_eq!(s.on_wake(), WakeAction::Coalesced);
        assert_eq!(s.on_wake(), WakeAction::AlreadyQueued);
        assert!(s.finish_pending()); // runner owns the requeue
        assert!(s.begin_poll());
    }

    #[test]
    fn stale_queue_entry_fails_claim() {
        let s = TaskState::new();
        assert!(s.begin_poll());
        // A second dispatcher holding a stale entry must not poll.
        assert!(!s.begin_poll());
        s.complete();
        assert!(!s.begin_poll());
    }
}
