//! Pluggable, stackable schedulers.
//!
//! Argobots "allows stackable schedulers, enabling dynamic changes to
//! the scheduling policy" (paper §III-E) — the only library in Table I
//! with that feature. Each stream runs a stack of [`Scheduler`]s; the
//! top one picks work units until it reports [`Pick::Done`], at which
//! point it is popped and the previous scheduler resumes control.

use std::sync::Arc;

use lwt_ultcore::ReadyUnit;

use crate::pool::PoolShared;
use crate::unit::Unit;

/// An opaque claimed-for-dispatch work unit, as seen by schedulers.
pub struct WorkUnit(pub(crate) Unit);

impl std::fmt::Debug for WorkUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.0 {
            Unit::Ready(ReadyUnit::Ult(_)) => "WorkUnit(ULT)",
            Unit::Tasklet(_) => "WorkUnit(Tasklet)",
            Unit::Ready(ReadyUnit::Task(_)) => "WorkUnit(Task)",
        })
    }
}

/// What a scheduler decided on one invocation.
#[derive(Debug)]
pub enum Pick {
    /// Execute this unit now.
    Run(WorkUnit),
    /// Nothing to do right now.
    Idle,
    /// This scheduler is finished; pop it from the stack.
    Done,
}

/// The pools a scheduler may draw from, in stream-local order (the
/// stream's own pool first under the private policy).
pub struct SchedContext {
    pub(crate) pools: Vec<Arc<PoolShared>>,
}

impl SchedContext {
    /// Number of accessible pools.
    #[must_use]
    pub fn num_pools(&self) -> usize {
        self.pools.len()
    }

    /// Pop the next unit hint from pool `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn pop(&self, idx: usize) -> Option<WorkUnit> {
        self.pools[idx].pop().map(WorkUnit)
    }

    /// Queued-hint count of pool `idx` (racy).
    #[must_use]
    pub fn pool_len(&self, idx: usize) -> usize {
        self.pools[idx].len()
    }

    /// Return a unit hint to pool `idx` (used by schedulers unloading
    /// undispatched work, e.g. when they report [`Pick::Done`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn push(&self, idx: usize, unit: WorkUnit) {
        self.pools[idx].push(unit.0);
    }
}

impl std::fmt::Debug for SchedContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedContext")
            .field("pools", &self.pools.len())
            .finish()
    }
}

/// A scheduling policy for one execution stream.
///
/// Implementations are driven by the stream's main loop: `pick` is
/// called repeatedly; whatever it returns is executed, idled on, or —
/// for [`Pick::Done`] — causes the scheduler to be popped off the
/// stream's scheduler stack.
pub trait Scheduler: Send + 'static {
    /// Choose the next action for this stream.
    fn pick(&mut self, ctx: &SchedContext) -> Pick;

    /// Called when this scheduler is popped off the stream's scheduler
    /// stack (after it returns [`Pick::Done`]): return any privately
    /// held, undispatched units to the pools so no work is lost.
    fn unload(&mut self, ctx: &SchedContext) {
        let _ = ctx;
    }
}

/// The default scheduler: drain accessible pools FIFO, own pool first.
///
/// Matches the basic FIFO scheduler Argobots attaches to each pool by
/// default.
#[derive(Debug, Default)]
pub(crate) struct BasicScheduler {
    cursor: usize,
}

impl Scheduler for BasicScheduler {
    fn pick(&mut self, ctx: &SchedContext) -> Pick {
        let n = ctx.num_pools();
        for off in 0..n {
            let idx = (self.cursor + off) % n;
            if let Some(u) = ctx.pop(idx) {
                // Keep draining the pool we found work in.
                self.cursor = idx;
                return Pick::Run(u);
            }
        }
        Pick::Idle
    }
}
