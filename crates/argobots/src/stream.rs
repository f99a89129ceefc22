//! Execution streams: the scheduler-stack policy the shared worker loop
//! runs, and `yield_to`.
//!
//! A stream is an `lwt_ultcore` worker: its ULTs are `UltCore`s, and
//! their yields, suspends and wakes go through the core's post-switch
//! protocol. What is Argobots here is where a yielded or resumed ULT
//! goes — back to its home pool, through the runtime's [`Pools`] hook —
//! the tasklet arm of `execute`, and the scheduler stack in `next`.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use lwt_metrics::registry::{emit, record_spawn_latency};
use lwt_metrics::{span, timeline, EventKind};
use lwt_sync::SpinLock;
use lwt_ultcore::state::TERMINATED;
use lwt_ultcore::{enter_worker, run_unit, worker_loop, yield_now, Control, Handle, Policy};

use crate::pool::{PoolShared, Pools};
use crate::sched::{BasicScheduler, Pick, SchedContext, Scheduler};
use crate::unit::Unit;

/// Shared state of one execution stream.
pub(crate) struct StreamShared {
    pub(crate) id: usize,
    /// Pools this stream drains, own pool first. Fixed at creation.
    pub(crate) pools: Vec<Arc<PoolShared>>,
    /// Every pool of the runtime: the requeue hook the stream registers
    /// with, which sends yielded and resumed ULTs home.
    pub(crate) hook: Arc<Pools>,
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
        execute(unit);
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
    let _worker = enter_worker(shared.id, shared.hook.clone());
    let stream = Stream {
        shared,
        ctx: SchedContext {
            pools: shared.pools.clone(),
        },
        scheds: vec![Box::<BasicScheduler>::default()],
    };
    worker_loop(&shared.ctl, shared.id, "argobots", stream);
}

/// Execute one claimed-or-stale unit hint.
fn execute(unit: Unit) {
    match unit {
        // A ULT (claim, switch, post-switch) or a task poll (its state
        // machine is the claim): the same dispatch as every backend.
        Unit::Ready(u) => {
            run_unit(&u);
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
            // SAFETY: the claim grants exclusive access, once.
            unsafe { t.body.run() };
            span::on_complete(t.span);
            if t.span != 0 {
                span::set_current(span::NO_SPAN);
            }
            timeline::enter(timeline::WorkerState::Dispatch);
            t.state.store(TERMINATED, Ordering::Release);
            t.joiners.wake_all();
        }
    }
}

/// Transfer control directly to `target`, bypassing the scheduler
/// (`ABT_thread_yield_to`) — the calling ULT is re-queued as if it had
/// yielded.
///
/// Falls back to [`yield_now`] when `target` is currently running (or
/// suspended) on some stream, and is a no-op when it already
/// terminated.
///
/// # Panics
///
/// Panics when called outside a ULT.
pub fn yield_to<T>(target: &Handle<T>) {
    if !lwt_ultcore::yield_to(&target.unit()) && !target.is_finished() {
        yield_now();
    }
}
