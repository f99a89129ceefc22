//! Work-unit pools and pool topology policies.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use lwt_sched::{Injector, SharedQueue};
use lwt_ultcore::{Control, Requeue, UltCore};

use crate::unit::Unit;

/// How pools map onto execution streams.
///
/// The paper evaluates both layouts and always selects the private one
/// for Argobots ("Argobots with one private queue for each Execution
/// Stream … were always chosen", §IX-E); the shared layout exists for
/// the `ablation_pools` bench that quantifies why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolPolicy {
    /// One pool per stream; creators dispatch round-robin into the
    /// target stream's pool. Pops never contend across streams.
    #[default]
    PrivatePerStream,
    /// One pool shared by every stream; all pops contend on its lock.
    SharedSingle,
}

/// The queue behind a pool.
///
/// A *private* pool is a lock-free MPSC [`Injector`]: any creator (the
/// main thread, or any ULT on another stream) may push, but only the
/// owning stream consumes — exactly `ABT_POOL_ACCESS_MPSC`, with no
/// lock on either path. The *shared* pool keeps the mutex-protected
/// FIFO: every stream pops from it, and the lock they contend on is
/// precisely what the `ablation_pools` bench quantifies.
enum PoolQueue {
    /// Lock-free MPSC pool for the private-per-stream layout.
    Mpsc(Injector<Unit>),
    /// Mutex-protected MPMC pool for the shared-single layout.
    Shared(SharedQueue<Unit>),
}

/// Internal pool representation: the queue plus the wake hook every
/// push fires. Routing the notify through the pool covers *all* push
/// sites at once — creation dispatch, yield requeues, and the
/// post-switch protocol — so no producer can forget to wake a parked
/// consumer.
pub(crate) struct PoolShared {
    queue: PoolQueue,
    /// Installed once at registration: the runtime's park group plus
    /// the owning stream (`None` for the shared pool, where any stream
    /// may consume and the scanning wake-one applies). Pushes before
    /// installation skip the wake — at that point no stream has had a
    /// chance to park.
    waker: OnceLock<(Arc<Control>, Option<usize>)>,
    /// ULTs whose home is this pool and that are suspended — in no
    /// queue, so invisible to `len`. The drain contract: a stream does
    /// not exit on `stop` while one of its pools still counts any.
    /// Raised before the unit parks, lowered after its resume pushed
    /// it back, so "zero, then still empty" proves nothing is owed.
    pub(crate) suspended: AtomicUsize,
}

impl PoolShared {
    fn with_queue(queue: PoolQueue) -> Self {
        PoolShared {
            queue,
            waker: OnceLock::new(),
            suspended: AtomicUsize::new(0),
        }
    }

    /// Lock-free MPSC pool (private-per-stream layout).
    pub(crate) fn new() -> Self {
        Self::with_queue(PoolQueue::Mpsc(Injector::new()))
    }

    /// Lock-based MPMC pool (shared-single layout).
    pub(crate) fn new_shared() -> Self {
        Self::with_queue(PoolQueue::Shared(SharedQueue::new()))
    }

    /// Whether the pool owes its streams nothing more: no suspended
    /// unit, and (checked second — see `suspended`) no queued one.
    pub(crate) fn is_drained(&self) -> bool {
        self.suspended.load(Ordering::Acquire) == 0 && self.len() == 0
    }

    /// Install the wake hook (idempotent; first install wins).
    /// `owner` is the consuming stream for MPSC pools — only its
    /// parker is worth waking, exactly like a Converse processor
    /// queue — and `None` for the shared pool.
    pub(crate) fn set_waker(&self, ctl: Arc<Control>, owner: Option<usize>) {
        let _ = self.waker.set((ctl, owner));
    }

    pub(crate) fn push(&self, unit: Unit) {
        match &self.queue {
            PoolQueue::Mpsc(q) => q.push(unit),
            PoolQueue::Shared(q) => q.push(unit),
        }
        // Push first, then wake (see ParkGroup docs for why this order
        // prevents lost wakes).
        if let Some((ctl, owner)) = self.waker.get() {
            match owner {
                Some(stream) => ctl.park.notify_worker(*stream),
                None => ctl.park.notify(),
            }
        }
    }

    pub(crate) fn pop(&self) -> Option<Unit> {
        match &self.queue {
            PoolQueue::Mpsc(q) => q.pop(),
            PoolQueue::Shared(q) => q.pop(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match &self.queue {
            PoolQueue::Mpsc(q) => q.len(),
            PoolQueue::Shared(q) => q.len(),
        }
    }
}

/// Segments in [`Pools`]: segment `k` holds `2^k` slots.
const SEGMENTS: usize = usize::BITS as usize;

type Segment = Box<[OnceLock<Arc<PoolShared>>]>;

/// Every pool of a runtime, in creation order — under the private
/// policy pool `i` is stream `i`'s, under the shared one there is only
/// pool 0 — and the [`Requeue`] hook every stream registers with.
///
/// Append-only, so the lookups on every create, yield, suspend and
/// wake take no lock: slot `i` lives in segment `ilog2(i + 1)`,
/// allocated on first use and never moved.
pub(crate) struct Pools {
    pub(crate) policy: PoolPolicy,
    segments: [OnceLock<Segment>; SEGMENTS],
    len: AtomicUsize,
}

impl Pools {
    pub(crate) fn new(policy: PoolPolicy) -> Self {
        Pools {
            policy,
            segments: [const { OnceLock::new() }; SEGMENTS],
            len: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn slot(i: usize) -> (usize, usize) {
        let k = (i + 1).ilog2() as usize;
        (k, i + 1 - (1 << k))
    }

    /// Append `pool`. Callers serialize (the runtime's stream lock).
    pub(crate) fn push(&self, pool: Arc<PoolShared>) {
        let i = self.len.load(Ordering::Relaxed);
        let (k, off) = Self::slot(i);
        let segment =
            self.segments[k].get_or_init(|| (0..1usize << k).map(|_| OnceLock::new()).collect());
        let _ = segment[off].set(pool);
        // Release: a reader that sees the new length finds the slot set.
        self.len.store(i + 1, Ordering::Release);
    }

    /// Number of pools.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Pool `i`.
    ///
    /// # Panics
    ///
    /// Panics if there is no pool `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &Arc<PoolShared> {
        let (k, off) = Self::slot(i);
        self.segments[k]
            .get()
            .and_then(|segment| segment[off].get())
            .expect("no such pool")
    }

    /// Index of the pool stream `stream` drains.
    #[inline]
    pub(crate) fn of_stream(&self, stream: usize) -> usize {
        match self.policy {
            PoolPolicy::PrivatePerStream => stream,
            PoolPolicy::SharedSingle => 0,
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Arc<PoolShared>> {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl Requeue for Pools {
    /// A yielded — or, through the default `wake`, resumed — ULT goes
    /// back to its home pool, whichever stream it ran on: after a
    /// cross-pool `yield_to` that is not the current one. The push
    /// fires the pool's own targeted notify.
    #[inline]
    fn requeue(&self, _stream: usize, ult: Arc<UltCore>) {
        self.get(ult.home_queue()).push(Unit::Ready(ult.into()));
    }

    /// The count of the pool `stream` drains, so its `is_drained` sees
    /// the units suspended on it.
    #[inline]
    fn suspended(&self, stream: usize) -> Option<&AtomicUsize> {
        Some(&self.get(self.of_stream(stream)).suspended)
    }
}

/// Public, read-only view of a pool (diagnostics and custom
/// schedulers).
pub struct Pool {
    pub(crate) shared: std::sync::Arc<PoolShared>,
}

impl Pool {
    /// Number of queued unit hints (racy; stale entries included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Whether the pool currently appears empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("len", &self.len()).finish()
    }
}
