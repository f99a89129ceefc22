//! # lwt-go — a Go-model lightweight-thread runtime
//!
//! From-scratch Rust implementation of the goroutine model as the paper
//! characterizes it (§III-F): "all threads share a **global queue**
//! where goroutines are stored. A scheduler is responsible to assign
//! them to idle threads. This global, unique queue needs a
//! synchronization mechanism that may impact performance when an
//! elevated number of threads are used."
//!
//! Deliberate fidelity choices (each one shows up in the paper's
//! curves):
//!
//! * **Per-worker lock-free run queues with a shared injector.** The
//!   original seed modelled the paper's "global, unique queue"
//!   description with one mutex-protected queue; the spawn/join
//!   fast-path redesign moved every runtime onto
//!   [`lwt_sched::ReadyQueue`] (Chase-Lev deque + MPSC inbox + work
//!   stealing), which is also how the *real* Go scheduler has worked
//!   since 1.1 (per-P runqueues + global injector). The
//!   synchronization cost the paper attributes to Go's shared queue
//!   is still observable — as `queue_contention` events on the
//!   injector instead of lock waits.
//! * **No user-visible yield** — the paper's Table I marks Go as the
//!   only LWT library without one ("not even offering the common yield
//!   function"). A goroutine that blocks in a channel operation or a
//!   [`WaitGroup`] wait is parked off the run queues and made runnable
//!   again by the operation that unblocks it, exactly as in Go
//!   (`gopark`/`goready`).
//! * **Out-of-order channel synchronization** ([`Sender`]/[`Receiver`])
//!   — the completion-notification mechanism the paper credits for
//!   Go's efficient join (Fig. 3): the master receives one message per
//!   goroutine in whatever order they finish.
//! * **Thread count chosen at run time** ([`Config::num_threads`], ≙
//!   `GOMAXPROCS`).
//!
//! A [`WaitGroup`] is provided as the idiomatic bulk join.
//!
//! ## Example
//!
//! ```
//! use lwt_go::{Config, Runtime};
//!
//! let rt = Runtime::init(Config { num_threads: 2, ..Config::default() });
//! let (tx, rx) = rt.channel::<u32>(8);
//! for i in 0..8 {
//!     let tx = tx.clone();
//!     rt.go(move || tx.send(i).unwrap());
//! }
//! let mut sum = 0;
//! for _ in 0..8 {
//!     sum += rx.recv().unwrap();
//! }
//! assert_eq!(sum, 28);
//! rt.shutdown();
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use lwt_fiber::StackSize;
use lwt_metrics::registry::{emit, COUNTERS};
use lwt_metrics::EventKind;
use lwt_sched::{near_first, ParkGroup, ReadyQueue};
use lwt_sync::{Channel, CountLatch, RecvError, SendError, SpinLock};
use lwt_ultcore::{
    block_on, current_worker, enter_worker, join_within, may_exit, run_unit,
    suspended_stragglers, DrainError, PollTask, ReadyUnit, Requeue, Straggler, TaskResched,
    UltCore, ABANDON_GRACE,
};

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of OS threads executing goroutines (`GOMAXPROCS`).
    pub num_threads: usize,
    /// Goroutine stack size. Go starts goroutines on small growable
    /// stacks; ours are fixed, defaulting to the workspace default.
    pub stack_size: StackSize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            num_threads: std::thread::available_parallelism().map_or(4, usize::from),
            stack_size: StackSize::DEFAULT,
        }
    }
}

struct RtInner {
    /// One ready queue per scheduler thread; external spawns are
    /// injected round-robin, idle workers steal from each other.
    /// Goroutines and stackless future tasks share the queues
    /// ([`ReadyUnit`]).
    queues: Vec<ReadyQueue<ReadyUnit>>,
    /// Goroutines suspended on each worker ([`Requeue::suspended`]).
    suspended: Vec<AtomicUsize>,
    /// Idle-worker parking (wake-one); every push site notifies.
    park: ParkGroup,
    next: AtomicUsize,
    stack_size: StackSize,
    threads: SpinLock<Vec<Option<std::thread::JoinHandle<()>>>>,
    stop: AtomicBool,
    /// Bounded-drain escape hatch: set when a `shutdown_within`
    /// deadline expires so workers exit even with queued (wedged)
    /// goroutines still rotating through their queues.
    abandon: AtomicBool,
    shut: AtomicBool,
}

/// The Go-model runtime. Cheap to clone.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
}

impl Runtime {
    /// Start the scheduler threads.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_threads` is zero.
    #[must_use]
    pub fn init(config: Config) -> Self {
        assert!(config.num_threads > 0, "need at least one thread");
        let inner = Arc::new(RtInner {
            queues: (0..config.num_threads).map(|_| ReadyQueue::new()).collect(),
            suspended: (0..config.num_threads).map(|_| AtomicUsize::new(0)).collect(),
            park: ParkGroup::new(config.num_threads),
            next: AtomicUsize::new(0),
            stack_size: config.stack_size,
            threads: SpinLock::new(Vec::new()),
            stop: AtomicBool::new(false),
            abandon: AtomicBool::new(false),
            shut: AtomicBool::new(false),
        });
        let rt = Runtime { inner };
        let mut threads = rt.inner.threads.lock();
        for t in 0..config.num_threads {
            let inner = rt.inner.clone();
            COUNTERS.os_threads_spawned.inc();
            threads.push(Some(
                std::thread::Builder::new()
                    .name(format!("go-m{t}"))
                    .spawn(move || worker_main(&inner, t))
                    .expect("spawn go scheduler thread"),
            ));
        }
        drop(threads);
        rt
    }

    /// [`Runtime::init`] with defaults.
    #[must_use]
    pub fn init_default() -> Self {
        Self::init(Config::default())
    }

    /// Number of scheduler threads.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.inner.threads.lock().len()
    }

    /// Launch a goroutine (`go f()`). No handle is returned — Go has no
    /// join; synchronize through channels or a [`WaitGroup`].
    pub fn go<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let ult = UltCore::new(self.inner.stack_size, f);
        emit(EventKind::UltSpawn, 0);
        let n = self.inner.queues.len();
        // A spawn from a scheduler thread lands on that worker's own
        // deque (ReadyQueue::push routes by caller identity); external
        // spawns are injected round-robin across the workers' inboxes.
        let target = match current_worker() {
            Some(w) if w < n => w,
            _ => self.inner.next.fetch_add(1, Ordering::Relaxed) % n,
        };
        self.inner.queues[target].push(ult.into());
        // Push first, then wake at most one sleeper (see ParkGroup
        // docs for why this order is what prevents lost wakes).
        self.inner.park.notify_near(target);
    }

    /// Enqueue a stackless future task, picking the target queue like
    /// [`Runtime::go`] (caller's own worker, else round-robin).
    pub fn post_task(&self, task: Arc<dyn PollTask>) {
        let n = self.inner.queues.len();
        let target = match current_worker() {
            Some(w) if w < n => w,
            _ => self.inner.next.fetch_add(1, Ordering::Relaxed) % n,
        };
        self.inner.queues[target].push(ReadyUnit::Task(task));
        self.inner.park.notify_near(target);
    }

    /// Enqueue a stackless future task on worker `worker`'s queue.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn post_task_to(&self, worker: usize, task: Arc<dyn PollTask>) {
        self.inner.queues[worker].push(ReadyUnit::Task(task));
        self.inner.park.notify_near(worker);
    }

    /// A cloneable hook that [`Runtime::post_task`]s into this runtime:
    /// the reschedule target of every waker built over these queues.
    /// Holds the runtime's shared state alive, so late wakes (a
    /// blocking-pool completion after the master dropped the runtime
    /// handle) still have somewhere to enqueue.
    #[must_use]
    pub fn task_poster(&self) -> TaskResched {
        let rt = Runtime {
            inner: self.inner.clone(),
        };
        Arc::new(move |t: Arc<dyn PollTask>| rt.post_task(t))
    }

    /// [`Runtime::task_poster`] pinned to one worker's queue.
    ///
    /// # Panics
    ///
    /// The returned hook panics if `worker` is out of range.
    #[must_use]
    pub fn task_poster_to(&self, worker: usize) -> TaskResched {
        let rt = Runtime {
            inner: self.inner.clone(),
        };
        Arc::new(move |t: Arc<dyn PollTask>| rt.post_task_to(worker, t))
    }

    /// Create a buffered channel (`make(chan T, cap)`); capacity 0 is
    /// rounded up to 1 (see [`lwt_sync::Channel::bounded`]).
    #[must_use]
    pub fn channel<T>(&self, cap: usize) -> (Sender<T>, Receiver<T>) {
        let ch = Arc::new(Channel::bounded(cap));
        (Sender { ch: ch.clone() }, Receiver { ch })
    }

    /// Create an unbuffered-in-spirit unbounded channel (for cases
    /// where Go code would size the channel to the workload).
    #[must_use]
    pub fn channel_unbounded<T>(&self) -> (Sender<T>, Receiver<T>) {
        let ch = Arc::new(Channel::unbounded());
        (Sender { ch: ch.clone() }, Receiver { ch })
    }

    /// Stop scheduler threads and join them. Idempotent.
    ///
    /// Goroutines still queued (and never awaited) may not run.
    /// Unbounded: a goroutine that never finishes (parked on a lost
    /// channel message) makes this wait forever — use
    /// [`Runtime::shutdown_within`] to degrade gracefully instead.
    pub fn shutdown(&self) {
        if self.inner.shut.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.stop.store(true, Ordering::Release);
        // A fully parked pool must notice the flag now, not after a
        // backstop timeout.
        self.inner.park.unpark_all();
        let mut threads = self.inner.threads.lock();
        for t in threads.iter_mut() {
            if let Some(t) = t.take() {
                t.join().expect("go scheduler thread panicked");
            }
        }
    }

    /// [`Runtime::shutdown`] with a drain deadline: wait up to
    /// `deadline` for the scheduler threads to finish their queues,
    /// then order them to abandon whatever is left and report the
    /// stragglers. The workers are joined either way — on `Err`
    /// nothing is still running, but the listed goroutines never
    /// completed. Idempotent (later calls return `Ok`).
    ///
    /// # Errors
    ///
    /// [`DrainError`] when the deadline expired with goroutines still
    /// queued or running.
    pub fn shutdown_within(&self, deadline: std::time::Duration) -> Result<(), DrainError> {
        if self.inner.shut.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        self.inner.stop.store(true, Ordering::Release);
        // Wake every sleeper *before* the drain deadline starts: a
        // fully parked pool drains instantly instead of eating the
        // deadline in 20–200 ms backstop increments.
        self.inner.park.unpark_all();
        let handles: Vec<_> = {
            let mut threads = self.inner.threads.lock();
            threads.iter_mut().filter_map(Option::take).collect()
        };
        let timed_out = !join_within(&handles, deadline);
        if timed_out {
            self.inner.abandon.store(true, Ordering::Release);
            self.inner.park.unpark_all();
            // Grace for workers idling between units to notice the flag.
            join_within(&handles, ABANDON_GRACE);
        }
        for t in handles {
            if t.is_finished() {
                t.join().expect("go scheduler thread panicked");
            } else {
                // Wedged inside a unit: detach rather than hang (never
                // kill); the thread's Arcs keep its shared state alive.
                drop(t);
            }
        }
        if timed_out {
            let stragglers = self
                .inner
                .queues
                .iter()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .map(|(worker, q)| Straggler {
                    worker,
                    pending: q.len(),
                    what: "goroutine ready queue",
                })
                .chain(suspended_stragglers(&self.inner.suspended))
                .collect();
            Err(DrainError {
                waited: deadline,
                stragglers,
            })
        } else {
            Ok(())
        }
    }
}

impl Drop for RtInner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.park.unpark_all();
        for t in self.threads.lock().iter_mut() {
            if let Some(t) = t.take() {
                let _ = t.join();
            }
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("go::Runtime")
            .field("threads", &self.num_threads())
            .field(
                "queued",
                &self.inner.queues.iter().map(ReadyQueue::len).sum::<usize>(),
            )
            .finish()
    }
}

impl Requeue for RtInner {
    fn requeue(&self, w: usize, u: Arc<UltCore>) {
        // A rescheduled goroutine goes to the *back* of the worker's
        // queue (the inbox), like Go's `Gosched` onto the global queue:
        // pushed onto its own LIFO deque it would be popped right back,
        // above the sibling it yielded to.
        self.queues[w].inject(u.into());
        self.park.notify_near(w);
    }

    fn wake(&self, w: usize, u: Arc<UltCore>) {
        // Like a yield, a woken goroutine must stay stealable should
        // this worker be tied up in a long unit — and a foreign thread
        // (reactor, timer) can only offer that through the shared lane.
        self.queues[w].push_shared(u.into());
        self.park.notify_near(w);
    }

    fn suspended(&self, w: usize) -> Option<&AtomicUsize> {
        Some(&self.suspended[w])
    }
}

fn worker_main(inner: &Arc<RtInner>, id: usize) {
    let _guard = enter_worker(id, inner.clone());
    inner.queues[id].bind();
    let n = inner.queues.len();
    let mut backoff = lwt_sync::Backoff::new();
    let heartbeat = lwt_chaos::register_worker("go", id);
    // Pre-park emptiness estimate: own queue in full, victims' deques
    // only (their inboxes are single-consumer — unreachable to us).
    let pending = |inner: &RtInner| {
        inner.queues[id].len()
            + near_first(id, n)
                .map(|v| inner.queues[v].stealable_len())
                .sum::<usize>()
    };
    loop {
        heartbeat.beat();
        if inner.abandon.load(Ordering::Acquire) {
            break;
        }
        // Bounded sweep: local deque + inbox, then every victim once,
        // nearest first. No unbounded retry anywhere on this path.
        let unit = inner.queues[id].pop().or_else(|| {
            lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Steal);
            for v in near_first(id, n) {
                COUNTERS.steal_attempts.inc();
                if let Some(u) = inner.queues[v].steal() {
                    COUNTERS.steal_hits.inc();
                    emit(EventKind::StealHit, v as u64);
                    return Some(u);
                }
            }
            None
        });
        match unit {
            Some(u) => {
                if lwt_chaos::should_inject(lwt_chaos::FaultSite::YieldPoint) {
                    std::thread::yield_now();
                }
                backoff.reset();
                run_unit(&u);
            }
            None => {
                if inner.stop.load(Ordering::Acquire)
                    && may_exit(&inner.suspended[id], || inner.queues[id].is_empty())
                {
                    break;
                }
                lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Idle);
                // Dry sweep: give the I/O reactor (if one is running)
                // a zero-timeout poll before burning backoff rounds —
                // readiness wakes repost through this runtime's own
                // queues, so a non-zero return means work may exist.
                if lwt_sched::io_poll() > 0 {
                    backoff.reset();
                    continue;
                }
                backoff.spin();
                if backoff.is_saturated() {
                    // The sweep proved the pool dry: sleep instead of
                    // burning the core (the pre-parking idle loop ate
                    // 100% CPU per idle worker here).
                    let _ = inner.park.park(id, Some(&heartbeat), || pending(inner));
                }
            }
        }
    }
}

/// Sending half of a channel.
pub struct Sender<T> {
    ch: Arc<Channel<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            ch: self.ch.clone(),
        }
    }
}

impl<T> Sender<T> {
    /// Send, parked (off the run queues; an external thread sleeps)
    /// while the buffer is full.
    ///
    /// # Errors
    ///
    /// [`SendError`] when the channel is closed.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.ch.send(value, || block_on(|cx| self.ch.poll_send_ready(cx)))
    }

    /// Non-blocking send attempt (`select` with `default`).
    ///
    /// # Errors
    ///
    /// See [`lwt_sync::Channel::try_send`].
    pub fn try_send(&self, value: T) -> Result<(), lwt_sync::TrySendError<T>> {
        self.ch.try_send(value)
    }

    /// Close the channel (`close(ch)`).
    pub fn close(&self) {
        self.ch.close();
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "go::Sender(len={})", self.ch.len())
    }
}

/// Receiving half of a channel.
pub struct Receiver<T> {
    ch: Arc<Channel<T>>,
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver {
            ch: self.ch.clone(),
        }
    }
}

impl<T> Receiver<T> {
    /// Receive, parked (off the run queues; an external thread sleeps)
    /// while empty.
    ///
    /// # Errors
    ///
    /// [`RecvError`] once the channel is closed and drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.ch.recv(|| block_on(|cx| self.ch.poll_recv_ready(cx)))
    }

    /// Non-blocking receive attempt.
    ///
    /// # Errors
    ///
    /// See [`lwt_sync::Channel::try_recv`].
    pub fn try_recv(&self) -> Result<T, lwt_sync::TryRecvError> {
        self.ch.try_recv()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "go::Receiver(len={})", self.ch.len())
    }
}

/// `sync.WaitGroup`: bulk completion tracking for goroutines.
///
/// ```
/// use lwt_go::{Config, Runtime, WaitGroup};
/// let rt = Runtime::init(Config { num_threads: 2, ..Config::default() });
/// let wg = WaitGroup::new(4);
/// for _ in 0..4 {
///     let wg = wg.clone();
///     rt.go(move || wg.done());
/// }
/// wg.wait();
/// rt.shutdown();
/// ```
#[derive(Clone, Debug)]
pub struct WaitGroup {
    latch: Arc<CountLatch>,
}

impl WaitGroup {
    /// A wait group expecting `count` completions.
    #[must_use]
    pub fn new(count: usize) -> Self {
        WaitGroup {
            latch: Arc::new(CountLatch::new(count)),
        }
    }

    /// Add `n` more expected completions (`wg.Add(n)`).
    pub fn add(&self, n: usize) {
        self.latch.add(n);
    }

    /// Record one completion (`wg.Done()`).
    pub fn done(&self) {
        self.latch.count_down();
    }

    /// Block until all completions arrive (`wg.Wait()`); a goroutine
    /// is parked until the last `done`.
    pub fn wait(&self) {
        self.latch
            .wait(|| block_on(|cx| self.latch.poll_released(cx)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn rt(n: usize) -> Runtime {
        Runtime::init(Config {
            num_threads: n,
            ..Config::default()
        })
    }

    #[test]
    fn goroutines_run() {
        let rt = rt(2);
        let wg = WaitGroup::new(100);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let (wg, hits) = (wg.clone(), hits.clone());
            rt.go(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                wg.done();
            });
        }
        wg.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        rt.shutdown();
    }

    #[test]
    fn channel_join_is_out_of_order_capable() {
        let rt = rt(2);
        let (tx, rx) = rt.channel::<usize>(64);
        for i in 0..64 {
            let tx = tx.clone();
            rt.go(move || tx.send(i).unwrap());
        }
        let mut seen = vec![false; 64];
        for _ in 0..64 {
            seen[rx.recv().unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        rt.shutdown();
    }

    #[test]
    fn bounded_channel_backpressure_reschedules() {
        let rt = rt(1);
        let (tx, rx) = rt.channel::<u32>(1);
        // Producer goroutine outpaces the buffer; its sends must
        // implicitly reschedule instead of deadlocking the single
        // scheduler thread.
        let txc = tx.clone();
        rt.go(move || {
            for i in 0..100 {
                txc.send(i).unwrap();
            }
            txc.close();
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        rt.shutdown();
    }

    #[test]
    fn goroutine_to_goroutine_pipeline() {
        let rt = rt(2);
        let (tx1, rx1) = rt.channel::<u64>(4);
        let (tx2, rx2) = rt.channel::<u64>(4);
        rt.go(move || {
            for i in 0..50 {
                tx1.send(i).unwrap();
            }
            tx1.close();
        });
        rt.go(move || {
            while let Ok(v) = rx1.recv() {
                tx2.send(v * 2).unwrap();
            }
            tx2.close();
        });
        let mut sum = 0;
        while let Ok(v) = rx2.recv() {
            sum += v;
        }
        assert_eq!(sum, 2 * (0..50).sum::<u64>());
        rt.shutdown();
    }

    #[test]
    fn nested_go_spawns() {
        let rt = rt(2);
        let wg = WaitGroup::new(10);
        let rt2 = rt.clone();
        let wg2 = wg.clone();
        rt.go(move || {
            for _ in 0..10 {
                let wg = wg2.clone();
                rt2.go(move || wg.done());
            }
        });
        wg.wait();
        rt.shutdown();
    }

    #[test]
    fn waitgroup_add_extends() {
        let rt = rt(1);
        let wg = WaitGroup::new(1);
        wg.add(1);
        let (a, b) = (wg.clone(), wg.clone());
        rt.go(move || a.done());
        rt.go(move || b.done());
        wg.wait();
        rt.shutdown();
    }

    #[test]
    fn close_wakes_receivers() {
        let rt = rt(1);
        let (tx, rx) = rt.channel::<u8>(1);
        rt.go(move || tx.close());
        assert_eq!(rx.recv(), Err(RecvError));
        rt.shutdown();
    }

    #[test]
    fn shutdown_idempotent_and_drop_safe() {
        let rt = rt(2);
        let wg = WaitGroup::new(1);
        let w = wg.clone();
        rt.go(move || w.done());
        wg.wait();
        rt.shutdown();
        rt.shutdown();
        drop(rt);
    }
}

/// Result of a two-way [`select2`].
#[derive(Debug, PartialEq, Eq)]
pub enum Either<A, B> {
    /// A message from the first channel.
    Left(A),
    /// A message from the second channel.
    Right(B),
}

/// A two-way `select { case <-a: …; case <-b: … }`: blocks (the
/// goroutine parked on both channels) until either channel yields a
/// message, preferring whichever is ready first; alternates the polling
/// order to avoid starving one arm.
///
/// # Errors
///
/// [`RecvError`] once *both* channels are closed and drained.
pub fn select2<A, B>(a: &Receiver<A>, b: &Receiver<B>) -> Result<Either<A, B>, RecvError> {
    let mut flip = false;
    loop {
        let (mut a_closed, mut b_closed) = (false, false);
        if flip {
            match b.try_recv() {
                Ok(v) => return Ok(Either::Right(v)),
                Err(lwt_sync::TryRecvError::Closed) => b_closed = true,
                Err(lwt_sync::TryRecvError::Empty) => {}
            }
            match a.try_recv() {
                Ok(v) => return Ok(Either::Left(v)),
                Err(lwt_sync::TryRecvError::Closed) => a_closed = true,
                Err(lwt_sync::TryRecvError::Empty) => {}
            }
        } else {
            match a.try_recv() {
                Ok(v) => return Ok(Either::Left(v)),
                Err(lwt_sync::TryRecvError::Closed) => a_closed = true,
                Err(lwt_sync::TryRecvError::Empty) => {}
            }
            match b.try_recv() {
                Ok(v) => return Ok(Either::Right(v)),
                Err(lwt_sync::TryRecvError::Closed) => b_closed = true,
                Err(lwt_sync::TryRecvError::Empty) => {}
            }
        }
        if a_closed && b_closed {
            return Err(RecvError);
        }
        flip = !flip;
        // Park on every channel that can still deliver (a closed,
        // drained one is "ready" forever and would make this a spin).
        block_on(|cx| {
            let a_ready = !a_closed && a.ch.poll_recv_ready(cx).is_ready();
            let b_ready = !b_closed && b.ch.poll_recv_ready(cx).is_ready();
            if !(a_ready || b_ready) {
                return std::task::Poll::Pending;
            }
            // The arm that did not deliver still holds the waker.
            a.ch.forget_waiter(cx.waker());
            b.ch.forget_waiter(cx.waker());
            std::task::Poll::Ready(())
        });
    }
}

#[cfg(test)]
mod select_tests {
    use super::*;

    #[test]
    fn select_takes_whichever_is_ready() {
        let rt = Runtime::init(Config {
            num_threads: 2,
            ..Config::default()
        });
        let (tx_a, rx_a) = rt.channel::<u32>(4);
        let (tx_b, rx_b) = rt.channel::<&'static str>(4);
        rt.go(move || tx_a.send(7).unwrap());
        match select2(&rx_a, &rx_b).unwrap() {
            Either::Left(v) => assert_eq!(v, 7),
            Either::Right(_) => panic!("b never sent"),
        }
        rt.go(move || tx_b.send("hi").unwrap());
        match select2(&rx_a, &rx_b).unwrap() {
            Either::Right(v) => assert_eq!(v, "hi"),
            Either::Left(_) => panic!("a is empty"),
        }
        rt.shutdown();
    }

    #[test]
    fn select_drains_both_arms_without_starvation() {
        let rt = Runtime::init(Config {
            num_threads: 2,
            ..Config::default()
        });
        let (tx_a, rx_a) = rt.channel::<u32>(64);
        let (tx_b, rx_b) = rt.channel::<u32>(64);
        rt.go(move || {
            for i in 0..50 {
                tx_a.send(i).unwrap();
            }
            tx_a.close();
        });
        rt.go(move || {
            for i in 50..100 {
                tx_b.send(i).unwrap();
            }
            tx_b.close();
        });
        let mut got = Vec::new();
        while let Ok(msg) = select2(&rx_a, &rx_b) {
            got.push(match msg {
                Either::Left(v) | Either::Right(v) => v,
            });
        }
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        rt.shutdown();
    }

    #[test]
    fn select_reports_closed_when_both_done() {
        let rt = Runtime::init(Config {
            num_threads: 1,
            ..Config::default()
        });
        let (tx_a, rx_a) = rt.channel::<u8>(1);
        let (tx_b, rx_b) = rt.channel::<u8>(1);
        tx_a.close();
        tx_b.close();
        assert_eq!(select2(&rx_a, &rx_b), Err(RecvError));
        rt.shutdown();
    }
}
