//! Process-wide metrics registry: the well-known counter set, the
//! latency histograms, per-thread event rings, and the snapshot API.
//!
//! Everything here is `static` — runtimes instrument unconditionally
//! against [`COUNTERS`] (relaxed increments, always on) and call
//! [`emit`] for ring events (one relaxed flag load when tracing is
//! off). Tests and benches read the other side through
//! [`snapshot`] / [`scoped`].
//!
//! This module uses `std::sync::Mutex` (never `lwt-sync` primitives)
//! so the dependency arrow always points *into* this crate.

use crate::clock;
use crate::event::EventKind;
use crate::histogram::{Histogram, HistogramSummary};
use crate::ring::EventRing;
use crate::{Counter, Gauge};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

// ---------------------------------------------------------------------------
// Well-known counters
// ---------------------------------------------------------------------------

/// The fixed, runtime-wide counter vocabulary. One instance lives in
/// [`COUNTERS`]; every runtime crate increments the same fields so a
/// snapshot compares runtimes on equal terms.
#[derive(Debug, Default)]
pub struct Counters {
    /// ULTs created (any runtime's spawn path).
    pub ults_created: Counter,
    /// Stackless tasklets created (argobots).
    pub tasklets_created: Counter,
    /// Voluntary yields back to a scheduler.
    pub yields: Counter,
    /// Waits on an `lwt_sync::WaitList` (joins, events, FEBs, channels)
    /// that found their condition false and suspended the caller —
    /// one per suspension, so a join that blocks costs exactly one.
    pub wait_blocks: Counter,
    /// Steal probes against a victim's deque.
    pub steal_attempts: Counter,
    /// Steal probes that found work.
    pub steal_hits: Counter,
    /// OS threads spawned (execution streams, shepherds/workers,
    /// processors, openmp team members…).
    pub os_threads_spawned: Counter,
    /// Joins that blocked on an empty full/empty bit (qthreads).
    pub feb_blocks: Counter,
    /// Blocked FEB readers that resumed (qthreads).
    pub feb_wakes: Counter,
    /// Converse messages executed on a processor's own stack.
    pub messages_executed: Counter,
    /// Nested parallel regions opened (openmp).
    pub nested_regions: Counter,
    /// Live size of the icc-style nested thread pool (openmp).
    pub nested_pool_size: Gauge,
    /// Fiber stacks served from the recycle cache (lwt-fiber).
    pub stack_cache_hits: Counter,
    /// Fiber stacks that had to be freshly allocated (lwt-fiber).
    pub stack_cache_misses: Counter,
    /// Ready-queue operations that hit contention: a Chase-Lev steal
    /// race or an MPSC injector observed mid-push (lwt-sched).
    pub queue_contention: Counter,
    /// Faults deliberately injected by the chaos engine (lwt-chaos).
    pub faults_injected: Counter,
    /// Stalls flagged by the watchdog: silent workers plus waits that
    /// outlived their deadline (lwt-chaos). Flags, never kills.
    pub stalls_detected: Counter,
    /// Workers that went to sleep on their parker after a dry steal
    /// sweep (lwt-sched). Paired with `unparks`.
    pub parks: Counter,
    /// Parked workers that resumed — wake-one notification, backstop
    /// timeout, or shutdown unpark (lwt-sched).
    pub unparks: Counter,
    /// Workers currently asleep on their parker (lwt-sched). The
    /// high-water mark records the deepest simultaneous sleep.
    pub workers_parked: Gauge,
    /// Trace events lost to ring wraparound: each push that overwrote
    /// a not-yet-exported event bumps this. Non-zero means the
    /// exported trace window is truncated (the exporter also flags it
    /// in the Perfetto header).
    pub ring_dropped: Counter,
    /// Stackless future polls executed by the async bridge
    /// (`Glt::spawn_async` tasks; every dispatch, `Pending` or
    /// `Ready`).
    pub async_polls: Counter,
    /// Waker firings that had an effect: the task was requeued onto a
    /// ready queue, or the wake was coalesced into the in-progress
    /// poll. No-op wakes (already queued / complete) are not counted.
    pub async_wakes: Counter,
    /// Closures handed to the `spawn_blocking` OS-thread pool.
    pub blocking_spawns: Counter,
    /// Sockets registered with the I/O reactor (lwt-net): listeners
    /// and streams each count once at registration.
    pub io_registrations: Counter,
    /// Readiness events the reactor driver observed and dispatched
    /// (epoll edges, per direction — one event may cover both).
    pub io_events: Counter,
    /// I/O readiness deliveries that resumed a waiter: the waker a
    /// suspended ULT, async task or parked thread left in the
    /// registration fired. Deliveries with nobody waiting (the
    /// optimistic try-first path won) are not counted.
    pub io_wakes: Counter,
    /// Deadlines armed on the timer wheel (`lwt_sched::timer`).
    pub timers_armed: Counter,
    /// Armed timers that reached their deadline and fired.
    pub timers_fired: Counter,
    /// Armed timers cancelled before firing (the op they guarded
    /// completed in time — the overwhelmingly common case).
    pub timers_cancelled: Counter,
    /// I/O operations that gave up on an expired deadline: a TCP
    /// read/write returning `TimedOut`, or an HTTP connection's
    /// idle/header timer expiring (lwt-net).
    pub io_timeouts: Counter,
    /// HTTP requests shed with `503 Service Unavailable` because the
    /// in-flight request semaphore was saturated (lwt-net).
    pub requests_shed: Counter,
    /// Request-handler panics contained by the server's
    /// `catch_unwind` isolation (each one answered with a 500 and a
    /// closed connection; the worker survived).
    pub handler_panics: Counter,
    /// Accept-loop pauses: the acceptor found the hard connection cap
    /// reached and waited for a connection to finish before accepting
    /// again (lwt-net admission control).
    pub accept_pauses: Counter,
}

impl Counters {
    const fn new() -> Self {
        Counters {
            ults_created: Counter::new(),
            tasklets_created: Counter::new(),
            yields: Counter::new(),
            wait_blocks: Counter::new(),
            steal_attempts: Counter::new(),
            steal_hits: Counter::new(),
            os_threads_spawned: Counter::new(),
            feb_blocks: Counter::new(),
            feb_wakes: Counter::new(),
            messages_executed: Counter::new(),
            nested_regions: Counter::new(),
            nested_pool_size: Gauge::new(),
            stack_cache_hits: Counter::new(),
            stack_cache_misses: Counter::new(),
            queue_contention: Counter::new(),
            faults_injected: Counter::new(),
            stalls_detected: Counter::new(),
            parks: Counter::new(),
            unparks: Counter::new(),
            workers_parked: Gauge::new(),
            ring_dropped: Counter::new(),
            async_polls: Counter::new(),
            async_wakes: Counter::new(),
            blocking_spawns: Counter::new(),
            io_registrations: Counter::new(),
            io_events: Counter::new(),
            io_wakes: Counter::new(),
            timers_armed: Counter::new(),
            timers_fired: Counter::new(),
            timers_cancelled: Counter::new(),
            io_timeouts: Counter::new(),
            requests_shed: Counter::new(),
            handler_panics: Counter::new(),
            accept_pauses: Counter::new(),
        }
    }
}

/// The process-wide counter set.
pub static COUNTERS: Counters = Counters::new();

/// Spawn-to-first-run latency (ns): stamped at ULT/tasklet creation,
/// recorded when the unit first executes. Only populated while
/// tracing is enabled (the stamp itself is skipped when off).
pub static SPAWN_LATENCY: Histogram = Histogram::new();

/// Steal-loop dwell time (ns): how long a worker went without work
/// between its queue running dry and the next unit it acquired.
pub static STEAL_DWELL: Histogram = Histogram::new();

// ---------------------------------------------------------------------------
// Tracing enable flag
// ---------------------------------------------------------------------------

/// 0 = uninitialized (consult `LWT_TRACE`), 1 = off, 2 = on.
static TRACING: AtomicU8 = AtomicU8::new(0);

/// Whether event-ring tracing is on. The hot path is one relaxed
/// load; the `LWT_TRACE` environment variable is consulted once, on
/// first call (unset, empty, or `0` ⇒ off; anything else ⇒ on).
#[inline]
#[must_use]
pub fn tracing_enabled() -> bool {
    match TRACING.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_tracing_from_env(),
    }
}

#[cold]
fn init_tracing_from_env() -> bool {
    let on = matches!(std::env::var("LWT_TRACE"), Ok(v) if !v.is_empty() && v != "0");
    // Lose gracefully to a concurrent `set_tracing`.
    let _ = TRACING.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    TRACING.load(Ordering::Relaxed) == 2
}

/// Programmatically force tracing on or off (tests, embedders);
/// overrides `LWT_TRACE`.
pub fn set_tracing(on: bool) {
    if on {
        // Anchor the epoch before the first traced event.
        clock::init();
    }
    TRACING.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// `clock::now_ns()` when tracing, 0 otherwise — for spawn-latency
/// stamps that must cost nothing when tracing is off.
#[inline]
#[must_use]
pub fn timestamp_if_tracing() -> u64 {
    if tracing_enabled() {
        clock::now_ns()
    } else {
        0
    }
}

/// Feed [`SPAWN_LATENCY`] the first time a unit stamped with
/// [`timestamp_if_tracing`] is dispatched. The fast path (tracing off
/// at spawn, or the stamp already consumed) is one relaxed load.
#[inline]
pub fn record_spawn_latency(stamp: &AtomicU64) {
    if stamp.load(Ordering::Relaxed) != 0 {
        let t0 = stamp.swap(0, Ordering::Relaxed);
        if t0 != 0 {
            SPAWN_LATENCY.record(clock::now_ns().saturating_sub(t0));
        }
    }
}

// ---------------------------------------------------------------------------
// Per-thread event rings
// ---------------------------------------------------------------------------

/// Default per-worker ring capacity (events); override with
/// `LWT_TRACE_RING_CAP`.
pub const DEFAULT_RING_CAP: usize = 8192;

static RINGS: Mutex<Vec<Arc<EventRing>>> = Mutex::new(Vec::new());
static RING_CAP: OnceLock<usize> = OnceLock::new();

thread_local! {
    static MY_RING: OnceCell<Arc<EventRing>> = const { OnceCell::new() };
}

fn ring_capacity() -> usize {
    *RING_CAP.get_or_init(|| {
        std::env::var("LWT_TRACE_RING_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&v| v > 0)
            .unwrap_or(DEFAULT_RING_CAP)
    })
}

fn lock_rings() -> MutexGuard<'static, Vec<Arc<EventRing>>> {
    RINGS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn register_current_thread() -> Arc<EventRing> {
    let label = std::thread::current()
        .name()
        .map_or_else(|| "external".to_string(), str::to_string);
    let mut rings = lock_rings();
    let worker = u32::try_from(rings.len()).unwrap_or(u32::MAX);
    let ring = Arc::new(EventRing::new(worker, label, ring_capacity()));
    rings.push(Arc::clone(&ring));
    ring
}

/// Record an event into the calling thread's ring **iff tracing is
/// enabled**. This is the instrumentation entry point: when tracing
/// is off it is one relaxed load and a predictable branch.
#[inline]
pub fn emit(kind: EventKind, arg: u64) {
    if tracing_enabled() {
        emit_enabled(kind, arg);
    }
}

#[cold]
fn emit_enabled(kind: EventKind, arg: u64) {
    emit_enabled_with_span(kind, arg, crate::span::current());
}

/// Record an event carrying an explicit span id (the `Span*` kinds,
/// where the span is the event's *subject*, not the emitting
/// context). Same one-relaxed-load disabled path as [`emit`].
#[inline]
pub fn emit_with_span(kind: EventKind, arg: u64, span: u64) {
    if tracing_enabled() {
        emit_enabled_with_span(kind, arg, span);
    }
}

#[cold]
fn emit_enabled_with_span(kind: EventKind, arg: u64, span: u64) {
    // try_with: a Drop-guard event during thread teardown must not
    // panic on destroyed TLS; the event is silently dropped instead.
    let _ = MY_RING.try_with(|cell| {
        let ring = cell.get_or_init(register_current_thread);
        ring.push(clock::now_ns(), kind, arg, span);
    });
}

/// Every registered per-thread ring, in registration order. Rings are
/// never unregistered (a dead worker's history stays exportable).
#[must_use]
pub fn rings() -> Vec<Arc<EventRing>> {
    lock_rings().clone()
}

// ---------------------------------------------------------------------------
// Snapshot API
// ---------------------------------------------------------------------------

/// Point-in-time values of every well-known counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// [`Counters::ults_created`].
    pub ults_created: u64,
    /// [`Counters::tasklets_created`].
    pub tasklets_created: u64,
    /// [`Counters::yields`].
    pub yields: u64,
    /// [`Counters::wait_blocks`].
    pub wait_blocks: u64,
    /// [`Counters::steal_attempts`].
    pub steal_attempts: u64,
    /// [`Counters::steal_hits`].
    pub steal_hits: u64,
    /// [`Counters::os_threads_spawned`].
    pub os_threads_spawned: u64,
    /// [`Counters::feb_blocks`].
    pub feb_blocks: u64,
    /// [`Counters::feb_wakes`].
    pub feb_wakes: u64,
    /// [`Counters::messages_executed`].
    pub messages_executed: u64,
    /// [`Counters::nested_regions`].
    pub nested_regions: u64,
    /// Current [`Counters::nested_pool_size`] level.
    pub nested_pool_level: u64,
    /// [`Counters::nested_pool_size`] high-water mark.
    pub nested_pool_high_water: u64,
    /// [`Counters::stack_cache_hits`].
    pub stack_cache_hits: u64,
    /// [`Counters::stack_cache_misses`].
    pub stack_cache_misses: u64,
    /// [`Counters::queue_contention`].
    pub queue_contention: u64,
    /// [`Counters::faults_injected`].
    pub faults_injected: u64,
    /// [`Counters::stalls_detected`].
    pub stalls_detected: u64,
    /// [`Counters::parks`].
    pub parks: u64,
    /// [`Counters::unparks`].
    pub unparks: u64,
    /// Current [`Counters::workers_parked`] level.
    pub workers_parked_level: u64,
    /// [`Counters::workers_parked`] high-water mark.
    pub workers_parked_high_water: u64,
    /// [`Counters::ring_dropped`].
    pub ring_dropped: u64,
    /// [`Counters::async_polls`].
    pub async_polls: u64,
    /// [`Counters::async_wakes`].
    pub async_wakes: u64,
    /// [`Counters::blocking_spawns`].
    pub blocking_spawns: u64,
    /// [`Counters::io_registrations`].
    pub io_registrations: u64,
    /// [`Counters::io_events`].
    pub io_events: u64,
    /// [`Counters::io_wakes`].
    pub io_wakes: u64,
    /// [`Counters::timers_armed`].
    pub timers_armed: u64,
    /// [`Counters::timers_fired`].
    pub timers_fired: u64,
    /// [`Counters::timers_cancelled`].
    pub timers_cancelled: u64,
    /// [`Counters::io_timeouts`].
    pub io_timeouts: u64,
    /// [`Counters::requests_shed`].
    pub requests_shed: u64,
    /// [`Counters::handler_panics`].
    pub handler_panics: u64,
    /// [`Counters::accept_pauses`].
    pub accept_pauses: u64,
}

impl CounterSnapshot {
    /// Counter movement since `earlier` (field-wise saturating
    /// difference). The two gauge fields are *levels*, not monotone
    /// counts, so they carry over from `self` unchanged.
    #[must_use]
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            ults_created: self.ults_created.saturating_sub(earlier.ults_created),
            tasklets_created: self.tasklets_created.saturating_sub(earlier.tasklets_created),
            yields: self.yields.saturating_sub(earlier.yields),
            wait_blocks: self.wait_blocks.saturating_sub(earlier.wait_blocks),
            steal_attempts: self.steal_attempts.saturating_sub(earlier.steal_attempts),
            steal_hits: self.steal_hits.saturating_sub(earlier.steal_hits),
            os_threads_spawned: self
                .os_threads_spawned
                .saturating_sub(earlier.os_threads_spawned),
            feb_blocks: self.feb_blocks.saturating_sub(earlier.feb_blocks),
            feb_wakes: self.feb_wakes.saturating_sub(earlier.feb_wakes),
            messages_executed: self
                .messages_executed
                .saturating_sub(earlier.messages_executed),
            nested_regions: self.nested_regions.saturating_sub(earlier.nested_regions),
            nested_pool_level: self.nested_pool_level,
            nested_pool_high_water: self.nested_pool_high_water,
            stack_cache_hits: self.stack_cache_hits.saturating_sub(earlier.stack_cache_hits),
            stack_cache_misses: self
                .stack_cache_misses
                .saturating_sub(earlier.stack_cache_misses),
            queue_contention: self.queue_contention.saturating_sub(earlier.queue_contention),
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
            stalls_detected: self.stalls_detected.saturating_sub(earlier.stalls_detected),
            parks: self.parks.saturating_sub(earlier.parks),
            unparks: self.unparks.saturating_sub(earlier.unparks),
            workers_parked_level: self.workers_parked_level,
            workers_parked_high_water: self.workers_parked_high_water,
            ring_dropped: self.ring_dropped.saturating_sub(earlier.ring_dropped),
            async_polls: self.async_polls.saturating_sub(earlier.async_polls),
            async_wakes: self.async_wakes.saturating_sub(earlier.async_wakes),
            blocking_spawns: self.blocking_spawns.saturating_sub(earlier.blocking_spawns),
            io_registrations: self
                .io_registrations
                .saturating_sub(earlier.io_registrations),
            io_events: self.io_events.saturating_sub(earlier.io_events),
            io_wakes: self.io_wakes.saturating_sub(earlier.io_wakes),
            timers_armed: self.timers_armed.saturating_sub(earlier.timers_armed),
            timers_fired: self.timers_fired.saturating_sub(earlier.timers_fired),
            timers_cancelled: self.timers_cancelled.saturating_sub(earlier.timers_cancelled),
            io_timeouts: self.io_timeouts.saturating_sub(earlier.io_timeouts),
            requests_shed: self.requests_shed.saturating_sub(earlier.requests_shed),
            handler_panics: self.handler_panics.saturating_sub(earlier.handler_panics),
            accept_pauses: self.accept_pauses.saturating_sub(earlier.accept_pauses),
        }
    }
}

/// Counters plus latency-histogram summaries, read at one moment.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsSnapshot {
    /// All well-known counters.
    pub counters: CounterSnapshot,
    /// Spawn-to-first-run latency distribution.
    pub spawn_latency: HistogramSummary,
    /// Steal-loop dwell-time distribution.
    pub steal_dwell: HistogramSummary,
}

/// Read every counter and histogram. Each field is individually
/// consistent; for a workload-exact reading use [`scoped`].
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let c = &COUNTERS;
    // Gauge pair: read the level first and clamp the mark with that
    // same observation. `rise` bumps level and high in two separate
    // relaxed RMWs, so an unclamped pair could report
    // high_water < level (DESIGN.md §10); the level read here is one
    // the gauge really held, so the clamp never overstates the peak.
    let pool_level = c.nested_pool_size.level();
    let pool_high = c.nested_pool_size.high_water().max(pool_level);
    let parked_level = c.workers_parked.level();
    let parked_high = c.workers_parked.high_water().max(parked_level);
    MetricsSnapshot {
        counters: CounterSnapshot {
            ults_created: c.ults_created.get(),
            tasklets_created: c.tasklets_created.get(),
            yields: c.yields.get(),
            wait_blocks: c.wait_blocks.get(),
            steal_attempts: c.steal_attempts.get(),
            steal_hits: c.steal_hits.get(),
            os_threads_spawned: c.os_threads_spawned.get(),
            feb_blocks: c.feb_blocks.get(),
            feb_wakes: c.feb_wakes.get(),
            messages_executed: c.messages_executed.get(),
            nested_regions: c.nested_regions.get(),
            nested_pool_level: pool_level,
            nested_pool_high_water: pool_high,
            stack_cache_hits: c.stack_cache_hits.get(),
            stack_cache_misses: c.stack_cache_misses.get(),
            queue_contention: c.queue_contention.get(),
            faults_injected: c.faults_injected.get(),
            stalls_detected: c.stalls_detected.get(),
            parks: c.parks.get(),
            unparks: c.unparks.get(),
            workers_parked_level: parked_level,
            workers_parked_high_water: parked_high,
            ring_dropped: c.ring_dropped.get(),
            async_polls: c.async_polls.get(),
            async_wakes: c.async_wakes.get(),
            blocking_spawns: c.blocking_spawns.get(),
            io_registrations: c.io_registrations.get(),
            io_events: c.io_events.get(),
            io_wakes: c.io_wakes.get(),
            timers_armed: c.timers_armed.get(),
            timers_fired: c.timers_fired.get(),
            timers_cancelled: c.timers_cancelled.get(),
            io_timeouts: c.io_timeouts.get(),
            requests_shed: c.requests_shed.get(),
            handler_panics: c.handler_panics.get(),
            accept_pauses: c.accept_pauses.get(),
        },
        spawn_latency: SPAWN_LATENCY.summary(),
        steal_dwell: STEAL_DWELL.summary(),
    }
}

/// Zero every counter, gauge, and histogram (rings are left alone —
/// they are flight recorders, not accumulators).
pub fn reset() {
    let c = &COUNTERS;
    c.ults_created.reset();
    c.tasklets_created.reset();
    c.yields.reset();
    c.wait_blocks.reset();
    c.steal_attempts.reset();
    c.steal_hits.reset();
    c.os_threads_spawned.reset();
    c.feb_blocks.reset();
    c.feb_wakes.reset();
    c.messages_executed.reset();
    c.nested_regions.reset();
    c.nested_pool_size.reset();
    c.stack_cache_hits.reset();
    c.stack_cache_misses.reset();
    c.queue_contention.reset();
    c.faults_injected.reset();
    c.stalls_detected.reset();
    c.parks.reset();
    c.unparks.reset();
    c.workers_parked.reset();
    c.ring_dropped.reset();
    c.async_polls.reset();
    c.async_wakes.reset();
    c.blocking_spawns.reset();
    c.io_registrations.reset();
    c.io_events.reset();
    c.io_wakes.reset();
    c.timers_armed.reset();
    c.timers_fired.reset();
    c.timers_cancelled.reset();
    c.io_timeouts.reset();
    c.requests_shed.reset();
    c.handler_panics.reset();
    c.accept_pauses.reset();
    SPAWN_LATENCY.reset();
    STEAL_DWELL.reset();
}

/// The per-worker time-accounting table (where each worker's wall
/// time went) — the registry-level entry point to
/// [`crate::timeline::utilization`]. Empty unless accounting was
/// enabled (`LWT_UTILIZATION` / [`crate::timeline::set_accounting`]).
#[must_use]
pub fn utilization() -> crate::timeline::Utilization {
    crate::timeline::utilization()
}

/// Serializes [`scoped`] sections so concurrent test suites can't
/// interleave reset/read.
static SCOPE: Mutex<()> = Mutex::new(());

/// Run `workload` inside a reset→run→snapshot window, serialized
/// against every other `scoped` caller in the process.
///
/// This is *the* way for tests to assert exact counter formulas (the
/// §IX-C spawn counts): the internal lock closes the race where suite
/// A resets between suite B's reset and read. Counters touched by
/// threads outside the scope (another runtime idling in the same
/// process) still leak in — keep scoped workloads self-contained.
pub fn scoped<T>(workload: impl FnOnce() -> T) -> (T, MetricsSnapshot) {
    let _serial = SCOPE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    reset();
    let out = workload();
    (out, snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registry state is process-global; each test here goes through
    // `scoped`, which serializes them against each other.

    #[test]
    fn scoped_reads_exactly_the_workload() {
        let ((), snap) = scoped(|| {
            COUNTERS.ults_created.inc();
            COUNTERS.ults_created.inc();
            COUNTERS.yields.inc();
            SPAWN_LATENCY.record(100);
        });
        assert_eq!(snap.counters.ults_created, 2);
        assert_eq!(snap.counters.yields, 1);
        assert_eq!(snap.spawn_latency.count, 1);
        let ((), snap2) = scoped(|| COUNTERS.ults_created.inc());
        assert_eq!(snap2.counters.ults_created, 1, "scope must reset");
    }

    #[test]
    fn delta_subtracts_counters_but_not_gauge_levels() {
        let before = CounterSnapshot {
            ults_created: 10,
            yields: 5,
            ..CounterSnapshot::default()
        };
        let after = CounterSnapshot {
            ults_created: 25,
            yields: 5,
            nested_pool_level: 3,
            nested_pool_high_water: 7,
            ..CounterSnapshot::default()
        };
        let d = after.delta(&before);
        assert_eq!(d.ults_created, 15);
        assert_eq!(d.yields, 0);
        assert_eq!(d.nested_pool_level, 3);
        assert_eq!(d.nested_pool_high_water, 7);
        // Saturating: a reset between snapshots can't underflow.
        assert_eq!(before.delta(&after).ults_created, 0);
    }

    #[test]
    fn timestamp_stamp_is_zero_when_tracing_off() {
        // Don't flip the global flag here (unit tests share the
        // process); just exercise the accessor against current state.
        let ts = timestamp_if_tracing();
        if tracing_enabled() {
            assert!(ts > 0);
        } else {
            assert_eq!(ts, 0);
        }
    }
}
