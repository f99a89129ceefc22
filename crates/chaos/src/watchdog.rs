//! The stall watchdog: per-worker heartbeats plus a detector thread
//! that flags — never kills — stuck workers and over-deadline waits.
//!
//! Two things are watched:
//!
//! * **Workers.** Every scheduler loop registers a [`Heartbeat`] and
//!   beats it once per iteration. A worker whose last beat is older
//!   than the stall threshold is flagged once (and re-armed when it
//!   beats again), so a wedged dispatch loop — livelock, a unit that
//!   never returns — surfaces as a [`StallReport`] instead of silent
//!   missing throughput.
//! * **Blocked units.** Long waits (FEB acquires, joins, GLT event
//!   waits) register a [`BlockGuard`] on their slow path; an entry
//!   that outlives the blocked-deadline is flagged with its site kind
//!   and token. This is the "blocked-unit table": [`reports`] lists
//!   every flagged wait, the deliberately seeded FEB deadlock test
//!   pins the detection latency.
//!
//! Detection *reports*: each new flag increments
//! [`stalls_detected`](lwt_metrics::Counters::stalls_detected), emits
//! a [`StallDetected`](lwt_metrics::EventKind::StallDetected) ring
//! event, prints one `lwt-watchdog:` line to stderr (what the CI
//! zero-false-positive smoke greps for), and is appended to the
//! in-process table. Nothing is ever unblocked, killed, or retried —
//! degradation decisions stay with the caller.
//!
//! ## Cost when off
//!
//! [`Heartbeat::beat`] and [`block_enter`] are one relaxed load when
//! the watchdog is disabled; no detector thread is spawned.
//!
//! ## Knobs
//!
//! * `LWT_WATCHDOG=1` — enable (unset/empty/`0` means off).
//! * `LWT_WATCHDOG_MS=<ms>` — stall and blocked-wait threshold
//!   (default [`DEFAULT_THRESHOLD_MS`]); the detector wakes at a
//!   quarter of it, so detection latency is at most ~1.25×.
//! * [`force_watchdog`] / [`disable_watchdog`] /
//!   [`reset_watchdog_to_env`] — programmatic overrides for tests.
//!
//! ## False positives
//!
//! A *healthy* worker beats every loop iteration, including idle
//! backoff naps, so it can only be flagged while executing one work
//! unit for longer than the threshold — a genuinely long-running unit
//! is indistinguishable from a wedged one by heartbeat alone (raise
//! `LWT_WATCHDOG_MS` for coarse-grained workloads). Blocked-wait
//! flags only ever fire after the configured deadline, so ordinary
//! short joins never report.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use lwt_metrics::registry::{emit, COUNTERS};
use lwt_metrics::EventKind;

/// Default stall/blocked threshold in milliseconds.
pub const DEFAULT_THRESHOLD_MS: u64 = 500;

/// Watchdog timing configuration (see [`force_watchdog`]).
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Detector wake period.
    pub interval: Duration,
    /// A worker whose last heartbeat is older than this is stalled.
    pub worker_stall: Duration,
    /// A registered wait older than this is over-deadline.
    pub blocked_after: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        let threshold = Duration::from_millis(DEFAULT_THRESHOLD_MS);
        WatchdogConfig {
            interval: threshold / 4,
            worker_stall: threshold,
            blocked_after: threshold,
        }
    }
}

/// 0 = uninitialized (consult `LWT_WATCHDOG`), 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);
static INTERVAL_NS: AtomicU64 = AtomicU64::new(DEFAULT_THRESHOLD_MS * 1_000_000 / 4);
static STALL_NS: AtomicU64 = AtomicU64::new(DEFAULT_THRESHOLD_MS * 1_000_000);
static BLOCKED_NS: AtomicU64 = AtomicU64::new(DEFAULT_THRESHOLD_MS * 1_000_000);

/// Monotonic nanoseconds since the first watchdog touch.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Whether the watchdog is on. Hot path: one relaxed load; the
/// environment is consulted once, on first call.
#[inline]
#[must_use]
pub fn watchdog_enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = matches!(std::env::var("LWT_WATCHDOG"), Ok(v) if !v.is_empty() && v != "0");
    if on {
        if let Some(ms) = std::env::var("LWT_WATCHDOG_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&ms| ms > 0)
        {
            set_thresholds(Duration::from_millis(ms));
        }
    }
    // Lose gracefully to a concurrent `force_watchdog`.
    let _ = STATE.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    if STATE.load(Ordering::Relaxed) == 2 {
        ensure_detector();
        true
    } else {
        false
    }
}

fn set_thresholds(threshold: Duration) {
    let ns = u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX);
    STALL_NS.store(ns, Ordering::Relaxed);
    BLOCKED_NS.store(ns, Ordering::Relaxed);
    INTERVAL_NS.store((ns / 4).max(1_000_000), Ordering::Relaxed);
}

/// Programmatically enable the watchdog with explicit timings,
/// overriding `LWT_WATCHDOG`. Clears the report table so a test reads
/// only its own detections.
pub fn force_watchdog(cfg: WatchdogConfig) {
    INTERVAL_NS.store(
        u64::try_from(cfg.interval.as_nanos()).unwrap_or(u64::MAX).max(1_000_000),
        Ordering::Relaxed,
    );
    STALL_NS.store(u64::try_from(cfg.worker_stall.as_nanos()).unwrap_or(u64::MAX), Ordering::Relaxed);
    BLOCKED_NS.store(u64::try_from(cfg.blocked_after.as_nanos()).unwrap_or(u64::MAX), Ordering::Relaxed);
    take_reports();
    STATE.store(2, Ordering::Relaxed);
    ensure_detector();
}

/// Programmatically disable the watchdog (the detector thread idles).
pub fn disable_watchdog() {
    STATE.store(1, Ordering::Relaxed);
}

/// Forget any programmatic override: the next [`watchdog_enabled`]
/// call consults `LWT_WATCHDOG` again.
pub fn reset_watchdog_to_env() {
    STATE.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Worker heartbeats
// ---------------------------------------------------------------------------

struct BeatSlot {
    backend: &'static str,
    worker: usize,
    last_ns: AtomicU64,
    retired: AtomicBool,
    flagged: AtomicBool,
    /// Deliberately asleep on its parker: the detector must not read
    /// a parked worker's silent heartbeat as a stall.
    parked: AtomicBool,
}

/// A worker's heartbeat handle. Beat it once per scheduler-loop
/// iteration; drop it when the loop exits (the slot retires).
#[derive(Debug)]
pub struct Heartbeat {
    slot: Arc<BeatSlot>,
}

impl std::fmt::Debug for BeatSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BeatSlot")
            .field("backend", &self.backend)
            .field("worker", &self.worker)
            .finish()
    }
}

impl Heartbeat {
    /// Record liveness. One relaxed load when the watchdog is off.
    #[inline]
    pub fn beat(&self) {
        if watchdog_enabled() {
            self.slot.last_ns.store(now_ns(), Ordering::Relaxed);
        }
    }

    /// Mark the worker as deliberately parked (asleep on its parker,
    /// `LWT_WAIT_POLICY` passive/adaptive). A parked worker does not
    /// beat, so without this the detector would flag every healthy
    /// sleeper. Unmarking also refreshes the heartbeat — the silence
    /// while asleep must not count against the freshly woken worker.
    #[inline]
    pub fn set_parked(&self, parked: bool) {
        // Unconditional (unlike `beat`): a watchdog enabled mid-park
        // must still see the worker as deliberately asleep.
        if !parked && watchdog_enabled() {
            self.slot.last_ns.store(now_ns(), Ordering::Relaxed);
        }
        self.slot.parked.store(parked, Ordering::Relaxed);
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.slot.retired.store(true, Ordering::Relaxed);
    }
}

static WORKERS: Mutex<Vec<Arc<BeatSlot>>> = Mutex::new(Vec::new());

fn lock_poisonless<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Register the calling scheduler loop with the watchdog. Always
/// cheap; the detector only watches the slot while enabled.
#[must_use]
pub fn register_worker(backend: &'static str, worker: usize) -> Heartbeat {
    let slot = Arc::new(BeatSlot {
        backend,
        worker,
        last_ns: AtomicU64::new(now_ns()),
        retired: AtomicBool::new(false),
        flagged: AtomicBool::new(false),
        parked: AtomicBool::new(false),
    });
    {
        let mut workers = lock_poisonless(&WORKERS);
        workers.retain(|s| !s.retired.load(Ordering::Relaxed));
        workers.push(Arc::clone(&slot));
    }
    if watchdog_enabled() {
        ensure_detector();
    }
    Heartbeat { slot }
}

// ---------------------------------------------------------------------------
// Blocked-unit registry
// ---------------------------------------------------------------------------

/// What kind of wait a [`BlockGuard`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A full/empty-bit acquire (`lwt_sync::FebCell`).
    Feb,
    /// A join on a work unit (handle join, `wait_until`).
    Join,
    /// A one-shot event wait (`lwt_sync::Event`, GLT join slots).
    Event,
    /// A runtime drain (`Glt::finalize` and backend shutdowns).
    Finalize,
    /// An I/O readiness wait on the reactor (`lwt-net`): a ULT (or OS
    /// thread) suspended in a synchronous socket call until its
    /// registration's waker fires. Long is normal here — an acceptor
    /// on a quiet listener — so a report is a prompt, not a verdict.
    Io,
}

impl BlockKind {
    /// Stable display name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            BlockKind::Feb => "feb",
            BlockKind::Join => "join",
            BlockKind::Event => "event",
            BlockKind::Finalize => "finalize",
            BlockKind::Io => "io",
        }
    }
}

struct BlockEntry {
    kind: BlockKind,
    token: u64,
    since_ns: u64,
    flagged: bool,
}

static BLOCKED: Mutex<Vec<Option<BlockEntry>>> = Mutex::new(Vec::new());

/// Registration handle for a long wait; drop when the wait resolves.
#[derive(Debug)]
pub struct BlockGuard {
    idx: usize,
}

impl Drop for BlockGuard {
    fn drop(&mut self) {
        lock_poisonless(&BLOCKED)[self.idx] = None;
    }
}

/// Register a wait with the watchdog. Returns `None` (one relaxed
/// load) when disabled. `token` identifies the awaited thing — the
/// convention is the address of the cell/slot being waited on — and
/// is echoed in the report so a deadlock names its unit.
#[must_use]
pub fn block_enter(kind: BlockKind, token: u64) -> Option<BlockGuard> {
    if !watchdog_enabled() {
        return None;
    }
    let entry = BlockEntry {
        kind,
        token,
        since_ns: now_ns(),
        flagged: false,
    };
    let mut blocked = lock_poisonless(&BLOCKED);
    let idx = match blocked.iter().position(Option::is_none) {
        Some(i) => {
            blocked[i] = Some(entry);
            i
        }
        None => {
            blocked.push(Some(entry));
            blocked.len() - 1
        }
    };
    drop(blocked);
    ensure_detector();
    Some(BlockGuard { idx })
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// What a report is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallSubject {
    /// A worker's heartbeat went silent. Fields: backend label,
    /// worker index.
    Worker(&'static str, usize),
    /// A registered wait outlived its deadline. Fields: wait kind,
    /// caller-supplied token.
    Blocked(BlockKind, u64),
}

/// One watchdog detection (nothing was killed; this is a flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallReport {
    /// What stalled.
    pub subject: StallSubject,
    /// How long it had been silent/blocked when flagged.
    pub stuck_ms: u64,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.subject {
            StallSubject::Worker(backend, worker) => write!(
                f,
                "worker stall: {backend} worker {worker} silent for {} ms",
                self.stuck_ms
            ),
            StallSubject::Blocked(kind, token) => write!(
                f,
                "blocked unit: {} wait on {token:#x} exceeded deadline ({} ms)",
                kind.name(),
                self.stuck_ms
            ),
        }
    }
}

static REPORTS: Mutex<Vec<StallReport>> = Mutex::new(Vec::new());

/// The blocked-unit/stalled-worker table accumulated so far.
#[must_use]
pub fn reports() -> Vec<StallReport> {
    lock_poisonless(&REPORTS).clone()
}

/// Drain the report table, returning its contents.
pub fn take_reports() -> Vec<StallReport> {
    std::mem::take(&mut *lock_poisonless(&REPORTS))
}

fn file_report(r: StallReport) {
    COUNTERS.stalls_detected.inc();
    let arg = match r.subject {
        StallSubject::Worker(_, worker) => worker as u64,
        StallSubject::Blocked(_, token) => token,
    };
    emit(EventKind::StallDetected, arg);
    eprintln!("lwt-watchdog: {r}");
    lock_poisonless(&REPORTS).push(r);
    // Post-mortem bundle: armed by LWT_FLIGHTREC, rate-capped inside
    // `dump`. Registered sections put this very report table (and the
    // chaos seed state) into the bundle, so push first, dump after.
    crate::sections::register_flightrec_sections();
    let _ = lwt_metrics::flightrec::dump("stall");
}

// ---------------------------------------------------------------------------
// The detector
// ---------------------------------------------------------------------------

fn ensure_detector() {
    static DETECTOR: OnceLock<()> = OnceLock::new();
    DETECTOR.get_or_init(|| {
        std::thread::Builder::new()
            .name("lwt-watchdog".into())
            .spawn(detector_main)
            .map(|_| ())
            .unwrap_or(()) // spawn failure: watchdog silently inert
    });
}

fn detector_main() {
    loop {
        let interval = INTERVAL_NS.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_nanos(interval));
        if STATE.load(Ordering::Relaxed) != 2 {
            continue;
        }
        let now = now_ns();
        let stall_ns = STALL_NS.load(Ordering::Relaxed);
        let blocked_ns = BLOCKED_NS.load(Ordering::Relaxed);

        let workers: Vec<Arc<BeatSlot>> = {
            let mut w = lock_poisonless(&WORKERS);
            w.retain(|s| !s.retired.load(Ordering::Relaxed));
            w.clone()
        };
        for slot in workers {
            if slot.parked.load(Ordering::Relaxed) {
                // Asleep on purpose; disarm so the first post-wake
                // interval starts a fresh observation.
                slot.flagged.store(false, Ordering::Relaxed);
                continue;
            }
            let silent = now.saturating_sub(slot.last_ns.load(Ordering::Relaxed));
            if silent > stall_ns {
                if !slot.flagged.swap(true, Ordering::Relaxed) {
                    file_report(StallReport {
                        subject: StallSubject::Worker(slot.backend, slot.worker),
                        stuck_ms: silent / 1_000_000,
                    });
                }
            } else {
                // Re-arm: a worker that recovered can be flagged again.
                slot.flagged.store(false, Ordering::Relaxed);
            }
        }

        let overdue: Vec<StallReport> = {
            let mut blocked = lock_poisonless(&BLOCKED);
            blocked
                .iter_mut()
                .flatten()
                .filter(|e| !e.flagged && now.saturating_sub(e.since_ns) > blocked_ns)
                .map(|e| {
                    e.flagged = true;
                    StallReport {
                        subject: StallSubject::Blocked(e.kind, e.token),
                        stuck_ms: now.saturating_sub(e.since_ns) / 1_000_000,
                    }
                })
                .collect()
        };
        for r in overdue {
            file_report(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Watchdog state is process-global; serialize mutating tests.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn tight() -> WatchdogConfig {
        WatchdogConfig {
            interval: Duration::from_millis(5),
            worker_stall: Duration::from_millis(40),
            blocked_after: Duration::from_millis(40),
        }
    }

    #[test]
    fn disabled_paths_are_inert() {
        let _s = serial();
        disable_watchdog();
        assert!(block_enter(BlockKind::Feb, 0xAB).is_none());
        let hb = register_worker("test", 0);
        hb.beat(); // must not record anything
        reset_watchdog_to_env();
    }

    #[test]
    fn silent_worker_is_flagged_and_rearms() {
        let _s = serial();
        force_watchdog(tight());
        let hb = register_worker("test-silent", 7);
        std::thread::sleep(Duration::from_millis(120));
        let flagged = reports().into_iter().any(|r| {
            matches!(r.subject, StallSubject::Worker("test-silent", 7))
        });
        assert!(flagged, "silent worker must be reported: {:?}", reports());
        // Recover, then confirm no *new* flag accrues while beating.
        hb.beat();
        let count = reports().len();
        for _ in 0..20 {
            hb.beat();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            reports().len(),
            count,
            "a beating worker must not be re-flagged"
        );
        drop(hb);
        disable_watchdog();
        reset_watchdog_to_env();
    }

    #[test]
    fn parked_worker_is_never_flagged() {
        let _s = serial();
        force_watchdog(tight());
        let hb = register_worker("test-parked", 9);
        hb.set_parked(true);
        // Far past the stall threshold; a parked worker must stay
        // unflagged for as long as it sleeps.
        std::thread::sleep(Duration::from_millis(120));
        let flagged = reports()
            .into_iter()
            .any(|r| matches!(r.subject, StallSubject::Worker("test-parked", 9)));
        assert!(!flagged, "parked worker was flagged: {:?}", reports());
        // Unparking refreshes the heartbeat: still no flag right away.
        hb.set_parked(false);
        std::thread::sleep(Duration::from_millis(15));
        let flagged = reports()
            .into_iter()
            .any(|r| matches!(r.subject, StallSubject::Worker("test-parked", 9)));
        assert!(!flagged, "freshly woken worker must not inherit its sleep");
        drop(hb);
        disable_watchdog();
        reset_watchdog_to_env();
    }

    #[test]
    fn overdue_block_is_reported_once_and_clears_on_drop() {
        let _s = serial();
        force_watchdog(tight());
        let token = 0xDEAD_0001u64;
        let g = block_enter(BlockKind::Join, token).expect("enabled");
        std::thread::sleep(Duration::from_millis(120));
        let hits = reports()
            .into_iter()
            .filter(|r| matches!(r.subject, StallSubject::Blocked(BlockKind::Join, t) if t == token))
            .count();
        assert_eq!(hits, 1, "one overdue wait flags exactly once");
        drop(g);
        // A new short wait on the same token must not be flagged.
        let g2 = block_enter(BlockKind::Join, token).expect("enabled");
        drop(g2);
        std::thread::sleep(Duration::from_millis(30));
        let hits = reports()
            .into_iter()
            .filter(|r| matches!(r.subject, StallSubject::Blocked(BlockKind::Join, t) if t == token))
            .count();
        assert_eq!(hits, 1, "resolved waits must not report");
        disable_watchdog();
        reset_watchdog_to_env();
    }

    #[test]
    fn display_names_both_shapes() {
        let w = StallReport {
            subject: StallSubject::Worker("qthreads", 3),
            stuck_ms: 250,
        };
        assert!(format!("{w}").contains("qthreads worker 3"));
        let b = StallReport {
            subject: StallSubject::Blocked(BlockKind::Feb, 0x10),
            stuck_ms: 99,
        };
        let s = format!("{b}");
        assert!(s.contains("feb") && s.contains("0x10"), "{s}");
    }
}
