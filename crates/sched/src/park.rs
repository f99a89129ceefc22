//! Worker parking and the wake-one protocol — how idle workers stop
//! burning cores.
//!
//! Before this layer, every idle worker in every backend sat in a
//! spin/nap loop, re-sweeping empty queues forever: the active-wait
//! behavior the paper's `OMP_WAIT_POLICY` discussion warns about. A
//! quiescent 4-worker runtime ate 4 cores. [`ParkGroup`] gives each
//! worker a [`Parker`] slot and a protocol for going to sleep without
//! ever missing work:
//!
//! * **Idle side** ([`ParkGroup::park`]): the worker *announces* it is
//!   idle (slot flag + group count), issues a `SeqCst` fence, and
//!   **re-checks** for pending work. Only if the re-check still finds
//!   nothing does it sleep on its parker.
//! * **Notify side** ([`ParkGroup::notify`]): a spawner pushes its
//!   work unit *first*, issues a `SeqCst` fence, and then looks at the
//!   idle count. When idle workers exist it wakes **at most one**
//!   (wake-one), guarded by a *handoff* flag so a burst of spawns
//!   doesn't thundering-herd every sleeper awake.
//!
//! The two fences preclude the store-buffering outcome where the
//! spawner misses the announcement *and* the idler misses the work:
//! in every interleaving at least one side sees the other, so either
//! the idler aborts its park (re-check hit) or the spawner wakes it
//! (idle count hit). The parker's token makes the wake itself raceless
//! — an unpark delivered between announce and sleep is consumed by the
//! sleep, not lost. `crates/model/tests/park.rs` pins this argument by
//! model-checking the real code with the sleep made blocking.
//!
//! The handoff flag is cleared by whichever worker exits the idle path
//! next; a woken worker that finds more than one pending unit wakes
//! one more sleeper ([wake propagation]), so bursts fan out one wake
//! at a time instead of all at once or not at all.
//!
//! [wake propagation]: ParkGroup::park
//!
//! ## Wait policies (`LWT_WAIT_POLICY`)
//!
//! Mirroring `OMP_WAIT_POLICY`:
//!
//! * `active` — never sleep: [`ParkGroup::park`] degrades to the old
//!   bounded nap, for latency-critical runs that own their cores.
//! * `passive` — sleep as soon as the caller's backoff is exhausted.
//! * `adaptive` (default) — yield the OS thread for a short grace
//!   window (re-checking for work, and polling the I/O reactor, each
//!   round), then sleep.
//!
//! Sleeps use a generous backstop timeout as defense in depth: even if
//! a wake were lost, the worker re-sweeps within the backstop instead
//! of hanging forever. Correctness never relies on it.

use std::time::Duration;

use lwt_metrics::registry::{emit, COUNTERS};
use lwt_metrics::EventKind;
use lwt_sync::Parker;

use crate::sysapi::{fence, AtomicBool, AtomicUsize};
use std::sync::atomic::{AtomicU8, Ordering};

/// How an idle worker should wait for work (`OMP_WAIT_POLICY` analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPolicy {
    /// Never park: idle workers keep re-sweeping with short naps. The
    /// pre-parking behavior, for runs that own their cores.
    Active,
    /// Park as soon as the idle path is reached.
    Passive,
    /// Yield briefly (re-checking for work), then park. The default.
    Adaptive,
}

impl WaitPolicy {
    /// Stable display name (the accepted `LWT_WAIT_POLICY` spelling).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            WaitPolicy::Active => "active",
            WaitPolicy::Passive => "passive",
            WaitPolicy::Adaptive => "adaptive",
        }
    }

    /// Parse an `LWT_WAIT_POLICY` value (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<WaitPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "active" => Some(WaitPolicy::Active),
            "passive" => Some(WaitPolicy::Passive),
            "adaptive" => Some(WaitPolicy::Adaptive),
            _ => None,
        }
    }
}

/// 0 = uninitialized (consult `LWT_WAIT_POLICY`), else policy + 1.
static POLICY: AtomicU8 = AtomicU8::new(0);

fn encode(p: WaitPolicy) -> u8 {
    match p {
        WaitPolicy::Active => 1,
        WaitPolicy::Passive => 2,
        WaitPolicy::Adaptive => 3,
    }
}

/// The wait policy in effect. Hot path: one relaxed load; the
/// environment is consulted once, on first call. Unset or
/// unrecognized values mean [`WaitPolicy::Adaptive`].
#[inline]
#[must_use]
pub fn current_wait_policy() -> WaitPolicy {
    match POLICY.load(Ordering::Relaxed) {
        1 => WaitPolicy::Active,
        2 => WaitPolicy::Passive,
        3 => WaitPolicy::Adaptive,
        _ => init_policy_from_env(),
    }
}

#[cold]
fn init_policy_from_env() -> WaitPolicy {
    let p = std::env::var("LWT_WAIT_POLICY")
        .ok()
        .and_then(|v| WaitPolicy::parse(&v))
        .unwrap_or(WaitPolicy::Adaptive);
    // Lose gracefully to a concurrent `force_wait_policy`.
    let _ = POLICY.compare_exchange(0, encode(p), Ordering::Relaxed, Ordering::Relaxed);
    current_wait_policy()
}

/// Programmatically pin the wait policy, overriding `LWT_WAIT_POLICY`
/// (process-wide — it steers every `ParkGroup`).
pub fn force_wait_policy(p: WaitPolicy) {
    POLICY.store(encode(p), Ordering::Relaxed);
}

/// Forget any programmatic override: the next [`current_wait_policy`]
/// call consults `LWT_WAIT_POLICY` again.
pub fn reset_wait_policy_to_env() {
    POLICY.store(0, Ordering::Relaxed);
}

/// Why [`ParkGroup::park`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkResult {
    /// The post-announce re-check saw pending work: the worker never
    /// slept and should sweep its queues now.
    FoundWork,
    /// The worker slept and a wake token arrived (a spawner's
    /// notification, a spurious chaos unpark, or a shutdown unpark).
    Woken,
    /// The backstop timeout expired with no token; sweep and re-park.
    TimedOut,
    /// The policy forbids sleeping (active), the adaptive grace window
    /// saw no work yet, or the worker index has no slot: the worker
    /// yielded/napped instead. Loop and re-sweep.
    Spun,
}

/// Per-worker parking state.
struct ParkSlot {
    parker: Parker,
    /// The worker is inside the idle path (announce → sleep → exit):
    /// the notify side targets announced slots, so a wake aimed at a
    /// worker still on its way down deposits a token the imminent
    /// sleep consumes immediately.
    announced: AtomicBool,
}

/// Parker/unparker state for one runtime's worker pool. See module
/// docs for the protocol.
///
/// ```
/// use lwt_sched::ParkGroup;
/// let group = ParkGroup::new(2);
/// group.notify();        // nobody idle: one load, no effect
/// group.unpark_all();    // shutdown path: tokens for everyone
/// ```
pub struct ParkGroup {
    slots: Box<[ParkSlot]>,
    /// Workers currently inside the idle path (announced).
    idle: AtomicUsize,
    /// A wake is in flight: set by the notifier that delivers a token,
    /// cleared by the next worker exiting the idle path. While set,
    /// further notifies are suppressed (wake-one).
    handoff: AtomicBool,
}

/// Backstop sleep for `passive`: pure defense in depth, see module
/// docs. (Model builds sleep without a backstop, so a lost wake is a
/// detectable livelock.)
#[cfg(not(lwt_model))]
const PASSIVE_BACKSTOP: Duration = Duration::from_millis(200);
/// Backstop sleep for `adaptive`: shorter, so a (hypothetically)
/// missed transition costs little on the policy meant for shared use.
#[cfg(not(lwt_model))]
const ADAPTIVE_BACKSTOP: Duration = Duration::from_millis(20);
/// OS-thread yields an `adaptive` worker spends re-checking for work
/// before it commits to sleeping.
const ADAPTIVE_GRACE_YIELDS: u32 = 32;
/// Nap length for the `active` policy's (non-)park — the historical
/// idle-loop nap the backends used before parking existed.
const ACTIVE_NAP: Duration = Duration::from_micros(50);

impl ParkGroup {
    /// A group with `workers` parker slots (worker ids `0..workers`).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        ParkGroup {
            slots: (0..workers)
                .map(|_| ParkSlot {
                    parker: Parker::new(),
                    announced: AtomicBool::new(false),
                })
                .collect(),
            idle: AtomicUsize::new(0),
            handoff: AtomicBool::new(false),
        }
    }

    /// Number of parker slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Workers currently inside the idle path (announced or asleep).
    /// Racy diagnostic.
    #[must_use]
    pub fn idle_workers(&self) -> usize {
        self.idle.load(Ordering::Relaxed)
    }

    /// The idle path. Call when a sweep of every queue came up dry
    /// (typically once the caller's backoff saturates); `pending`
    /// must cheaply estimate the work currently visible to this
    /// worker (queue lengths), and is what the post-announce re-check
    /// consults.
    ///
    /// On wake (token or timeout) the caller should re-sweep its
    /// queues and, if still dry, call `park` again — the re-announce
    /// is what makes work pushed during the wake visible.
    ///
    /// `heartbeat` is marked parked for the duration of the sleep so
    /// the stall watchdog doesn't flag a healthy sleeper.
    ///
    /// Chaos decision point: `SpuriousUnpark` deposits a wake token
    /// with no work attached, forcing the empty-handed wake path.
    pub fn park(
        &self,
        worker: usize,
        heartbeat: Option<&lwt_chaos::Heartbeat>,
        pending: impl Fn() -> usize,
    ) -> ParkResult {
        let policy = current_wait_policy();
        let Some(slot) = self.slots.get(worker) else {
            // Dynamically created worker beyond the sized pool (extra
            // argobots streams): degrade to the historical nap.
            crate::sysapi::nap(ACTIVE_NAP);
            return ParkResult::Spun;
        };
        if policy == WaitPolicy::Active {
            crate::sysapi::nap(ACTIVE_NAP);
            return ParkResult::Spun;
        }

        if lwt_chaos::should_inject(lwt_chaos::FaultSite::SpuriousUnpark) {
            slot.parker.unpark();
        }

        // Announce, then re-check. The SeqCst fence pairs with the
        // notify side's push→fence→count sequence: at least one of
        // "notifier sees the announcement" / "we see the push" holds.
        slot.announced.store(true, Ordering::SeqCst);
        self.idle.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if pending() > 0 {
            self.exit_idle(slot);
            return ParkResult::FoundWork;
        }

        if policy == WaitPolicy::Adaptive {
            // Grace window: cheap yields with re-checks, so brief gaps
            // between work units never pay a sleep/wake round trip.
            // The reactor is polled too: with blocked units suspended
            // instead of spinning, an idle-but-awake worker is the
            // common state of a serving pool, and readiness it
            // collects here skips the driver-thread hop entirely.
            for _ in 0..ADAPTIVE_GRACE_YIELDS {
                crate::sysapi::yield_thread();
                if crate::io_poll() > 0 || pending() > 0 {
                    self.exit_idle(slot);
                    return ParkResult::FoundWork;
                }
            }
        }

        if let Some(hb) = heartbeat {
            hb.set_parked(true);
        }
        COUNTERS.parks.inc();
        COUNTERS.workers_parked.rise();
        emit(EventKind::WorkerParked, worker as u64);
        lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Parked);

        // Real build: sleep with the policy's backstop. Model build:
        // sleep without one, so a lost wake is a detected livelock
        // rather than a silently absorbed timeout.
        #[cfg(not(lwt_model))]
        let woken = slot.parker.park_timeout(match policy {
            WaitPolicy::Passive => PASSIVE_BACKSTOP,
            _ => ADAPTIVE_BACKSTOP,
        });
        #[cfg(lwt_model)]
        let woken = {
            slot.parker.park();
            true
        };

        lwt_metrics::timeline::enter(lwt_metrics::WorkerState::Idle);
        COUNTERS.unparks.inc();
        COUNTERS.workers_parked.fall();
        emit(EventKind::WorkerUnparked, worker as u64);
        if let Some(hb) = heartbeat {
            hb.set_parked(false);
        }
        self.exit_idle(slot);

        // Wake propagation: a token plus a backlog means the burst
        // that woke us was wider than one unit — pass the wake on.
        if woken && pending() > 1 {
            self.notify();
        }
        if woken {
            ParkResult::Woken
        } else {
            ParkResult::TimedOut
        }
    }

    /// Leave the idle path: retract the announcement and take over
    /// (clear) any in-flight handoff. The AcqRel swap also pairs with
    /// suppressed notifiers' handoff reads, publishing their pushes
    /// to our caller's next sweep.
    fn exit_idle(&self, slot: &ParkSlot) {
        slot.announced.store(false, Ordering::SeqCst);
        self.idle.fetch_sub(1, Ordering::SeqCst);
        self.handoff.swap(false, Ordering::AcqRel);
    }

    /// Wake-one notification. Call *after* making work visible (the
    /// push must precede this call). One fence + one load when nobody
    /// is idle — cheap enough for every spawn/requeue site.
    pub fn notify(&self) {
        self.notify_near(0);
    }

    /// [`ParkGroup::notify`], preferring to wake `target` (the worker
    /// whose queue just received the work) before scanning outward.
    /// Matters for runtimes whose stealing is scoped (qthreads
    /// shepherds): the nearest eligible sleeper is the one that can
    /// actually reach the unit.
    pub fn notify_near(&self, target: usize) {
        fence(Ordering::SeqCst);
        if self.idle.load(Ordering::SeqCst) == 0 {
            return;
        }
        if self.handoff.swap(true, Ordering::AcqRel) {
            // A wake is already in flight; the woken worker will
            // re-sweep (and propagate) once it exits the idle path.
            return;
        }
        let n = self.slots.len();
        for i in 0..n {
            let slot = &self.slots[(target + i) % n];
            if slot.announced.load(Ordering::SeqCst) {
                // Token, not signal: if the worker is still on its way
                // down to the sleep, the deposit makes that sleep
                // return immediately. Nothing is lost either way.
                slot.parker.unpark();
                return;
            }
        }
        // Every announced worker retracted while we scanned — they
        // found work on their own. Nobody holds the handoff; clear it.
        self.handoff.swap(false, Ordering::AcqRel);
    }

    /// Wake exactly `target` if it is inside the idle path; no-op
    /// otherwise. For single-consumer designs (Converse processor
    /// queues) where only the *owner* can serve newly pushed work —
    /// the scanning wake-one of [`Self::notify`] could spend its one
    /// wake on a worker that cannot help. Call after the push. Does
    /// not touch the handoff flag: the token is for a specific worker,
    /// so there is no herd to suppress, and suppression by an
    /// unrelated in-flight wake would strand this target until its
    /// backstop.
    pub fn notify_worker(&self, target: usize) {
        fence(Ordering::SeqCst);
        if let Some(slot) = self.slots.get(target) {
            if slot.announced.load(Ordering::SeqCst) {
                slot.parker.unpark();
            }
        }
    }

    /// Deposit a wake token for every slot — shutdown/finalize path.
    /// A fully parked pool resumes immediately instead of waiting out
    /// its backstops; workers not currently asleep consume the token
    /// on their next park attempt and re-check the stop flag. Call
    /// *after* storing the stop/abandon flag.
    pub fn unpark_all(&self) {
        fence(Ordering::SeqCst);
        for slot in self.slots.iter() {
            slot.parker.unpark();
        }
    }
}

impl std::fmt::Debug for ParkGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParkGroup")
            .field("capacity", &self.slots.len())
            .field("idle", &self.idle_workers())
            .finish()
    }
}

#[cfg(all(test, not(lwt_model)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;
    use std::time::Instant;

    // Policy state is process-global; serialize the tests that pin it.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn policy_parses_and_names_round_trip() {
        for p in [WaitPolicy::Active, WaitPolicy::Passive, WaitPolicy::Adaptive] {
            assert_eq!(WaitPolicy::parse(p.name()), Some(p));
            assert_eq!(WaitPolicy::parse(&p.name().to_uppercase()), Some(p));
        }
        assert_eq!(WaitPolicy::parse("aggressive"), None);
        assert_eq!(WaitPolicy::parse(""), None);
    }

    #[test]
    fn force_and_reset_drive_current_policy() {
        let _s = serial();
        force_wait_policy(WaitPolicy::Passive);
        assert_eq!(current_wait_policy(), WaitPolicy::Passive);
        force_wait_policy(WaitPolicy::Active);
        assert_eq!(current_wait_policy(), WaitPolicy::Active);
        reset_wait_policy_to_env();
        // Unset env ⇒ adaptive default (the test env never sets it).
        let p = current_wait_policy();
        assert!(
            p == WaitPolicy::Adaptive || std::env::var("LWT_WAIT_POLICY").is_ok(),
            "default policy must be adaptive, got {p:?}"
        );
        reset_wait_policy_to_env();
    }

    #[test]
    fn recheck_aborts_the_park_when_work_is_pending() {
        let _s = serial();
        force_wait_policy(WaitPolicy::Passive);
        let g = ParkGroup::new(1);
        let r = g.park(0, None, || 1);
        assert_eq!(r, ParkResult::FoundWork);
        assert_eq!(g.idle_workers(), 0, "aborted park must retract");
        reset_wait_policy_to_env();
    }

    #[test]
    fn notify_wakes_a_parked_worker_promptly() {
        let _s = serial();
        force_wait_policy(WaitPolicy::Passive);
        let g = Arc::new(ParkGroup::new(1));
        let work = Arc::new(StdAtomicUsize::new(0));
        let (g2, w2) = (Arc::clone(&g), Arc::clone(&work));
        let t = std::thread::spawn(move || {
            let t0 = Instant::now();
            loop {
                if w2.load(std::sync::atomic::Ordering::Acquire) > 0 {
                    return t0.elapsed();
                }
                let _ = g2.park(0, None, || {
                    w2.load(std::sync::atomic::Ordering::Acquire)
                });
            }
        });
        // Let the worker reach its sleep.
        while g.idle_workers() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(10));
        work.store(1, std::sync::atomic::Ordering::Release);
        g.notify();
        let waited = t.join().unwrap();
        // Well under the 200 ms passive backstop ⇒ the notify, not the
        // timeout, did the waking.
        assert!(
            waited < Duration::from_millis(150),
            "wake took {waited:?}; backstop did the work, not notify"
        );
        reset_wait_policy_to_env();
    }

    #[test]
    fn unpark_all_releases_every_sleeper() {
        let _s = serial();
        force_wait_policy(WaitPolicy::Passive);
        const N: usize = 3;
        let g = Arc::new(ParkGroup::new(N));
        let stop = Arc::new(StdAtomicUsize::new(0));
        let threads: Vec<_> = (0..N)
            .map(|w| {
                let (g, stop) = (Arc::clone(&g), Arc::clone(&stop));
                std::thread::spawn(move || loop {
                    if stop.load(std::sync::atomic::Ordering::Acquire) > 0 {
                        break;
                    }
                    let _ = g.park(w, None, || 0);
                })
            })
            .collect();
        while g.idle_workers() < N {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        stop.store(1, std::sync::atomic::Ordering::Release);
        g.unpark_all();
        for t in threads {
            t.join().unwrap();
        }
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "shutdown waited out a backstop: {:?}",
            t0.elapsed()
        );
        reset_wait_policy_to_env();
    }

    #[test]
    fn active_policy_never_sleeps() {
        let _s = serial();
        force_wait_policy(WaitPolicy::Active);
        let g = ParkGroup::new(1);
        let t0 = Instant::now();
        assert_eq!(g.park(0, None, || 0), ParkResult::Spun);
        assert!(t0.elapsed() < Duration::from_millis(15));
        assert_eq!(g.idle_workers(), 0);
        reset_wait_policy_to_env();
    }

    #[test]
    fn out_of_range_worker_degrades_to_nap() {
        let _s = serial();
        force_wait_policy(WaitPolicy::Passive);
        let g = ParkGroup::new(2);
        assert_eq!(g.park(7, None, || 0), ParkResult::Spun);
        reset_wait_policy_to_env();
    }

    #[test]
    fn spurious_unpark_wakes_empty_handed_without_waiting_the_backstop() {
        let _s = serial();
        force_wait_policy(WaitPolicy::Passive);
        // Rate 100: every park attempt deposits a tokenized spurious
        // wake — the chaos site that exercises the empty-handed wake
        // path every real wake must also survive.
        lwt_chaos::force_chaos(0xDEAD_BEEF, 100);
        let g = ParkGroup::new(1);
        let t0 = Instant::now();
        let r = g.park(0, None, || 0);
        lwt_chaos::reset_to_env();
        assert_eq!(r, ParkResult::Woken, "spurious token must wake, not time out");
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "spurious wake waited out the backstop: {:?}",
            t0.elapsed()
        );
        assert_eq!(g.idle_workers(), 0, "empty-handed wake must retract");
        reset_wait_policy_to_env();
    }
}
