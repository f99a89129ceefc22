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
//! With an I/O reactor registered, the first worker to commit to sleep
//! while the driver role (`crate::io`) is free sleeps in the reactor's
//! turn instead: it marks its slot *driving*, then fences and re-checks
//! `pending()` and its token before each turn, while a notifier that
//! deposits a token fences, reads the mark and wakes the turn — the
//! same store-buffering pair again. A holder that leaves to run work
//! hands the role on to a benched sleeper; that sleeper stays in `park`
//! to take it only when the hand-on alone woke it (it was popped off the
//! bench and `unpark_all` did not reach its slot). Any other wake leaves
//! through the idle exit, which clears the handoff.
//!
//! ## Wait policies (`LWT_WAIT_POLICY`)
//!
//! Mirroring `OMP_WAIT_POLICY`:
//!
//! * `active` — never sleep: [`ParkGroup::park`] degrades to the old
//!   bounded nap, for latency-critical runs that own their cores.
//! * `passive` — sleep as soon as the caller's backoff is exhausted.
//! * `adaptive` (default) — yield the OS thread for a grace window of
//!   up to 32 rounds (re-checking for work, and polling the I/O
//!   reactor, each round), then sleep. The window's length is learned
//!   per worker from the gaps it missed (below).
//!
//! ## The grace window learns
//!
//! A window only pays off when work arrives within it. Each slot keeps
//! a budget: a window that finds work restores the full 32 rounds, one
//! that runs out halves it (down to 0), and a sleep that a token ended
//! within 4 × a full window's length restores it too — a window would
//! nearly have caught that work. Under closed-loop load every window
//! pays off and the budget stays at 32; on a paced server, whose gaps
//! outlast any window, it settles at 0 and the worker goes straight to
//! the sleep `passive` takes. The budget only decides how long an
//! announced worker spins between its re-check and its sleep, never
//! whether announce → fence → re-check → sleep runs, so it takes no part
//! in wake correctness.
//!
//! Sleeps use a generous backstop timeout as defense in depth: even if
//! a wake were lost, the worker re-sweeps within the backstop instead
//! of hanging forever. Correctness never relies on it.

use std::time::{Duration, Instant};

use lwt_metrics::registry::{emit, COUNTERS};
use lwt_metrics::EventKind;
use lwt_sync::Parker;

use crate::io::{Benched, DriverRole, IoDriver};
use crate::sysapi::{fence, AtomicBool, AtomicUsize};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

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
    /// The policy forbids sleeping (active), or the worker index has no
    /// slot: the worker napped instead. Loop and re-sweep.
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
    /// The worker sleeps in the reactor's turn, which a token alone
    /// does not end (module docs).
    driving: AtomicBool,
    /// `unpark_all` reached the slot: its token ends `park` even when it
    /// coalesced with a hand-on's.
    woken_all: AtomicBool,
    /// The adaptive grace budget (module docs).
    grace: Grace,
}

/// One slot's learned grace window. Only the slot's owner reads or
/// writes it, so these are relaxed `std` atomics outside the `sysapi`
/// facade (the model checker sees no events here): the budget sets how
/// long the announced owner spins between its re-check and its sleep,
/// and takes no part in wake correctness.
struct Grace {
    /// Rounds the next window may spend, `0..=ADAPTIVE_GRACE_YIELDS`.
    budget: AtomicU32,
    /// How long the last expired full window took, in ns. 0 until one
    /// expires.
    full_window_ns: AtomicU64,
}

impl Grace {
    fn new(budget: u32) -> Self {
        Grace {
            budget: AtomicU32::new(budget),
            full_window_ns: AtomicU64::new(0),
        }
    }

    fn budget(&self) -> u32 {
        self.budget.load(Ordering::Relaxed)
    }

    fn restore(&self) {
        self.budget.store(ADAPTIVE_GRACE_YIELDS, Ordering::Relaxed);
    }

    /// A window of `rounds` found nothing in `took`. Only a full window
    /// is a sample of its own length: a window's fixed cost (the clock
    /// reads, the first round's cold caches) would inflate a 1-round
    /// window scaled by 32 about threefold. Every decay starts with a
    /// full window, so the sample is never older than the last restore.
    fn expired(&self, rounds: u32, took: Duration) {
        if rounds == ADAPTIVE_GRACE_YIELDS {
            self.full_window_ns
                .store(took.as_nanos() as u64, Ordering::Relaxed);
        }
        self.budget.store(rounds / 2, Ordering::Relaxed);
    }

    /// A token ended a sleep of `took`: work arrived soon enough that a
    /// window would nearly have caught it. The bound is 4 ×, not 1 ×,
    /// because the sleep includes the wake latency a spinner never pays.
    fn woken_after(&self, took: Duration) {
        let window = self.full_window_ns.load(Ordering::Relaxed);
        if (took.as_nanos() as u64) < GRACE_RESTORE_WINDOWS * window {
            self.restore();
        }
    }
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
    /// The process's driver role (the model suite's own, there).
    role: &'static DriverRole,
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
/// before it commits to sleeping: the ceiling (and starting value) of
/// each slot's learned budget.
const ADAPTIVE_GRACE_YIELDS: u32 = 32;
/// A token-ended sleep shorter than this many full windows restores
/// the grace budget.
const GRACE_RESTORE_WINDOWS: u64 = 4;
/// Nap length for the `active` policy's (non-)park — the historical
/// idle-loop nap the backends used before parking existed.
const ACTIVE_NAP: Duration = Duration::from_micros(50);

impl ParkGroup {
    /// A group with `workers` parker slots (worker ids `0..workers`).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self::with_grace(workers, ADAPTIVE_GRACE_YIELDS)
    }

    /// A group whose grace budgets have all decayed to 0 — the state a
    /// paced server settles in. For the model suite: decaying through
    /// six real windows would spend 63 scheduler yields per worker on
    /// state that takes no part in wake correctness.
    #[cfg(lwt_model)]
    #[must_use]
    pub fn with_spent_grace(workers: usize) -> Self {
        Self::with_grace(workers, 0)
    }

    fn with_grace(workers: usize, budget: u32) -> Self {
        ParkGroup {
            slots: (0..workers)
                .map(|_| ParkSlot {
                    parker: Parker::new(),
                    announced: AtomicBool::new(false),
                    driving: AtomicBool::new(false),
                    woken_all: AtomicBool::new(false),
                    grace: Grace::new(budget),
                })
                .collect(),
            idle: AtomicUsize::new(0),
            handoff: AtomicBool::new(false),
            role: &crate::io::DRIVER,
        }
    }

    /// This group on its own driver role: each model execution starts
    /// from a vacant one.
    #[cfg(lwt_model)]
    #[must_use]
    pub fn driven_by(mut self, role: &'static DriverRole) -> Self {
        self.role = role;
        self
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

        let adaptive = policy == WaitPolicy::Adaptive;
        let rounds = if adaptive { slot.grace.budget() } else { 0 };
        let window_start = (rounds > 0).then(Instant::now);
        if rounds > 0 {
            // Grace window: cheap yields with re-checks, so brief gaps
            // between work units never pay a sleep/wake round trip.
            // The reactor is polled too: with blocked units suspended
            // instead of spinning, an idle-but-awake worker is the
            // common state of a serving pool, and readiness reaches its
            // waiter from here without waking the role's holder.
            // The yields are counted once per window, on its way out.
            for round in 1..=rounds {
                crate::sysapi::yield_thread();
                if self.role.poll() > 0 || pending() > 0 {
                    COUNTERS.grace_yields.add(u64::from(round));
                    slot.grace.restore();
                    self.exit_idle(slot);
                    return ParkResult::FoundWork;
                }
            }
            COUNTERS.grace_yields.add(u64::from(rounds));
        }
        let asleep_at = adaptive.then(Instant::now);
        if let (Some(start), Some(end)) = (window_start, asleep_at) {
            slot.grace.expired(rounds, crate::sysapi::between(start, end));
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
        let backstop = Some(match policy {
            WaitPolicy::Passive => PASSIVE_BACKSTOP,
            _ => ADAPTIVE_BACKSTOP,
        });
        #[cfg(lwt_model)]
        let backstop = None;
        // With a reactor, the first sleeper drives it; the rest bench.
        let io = self.role.io();
        let me = || Benched::Worker(&slot.parker);
        let mut driving = io.is_some() && self.role.take_or_bench(me());
        let woken = loop {
            if let (true, Some(io)) = (driving, io) {
                // `None`: it stepped down onto the bench.
                if let Some(woken) = self.drive(slot, io, backstop, &pending) {
                    break woken;
                }
            }
            let woken = match backstop {
                Some(backstop) => slot.parker.park_timeout(backstop),
                None => {
                    slot.parker.park();
                    true
                }
            };
            if io.is_none() {
                break woken;
            }
            // Woken by a hand-on (it took us off the bench) and by
            // nothing else: take the role, or bench again if its holder
            // is back already, without leaving `park`. The in-flight
            // handoff is cleared first, as `exit_idle` does, so that
            // later notifies reach us and the re-check sees the pushes
            // of those it suppressed.
            let handed_on = !self.role.unbench(&me());
            if !(woken && handed_on) || slot.woken_all.swap(false, Ordering::SeqCst) {
                break woken;
            }
            self.handoff.swap(false, Ordering::AcqRel);
            if pending() > 0 {
                break woken;
            }
            driving = self.role.take_or_bench(me());
        };

        if let Some(asleep_at) = asleep_at.filter(|_| woken) {
            slot.grace.woken_after(crate::sysapi::between(asleep_at, Instant::now()));
        }
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

    /// Sleep as the role's holder: turn the reactor until work or a
    /// token arrives (`Some(true)`: give the role up and hand it on) or
    /// a turn ends empty-handed (`Some(false)`, the backstop: give it
    /// up). After a turn that brought it nothing while another worker
    /// polled, and with nobody benched, it benches itself (`None`) to
    /// sleep on its parker instead: that worker sees the edges first and
    /// takes the role when it sleeps, so a blocked holder is not woken
    /// for every edge an awake worker's try-first read consumes anyway.
    fn drive(
        &self,
        slot: &ParkSlot,
        io: &dyn IoDriver,
        backstop: Option<Duration>,
        pending: &impl Fn() -> usize,
    ) -> Option<bool> {
        slot.driving.store(true, Ordering::SeqCst);
        let mut delivered = usize::MAX;
        let mut polls = self.role.polls();
        loop {
            // Pairs with `wake_driving`'s fence (module docs).
            fence(Ordering::SeqCst);
            let woken = slot.parker.try_park() || pending() > 0;
            if woken || delivered == 0 {
                slot.driving.store(false, Ordering::SeqCst);
                self.role.release();
                if woken {
                    self.role.hand_on();
                }
                return Some(woken);
            }
            if self.role.polls() != polls && self.role.step_down(Benched::Worker(&slot.parker)) {
                slot.driving.store(false, Ordering::SeqCst);
                return None;
            }
            polls = self.role.polls();
            delivered = io.turn(backstop);
        }
    }

    /// After a token for `slot`: if it sleeps in the reactor's turn
    /// rather than on its parker, end the turn too.
    fn wake_driving(&self, slot: &ParkSlot) {
        let Some(io) = self.role.io() else {
            return;
        };
        fence(Ordering::SeqCst);
        if slot.driving.load(Ordering::SeqCst) {
            io.wake();
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
                self.wake_driving(slot);
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
                self.wake_driving(slot);
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
            slot.woken_all.store(true, Ordering::SeqCst);
            slot.parker.unpark();
            self.wake_driving(slot);
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

    fn budget(g: &ParkGroup) -> u32 {
        g.slots[0].grace.budget()
    }

    /// Six adaptive parks on worker 0 that find nothing, each sleeping
    /// out its backstop; returns the budget after each.
    fn decay(g: &ParkGroup) -> Vec<u32> {
        (0..6)
            .map(|_| {
                assert_eq!(g.park(0, None, || 0), ParkResult::TimedOut);
                budget(g)
            })
            .collect()
    }

    #[test]
    fn an_expired_window_halves_the_budget_down_to_zero() {
        let _s = serial();
        force_wait_policy(WaitPolicy::Adaptive);
        let g = ParkGroup::new(1);
        assert_eq!(budget(&g), ADAPTIVE_GRACE_YIELDS);
        assert_eq!(decay(&g), [16, 8, 4, 2, 1, 0]);
        assert!(g.slots[0].grace.full_window_ns.load(Ordering::Relaxed) > 0);
        reset_wait_policy_to_env();
    }

    #[test]
    fn a_window_that_finds_work_restores_the_full_budget() {
        let _s = serial();
        force_wait_policy(WaitPolicy::Adaptive);
        let g = ParkGroup::new(1);
        let _ = decay(&g);
        // A budget of 0 runs no window, so pick one that still does:
        // two expiries in, 8 rounds.
        g.slots[0].grace.budget.store(8, Ordering::Relaxed);
        // Dry at the post-announce re-check, work on the first round.
        let calls = std::cell::Cell::new(0);
        let r = g.park(0, None, || {
            calls.set(calls.get() + 1);
            usize::from(calls.get() > 1)
        });
        assert_eq!(r, ParkResult::FoundWork);
        assert_eq!(calls.get(), 2, "the window ran one round");
        assert_eq!(budget(&g), ADAPTIVE_GRACE_YIELDS);
        reset_wait_policy_to_env();
    }

    #[test]
    fn a_short_token_ended_sleep_restores_the_full_budget() {
        let _s = serial();
        force_wait_policy(WaitPolicy::Adaptive);
        let g = ParkGroup::new(1);
        let _ = decay(&g);
        // A pre-deposited token ends the sleep at once: far inside 4 ×
        // a full window. Retried because a preemption between the two
        // clock reads can make even that sleep look long.
        for _ in 0..5 {
            g.slots[0].parker.unpark();
            assert_eq!(g.park(0, None, || 0), ParkResult::Woken);
            if budget(&g) == ADAPTIVE_GRACE_YIELDS {
                break;
            }
        }
        assert_eq!(budget(&g), ADAPTIVE_GRACE_YIELDS);
        reset_wait_policy_to_env();
    }

    #[test]
    fn a_spent_budget_skips_the_window_and_a_timeout_restores_nothing() {
        let _s = serial();
        force_wait_policy(WaitPolicy::Adaptive);
        let g = ParkGroup::new(1);
        let _ = decay(&g);
        // A window a second long makes the 20 ms backstop a short
        // sleep by length: only its cause, a timeout, keeps it from
        // restoring the budget.
        g.slots[0].grace.full_window_ns.store(1_000_000_000, Ordering::Relaxed);
        let yields = COUNTERS.grace_yields.get();
        assert_eq!(g.park(0, None, || 0), ParkResult::TimedOut);
        assert_eq!(budget(&g), 0, "a backstop timeout restored the budget");
        // Only the serialized tests park adaptively in this binary.
        assert_eq!(COUNTERS.grace_yields.get(), yields, "a spent budget still yielded");
        reset_wait_policy_to_env();
    }
}
