//! Hierarchical timer wheel — the runtime's general deadline
//! subsystem.
//!
//! Everything in the serving stack that must *give up eventually* —
//! TCP read/write deadlines, HTTP idle and header-read timeouts,
//! graceful-drain deadlines — arms an entry here instead of spawning
//! a sleeper or polling a clock. The wheel is the classic hashed
//! hierarchical design (Varghese & Lauck): [`LEVELS`] levels of
//! [`SLOTS`] slots each, level `l` spanning deltas in
//! `[SLOTS^l, SLOTS^(l+1))` ticks, so arming and cancelling are O(1)
//! and advancing is O(ticks elapsed + entries due).
//!
//! Design constraints, in order:
//!
//! 1. **One waiter shape.** Every waiter — suspended ULT, async task,
//!    parked OS thread — registers its [`Waker`] in the entry and
//!    re-checks [`TimerEntry::has_fired`] when woken. Firing flips the
//!    state flag (Release) and then wakes the registered waker.
//! 2. **Model-checkable.** The entry state machine
//!    (ARMED → FIRED | CANCELLED, exactly one winner) routes its
//!    atomics through [`crate::sysapi`] and its waker slot through
//!    `lwt_sync::SpinLock`, so the *real* race between `advance` and
//!    `cancel` runs under the `lwt-model` checker
//!    (`crates/model/tests/timer.rs`). To keep the wheel itself pure
//!    state machine, it never reads a clock: time is a `u64` tick the
//!    caller supplies (the reactor driver maps it to milliseconds
//!    since its epoch).
//! 3. **Cheap cancellation.** The common case — a deadline armed per
//!    I/O op and cancelled microseconds later when the op completes —
//!    must not thrash the slot vectors. `cancel` is one CAS; the dead
//!    entry is dropped lazily when its slot is next processed, with a
//!    periodic sweep bounding the garbage a cancel-heavy workload can
//!    accumulate.
//!
//! Wakers are always fired *outside* the wheel lock: a waker may run
//! arbitrary executor code (including arming another timer), so
//! holding the lock across the call would be a re-entrancy deadlock.

use std::sync::Arc;
use std::task::Waker;

use lwt_metrics::registry::{emit, COUNTERS};
use lwt_metrics::EventKind;
use lwt_sync::SpinLock;

use crate::sysapi::AtomicUsize;
use std::sync::atomic::Ordering::{AcqRel, Acquire};

/// Slots per level. 64 gives 6 bits per level.
pub const SLOTS: usize = 64;
/// Levels in the hierarchy. 4 levels × 6 bits cover deltas up to
/// `64^4` ticks ≈ 16.7M ms ≈ 4.6 h at the reactor's 1 ms tick;
/// farther deadlines park in the top level and re-cascade.
pub const LEVELS: usize = 4;
const BITS: u32 = 6; // log2(SLOTS)

/// Sweep lazily-cancelled garbage out of the slots every this many
/// `arm` calls. Bounds stale-entry memory to O(arms between sweeps)
/// without putting a scan on the per-op path.
const PURGE_EVERY: u64 = 4096;

/// Entry is armed and will fire at its deadline unless cancelled.
const ARMED: usize = 0;
/// The wheel advanced past the deadline and fired the entry.
const FIRED: usize = 1;
/// The waiter cancelled the entry before it fired.
const CANCELLED: usize = 2;

/// One armed deadline. Shared between the waiter (which polls
/// [`has_fired`](TimerEntry::has_fired) or parks a [`Waker`]) and the
/// wheel (which fires it from `advance`). The ARMED → FIRED |
/// CANCELLED transition is a single CAS, so exactly one side wins:
/// a fired entry cannot be cancelled, a cancelled entry never fires.
#[derive(Debug)]
pub struct TimerEntry {
    /// Absolute wheel tick this entry expires at.
    deadline: u64,
    state: AtomicUsize,
    waker: SpinLock<Option<Waker>>,
}

impl TimerEntry {
    fn new(deadline: u64) -> Self {
        TimerEntry {
            deadline,
            state: AtomicUsize::new(ARMED),
            waker: SpinLock::new(None),
        }
    }

    /// Absolute wheel tick this entry expires at.
    #[must_use]
    pub fn deadline(&self) -> u64 {
        self.deadline
    }

    /// Whether the deadline fired. `Acquire`: pairs with the fire
    /// CAS, so a waiter observing `true` also observes everything the
    /// driver did before firing.
    #[must_use]
    pub fn has_fired(&self) -> bool {
        self.state.load(Acquire) == FIRED
    }

    /// Cancel the entry. Returns `true` if the cancel won (the entry
    /// will never fire); `false` if it had already fired — the caller
    /// raced the deadline and lost, and must treat the op as timed
    /// out. Idempotent: repeat cancels on a cancelled entry return
    /// `true` without recounting.
    pub fn cancel(&self) -> bool {
        match self.state.compare_exchange(ARMED, CANCELLED, AcqRel, Acquire) {
            Ok(_) => {
                // Drop a parked waker eagerly: the task it would wake
                // may outlive this timer by hours.
                drop(self.waker.lock().take());
                COUNTERS.timers_cancelled.inc();
                true
            }
            Err(s) => s == CANCELLED,
        }
    }

    /// Park `waker` to be fired at the deadline, replacing any
    /// previous one (standard futures contract: last poll's waker
    /// wins). Returns `false` — without parking — if the entry
    /// already fired, in which case the caller must not wait.
    pub fn register_waker(&self, waker: &Waker) -> bool {
        let mut slot = self.waker.lock();
        // Checked under the waker lock: `fire` takes the same lock to
        // collect the waker, so an ARMED observation here means the
        // fire (if racing) will see — and wake — this registration.
        if self.state.load(Acquire) == ARMED {
            match &mut *slot {
                Some(w) => w.clone_from(waker),
                none => *none = Some(waker.clone()),
            }
            true
        } else {
            // Already fired or cancelled: nothing left to wait for.
            false
        }
    }

    /// Fire the entry if still armed; returns the waker to be woken
    /// by the caller *after* releasing the wheel lock.
    fn fire(&self) -> Option<Option<Waker>> {
        match self.state.compare_exchange(ARMED, FIRED, AcqRel, Acquire) {
            Ok(_) => Some(self.waker.lock().take()),
            Err(_) => None,
        }
    }

    fn is_cancelled(&self) -> bool {
        self.state.load(Acquire) == CANCELLED
    }
}

/// The slot arrays plus the wheel's notion of "now", guarded by one
/// spin lock (arm/cancel are O(1) inside it; `advance` collects due
/// wakers under it and fires them outside).
struct WheelState {
    /// Current tick: every armed entry has `deadline > now`.
    now: u64,
    levels: Box<[Vec<Arc<TimerEntry>>]>, // LEVELS * SLOTS, row-major
    /// Entries resident in slots: armed ones plus cancelled ones not
    /// yet collected (cancellation is lazy — `cancel` is one CAS on
    /// the entry; the wheel only learns when the slot is processed or
    /// purged). Zero means the wheel is provably idle.
    resident: usize,
    /// Lower bound on the earliest armed deadline; `u64::MAX` when
    /// nothing is armed. May be stale-early after a cancel (a
    /// spurious driver wake, never a late fire).
    next_hint: u64,
    /// `arm` calls since the last garbage sweep.
    arms_since_purge: u64,
}

impl WheelState {
    fn slot_index(&self, deadline: u64) -> usize {
        let delta = deadline - self.now; // caller guarantees > 0
        // Level: which 6-bit group the delta's top bit falls in.
        let level = (((63 - delta.leading_zeros()) / BITS) as usize).min(LEVELS - 1);
        let slot = ((deadline >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        level * SLOTS + slot
    }

    fn insert(&mut self, entry: Arc<TimerEntry>) {
        let idx = self.slot_index(entry.deadline);
        self.levels[idx].push(entry);
    }

    /// Drop every cancelled entry still parked in a slot.
    fn purge(&mut self) {
        let mut dropped = 0;
        for slot in self.levels.iter_mut() {
            let before = slot.len();
            slot.retain(|e| !e.is_cancelled());
            dropped += before - slot.len();
        }
        self.resident -= dropped;
    }
}

/// The hierarchical timer wheel. See the module docs for the design;
/// `lwt-net`'s reactor owns the process-wide instance and maps ticks
/// to milliseconds since its epoch.
pub struct TimerWheel {
    state: SpinLock<WheelState>,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl TimerWheel {
    /// An empty wheel at tick 0.
    #[must_use]
    pub fn new() -> Self {
        TimerWheel {
            state: SpinLock::new(WheelState {
                now: 0,
                levels: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
                resident: 0,
                next_hint: u64::MAX,
                arms_since_purge: 0,
            }),
        }
    }

    /// The wheel's current tick.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.state.lock().now
    }

    /// Number of entries resident in the wheel: armed ones plus
    /// lazily-cancelled ones not yet collected. Zero ⇒ provably idle.
    #[must_use]
    pub fn armed_len(&self) -> usize {
        self.state.lock().resident
    }

    /// Arm a deadline at absolute tick `deadline`. A deadline at or
    /// before the current tick is clamped to the next tick — it fires
    /// on the next `advance`, never synchronously (so the caller can
    /// finish wiring its waiter first).
    pub fn arm(&self, deadline: u64) -> Arc<TimerEntry> {
        let mut s = self.state.lock();
        let deadline = deadline.max(s.now + 1);
        let entry = Arc::new(TimerEntry::new(deadline));
        s.insert(Arc::clone(&entry));
        s.resident += 1;
        s.next_hint = s.next_hint.min(deadline);
        s.arms_since_purge += 1;
        if s.arms_since_purge >= PURGE_EVERY {
            s.arms_since_purge = 0;
            s.purge();
        }
        drop(s);
        COUNTERS.timers_armed.inc();
        emit(EventKind::TimerArm, deadline);
        entry
    }

    /// Earliest tick at which an armed entry may fire: the driver
    /// sleeps until then. `None` when nothing is armed. The hint is a
    /// lower bound — a cancel can leave it early (one spurious wake),
    /// never late.
    #[must_use]
    pub fn next_deadline(&self) -> Option<u64> {
        let s = self.state.lock();
        (s.resident > 0).then_some(s.next_hint.max(s.now + 1))
    }

    /// Advance the wheel to absolute tick `to`, firing every armed
    /// entry whose deadline was reached. Returns the number fired.
    /// Wakers run after the wheel lock is released.
    pub fn advance(&self, to: u64) -> usize {
        let mut due: Vec<Arc<TimerEntry>> = Vec::new();
        {
            let mut s = self.state.lock();
            while s.now < to {
                if s.resident == 0 {
                    // Empty wheel: jump straight to the target.
                    s.now = to;
                    break;
                }
                let tick = s.now + 1;
                s.now = tick;
                // Level-0 slot for this tick holds everything due now.
                let idx = (tick & (SLOTS as u64 - 1)) as usize;
                for entry in std::mem::take(&mut s.levels[idx]) {
                    debug_assert!(entry.deadline <= tick);
                    s.resident -= 1;
                    if !entry.is_cancelled() {
                        due.push(entry);
                    }
                }
                // Cascade upper levels on their boundaries: entries
                // whose residual delta now fits a lower level move
                // down; entries due exactly at this tick join `due`.
                for level in 1..LEVELS {
                    if tick.trailing_zeros() < BITS * level as u32 {
                        break;
                    }
                    let slot =
                        ((tick >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
                    let idx = level * SLOTS + slot;
                    for entry in std::mem::take(&mut s.levels[idx]) {
                        if entry.is_cancelled() {
                            s.resident -= 1;
                        } else if entry.deadline <= tick {
                            s.resident -= 1;
                            due.push(entry);
                        } else {
                            s.insert(entry);
                        }
                    }
                }
            }
            // Everything still resident is strictly in the future.
            let floor = s.now + 1;
            if s.resident == 0 {
                s.next_hint = u64::MAX;
            } else if s.next_hint < floor {
                s.next_hint = floor;
            }
        }
        let mut fired = 0;
        for entry in due {
            if let Some(waker) = entry.fire() {
                fired += 1;
                COUNTERS.timers_fired.inc();
                emit(EventKind::TimerFire, entry.deadline);
                if let Some(w) = waker {
                    w.wake();
                }
            }
        }
        fired
    }
}

impl std::fmt::Debug for TimerWheel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("TimerWheel")
            .field("now", &s.now)
            .field("resident", &s.resident)
            .field("next_hint", &s.next_hint)
            .finish_non_exhaustive()
    }
}

#[cfg(all(test, not(lwt_model)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering};
    use std::task::{RawWaker, RawWakerVTable, Waker};

    fn count_waker(hits: Arc<StdAtomicUsize>) -> Waker {
        fn clone(p: *const ()) -> RawWaker {
            // SAFETY: p is a leaked Arc<StdAtomicUsize>; bump its count.
            unsafe { Arc::increment_strong_count(p.cast::<StdAtomicUsize>()) };
            RawWaker::new(p, &VTABLE)
        }
        fn wake(p: *const ()) {
            // SAFETY: consumes the handle's Arc reference.
            let a = unsafe { Arc::from_raw(p.cast::<StdAtomicUsize>()) };
            a.fetch_add(1, Ordering::SeqCst);
        }
        fn wake_by_ref(p: *const ()) {
            // SAFETY: borrow without consuming.
            let a = unsafe { &*p.cast::<StdAtomicUsize>() };
            a.fetch_add(1, Ordering::SeqCst);
        }
        fn drop_raw(p: *const ()) {
            // SAFETY: consumes the handle's Arc reference.
            unsafe { drop(Arc::from_raw(p.cast::<StdAtomicUsize>())) };
        }
        static VTABLE: RawWakerVTable =
            RawWakerVTable::new(clone, wake, wake_by_ref, drop_raw);
        // SAFETY: vtable functions uphold the RawWaker contract above.
        unsafe { Waker::from_raw(RawWaker::new(Arc::into_raw(hits).cast(), &VTABLE)) }
    }

    #[test]
    fn fires_exactly_at_deadline() {
        let w = TimerWheel::new();
        let e = w.arm(10);
        assert_eq!(w.advance(9), 0);
        assert!(!e.has_fired());
        assert_eq!(w.advance(10), 1);
        assert!(e.has_fired());
        assert_eq!(w.advance(100), 0, "an entry fires once");
    }

    #[test]
    fn past_deadline_clamps_to_next_tick() {
        let w = TimerWheel::new();
        w.arm(50);
        assert_eq!(w.advance(50), 1);
        let e = w.arm(7); // already past: clamped to tick 51
        assert_eq!(e.deadline(), 51);
        assert_eq!(w.advance(51), 1);
        assert!(e.has_fired());
    }

    #[test]
    fn cancel_beats_fire_and_fire_beats_cancel() {
        let w = TimerWheel::new();
        let a = w.arm(5);
        assert!(a.cancel());
        assert_eq!(w.advance(5), 0, "cancelled entry must not fire");
        let b = w.arm(10);
        assert_eq!(w.advance(10), 1);
        assert!(!b.cancel(), "cancel after fire must report the loss");
        assert!(b.has_fired());
    }

    #[test]
    fn far_deadlines_cascade_through_levels() {
        let w = TimerWheel::new();
        // One entry per level span, plus a just-past-boundary one.
        let deadlines = [1, 63, 64, 65, 4095, 4096, 4097, 262_143, 262_144, 500_000];
        let entries: Vec<_> = deadlines.iter().map(|&d| w.arm(d)).collect();
        let mut fired = 0;
        // Advance in uneven strides so cascades hit mid-slot too.
        let mut t = 0;
        while t < 600_000 {
            t += 977; // prime stride
            fired += w.advance(t);
        }
        assert_eq!(fired, deadlines.len());
        for (e, &d) in entries.iter().zip(&deadlines) {
            assert!(e.has_fired(), "deadline {d} never fired");
        }
        assert_eq!(w.armed_len(), 0);
    }

    #[test]
    fn no_early_fire_across_cascades() {
        let w = TimerWheel::new();
        // Deadlines just above each level boundary must survive the
        // cascade that moves them down without firing early.
        for &d in &[65u64, 4097, 262_145] {
            let e = w.arm(d);
            assert_eq!(w.advance(d - 1), 0, "deadline {d} fired early");
            assert!(!e.has_fired());
            assert_eq!(w.advance(d), 1);
        }
    }

    #[test]
    fn next_deadline_hint_tracks_arms() {
        let w = TimerWheel::new();
        assert_eq!(w.next_deadline(), None);
        w.arm(100);
        let early = w.arm(30);
        assert_eq!(w.next_deadline(), Some(30));
        assert!(early.cancel());
        // Hint may be stale-early after a cancel, but never late.
        let hint = w.next_deadline().unwrap();
        assert!(hint <= 100);
        w.advance(hint);
        assert!(w.next_deadline().unwrap() <= 100);
        w.advance(100);
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn fired_entry_wakes_parked_waker() {
        let hits = Arc::new(StdAtomicUsize::new(0));
        let w = TimerWheel::new();
        let e = w.arm(3);
        assert!(e.register_waker(&count_waker(Arc::clone(&hits))));
        w.advance(3);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // Late registration on a fired entry must refuse, not park.
        assert!(!e.register_waker(&count_waker(Arc::clone(&hits))));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cancel_drops_waker_without_waking() {
        let hits = Arc::new(StdAtomicUsize::new(0));
        let w = TimerWheel::new();
        let e = w.arm(3);
        assert!(e.register_waker(&count_waker(Arc::clone(&hits))));
        assert!(e.cancel());
        w.advance(10);
        assert_eq!(hits.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn empty_wheel_jump_is_cheap_and_correct() {
        let w = TimerWheel::new();
        w.advance(10_000_000); // must be O(1), not 10M ticks
        let e = w.arm(10_000_005);
        assert_eq!(w.advance(10_000_005), 1);
        assert!(e.has_fired());
    }

    #[test]
    fn cancel_heavy_load_purges_garbage() {
        let w = TimerWheel::new();
        // Far deadlines that would otherwise sit as garbage for ages.
        for i in 0..2 * PURGE_EVERY {
            let e = w.arm(1_000_000 + i);
            assert!(e.cancel());
        }
        // The periodic sweep must have collected (almost) all of the
        // cancelled entries: only those armed since the last sweep
        // may still be resident.
        assert!(
            w.armed_len() <= PURGE_EVERY as usize,
            "purge left {} stale entries",
            w.armed_len()
        );
        let total: usize = {
            let s = w.state.lock();
            s.levels.iter().map(Vec::len).sum()
        };
        assert!(
            total <= PURGE_EVERY as usize,
            "purge left {total} slot residents"
        );
    }

    #[test]
    fn counters_track_arm_fire_cancel() {
        let ((), snap) = lwt_metrics::registry::scoped(|| {
            let w = TimerWheel::new();
            let _f = w.arm(1);
            let c = w.arm(2);
            c.cancel();
            w.advance(5);
        });
        assert_eq!(snap.counters.timers_armed, 2);
        assert_eq!(snap.counters.timers_fired, 1);
        assert_eq!(snap.counters.timers_cancelled, 1);
    }
}
