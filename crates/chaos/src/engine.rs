//! The deterministic fault-injection engine.
//!
//! Every runtime decision point that can plausibly fail in production
//! — a steal probe, a victim draw, a stack-cache lookup, a FEB wake,
//! a scheduler iteration — consults [`should_inject`] with its
//! [`FaultSite`]. When chaos is off (the default) that call is **one
//! relaxed atomic load** and a predictable branch, the same contract
//! `LWT_TRACE` gives tracing. When chaos is on, the engine answers
//! from a schedule that is a *pure function of the seed*:
//!
//! ```text
//! inject(site, i) = mix(seed ^ salt(site) ^ i·φ) mod 100 < rate
//! ```
//!
//! where `i` is the site's own injection counter and `mix` is the
//! workspace [`SplitMix64`](crate::rng::SplitMix64) finalizer. Because
//! the decision depends only on `(seed, site, i)` — never on timing,
//! thread identity, or interleaving — the same `LWT_CHAOS_SEED`
//! replays the same per-site fault schedule on every run, which is
//! what makes chaos failures *debuggable*: rerun with the seed from
//! the failing log and the exact same probes fail again.
//!
//! Each injected fault increments
//! [`COUNTERS.faults_injected`](lwt_metrics::Counters::faults_injected)
//! and emits a [`FaultInjected`](EventKind::FaultInjected) ring event
//! whose `arg` packs the site and the schedule index ([`pack_fault`]),
//! so a trace shows exactly which probes were sabotaged.
//!
//! ## Knobs
//!
//! * `LWT_CHAOS_SEED=<u64>` — enable injection with this seed (`0` is
//!   a valid seed; unset/empty means off).
//! * `LWT_CHAOS_RATE=<0..=100>` — per-decision injection probability
//!   in percent (default [`DEFAULT_RATE_PERCENT`]).
//! * [`force_chaos`] / [`disable_chaos`] / [`reset_to_env`] — the
//!   programmatic overrides tests use.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use lwt_metrics::registry::{emit, COUNTERS};
use lwt_metrics::EventKind;

use crate::rng::SplitMix64;

/// Default per-decision injection probability, in percent.
pub const DEFAULT_RATE_PERCENT: u64 = 10;

/// A decision point that chaos can sabotage. The discriminant is
/// stable: it is packed into `FaultInjected` event args.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FaultSite {
    /// A steal probe is forced to report the victim empty
    /// (`lwt_sched::ReadyQueue::steal_once`).
    StealFail = 0,
    /// Random victim selection is misdirected to the thief itself,
    /// which callers treat as a failed attempt
    /// (`lwt_sched::RandomVictim::pick`).
    StealMisdirect = 1,
    /// A stack-cache lookup is forced to miss, falling back to a
    /// fresh allocation — never aborting (`lwt_fiber::cache::acquire`).
    StackCacheMiss = 2,
    /// A FEB waiter's wake is delayed by extra relax rounds
    /// (`lwt_sync::FebCell`).
    FebStallWake = 3,
    /// A FEB waiter takes a spurious wake: it re-polls once without
    /// the bit having filled (`lwt_sync::FebCell`).
    FebSpuriousWake = 4,
    /// A scheduler loop yields its OS timeslice before dispatching
    /// the next unit (all five backends' worker loops).
    YieldPoint = 5,
    /// An idle worker entering the parked state takes a spurious
    /// wake: a token is deposited with no work attached, so the park
    /// returns immediately and the worker re-sweeps an empty pool
    /// (`lwt_sched::ParkGroup::park`). Exercises the re-check path
    /// every wake — spurious or real — must survive.
    SpuriousUnpark = 6,
    /// A future task that just parked (its poll returned `Pending`
    /// and the runner transitioned it back to idle) is immediately
    /// re-woken with no progress attached, forcing an extra poll
    /// round trip (`lwt_ultcore::task`). Exercises the
    /// idle→scheduled→poll→`Pending` cycle every spurious wake — the
    /// waker contract futures must survive — and the wake/requeue
    /// race with a concurrent real waker.
    AsyncSpuriousWake = 7,
    /// A worker yields its OS timeslice right before polling a future
    /// task (`lwt_ultcore::task`), widening the window in which wakes
    /// land on a SCHEDULED/RUNNING task and must coalesce rather than
    /// double-queue.
    AsyncPollDelay = 8,
    /// A socket write is truncated to a prefix of the buffer before
    /// the syscall (`lwt_net::TcpStream`), surfacing a short write to
    /// the caller exactly as a full kernel send buffer would.
    /// `write_all`-style loops must resume from the cut.
    NetPartialWrite = 9,
    /// A socket operation reports `WouldBlock` once even though the
    /// kernel would have accepted it (`lwt_net`), forcing an extra
    /// trip through the readiness wait path. The registration's ready
    /// flag is left up, so the retry proceeds immediately — a delay,
    /// never a livelock.
    NetSpuriousEagain = 10,
    /// A reactor turn defers delivering an observed readiness
    /// event by one dispatch turn (`lwt_net::reactor`). The event is
    /// stashed, never dropped — edge-triggered readiness is not
    /// redelivered by the kernel, so a drop would be a real hang.
    NetDelayedReadiness = 11,
    /// A served HTTP connection is killed right after a response is
    /// written (`lwt_net::http`): the server close-wakes the socket as
    /// a peer reset would. Clients must treat it as a retryable
    /// transport error; the server's connection accounting must not
    /// leak the slot.
    NetConnKill = 12,
    /// A connection read in the HTTP server stalls for extra yield
    /// rounds before issuing the syscall (`lwt_net::http`) — a slow
    /// client in miniature. Exercises the idle/header deadline path
    /// without needing a real slow peer.
    NetReadStall = 13,
    /// The request handler panics mid-request (`lwt_net::http`). The
    /// server's `catch_unwind` isolation must turn it into a 500 and
    /// a closed connection — never a dead worker.
    HandlerPanic = 14,
}

/// Number of distinct fault sites.
pub const NUM_SITES: usize = 15;

impl FaultSite {
    /// All sites, in discriminant order.
    pub const ALL: [FaultSite; NUM_SITES] = [
        FaultSite::StealFail,
        FaultSite::StealMisdirect,
        FaultSite::StackCacheMiss,
        FaultSite::FebStallWake,
        FaultSite::FebSpuriousWake,
        FaultSite::YieldPoint,
        FaultSite::SpuriousUnpark,
        FaultSite::AsyncSpuriousWake,
        FaultSite::AsyncPollDelay,
        FaultSite::NetPartialWrite,
        FaultSite::NetSpuriousEagain,
        FaultSite::NetDelayedReadiness,
        FaultSite::NetConnKill,
        FaultSite::NetReadStall,
        FaultSite::HandlerPanic,
    ];

    /// Stable display name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FaultSite::StealFail => "StealFail",
            FaultSite::StealMisdirect => "StealMisdirect",
            FaultSite::StackCacheMiss => "StackCacheMiss",
            FaultSite::FebStallWake => "FebStallWake",
            FaultSite::FebSpuriousWake => "FebSpuriousWake",
            FaultSite::YieldPoint => "YieldPoint",
            FaultSite::SpuriousUnpark => "SpuriousUnpark",
            FaultSite::AsyncSpuriousWake => "AsyncSpuriousWake",
            FaultSite::AsyncPollDelay => "AsyncPollDelay",
            FaultSite::NetPartialWrite => "NetPartialWrite",
            FaultSite::NetSpuriousEagain => "NetSpuriousEagain",
            FaultSite::NetDelayedReadiness => "NetDelayedReadiness",
            FaultSite::NetConnKill => "NetConnKill",
            FaultSite::NetReadStall => "NetReadStall",
            FaultSite::HandlerPanic => "HandlerPanic",
        }
    }

    /// Inverse of the `repr(u8)` discriminant.
    #[must_use]
    pub const fn from_u8(v: u8) -> Option<FaultSite> {
        if (v as usize) < NUM_SITES {
            Some(FaultSite::ALL[v as usize])
        } else {
            None
        }
    }

    /// Per-site stream separator: distinct sites draw from disjoint
    /// regions of the seed space, so one site's schedule says nothing
    /// about another's.
    const fn salt(self) -> u64 {
        // Large odd constants, pairwise distant. Appending entries for
        // new sites never perturbs existing sites' seed streams, so
        // pinned chaos schedules survive engine growth.
        [
            0x9E6C_A7E3_5F0E_4B11,
            0x2545_F491_4F6C_DD1D,
            0xD1B5_4A32_D192_ED03,
            0x8CB9_2BA7_2F3D_8DD7,
            0x5851_F42D_4C95_7F2D,
            0x14057B7E_F767_814F,
            0xA076_1D64_78BD_642F,
            0x6C62_272E_07BB_0143,
            0x3243_F6A8_885A_308D,
            0x13198A2E_0370_7344,
            0xA409_3822_299F_31D0,
            0x082E_FA98_EC4E_6C89,
            0x4528_21E6_38D0_1377,
            0xBE54_66CF_34E9_0C6D,
            0xC0AC_29B7_C97C_50DD,
        ][self as usize]
    }
}

/// 0 = uninitialized (consult `LWT_CHAOS_SEED`), 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);
static SEED: AtomicU64 = AtomicU64::new(0);
static RATE: AtomicU64 = AtomicU64::new(DEFAULT_RATE_PERCENT);

/// Per-site decision counters: the `i` in the schedule formula. The
/// counter allocates schedule indices; *which worker* draws index `i`
/// varies run to run, but whether index `i` injects does not.
static SEQ: [AtomicU64; NUM_SITES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Whether fault injection is on. Hot path: one relaxed load. The
/// environment is consulted once, on first call.
#[inline]
#[must_use]
pub fn chaos_enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let seed = std::env::var("LWT_CHAOS_SEED")
        .ok()
        .and_then(|v| parse_u64(&v));
    let rate = std::env::var("LWT_CHAOS_RATE")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&r| r <= 100)
        .unwrap_or(DEFAULT_RATE_PERCENT);
    if let Some(seed) = seed {
        SEED.store(seed, Ordering::Relaxed);
        RATE.store(rate, Ordering::Relaxed);
    }
    // Lose gracefully to a concurrent `force_chaos`/`disable_chaos`.
    let _ = STATE.compare_exchange(
        0,
        if seed.is_some() { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed) == 2
}

fn parse_u64(v: &str) -> Option<u64> {
    let v = v.trim();
    if v.is_empty() {
        return None;
    }
    v.strip_prefix("0x")
        .or_else(|| v.strip_prefix("0X"))
        .map_or_else(|| v.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok())
}

/// Programmatically enable injection with `seed` at `rate_percent`
/// (clamped to 100), overriding `LWT_CHAOS_SEED`. Resets the per-site
/// schedule counters so the schedule restarts from index 0.
pub fn force_chaos(seed: u64, rate_percent: u64) {
    SEED.store(seed, Ordering::Relaxed);
    RATE.store(rate_percent.min(100), Ordering::Relaxed);
    reset_schedule();
    STATE.store(2, Ordering::Relaxed);
}

/// Programmatically disable injection, overriding `LWT_CHAOS_SEED`.
pub fn disable_chaos() {
    STATE.store(1, Ordering::Relaxed);
}

/// Forget any programmatic override: the next [`chaos_enabled`] call
/// consults `LWT_CHAOS_SEED` again. Tests that [`force_chaos`] must
/// call this on the way out so an env-driven chaos run (the CI chaos
/// stage) is not silently switched off for the rest of the process.
pub fn reset_to_env() {
    reset_schedule();
    STATE.store(0, Ordering::Relaxed);
}

/// Zero every per-site schedule counter (schedule restarts at index 0).
pub fn reset_schedule() {
    for seq in &SEQ {
        seq.store(0, Ordering::Relaxed);
    }
}

/// The active seed (meaningful only while enabled).
#[must_use]
pub fn current_seed() -> u64 {
    SEED.load(Ordering::Relaxed)
}

/// The active per-decision injection rate in percent.
#[must_use]
pub fn current_rate() -> u64 {
    RATE.load(Ordering::Relaxed)
}

/// Snapshot of the per-site schedule counters, in [`FaultSite::ALL`]
/// order: how many decisions each site has drawn so far. Together with
/// the seed this pins down exactly which schedule indices a run
/// consumed — the flight recorder embeds it so a dumped failure can be
/// replayed.
#[must_use]
pub fn site_sequences() -> [u64; NUM_SITES] {
    let mut out = [0u64; NUM_SITES];
    for (slot, seq) in out.iter_mut().zip(SEQ.iter()) {
        *slot = seq.load(Ordering::Relaxed);
    }
    out
}

/// The pure schedule function: does schedule index `seq` of `site`
/// inject under `(seed, rate_percent)`? Depends on nothing else — no
/// clocks, no threads, no global state — which is the determinism
/// guarantee the replay tests pin down.
#[must_use]
pub fn decide(seed: u64, site: FaultSite, seq: u64, rate_percent: u64) -> bool {
    let mut mix = SplitMix64::new(
        seed ^ site.salt() ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    mix.next_u64() % 100 < rate_percent
}

/// Should this decision point fail? One relaxed load when chaos is
/// off; when on, draws the site's next schedule index and answers
/// from [`decide`], counting and tracing the injection.
#[inline]
#[must_use]
pub fn should_inject(site: FaultSite) -> bool {
    if !chaos_enabled() {
        return false;
    }
    should_inject_enabled(site)
}

#[cold]
fn should_inject_enabled(site: FaultSite) -> bool {
    let seq = SEQ[site as usize].fetch_add(1, Ordering::Relaxed);
    if decide(SEED.load(Ordering::Relaxed), site, seq, RATE.load(Ordering::Relaxed)) {
        COUNTERS.faults_injected.inc();
        emit(EventKind::FaultInjected, pack_fault(site, seq));
        true
    } else {
        false
    }
}

/// Pack a fault's site and schedule index into a `FaultInjected`
/// event arg: site in the top byte, index in the low 56 bits.
#[must_use]
pub const fn pack_fault(site: FaultSite, seq: u64) -> u64 {
    ((site as u64) << 56) | (seq & 0x00FF_FFFF_FFFF_FFFF)
}

/// Inverse of [`pack_fault`]; `None` for an unknown site byte.
#[must_use]
pub const fn unpack_fault(arg: u64) -> Option<(FaultSite, u64)> {
    match FaultSite::from_u8((arg >> 56) as u8) {
        Some(site) => Some((site, arg & 0x00FF_FFFF_FFFF_FFFF)),
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // STATE is process-global; tests that flip it serialize here.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn decide_is_pure_and_seed_sensitive() {
        let a: Vec<bool> = (0..512)
            .map(|i| decide(42, FaultSite::StealFail, i, 10))
            .collect();
        let b: Vec<bool> = (0..512)
            .map(|i| decide(42, FaultSite::StealFail, i, 10))
            .collect();
        assert_eq!(a, b, "same (seed, site, rate) must give the same schedule");
        let c: Vec<bool> = (0..512)
            .map(|i| decide(43, FaultSite::StealFail, i, 10))
            .collect();
        assert_ne!(a, c, "different seed must give a different schedule");
        let d: Vec<bool> = (0..512)
            .map(|i| decide(42, FaultSite::YieldPoint, i, 10))
            .collect();
        assert_ne!(a, d, "different site must give a different schedule");
    }

    #[test]
    fn decide_rate_edges() {
        for i in 0..256 {
            assert!(!decide(7, FaultSite::FebStallWake, i, 0));
            assert!(decide(7, FaultSite::FebStallWake, i, 100));
        }
        // 10% rate lands in a plausible band over a long window.
        let hits = (0..10_000)
            .filter(|&i| decide(7, FaultSite::StealFail, i, 10))
            .count();
        assert!((700..1_300).contains(&hits), "10% rate gave {hits}/10000");
    }

    #[test]
    fn pack_unpack_round_trips() {
        for site in FaultSite::ALL {
            let arg = pack_fault(site, 0x1234_5678);
            assert_eq!(unpack_fault(arg), Some((site, 0x1234_5678)));
        }
        assert_eq!(unpack_fault(u64::MAX), None);
        assert_eq!(FaultSite::from_u8(NUM_SITES as u8), None);
    }

    #[test]
    fn site_names_unique_and_round_trip() {
        let mut names: Vec<_> = FaultSite::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_SITES);
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::from_u8(site as u8), Some(site));
        }
    }

    #[test]
    fn force_and_disable_drive_should_inject() {
        let _s = serial();
        force_chaos(0xC0FFEE, 100);
        assert!(chaos_enabled());
        assert!(should_inject(FaultSite::StealFail), "rate 100 always injects");
        force_chaos(0xC0FFEE, 0);
        assert!(!should_inject(FaultSite::StealFail), "rate 0 never injects");
        disable_chaos();
        assert!(!chaos_enabled());
        assert!(!should_inject(FaultSite::StealFail));
        reset_to_env();
    }

    #[test]
    fn schedule_counters_restart_on_force() {
        let _s = serial();
        force_chaos(99, 50);
        let first: Vec<bool> = (0..64).map(|_| should_inject(FaultSite::StackCacheMiss)).collect();
        force_chaos(99, 50); // resets the schedule
        let second: Vec<bool> = (0..64).map(|_| should_inject(FaultSite::StackCacheMiss)).collect();
        assert_eq!(first, second, "same seed from index 0 must replay");
        disable_chaos();
        reset_to_env();
    }

    #[test]
    fn parse_u64_accepts_decimal_and_hex() {
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64(" 0xDEADBEEF "), Some(0xDEAD_BEEF));
        assert_eq!(parse_u64("0"), Some(0));
        assert_eq!(parse_u64(""), None);
        assert_eq!(parse_u64("nope"), None);
    }
}
