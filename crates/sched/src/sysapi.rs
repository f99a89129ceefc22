//! System-primitive facade (the loom pattern).
//!
//! The lock-free structures in this crate ([`crate::ChaseLev`] and
//! [`crate::Injector`]) reach their atomics and `UnsafeCell`s through
//! this module. Under a normal build the aliases resolve to `std` and
//! compile away; under `RUSTFLAGS="--cfg lwt_model"` they resolve to
//! the `lwt-model` shims, so the *real* deque and injector code — not
//! a rewrite — runs inside the deterministic model checker
//! (`crates/model/tests/`).

#[cfg(not(lwt_model))]
pub(crate) use std::cell::UnsafeCell;
#[cfg(not(lwt_model))]
pub(crate) use std::sync::atomic::{fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicUsize};

#[cfg(lwt_model)]
pub(crate) use lwt_model::cell::UnsafeCell;
#[cfg(lwt_model)]
pub(crate) use lwt_model::sync::atomic::{fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicUsize};

/// One spin-wait hint. Model: a scheduler yield, so retry loops are
/// explored (and bounded) instead of burning the search.
#[inline]
pub(crate) fn spin_hint() {
    #[cfg(not(lwt_model))]
    std::hint::spin_loop();
    #[cfg(lwt_model)]
    lwt_model::hint::spin_loop();
}

/// Yield the OS thread. Model: a scheduler yield.
#[inline]
pub(crate) fn yield_thread() {
    #[cfg(not(lwt_model))]
    std::thread::yield_now();
    #[cfg(lwt_model)]
    lwt_model::thread::yield_now();
}

/// `end - start`, for the adaptive grace budget's bookkeeping. Model:
/// always zero — model time is logical, and a branch on the wall clock
/// would make an execution unreplayable. (A zero-length sleep never
/// counts as short, so a spent budget stays spent there.)
#[inline]
pub(crate) fn between(start: std::time::Instant, end: std::time::Instant) -> std::time::Duration {
    #[cfg(not(lwt_model))]
    return end.saturating_duration_since(start);
    #[cfg(lwt_model)]
    {
        let _ = (start, end);
        std::time::Duration::ZERO
    }
}

/// Sleep for a short nap. Model: a scheduler yield — model time is
/// logical, so sleeping has no meaning beyond "let others run".
#[inline]
pub(crate) fn nap(dur: std::time::Duration) {
    #[cfg(not(lwt_model))]
    std::thread::sleep(dur);
    #[cfg(lwt_model)]
    {
        let _ = dur;
        lwt_model::thread::yield_now();
    }
}
