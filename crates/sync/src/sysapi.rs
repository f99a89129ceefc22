//! System-primitive facade (the loom pattern).
//!
//! Everything in this crate that touches an atomic, an `UnsafeCell`,
//! or a spin/yield/sleep primitive goes through this module. Under a
//! normal build the aliases resolve to `std` and compile away; under
//! `RUSTFLAGS="--cfg lwt_model"` they resolve to the `lwt-model`
//! shims, so the *real* SpinLock/FEB/backoff code — not a rewrite —
//! runs inside the deterministic model checker
//! (`crates/model/tests/`).

#[cfg(not(lwt_model))]
pub(crate) use std::cell::UnsafeCell;
#[cfg(not(lwt_model))]
pub(crate) use std::sync::atomic::{fence, AtomicBool, AtomicU8};

#[cfg(lwt_model)]
pub(crate) use lwt_model::cell::UnsafeCell;
#[cfg(lwt_model)]
pub(crate) use lwt_model::sync::atomic::{fence, AtomicBool, AtomicU8};

/// One spin-wait hint. Model: a scheduler yield, so spin loops are
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
