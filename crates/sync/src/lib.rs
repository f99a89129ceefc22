//! # lwt-sync — synchronization primitives for the LWT runtimes
//!
//! Every lightweight-thread library the reproduced paper analyzes leans
//! on a small set of synchronization mechanisms, and the paper
//! attributes several headline performance effects to exactly which one
//! a runtime picked:
//!
//! * **Barriers** (`gcc` OpenMP, Converse Threads) make join time grow
//!   linearly with the thread count (paper Fig. 3).
//! * **Status-flag polling** (Argobots `ABT_thread_free`) and
//!   **full/empty-bit words** (Qthreads `qthread_readFF`) give constant
//!   joins but differ in who pays for the free.
//! * **Channels** (Go) implement out-of-order completion notification.
//! * **Mutex-protected shared queues** (Go, `gcc` tasks) add the
//!   contention the paper repeatedly blames for their curves.
//!
//! This crate implements each mechanism from scratch so the runtime
//! crates can mix and match them the way their C originals do:
//!
//! * [`Backoff`]/[`AdaptiveRelax`] — spin backoff and the escalating
//!   spin→yield→sleep wait strategy for oversubscribed hosts.
//! * [`SpinLock`] / [`SpinLockGuard`] — a test-and-test-and-set lock.
//! * [`SenseBarrier`] — a sense-reversing centralized barrier.
//! * [`FebCell`] / [`FebTable`] — Qthreads-style full/empty bits.
//! * [`Channel`] — a Go-style MPMC channel with pluggable waiting.
//! * [`CountLatch`] / [`Event`] — join counters and one-shot flags.
//! * [`WaitList`] / [`block_on`] — the waker list those primitives
//!   fire, and the poll → suspend loop that waits on it.
//! * [`Parker`] — an OS-thread parker (OpenMP "passive" wait policy).
//! * [`rng`] — deterministic in-repo PRNGs ([`rng::SplitMix64`],
//!   [`rng::Xoshiro256StarStar`]) behind the hermetic no-external-deps
//!   policy; used by victim selection, tests, and benches.
//!
//! ## Waiting without blocking the worker
//!
//! ULTs must never block their underlying OS thread, so every blocking
//! operation here takes a *relax strategy* — a closure invoked once per
//! failed attempt. OS-thread users pass [`spin_relax`] or
//! [`thread_yield_relax`]. LWT runtimes pass a relax that *suspends the
//! unit* until the primitive's [`WaitList`] fires — e.g.
//! `cell.read_ff(|| block_on(|cx| cell.poll_full(cx)))` with their own
//! `block_on` — so a waiting unit sits in no queue and its worker runs
//! (or parks) as if it were not there. `lwt-net`'s reactor waits follow
//! the same publish → re-check → suspend protocol; DESIGN.md §15
//! documents it once for all of them.

#![warn(missing_docs)]

mod backoff;
mod barrier;
mod channel;
mod feb;
mod latch;
mod parking;
mod spin;
mod sysapi;
mod waitlist;

pub use backoff::{AdaptiveRelax, Backoff};
pub use barrier::SenseBarrier;
pub use channel::{Channel, RecvError, SendError, TryRecvError, TrySendError};
pub use feb::{FebCell, FebTable};
pub use latch::{CountLatch, Event};
pub use parking::Parker;
pub use spin::{SpinLock, SpinLockGuard};
pub use waitlist::{block_on, block_thread_on, WaitList};

// The PRNG module moved down into lwt-chaos (the chaos engine needs it
// and sits below this crate in the DAG); re-exported here so every
// historical `lwt_sync::rng` import keeps compiling unchanged.
pub use lwt_chaos::rng;

/// Relax strategy that spins with the CPU hint, never yielding.
///
/// Appropriate when the awaited condition is produced by another core
/// within nanoseconds; pathological under oversubscription.
#[inline]
pub fn spin_relax() {
    sysapi::spin_hint();
}

/// Relax strategy that yields the OS thread to the kernel scheduler.
///
/// This is the "passive" OpenMP wait policy the paper switches `gcc` to
/// in its task benchmarks to cut shared-queue contention.
#[inline]
pub fn thread_yield_relax() {
    sysapi::yield_thread();
}
