//! # lwt-sched — work-unit queues and dispatch policies
//!
//! The reproduced paper traces each library's performance curve back to
//! its *queue topology and scheduling policy* (Table I: global vs
//! private work-unit queues, plug-in/stackable schedulers, work
//! stealing). This crate implements those structures from scratch:
//!
//! * [`SharedQueue`] — a single mutex-protected FIFO shared by every
//!   worker: Go's global run queue and `gcc` OpenMP's task queue. The
//!   contention this design adds under load is one of the paper's
//!   recurring findings.
//! * [`ChaseLev`] ([`Worker`]/[`Stealer`]) — the classic lock-free
//!   work-stealing deque, modelling Intel OpenMP's per-thread task
//!   queues with work stealing.
//! * [`RoundRobin`] — the cyclic dispatcher the paper's
//!   microbenchmarks use to push work units into other workers' queues
//!   (`qthread_fork_to`, Converse message sends, Argobots private
//!   pools).
//! * [`RandomVictim`] — uniform victim selection for work stealing
//!   (MassiveThreads' "random Work-Stealing mechanism").
//! * [`Injector`] — a lock-free MPSC queue (Vyukov) for cross-worker
//!   submission: Converse message sends, `qthread_fork_to`, and every
//!   external spawn land here instead of on a lock.
//! * [`ReadyQueue`] — the composite per-worker structure the runtimes
//!   now schedule from: Chase-Lev deque for the owner + thieves,
//!   [`Injector`] inbox for everyone else, with a fairness tick that
//!   keeps the old end live under LIFO pressure.
//! * [`ParkGroup`] — per-worker parkers plus a wake-one protocol, so
//!   idle workers sleep instead of spinning ([`WaitPolicy`] mirrors
//!   `OMP_WAIT_POLICY` via `LWT_WAIT_POLICY`).
//! * [`TaskState`] — the idle/scheduled/running/notified/complete
//!   lifecycle of a stackless future task, giving every backend's
//!   async bridge the same no-lost-wake guarantee (model-checked in
//!   `crates/model/tests/waker.rs`).
//! * [`UnitPark`] — the one-word suspend/awaken handshake of a
//!   stackful unit (`CthSuspend`/`CthAwaken`,
//!   `ABT_self_suspend`/`ABT_thread_resume`), inside every backend's
//!   `lwt_ultcore::UltCore` (model-checked in
//!   `crates/model/tests/unitpark.rs`).
//! * [`set_io_poll`] / [`io_poll`] / [`DriverRole`] — the reactor
//!   seam: the I/O reactor (`lwt-net`) registers an [`IoDriver`] (a
//!   zero-timeout poll, a blocking turn, a wake); every backend polls
//!   it when a steal sweep comes up dry, and the first worker to
//!   commit to sleep holds the driver role and sleeps in the blocking
//!   turn — there is no reactor thread.
//! * [`TimerWheel`] — the hierarchical timer wheel behind every
//!   deadline in the serving stack (TCP read/write deadlines, HTTP
//!   idle/header timeouts, graceful-drain deadlines). Whoever turns
//!   the reactor advances it; a waiter — suspended ULT, async task or
//!   parked OS thread alike — registers its waker on a [`TimerEntry`].

#![warn(missing_docs)]

mod chase_lev;
mod injector;
mod io;
mod park;
mod sysapi;
mod ready;
mod shared;
mod task;
mod timer;
mod victim;

pub use chase_lev::{ChaseLev, Steal, Stealer, Worker};
pub use injector::Injector;
pub use io::{block_thread_on_io, io_busy_poll, io_poll, set_io_poll, DriverRole, IoDriver};
pub use park::{
    current_wait_policy, force_wait_policy, reset_wait_policy_to_env, ParkGroup, ParkResult,
    WaitPolicy,
};
pub use ready::{ReadyQueue, FAIRNESS};
pub use shared::SharedQueue;
pub use task::{TaskState, UnitPark, WakeAction};
pub use timer::{TimerEntry, TimerWheel, LEVELS, SLOTS};
pub use victim::{near_first, RandomVictim, RoundRobin};
