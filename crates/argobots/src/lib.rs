//! # lwt-argobots — an Argobots-model lightweight-thread runtime
//!
//! From-scratch Rust implementation of the programming model the paper
//! describes for Argobots (Seo et al.), "the likely most flexible and
//! recent solution … a mechanism-oriented LWT library that allows
//! programmers to create their own PMs":
//!
//! * **Execution Streams** ([`Runtime::stream_create`]) — the
//!   OS-thread-backed execution resources. Unlike every other runtime in
//!   this workspace they can be created *dynamically at run time*, not
//!   only at initialization (paper Table I, "Group Control").
//! * **Two work-unit types** — stackful, yieldable **ULTs**
//!   ([`Runtime::ult_create`]) and stackless, atomically-executed
//!   **Tasklets** ([`Runtime::tasklet_create`]). The paper's Figs. 2, 5
//!   and 6 show tasklets beating ULTs by ~2× at creation; the
//!   `ablation_workunit` bench reproduces that comparison.
//! * **Configurable pools** — one private pool per stream (the
//!   configuration the paper's evaluation always selects for Argobots,
//!   with round-robin dispatch from the creator) or a single shared
//!   pool ([`PoolPolicy`]).
//! * **Pluggable, stackable schedulers** ([`Scheduler`],
//!   [`Runtime::push_scheduler`]) — custom instances per stream, pushed
//!   and popped at run time.
//! * **`yield_to`** ([`yield_to`]) — direct ULT→ULT transfer that
//!   "avoids a call to the scheduler, giving directly the control to
//!   another ULT" — unique to Argobots in the paper's Table I.
//!
//! Joins follow the Argobots recipe the paper credits for its flat join
//! curve (Fig. 3): the joiner polls the work-unit *status word* and the
//! structure is freed with the handle (`ABT_thread_free` ≙ join +
//! drop).
//!
//! Everything else is `lwt_ultcore`'s: the streams run the shared
//! worker loop and lifecycle (`lwt_ultcore::engine`) with "whatever the
//! scheduler on top of the stream's stack picks" as their policy, and
//! a ULT *is* an `lwt_ultcore::UltCore` — switched, suspended, woken
//! and joined by the core like every backend's. The one datum it
//! carries for Argobots is its home pool, where the runtime's requeue
//! hook sends it on every yield and resume. [`yield_now`],
//! [`self_suspend`], [`unit_waker`], [`in_ult`], [`block_on`] and
//! [`current_stream`] are the core's functions under their Argobots
//! names. Argobots' own sync objects (`ABT_mutex`, `ABT_cond`,
//! `ABT_barrier`, `ABT_eventual`, `ABT_future`) are not modelled: they
//! are no Table I difference, and `lwt_sync` does those jobs for every
//! backend.
//!
//! ## Example
//!
//! ```
//! use lwt_argobots::{Config, PoolPolicy, Runtime};
//!
//! let rt = Runtime::init(Config {
//!     num_streams: 2,
//!     pool_policy: PoolPolicy::PrivatePerStream,
//!     ..Config::default()
//! });
//! let h: Vec<_> = (0..8)
//!     .map(|i| rt.ult_create(move || i * 2))
//!     .collect();
//! let sum: usize = h.into_iter().map(|h| h.join()).sum();
//! assert_eq!(sum, 56);
//! rt.shutdown();
//! ```

#![warn(missing_docs)]

mod pool;
mod runtime;
mod sched;
mod stream;
mod unit;

pub use pool::PoolPolicy;
pub use runtime::{Config, Runtime};
pub use sched::{Pick, SchedContext, Scheduler, WorkUnit};
pub use stream::yield_to;
pub use unit::{TaskletHandle, UltExt, UnitState};

pub use lwt_ultcore::{
    block_on, current_worker as current_stream, in_ult, suspend as self_suspend, unit_waker,
    yield_now, Handle, JoinError,
};
