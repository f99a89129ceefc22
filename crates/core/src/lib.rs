//! # lwt-core — the unified lightweight-thread API
//!
//! The reproduced paper closes by proposing its actual contribution
//! for future work: "we plan to design and implement a **common API**
//! for the LWT libraries. This API could be placed under several
//! high-level PMs … that are currently implemented on top of Pthreads"
//! (§X) — the work that later became the authors' GLT library. This
//! crate *is* that common API, realized over the five runtime models
//! implemented in this workspace.
//!
//! The API surface is exactly the **reduced function set of the
//! paper's Table II**, which the authors postulate "can be sufficient
//! to cover the common parallel code patterns":
//!
//! | Generic ([`Glt`]) | Argobots | Qthreads | MassiveThreads | Converse | Go |
//! |---|---|---|---|---|---|
//! | `init` | `ABT_init` | `qthread_initialize` | `myth_init` | `ConverseInit` | — |
//! | `ult_create` | `ABT_thread_create` | `qthread_fork` | `myth_create` | `CthCreate` | `go func` |
//! | `tasklet_create` | `ABT_task_create` | — | — | `CmiSyncSend` | — |
//! | `yield` | `ABT_thread_yield` | `qthread_yield` | `myth_yield` | `CthYield` | — |
//! | `join` | `ABT_thread_free` | `qthread_readFF` | `myth_join` | message/barrier | channel |
//! | `finalize` | `ABT_finalize` | `qthread_finalize` | `myth_fini` | `ConverseExit` | — |
//!
//! Each backend keeps its native join/creation semantics underneath
//! (status-word polling, full/empty bits, work-first displacement,
//! message sends, channel receives), so code written against [`Glt`]
//! inherits the performance personality of whichever backend it runs
//! on — the property the paper's microbenchmarks quantify.
//!
//! The semantic feature matrix of the paper's **Table I** is exposed
//! programmatically via [`capability_matrix`], and the Table II
//! function mapping via [`api_map`].
//!
//! ## Example
//!
//! ```
//! use lwt_core::{BackendKind, Glt};
//!
//! for kind in BackendKind::ALL {
//!     let glt = Glt::builder(kind).workers(2).build();
//!     let h: Vec<_> = (0..4).map(|i| glt.ult_create(move || i * i)).collect();
//!     let sum: usize = h.into_iter().map(|h| h.join()).sum();
//!     assert_eq!(sum, 14);
//!     glt.finalize().expect("clean drain");
//! }
//! ```

#![warn(missing_docs)]

mod caps;
pub mod error;
mod glt;
mod pm;

pub use caps::{
    api_map, capability_matrix, ApiRow, Capabilities, SchedulerPlug,
};
pub use error::{BlockingPoolError, PlacementError, SpawnError};
pub use glt::{
    block_unit_on, default_workers, yield_unit, AsyncQueuePolicy, BackendKind, Glt, GltBuilder, GltConfig,
    GltHandle, SchedPolicy,
};
pub use pm::{Pm, TaskScope};

/// Stack size for stackful work units, re-exported from `lwt-fiber` so
/// `GltBuilder::stack_size` can be fed without a second dependency.
pub use lwt_fiber::StackSize;
/// Idle-worker wait policy (`LWT_WAIT_POLICY`, the analogue of
/// `OMP_WAIT_POLICY`) plus its process-wide accessors, re-exported from
/// `lwt-sched` so `GltBuilder::wait_policy` can be fed without a second
/// dependency.
pub use lwt_sched::{
    current_wait_policy, force_wait_policy, reset_wait_policy_to_env, WaitPolicy,
};
/// Panic payload surfaced by the fallible joins (`GltHandle::try_join`
/// and every backend handle's `try_join`) — one type across all five
/// runtimes. Canonical home: [`error`].
pub use lwt_ultcore::JoinError;
/// Bounded-drain failure from [`Glt::finalize`] (and every backend's
/// `shutdown_within`): the deadline expired with work still pending,
/// and the straggler table says where. Canonical home: [`error`].
pub use lwt_ultcore::{DrainError, Straggler};

/// Deterministic PRNGs (`SplitMix64`, `Xoshiro256StarStar`) with a
/// `rand`-like `gen_range`/`shuffle` surface.
///
/// The implementation lives in `lwt-chaos` — the dependency-free
/// substrate crate (it also seeds the fault-injection schedule) — and
/// is re-exported through `lwt-sync`, so the scheduler layers below
/// this API (victim selection in `lwt-sched`, the MassiveThreads-style
/// stealers) can draw from the same generators without a dependency
/// cycle; this re-export is the canonical public path.
pub use lwt_sync::rng;
