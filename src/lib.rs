//! # lwt — lightweight threading runtimes for HPC
//!
//! A from-scratch Rust reproduction of *"A Review of Lightweight Thread
//! Approaches for High Performance Computing"* (Castelló et al.,
//! CLUSTER 2016): five lightweight-thread runtime models, an
//! OpenMP-like OS-thread baseline, the paper's unified common API, and
//! its complete microbenchmark suite.
//!
//! ## Crate map
//!
//! | Module (re-export) | Crate | Contents |
//! |---|---|---|
//! | [`fiber`] | `lwt-fiber` | stacks + x86_64 context switch |
//! | [`sync`] | `lwt-sync` | spinlock, barriers, FEBs, channels, latches |
//! | [`sched`] | `lwt-sched` | shared queue, Chase–Lev deque, ready queues, parking |
//! | [`ultcore`] | `lwt-ultcore` | ULT executor core + the worker engine all five runtimes run |
//! | [`argobots`] | `lwt-argobots` | execution streams, ULTs + tasklets, stackable schedulers, `yield_to` |
//! | [`qthreads`] | `lwt-qthreads` | shepherds/workers, full/empty-bit joins |
//! | [`massive`] | `lwt-massive` | work-first/help-first workers, random stealing |
//! | [`converse`] | `lwt-converse` | processors, Messages, return-mode barrier |
//! | [`go`] | `lwt-go` | global-queue goroutines + channels |
//! | [`openmp`] | `lwt-openmp` | gcc/icc-flavor OpenMP-like baseline |
//! | [`core`] | `lwt-core` | the unified API ([`Glt`]) + Tables I/II |
//! | [`net`] | `lwt-net` | epoll reactor, TCP/HTTP serving on the GLT API |
//! | [`microbench`] | `lwt-microbench` | the paper's microbenchmarks, Figs. 1–8 |
//!
//! ## Quickstart
//!
//! ```
//! use lwt::{BackendKind, Glt};
//!
//! let glt = Glt::builder(BackendKind::Argobots).workers(2).build();
//! let handles: Vec<_> = (0..8).map(|i| glt.ult_create(move || i * i)).collect();
//! let sum: usize = handles.into_iter().map(|h| h.join()).sum();
//! assert_eq!(sum, 140);
//! glt.finalize().expect("clean drain");
//! ```

pub use lwt_argobots as argobots;
pub use lwt_chaos as chaos;
pub use lwt_converse as converse;
pub use lwt_core as core;
pub use lwt_fiber as fiber;
pub use lwt_go as go;
pub use lwt_massive as massive;
pub use lwt_metrics as metrics;
pub use lwt_microbench as microbench;
pub use lwt_net as net;
pub use lwt_openmp as openmp;
pub use lwt_qthreads as qthreads;
pub use lwt_sched as sched;
pub use lwt_sync as sync;
pub use lwt_ultcore as ultcore;

pub use lwt_core::{
    AsyncQueuePolicy, BackendKind, BlockingPoolError, DrainError, Glt, GltBuilder, GltConfig,
    GltHandle, JoinError, PlacementError, SchedPolicy, SpawnError, Straggler,
};
