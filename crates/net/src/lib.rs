//! # lwt-net — epoll reactor + TCP/HTTP serving on the GLT API
//!
//! The reviewed paper's runtimes (and this workspace's five
//! reproductions of them) schedule *CPU-bound* work: the moment a work
//! unit issues a blocking `read(2)`, it takes its whole worker thread
//! hostage — the exact runtime/I/O mismatch that motivates
//! runtime-aware communication layers in the HPC literature. This
//! crate removes that mismatch for TCP:
//!
//! * [`TcpListener`] / [`TcpStream`] are nonblocking sockets whose
//!   operations **suspend the calling work unit**, not the worker,
//!   through one wait path: park a waker on the reactor, re-check,
//!   suspend. An async task (`Glt::spawn_async`) returns
//!   `Poll::Pending` and is rewoken through its task-cell waker; a
//!   stackful ULT (`Glt::ult_create`) runs the same poll under
//!   `lwt_core::block_unit_on`, which takes it off every queue until
//!   its waker requeues it through the backend's hook (a plain OS
//!   thread parks). A blocked unit costs its worker nothing — the
//!   paper's `CthSuspend`/`ABT_self_suspend` promise, kept for I/O.
//! * A process-global **edge-triggered epoll reactor** (one driver
//!   thread + idle-worker polls through the `lwt_sched::io_poll`
//!   hook) turns kernel readiness into those wakes. Contract:
//!   DESIGN.md §15.
//! * [`http`] is a minimal HTTP/1.1 server — bounded parser,
//!   keep-alive, one async task per connection — that runs unchanged
//!   on all five backends, because it only speaks the GLT API. It
//!   carries the stack's overload contract (DESIGN.md §16):
//!   admission control (connection cap + in-flight shedding with
//!   `503`), timer-wheel deadlines (idle/header/read/write), handler
//!   panic isolation, and graceful drain.
//!
//! Observability and chaos ride along: `io_*`/timer/shed counters and
//! `IoWait`/`IoReady`/`TimerArm`/`TimerFire` ring events in
//! lwt-metrics, and six fault sites (`NetPartialWrite`,
//! `NetSpuriousEagain`, `NetDelayedReadiness`, `NetConnKill`,
//! `NetReadStall`, `HandlerPanic`) in lwt-chaos.
//!
//! ## Example: echo between two work units
//!
//! ```
//! use lwt_core::{BackendKind, Glt};
//! use lwt_net::{TcpListener, TcpStream};
//!
//! let glt = Glt::builder(BackendKind::Argobots).workers(2).build();
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap();
//!
//! let server = glt.ult_create(move || {
//!     let (stream, _peer) = listener.accept().unwrap();
//!     let mut buf = [0u8; 16];
//!     let n = stream.read(&mut buf).unwrap();
//!     stream.write_all(&buf[..n]).unwrap();
//! });
//! let client = glt.spawn_async(async move {
//!     let stream = TcpStream::connect(addr).unwrap();
//!     stream.write_all_async(b"hello").await.unwrap();
//!     let mut buf = [0u8; 16];
//!     stream.read_exact_async(&mut buf[..5]).await.unwrap();
//!     buf
//! });
//!
//! assert_eq!(&client.join()[..5], b"hello");
//! server.join();
//! glt.finalize().expect("clean drain");
//! ```

#![deny(missing_docs)]

pub mod http;
mod reactor;
mod sys;
mod tcp;

pub use reactor::{ensure_started, live_registrations};
pub use tcp::{TcpListener, TcpStream};
