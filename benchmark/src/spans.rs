//! Benchmark-side spans: recorded around the calls into each layer,
//! kept in per-thread vectors, and drained once when the slice ends.
//! Nothing inside the runtimes is touched; a span is two clock reads
//! and one push.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

pub use crate::sys::now_ns as now;

/// Set before the runtime is built in a traced slice, never cleared.
/// Handlers and unit bodies read it with one relaxed load.
static ON: AtomicBool = AtomicBool::new(false);

pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Root of a task-workload op: one fork-join region.
    Region,
    /// Root of a network op: one request as the client sees it.
    Request,
    /// One `ult_create` / `tasklet_create` call.
    Create,
    /// One `GltHandle::join` call.
    Join,
    /// The body of a work unit (the benchmark's own closure).
    Unit,
    /// The benchmark's HTTP handler / echo turn-around on the server.
    Handler,
    ClientWrite,
    ClientWait,
    ClientRead,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Region => "region",
            Kind::Request => "request",
            Kind::Create => "core.create",
            Kind::Join => "core.join",
            Kind::Unit => "unit",
            Kind::Handler => "handler",
            Kind::ClientWrite => "client.write",
            Kind::ClientWait => "client.wait",
            Kind::ClientRead => "client.read",
        }
    }

    pub fn is_root(self) -> bool {
        matches!(self, Kind::Region | Kind::Request)
    }
}

/// `root` is the id every span of one op shares; `idx` tells the units
/// of one region apart (0 where there is only one).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub root: u64,
    pub idx: u32,
    pub start: u64,
    pub end: u64,
}

type Buf = Arc<Mutex<Vec<Span>>>;

static ALL: Mutex<Vec<Buf>> = Mutex::new(Vec::new());

thread_local! {
    static MINE: RefCell<Option<Buf>> = const { RefCell::new(None) };
}

/// Append to the calling OS thread's vector. `inline(never)`: callers
/// are work units that may have migrated since they last touched
/// thread-local storage, so the TLS address must be computed here,
/// after any context switch, not hoisted into the caller.
#[inline(never)]
pub fn record(kind: Kind, root: u64, idx: u32, start: u64, end: u64) {
    MINE.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf: Buf = Arc::new(Mutex::new(Vec::with_capacity(1 << 16)));
            ALL.lock()
                .expect("span registry poisoned")
                .push(buf.clone());
            buf
        });
        buf.lock().expect("span buffer poisoned").push(Span {
            kind,
            root,
            idx,
            start,
            end,
        });
    });
}

/// Take every span recorded so far, from every thread.
pub fn drain() -> Vec<Span> {
    let mut out = Vec::new();
    for buf in ALL.lock().expect("span registry poisoned").iter() {
        out.append(&mut buf.lock().expect("span buffer poisoned"));
    }
    out
}
