//! Cross-backend conformance for the redesigned GLT surface: the
//! builder flow, spawn/join, the fallible `try_join`, placement
//! (`ult_create_to`) and yield must behave identically — in results,
//! not mechanism — over all five runtime models.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use lwt::sync::SpinLock;
use lwt::{BackendKind, Glt, PlacementError, SchedPolicy};

#[test]
fn builder_spawn_join_roundtrip_every_backend() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        assert_eq!(glt.workers(), 2, "backend {kind}");
        let handles: Vec<_> = (0..64).map(|i| glt.ult_create(move || i * 3)).collect();
        let sum: usize = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, 3 * 63 * 64 / 2, "backend {kind}");
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn builder_accepts_every_knob() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind)
            .workers(2)
            .stack_size(lwt::core::StackSize(128 * 1024))
            .stack_cache_capacity(32)
            .scheduler(SchedPolicy::PrivatePerWorker)
            .build();
        // Deep-ish recursion exercises the configured larger stack.
        fn rec(n: usize) -> usize {
            if n == 0 {
                0
            } else {
                std::hint::black_box(rec(n - 1) + 1)
            }
        }
        assert_eq!(glt.ult_create(|| rec(500)).join(), 500, "backend {kind}");
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn shared_queue_policy_still_computes() {
    // Only Argobots has a shared-pool mode; everyone else must accept
    // and ignore the knob.
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind)
            .workers(2)
            .scheduler(SchedPolicy::SharedQueue)
            .build();
        let handles: Vec<_> = (0..32).map(|i| glt.ult_create(move || i)).collect();
        let sum: usize = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, 31 * 32 / 2, "backend {kind}");
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn try_join_returns_ok_on_success() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        let h = glt.ult_create(|| "payload".len());
        assert_eq!(h.try_join().expect("clean ULT must join Ok"), 7, "backend {kind}");
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn try_join_surfaces_panics_as_join_errors() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(1).build();
        let h = glt.ult_create(|| -> () { panic!("conformance boom") });
        let err = h.try_join().expect_err("panicking ULT must join Err");
        assert_eq!(err.message(), Some("conformance boom"), "backend {kind}");
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn tasklet_try_join_matches_ult_semantics() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        assert_eq!(glt.tasklet_create(|| 11 * 11).try_join().unwrap(), 121);
        let err = glt
            .tasklet_create(|| -> () { panic!("tasklet boom") })
            .try_join()
            .expect_err("panicking tasklet must join Err");
        assert_eq!(err.message(), Some("tasklet boom"), "backend {kind}");
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn placement_lands_on_the_requested_worker() {
    // The three backends with native placement must actually run the
    // work unit on the requested execution resource.
    for kind in [
        BackendKind::Argobots,
        BackendKind::Qthreads,
        BackendKind::Converse,
    ] {
        let glt = Glt::builder(kind).workers(3).build();
        for target in 0..3 {
            let observed = glt
                .ult_create_to(target, move || match kind {
                    BackendKind::Argobots => lwt::argobots::current_stream(),
                    BackendKind::Converse => lwt::converse::current_processor(),
                    // One worker per shepherd under the GLT, so the
                    // global worker index is the shepherd index.
                    _ => lwt::qthreads::current_worker(),
                })
                .unwrap_or_else(|e| panic!("placement on {kind} failed: {e}"))
                .join();
            assert_eq!(observed, Some(target), "backend {kind} target {target}");
        }
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn placement_is_unsupported_where_the_model_hides_workers() {
    for (kind, expect) in [
        (BackendKind::MassiveThreads, BackendKind::MassiveThreads),
        (BackendKind::Go, BackendKind::Go),
    ] {
        let glt = Glt::builder(kind).workers(2).build();
        match glt.ult_create_to(0, || 1) {
            Err(PlacementError::Unsupported(k)) => assert_eq!(k, expect),
            other => panic!("backend {kind}: expected Unsupported, got {other:?}"),
        }
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn placement_rejects_out_of_range_workers() {
    for kind in [
        BackendKind::Argobots,
        BackendKind::Qthreads,
        BackendKind::Converse,
    ] {
        let glt = Glt::builder(kind).workers(2).build();
        match glt.ult_create_to(2, || 1) {
            Err(PlacementError::OutOfRange { worker: 2, workers: 2 }) => {}
            other => panic!("backend {kind}: expected OutOfRange, got {other:?}"),
        }
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn spawn_onto_fully_parked_pool_wakes_promptly() {
    // Passive policy, no work: every worker in every backend goes to
    // sleep on its parker. A spawn into that fully parked pool is the
    // acid test of the wake-one protocol — a lost wake would leave the
    // join waiting on a 200 ms backstop timeout instead of a notify.
    use std::time::{Duration, Instant};
    lwt::core::force_wait_policy(lwt::core::WaitPolicy::Passive);
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind)
            .workers(2)
            .wait_policy(lwt::core::WaitPolicy::Passive)
            .build();
        // Idle long enough for both workers to saturate their backoff
        // and park (passive parks at the first dry sweep).
        std::thread::sleep(Duration::from_millis(60));
        let t0 = Instant::now();
        let h = glt.ult_create(|| 6 * 7);
        let out = match h.join_timeout(Duration::from_secs(10)) {
            Ok(joined) => joined.expect("no panic"),
            Err(_) => panic!("backend {kind}: spawn onto parked pool never ran"),
        };
        let waited = t0.elapsed();
        assert_eq!(out, 42, "backend {kind}");
        // Well under the passive backstop ⇒ the spawn's notify did the
        // waking, not the timeout.
        assert!(
            waited < Duration::from_millis(150),
            "backend {kind}: parked pool took {waited:?} to serve a spawn \
             (backstop did the work, not the wake-one notify)"
        );
        glt.finalize().expect("clean drain");
    }
    lwt::core::reset_wait_policy_to_env();
}

/// Yield from inside a GLT work unit, using whatever the backend's
/// native mechanism is (mirrors `Glt::yield_now`, which the closure
/// cannot reach because the handle owns no `&Glt`).
fn yield_from_within(kind: BackendKind) {
    match kind {
        BackendKind::Argobots => {
            if lwt::argobots::in_ult() {
                lwt::argobots::yield_now();
            }
        }
        _ => {
            if lwt::ultcore::in_ult() {
                lwt::ultcore::yield_now();
            }
        }
    }
}

#[test]
fn yield_interleaves_rather_than_wedges() {
    // A spinning work unit that yields must not starve its sibling:
    // the sibling's store unblocks it. One worker everywhere except
    // Converse, whose GLT work units are messages that execute
    // atomically — a same-processor spin would wedge by design, so it
    // gets a second processor.
    for kind in BackendKind::ALL {
        let workers = if kind == BackendKind::Converse { 2 } else { 1 };
        let glt = Glt::builder(kind).workers(workers).build();
        let flag = Arc::new(AtomicUsize::new(0));
        let f2 = flag.clone();
        let waiter = glt.ult_create(move || {
            let mut spins = 0usize;
            while f2.load(Ordering::Acquire) == 0 {
                yield_from_within(kind);
                std::thread::yield_now();
                spins += 1;
                assert!(spins < 50_000_000, "waiter starved on {kind}");
            }
        });
        let f3 = flag.clone();
        let setter = glt.ult_create(move || f3.store(1, Ordering::Release));
        setter.join();
        waiter.join();
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn yield_unit_runs_a_ready_sibling_before_returning() {
    // One worker, one ready sibling: a yield that comes back without
    // the sibling having run handed the CPU to nobody (the Go backend
    // used to requeue a yielding goroutine onto its own LIFO deque and
    // pop it straight back). The sibling is a tasklet where the
    // backend has them: a Converse *ULT* is created in two stages (a
    // message that performs the CthCreate), so it is not ready yet
    // when its creator yields.
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(1).build();
        let g = glt.clone();
        let ran_first = glt
            .ult_create(move || {
                let ran = Arc::new(AtomicBool::new(false));
                let r2 = ran.clone();
                let sibling = g.tasklet_create(move || r2.store(true, Ordering::Release));
                assert!(lwt::core::yield_unit(), "not inside a unit on {kind}");
                let ran_first = ran.load(Ordering::Acquire);
                sibling.join();
                ran_first
            })
            .join();
        assert!(ran_first, "yield_unit returned before the ready sibling ran on {kind}");
        glt.finalize().expect("clean drain");
    }
}

// ---------------------------------------------------------------------------
// A join is one suspend and one wake
// ---------------------------------------------------------------------------

/// An in-unit join of 64 children never yields and suspends the joiner
/// at most once per child, on one worker and on two. Counters are
/// process-global, so the body runs in a child process that executes
/// only this test. Also tier-1's join-path smoke.
#[test]
fn in_unit_join_of_64_children_suspends_instead_of_yielding() {
    const CHILD: &str = "CONFORMANCE_TEST_ISOLATED_CHILD";
    const NAME: &str = "in_unit_join_of_64_children_suspends_instead_of_yielding";
    if std::env::var_os(CHILD).is_none() {
        let status = std::process::Command::new(std::env::current_exe().expect("current_exe"))
            .args(["--exact", NAME])
            .env(CHILD, "1")
            .stdout(std::process::Stdio::null())
            .status()
            .expect("re-exec test binary");
        assert!(status.success(), "isolated child failed: {status}");
        return;
    }
    for kind in BackendKind::ALL {
        for workers in [1, 2] {
            let glt = Glt::builder(kind).workers(workers).build();
            let g = glt.clone();
            let (tx, rx) = std::sync::mpsc::channel();
            let master = glt.ult_create(move || {
                let children: Vec<_> = (0..64u64).map(|i| g.ult_create(move || i)).collect();
                // MassiveThreads creates work-first (a `yield_to` per
                // spawn), so only the joins are inside the window.
                let before = lwt::metrics::snapshot().counters;
                let sum: u64 = children.into_iter().map(|h| h.join()).sum();
                let spent = lwt::metrics::snapshot().counters.delta(&before);
                tx.send((sum, spent)).expect("test thread is listening");
            });
            // Not `master.join()` yet: this thread's own blocked join
            // would count inside the master's window.
            let (sum, spent) = rx.recv().expect("master ULT reports");
            master.join();
            assert_eq!(sum, 63 * 64 / 2, "on {kind} x{workers}");
            assert_eq!(spent.yields, 0, "joins yielded on {kind} x{workers}");
            assert!(
                spent.wait_blocks <= 64,
                "{} suspensions for 64 joins on {kind} x{workers}",
                spent.wait_blocks
            );
            // On one worker nothing can have run the first child yet,
            // so that join must really have blocked (MassiveThreads
            // ran every child at its creation).
            if workers == 1 && kind != BackendKind::MassiveThreads {
                assert!(spent.wait_blocks >= 1, "no join blocked on {kind}");
            }
            glt.finalize().expect("clean drain");
        }
    }
}

#[test]
fn in_unit_join_of_a_panicking_child_returns_a_join_error() {
    // The joiner is suspended when the child panics (one worker: the
    // child cannot have run before the join), so the error travels
    // the wake path, not the already-finished fast path.
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(1).build();
        let g = glt.clone();
        let message = glt
            .ult_create(move || {
                let child = g.ult_create(|| -> () { panic!("in-unit boom") });
                let err = child.try_join().expect_err("panicking child must join Err");
                err.message().map(str::to_owned)
            })
            .join();
        assert_eq!(message.as_deref(), Some("in-unit boom"), "backend {kind}");
        glt.finalize().expect("clean drain");
    }
}

/// The drain contract covers suspended joiners: one blocked on a unit
/// that never finishes sits in no queue, yet `finalize` neither exits
/// early nor hangs — it waits out its deadline and names the unit.
#[test]
fn finalize_reports_a_joiner_suspended_on_a_never_finishing_unit() {
    use std::time::{Duration, Instant};
    for kind in BackendKind::ALL {
        let deadline = Duration::from_millis(200);
        let glt = Glt::builder(kind).workers(2).drain_timeout(deadline).build();
        // The never-finishing unit waits off-pool, so the only thing
        // holding the drain is the suspended joiner.
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let stuck = glt.spawn_blocking(move || {
            let _ = gate.recv();
        });
        let joiner = glt.ult_create(move || stuck.join());
        std::thread::sleep(Duration::from_millis(20));
        let started = Instant::now();
        let err = glt.finalize().expect_err("a joiner is still suspended");
        let waited = started.elapsed();
        assert!(waited >= deadline, "drain exited early on {kind}: {waited:?}");
        assert!(waited < Duration::from_secs(10), "drain hung on {kind}: {waited:?}");
        let suspended: usize = err
            .stragglers
            .iter()
            .filter(|s| s.what.contains("suspended"))
            .map(|s| s.pending)
            .sum();
        assert_eq!(suspended, 1, "on {kind}: {err}");
        assert!(!joiner.is_finished());
        drop(release);
    }
}

/// Yields `remaining` times (self-waking before each `Pending`), then
/// resolves to `value` — exercises the requeue path without external
/// help.
struct YieldSome {
    remaining: usize,
    value: usize,
}

impl Future for YieldSome {
    type Output = usize;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
        if self.remaining == 0 {
            return Poll::Ready(self.value);
        }
        self.remaining -= 1;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

#[test]
fn async_result_round_trip_every_backend() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        // Ready-on-first-poll and multi-poll futures both round-trip
        // their results through the generic handle.
        assert_eq!(glt.spawn_async(async { 6 * 7 }).join(), 42, "backend {kind}");
        let handles: Vec<_> = (0..32)
            .map(|i| glt.spawn_async(YieldSome { remaining: 3, value: i }))
            .collect();
        let sum: usize = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, 31 * 32 / 2, "backend {kind}");
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn async_panics_surface_as_join_errors() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(1).build();
        let h = glt.spawn_async(async { panic!("async boom") });
        let err = h.try_join().expect_err("panicking poll must join Err");
        assert_eq!(err.message(), Some("async boom"), "backend {kind}");
        // The executor survives the panic: later tasks still run.
        assert_eq!(glt.spawn_async(async { 1 }).join(), 1, "backend {kind}");
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn async_nested_spawn_inside_future() {
    // A future may spawn more async work on the same runtime. The
    // inner handle is passed *out* and joined externally — joining
    // inside poll would block a scheduler worker, which the poll
    // contract (run-to-completion, like a tasklet) forbids.
    for kind in BackendKind::ALL {
        let glt = Arc::new(Glt::builder(kind).workers(2).build());
        let inner_slot: Arc<SpinLock<Option<lwt::GltHandle<usize>>>> =
            Arc::new(SpinLock::new(None));
        let (g2, s2) = (glt.clone(), inner_slot.clone());
        let outer = glt.spawn_async(async move {
            let inner = g2.spawn_async(YieldSome { remaining: 2, value: 21 });
            *s2.lock() = Some(inner);
            2usize
        });
        assert_eq!(outer.join(), 2, "backend {kind}");
        let inner = inner_slot.lock().take().expect("outer completed, slot filled");
        assert_eq!(inner.join(), 21, "backend {kind}");
        Arc::try_unwrap(glt)
            .unwrap_or_else(|_| panic!("handles dropped, sole owner"))
            .finalize()
            .expect("clean drain");
    }
}

/// Resolves when `open` is set by someone else; parks its waker in the
/// shared slot so the opener can deliver the wake cross-worker.
struct ExternalGate {
    open: Arc<AtomicBool>,
    waker: Arc<SpinLock<Option<Waker>>>,
}

impl Future for ExternalGate {
    type Output = usize;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
        if self.open.load(Ordering::Acquire) {
            return Poll::Ready(7);
        }
        *self.waker.lock() = Some(cx.waker().clone());
        // Re-check after publishing the waker: an opener that missed
        // the slot has set `open` before we park, and a Ready here
        // makes the racing wake (if any) a harmless no-op.
        if self.open.load(Ordering::Acquire) {
            return Poll::Ready(7);
        }
        Poll::Pending
    }
}

#[test]
fn async_waker_fires_from_another_worker() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        let open = Arc::new(AtomicBool::new(false));
        let waker: Arc<SpinLock<Option<Waker>>> = Arc::new(SpinLock::new(None));
        let task = glt.spawn_async(ExternalGate {
            open: open.clone(),
            waker: waker.clone(),
        });
        // A ULT on the same runtime delivers the wake: it waits for the
        // task to park, opens the gate, then fires the captured waker.
        let (o2, w2) = (open.clone(), waker.clone());
        let opener = glt.ult_create(move || {
            let w = loop {
                if let Some(w) = w2.lock().take() {
                    break w;
                }
                std::thread::yield_now();
            };
            o2.store(true, Ordering::Release);
            w.wake();
        });
        assert_eq!(task.join(), 7, "backend {kind}");
        opener.join();
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn async_and_blocking_serve_a_fully_parked_pool() {
    // Passive policy, no work: all scheduler workers park. Both a
    // spawn_blocking job (runs off-pool, completes via the event) and
    // a spawn_async wake (re-enqueues through the backend's dispatch,
    // which must unpark a worker) have to make progress promptly.
    use std::time::{Duration, Instant};
    lwt::core::force_wait_policy(lwt::core::WaitPolicy::Passive);
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind)
            .workers(2)
            .wait_policy(lwt::core::WaitPolicy::Passive)
            .build();
        std::thread::sleep(Duration::from_millis(60));
        let t0 = Instant::now();
        let b = glt.spawn_blocking(|| "off-worker");
        let a = glt.spawn_async(YieldSome { remaining: 2, value: 9 });
        assert_eq!(b.join(), "off-worker", "backend {kind}");
        assert_eq!(a.join(), 9, "backend {kind}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "backend {kind}: parked pool served async+blocking too slowly"
        );
        glt.finalize().expect("clean drain");
    }
    lwt::core::reset_wait_policy_to_env();
}

#[test]
fn async_pinned_queue_policy_completes() {
    // Pinning every poll to worker 0 must still complete multi-poll
    // futures on every backend (wakes land back on the pinned queue).
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind)
            .workers(2)
            .async_queue(lwt::AsyncQueuePolicy::Pinned(0))
            .build();
        let handles: Vec<_> = (0..8)
            .map(|i| glt.spawn_async(YieldSome { remaining: 2, value: i }))
            .collect();
        let sum: usize = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, 7 * 8 / 2, "backend {kind}");
        glt.finalize().expect("clean drain");
    }
}
