//! A runtime dropped without `shutdown()` stops and joins its workers.
//!
//! Every backend documents its `shutdown` as "also what dropping the
//! last clone does". For four of the five that used to be unreachable
//! code: each worker thread owned an `Arc` of the very struct whose
//! `Drop` was supposed to stop it, so the count never reached zero and
//! a dropped runtime leaked its parked workers for the life of the
//! process. Workers now hold only what they schedule from
//! (`lwt_ultcore::Crew` owns the threads), and this test counts OS
//! threads to prove it.
//!
//! One `#[test]` for all backends, in a binary of its own: the thread
//! count is process-global, so nothing else may start or stop threads
//! while a case is being measured.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lwt::fiber::StackSize;

/// `Threads:` from `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("status has a Threads: line");
    line.trim().parse().expect("thread count")
}

/// Run `case` (which starts a runtime, uses it and lets every handle
/// drop) and note `backend` in `leaked` unless the thread count is
/// back to where it was within a second.
fn check(leaked: &mut Vec<&'static str>, backend: &'static str, case: impl FnOnce()) {
    let before = os_threads();
    case();
    let deadline = Instant::now() + Duration::from_secs(1);
    while os_threads() != before {
        if Instant::now() >= deadline {
            leaked.push(backend);
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

const STACK: StackSize = StackSize(32 * 1024);

#[test]
fn dropping_the_last_handle_joins_the_workers_on_every_backend() {
    let mut leaked = Vec::new();

    check(&mut leaked, "argobots", || {
        let rt = lwt::argobots::Runtime::init(lwt::argobots::Config {
            num_streams: 2,
            stack_size: STACK,
            ..Default::default()
        });
        assert_eq!(rt.ult_create(|| 7).join(), 7);
    });
    check(&mut leaked, "qthreads", || {
        let rt = lwt::qthreads::Runtime::init(lwt::qthreads::Config {
            num_shepherds: 2,
            workers_per_shepherd: 1,
            stack_size: STACK,
        });
        assert_eq!(rt.fork(|| 7).join(), 7);
    });
    check(&mut leaked, "massivethreads", || {
        let rt = lwt::massive::Runtime::init(lwt::massive::Config {
            num_workers: 2,
            stack_size: STACK,
            ..Default::default()
        });
        assert_eq!(rt.spawn(|| 7).join(), 7);
    });
    check(&mut leaked, "converse", || {
        let rt = lwt::converse::Runtime::init(lwt::converse::Config {
            num_processors: 2,
            stack_size: STACK,
        });
        rt.send_rr(|| ());
        rt.barrier();
    });
    check(&mut leaked, "go", || {
        let rt = lwt::go::Runtime::init(lwt::go::Config {
            num_threads: 2,
            stack_size: STACK,
        });
        let wg = lwt::go::WaitGroup::new(1);
        let done = wg.clone();
        rt.go(move || done.done());
        wg.wait();
        // A second handle changes nothing: the *last* drop joins.
        drop(rt.clone());
    });
    // The last handle dies on a worker, inside the unit that owns it:
    // that worker cannot join itself, so it detaches itself, joins the
    // other one and leaves through its loop's exit test.
    check(&mut leaked, "go, last handle dropped by a goroutine", || {
        let rt = lwt::go::Runtime::init(lwt::go::Config {
            num_threads: 2,
            stack_size: STACK,
        });
        let master_gone = Arc::new(AtomicBool::new(false));
        let (gone, keep) = (master_gone.clone(), rt.clone());
        rt.go(move || {
            while !gone.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(keep);
        });
        drop(rt);
        master_gone.store(true, Ordering::Release);
    });

    assert!(
        leaked.is_empty(),
        "worker threads outlived a dropped runtime on: {leaked:?}"
    );
}
