//! The home-pool rule: under private pools an Argobots ULT belongs to
//! the pool it was created in. A cross-pool `yield_to` runs the target
//! on the caller's stream for one segment, but its next yield sends it
//! home; and a `self_suspend`ed ULT resumed from a plain OS thread —
//! through its handle or through a waker — runs again on its home
//! stream, without a single yield on the way.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Waker;

use lwt_argobots::{
    current_stream, self_suspend, unit_waker, yield_now, yield_to, Config, Pick, PoolPolicy,
    Handle, Runtime, SchedContext, Scheduler, UltExt, UnitState,
};
use lwt_fiber::StackSize;
use lwt_metrics::registry::COUNTERS;

/// The yield counter is process-global: one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn two_private_streams() -> Runtime {
    Runtime::init(Config {
        num_streams: 2,
        pool_policy: PoolPolicy::PrivatePerStream,
        stack_size: StackSize(32 * 1024),
    })
}

/// Holds its stream idle until `open`, then hands back to the base
/// scheduler. `picks` proves it is installed.
struct Gate {
    open: Arc<AtomicBool>,
    picks: Arc<AtomicUsize>,
}

impl Scheduler for Gate {
    fn pick(&mut self, _ctx: &SchedContext) -> Pick {
        self.picks.fetch_add(1, Ordering::Release);
        if self.open.load(Ordering::Acquire) {
            Pick::Done
        } else {
            Pick::Idle
        }
    }
}

fn spin_until(cond: impl Fn() -> bool) {
    while !cond() {
        std::thread::yield_now();
    }
}

#[test]
fn a_cross_pool_yield_to_target_yields_back_to_its_home_pool() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rt = two_private_streams();
    let open = Arc::new(AtomicBool::new(false));
    let picks = Arc::new(AtomicUsize::new(0));
    rt.push_scheduler(
        1,
        Box::new(Gate {
            open: open.clone(),
            picks: picks.clone(),
        }),
    );
    // Stream 1 adopts pushed schedulers only when it next looks for
    // work; the target must not slip past the gate before that.
    let nudge = rt.tasklet_create_to(1, || ());
    spin_until(|| picks.load(Ordering::Acquire) > 0);

    let seen = Arc::new(Mutex::new(Vec::new()));
    let s = seen.clone();
    let target = rt.ult_create_to(1, move || {
        s.lock().unwrap().push(current_stream());
        yield_now();
        s.lock().unwrap().push(current_stream());
    });
    let caller = rt.ult_create_to(0, move || {
        yield_to(&target);
        // Back on stream 0: the target ran here and then yielded.
        target
    });
    let target: Handle<()> = caller.join();
    let held = (seen.lock().unwrap().clone(), target.state());
    // Open before asserting: a failing test must not leave stream 1
    // gated with work queued, or dropping the runtime would hang.
    open.store(true, Ordering::Release);
    target.join();
    nudge.join();
    // Its yield sent it to pool 1, where the gate held it.
    assert_eq!(held, (vec![Some(0)], UnitState::Ready));
    assert_eq!(*seen.lock().unwrap(), vec![Some(0), Some(1)]);
    rt.shutdown();
}

/// A ULT on stream 1 that suspends once, handing out its waker first,
/// and reports the stream it ran on before and after.
fn suspend_once(
    rt: &Runtime,
    go: &Arc<AtomicBool>,
    waker: &Arc<Mutex<Option<Waker>>>,
) -> Handle<(Option<usize>, Option<usize>)> {
    let (go, slot) = (go.clone(), waker.clone());
    rt.ult_create_to(1, move || {
        let before = current_stream();
        *slot.lock().unwrap() = Some(unit_waker());
        while !go.load(Ordering::Acquire) {
            self_suspend();
        }
        (before, current_stream())
    })
}

#[test]
fn a_suspended_ult_resumed_from_an_os_thread_runs_on_its_home_stream() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rt = two_private_streams();
    for by_waker in [false, true] {
        let go = Arc::new(AtomicBool::new(false));
        let slot = Arc::new(Mutex::new(None));
        let yields = COUNTERS.yields.get();
        let h = suspend_once(&rt, &go, &slot);
        spin_until(|| h.state() == UnitState::Blocked);
        go.store(true, Ordering::Release);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                if by_waker {
                    slot.lock().unwrap().take().expect("waker published").wake();
                } else {
                    h.resume();
                }
            });
        });
        assert_eq!(h.join(), (Some(1), Some(1)), "by_waker: {by_waker}");
        assert_eq!(COUNTERS.yields.get() - yields, 0, "by_waker: {by_waker}");
    }
    rt.shutdown();
}
