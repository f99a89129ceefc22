//! Model-checked parking: the *real* `ParkGroup` wake-one protocol and
//! the `Parker` token machine (routed through the crates' `sysapi`
//! facades onto the `lwt-model` shims) explored under the deterministic
//! scheduler.
//!
//! Under `--cfg lwt_model`, `ParkGroup::park` sleeps with **no backstop
//! timeout** (see `crates/sched/src/park.rs`): a lost wake is a
//! livelock the checker detects, not a 200 ms hiccup a timeout would
//! silently absorb. These tests are therefore the proof the backstops
//! are defense in depth only.
//!
//! Build and run with:
//! `RUSTFLAGS="--cfg lwt_model" cargo test -p lwt-model --test park`
#![cfg(lwt_model)]

use std::sync::Arc;

use lwt_model::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use lwt_model::thread;
use lwt_model::Checker;
use lwt_sched::{force_wait_policy, ParkGroup, ParkResult, WaitPolicy};
use lwt_sync::Parker;

fn quick() -> Checker {
    Checker::new().max_executions(400_000).time_budget_ms(45_000)
}

/// The wait policy is process-wide: tests that pin it run one at a time.
static POLICY: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn pin_policy(p: WaitPolicy) -> std::sync::MutexGuard<'static, ()> {
    let guard = POLICY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    force_wait_policy(p);
    guard
}

/// The Parker token is never lost: an unpark delivered at *any* point
/// relative to the park — before the sleeper arrives, mid-descent, or
/// while it sleeps — must let the park return. A broken token machine
/// shows up as a livelock (the model-build park has no timeout).
#[test]
fn parker_unpark_before_or_during_park_is_not_lost() {
    quick().check(|| {
        let p = Arc::new(Parker::new());
        let p2 = Arc::clone(&p);
        let sleeper = thread::spawn(move || p2.park());
        p.unpark();
        sleeper.join();
    });
}

/// The store-buffering race at the heart of the protocol: a producer
/// publishes work then notifies, while the idler announces then
/// re-checks. In every interleaving either the idler's re-check sees
/// the work (park aborts) or the notifier sees the announcement (token
/// delivered). If both sides could miss each other — the classic lost
/// wake — the blocking model-build sleep would livelock.
#[test]
fn wake_one_never_loses_the_only_wake() {
    let _policy = pin_policy(WaitPolicy::Passive);
    quick().check(|| {
        let group = Arc::new(ParkGroup::new(1));
        let work = Arc::new(AtomicUsize::new(0));
        let (g2, w2) = (Arc::clone(&group), Arc::clone(&work));
        let producer = thread::spawn(move || {
            // Push first, then wake — the ordering contract every
            // backend's spawn/requeue site follows.
            w2.store(1, Ordering::SeqCst);
            g2.notify();
        });
        while work.load(Ordering::SeqCst) == 0 {
            // A dry sweep parks; any return re-sweeps. TimedOut cannot
            // happen here (no backstop in the model build).
            let res = group.park(0, None, || work.load(Ordering::SeqCst));
            assert_ne!(res, ParkResult::TimedOut, "model park has no timeout");
        }
        producer.join();
        assert_eq!(group.idle_workers(), 0, "exited worker still announced");
    });
}

/// Wake-one with *two* sleepers: a single push plus a single notify
/// must get the unit consumed — the handoff flag may suppress herd
/// wakes, but never the one wake that matters — and `unpark_all` must
/// then release everyone for shutdown, exactly the backend finalize
/// sequence (stop flag, then tokens for all).
#[test]
fn one_push_one_notify_feeds_a_fully_parked_pair() {
    let _policy = pin_policy(WaitPolicy::Passive);
    quick().check(|| feed_a_fully_parked_pair(ParkGroup::new(2)));
}

/// The same pair under `adaptive` once both grace budgets have decayed
/// to 0 (a paced server's steady state): no window runs, so every park
/// is the passive sequence — announce, fence, re-check, hand-back,
/// sleep — and the budget bookkeeping around the sleep must not disturb
/// it. (The model clock reads every sleep as zero-length, which never
/// counts as short, so the budgets stay spent.) Bounded, not
/// exhaustive: like the passive pair above, it stops at `quick()`'s
/// 45 s cap, about 9.5k executions on a 2-vCPU box.
#[test]
fn one_push_one_notify_feeds_a_fully_parked_pair_with_spent_grace() {
    let _policy = pin_policy(WaitPolicy::Adaptive);
    quick().check(|| feed_a_fully_parked_pair(ParkGroup::with_spent_grace(2)));
}

/// Two workers sweep-or-park on `group` while one unit is pushed and
/// notified, then the finalize sequence (stop flag, tokens for all)
/// must release them.
fn feed_a_fully_parked_pair(group: ParkGroup) {
    let group = Arc::new(group);
    let work = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let (g, wk, st) = (Arc::clone(&group), Arc::clone(&work), Arc::clone(&stop));
            thread::spawn(move || loop {
                if st.load(Ordering::SeqCst) {
                    break;
                }
                if wk.compare_exchange(1, 0, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
                    continue; // consumed the unit; re-sweep
                }
                // Both queues and the stop flag count as "pending":
                // a park racing the shutdown stores must abort.
                let _ = g.park(w, None, || {
                    wk.load(Ordering::SeqCst) + usize::from(st.load(Ordering::SeqCst))
                });
            })
        })
        .collect();
    work.store(1, Ordering::SeqCst);
    group.notify();
    while work.load(Ordering::SeqCst) != 0 {
        thread::yield_now();
    }
    stop.store(true, Ordering::SeqCst);
    group.unpark_all();
    for t in workers {
        t.join();
    }
}
