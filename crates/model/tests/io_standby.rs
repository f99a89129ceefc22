//! Model-checked reactor hand-off: the *real* `IoStandby` from
//! `lwt-sched` (routed through its `sysapi` facade onto the `lwt-model`
//! shims) and the real `Parker` under the driver's nap, explored under
//! the deterministic scheduler.
//!
//! While workers poll the epoll set, the reactor driver steps aside and
//! naps instead of blocking in `epoll_wait`; a worker committing to
//! sleep hands the poller role back (DESIGN §15). The race is the last
//! worker going to sleep against the driver stepping aside:
//!
//! * worker — poll (count it) → commit to sleep (count it, fence, read
//!   `aside`, unpark the driver if set) → sleep;
//! * driver — look (a poll since the last look, no sleep) → store
//!   `aside` → fence → re-read the sleep count → nap.
//!
//! The state that must be unreachable: driver napping, worker asleep,
//! no unpark pending — nobody left to harvest the next edge. The model
//! build's nap has no timeout (as `ParkGroup::park`'s sleep has none),
//! so that state is a livelock the checker detects, not a one-tick
//! delay a timeout would absorb.
//!
//! Hermetic: every test builds its own standby and parker; no
//! process-global state is touched, so the tests run in parallel. The
//! searches are exhaustive and the suite runs in well under a second.
//!
//! Build and run with:
//! `RUSTFLAGS="--cfg lwt_model" cargo test -p lwt-model --test io_standby`
#![cfg(lwt_model)]

use std::sync::Arc;
use std::time::Duration;

use lwt_model::sync::atomic::{AtomicBool, Ordering};
use lwt_model::{thread, Checker, Outcome};
use lwt_sched::{IoLook, IoStandby};
use lwt_sync::Parker;

fn quick() -> Checker {
    Checker::new()
        .preemptions(2)
        .max_executions(400_000)
        .time_budget_ms(45_000)
}

/// The driver's turn: step aside and nap, or stay in charge.
type StandBy = fn(&IoStandby, &mut IoLook, Duration) -> bool;

/// The kernel side: one readiness edge that lands just after the
/// worker's poll (so only the driver can harvest it), the worker's
/// parker, and whether the edge's wake was delivered. Two threads only:
/// with a single other thread, the waits' yield loops add no branching
/// and the search stays exhaustive.
struct Net {
    standby: IoStandby,
    /// The edge was harvested and its wake delivered.
    served: AtomicBool,
    /// The idle worker's sleep.
    worker: Parker,
}

impl Net {
    fn new() -> Arc<Self> {
        Arc::new(Net {
            standby: IoStandby::new(),
            served: AtomicBool::new(false),
            worker: Parker::new(),
        })
    }

    /// The idle worker: a dry zero-timeout poll, then commit to sleep
    /// and sleep until the edge's wake arrives.
    fn idle_worker(&self) {
        self.standby.note_poll();
        self.standby.hand_back();
        while !self.served.load(Ordering::SeqCst) {
            self.worker.park();
        }
    }

    /// The driver: each turn either steps aside (`stand_by`, the code
    /// under test, naps) or blocks in `epoll_wait`, which returns the
    /// edge.
    fn driver(&self, stand_by: StandBy) {
        let mut look = IoLook::default();
        while stand_by(&self.standby, &mut look, Duration::from_millis(1)) {}
        self.served.store(true, Ordering::SeqCst);
        self.worker.unpark();
    }
}

/// The worker's poll, its commitment to sleep and the driver's look
/// interleave arbitrarily: the driver may look before the poll (and
/// block at once), between the poll and the hand-back (the race), or
/// after both. Every interleaving must get the edge harvested and the
/// worker woken.
fn the_last_sleeper_race(stand_by: StandBy) {
    let net = Net::new();
    let n1 = Arc::clone(&net);
    let driver = thread::spawn(move || n1.driver(stand_by));
    net.idle_worker();
    driver.join();
}

#[test]
fn the_last_worker_to_sleep_never_strands_a_napping_driver() {
    let outcome = quick().check(|| the_last_sleeper_race(IoStandby::stand_by));
    assert!(
        matches!(outcome, Outcome::Pass { complete: true, .. }),
        "{outcome:?}"
    );
}

/// A stale token: an earlier idle episode (poll, commit to sleep, woken
/// by something else) can leave a token in the driver's parker — its
/// hand-back saw `aside` while the driver's re-read saw the sleep and
/// never napped. The token may cut a later nap short, but the episode
/// that needs the driver must still get it back.
#[test]
fn a_stale_token_from_an_earlier_sleep_still_hands_back() {
    let outcome = quick().check(|| {
        let net = Net::new();
        let n1 = Arc::clone(&net);
        let driver = thread::spawn(move || n1.driver(IoStandby::stand_by));
        net.standby.note_poll();
        net.standby.hand_back();
        net.idle_worker();
        driver.join();
    });
    assert!(
        matches!(outcome, Outcome::Pass { complete: true, .. }),
        "{outcome:?}"
    );
}

/// Mutation check: the same race with the driver's re-read of the sleep
/// count removed. The checker must find the lost hand-back — the worker
/// reads `aside` before the driver stores it, the driver never looks at
/// the sleep count again and naps, and the edge has nobody to harvest
/// it. If this ever passes, the suite above proves nothing.
#[test]
fn without_the_reread_the_checker_finds_the_lost_hand_back() {
    let outcome = quick().run(|| the_last_sleeper_race(IoStandby::stand_by_seeded_missing_reread));
    let Outcome::Fail { message, .. } = outcome else {
        panic!("a step-aside without the re-read was not caught: {outcome:?}");
    };
    assert!(message.contains("livelock"), "wrong failure: {message}");
}
