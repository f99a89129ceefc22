//! A scoped [`Pool`] wakes a queue's owner even while the park group's
//! wake-one is in flight for a worker that cannot reach that queue.
//! Without a token of its own the owner sleeps on: the second of two
//! wakes that land within a scheduling latency is dropped and its unit
//! sits queued until the owner's 20 ms backstop — which was the
//! Qthreads share of the `echo-ult-paced` latency tail.
//!
//! The parks counter is process-global, so this is the only test in
//! its binary.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lwt_fiber::StackSize;
use lwt_metrics::registry::COUNTERS;
use lwt_sched::{current_wait_policy, WaitPolicy};
use lwt_ultcore::{run_unit, Crew, Policy, Pool, ReadyUnit, UltCore};

/// A worker that takes from its own queue only: a one-worker shepherd.
struct OwnQueue<'a> {
    pool: &'a Pool,
    id: usize,
}

impl Policy for OwnQueue<'_> {
    type Unit = ReadyUnit;
    const STEALS: bool = false;

    fn next(&mut self) -> Option<ReadyUnit> {
        self.pool.next(self.id, [])
    }
    fn run(&mut self, unit: ReadyUnit) {
        run_unit(&unit);
    }
    fn reachable(&self) -> usize {
        self.pool.reachable(self.id, [])
    }
    fn drained(&self) -> bool {
        self.pool.drained(self.id)
    }
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let until = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < until, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// How long a unit pushed to worker 1 waits for it to wake up while a
/// wake for worker 0 is in flight.
fn start_delay_behind_a_wake_in_flight() -> Duration {
    let crew = Crew::new(2);
    let ctl = crew.control().clone();
    let pool = Pool::new(2, true, ctl.clone());
    crew.spawn("scoped-w1".into(), {
        let pool = pool.clone();
        move || {
            let policy = OwnQueue {
                pool: &pool,
                id: 1,
            };
            pool.run_worker(1, "scoped-wake-test", policy);
        }
    });

    // Worker 0 is a stand-in that announces itself idle and then stalls
    // inside the idle path, so the wake sent to it below stays in
    // flight for as long as the test needs.
    let (held, release) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
    let stand_in = std::thread::spawn({
        let (ctl, held, release) = (ctl.clone(), held.clone(), release.clone());
        move || {
            let _ = ctl.park.park(0, None, || {
                held.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                0
            });
        }
    });
    wait_for("the stand-in to announce", || held.load(Ordering::Acquire));
    // A fresh sleep of worker 1: nearly the whole backstop lies ahead.
    let parks = COUNTERS.parks.get();
    wait_for("worker 1 to fall asleep", || COUNTERS.parks.get() > parks);

    ctl.park.notify_near(0);
    let started = Arc::new(Mutex::new(None));
    let t0 = Instant::now();
    let unit = UltCore::new(StackSize(32 * 1024), {
        let started = started.clone();
        move || *started.lock().unwrap() = Some(t0.elapsed())
    });
    pool.push(1, unit.into());
    wait_for("the unit to run", || started.lock().unwrap().is_some());

    release.store(true, Ordering::Release);
    stand_in.join().unwrap();
    crew.shutdown();
    let delay = started.lock().unwrap().expect("the unit ran");
    delay
}

#[test]
fn a_scoped_push_wakes_the_owner_past_a_wake_in_flight_elsewhere() {
    if current_wait_policy() == WaitPolicy::Active {
        // Nobody sleeps, so nobody can be left asleep.
        return;
    }
    // Stranded, every round waits out the backstop (~20 ms); the best
    // of three shrugs off a preempted round.
    let best = (0..3)
        .map(|_| start_delay_behind_a_wake_in_flight())
        .min()
        .unwrap();
    assert!(
        best < Duration::from_millis(10),
        "worker 1 left its unit queued for {best:?}"
    );
}
