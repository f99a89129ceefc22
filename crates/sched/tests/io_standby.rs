//! The reactor driver's step-aside rule (`lwt_sched::IoStandby`), single
//! threaded: the driver steps aside only while workers poll and none has
//! committed to sleep. The hand-back race itself is model-checked in
//! `crates/model/tests/io_standby.rs`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lwt_sched::{IoLook, IoStandby};

const TICK: Duration = Duration::from_millis(1);

#[test]
fn driver_steps_aside_only_while_workers_poll_and_none_sleeps() {
    let s = IoStandby::new();
    let mut look = IoLook::default();
    assert!(!s.stand_by(&mut look, TICK), "nobody polled");
    s.note_poll();
    assert!(s.stand_by(&mut look, TICK), "a worker polled, none slept");
    assert!(!s.stand_by(&mut look, TICK), "no poll since the last look");
    s.note_poll();
    s.hand_back();
    assert!(!s.stand_by(&mut look, TICK), "a worker committed to sleep");
    s.note_poll();
    assert!(s.stand_by(&mut look, TICK), "polling again, nobody slept");
}

#[test]
fn a_hand_back_ends_the_nap() {
    let s = Arc::new(IoStandby::new());
    let mut look = IoLook::default();
    s.note_poll();
    let worker = Arc::clone(&s);
    let sleeper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        worker.hand_back();
    });
    // Usually the driver is napping when the hand-back lands; if the
    // hand-back comes first, the driver must not nap at all.
    let napped = Instant::now();
    let _ = s.stand_by(&mut look, Duration::from_secs(30));
    assert!(
        napped.elapsed() < Duration::from_secs(10),
        "the hand-back did not end the nap"
    );
    sleeper.join().expect("sleeper");
}
