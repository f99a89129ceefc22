//! The return-mode barrier under the two schedules that used to break
//! it (PR 17): a processor re-checking for a pending episode before the
//! previous episode's leader had booked it, and a processor that went
//! back to sleep waiting for quiescence nobody announced.

use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lwt_converse::{Config, Runtime};
use lwt_sched::{force_wait_policy, reset_wait_policy_to_env, WaitPolicy};

/// The wait policy is process-global.
static SERIAL: Mutex<()> = Mutex::new(());

fn rt(processors: usize) -> Runtime {
    Runtime::init(Config {
        num_processors: processors,
        ..Config::default()
    })
}

/// Back-to-back episodes: a non-leader leaves episode k and looks for
/// episode k+1 while the leader is still between releasing the barrier
/// and counting it. Judged by the shared counter it entered k+1 early
/// and never ran the message the master then sent it — the master and
/// the other processors waited for each other forever (a few thousand
/// iterations on a 2-vCPU box were enough).
#[test]
fn back_to_back_barriers_never_serve_an_unrequested_episode() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let rt = rt(2);
        for _ in 0..60_000 {
            rt.send_rr(|| ());
            rt.send_rr(|| ());
            rt.barrier();
        }
        rt.shutdown();
        done.send(()).ok();
    });
    finished
        .recv_timeout(Duration::from_secs(120))
        .expect("barrier loop wedged: a processor sits in an episode nobody requested");
}

/// One processor finishes early, finds the barrier requested but work
/// outstanding, and parks; the retirement that balances the ledger
/// must wake it. Passive policy, so the backstop it would otherwise
/// sit out is 200 ms.
#[test]
fn quiescence_wakes_a_processor_parked_on_a_pending_barrier() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    force_wait_policy(WaitPolicy::Passive);
    let rt = rt(2);
    rt.barrier(); // both processors up and idle
    let mut worst = Duration::ZERO;
    for _ in 0..5 {
        rt.send(0, || std::thread::sleep(Duration::from_millis(30)));
        let begin = Instant::now();
        rt.barrier();
        worst = worst.max(begin.elapsed());
    }
    rt.shutdown();
    reset_wait_policy_to_env();
    assert!(
        worst < Duration::from_millis(150),
        "a 30 ms message held the barrier for {worst:?}: processor 1 slept through quiescence"
    );
}
