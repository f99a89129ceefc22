//! The `adaptive` grace window learns from the gaps it missed
//! (`lwt_sched::park`, DESIGN.md §12), pinned end to end on every
//! backend:
//!
//! * **paced** — keep-alive requests 2 ms apart outlast any window, so
//!   the budget decays to 0 and a request costs a few grace yields at
//!   most, where a fixed window spent 32 per request;
//! * **recovery** — closed-loop load on the same connection afterwards
//!   restores the budget: workers poll the reactor again, so no worker
//!   sleeps in the driver role's blocking `epoll_wait` per request;
//! * **fine-grain guard** — on one CPU, fork/join regions of
//!   grain-zero ULTs keep every window paying off: workers do not park.
//!
//! The counters are process-global, so each case runs in a re-exec'd
//! child that executes only that test.

use lwt::metrics::registry::CounterSnapshot;
use lwt::net::http;
use lwt::paced::{self, PacedClient};
use lwt::{BackendKind, Glt};

/// A quarter of the fixed 32-round window every paced request paid.
const MAX_GRACE_YIELDS_PER_REQUEST: f64 = 8.0;

/// `true` in the child, which runs the body; the parent re-execs this
/// binary on `test` alone and checks the child's verdict. Children run
/// one at a time: the fine-grain child keeps a CPU busy, and a paced
/// worker whose yields wait behind it measures its window as
/// milliseconds long, which makes every sleep look short.
fn isolated(test: &str) -> bool {
    const CHILD: &str = "IDLE_BUDGET_TEST_ISOLATED_CHILD";
    static ONE_CHILD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    if std::env::var_os(CHILD).is_some() {
        return true;
    }
    let _one = ONE_CHILD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let status = std::process::Command::new(std::env::current_exe().expect("current_exe"))
        .args(["--exact", test, "--nocapture"])
        .env(CHILD, "1")
        .stdout(std::process::Stdio::null())
        .status()
        .expect("re-exec test binary");
    assert!(status.success(), "isolated child failed: {status}");
    false
}

fn counters() -> CounterSnapshot {
    lwt::metrics::snapshot().counters
}

/// A keep-alive server on two workers and one plain `std::net` client
/// connected to it.
struct Served {
    glt: Glt,
    server: http::ServerHandle,
    client: PacedClient,
}

impl Served {
    fn start(kind: BackendKind) -> Served {
        let glt = Glt::builder(kind).workers(2).build();
        let server = paced::serve(&glt);
        let client = PacedClient::connect(server.addr());
        Served {
            glt,
            server,
            client,
        }
    }

    /// One paced run (`lwt::paced`): grace yields per measured request.
    fn paced(&mut self) -> f64 {
        let (before, after) = self.client.paced(counters);
        after.delta(&before).grace_yields as f64 / f64::from(paced::REQUESTS)
    }

    fn finish(self) {
        drop(self.client);
        self.server.shutdown();
        self.glt.finalize().expect("clean drain");
    }
}

#[test]
fn paced_requests_spend_no_grace_window_every_backend() {
    if !isolated("paced_requests_spend_no_grace_window_every_backend") {
        return;
    }
    for kind in BackendKind::ALL {
        let mut served = Served::start(kind);
        // Up to five rounds, one of which must spend under a quarter of
        // a fixed window. A wake that lands just after a worker fell
        // asleep restores a full window by design, stale tokens
        // included (a Qthreads push tokens both the owner and, if it is
        // still announced, the owner again), and while the host steals
        // CPU such wakes come often: quiet rounds read 0-3, rounds in
        // a noisy phase up to 11. A fixed 32-round window spends about
        // 32 per request in every round. Unlike the fine-grain case,
        // this child is not pinned: on one CPU a woken worker shares
        // it with the client, and Qthreads reads 7-20 in every round.
        let mut rounds = Vec::new();
        while rounds.len() < 5 && rounds.iter().all(|&r| r >= MAX_GRACE_YIELDS_PER_REQUEST) {
            rounds.push(served.paced());
        }
        eprintln!("idle_budget: {kind}: grace yields per paced request by round {rounds:.2?}");
        assert!(
            rounds.iter().any(|&r| r < MAX_GRACE_YIELDS_PER_REQUEST),
            "grace yields per paced request on {kind}, by round: {rounds:.2?}"
        );
        served.finish();
    }
}

#[test]
fn closed_loop_load_after_a_paced_phase_restores_the_window_every_backend() {
    if !isolated("closed_loop_load_after_a_paced_phase_restores_the_window_every_backend") {
        return;
    }
    const REQUESTS: u64 = 5_000;
    for kind in BackendKind::ALL {
        let mut served = Served::start(kind);
        let _ = served.paced();
        // Up to five rounds, as in `tests/serving.rs`: a worker kept
        // off the CPU for a whole tick polls nothing, and the driver
        // rightly takes over for a while. Budgets that stay at 0 hand
        // every edge to the driver: a restore bound of 1 × the window
        // instead of 4 × read 0.44–0.80 per request on Converse.
        let mut rounds = Vec::new();
        while rounds.len() < 5 && rounds.iter().all(|&r| r >= 0.2) {
            let before = counters();
            for _ in 0..REQUESTS {
                served.client.roundtrip();
            }
            let turns = counters().delta(&before).io_driver_turns;
            rounds.push(turns as f64 / REQUESTS as f64);
        }
        eprintln!("idle_budget: {kind}: driver turns per request by round {rounds:.3?}");
        assert!(
            rounds.iter().any(|&r| r < 0.2),
            "driver turns per closed-loop request on {kind}, by round: {rounds:.3?}"
        );
        served.finish();
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict this thread, and every thread it starts afterwards, to the
/// first CPU it may run on. `false` when the kernel refused.
fn pin_to_one_cpu() -> bool {
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(cpu) = (0..WORDS * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1) else {
        return false;
    };
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads `one`.
    unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) == 0 }
}

#[test]
fn fine_grain_regions_never_park_on_one_cpu_every_backend() {
    if !isolated("fine_grain_regions_never_park_on_one_cpu_every_backend") {
        return;
    }
    assert!(pin_to_one_cpu(), "sched_setaffinity refused");
    const REGIONS: u64 = 2_000;
    const UNITS: u64 = 64;
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        let g = glt.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        // The master is a ULT of the pool, so only its two workers are
        // busy; this thread sleeps in `recv`.
        let master = glt.ult_create(move || {
            // One region first, so the second worker has gone idle once.
            let region = || {
                let units: Vec<_> = (0..UNITS).map(|i| g.ult_create(move || i)).collect();
                let sum: u64 = units.into_iter().map(|u| u.join()).sum();
                assert_eq!(sum, UNITS * (UNITS - 1) / 2);
            };
            region();
            let before = counters();
            for _ in 0..REGIONS {
                region();
            }
            tx.send(counters().delta(&before))
                .expect("test thread is listening");
        });
        let spent = rx.recv().expect("master ULT reports");
        master.join();
        glt.finalize().expect("clean drain");
        let per_region = spent.parks as f64 / REGIONS as f64;
        let yields = spent.grace_yields as f64 / REGIONS as f64;
        eprintln!(
            "idle_budget: {kind}: {per_region:.4} parks and {yields:.2} grace yields per fine region"
        );
        assert!(
            per_region < 0.01,
            "{per_region:.4} parks per fine region on {kind}"
        );
    }
}
