//! Thread-count fidelity: the paper's §IX-C claims, checked exactly
//! through the `lwt_metrics` snapshot API.
//!
//! "With 36 threads, [gcc] spawns 35,036 threads (36 for the main team,
//! and 35 for each outer loop iteration)" → `T + regions × (T − 1)`
//! spawned threads (our count excludes the caller, so
//! `(T − 1) + regions × (T − 1)`; at paper scale, 35 + 1000 × 35 plus
//! the master = 35,036).
//!
//! "icc reuses the idle threads but it still creates a large number of
//! threads (1,296: 36 for the main team and 35 for each secondary
//! team)" → with reuse, total spawns are bounded by pool demand, far
//! below gcc's.
//!
//! Each test runs its workload under [`lwt::metrics::registry::scoped`],
//! which serializes the reset→run→read window process-wide — no
//! hand-rolled mutex needed, and no reset race with other suites.

use lwt::metrics::registry::{scoped, snapshot};
use lwt::openmp::{Config, Flavor, OpenMp, WaitPolicy};

fn omp(threads: usize, flavor: Flavor) -> OpenMp {
    OpenMp::init(Config {
        num_threads: threads,
        flavor,
        wait_policy: WaitPolicy::Passive,
    })
}

/// Run the paper's nested pattern: an outer parallel for over
/// `outer_iters` iterations, each iteration opening a nested region.
fn nested_pattern(rt: &OpenMp, outer_iters: usize) {
    rt.parallel_for(0..outer_iters, |_| {
        rt.parallel(|_| {
            // Trivial inner body.
        });
    });
}

#[test]
fn gcc_nested_thread_count_matches_paper_formula() {
    const T: u64 = 3;
    const OUTER: u64 = 10;
    let ((), snap) = scoped(|| {
        let rt = omp(T as usize, Flavor::Gcc);
        nested_pattern(&rt, OUTER as usize);
        rt.shutdown();
    });
    // Paper formula (their count includes the master): T + outer×(T−1).
    // Our counter excludes the caller thread: (T−1) + outer×(T−1).
    assert_eq!(
        snap.counters.os_threads_spawned,
        (T - 1) + OUTER * (T - 1),
        "gcc must spawn fresh threads for every nested region"
    );
    assert_eq!(snap.counters.nested_regions, OUTER);
    // The same formula at the paper's scale (T = 36, 1,000 regions,
    // counting the master as the paper does) is its §IX-C headline.
    assert_eq!(36 + 1000 * (36 - 1), 35_036);
}

#[test]
fn icc_nested_reuses_threads_far_below_gcc() {
    const T: u64 = 3;
    const OUTER: u64 = 30;
    let ((), snap) = scoped(|| {
        let rt = omp(T as usize, Flavor::Icc);
        nested_pattern(&rt, OUTER as usize);
        rt.shutdown();
    });
    let spawned = snap.counters.os_threads_spawned;
    let gcc_equivalent = (T - 1) + OUTER * (T - 1);
    // Reuse: far fewer spawns than the no-reuse formula, and the pool's
    // high-water mark is bounded by concurrent demand ≤ T × (T − 1)
    // (the paper's 36 × 36 = 1,296 shape).
    assert!(
        spawned < gcc_equivalent / 2,
        "icc spawned {spawned}, expected well under gcc's {gcc_equivalent}"
    );
    // The pool may transiently over-provision (a finished thread that
    // has not yet re-registered as idle is invisible to `acquire`) —
    // the same effect that makes real icc hold 1,296 threads rather
    // than the 106 strictly needed. It must still stay well under the
    // no-reuse total.
    let high = snap.counters.nested_pool_high_water;
    assert!(
        high <= spawned && high < gcc_equivalent / 2,
        "pool high-water {high} out of bounds (spawned {spawned})"
    );
    assert_eq!(snap.counters.nested_regions, OUTER);
}

#[test]
fn repeated_icc_nesting_adds_no_new_threads() {
    scoped(|| {
        let rt = omp(2, Flavor::Icc);
        nested_pattern(&rt, 5);
        let after_warmup = snapshot().counters.os_threads_spawned;
        nested_pattern(&rt, 5);
        let after_second = snapshot().counters.os_threads_spawned;
        rt.shutdown();
        // A warmed pool should satisfy repeat demand almost entirely
        // from idle threads; tolerate a couple of race-driven spawns.
        assert!(
            after_second - after_warmup <= 2,
            "warmed icc pool spawned {} new threads",
            after_second - after_warmup
        );
    });
}

#[test]
fn top_level_regions_do_not_spawn_after_init() {
    scoped(|| {
        let rt = omp(3, Flavor::Gcc);
        let after_init = snapshot().counters.os_threads_spawned;
        assert_eq!(after_init, 2); // persistent pool, minus the caller
        for _ in 0..10 {
            rt.parallel(|_| {});
        }
        rt.shutdown();
        // Top-level regions reuse the persistent team — the property
        // that makes the paper's Fig. 2 OpenMP comparison fair.
        assert_eq!(snapshot().counters.os_threads_spawned, after_init);
    });
}

/// Fork `children` short units from inside a unit (so they land on the
/// forking worker's own deque, where only a thief can spread them) and
/// wait for them all. `fork` creates one child around a body.
fn burst_from_inside(children: usize, fork: impl Fn(Box<dyn FnOnce() + Send>)) {
    let latch = std::sync::Arc::new(lwt::sync::CountLatch::new(children));
    for _ in 0..children {
        let latch = latch.clone();
        fork(Box::new(move || {
            let t0 = std::time::Instant::now();
            while t0.elapsed() < std::time::Duration::from_micros(20) {
                std::hint::spin_loop();
            }
            latch.count_down();
        }));
    }
    latch.wait(|| lwt::ultcore::block_on(|cx| latch.poll_released(cx)));
}

/// Wait until both workers of a fresh two-worker runtime have parked:
/// from then on each has run dry once, so its next unit — stolen or
/// not — ends a dwell episode.
fn wait_until_both_parked() {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while snapshot().counters.workers_parked_level < 2 {
        assert!(std::time::Instant::now() < deadline, "idle workers never parked");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Every policy with a steal phase feeds the steal-dwell histogram —
/// the shared worker loop samples it on the dry → work edge, so a run
/// in which a thief that had run dry got work cannot leave it empty
/// (Go and Qthreads used to: only MassiveThreads' copy of the loop
/// recorded it).
#[test]
fn every_stealing_backend_records_steal_dwell() {
    const ROUNDS: usize = 50;
    let ((), go) = scoped(|| {
        let rt = lwt::go::Runtime::init(lwt::go::Config {
            num_threads: 2,
            ..Default::default()
        });
        wait_until_both_parked();
        for _ in 0..ROUNDS {
            let wg = lwt::go::WaitGroup::new(1);
            let (rt2, done) = (rt.clone(), wg.clone());
            rt.go(move || {
                burst_from_inside(64, |body| rt2.go(body));
                done.done();
            });
            wg.wait();
            if snapshot().counters.steal_hits > 0 {
                break;
            }
        }
        rt.shutdown();
    });
    let ((), qth) = scoped(|| {
        // One shepherd, two workers: stealing is shepherd-scoped.
        let rt = lwt::qthreads::Runtime::init(lwt::qthreads::Config {
            num_shepherds: 1,
            workers_per_shepherd: 2,
            ..Default::default()
        });
        wait_until_both_parked();
        for _ in 0..ROUNDS {
            let rt2 = rt.clone();
            rt.fork(move || {
                burst_from_inside(64, |body| drop(rt2.fork(body)));
            })
            .join();
            if snapshot().counters.steal_hits > 0 {
                break;
            }
        }
        rt.shutdown();
    });
    for (backend, snap) in [("go", go), ("qthreads", qth)] {
        assert!(
            snap.counters.steal_hits == 0 || snap.steal_dwell.count > 0,
            "{backend}: {} steal hits but an empty steal-dwell histogram",
            snap.counters.steal_hits
        );
    }
}
