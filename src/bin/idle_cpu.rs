//! Idle-CPU smoke: a quiescent runtime in `passive` wait policy must
//! burn (near-)zero process CPU — the acceptance probe for worker
//! parking. Before parking existed, every idle worker spun at 100% of
//! a core; with it, an idle pool sleeps and the only CPU spent is the
//! occasional backstop wake.
//!
//! For each backend: start a pool, run a tiny warmup, then hold the
//! runtime idle for a window while sampling process CPU time
//! (`CLOCK_PROCESS_CPUTIME_ID`, all threads). Then the same window
//! again with **idle sockets**: one acceptor ULT blocked in `accept`
//! and four reader ULTs blocked in `read` on quiet connections — units
//! waiting on I/O are suspended, so this must cost as little as the
//! empty pool (the regression fence against anyone reintroducing a
//! relax loop into the wait path). And once more with **blocked
//! joiners**: a ULT and a plain OS thread each joining a unit that
//! sleeps through the window, held to 20 ms (the old yield-and-nap
//! join loops burned 140–240 ms here). Prints one CSV row per window and
//! asserts its CPU stays under a tolerance.
//!
//! Then what the wait policy costs a mostly idle server, the **paced**
//! rows: a keep-alive HTTP server on a fresh pool and an in-process
//! client thread making 200 requests 2 ms apart, five times under
//! `adaptive` and five under `passive`, alternating, each row the
//! median server CPU per request (process CPU minus the client
//! thread's own). `adaptive` may cost at most 1.5 × `passive`: a grace
//! window that never catches a request must stop being paid for. A
//! regression fence, not a benchmark — run it pinned to one CPU
//! (`taskset -c 0`, as CI does), where a yield is a real switch and the
//! ratio means something.
//!
//! After all runtimes finalize, asserts the park/unpark counters
//! balance (`parks == unparks > 0`). Exits non-zero on violation, so CI
//! can run it bare.
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `LWT_IDLE_WORKERS` | pool size per backend | `4` |
//! | `LWT_IDLE_MS` | idle window per backend, milliseconds | `800` |
//! | `LWT_IDLE_CPU_TOLERANCE_MS` | max CPU per window | `150` |

use std::time::Duration;

use lwt::core::WaitPolicy;
use lwt::metrics::registry::snapshot;
use lwt::net::TcpListener;
use lwt::paced::{self, PacedClient};
use lwt::{BackendKind, Glt};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, correctly laid out timespec (x86-64 and
    // aarch64 Linux both use two 64-bit fields) and both clock ids are
    // always valid for the calling process/thread.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Process CPU time (user + system, every thread, live or exited) in
/// nanoseconds.
fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in nanoseconds.
fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Reader ULTs parked on quiet connections in the idle-sockets window.
const IDLE_READERS: usize = 4;

/// Process CPU burned over one `idle_ms` window, after a settle pause
/// that lets the workers reach their parkers.
fn idle_window_cpu_ms(idle_ms: u64) -> u64 {
    std::thread::sleep(Duration::from_millis(100));
    let cpu0 = process_cpu_ns();
    std::thread::sleep(Duration::from_millis(idle_ms));
    (process_cpu_ns() - cpu0) / 1_000_000
}

/// The idle-sockets window: block an acceptor and [`IDLE_READERS`]
/// readers on sockets nobody writes to, measure, then release them
/// (listener shutdown, peer EOF) so the pool drains cleanly.
fn idle_sockets_cpu_ms(glt: &Glt, idle_ms: u64) -> u64 {
    let listener = std::sync::Arc::new(TcpListener::bind("127.0.0.1:0").expect("bind"));
    let addr = listener.local_addr().expect("local_addr");
    let mut peers = Vec::new();
    let mut units = Vec::new();
    for _ in 0..IDLE_READERS {
        peers.push(std::net::TcpStream::connect(addr).expect("connect"));
        let (stream, _) = listener.accept().expect("accept");
        units.push(glt.ult_create(move || {
            let n = stream.read(&mut [0u8; 8]).expect("quiet read ends in EOF");
            assert_eq!(n, 0);
        }));
    }
    let inside = std::sync::Arc::clone(&listener);
    units.push(glt.ult_create(move || {
        inside.accept().map(|_| ()).expect_err("only the shutdown ends this accept");
    }));
    let cpu_spent = idle_window_cpu_ms(idle_ms);
    listener.shutdown();
    drop(peers);
    for unit in units {
        unit.join();
    }
    cpu_spent
}

/// Max CPU per blocked-joiners window.
const JOIN_TOLERANCE_MS: u64 = 20;

/// The blocked-joiners window: two units sleep through it (an OS
/// sleep: no CPU), one joined from a ULT, one from a plain OS thread.
fn blocked_joiners_cpu_ms(glt: &Glt, idle_ms: u64) -> u64 {
    let nap = Duration::from_millis(idle_ms + 200);
    let for_ult = glt.ult_create(move || std::thread::sleep(nap));
    let for_thread = glt.ult_create(move || std::thread::sleep(nap));
    let ult_joiner = glt.ult_create(move || for_ult.join());
    let thread_joiner = std::thread::spawn(move || for_thread.join());
    let cpu_spent = idle_window_cpu_ms(idle_ms);
    ult_joiner.join();
    thread_joiner.join().expect("joiner thread panicked");
    cpu_spent
}

/// Most `adaptive` may cost per paced request, as a multiple of `passive`.
const PACED_RATIO_MAX: f64 = 1.5;
/// Paced windows per policy and backend; the rows report their median.
const PACED_ROUNDS: usize = 5;
/// The paced server's pool: two workers, as the benchmark's
/// `echo-ult-paced` runs on a 2-vCPU host. (With four, Qthreads'
/// `adaptive` read up to 1.6 × `passive`: stale wake tokens keep
/// restoring its windows, DESIGN.md §12.)
const PACED_WORKERS: usize = 2;
const PACED_POLICIES: [WaitPolicy; 2] = [WaitPolicy::Adaptive, WaitPolicy::Passive];

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Server CPU per request (µs) of one paced run (`lwt::paced`) against a
/// fresh [`PACED_WORKERS`]-worker `kind` pool under `policy`.
fn paced_server_cpu_us(kind: BackendKind, policy: WaitPolicy) -> f64 {
    let glt = Glt::builder(kind)
        .workers(PACED_WORKERS)
        .wait_policy(policy)
        .build();
    let server = paced::serve(&glt);
    let addr = server.addr();
    // The client thread reads the process CPU and its own CPU on its
    // side of each boundary of the measured requests.
    let client = std::thread::spawn(move || {
        let (start, end) = PacedClient::connect(addr).paced(|| (process_cpu_ns(), thread_cpu_ns()));
        (end.0 - start.0, end.1 - start.1)
    });
    let (process_ns, client_ns) = client.join().expect("paced client panicked");
    server.shutdown();
    glt.finalize().expect("clean drain");
    process_ns.saturating_sub(client_ns) as f64 / 1_000.0 / f64::from(paced::REQUESTS)
}

fn main() {
    let workers = lwt::microbench::env_usize("LWT_IDLE_WORKERS", 4);
    let idle_ms = lwt::microbench::env_usize("LWT_IDLE_MS", 800) as u64;
    let tol_ms = lwt::microbench::env_usize("LWT_IDLE_CPU_TOLERANCE_MS", 150) as u64;

    // Worker time accounting: the idle windows double as the sanity
    // probe that the five state buckets partition wall time.
    lwt::metrics::set_accounting(true);

    println!("figure,series,workers,idle_wall_ms,idle_cpu_ms");
    let mut failed = false;
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind)
            .workers(workers)
            .wait_policy(WaitPolicy::Passive)
            .build();
        // Warmup: prove the pool is alive, then let it drain and park.
        let handles: Vec<_> = (0..32).map(|i| glt.ult_create(move || i)).collect();
        let sum: usize = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, 31 * 32 / 2, "warmup failed on {kind}");

        let pool_cpu = idle_window_cpu_ms(idle_ms);
        let sockets_cpu = idle_sockets_cpu_ms(&glt, idle_ms);
        let joiners_cpu = blocked_joiners_cpu_ms(&glt, idle_ms);
        glt.finalize().expect("clean drain");

        for (series, cpu_spent, tol_ms, culprit) in [
            ("", pool_cpu, tol_ms, "idle workers are spinning"),
            ("+sockets", sockets_cpu, tol_ms, "units blocked on I/O are spinning"),
            ("+joiners", joiners_cpu, JOIN_TOLERANCE_MS, "blocked joiners are spinning"),
        ] {
            println!("idle_cpu,{}{series},{workers},{idle_ms},{cpu_spent}", kind.name());
            if cpu_spent > tol_ms {
                eprintln!(
                    "FAIL: {kind}{series} burned {cpu_spent} ms CPU over a {idle_ms} ms \
                     idle window (tolerance {tol_ms} ms) — {culprit}"
                );
                failed = true;
            }
        }
    }

    println!("figure,series,policy,workers,requests,server_cpu_us_per_request");
    for kind in BackendKind::ALL {
        // Five alternating windows per policy, compared by median: one
        // window's reading moves by a third with what else the host ran.
        let mut readings = [Vec::new(), Vec::new()];
        for round in 0..PACED_ROUNDS {
            for i in [round % 2, 1 - round % 2] {
                readings[i].push(paced_server_cpu_us(kind, PACED_POLICIES[i]));
            }
        }
        let [adaptive, passive] = [0, 1].map(|i| {
            let us = median(&mut readings[i]);
            println!(
                "idle_cpu,{}+paced,{},{PACED_WORKERS},{},{us:.1}",
                kind.name(),
                PACED_POLICIES[i].name(),
                paced::REQUESTS
            );
            us
        });
        if adaptive > PACED_RATIO_MAX * passive {
            eprintln!(
                "FAIL: {kind}+paced costs {adaptive:.1} us of server CPU per request under \
                 adaptive vs {passive:.1} under passive (max {PACED_RATIO_MAX}x) — grace \
                 windows that catch nothing are still being paid for"
            );
            failed = true;
        }
    }

    // Everything is finalized: every park must have been matched by an
    // unpark (nobody is left asleep), and passive pools must actually
    // have parked at least once during the idle windows.
    let counters = snapshot().counters;
    println!(
        "idle_cpu,counters,parks={},unparks={},parked_high_water={}",
        counters.parks, counters.unparks, counters.workers_parked_high_water
    );
    if counters.parks == 0 {
        eprintln!("FAIL: passive idle windows never parked a worker");
        failed = true;
    }
    if counters.parks != counters.unparks {
        eprintln!(
            "FAIL: park/unpark imbalance after finalize: {} parks vs {} unparks",
            counters.parks, counters.unparks
        );
        failed = true;
    }

    // Utilization sanity: the five state buckets must partition each
    // worker's accounted wall time (percentages sum to ~100), and a
    // mostly-idle passive pool must show its time in parked/idle, not
    // busy.
    let util = lwt::metrics::utilization();
    let total_pct: f64 = lwt::metrics::WorkerState::ALL
        .iter()
        .map(|&s| util.aggregate_pct(s))
        .sum();
    let parked_idle_pct = util.aggregate_pct(lwt::metrics::WorkerState::Parked)
        + util.aggregate_pct(lwt::metrics::WorkerState::Idle);
    println!(
        "idle_cpu,utilization,workers={},busy_pct={:.2},parked_idle_pct={:.2},total_pct={:.2}",
        util.workers.len(),
        util.aggregate_busy_pct(),
        parked_idle_pct,
        total_pct
    );
    if util.workers.is_empty() {
        eprintln!("FAIL: no worker timelines registered with accounting on");
        failed = true;
    }
    if (total_pct - 100.0).abs() > 1.0 {
        eprintln!("FAIL: utilization buckets must sum to ~100%, got {total_pct:.2}%");
        failed = true;
    }
    if parked_idle_pct < 50.0 {
        eprintln!(
            "FAIL: an idle passive pool must spend most wall time parked/idle, \
             got {parked_idle_pct:.2}%"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("idle_cpu: ok");
}
