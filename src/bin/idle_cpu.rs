//! Idle-CPU smoke: a quiescent runtime in `passive` wait policy must
//! burn (near-)zero process CPU — the acceptance probe for worker
//! parking. Before parking existed, every idle worker spun at 100% of
//! a core; with it, an idle pool sleeps and the only CPU spent is the
//! occasional backstop wake.
//!
//! For each backend: start a pool, run a tiny warmup, then hold the
//! runtime idle for a window while sampling process CPU time
//! (`/proc/self/stat` utime+stime, all threads). Then the same window
//! again with **idle sockets**: one acceptor ULT blocked in `accept`
//! and four reader ULTs blocked in `read` on quiet connections — units
//! waiting on I/O are suspended, so this must cost as little as the
//! empty pool (the regression fence against anyone reintroducing a
//! relax loop into the wait path). And once more with **blocked
//! joiners**: a ULT and a plain OS thread each joining a unit that
//! sleeps through the window, held to 20 ms (the old yield-and-nap
//! join loops burned 140–240 ms here). Prints one CSV row per window and
//! asserts its CPU stays under a tolerance; after all runtimes
//! finalize, asserts the park/unpark counters balance
//! (`parks == unparks > 0`). Exits non-zero on violation, so CI can
//! run it bare.
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
use lwt::{BackendKind, Glt};

/// Process CPU time (user + system, every thread) in milliseconds.
///
/// Parses `/proc/self/stat`: fields 14/15 are utime/stime in clock
/// ticks. `USER_HZ` is 100 on every Linux ABI this workspace targets
/// (hermetic build: no libc crate to ask `sysconf`), so one tick is
/// 10 ms — plenty for a threshold in the hundreds of ms.
fn process_cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // comm may contain spaces; skip past its closing paren first.
    let after = stat.rsplit_once(')').expect("stat has a comm field").1;
    let mut fields = after.split_ascii_whitespace();
    // After ')' the next field is state (3rd overall), so utime/stime
    // (14th/15th overall) are at indices 11/12 here.
    let utime: u64 = fields.nth(11).and_then(|f| f.parse().ok()).expect("utime");
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).expect("stime");
    (utime + stime) * 10
}

/// Reader ULTs parked on quiet connections in the idle-sockets window.
const IDLE_READERS: usize = 4;

/// Process CPU burned over one `idle_ms` window, after a settle pause
/// that lets the workers reach their parkers.
fn idle_window_cpu_ms(idle_ms: u64) -> u64 {
    std::thread::sleep(Duration::from_millis(100));
    let cpu0 = process_cpu_ms();
    std::thread::sleep(Duration::from_millis(idle_ms));
    process_cpu_ms() - cpu0
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
