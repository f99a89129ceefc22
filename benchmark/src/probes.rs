//! Isolated timing loops over each layer's public functions, run once
//! per traced run in the parent process (no runtime is alive in it).
//! Each probe reports the median of a few batches, per operation.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lwt_fiber::{cache, Fiber, StackSize};
use lwt_net::http;
use lwt_sched::{ParkGroup, ReadyQueue, TimerWheel};
use lwt_sync::{spin_relax, Channel, Event, FebCell, SpinLock};
use lwt_ultcore::{ReadyUnit, TaskCell, UltCore};

use crate::gen;
use crate::sys;

const BATCHES: usize = 5;

/// Median over `BATCHES` batches of the time one call of `f` takes,
/// in ns, where `f` performs `per_call` operations.
fn per_op_ns(calls: usize, per_call: usize, mut f: impl FnMut()) -> f64 {
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / (calls * per_call) as f64
        })
        .collect();
    sys::median(&mut batches)
}

pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    fiber(&mut out);
    sched(&mut out);
    sync(&mut out);
    // `enter_worker` marks the thread for good, so the ultcore probes
    // get a thread of their own.
    out.extend(
        std::thread::spawn(ultcore)
            .join()
            .expect("ultcore probe thread panicked"),
    );
    out.push(("net.parse_ns", parse(seed)));
    out.push((
        "metrics.snapshot_us",
        per_op_ns(2000, 1, || {
            black_box(lwt_metrics::registry::snapshot());
        }) / 1e3,
    ));
    out
}

fn fiber(out: &mut Vec<(&'static str, f64)>) {
    const SWITCHES: usize = 20_000;
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut f = Fiber::with_default_stack(|| {
                for _ in 0..SWITCHES {
                    lwt_fiber::yield_now();
                }
            });
            let t0 = Instant::now();
            while !f.is_finished() {
                f.resume();
            }
            // One resume and one yield per round trip.
            t0.elapsed().as_nanos() as f64 / (2 * SWITCHES) as f64
        })
        .collect();
    out.push(("fiber.switch_ns", sys::median(&mut batches)));

    let acquire = || drop(black_box(cache::acquire(StackSize::DEFAULT)));
    let configured = cache::capacity();
    cache::set_capacity(cache::DEFAULT_CAPACITY);
    acquire();
    out.push(("fiber.create_hit_ns", per_op_ns(20_000, 1, acquire)));
    cache::set_capacity(0);
    cache::purge();
    out.push(("fiber.create_miss_ns", per_op_ns(2000, 1, acquire)));
    cache::set_capacity(configured);
}

fn sched(out: &mut Vec<(&'static str, f64)>) {
    const N: usize = 1024;
    let q: ReadyQueue<usize> = ReadyQueue::new();
    q.bind();
    out.push((
        "sched.ready_push_pop_ns",
        per_op_ns(200, N, || {
            for i in 0..N {
                q.push(i);
            }
            while let Some(v) = q.pop() {
                black_box(v);
            }
        }),
    ));
    // Only the steals are timed; the owner's refill is not.
    let mut steals: Vec<f64> = (0..BATCHES * 40)
        .map(|_| {
            for i in 0..N {
                q.push(i);
            }
            let t0 = Instant::now();
            while let Some(v) = q.steal() {
                black_box(v);
            }
            t0.elapsed().as_nanos() as f64 / N as f64
        })
        .collect();
    out.push(("sched.ready_steal_ns", sys::median(&mut steals)));
    out.push(("sched.park_unpark_us", park_unpark()));

    let wheel = TimerWheel::new();
    out.push((
        "sched.timer_arm_cancel_ns",
        per_op_ns(50_000, 1, || {
            black_box(wheel.arm(wheel.now() + 100).cancel());
        }),
    ));
    // One far deadline keeps the wheel from jumping over empty ticks.
    let wheel = TimerWheel::new();
    let _far = wheel.arm(u64::MAX / 2);
    let mut tick = 0;
    out.push((
        "sched.timer_advance_ns",
        per_op_ns(50_000, 1, || {
            tick += 1;
            black_box(wheel.advance(tick));
        }),
    ));
}

/// Notify → the parked worker is running again, in µs. Each round
/// waits until the worker is past its grace yields and asleep.
fn park_unpark() -> f64 {
    const ROUNDS: usize = 40;
    let group = Arc::new(ParkGroup::new(1));
    let pending = Arc::new(AtomicUsize::new(0));
    let acks = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let (group, pending, acks, stop) =
            (group.clone(), pending.clone(), acks.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                group.park(0, None, || pending.load(Ordering::Acquire));
                // Taking the "work" is the acknowledgement; a backstop
                // wake-up finds none and parks again.
                if pending.swap(0, Ordering::AcqRel) == 1 {
                    acks.fetch_add(1, Ordering::Release);
                }
            }
        })
    };
    let mut rounds = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        while group.idle_workers() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(1));
        let t0 = Instant::now();
        pending.store(1, Ordering::Release);
        group.notify_worker(0);
        while acks.load(Ordering::Acquire) <= round {
            std::hint::spin_loop();
        }
        rounds.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    stop.store(true, Ordering::Release);
    pending.store(1, Ordering::Release);
    group.unpark_all();
    worker.join().expect("park probe thread panicked");
    sys::median(&mut rounds)
}

fn sync(out: &mut Vec<(&'static str, f64)>) {
    let lock = SpinLock::new(0u64);
    out.push((
        "sync.spinlock_ns",
        per_op_ns(200_000, 1, || *lock.lock() += 1),
    ));
    out.push((
        "sync.event_set_wait_ns",
        per_op_ns(100_000, 1, || {
            let e = Event::new();
            e.set();
            e.wait(spin_relax);
            black_box(&e);
        }),
    ));
    let ch = Channel::unbounded();
    out.push((
        "sync.channel_send_recv_ns",
        per_op_ns(100_000, 1, || {
            ch.send(1u64, spin_relax).expect("open channel");
            black_box(ch.recv(spin_relax).expect("open channel"));
        }),
    ));
    let cell = FebCell::new();
    out.push((
        "sync.feb_write_read_ns",
        per_op_ns(100_000, 1, || {
            cell.write_ef(1u64, spin_relax);
            black_box(cell.read_fe(spin_relax));
        }),
    ));
}

fn ultcore() -> Vec<(&'static str, f64)> {
    let _worker = lwt_ultcore::enter_worker(0, Arc::new(|_: usize, _: Arc<UltCore>| {}));
    let resched: lwt_ultcore::TaskResched = Arc::new(|_| {});
    let task = per_op_ns(50_000, 1, || {
        let (outcome, task) = TaskCell::spawn(async { 1u64 }, resched.clone());
        lwt_ultcore::run_unit(&ReadyUnit::Task(task));
        black_box(outcome.take());
    });
    let ult = per_op_ns(50_000, 1, || {
        let ult = UltCore::new(StackSize::DEFAULT, || {});
        black_box(lwt_ultcore::run_ult(&ult));
    });
    vec![
        ("ultcore.task_spawn_poll_ns", task),
        ("ultcore.ult_run_ns", ult),
    ]
}

/// `parse_request` over request heads the HTTP workload generates.
fn parse(seed: u64) -> f64 {
    let heads: Vec<Vec<u8>> = (0..256)
        .map(|seq| {
            let mut req = Vec::new();
            gen::http_request(gen::http_key(seed, 0, seq), &mut req);
            req
        })
        .collect();
    let limits = http::Limits::default();
    per_op_ns(200, heads.len(), || {
        for head in &heads {
            black_box(http::parse_request(head, &limits));
        }
    })
}
