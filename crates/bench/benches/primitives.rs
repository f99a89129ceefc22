//! Queue-substrate microbenchmarks: the raw cost of each work-unit
//! queue design from `lwt-sched`, isolating the structural differences
//! the paper's Table I rows ("Global/Private Work Unit Queue") imply.

use lwt_bench::{black_box, Harness};
use lwt_sched::{ChaseLev, SharedQueue};

const OPS: usize = 1024;

fn queue_roundtrip(h: &mut Harness) {
    let mut group = h.benchmark_group("primitives_queue_roundtrip");
    lwt_bench::tune(&mut group);

    group.bench_function("shared_locked_fifo", |b| {
        let q = SharedQueue::new();
        b.iter(|| {
            for i in 0..OPS {
                q.push(i);
            }
            while let Some(v) = q.pop() {
                black_box(v);
            }
        });
    });

    group.bench_function("chase_lev_lockfree", |b| {
        let (w, _s) = ChaseLev::new();
        b.iter(|| {
            for i in 0..OPS {
                w.push(i);
            }
            while let Some(v) = w.pop() {
                black_box(v);
            }
        });
    });

    group.finish();
}

fn contended_pop(h: &mut Harness) {
    let mut group = h.benchmark_group("primitives_contended");
    lwt_bench::tune(&mut group);

    // Shared queue under a competing consumer: the Go/gcc story.
    group.bench_function("shared_fifo_with_thief", |b| {
        b.iter_custom(|iters| {
            let q = std::sync::Arc::new(SharedQueue::new());
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let (q2, s2) = (q.clone(), stop.clone());
            let thief = std::thread::spawn(move || {
                while !s2.load(std::sync::atomic::Ordering::Acquire) {
                    black_box(q2.pop());
                }
            });
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                for i in 0..OPS {
                    q.push(i);
                }
                while q.pop().is_some() {}
            }
            let dt = t0.elapsed();
            stop.store(true, std::sync::atomic::Ordering::Release);
            thief.join().unwrap();
            dt
        });
    });

    // Chase–Lev under a competing stealer: the icc story.
    group.bench_function("chase_lev_with_thief", |b| {
        b.iter_custom(|iters| {
            let (w, s) = ChaseLev::new();
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let s2 = stop.clone();
            let thief = std::thread::spawn(move || {
                while !s2.load(std::sync::atomic::Ordering::Acquire) {
                    black_box(s.steal());
                }
            });
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                for i in 0..OPS {
                    w.push(i);
                }
                while w.pop().is_some() {}
            }
            let dt = t0.elapsed();
            stop.store(true, std::sync::atomic::Ordering::Release);
            thief.join().unwrap();
            dt
        });
    });

    group.finish();
}

lwt_bench::bench_main!(queue_roundtrip, contended_pop);
