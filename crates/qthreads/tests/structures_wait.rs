//! `Dictionary::get_wait` and `QtQueue::dequeue` suspend their caller:
//! a ULT costs no yields while it waits, and a plain OS thread costs no
//! CPU (both used to be bare yield loops — on an OS thread an
//! unbounded busy spin).
//!
//! The counters and the CPU clock are process-global, so the cases run
//! one at a time, in a test binary of their own.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use lwt_fiber::StackSize;
use lwt_metrics::snapshot;
use lwt_qthreads::structures::{Dictionary, QtQueue};
use lwt_qthreads::{Config, Runtime};

static SERIAL: Mutex<()> = Mutex::new(());

fn rt() -> Runtime {
    Runtime::init(Config {
        num_shepherds: 1,
        workers_per_shepherd: 1,
        stack_size: StackSize(32 * 1024),
    })
}

/// Process CPU time in ms (`/proc/self/stat` utime + stime; `USER_HZ`
/// is 100 on every Linux ABI this workspace targets).
fn process_cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let after = stat.rsplit_once(')').expect("stat has a comm field").1;
    let mut fields = after.split_ascii_whitespace();
    let utime: u64 = fields.nth(11).and_then(|f| f.parse().ok()).expect("utime");
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).expect("stime");
    (utime + stime) * 10
}

/// Fork `waiter` onto the runtime's only worker, give it `lead` to
/// block, run `release`, and return the counter deltas over the whole
/// wait plus the waiter's result.
fn blocked_ult<T: Send + 'static>(
    waiter: impl FnOnce() -> T + Send + 'static,
    release: impl FnOnce(),
) -> (lwt_metrics::registry::CounterSnapshot, T) {
    let rt = rt();
    let before = snapshot().counters;
    let h = rt.fork(waiter);
    std::thread::sleep(Duration::from_millis(50));
    release();
    let out = h.join();
    let spent = snapshot().counters.delta(&before);
    rt.shutdown();
    (spent, out)
}

#[test]
fn a_ult_blocked_in_get_wait_is_suspended_not_yielding() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let d: Arc<Dictionary<u32, u32>> = Arc::new(Dictionary::new());
    let (d2, d3) = (d.clone(), d.clone());
    let (spent, got) = blocked_ult(move || d2.get_wait(&7), move || {
        // Another key first: the waiter wakes, misses, sleeps again.
        d3.put(1, 10);
        d3.put_if_absent(7, 70);
    });
    assert_eq!(got, 70);
    assert_eq!(spent.yields, 0, "get_wait yielded while blocked");
    assert!(spent.wait_blocks >= 1, "get_wait never blocked");
}

#[test]
fn a_ult_blocked_in_dequeue_is_suspended_not_yielding() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let q: Arc<QtQueue<u32>> = Arc::new(QtQueue::new());
    let (q2, q3) = (q.clone(), q.clone());
    let (spent, got) = blocked_ult(move || q2.dequeue(), move || q3.enqueue(9));
    assert_eq!(got, 9);
    assert_eq!(spent.yields, 0, "dequeue yielded while blocked");
    assert!(spent.wait_blocks >= 1, "dequeue never blocked");
}

#[test]
fn an_os_thread_blocked_in_dequeue_sleeps() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let q: Arc<QtQueue<u32>> = Arc::new(QtQueue::new());
    let q2 = q.clone();
    let consumer = std::thread::spawn(move || q2.dequeue());
    std::thread::sleep(Duration::from_millis(50));
    let cpu0 = process_cpu_ms();
    std::thread::sleep(Duration::from_millis(300));
    let burned = process_cpu_ms() - cpu0;
    q.enqueue(5);
    assert_eq!(consumer.join().expect("consumer"), 5);
    assert!(
        burned < 20,
        "a thread blocked 300 ms in dequeue burned {burned} ms of CPU"
    );
}
