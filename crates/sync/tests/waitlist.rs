//! `WaitList` and the blocking relax strategies built on it, through
//! the public API only. The interleavings are the model checker's job
//! (`crates/model/tests/waitlist.rs`); these pin the bookkeeping — who
//! is registered, who is released, who is woken — and that each
//! primitive's `poll_*` really blocks a plain thread until its
//! counterpart fires.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Wake, Waker};
use std::time::Duration;

use lwt_sync::{block_thread_on, Channel, CountLatch, Event, FebCell, WaitList};

struct CountWake(AtomicUsize);

impl Wake for CountWake {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn a_true_condition_never_registers() {
    let list = WaitList::new();
    let wakes = Arc::new(CountWake(AtomicUsize::new(0)));
    let waker = Waker::from(wakes.clone());
    let mut cx = Context::from_waker(&waker);
    assert!(list.poll_until(&mut cx, || true).is_ready());
    assert_eq!(Arc::strong_count(&wakes), 2, "waker must not be kept");
    list.wake_all();
    assert_eq!(wakes.0.load(Ordering::SeqCst), 0);
}

#[test]
fn repolls_register_once_and_every_waiter_is_woken_once() {
    let list = WaitList::new();
    let a = Arc::new(CountWake(AtomicUsize::new(0)));
    let b = Arc::new(CountWake(AtomicUsize::new(0)));
    let (wa, wb) = (Waker::from(a.clone()), Waker::from(b.clone()));
    for _ in 0..3 {
        assert!(list.poll_until(&mut Context::from_waker(&wa), || false).is_pending());
    }
    assert!(list.poll_until(&mut Context::from_waker(&wb), || false).is_pending());
    list.wake_all();
    list.wake_all();
    assert_eq!(a.0.load(Ordering::SeqCst), 1);
    assert_eq!(b.0.load(Ordering::SeqCst), 1);
    assert_eq!(Arc::strong_count(&a), 2, "fired wakers are released");
}

#[test]
fn a_condition_seen_on_the_recheck_takes_the_waker_back() {
    let list = WaitList::new();
    let wakes = Arc::new(CountWake(AtomicUsize::new(0)));
    let waker = Waker::from(wakes.clone());
    let mut calls = 0;
    let poll = list.poll_until(&mut Context::from_waker(&waker), || {
        calls += 1;
        calls > 1
    });
    assert!(poll.is_ready());
    assert_eq!(Arc::strong_count(&wakes), 2, "stale waker left in the list");
}

#[test]
fn a_waiter_served_elsewhere_takes_its_waker_off_the_quiet_channel() {
    // The select2 shape: one waker parked on two channels, one delivers.
    let (busy, quiet) = (Channel::<u8>::unbounded(), Channel::<u8>::unbounded());
    let wakes = Arc::new(CountWake(AtomicUsize::new(0)));
    let waker = Waker::from(wakes.clone());
    let mut cx = Context::from_waker(&waker);
    assert!(busy.poll_recv_ready(&mut cx).is_pending());
    assert!(quiet.poll_recv_ready(&mut cx).is_pending());
    busy.try_send(1).unwrap();
    assert_eq!(wakes.0.load(Ordering::SeqCst), 1);
    assert!(busy.poll_recv_ready(&mut cx).is_ready());
    assert_eq!(Arc::strong_count(&wakes), 3, "the quiet channel still holds it");
    quiet.forget_waiter(&waker);
    assert_eq!(Arc::strong_count(&wakes), 2, "stale waker left on the quiet channel");
    quiet.try_send(2).unwrap();
    assert_eq!(wakes.0.load(Ordering::SeqCst), 1, "a forgotten waiter was woken");
}

#[test]
fn dropping_the_list_releases_its_wakers_without_waking() {
    let list = WaitList::new();
    let wakes = Arc::new(CountWake(AtomicUsize::new(0)));
    let waker = Waker::from(wakes.clone());
    assert!(list.poll_until(&mut Context::from_waker(&waker), || false).is_pending());
    drop(list);
    assert_eq!(Arc::strong_count(&wakes), 2);
    assert_eq!(wakes.0.load(Ordering::SeqCst), 0);
}

#[test]
fn a_parked_thread_is_woken_by_the_completer() {
    let shared = Arc::new((AtomicBool::new(false), WaitList::new()));
    let s2 = shared.clone();
    let t = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(10));
        s2.0.store(true, Ordering::Release);
        s2.1.wake_all();
    });
    block_thread_on(|cx| shared.1.poll_until(cx, || shared.0.load(Ordering::Acquire)));
    t.join().unwrap();
}

/// Run `wake` on another thread after a pause long enough for this one
/// to be parked in its wait.
fn later(wake: impl FnOnce() + Send + 'static) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        wake();
    })
}

#[test]
fn event_and_latch_block_until_fired() {
    let e = Arc::new(Event::new());
    let e2 = e.clone();
    let t = later(move || e2.set());
    e.wait(|| block_thread_on(|cx| e.poll_set(cx)));
    t.join().unwrap();

    let l = Arc::new(CountLatch::new(2));
    let l2 = l.clone();
    let t = later(move || {
        l2.count_down();
        l2.count_down();
    });
    l.wait(|| block_thread_on(|cx| l.poll_released(cx)));
    t.join().unwrap();
}

#[test]
fn feb_blocks_readers_on_empty_and_writers_on_full() {
    let cell = Arc::new(FebCell::new());
    let c2 = cell.clone();
    let t = later(move || c2.write_ef(7u64, std::hint::spin_loop));
    assert_eq!(cell.read_fe(|| block_thread_on(|cx| cell.poll_full(cx))), 7);
    t.join().unwrap();

    cell.write_ef(8, std::hint::spin_loop);
    let c2 = cell.clone();
    let t = later(move || assert_eq!(c2.read_fe(std::hint::spin_loop), 8));
    cell.write_ef(9, || block_thread_on(|cx| cell.poll_empty(cx)));
    t.join().unwrap();
    assert_eq!(cell.read_ff(std::hint::spin_loop), 9);
}

#[test]
fn channel_blocks_receivers_senders_and_wakes_on_close() {
    let ch = Arc::new(Channel::bounded(1));
    let c2 = ch.clone();
    let t = later(move || c2.send(1u32, std::hint::spin_loop).unwrap());
    assert_eq!(ch.recv(|| block_thread_on(|cx| ch.poll_recv_ready(cx))), Ok(1));
    t.join().unwrap();

    ch.send(2, std::hint::spin_loop).unwrap();
    let c2 = ch.clone();
    let t = later(move || assert_eq!(c2.recv(std::hint::spin_loop), Ok(2)));
    ch.send(3, || block_thread_on(|cx| ch.poll_send_ready(cx))).unwrap();
    t.join().unwrap();
    assert_eq!(ch.try_recv(), Ok(3));

    let c2 = ch.clone();
    let t = later(move || c2.close());
    assert!(ch.recv(|| block_thread_on(|cx| ch.poll_recv_ready(cx))).is_err());
    t.join().unwrap();
}
