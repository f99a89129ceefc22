//! A Go-style MPMC channel.
//!
//! The paper singles out Go's synchronization as "an out-of-order
//! communication channel that … can obtain better results than the
//! sequential mechanisms": instead of joining work units in creation
//! order (as Argobots/Qthreads joins do), the master receives one
//! completion message per work unit *in whatever order they finish*.
//! [`Channel`] reproduces that: a bounded or unbounded MPMC queue with
//! non-blocking `try_*` operations plus relax-parameterized blocking
//! ones; a goroutine-model runtime's relax blocks on the channel's
//! [`WaitList`] (`poll_recv_ready`/`poll_send_ready`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::task::{Context, Poll, Waker};

use crate::spin::SpinLock;
use crate::waitlist::WaitList;

/// Error returned by [`Channel::send`] when the channel is closed.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Channel::try_send`].
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is bounded and currently full.
    Full(T),
    /// The channel is closed.
    Closed(T),
}

/// Error returned by [`Channel::recv`] when the channel is closed and
/// drained.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Channel::try_recv`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message available right now.
    Empty,
    /// The channel is closed and fully drained.
    Closed,
}

/// A multi-producer multi-consumer channel.
///
/// ```
/// use std::sync::Arc;
/// use lwt_sync::{Channel, thread_yield_relax};
///
/// let ch = Arc::new(Channel::unbounded());
/// let tx = ch.clone();
/// let t = std::thread::spawn(move || {
///     for i in 0..10u32 {
///         tx.send(i, lwt_sync::thread_yield_relax).unwrap();
///     }
/// });
/// let mut sum = 0;
/// for _ in 0..10 {
///     sum += ch.recv(thread_yield_relax).unwrap();
/// }
/// assert_eq!(sum, 45);
/// t.join().unwrap();
/// ```
pub struct Channel<T> {
    queue: SpinLock<VecDeque<T>>,
    capacity: Option<usize>,
    closed: AtomicBool,
    /// Fired by every send and close, and by receives that make room.
    waiters: WaitList,
}

impl<T> Channel<T> {
    /// A channel with unlimited buffering.
    #[must_use]
    pub fn unbounded() -> Self {
        Channel {
            queue: SpinLock::new(VecDeque::new()),
            capacity: None,
            closed: AtomicBool::new(false),
            waiters: WaitList::new(),
        }
    }

    /// A channel buffering at most `capacity` messages (like
    /// `make(chan T, capacity)`; capacity 0 is rounded up to 1 — true
    /// rendezvous semantics are not needed by the Go-model runtime).
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        Channel {
            queue: SpinLock::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: Some(capacity.max(1)),
            closed: AtomicBool::new(false),
            waiters: WaitList::new(),
        }
    }

    /// Close the channel: sends fail, receives drain then fail.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.waiters.wake_all();
    }

    /// `Ready` when a receive would not report `Empty`; else `cx`'s
    /// waker waits for the next send, receive or close.
    pub fn poll_recv_ready(&self, cx: &mut Context<'_>) -> Poll<()> {
        self.waiters
            .poll_until(cx, || !self.is_empty() || self.is_closed())
    }

    /// Take `waker` back off the channel (a waiter on several
    /// channels that another one served).
    pub fn forget_waiter(&self, waker: &Waker) {
        self.waiters.remove(waker);
    }

    /// `Ready` when a send would not report `Full`.
    pub fn poll_send_ready(&self, cx: &mut Context<'_>) -> Poll<()> {
        self.waiters.poll_until(cx, || {
            self.is_closed() || self.capacity.is_none_or(|cap| self.len() < cap)
        })
    }

    /// Whether [`Channel::close`] has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Number of buffered messages (racy; diagnostics only).
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// Whether no messages are buffered (racy; diagnostics only).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }

    /// Enqueue without waiting.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Closed`] after [`Channel::close`];
    /// [`TrySendError::Full`] when a bounded channel is at capacity.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        if self.is_closed() {
            return Err(TrySendError::Closed(value));
        }
        let mut q = self.queue.lock();
        if let Some(cap) = self.capacity {
            if q.len() >= cap {
                return Err(TrySendError::Full(value));
            }
        }
        q.push_back(value);
        drop(q);
        self.waiters.wake_all();
        Ok(())
    }

    /// Enqueue, relaxing while a bounded channel is full.
    ///
    /// # Errors
    ///
    /// [`SendError`] if the channel is (or becomes) closed.
    pub fn send(&self, value: T, mut relax: impl FnMut()) -> Result<(), SendError<T>> {
        let mut pending = value;
        loop {
            match self.try_send(pending) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Closed(v)) => return Err(SendError(v)),
                Err(TrySendError::Full(v)) => {
                    pending = v;
                    relax();
                }
            }
        }
    }

    /// Dequeue without waiting.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is buffered;
    /// [`TryRecvError::Closed`] when closed *and* drained.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let popped = self.queue.lock().pop_front();
        match popped {
            Some(v) => {
                // Only a bounded channel has senders waiting for room.
                if self.capacity.is_some() {
                    self.waiters.wake_all();
                }
                Ok(v)
            }
            None if self.is_closed() => Err(TryRecvError::Closed),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Dequeue, relaxing while empty.
    ///
    /// # Errors
    ///
    /// [`RecvError`] once the channel is closed and drained.
    pub fn recv(&self, mut relax: impl FnMut()) -> Result<T, RecvError> {
        loop {
            match self.try_recv() {
                Ok(v) => return Ok(v),
                Err(TryRecvError::Closed) => return Err(RecvError),
                Err(TryRecvError::Empty) => relax(),
            }
        }
    }
}

impl<T> std::fmt::Debug for Channel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Channel")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread_yield_relax;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let ch = Channel::unbounded();
        for i in 0..5 {
            ch.try_send(i).unwrap();
        }
        let got: Vec<_> = (0..5).map(|_| ch.try_recv().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(ch.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn bounded_reports_full() {
        let ch = Channel::bounded(2);
        ch.try_send(1).unwrap();
        ch.try_send(2).unwrap();
        assert_eq!(ch.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(ch.recv(thread_yield_relax), Ok(1));
        ch.try_send(3).unwrap();
        assert_eq!(ch.len(), 2);
    }

    #[test]
    fn zero_capacity_rounds_to_one() {
        let ch = Channel::bounded(0);
        ch.try_send(9).unwrap();
        assert_eq!(ch.try_send(10), Err(TrySendError::Full(10)));
    }

    #[test]
    fn close_semantics() {
        let ch = Channel::unbounded();
        ch.try_send(1).unwrap();
        ch.close();
        assert_eq!(ch.try_send(2), Err(TrySendError::Closed(2)));
        // Drains buffered messages first …
        assert_eq!(ch.try_recv(), Ok(1));
        // … then reports closed.
        assert_eq!(ch.try_recv(), Err(TryRecvError::Closed));
        assert_eq!(ch.recv(thread_yield_relax), Err(RecvError));
        assert!(ch.is_empty());
    }

    #[test]
    fn mpmc_delivers_every_message_once() {
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: usize = 2_000;
        let ch = Arc::new(Channel::unbounded());
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ch = ch.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        ch.send(p * PER_PRODUCER + i, thread_yield_relax).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let ch = ch.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = ch.recv(thread_yield_relax) {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        ch.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_order_completion_join() {
        // The Go-model join: N workers send their id when done; the
        // master receives N messages in completion order.
        const N: usize = 16;
        let ch = Arc::new(Channel::bounded(N));
        let workers: Vec<_> = (0..N)
            .map(|id| {
                let ch = ch.clone();
                std::thread::spawn(move || ch.send(id, thread_yield_relax).unwrap())
            })
            .collect();
        let mut seen = [false; N];
        for _ in 0..N {
            let id = ch.recv(thread_yield_relax).unwrap();
            assert!(!std::mem::replace(&mut seen[id], true));
        }
        for w in workers {
            w.join().unwrap();
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn debug_formats() {
        let ch: Channel<u8> = Channel::bounded(4);
        let s = format!("{ch:?}");
        assert!(s.contains("capacity: Some(4)"));
    }
}
