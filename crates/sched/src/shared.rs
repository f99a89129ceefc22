//! The single shared work-unit queue (Go / `gcc` OpenMP tasks).

use std::collections::VecDeque;

use lwt_sync::SpinLock;

/// A mutex-protected FIFO shared by every worker.
///
/// This is deliberately the *naive* design: one lock, one queue. The
/// paper attributes Go's flat-but-contended curves and `gcc`'s task
/// behaviour to exactly this structure; the contention is the point,
/// not an implementation accident.
///
/// ```
/// use lwt_sched::SharedQueue;
/// let q = SharedQueue::new();
/// q.push(1);
/// q.push(2);
/// assert_eq!(q.pop(), Some(1)); // FIFO
/// ```
pub struct SharedQueue<T> {
    inner: SpinLock<VecDeque<T>>,
}

impl<T> SharedQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        SharedQueue {
            inner: SpinLock::new(VecDeque::new()),
        }
    }

    /// Enqueue at the back.
    pub fn push(&self, value: T) {
        self.inner.lock().push_back(value);
    }

    /// Dequeue from the front.
    pub fn pop(&self) -> Option<T> {
        self.inner.lock().pop_front()
    }

    /// Current length (racy; diagnostics only).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue is empty (racy; diagnostics only).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

impl<T> Default for SharedQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for SharedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedQueue").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = SharedQueue::new();
        for i in 0..10 {
            q.push(i);
        }
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        const PRODUCERS: usize = 4;
        const PER: usize = 5_000;
        let q = Arc::new(SharedQueue::new());
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..PER {
                        q.push(p * PER + i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut idle = 0;
                    while idle < 10_000 {
                        match q.pop() {
                            Some(v) => {
                                got.push(v);
                                idle = 0;
                            }
                            None => {
                                idle += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.extend(std::iter::from_fn(|| q.pop()));
        all.sort_unstable();
        assert_eq!(all, (0..PRODUCERS * PER).collect::<Vec<_>>());
    }
}
