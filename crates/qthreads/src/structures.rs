//! Qthreads' distributed data structures.
//!
//! "A large number of distributed structures such as queues,
//! dictionaries, or pools are offered along with for loop and reduction
//! functionality" (paper §III-D). This module implements the three the
//! C library is best known for:
//!
//! * [`Sinc`] — `qt_sinc_t`: a count-down reduction sink for
//!   dynamically-created task trees.
//! * [`Dictionary`] — `qt_dictionary`: a concurrent hash map whose
//!   lookups can *wait for a key to appear*, FEB-style.
//! * [`QtQueue`] — `qt_queue`: a ULT-aware MPMC queue.
//!
//! All waiting is ULT-aware: inside a work unit the waiter is
//! suspended on the structure's [`WaitList`], so its worker keeps
//! executing other units; a plain OS thread sleeps in `thread::park`.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicUsize, Ordering};

use lwt_chaos::BlockKind;
use lwt_sync::{SpinLock, WaitList};
use lwt_ultcore::block_on;

/// `qt_sinc_t`: a reduction sink over a dynamically growing set of
/// contributions.
///
/// Create with an identity and a reducer; [`Sinc::expect`] registers
/// upcoming contributions (callable from anywhere, including inside
/// contributing tasks — the dynamic-task-tree case `qt_sinc` exists
/// for); [`Sinc::submit`] folds one value in; [`Sinc::wait`] blocks
/// until the ledger balances and yields the reduced value.
pub struct Sinc<T> {
    remaining: AtomicUsize,
    /// Blocked [`Sinc::wait`]ers; fired when the ledger balances.
    waiters: WaitList,
    acc: SpinLock<T>,
    reduce: Box<dyn Fn(&mut T, T) + Send + Sync>,
}

impl<T: Send> Sinc<T> {
    /// A sink with the given identity and reducer.
    #[must_use]
    pub fn new(identity: T, reduce: impl Fn(&mut T, T) + Send + Sync + 'static) -> Self {
        Sinc {
            remaining: AtomicUsize::new(0),
            waiters: WaitList::new(),
            acc: SpinLock::new(identity),
            reduce: Box::new(reduce),
        }
    }

    /// Register `n` future contributions (`qt_sinc_expect`).
    pub fn expect(&self, n: usize) {
        self.remaining.fetch_add(n, Ordering::AcqRel);
    }

    /// Fold one contribution in (`qt_sinc_submit`).
    ///
    /// # Panics
    ///
    /// Panics (debug) if more values are submitted than expected.
    pub fn submit(&self, value: T) {
        (self.reduce)(&mut self.acc.lock(), value);
        let prev = self.remaining.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "Sinc::submit without a matching expect");
        if prev == 1 {
            self.waiters.wake_all();
        }
    }

    /// Wait (suspended, when inside a ULT) until all expected
    /// contributions arrived, then read the reduction with `f`
    /// (`qt_sinc_wait`).
    pub fn wait<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.waiters.wait_until(
            BlockKind::Event,
            || self.remaining.load(Ordering::Acquire) == 0,
            |poll| block_on(poll),
        );
        f(&self.acc.lock())
    }

    /// Outstanding contributions (racy; diagnostics only).
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Relaxed)
    }
}

impl<T> std::fmt::Debug for Sinc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("qt::Sinc")
            .field("remaining", &self.remaining.load(Ordering::Relaxed))
            .finish()
    }
}

/// `qt_dictionary`: a bucketized concurrent hash map with FEB-flavored
/// blocking lookup.
///
/// `get_wait` suspends the caller until some other work unit `put`s
/// the key — the dictionary equivalent of `readFF`, and the idiom
/// Qthreads programs use for dataflow tables.
pub struct Dictionary<K, V, S = RandomState> {
    buckets: Box<[SpinLock<HashMap<K, V>>]>,
    hasher: S,
    /// Blocked [`Dictionary::get_wait`]ers; fired by every insertion
    /// (one list for the table: a waiter whose key it was not goes
    /// back to sleep).
    arrivals: WaitList,
}

impl<K: Hash + Eq + Clone, V: Clone> Dictionary<K, V> {
    /// A dictionary with the default hasher and bucket count.
    #[must_use]
    pub fn new() -> Self {
        Self::with_buckets(64)
    }

    /// A dictionary with `buckets` buckets (rounded to a power of two).
    #[must_use]
    pub fn with_buckets(buckets: usize) -> Self {
        let n = buckets.max(1).next_power_of_two();
        Dictionary {
            buckets: (0..n).map(|_| SpinLock::new(HashMap::new())).collect(),
            hasher: RandomState::new(),
            arrivals: WaitList::new(),
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone, S: BuildHasher> Dictionary<K, V, S> {
    fn bucket(&self, key: &K) -> &SpinLock<HashMap<K, V>> {
        let h = self.hasher.hash_one(key) as usize;
        &self.buckets[h & (self.buckets.len() - 1)]
    }

    /// Insert or replace; returns the previous value
    /// (`qt_dictionary_put`).
    pub fn put(&self, key: K, value: V) -> Option<V> {
        let previous = self.bucket(&key).lock().insert(key, value);
        self.arrivals.wake_all();
        previous
    }

    /// Insert only if absent, returning the winning value
    /// (`qt_dictionary_put_if_absent`).
    pub fn put_if_absent(&self, key: K, value: V) -> V {
        let winner = {
            let mut b = self.bucket(&key).lock();
            b.entry(key).or_insert(value).clone()
        };
        self.arrivals.wake_all();
        winner
    }

    /// Non-blocking lookup (`qt_dictionary_get`).
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        self.bucket(key).lock().get(key).cloned()
    }

    /// Blocking lookup: wait (suspended, when inside a ULT) until the
    /// key exists.
    pub fn get_wait(&self, key: &K) -> V {
        let mut found = None;
        self.arrivals.wait_until(
            BlockKind::Event,
            || {
                found = self.get(key);
                found.is_some()
            },
            |poll| block_on(poll),
        );
        found.expect("get_wait returned without the key")
    }

    /// Remove a key (`qt_dictionary_delete`).
    pub fn remove(&self, key: &K) -> Option<V> {
        self.bucket(key).lock().remove(key)
    }

    /// Total number of entries (takes every bucket lock; diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.lock().len()).sum()
    }

    /// Whether the dictionary is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for Dictionary<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S> std::fmt::Debug for Dictionary<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("qt::Dictionary")
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

/// `qt_queue`: a ULT-aware MPMC FIFO.
pub struct QtQueue<T> {
    inner: SpinLock<std::collections::VecDeque<T>>,
    /// Blocked [`QtQueue::dequeue`]rs; fired by every enqueue.
    arrivals: WaitList,
}

impl<T> QtQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        QtQueue {
            inner: SpinLock::new(std::collections::VecDeque::new()),
            arrivals: WaitList::new(),
        }
    }

    /// Enqueue at the back (`qt_queue_enqueue`).
    pub fn enqueue(&self, value: T) {
        self.inner.lock().push_back(value);
        self.arrivals.wake_all();
    }

    /// Non-blocking dequeue (`qt_queue_dequeue`).
    pub fn try_dequeue(&self) -> Option<T> {
        self.inner.lock().pop_front()
    }

    /// Blocking dequeue: waits (suspended, when inside a ULT) for an
    /// element.
    pub fn dequeue(&self) -> T {
        let mut taken = None;
        self.arrivals.wait_until(
            BlockKind::Event,
            || {
                taken = self.try_dequeue();
                taken.is_some()
            },
            |poll| block_on(poll),
        );
        taken.expect("dequeue returned without an element")
    }

    /// Number of queued elements (racy; diagnostics only).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue appears empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

impl<T> Default for QtQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for QtQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("qt::Queue").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, Runtime};
    use lwt_fiber::StackSize;
    use std::sync::Arc;

    fn rt(sheps: usize) -> Runtime {
        Runtime::init(Config {
            num_shepherds: sheps,
            workers_per_shepherd: 1,
            stack_size: StackSize(32 * 1024),
        })
    }

    #[test]
    fn sinc_reduces_dynamic_tree() {
        let rt = rt(2);
        let sinc = Arc::new(Sinc::new(0u64, |acc, v| *acc += v));
        sinc.expect(4);
        let handles: Vec<_> = (0..4u64)
            .map(|p| {
                let (sinc, rt2) = (sinc.clone(), rt.clone());
                rt.fork_rr(move || {
                    // Each parent dynamically expects + spawns children.
                    sinc.expect(3);
                    for c in 0..3u64 {
                        let s = sinc.clone();
                        // Children submit their own contributions.
                        let _ = rt2.fork(move || s.submit(100 * c));
                    }
                    sinc.submit(p);
                })
            })
            .collect();
        let total = sinc.wait(|acc| *acc);
        for h in handles {
            h.join();
        }
        // 4 parents contribute 0+1+2+3 = 6; each spawns children worth
        // 0+100+200 = 300 → 4*300 + 6.
        assert_eq!(total, 1206);
        assert_eq!(sinc.remaining(), 0);
        rt.shutdown();
    }

    #[test]
    fn dictionary_basics() {
        let d: Dictionary<String, u32> = Dictionary::with_buckets(4);
        assert!(d.is_empty());
        assert_eq!(d.put("a".into(), 1), None);
        assert_eq!(d.put("a".into(), 2), Some(1));
        assert_eq!(d.get(&"a".into()), Some(2));
        assert_eq!(d.put_if_absent("a".into(), 9), 2);
        assert_eq!(d.put_if_absent("b".into(), 9), 9);
        assert_eq!(d.len(), 2);
        assert_eq!(d.remove(&"a".into()), Some(2));
        assert_eq!(d.get(&"a".into()), None);
    }

    #[test]
    fn dictionary_dataflow_get_wait() {
        let rt = rt(2);
        let d: Arc<Dictionary<u32, u32>> = Arc::new(Dictionary::new());
        // Consumers wait for keys produced by another work unit.
        let consumers: Vec<_> = (0..4)
            .map(|k| {
                let d = d.clone();
                rt.fork_rr(move || d.get_wait(&k))
            })
            .collect();
        let d2 = d.clone();
        rt.fork_rr(move || {
            for k in 0..4 {
                d2.put(k, k * 11);
            }
        })
        .join();
        for (k, c) in consumers.into_iter().enumerate() {
            assert_eq!(c.join(), k as u32 * 11);
        }
        rt.shutdown();
    }

    #[test]
    fn queue_mpmc_through_work_units() {
        let rt = rt(2);
        let q: Arc<QtQueue<usize>> = Arc::new(QtQueue::new());
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let q = q.clone();
                rt.fork_rr(move || {
                    for i in 0..50 {
                        q.enqueue(p * 50 + i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                rt.fork_rr(move || (0..50).map(|_| q.dequeue()).collect::<Vec<_>>())
            })
            .collect();
        for p in producers {
            p.join();
        }
        let mut all: Vec<usize> = consumers.into_iter().flat_map(|c| c.join()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..150).collect::<Vec<_>>());
        assert!(q.is_empty());
        rt.shutdown();
    }

    #[test]
    fn queue_debug_and_len() {
        let q = QtQueue::new();
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!(q.len(), 2);
        assert!(format!("{q:?}").contains("len: 2"));
        assert_eq!(q.try_dequeue(), Some(1));
    }
}
