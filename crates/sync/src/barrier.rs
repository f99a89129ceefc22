//! Sense-reversing centralized barrier.
//!
//! This is the join mechanism whose linear cost the paper measures for
//! `gcc` OpenMP and Converse Threads (Fig. 3): every participant
//! decrements a shared counter, the last one flips the *sense* flag, and
//! everyone else spins on the flip. Reversal of the sense between
//! episodes lets the same barrier be reused without re-initialization.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A reusable centralized barrier for a fixed number of participants.
///
/// Waiting participants call [`SenseBarrier::wait`] with a relax
/// strategy — OS threads pass [`crate::thread_yield_relax`]; ULT
/// runtimes pass their own yield so the worker stays busy.
///
/// ```
/// use std::sync::Arc;
/// use lwt_sync::{SenseBarrier, thread_yield_relax};
///
/// let barrier = Arc::new(SenseBarrier::new(2));
/// let b = barrier.clone();
/// let t = std::thread::spawn(move || {
///     b.wait(thread_yield_relax);
/// });
/// barrier.wait(lwt_sync::thread_yield_relax);
/// t.join().unwrap();
/// ```
pub struct SenseBarrier {
    participants: usize,
    remaining: AtomicUsize,
    sense: AtomicBool,
}

impl SenseBarrier {
    /// Create a barrier for `participants` waiters.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is zero.
    #[must_use]
    pub fn new(participants: usize) -> Self {
        assert!(participants > 0, "barrier needs at least one participant");
        SenseBarrier {
            participants,
            remaining: AtomicUsize::new(participants),
            sense: AtomicBool::new(false),
        }
    }

    /// Number of participants per episode.
    #[must_use]
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// The current sense. Read *before* arriving it names the episode
    /// the caller is about to join: that episode is over once the sense
    /// differs (what a `relax` that blocks waits for).
    #[must_use]
    pub fn sense(&self) -> bool {
        self.sense.load(Ordering::Acquire)
    }

    /// Block (via `relax`) until all participants have arrived.
    ///
    /// Returns `true` for exactly one participant per episode (the last
    /// arriver — the "serial" participant, mirroring
    /// `std::sync::Barrier`'s leader).
    pub fn wait(&self, mut relax: impl FnMut()) -> bool {
        let my_sense = !self.sense.load(Ordering::Relaxed);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last arriver: reset the counter, then flip the sense to
            // release everyone. Release ordering publishes the reset.
            self.remaining.store(self.participants, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
            true
        } else {
            while self.sense.load(Ordering::Acquire) != my_sense {
                relax();
            }
            false
        }
    }
}

impl std::fmt::Debug for SenseBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SenseBarrier")
            .field("participants", &self.participants)
            .field("remaining", &self.remaining.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread_yield_relax;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let _ = SenseBarrier::new(0);
    }

    #[test]
    fn single_participant_never_blocks() {
        let b = SenseBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait(thread_yield_relax));
        }
    }

    #[test]
    fn exactly_one_leader_per_episode() {
        const THREADS: usize = 4;
        const EPISODES: usize = 25;
        let barrier = Arc::new(SenseBarrier::new(THREADS));
        let leaders = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = barrier.clone();
                let leaders = leaders.clone();
                std::thread::spawn(move || {
                    for _ in 0..EPISODES {
                        if barrier.wait(thread_yield_relax) {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::Relaxed), EPISODES);
    }

    #[test]
    fn no_participant_escapes_early() {
        const THREADS: usize = 4;
        const EPISODES: usize = 50;
        let barrier = Arc::new(SenseBarrier::new(THREADS));
        let phase = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = barrier.clone();
                let phase = phase.clone();
                std::thread::spawn(move || {
                    for episode in 0..EPISODES {
                        phase.fetch_add(1, Ordering::SeqCst);
                        barrier.wait(thread_yield_relax);
                        // After the barrier, *everyone* must have
                        // incremented for this episode.
                        let seen = phase.load(Ordering::SeqCst);
                        assert!(
                            seen >= (episode + 1) * THREADS,
                            "escaped barrier early: saw {seen} at episode {episode}"
                        );
                        barrier.wait(thread_yield_relax);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(phase.load(Ordering::SeqCst), THREADS * EPISODES);
    }

    #[test]
    fn debug_shows_state() {
        let b = SenseBarrier::new(3);
        let s = format!("{b:?}");
        assert!(s.contains("participants: 3"));
    }
}
