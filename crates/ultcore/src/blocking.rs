//! `spawn_blocking` backing store: a lazily-grown OS-thread pool for
//! work that would wedge a scheduler worker (file I/O, syscalls,
//! long-running FFI).
//!
//! The paper's runtimes all share the failure mode this module exists
//! to avoid: a ULT that blocks in the kernel takes its whole execution
//! stream with it, because M:N scheduling only multiplexes *user-level*
//! suspension. The pool is process-global (blocking capacity is a
//! machine resource, not a per-runtime one): submitters push jobs into
//! an [`Injector`] inbox and wake one parked thread ([`Parker`], the
//! same one-token primitive `lwt_sched::ParkGroup` is built from), or
//! grow the pool while under its ceiling ([`set_max_threads`]). Idle
//! threads park indefinitely — they cost a stack, not a core.
//!
//! The handoff is lost-wake-safe by a re-check, mirroring ParkGroup's
//! contract: a worker going idle registers its parker *then* re-checks
//! the inbox, so a submitter that observed an empty idle list has its
//! job seen by that re-check, and a submitter that popped the parker
//! deposits a token that makes the worker's park return immediately.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use lwt_metrics::registry::COUNTERS;
use lwt_sched::Injector;
use lwt_sync::Parker;

/// Ceiling the pool grows to when `LWT_BLOCKING_THREADS` is unset and
/// no builder overrode it: enough to cover bursts of blocking calls
/// without letting a pathological workload fork an OS thread per job.
pub const DEFAULT_MAX_BLOCKING_THREADS: usize = 8;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool could not accept a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingPoolError {
    /// The pool is disabled: its thread ceiling is zero
    /// (`LWT_BLOCKING_THREADS=0` or `.blocking_threads(0)`).
    Disabled,
    /// The pool had no live thread and the OS refused to start one;
    /// the job was not accepted.
    SpawnFailed,
}

impl std::fmt::Display for BlockingPoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockingPoolError::Disabled => {
                write!(f, "blocking pool disabled (max threads is 0)")
            }
            BlockingPoolError::SpawnFailed => {
                write!(f, "blocking pool could not start an OS thread")
            }
        }
    }
}

impl std::error::Error for BlockingPoolError {}

struct Pool {
    inbox: Injector<Job>,
    /// The inbox is MPSC; this lock elects the single consumer among
    /// however many pool threads are awake at once. Contention is
    /// bounded by the pool size and the jobs are blocking-length
    /// anyway, so a lock-free MPMC structure would buy nothing here.
    pop_lock: Mutex<()>,
    /// Parkers of threads with nothing to do, LIFO so the hottest
    /// thread (most recently parked) is woken first.
    idle: Mutex<Vec<Arc<Parker>>>,
    /// Live pool threads (monotonic under growth; threads never
    /// retire — an idle parked thread is cheap).
    live: AtomicUsize,
    /// Growth ceiling; see [`set_max_threads`].
    max: AtomicUsize,
}

fn env_max() -> usize {
    match std::env::var("LWT_BLOCKING_THREADS").ok().as_deref().map(str::trim) {
        None | Some("") => DEFAULT_MAX_BLOCKING_THREADS,
        Some(s) => s.parse().unwrap_or(DEFAULT_MAX_BLOCKING_THREADS),
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        inbox: Injector::new(),
        pop_lock: Mutex::new(()),
        idle: Mutex::new(Vec::new()),
        live: AtomicUsize::new(0),
        max: AtomicUsize::new(env_max()),
    })
}

/// Override the pool's growth ceiling (the `.blocking_threads(max)`
/// builder knob lands here). Process-global, like the stack cache and
/// wait policy: the pool outlives any single runtime instance.
/// Shrinking below the live count stops growth but retires nothing.
pub fn set_max_threads(max: usize) {
    pool().max.store(max, Ordering::Relaxed);
}

fn worker_loop(me: &Arc<Parker>) {
    let p = pool();
    loop {
        // Drain: elect ourselves consumer for one pop at a time so
        // the MPSC inbox never sees two concurrent consumers.
        loop {
            let job = {
                let _consumer = p.pop_lock.lock().unwrap();
                p.inbox.pop()
            };
            match job {
                Some(job) => {
                    // A panicking job must not kill the pool thread;
                    // the submitter's wrapper (EventSlot) already
                    // captured the payload for the joiner.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                }
                None => break,
            }
        }
        // Going idle: register, then re-check. A submitter that missed
        // us in the idle list has pushed before our re-check; one that
        // popped us will deposit an unpark token, making the park
        // below return immediately.
        p.idle.lock().unwrap().push(me.clone());
        if !p.inbox.is_empty() {
            let mut idle = p.idle.lock().unwrap();
            if let Some(pos) = idle.iter().position(|q| Arc::ptr_eq(q, me)) {
                // Not claimed yet: withdraw and go drain the inbox.
                idle.remove(pos);
                continue;
            }
            // Claimed by a submitter: its token is (or will be) in the
            // parker; fall through.
        }
        me.park();
    }
}

/// Hand `job` to the pool: run it on an OS thread that is allowed to
/// block. Wakes an idle pool thread, or grows the pool if all are busy
/// and the ceiling permits.
///
/// # Errors
///
/// [`BlockingPoolError::Disabled`] when the ceiling is zero (the job
/// is returned untouched, not queued);
/// [`BlockingPoolError::SpawnFailed`] when no pool thread exists and
/// the OS would not start one.
pub fn submit(job: impl FnOnce() + Send + 'static) -> Result<(), BlockingPoolError> {
    let p = pool();
    let max = p.max.load(Ordering::Relaxed);
    if max == 0 {
        return Err(BlockingPoolError::Disabled);
    }
    COUNTERS.blocking_spawns.inc();
    p.inbox.push(Box::new(job));
    // Prefer waking a parked thread over spawning a new one.
    let idle = p.idle.lock().unwrap().pop();
    if let Some(parker) = idle {
        parker.unpark();
        return Ok(());
    }
    // All live threads are busy (or mid-re-check, which is just as
    // good): grow, if allowed.
    loop {
        let live = p.live.load(Ordering::Relaxed);
        if live >= max {
            // Saturated: a busy thread will reach the job when it
            // finishes its current one.
            return Ok(());
        }
        if p.live
            .compare_exchange(live, live + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        let parker = Arc::new(Parker::new());
        let spawn = std::thread::Builder::new()
            .name(format!("lwt-blocking-{live}"))
            .spawn({
                let parker = parker.clone();
                move || worker_loop(&parker)
            });
        return match spawn {
            Ok(_) => Ok(()),
            Err(_) => {
                p.live.fetch_sub(1, Ordering::AcqRel);
                if p.live.load(Ordering::Acquire) == 0 {
                    // Nobody will ever pop the job; report the stall.
                    // (The job stays queued and runs if a later submit
                    // manages to start a thread.)
                    Err(BlockingPoolError::SpawnFailed)
                } else {
                    Ok(())
                }
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_pool_reuses_parked_threads() {
        let hits = Arc::new(AtomicUsize::new(0));
        for round in 0..3 {
            let done = Arc::new(lwt_sync::Event::new());
            let n = 16;
            let latch = Arc::new(lwt_sync::CountLatch::new(n));
            for _ in 0..n {
                let (h, l, d) = (hits.clone(), latch.clone(), done.clone());
                submit(move || {
                    h.fetch_add(1, Ordering::Relaxed);
                    if l.count_down() {
                        d.set();
                    }
                })
                .unwrap();
            }
            assert!(
                done.wait_timeout(Duration::from_secs(10), std::thread::yield_now),
                "round {round} jobs did not finish"
            );
        }
        assert_eq!(hits.load(Ordering::Relaxed), 48);
        // The pool never grew past its ceiling.
        assert!(pool().live.load(Ordering::Relaxed) <= pool().max.load(Ordering::Relaxed));
    }

    #[test]
    fn blocking_jobs_overlap_beyond_one_thread() {
        // Two jobs that each wait for the other: only completable if
        // the pool runs them on distinct OS threads.
        let a = Arc::new(lwt_sync::Event::new());
        let b = Arc::new(lwt_sync::Event::new());
        let (a1, b1) = (a.clone(), b.clone());
        submit(move || {
            a1.set();
            b1.wait(std::thread::yield_now);
        })
        .unwrap();
        let (a2, b2) = (a.clone(), b.clone());
        submit(move || {
            a2.wait(std::thread::yield_now);
            b2.set();
        })
        .unwrap();
        assert!(a.wait_timeout(Duration::from_secs(10), std::thread::yield_now));
        assert!(b.wait_timeout(Duration::from_secs(10), std::thread::yield_now));
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        submit(|| panic!("blocking boom")).unwrap();
        let done = Arc::new(lwt_sync::Event::new());
        let d = done.clone();
        submit(move || d.set()).unwrap();
        assert!(done.wait_timeout(Duration::from_secs(10), std::thread::yield_now));
    }
}
