//! Argobots runner: private pool per stream, round-robin dispatch
//! (the configuration the paper always selects), in ULT and Tasklet
//! variants.

use lwt_argobots::{current_stream, Config, Handle, PoolPolicy, Runtime, TaskletHandle};
use lwt_fiber::StackSize;

use crate::kernels::{chunk, SharedVec};
use crate::runners::Experiment;
use crate::stats::{run_reps, time, Stats};

const A: f32 = 0.5;

/// A unit handle of either kind, so patterns can be written once.
enum H {
    Ult(Handle<()>),
    Tasklet(TaskletHandle<()>),
}

impl H {
    fn join(self) {
        match self {
            H::Ult(h) => h.join(),
            H::Tasklet(h) => h.join(),
        }
    }
}

pub(crate) struct AbtRunner {
    rt: Runtime,
    threads: usize,
    /// Tasklet variant ("Argobots Tasklet") vs ULT variant.
    tasklets: bool,
}

impl AbtRunner {
    pub(crate) fn new(threads: usize, tasklets: bool) -> Self {
        let rt = Runtime::init(Config {
            num_streams: threads,
            pool_policy: PoolPolicy::PrivatePerStream,
            stack_size: StackSize::DEFAULT,
        });
        AbtRunner {
            rt,
            threads,
            tasklets,
        }
    }

    /// Create one unit of the configured kind on stream `t`.
    fn unit_to(&self, t: usize, f: impl FnOnce() + Send + 'static) -> H {
        if self.tasklets {
            H::Tasklet(self.rt.tasklet_create_to(t, f))
        } else {
            H::Ult(self.rt.ult_create_to(t, f))
        }
    }

    pub(crate) fn measure(self, experiment: Experiment, reps: usize) -> Stats {
        let stats = match experiment {
            Experiment::Create => self.create(reps),
            Experiment::Join => self.join(reps),
            Experiment::ForLoop { n } => self.for_loop(n, reps),
            Experiment::TaskSingle { n } => self.task_single(n, reps),
            Experiment::TaskParallel { n } => self.task_parallel(n, reps),
            Experiment::NestedFor { n } => self.nested_for(n, reps),
            Experiment::NestedTask { parents, children } => {
                self.nested_task(parents, children, reps)
            }
        };
        self.rt.shutdown();
        stats
    }

    /// Fig. 2: time the round-robin creation of one unit per stream.
    fn create(&self, reps: usize) -> Stats {
        run_reps(reps, || {
            let mut handles = Vec::with_capacity(self.threads);
            let d = time(|| {
                for t in 0..self.threads {
                    handles.push(self.unit_to(t, || ()));
                }
            });
            for h in handles {
                h.join();
            }
            d
        })
    }

    /// Fig. 3: time joining one unit per stream (status-word polling +
    /// structure free — `ABT_thread_free`).
    fn join(&self, reps: usize) -> Stats {
        run_reps(reps, || {
            let handles: Vec<H> = (0..self.threads).map(|t| self.unit_to(t, || ())).collect();
            time(|| {
                for h in handles {
                    h.join();
                }
            })
        })
    }

    fn for_loop(&self, n: usize, reps: usize) -> Stats {
        let mut v = SharedVec::ones(n);
        let s = v.share();
        run_reps(reps, || {
            let d = time(|| {
                let handles: Vec<H> = (0..self.threads)
                    .map(|t| {
                        let (lo, hi) = chunk(n, self.threads, t);
                        self.unit_to(t, move || s.scale_range(lo, hi, A))
                    })
                    .collect();
                for h in handles {
                    h.join();
                }
            });
            debug_assert!(v.as_slice().iter().all(|&x| x == A));
            v.reset();
            d
        })
    }

    fn task_single(&self, n: usize, reps: usize) -> Stats {
        let mut v = SharedVec::ones(n);
        let s = v.share();
        run_reps(reps, || {
            let d = time(|| {
                let handles: Vec<H> = (0..n)
                    .map(|i| self.unit_to(i % self.threads, move || s.scale(i, A)))
                    .collect();
                for h in handles {
                    h.join();
                }
            });
            debug_assert!(v.as_slice().iter().all(|&x| x == A));
            v.reset();
            d
        })
    }

    /// Two-step: T creator ULTs (creators must be ULTs — tasklets have
    /// no stack for the create+join step, §VIII-B4), each creating its
    /// chunk of element units into its own stream's pool.
    fn task_parallel(&self, n: usize, reps: usize) -> Stats {
        let mut v = SharedVec::ones(n);
        let s = v.share();
        let threads = self.threads;
        let tasklets = self.tasklets;
        run_reps(reps, || {
            let d = time(|| {
                let creators: Vec<Handle<Vec<H>>> = (0..threads)
                    .map(|t| {
                        let rt = self.rt.clone();
                        self.rt.ult_create_to(t, move || {
                            let me = current_stream().expect("creator runs on a stream");
                            let (lo, hi) = chunk(n, threads, t);
                            (lo..hi)
                                .map(|i| {
                                    let f = move || s.scale(i, A);
                                    if tasklets {
                                        H::Tasklet(rt.tasklet_create_to(me, f))
                                    } else {
                                        H::Ult(rt.ult_create_to(me, f))
                                    }
                                })
                                .collect()
                        })
                    })
                    .collect();
                for c in creators {
                    for h in c.join() {
                        h.join();
                    }
                }
            });
            debug_assert!(v.as_slice().iter().all(|&x| x == A));
            v.reset();
            d
        })
    }

    /// Nested for: T outer ULTs; each outer iteration spawns T inner
    /// units dividing the inner loop.
    fn nested_for(&self, n: usize, reps: usize) -> Stats {
        let mut v = SharedVec::ones(n * n);
        let s = v.share();
        let threads = self.threads;
        let tasklets = self.tasklets;
        run_reps(reps, || {
            let d = time(|| {
                let outers: Vec<Handle<()>> = (0..threads)
                    .map(|t| {
                        let rt = self.rt.clone();
                        self.rt.ult_create_to(t, move || {
                            let (olo, ohi) = chunk(n, threads, t);
                            for i in olo..ohi {
                                let inner: Vec<H> = (0..threads)
                                    .map(|k| {
                                        let (ilo, ihi) = chunk(n, threads, k);
                                        let f = move || s.scale_range(n * i + ilo, n * i + ihi, A);
                                        if tasklets {
                                            H::Tasklet(rt.tasklet_create_to(k, f))
                                        } else {
                                            H::Ult(rt.ult_create_to(k, f))
                                        }
                                    })
                                    .collect();
                                for h in inner {
                                    h.join();
                                }
                            }
                        })
                    })
                    .collect();
                for h in outers {
                    h.join();
                }
            });
            debug_assert!(v.as_slice().iter().all(|&x| x == A));
            v.reset();
            d
        })
    }

    fn nested_task(&self, parents: usize, children: usize, reps: usize) -> Stats {
        let mut v = SharedVec::ones(parents * children);
        let s = v.share();
        let threads = self.threads;
        let tasklets = self.tasklets;
        run_reps(reps, || {
            let d = time(|| {
                // Parents are units of the series kind (they only
                // *create*, which needs no stack); the master joins
                // parents, then every child.
                let parent_handles: Vec<lwt_argobots::Handle<Vec<H>>> = (0..parents)
                    .map(|p| {
                        let rt = self.rt.clone();
                        self.rt.ult_create_to(p % threads, move || {
                            (0..children)
                                .map(|c| {
                                    let f = move || s.scale(p * children + c, A);
                                    let target = (p + c) % threads;
                                    if tasklets {
                                        H::Tasklet(rt.tasklet_create_to(target, f))
                                    } else {
                                        H::Ult(rt.ult_create_to(target, f))
                                    }
                                })
                                .collect()
                        })
                    })
                    .collect();
                for ph in parent_handles {
                    for h in ph.join() {
                        h.join();
                    }
                }
            });
            debug_assert!(v.as_slice().iter().all(|&x| x == A));
            v.reset();
            d
        })
    }
}
