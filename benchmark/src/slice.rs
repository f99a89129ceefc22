//! One slice, run in a re-exec'd child: a fresh runtime of one backend,
//! one workload, one warm-up and one measured window. The child talks
//! to its parent over stdout in three lines — `READY` when set-up is
//! done, `RESULT k=v ...` before any teardown starts, and `DONE ...`
//! after `Glt::finalize` — so a teardown that hangs costs the slice
//! nothing but a kill.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use lwt_core::{BackendKind, Glt};
use lwt_metrics::WorkerState;
use lwt_openmp::OpenMp;

use crate::spans::{self, now, Kind, Span};
use crate::sys;
use crate::workloads::{self, Plan, Raw};

/// Pseudo-backend of the reference slice: the same task region on the
/// OpenMP-like runtime in gcc mode.
pub const OPENMP: &str = "openmp";

/// `Glt::finalize` gives up after this long; the parent allows twice
/// that (Converse waits for quiescence and for its processors) plus a
/// margin before it kills the child.
pub const DRAIN: Duration = Duration::from_secs(2);

/// Short names used in metric names and on the command line, in
/// `BackendKind::ALL` order.
pub const BACKENDS: [&str; 5] = ["argobots", "qthreads", "massive", "converse", "go"];

pub struct SliceArgs {
    pub workload: String,
    pub backend: String,
    pub plan: Plan,
    /// Which of the CPUs the run may use this slice pins itself to.
    pub cpu: usize,
    /// Where a traced slice writes its span fragment.
    pub part: Option<PathBuf>,
}

fn say(line: &str) {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    // A closed pipe means the parent is gone; there is nobody to tell.
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

pub fn main(args: &SliceArgs) -> ! {
    // One CPU for the whole slice, workers and load generators alike:
    // see "Run shape" in README.md.
    if sys::pin_to_nth_cpu(args.cpu).is_none() {
        eprintln!("benchmark: cannot pin the slice to a CPU; running unpinned");
    }
    if args.plan.traced {
        spans::enable();
        lwt_metrics::set_accounting(true);
    }
    if args.backend == OPENMP {
        let b0 = now();
        let rt = OpenMp::init(lwt_openmp::Config {
            num_threads: args.plan.workers,
            flavor: lwt_openmp::Flavor::Gcc,
            wait_policy: lwt_openmp::WaitPolicy::Passive,
        });
        let build_ns = now() - b0;
        let raw = workloads::run_openmp(&args.workload, &rt, &args.plan, || say("READY"));
        say(&result_line(&raw, build_ns, &[]));
        let f0 = now();
        rt.shutdown();
        say(&format!("DONE finalize_ns={} teardown_err=0", now() - f0));
        std::process::exit(0);
    }
    let kind = BACKENDS
        .iter()
        .position(|b| *b == args.backend)
        .map(|i| BackendKind::ALL[i])
        .unwrap_or_else(|| panic!("unknown backend {}", args.backend));

    let b0 = now();
    let glt = Glt::builder(kind)
        .workers(args.plan.workers)
        .drain_timeout(DRAIN)
        .build();
    let build_ns = now() - b0;
    let (raw, teardown) = workloads::run(&args.workload, &glt, &args.plan, || say("READY"));

    let spans = spans::drain();
    let layers = if args.plan.traced {
        let mut layers = counter_layers(&raw);
        layers.extend(span_layers(&spans));
        layers
    } else {
        Vec::new()
    };
    say(&result_line(&raw, build_ns, &layers));
    if let Some(part) = &args.part {
        if let Err(e) = std::fs::write(part, span_fragment(&args.backend, &spans)) {
            eprintln!("benchmark: cannot write {}: {e}", part.display());
        }
    }

    let f0 = now();
    teardown();
    let drained = glt.finalize();
    if let Err(e) = &drained {
        eprintln!("benchmark: {} finalize: {e}", args.backend);
    }
    say(&format!(
        "DONE finalize_ns={} teardown_err={}",
        now() - f0,
        u8::from(drained.is_err())
    ));
    std::process::exit(0);
}

/// The slice in one line. Latency is reported as this slice's own
/// median and tail percentile; the parent combines slices, not samples,
/// so one disturbed slice cannot leak into the others' percentiles.
pub fn result_line(raw: &Raw, build_ns: u64, layers: &[(&'static str, f64)]) -> String {
    let mut lat = raw.lat_ns.clone();
    lat.sort_unstable();
    let (tail_pct, tail_ns) = sys::tail(&lat);
    let mut line = format!(
        "RESULT attempted={} ops={} elapsed_ns={} cpu_ns={} loadgen_cpu_ns={} rss_kb={} \
         build_ns={} p50_ns={} tail_ns={tail_ns} tail_pct={tail_pct} steal_frac={} \
         serial_unit_ns={} inputs={:016x}",
        raw.attempted,
        lat.len(),
        raw.metered.wall_ns,
        raw.metered.cpu_ns,
        raw.loadgen_cpu_ns,
        sys::peak_rss_kb(),
        build_ns,
        sys::percentile(&lat, 50.0),
        raw.metered.steal_frac,
        raw.serial_unit_ns,
        raw.inputs,
    );
    for (name, value) in layers {
        let _ = write!(line, " m:{name}={value}");
    }
    line
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer numbers that come from the runtimes' own counters and the
/// five-state worker accounting, over the measured window.
fn counter_layers(raw: &Raw) -> Vec<(&'static str, f64)> {
    let c = &raw.metered.counters;
    let ops = raw.lat_ns.len() as u64;
    let util = &raw.metered.util;
    let busy: Vec<f64> = util
        .workers
        .iter()
        .map(|w| w.pct(WorkerState::Busy) / 100.0)
        .collect();
    let skew = busy.iter().copied().fold(0.0, f64::max) - busy.iter().copied().fold(1.0, f64::min);
    let mut late = raw.late_ns.clone();
    late.sort_unstable();
    let connect: Vec<f64> = raw.connect_ns.iter().map(|&n| n as f64 / 1e3).collect();
    vec![
        (
            "fiber.stack_hit_ratio",
            ratio(
                c.stack_cache_hits,
                c.stack_cache_hits + c.stack_cache_misses,
            ),
        ),
        ("sched.steals_per_op", ratio(c.steal_attempts, ops)),
        (
            "sched.steal_hit_ratio",
            ratio(c.steal_hits, c.steal_attempts),
        ),
        ("sched.parks_per_op", ratio(c.parks, ops)),
        ("sched.timers_armed_per_op", ratio(c.timers_armed, ops)),
        (
            "sync.queue_contention_per_op",
            ratio(c.queue_contention, ops),
        ),
        ("ultcore.yields_per_op", ratio(c.yields, ops)),
        ("ultcore.async_polls_per_op", ratio(c.async_polls, ops)),
        ("ultcore.async_wakes_per_op", ratio(c.async_wakes, ops)),
        ("net.io_events_per_op", ratio(c.io_events, ops)),
        ("net.io_wakes_per_op", ratio(c.io_wakes, ops)),
        ("net.io_timeouts", c.io_timeouts as f64),
        ("net.requests_shed", c.requests_shed as f64),
        ("net.connect_us", sys::mean(&connect)),
        (
            "net.gen_late_p99_us",
            sys::percentile(&late, 99.0) as f64 / 1e3,
        ),
        (
            "metrics.busy_frac",
            util.aggregate_pct(WorkerState::Busy) / 100.0,
        ),
        (
            "metrics.dispatch_frac",
            util.aggregate_pct(WorkerState::Dispatch) / 100.0,
        ),
        (
            "metrics.idle_frac",
            util.aggregate_pct(WorkerState::Idle) / 100.0,
        ),
        (
            "metrics.parked_frac",
            util.aggregate_pct(WorkerState::Parked) / 100.0,
        ),
        (
            "metrics.worker_busy_skew",
            if busy.is_empty() { 0.0 } else { skew },
        ),
    ]
}

#[derive(Default)]
struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Per-layer numbers read off the benchmark-side spans. Only spans
/// whose root op was recorded (a measured, verified op) count.
fn span_layers(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let roots: HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.kind.is_root())
        .map(|s| (s.root, s))
        .collect();
    let (mut create, mut join, mut handler) = (Mean::default(), Mean::default(), Mean::default());
    let (mut pre, mut post) = (Mean::default(), Mean::default());
    let mut create_end: HashMap<(u64, u32), u64> = HashMap::new();
    let mut last_join: HashMap<u64, u64> = HashMap::new();
    let mut last_body: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        let Some(root) = roots.get(&s.root) else {
            continue;
        };
        let dur = (s.end - s.start) as f64;
        match s.kind {
            Kind::Create => {
                create.add(dur);
                create_end.insert((s.root, s.idx), s.end);
            }
            Kind::Join => {
                join.add(dur);
                let e = last_join.entry(s.root).or_default();
                *e = (*e).max(s.end);
            }
            Kind::Unit => {
                let e = last_body.entry(s.root).or_default();
                *e = (*e).max(s.end);
            }
            Kind::Handler => {
                handler.add(dur / 1e3);
                pre.add(s.start.saturating_sub(root.start) as f64 / 1e3);
                post.add(root.end.saturating_sub(s.end) as f64 / 1e3);
            }
            _ => {}
        }
    }
    let mut queue_wait = Mean::default();
    for s in spans.iter().filter(|s| s.kind == Kind::Unit) {
        if let Some(&created) = create_end.get(&(s.root, s.idx)) {
            // Work-first backends start the body before `create`
            // returns; that is a wait of zero, not a negative one.
            queue_wait.add(s.start.saturating_sub(created) as f64 / 1e3);
        }
    }
    let mut join_wake = Mean::default();
    for (root, &joined) in &last_join {
        if let Some(&body) = last_body.get(root) {
            join_wake.add(joined.saturating_sub(body) as f64 / 1e3);
        }
    }
    vec![
        ("core.create_ns", create.get()),
        ("core.join_ns", join.get()),
        ("core.join_wake_us", join_wake.get()),
        ("sched.queue_wait_us", queue_wait.get()),
        ("net.pre_handler_us", pre.get()),
        ("net.handler_us", handler.get()),
        ("net.post_handler_us", post.get()),
    ]
}

/// Spans of the first few ops written to the trace file; the layer
/// numbers above are computed over all of them.
const FRAGMENT_SPANS: usize = 4000;

/// This slice's part of `out/trace-<workload>.json`: mean self time of
/// a root op (its duration minus what its child spans cover) and the
/// spans of the first ops, each naming the root that caused it.
fn span_fragment(backend: &str, spans: &[Span]) -> String {
    let mut by_root: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        by_root.entry(s.root).or_default().push(s);
    }
    let mut roots: Vec<&Span> = spans.iter().filter(|s| s.kind.is_root()).collect();
    roots.sort_by_key(|s| s.start);

    let mut self_us = Mean::default();
    for root in &roots {
        let mut children: Vec<(u64, u64)> = by_root[&root.root]
            .iter()
            .filter(|s| !s.kind.is_root())
            .map(|s| (s.start.max(root.start), s.end.min(root.end)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let (mut covered, mut reach) = (0, root.start);
        for (a, b) in children {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        self_us.add((root.end - root.start - covered) as f64 / 1e3);
    }

    let mut out = format!(
        "{{\"backend\":\"{backend}\",\"spans_recorded\":{},\"ops_traced\":{},\
         \"root_self_us_mean\":{},\"spans\":[",
        spans.len(),
        roots.len(),
        self_us.get()
    );
    let mut written = 0;
    for root in &roots {
        if written >= FRAGMENT_SPANS {
            break;
        }
        for s in &by_root[&root.root] {
            if written > 0 {
                out.push(',');
            }
            let parent = if s.kind.is_root() {
                "null".to_string()
            } else {
                s.root.to_string()
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"root\":{},\"idx\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.kind.name(),
                s.root,
                s.idx,
                s.start,
                s.end
            );
            written += 1;
        }
    }
    out.push_str("]}");
    out
}
