//! Clocks, `/proc` readers and the order statistics the benchmark
//! reports.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process. One monotonic
/// epoch for every thread, so span ends recorded on different threads
/// subtract.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, correctly laid out timespec (x86-64 and
    // aarch64 Linux both use two 64-bit fields) and both clock ids are
    // always valid for the calling process/thread.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, live or exited.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set of this process (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The CPU `pin_to_nth_cpu` pinned this process to; `usize::MAX`
/// while unpinned.
static PINNED: AtomicUsize = AtomicUsize::new(usize::MAX);

/// (all ticks, stolen ticks) since boot of the CPU this process is
/// pinned to (of the whole machine while unpinned), from `/proc/stat`.
/// Stolen ticks are time the virtual CPU wanted to run and the
/// hypervisor ran something else.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let label = match PINNED.load(Ordering::Relaxed) {
        usize::MAX => "cpu".to_string(),
        cpu => format!("cpu{cpu}"),
    };
    let fields: Vec<u64> = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user and nice.
    (
        fields.iter().take(8).sum(),
        fields.get(7).copied().unwrap_or(0),
    )
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and every thread it later starts, to
/// one CPU: the `nth` (modulo their number) of the CPUs it may run on
/// now. Returns that CPU, or `None` when the kernel refused.
pub fn pin_to_nth_cpu(nth: usize) -> Option<usize> {
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let allowed: Vec<usize> = (0..WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let cpu = *allowed.get(nth % allowed.len().max(1))?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads `one`.
    if unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } != 0 {
        return None;
    }
    PINNED.store(cpu, Ordering::Relaxed);
    Some(cpu)
}

/// `min(nproc, 4)`: the worker count of every runtime under test and
/// the ceiling on load-generator threads.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4)
}

/// The `p`-th percentile (nearest rank) of an ascending slice; 0 when
/// empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The tail percentile the sample supports: p99 when at least ten
/// samples lie beyond it, otherwise the highest percentile that still
/// has ten beyond it (the median when there are fewer than twenty).
/// Returns the percentile used and its value.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    let n = sorted.len();
    let p = if n >= 1000 {
        99.0
    } else if n >= 20 {
        100.0 * (n - 10) as f64 / n as f64
    } else {
        50.0
    };
    (p, percentile(sorted, p))
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Mean of what is left after dropping a third of the values (rounded
/// down) from each end: the middle three of five, the median of three.
/// Slices of one backend differ by which of a few thread placements
/// the fresh process drew, so their median flips between modes from
/// run to run; the mid-mean moves smoothly and still ignores a slice
/// the machine disturbed.
pub fn midmean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let trim = values.len() / 3;
    mean(&values[trim..values.len() - trim])
}

/// Mean of the lower three fifths of the values (three of five, two of
/// three). For quantities that a disturbance can only lengthen — a
/// tail latency, a set-up time — the low end of the slices is where
/// the undisturbed value is; averaging three of them keeps the result
/// from jumping when a slice changes sides.
pub fn low_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    mean(&values[..(values.len() * 3).div_ceil(5)])
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean; a zero or negative member makes the whole mean 0,
/// which the caller reports as a failed run.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
