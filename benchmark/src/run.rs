//! The parent side of a run: 5 interleaved rounds x 5 backends, one
//! re-exec'd child per slice, then the aggregation into named metrics.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::catalog;
use crate::gen::{LEAVES, PARENTS};
use crate::probes;
use crate::slice::{BACKENDS, DRAIN, OPENMP};
use crate::sys;

/// Interleaved rounds (ABCDE ABCDE ...) decorrelate the backends from
/// machine drift; a fresh process per slice draws a fresh thread
/// placement, and five draws per backend are combined by mid-mean.
const ROUNDS: usize = 5;
/// In a traced run every second round is traced (U T U T U); the
/// untraced ones give the rates the tracing overhead is measured
/// against.
fn is_traced_round(round: usize) -> bool {
    round % 2 == 1
}
/// Share of a slice spent warming up before the measured window.
const WARM_SHARE: f64 = 0.15;
/// A child that has not finished set-up by then is killed.
const SETUP_LIMIT: Duration = Duration::from_secs(10);
/// Grace past the end of the measured window for the result line.
const RESULT_GRACE: Duration = Duration::from_secs(15);

/// One slice as the parent saw it.
struct Slice {
    /// Index into `BACKENDS`; `BACKENDS.len()` for the OpenMP reference.
    backend: usize,
    traced: bool,
    open_loop: bool,
    /// Child spawn → `READY`: process start, `Glt::build`, bind/serve,
    /// connects. `None` when the child never got that far.
    setup_s: Option<f64>,
    fields: HashMap<String, f64>,
    /// Fingerprint of the generated inputs, as the child printed it.
    inputs: String,
    finalize_ms: Option<f64>,
    /// Teardown errored, overran, or the child died in it.
    teardown_failed: bool,
}

impl Slice {
    fn get(&self, key: &str) -> f64 {
        self.fields.get(key).copied().unwrap_or(0.0)
    }

    fn ops(&self) -> f64 {
        self.get("ops")
    }

    /// Ops per second of the measured window. In a closed loop the
    /// window is what the hypervisor left of it: everything in the
    /// slice runs on one pinned CPU, so time stolen from that CPU is
    /// time in which no op could advance, and counting it would make
    /// the rate follow the host's load instead of the code. An open
    /// loop delivers what the generator sends, whatever was stolen.
    fn rate(&self) -> f64 {
        let given = if self.open_loop {
            1.0
        } else {
            1.0 - self.get("steal_frac").clamp(0.0, 0.95)
        };
        let seconds = self.get("elapsed_ns") / 1e9 * given;
        if seconds > 0.0 {
            self.ops() / seconds
        } else {
            0.0
        }
    }
}

struct SliceSpec<'a> {
    workload: &'a str,
    backend: usize,
    workers: usize,
    /// Which of the allowed CPUs the slice pins itself to.
    cpu: usize,
    seed: u64,
    warm: Duration,
    measure: Duration,
    traced: bool,
    part: Option<PathBuf>,
}

fn backend_name(backend: usize) -> &'static str {
    BACKENDS.get(backend).copied().unwrap_or(OPENMP)
}

fn run_slice(spec: &SliceSpec) -> Slice {
    let mut slice = Slice {
        backend: spec.backend,
        traced: spec.traced,
        open_loop: spec.workload == "echo-ult-paced",
        setup_s: None,
        fields: HashMap::new(),
        inputs: String::new(),
        finalize_ms: None,
        teardown_failed: false,
    };
    let mut cmd = Command::new(std::env::current_exe().expect("current_exe"));
    cmd.args(["--slice", backend_name(spec.backend)])
        .args(["--workload", spec.workload])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--workers", &spec.workers.to_string()])
        .args(["--cpu", &spec.cpu.to_string()])
        .args(["--warm-ms", &spec.warm.as_millis().to_string()])
        .args(["--measure-ms", &spec.measure.as_millis().to_string()])
        .args(["--trace", if spec.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(part) = &spec.part {
        cmd.arg("--part").arg(part);
    }
    // The runtimes read dozens of LWT_* knobs; a slice runs on their
    // defaults whatever the caller's shell had set.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("LWT_") {
            cmd.env_remove(key);
        }
    }

    let spawned = Instant::now();
    let mut child = match cmd.spawn() {
        Ok(child) => child,
        Err(e) => {
            eprintln!("benchmark: cannot start slice: {e}");
            return slice;
        }
    };
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    // Lines are stamped where they are read, so `READY` is timed by
    // the pipe, not by when this thread next gets to run.
    let reader = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
        {
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });

    let mut limit = SETUP_LIMIT;
    let mut got_result = false;
    loop {
        match rx.recv_timeout(limit) {
            Ok((at, line)) if line == "READY" => {
                slice.setup_s = Some((at - spawned).as_secs_f64());
                limit = spec.warm + spec.measure + RESULT_GRACE;
            }
            Ok((_, line)) if line.starts_with("RESULT ") => {
                parse_result(&line, &mut slice);
                got_result = true;
                limit = 2 * DRAIN + Duration::from_secs(1);
            }
            Ok((_, line)) if line.starts_with("DONE ") => {
                for (key, value) in pairs(&line) {
                    match key {
                        "finalize_ns" => {
                            slice.finalize_ms = value.parse().ok().map(|n: f64| n / 1e6)
                        }
                        "teardown_err" => slice.teardown_failed = value != "0",
                        _ => {}
                    }
                }
                break;
            }
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {
                eprintln!(
                    "benchmark: {} slice overran ({}); killing it",
                    backend_name(spec.backend),
                    if got_result {
                        "in teardown"
                    } else {
                        "before its result"
                    }
                );
                let _ = child.kill();
                slice.teardown_failed = true;
                break;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Exited without `DONE`: died in teardown, or earlier.
                slice.teardown_failed = true;
                break;
            }
        }
    }
    let _ = child.wait();
    let _ = reader.join();
    slice
}

fn pairs(line: &str) -> impl Iterator<Item = (&str, &str)> {
    line.split_whitespace().filter_map(|kv| kv.split_once('='))
}

fn parse_result(line: &str, slice: &mut Slice) {
    for (key, value) in pairs(line) {
        if key == "inputs" {
            slice.inputs = value.to_string();
        } else if let Ok(v) = value.parse() {
            slice.fields.insert(key.to_string(), v);
        }
    }
}

/// The numbers of one backend over its untraced slices: the mid-mean
/// of what each calm slice measured for rate, median and CPU, and the
/// mean of the three lowest of all slices for the tail and the set-up
/// time, which a disturbance can only lengthen.
struct BackendRow {
    ops_per_s: f64,
    p50_us: f64,
    tail_us: f64,
    /// The lowest percentile any slice's tail was; below 99 the row is
    /// `low_samples`.
    tail_pct: f64,
    samples: f64,
    /// Slices that passed the stolen-time filter.
    calm: usize,
    cpu_us_per_op: f64,
    peak_rss_mb: f64,
    setup_s: f64,
}

/// A slice during which the hypervisor took more than this much more
/// of the machine's CPU time than during the backend's calmest slice
/// is left out: it measured the host, not the runtime. The filter
/// looks only at stolen time, never at the value measured.
const STEAL_SLACK: f64 = 0.10;

fn backend_row(all: &[&Slice]) -> BackendRow {
    let calmest = all
        .iter()
        .map(|s| s.get("steal_frac"))
        .fold(f64::INFINITY, f64::min);
    let slices: Vec<&Slice> = all
        .iter()
        .copied()
        .filter(|s| s.get("steal_frac") <= calmest + STEAL_SLACK)
        .collect();
    let mid = |f: &dyn Fn(&Slice) -> f64| {
        sys::midmean(&mut slices.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let low = |f: &dyn Fn(&Slice) -> f64| {
        sys::low_mean(&mut all.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    BackendRow {
        ops_per_s: mid(&Slice::rate),
        p50_us: mid(&|s| s.get("p50_ns") / 1e3),
        tail_us: low(&|s| s.get("tail_ns") / 1e3),
        tail_pct: all.iter().map(|s| s.get("tail_pct")).fold(99.0, f64::min),
        samples: all.iter().map(|s| s.ops()).sum(),
        calm: slices.len(),
        cpu_us_per_op: mid(&|s| {
            if s.ops() > 0.0 {
                (s.get("cpu_ns") - s.get("loadgen_cpu_ns")).max(0.0) / 1e3 / s.ops()
            } else {
                0.0
            }
        }),
        peak_rss_mb: all
            .iter()
            .map(|s| s.get("rss_kb") / 1024.0)
            .fold(0.0, f64::max),
        setup_s: low(&|s| s.setup_s.unwrap_or(0.0)),
    }
}

pub fn main(workload: &str, seed: u64, seconds: f64, traced_run: bool) -> ExitCode {
    let workers = sys::workers();
    let slice_s = seconds / (ROUNDS * BACKENDS.len()) as f64;
    let warm = Duration::from_secs_f64(slice_s * WARM_SHARE);
    let measure = Duration::from_secs_f64(slice_s * (1.0 - WARM_SHARE));
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let is_task = matches!(workload, "spawn-join-fine" | "nested-grain");
    eprintln!(
        "benchmark: {workload} seed {seed}: {ROUNDS} rounds x {} backends, {workers} workers, \
         slice {:.0} ms warm-up + {:.0} ms measured{}",
        BACKENDS.len(),
        warm.as_secs_f64() * 1e3,
        measure.as_secs_f64() * 1e3,
        if traced_run { ", traced" } else { "" }
    );

    let mut layers: HashMap<&'static str, f64> = HashMap::new();
    if traced_run {
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("benchmark: cannot create {}: {e}", out_dir.display());
        }
        layers.extend(probes::run(seed));
    }

    let mut slices = Vec::new();
    let mut parts = Vec::new();
    for round in 0..ROUNDS {
        let traced = traced_run && is_traced_round(round);
        for (backend, backend_name) in BACKENDS.iter().enumerate() {
            let part =
                traced.then(|| out_dir.join(format!("{workload}.{round}.{backend_name}.part")));
            parts.extend(part.clone());
            let slice = run_slice(&SliceSpec {
                workload,
                backend,
                workers,
                cpu: slices.len(),
                seed,
                warm,
                measure,
                traced,
                part,
            });
            eprintln!(
                "  round {round} {:<9}{} {:>10.1} ops/s  p50 {:>10.2} us  tail {:>10.2} us  set-up {:>6.2} ms  steal {:>4.1} %",
                backend_name,
                if traced { " traced" } else { "" },
                slice.rate(),
                slice.get("p50_ns") / 1e3,
                slice.get("tail_ns") / 1e3,
                slice.setup_s.unwrap_or(0.0) * 1e3,
                slice.get("steal_frac") * 1e2,
            );
            slices.push(slice);
        }
    }
    if traced_run && is_task {
        slices.push(run_slice(&SliceSpec {
            workload,
            backend: BACKENDS.len(),
            workers,
            cpu: slices.len(),
            seed,
            warm,
            measure,
            traced: false,
            part: None,
        }));
    }

    // ------------------------------------------------------------ verdict
    let attempted: u64 = slices.iter().map(|s| s.get("attempted") as u64).sum();
    let completed: u64 = slices.iter().map(|s| s.ops() as u64).sum();
    let failed = attempted.saturating_sub(completed);
    let mut correct = failed == 0;
    for s in &slices {
        if s.ops() == 0.0 {
            eprintln!(
                "benchmark: {} completed no op in a slice",
                backend_name(s.backend)
            );
            correct = false;
        }
    }
    let mut inputs: Vec<&str> = slices.iter().map(|s| s.inputs.as_str()).collect();
    inputs.dedup();
    eprintln!("benchmark: inputs fingerprint {inputs:?}, attempted {attempted}, failed {failed}");

    // ------------------------------------------------------- aggregation
    let rows: Vec<BackendRow> = (0..BACKENDS.len())
        .map(|b| {
            let own: Vec<&Slice> = slices
                .iter()
                .filter(|s| s.backend == b && !s.traced)
                .collect();
            backend_row(&own)
        })
        .collect();
    eprintln!(
        "backend     ops/s        p50_us     tail_us  (pct)   cpu_us/op  rss_mb  samples  slices"
    );
    for (name, r) in BACKENDS.iter().zip(&rows) {
        eprintln!(
            "{name:<10} {:>10.1} {:>10.2} {:>10.2}  (p{:<5.2}) {:>8.2} {:>7.1} {:>8.0} {:>7}{}",
            r.ops_per_s,
            r.p50_us,
            r.tail_us,
            r.tail_pct,
            r.cpu_us_per_op,
            r.peak_rss_mb,
            r.samples,
            r.calm,
            if r.tail_pct < 99.0 {
                "  low_samples"
            } else {
                ""
            }
        );
    }
    let geo =
        |f: &dyn Fn(&BackendRow) -> f64| sys::geomean(&rows.iter().map(f).collect::<Vec<_>>());

    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    if !traced_run {
        let setup_s: f64 = rows.iter().map(|r| r.setup_s).sum::<f64>() * ROUNDS as f64;
        let values = [
            setup_s,
            geo(&|r| r.ops_per_s),
            geo(&|r| r.p50_us),
            geo(&|r| r.tail_us),
            geo(&|r| r.cpu_us_per_op),
            geo(&|r| r.peak_rss_mb),
        ];
        for ((name, unit), value) in catalog::END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), unit, value));
        }
    } else {
        for (backend, r) in BACKENDS.iter().zip(&rows) {
            for ((name, unit), value) in
                catalog::PER_BACKEND
                    .iter()
                    .zip([r.ops_per_s, r.p50_us, r.tail_us])
            {
                metrics.push((format!("{backend}.{name}"), unit, value));
            }
        }
        traced_layers(&slices, &rows, workload, &mut layers);
        for (name, unit) in catalog::PER_LAYER {
            metrics.push((
                name.to_string(),
                unit,
                layers.get(name).copied().unwrap_or(0.0),
            ));
        }
        write_trace(&out_dir, workload, seed, &parts);
    }

    for (name, _, value) in &metrics {
        if !value.is_finite() {
            eprintln!("benchmark: {name} is not a number");
            correct = false;
        }
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Fill in the per-layer metrics that come out of the slices: means
/// over the five backends of what each traced slice reported, plus the
/// set-up/teardown costs and the rows derived from untraced rates.
fn traced_layers(
    slices: &[Slice],
    rows: &[BackendRow],
    workload: &str,
    layers: &mut HashMap<&'static str, f64>,
) {
    let backends: Vec<&Slice> = slices
        .iter()
        .filter(|s| s.backend < BACKENDS.len())
        .collect();
    let traced: Vec<&Slice> = backends.iter().copied().filter(|s| s.traced).collect();
    for (name, _) in catalog::PER_LAYER {
        let key = format!("m:{name}");
        let reported: Vec<f64> = traced
            .iter()
            .filter_map(|s| s.fields.get(&key).copied())
            .collect();
        if !reported.is_empty() {
            layers.insert(name, sys::mean(&reported));
        }
    }

    let build: Vec<f64> = backends.iter().map(|s| s.get("build_ns") / 1e6).collect();
    let finalize: Vec<f64> = backends.iter().filter_map(|s| s.finalize_ms).collect();
    layers.insert("core.build_ms", sys::mean(&build));
    layers.insert("core.finalize_ms", sys::mean(&finalize));
    layers.insert(
        "core.teardown_timeouts",
        backends.iter().filter(|s| s.teardown_failed).count() as f64,
    );

    let overhead: Vec<f64> = (0..BACKENDS.len())
        .filter(|&b| rows[b].ops_per_s > 0.0)
        .map(|b| {
            let mut rates: Vec<f64> = traced
                .iter()
                .filter(|s| s.backend == b)
                .map(|s| s.rate())
                .collect();
            1.0 - sys::midmean(&mut rates) / rows[b].ops_per_s
        })
        .collect();
    layers.insert("metrics.trace_overhead_frac", sys::mean(&overhead));

    if workload == "nested-grain" {
        let mut serial: Vec<f64> = backends.iter().map(|s| s.get("serial_unit_ns")).collect();
        let serial_ns = sys::median(&mut serial);
        layers.insert("kernel.serial_us_per_unit", serial_ns / 1e3);
        // Serial kernel time of the region's leaves over the time the
        // median region had the slice's one core.
        let efficiency: Vec<f64> = rows
            .iter()
            .filter(|r| r.p50_us > 0.0)
            .map(|r| serial_ns * (PARENTS * LEAVES) as f64 / (r.p50_us * 1e3))
            .collect();
        layers.insert("core.efficiency", sys::mean(&efficiency));
    }
    if let Some(omp) = slices.iter().find(|s| s.backend == BACKENDS.len()) {
        layers.insert("openmp.ops_per_s", omp.rate());
    }
}

/// Join the traced slices' span fragments into one file.
fn write_trace(out_dir: &Path, workload: &str, seed: u64, parts: &[PathBuf]) {
    let fragments: Vec<String> = parts
        .iter()
        .filter_map(|p| {
            let text = std::fs::read_to_string(p).ok();
            let _ = std::fs::remove_file(p);
            text
        })
        .collect();
    let path = out_dir.join(format!("trace-{workload}.json"));
    let body = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"slices\":[\n{}\n]}}\n",
        fragments.join(",\n")
    );
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("benchmark: spans written to {}", path.display()),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
}
