//! The four workloads. Each runs inside one slice: it sets itself up on
//! the given runtime, calls `ready`, runs a warm-up window and a
//! measured window, and hands back raw samples plus the closure that
//! tears its server side down.

use std::io::{Read as _, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use lwt_core::Glt;
use lwt_metrics::registry::CounterSnapshot;
use lwt_metrics::Utilization;
use lwt_microbench::kernels::{SharedSlice, SharedVec};
use lwt_net::http;
use lwt_openmp::OpenMp;

use crate::gen::{self, CHUNK, ECHO_BYTES, FINE_UNITS, HTTP_BODY, LEAVES, PARENTS, PASSES};
use crate::spans::{self, now, record, Kind};
use crate::sys;

pub const NAMES: [&str; 4] = [
    "spawn-join-fine",
    "nested-grain",
    "http-keepalive",
    "echo-ult-paced",
];

/// Of every this-many ops, one is traced in a traced slice. Fine
/// regions and HTTP requests are too frequent to span each one without
/// the clock reads dominating what they measure.
const FINE_TRACE_EVERY: u64 = 16;
const HTTP_TRACE_EVERY: u32 = 8;
/// An HTTP connection is closed and re-opened after this many requests.
const HTTP_REQS_PER_CONN: u32 = 256;
/// Echo pacing: one op per connection every 2 ms (500 ops/s).
pub const ECHO_PERIOD: Duration = Duration::from_millis(2);
/// Client-side socket timeout: a hung exchange becomes a failed op.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

#[derive(Clone)]
pub struct Plan {
    pub seed: u64,
    pub workers: usize,
    pub warm: Duration,
    pub measure: Duration,
    pub traced: bool,
}

/// Process-wide readings taken at both ends of the measured window.
pub struct Meter {
    t: u64,
    cpu: u64,
    ticks: (u64, u64),
    counters: CounterSnapshot,
    util: Utilization,
}

pub struct Metered {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Share of the pinned CPU's time the hypervisor took away.
    pub steal_frac: f64,
    pub counters: CounterSnapshot,
    pub util: Utilization,
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            util: lwt_metrics::utilization(),
            counters: lwt_metrics::registry::snapshot().counters,
            cpu: sys::process_cpu_ns(),
            ticks: sys::cpu_ticks(),
            t: now(),
        }
    }

    pub fn stop(self) -> Metered {
        let wall_ns = now() - self.t;
        let cpu_ns = sys::process_cpu_ns() - self.cpu;
        let (all, stolen) = sys::cpu_ticks();
        Metered {
            wall_ns,
            cpu_ns,
            steal_frac: (stolen - self.ticks.1) as f64 / (all - self.ticks.0).max(1) as f64,
            counters: lwt_metrics::registry::snapshot()
                .counters
                .delta(&self.counters),
            util: lwt_metrics::utilization()
                .delta(&self.util)
                .merged_by_label(),
        }
    }
}

/// What one slice measured. `lat_ns` has one entry per completed,
/// verified op; `attempted - lat_ns.len()` ops failed.
pub struct Raw {
    pub attempted: u64,
    pub lat_ns: Vec<u64>,
    pub metered: Metered,
    /// CPU the load-generator threads burnt themselves.
    pub loadgen_cpu_ns: u64,
    /// Open loop only: how late each op left the generator.
    pub late_ns: Vec<u64>,
    pub connect_ns: Vec<u64>,
    /// `nested-grain` only: one leaf body run serially, median.
    pub serial_unit_ns: u64,
    pub inputs: u64,
}

impl Raw {
    /// A slice with no ops yet.
    fn new(metered: Metered, inputs: u64) -> Raw {
        Raw {
            attempted: 0,
            lat_ns: Vec::new(),
            metered,
            loadgen_cpu_ns: 0,
            late_ns: Vec::new(),
            connect_ns: Vec::new(),
            serial_unit_ns: 0,
            inputs,
        }
    }
}

pub type Teardown = Box<dyn FnOnce()>;

pub fn run(name: &str, glt: &Glt, plan: &Plan, ready: impl FnOnce()) -> (Raw, Teardown) {
    match name {
        "spawn-join-fine" => (spawn_join_fine(glt, plan, ready), Box::new(|| ())),
        "nested-grain" => (nested_grain(glt, plan, ready), Box::new(|| ())),
        "http-keepalive" => http_keepalive(glt, plan, ready),
        "echo-ult-paced" => echo_ult_paced(glt, plan, ready),
        other => panic!("unknown workload {other}"),
    }
}

/// The closed-loop phase clock shared by the task workloads: warm up
/// until `warm_end`, restart the meter, measure until `end`, and always
/// measure at least one op.
///
/// One exception keeps a pathologically slow backend affordable: when
/// the very first op is still running as the whole slice ends (the Go
/// backend needs seconds for one nested region), that op is the
/// slice's one measured op, metered from the start. Running it a
/// second time would only double the wait.
struct Phases {
    warm_end: Instant,
    end: Instant,
    /// Covers the slice from its start until the warm-up ends, then is
    /// replaced by the one that covers the measured window.
    meter: Meter,
    measuring: bool,
    /// (ok, latency) of the op before the first measured one.
    first: Option<(bool, u64)>,
    ops_done: u64,
    attempted: u64,
    lat_ns: Vec<u64>,
}

impl Phases {
    fn new(plan: &Plan) -> Phases {
        let warm_end = Instant::now() + plan.warm;
        Phases {
            warm_end,
            end: warm_end + plan.measure,
            meter: Meter::start(),
            measuring: false,
            first: None,
            ops_done: 0,
            attempted: 0,
            lat_ns: Vec::with_capacity(1 << 16),
        }
    }

    /// `None` when the slice is over, else whether the next op is
    /// measured.
    fn next(&mut self) -> Option<bool> {
        let t = Instant::now();
        if !self.measuring && t >= self.warm_end {
            self.measuring = true;
            match self.first {
                Some((ok, lat)) if t >= self.end && self.ops_done == 1 => {
                    self.done(true, ok, lat);
                    return None;
                }
                _ => self.meter = Meter::start(),
            }
        }
        if t >= self.end && self.attempted > 0 {
            return None;
        }
        Some(self.measuring)
    }

    fn done(&mut self, measured: bool, ok: bool, lat: u64) {
        self.ops_done += 1;
        if measured {
            self.attempted += 1;
            if ok {
                self.lat_ns.push(lat);
            }
        } else if self.first.is_none() {
            self.first = Some((ok, lat));
        }
    }

    fn finish(self, inputs: u64, serial_unit_ns: u64) -> Raw {
        Raw {
            attempted: self.attempted,
            lat_ns: self.lat_ns,
            serial_unit_ns,
            ..Raw::new(self.meter.stop(), inputs)
        }
    }
}

// ------------------------------------------------------------ spawn-join-fine

fn spawn_join_fine(glt: &Glt, plan: &Plan, ready: impl FnOnce()) -> Raw {
    let (tx, rx) = mpsc::channel();
    let (g, plan) = (glt.clone(), plan.clone());
    ready();
    // The master is a ULT of the pool, so the busy threads are the W
    // workers and nothing else; this thread sleeps in `recv`.
    let master = glt.ult_create(move || {
        let _ = tx.send(fine_master(&g, &plan));
    });
    let raw = rx.recv().expect("master ULT ended without a result");
    master.join();
    raw
}

/// The 64-element Sscal vector of one region, its seeded contents and
/// the values every element must hold once the region is joined.
struct Fine {
    contents: Vec<f32>,
    a: f32,
    expected: Vec<f32>,
    vec: SharedVec,
}

impl Fine {
    fn new(seed: u64) -> Fine {
        let (contents, a) = gen::fine(seed);
        let mut fine = Fine {
            expected: contents.iter().map(|c| c * a).collect(),
            vec: SharedVec::ones(FINE_UNITS),
            contents,
            a,
        };
        fine.load();
        fine
    }

    /// `SharedVec` starts as ones, so scaling element `i` by its
    /// seeded value is how the contents get in.
    fn load(&mut self) -> SharedSlice {
        let s = self.vec.share();
        self.contents
            .iter()
            .enumerate()
            .for_each(|(i, &c)| s.scale(i, c));
        s
    }

    /// Check the unit-result sum and the vector, then restore the
    /// contents for the next region.
    fn verify(&mut self, sum: u64) -> bool {
        let ok = sum == (FINE_UNITS * (FINE_UNITS + 1) / 2) as u64
            && self.vec.as_slice() == self.expected;
        self.vec.reset();
        self.load();
        ok
    }

    fn inputs(&self) -> u64 {
        gen::fingerprint_f32(gen::FNV_OFFSET, &self.contents)
    }
}

fn fine_master(glt: &Glt, plan: &Plan) -> Raw {
    let mut fine = Fine::new(plan.seed);
    let (s, a) = (fine.vec.share(), fine.a);
    let mut phases = Phases::new(plan);
    let mut handles = Vec::with_capacity(FINE_UNITS);
    let mut region = 0u64;
    while let Some(measured) = phases.next() {
        let traced = measured && plan.traced && region.is_multiple_of(FINE_TRACE_EVERY);
        let t0 = now();
        for i in 0..FINE_UNITS {
            let c0 = if traced { now() } else { 0 };
            handles.push(glt.ult_create(move || {
                if traced {
                    let b0 = now();
                    s.scale(i, a);
                    record(Kind::Unit, region, i as u32, b0, now());
                } else {
                    s.scale(i, a);
                }
                i as u64 + 1
            }));
            if traced {
                record(Kind::Create, region, i as u32, c0, now());
            }
        }
        let mut sum = 0;
        for (i, h) in handles.drain(..).enumerate() {
            let j0 = if traced { now() } else { 0 };
            sum += h.try_join().unwrap_or(0);
            if traced {
                record(Kind::Join, region, i as u32, j0, now());
            }
        }
        let t1 = now();
        if traced {
            record(Kind::Region, region, 0, t0, t1);
        }
        phases.done(measured, fine.verify(sum), t1 - t0);
        region += 1;
    }
    phases.finish(fine.inputs(), 0)
}

// --------------------------------------------------------------- nested-grain

struct NestedData {
    input: Vec<f32>,
    a: f32,
    reference: Vec<f32>,
    /// One work buffer per leaf; a leaf locks only its own, so the
    /// lock is never contended and the chunks need no unsafe sharing.
    work: Vec<Mutex<Vec<f32>>>,
}

/// The fixed-work kernel: copy the leaf's chunk in, then `PASSES`
/// Sscal passes over it. The pass count is fixed; nothing is timed.
fn sscal_chunk(buf: &mut [f32], input: &[f32], a: f32) {
    buf.copy_from_slice(input);
    for _ in 0..PASSES {
        for x in buf.iter_mut() {
            *x *= a;
        }
        std::hint::black_box(&mut *buf);
    }
}

impl NestedData {
    /// Run leaf `idx` and check its chunk against the serial
    /// reference; `idx + 1` when every element is within 1e-3
    /// relative, else 0.
    fn leaf(&self, idx: usize) -> u64 {
        let range = idx * CHUNK..(idx + 1) * CHUNK;
        let mut buf = self.work[idx].lock().expect("leaf buffer poisoned");
        sscal_chunk(&mut buf, &self.input[range.clone()], self.a);
        let ok = buf
            .iter()
            .zip(&self.reference[range])
            .all(|(x, r)| (x - r).abs() <= 1e-3 * r.abs());
        if ok {
            idx as u64 + 1
        } else {
            0
        }
    }

    /// Generate the input, compute the serial reference, and time one
    /// leaf's kernel while doing so (median over the 256 chunks).
    fn new(seed: u64) -> (Arc<NestedData>, u64) {
        let (input, a) = gen::nested(seed);
        let mut reference = vec![0.0; input.len()];
        let mut serial: Vec<f64> = reference
            .chunks_exact_mut(CHUNK)
            .zip(input.chunks_exact(CHUNK))
            .map(|(r, i)| {
                let t0 = now();
                sscal_chunk(r, i, a);
                (now() - t0) as f64
            })
            .collect();
        let data = NestedData {
            work: (0..PARENTS * LEAVES)
                .map(|_| Mutex::new(vec![0.0; CHUNK]))
                .collect(),
            input,
            a,
            reference,
        };
        (Arc::new(data), sys::median(&mut serial) as u64)
    }

    fn inputs(&self) -> u64 {
        gen::fingerprint_f32(gen::FNV_OFFSET, &self.input)
    }
}

/// Sum of the unit results of one verified region.
const NESTED_SUM: u64 = ((PARENTS * LEAVES) * (PARENTS * LEAVES + 1) / 2) as u64;

fn nested_grain(glt: &Glt, plan: &Plan, ready: impl FnOnce()) -> Raw {
    let (data, serial_unit_ns) = NestedData::new(plan.seed);
    ready();
    let mut phases = Phases::new(plan);
    let mut parents = Vec::with_capacity(PARENTS);
    let mut region = 0u64;
    while let Some(measured) = phases.next() {
        let traced = measured && plan.traced;
        let t0 = now();
        for p in 0..PARENTS {
            let (g, data) = (glt.clone(), data.clone());
            let parent_idx = (PARENTS * LEAVES + p) as u32;
            let c0 = if traced { now() } else { 0 };
            parents.push(glt.ult_create(move || {
                let b0 = if traced { now() } else { 0 };
                let sum = nested_parent(&g, &data, p, region, traced);
                if traced {
                    record(Kind::Unit, region, parent_idx, b0, now());
                }
                sum
            }));
            if traced {
                record(Kind::Create, region, parent_idx, c0, now());
            }
        }
        let mut sum = 0;
        for (p, h) in parents.drain(..).enumerate() {
            let j0 = if traced { now() } else { 0 };
            sum += h.try_join().unwrap_or(0);
            if traced {
                record(Kind::Join, region, (PARENTS * LEAVES + p) as u32, j0, now());
            }
        }
        let t1 = now();
        if traced {
            record(Kind::Region, region, 0, t0, t1);
        }
        phases.done(measured, sum == NESTED_SUM, t1 - t0);
        region += 1;
    }
    phases.finish(data.inputs(), serial_unit_ns)
}

/// One parent ULT: fork its 16 leaves from inside the pool (tasklets
/// where the backend has them) and join them from inside the ULT.
fn nested_parent(glt: &Glt, data: &Arc<NestedData>, p: usize, region: u64, traced: bool) -> u64 {
    let mut leaves = Vec::with_capacity(LEAVES);
    for l in 0..LEAVES {
        let idx = p * LEAVES + l;
        let data = data.clone();
        let c0 = if traced { now() } else { 0 };
        leaves.push(glt.tasklet_create(move || {
            if traced {
                let b0 = now();
                let out = data.leaf(idx);
                record(Kind::Unit, region, idx as u32, b0, now());
                out
            } else {
                data.leaf(idx)
            }
        }));
        if traced {
            record(Kind::Create, region, idx as u32, c0, now());
        }
    }
    let mut sum = 0;
    for (l, h) in leaves.into_iter().enumerate() {
        let j0 = if traced { now() } else { 0 };
        sum += h.try_join().unwrap_or(0);
        if traced {
            record(Kind::Join, region, (p * LEAVES + l) as u32, j0, now());
        }
    }
    sum
}

// ----------------------------------------------------------- OpenMP reference

/// The same task region on the OpenMP-like runtime (gcc mode): the
/// master creates the tasks inside one parallel region and the team
/// drains them at `taskwait`. A reference row, not a backend.
pub fn run_openmp(name: &str, rt: &OpenMp, plan: &Plan, ready: impl FnOnce()) -> Raw {
    let sum = Arc::new(AtomicU64::new(0));
    match name {
        "spawn-join-fine" => {
            let mut fine = Fine::new(plan.seed);
            let (s, a) = (fine.vec.share(), fine.a);
            ready();
            let mut phases = Phases::new(plan);
            while let Some(measured) = phases.next() {
                let t0 = now();
                rt.parallel(|ctx| {
                    if ctx.is_master() {
                        for i in 0..FINE_UNITS {
                            let sum = sum.clone();
                            ctx.task(move || {
                                s.scale(i, a);
                                sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
                            });
                        }
                    }
                    ctx.taskwait();
                });
                let t1 = now();
                let ok = fine.verify(sum.swap(0, Ordering::Relaxed));
                phases.done(measured, ok, t1 - t0);
            }
            phases.finish(fine.inputs(), 0)
        }
        "nested-grain" => {
            let (data, serial_unit_ns) = NestedData::new(plan.seed);
            ready();
            let mut phases = Phases::new(plan);
            while let Some(measured) = phases.next() {
                let t0 = now();
                rt.parallel(|ctx| {
                    if ctx.is_master() {
                        for p in 0..PARENTS {
                            let (team, data, sum) = (ctx.team_handle(), data.clone(), sum.clone());
                            ctx.task(move || {
                                for idx in p * LEAVES..(p + 1) * LEAVES {
                                    let (data, sum) = (data.clone(), sum.clone());
                                    team.task(move || {
                                        sum.fetch_add(data.leaf(idx), Ordering::Relaxed);
                                    });
                                }
                            });
                        }
                    }
                    ctx.taskwait();
                });
                let t1 = now();
                let ok = sum.swap(0, Ordering::Relaxed) == NESTED_SUM;
                phases.done(measured, ok, t1 - t0);
            }
            phases.finish(data.inputs(), serial_unit_ns)
        }
        other => panic!("no OpenMP reference for workload {other}"),
    }
}

// ------------------------------------------------------- network client side

/// What one client thread measured.
#[derive(Default)]
struct ClientOut {
    attempted: u64,
    lat_ns: Vec<u64>,
    late_ns: Vec<u64>,
    connect_ns: Vec<u64>,
    cpu_ns: u64,
}

fn connect(addr: std::net::SocketAddr) -> std::io::Result<std::net::TcpStream> {
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    Ok(stream)
}

/// Run `client` on `plan.workers` threads against `addr`: every thread
/// connects, all meet at a barrier, `ready` fires, and the meter spans
/// the measured window. `client` gets its index, its first connection
/// and the instant the warm-up started.
fn drive_clients(
    plan: &Plan,
    addr: std::net::SocketAddr,
    inputs: u64,
    ready: impl FnOnce(),
    client: impl Fn(usize, std::net::TcpStream, Instant) -> ClientOut + Sync,
) -> Raw {
    let barrier = Barrier::new(plan.workers + 1);
    let start = Mutex::new(None);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..plan.workers)
            .map(|idx| {
                let (barrier, start, client) = (&barrier, &start, &client);
                scope.spawn(move || {
                    let first = connect(addr).expect("first connect");
                    barrier.wait();
                    // The main thread publishes the start instant
                    // between the two barriers.
                    barrier.wait();
                    let t0 = start.lock().expect("start poisoned").expect("start set");
                    client(idx, first, t0)
                })
            })
            .collect();
        barrier.wait();
        ready();
        let t0 = Instant::now();
        *start.lock().expect("start poisoned") = Some(t0);
        barrier.wait();
        std::thread::sleep((t0 + plan.warm).saturating_duration_since(Instant::now()));
        let meter = Meter::start();
        let outs: Vec<ClientOut> = threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect();
        let mut raw = Raw::new(meter.stop(), inputs);
        for out in outs {
            raw.attempted += out.attempted;
            raw.lat_ns.extend(out.lat_ns);
            raw.late_ns.extend(out.late_ns);
            raw.connect_ns.extend(out.connect_ns);
            raw.loadgen_cpu_ns += out.cpu_ns;
        }
        raw
    })
}

// ------------------------------------------------------------- http-keepalive

fn http_handler(req: &http::Request) -> http::Response {
    let h0 = now();
    let Some(key) = req
        .target
        .strip_prefix("/k/")
        .and_then(|k| k.parse::<u32>().ok())
    else {
        return http::Response::new(404);
    };
    let resp = http::Response::ok(gen::http_body(key).to_vec());
    if spans::on() && key.is_multiple_of(HTTP_TRACE_EVERY) {
        record(Kind::Handler, u64::from(key), 0, h0, now());
    }
    resp
}

fn http_keepalive(glt: &Glt, plan: &Plan, ready: impl FnOnce()) -> (Raw, Teardown) {
    let listener = lwt_net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = http::serve_config(
        glt,
        listener,
        http::ServerConfig::default(),
        Arc::new(http_handler),
    )
    .expect("serve");
    let addr = server.addr();

    let mut inputs = gen::FNV_OFFSET;
    let mut req = Vec::new();
    for seq in 0..64 {
        gen::http_request(gen::http_key(plan.seed, 0, seq), &mut req);
        inputs = gen::fingerprint(inputs, &req);
    }

    let raw = drive_clients(plan, addr, inputs, ready, |idx, first, t0| {
        http_client(idx, addr, first, plan, t0)
    });
    (raw, Box::new(move || server.shutdown()))
}

fn http_client(
    idx: usize,
    addr: std::net::SocketAddr,
    first: std::net::TcpStream,
    plan: &Plan,
    t0: Instant,
) -> ClientOut {
    let warm_end = t0 + plan.warm;
    let end = warm_end + plan.measure;
    let mut out = ClientOut::default();
    let mut conn = Some(first);
    let mut on_conn = 0;
    let mut req = Vec::with_capacity(256);
    let mut buf = Vec::with_capacity(1024);
    let mut cpu0 = None;
    for seq in 0.. {
        let t = Instant::now();
        let measured = t >= warm_end;
        if measured && cpu0.is_none() {
            cpu0 = Some(sys::thread_cpu_ns());
        }
        if t >= end && out.attempted > 0 {
            break;
        }
        if on_conn == HTTP_REQS_PER_CONN {
            conn = None;
        }
        if measured {
            out.attempted += 1;
        }
        if conn.is_none() {
            let c0 = now();
            match connect(addr) {
                Ok(stream) => {
                    if measured {
                        out.connect_ns.push(now() - c0);
                    }
                    conn = Some(stream);
                    on_conn = 0;
                }
                // A refused connect is this op's failure.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            }
        }
        let key = gen::http_key(plan.seed, idx, seq);
        gen::http_request(key, &mut req);
        let traced = measured && plan.traced && key.is_multiple_of(HTTP_TRACE_EVERY);
        let stream = conn.as_mut().expect("connected above");
        let sent = now();
        match http_exchange(stream, &req, key, &mut buf, traced) {
            Ok(()) if measured => out.lat_ns.push(now() - sent),
            Ok(()) => {}
            Err(_) => conn = None,
        }
        on_conn += 1;
    }
    out.cpu_ns = sys::thread_cpu_ns() - cpu0.unwrap_or_else(sys::thread_cpu_ns);
    out
}

fn bad(what: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

/// One keep-alive request/response, verified: status 200, the
/// `Content-Length`, and every body byte.
fn http_exchange(
    stream: &mut std::net::TcpStream,
    req: &[u8],
    key: u32,
    buf: &mut Vec<u8>,
    traced: bool,
) -> std::io::Result<()> {
    let t0 = now();
    stream.write_all(req)?;
    let t_written = now();
    let mut t_first = 0;
    buf.clear();
    let mut chunk = [0u8; 1024];
    let (head_end, clen) = loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-response"));
        }
        if buf.is_empty() {
            t_first = now();
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-utf8 head"))?;
            if !head.starts_with("HTTP/1.1 200 ") {
                return Err(bad("status is not 200"));
            }
            let clen = head
                .lines()
                .find_map(|l| {
                    let (n, v) = l.split_once(':')?;
                    n.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse::<usize>().ok())?
                })
                .ok_or_else(|| bad("no Content-Length"))?;
            break (end + 4, clen);
        }
        if buf.len() > 8192 {
            return Err(bad("response head too long"));
        }
    };
    if clen != HTTP_BODY {
        return Err(bad("wrong Content-Length"));
    }
    while buf.len() < head_end + clen {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    if buf.len() != head_end + clen || buf[head_end..] != gen::http_body(key) {
        return Err(bad("wrong body bytes"));
    }
    if traced {
        let (t1, root) = (now(), u64::from(key));
        record(Kind::ClientWrite, root, 0, t0, t_written);
        record(Kind::ClientWait, root, 0, t_written, t_first);
        record(Kind::ClientRead, root, 0, t_first, t1);
        record(Kind::Request, root, 0, t0, t1);
    }
    Ok(())
}

// ------------------------------------------------------------- echo-ult-paced

/// Server side of one echo connection, run as a ULT: the synchronous
/// `read`/`write` calls suspend the ULT in the reactor's ULT wait path.
fn echo_conn(stream: lwt_net::TcpStream) {
    let mut buf = vec![0u8; ECHO_BYTES];
    while stream.read_exact(&mut buf).is_ok() {
        let h0 = now();
        if stream.write_all(&buf).is_err() {
            return;
        }
        if spans::on() {
            let id = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
            record(Kind::Handler, id, 0, h0, now());
        }
    }
}

fn echo_ult_paced(glt: &Glt, plan: &Plan, ready: impl FnOnce()) -> (Raw, Teardown) {
    let listener = Arc::new(lwt_net::TcpListener::bind("127.0.0.1:0").expect("bind"));
    let addr = listener.local_addr().expect("local_addr");
    let acceptor = {
        let (listener, g) = (listener.clone(), glt.clone());
        glt.ult_create(move || {
            let mut conns = Vec::new();
            while let Ok((stream, _peer)) = listener.accept() {
                let _ = stream.set_nodelay(true);
                stream.set_read_timeout(Some(Duration::from_secs(30)));
                conns.push(g.ult_create(move || echo_conn(stream)));
            }
            for c in conns {
                c.join();
            }
        })
    };

    let inputs = gen::echo_payloads(plan.seed, 0)
        .iter()
        .fold(gen::FNV_OFFSET, |h, p| gen::fingerprint(h, p));
    let raw = drive_clients(plan, addr, inputs, ready, |idx, first, t0| {
        echo_client(idx, addr, first, plan, t0)
    });
    let teardown = Box::new(move || {
        listener.shutdown();
        acceptor.join();
    });
    (raw, teardown)
}

/// Exact op counts of a paced slice per connection: (warm-up, measured).
fn echo_ops(plan: &Plan) -> (u64, u64) {
    let per = |d: Duration| (d.as_nanos() / ECHO_PERIOD.as_nanos()) as u64;
    (per(plan.warm), per(plan.measure).max(1))
}

fn echo_client(
    idx: usize,
    addr: std::net::SocketAddr,
    first: std::net::TcpStream,
    plan: &Plan,
    t0: Instant,
) -> ClientOut {
    let (warm_ops, ops) = echo_ops(plan);
    // Spread the connections' send instants evenly over one period.
    let phase = ECHO_PERIOD * idx as u32 / plan.workers as u32;
    let mut payloads = gen::echo_payloads(plan.seed, idx);
    let mut back = vec![0u8; ECHO_BYTES];
    let mut out = ClientOut::default();
    let mut conn = Some(first);
    let mut cpu0 = 0;
    for k in 0..warm_ops + ops {
        let measured = k >= warm_ops;
        if k == warm_ops {
            cpu0 = sys::thread_cpu_ns();
        }
        let due = t0 + phase + ECHO_PERIOD * k as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let sent = Instant::now();
        if measured {
            out.attempted += 1;
            out.late_ns.push((sent - due).as_nanos() as u64);
        }
        if conn.is_none() {
            conn = connect(addr).ok();
        }
        let Some(stream) = conn.as_mut() else {
            continue;
        };
        let id = ((idx as u64) << 32) | k;
        let payload = &mut payloads[k as usize % gen::ECHO_POOL];
        payload[..8].copy_from_slice(&id.to_le_bytes());
        let traced = measured && plan.traced;
        match echo_exchange(stream, payload, &mut back, id, traced) {
            // An open-loop op is timed from when it was due, so a
            // stall is charged to every op it delayed.
            Ok(()) if measured => out.lat_ns.push((Instant::now() - due).as_nanos() as u64),
            Ok(()) => {}
            Err(_) => conn = None,
        }
    }
    out.cpu_ns = sys::thread_cpu_ns() - cpu0;
    out
}

fn echo_exchange(
    stream: &mut std::net::TcpStream,
    payload: &[u8],
    back: &mut [u8],
    id: u64,
    traced: bool,
) -> std::io::Result<()> {
    let t0 = now();
    stream.write_all(payload)?;
    let t_written = now();
    let n = stream.read(back)?;
    if n == 0 {
        return Err(bad("connection closed mid-echo"));
    }
    let t_first = now();
    stream.read_exact(&mut back[n..])?;
    if back != payload {
        return Err(bad("echoed bytes differ"));
    }
    if traced {
        let t1 = now();
        record(Kind::ClientWrite, id, 0, t0, t_written);
        record(Kind::ClientWait, id, 0, t_written, t_first);
        record(Kind::ClientRead, id, 0, t_first, t1);
        record(Kind::Request, id, 0, t0, t1);
    }
    Ok(())
}
