//! A minimal HTTP/1.1 server on the GLT API: bounded request parser,
//! keep-alive connection loop, and a `serve` entry point that runs the
//! same handler on any of the five backends.
//!
//! Deliberately small — request line + headers + `Content-Length`
//! bodies, no chunked encoding, no TLS — but production-shaped where
//! it matters for a runtime study: every limit is enforced *before*
//! buffering (oversized headers get `431`, oversized bodies `413`),
//! connections are keep-alive by default so a load generator can
//! drive many requests per socket, and each connection is one async
//! task (`Glt::spawn_async`), so ten thousand idle connections cost
//! ten thousand parked task cells — not ten thousand stacks, and not
//! one wedged worker.
//!
//! Production-shaped also means *overload-shaped* (DESIGN.md §16).
//! [`ServerConfig`] carries the knobs, each with an `LWT_NET_*` env
//! override; under rising load the server degrades in a fixed order —
//! pause accepting at the connection cap (kernel backlog absorbs the
//! burst), shed requests over the in-flight cap with `503` +
//! `Retry-After`, and on [`ServerHandle::shutdown`] drain in-flight
//! work up to a grace period before aborting stragglers with a
//! flight-recorder bundle. Slow peers are bounded by timer-wheel
//! deadlines (idle, header/slow-loris → `408`, per-read body/write),
//! and a panicking handler costs one connection (`500` + close),
//! never a worker thread.

use std::io;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Poll, Waker};
use std::time::{Duration, Instant};

use lwt_chaos::{should_inject, FaultSite};
use lwt_core::Glt;
use lwt_metrics::{emit, EventKind, COUNTERS};
use lwt_sync::SpinLock;

use crate::reactor::Registration;
use crate::tcp::{TcpListener, TcpStream, TimerGuard};

/// Parser and buffering limits for one connection.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes in the request line + headers block (the bytes up
    /// to and including the `\r\n\r\n`). Exceeding it: `431`.
    pub max_head_bytes: usize,
    /// Maximum number of header lines. Exceeding it: `431`.
    pub max_headers: usize,
    /// Maximum `Content-Length` accepted. Exceeding it: `413`.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 8 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method token, as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target (`/path?query`).
    pub target: String,
    /// Header name/value pairs, in wire order.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
    keep_alive: bool,
}

impl Request {
    /// First header value whose name matches case-insensitively.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection stays open after this exchange
    /// (HTTP/1.1 default unless `Connection: close`).
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        self.keep_alive
    }
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    status: u16,
    reason: &'static str,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    /// Start from a status code (reason phrase filled for the common
    /// ones).
    #[must_use]
    pub fn new(status: u16) -> Response {
        Response {
            status,
            reason: reason_phrase(status),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Shorthand for a `200 OK` with `body`.
    #[must_use]
    pub fn ok(body: impl Into<Vec<u8>>) -> Response {
        let mut r = Response::new(200);
        r.body = body.into();
        r
    }

    /// Append a header.
    #[must_use]
    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Replace the body.
    #[must_use]
    pub fn body(mut self, body: impl Into<Vec<u8>>) -> Response {
        self.body = body.into();
        self
    }

    /// The status code.
    #[must_use]
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Serialize head + body to wire bytes. `Content-Length` and
    /// `Connection` are emitted by the server loop, not stored.
    fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(
            format!("HTTP/1.1 {} {}\r\n", self.status, self.reason).as_bytes(),
        );
        for (n, v) in &self.headers {
            out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        if !keep_alive {
            out.extend_from_slice(b"Connection: close\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Outcome of one parse attempt over the connection buffer.
#[derive(Debug)]
pub enum Parse {
    /// A full request: the parsed value plus bytes consumed from the
    /// buffer (head + body).
    Complete(Box<Request>, usize),
    /// Need more bytes.
    Partial,
    /// Malformed or over-limit input; respond with this status and
    /// close.
    Reject(u16),
}

/// Try to parse one request from the front of `buf`. Pure function of
/// the bytes — both the sync and async connection loops drive it.
#[must_use]
pub fn parse_request(buf: &[u8], limits: &Limits) -> Parse {
    let head_end = match find_head_end(buf) {
        Some(i) => i,
        None => {
            return if buf.len() > limits.max_head_bytes {
                Parse::Reject(431)
            } else {
                Parse::Partial
            }
        }
    };
    if head_end > limits.max_head_bytes {
        return Parse::Reject(431);
    }
    let head = match std::str::from_utf8(&buf[..head_end - 4]) {
        Ok(s) => s,
        Err(_) => return Parse::Reject(400),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && !t.is_empty() && parts.next().is_none() => {
            (m, t, v)
        }
        _ => return Parse::Reject(400),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Parse::Reject(400);
    }

    let mut headers = Vec::new();
    for line in lines {
        if headers.len() >= limits.max_headers {
            return Parse::Reject(431);
        }
        let (name, value) = match line.split_once(':') {
            Some(nv) => nv,
            None => return Parse::Reject(400),
        };
        if name.is_empty() || name.contains(' ') {
            return Parse::Reject(400);
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let content_length = match header_of(&headers, "content-length") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Parse::Reject(400),
        },
        None => 0,
    };
    if content_length > limits.max_body_bytes {
        return Parse::Reject(413);
    }
    let total = head_end + content_length;
    if buf.len() < total {
        return Parse::Partial;
    }

    let keep_alive = match header_of(&headers, "connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };
    Parse::Complete(
        Box::new(Request {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            body: buf[head_end..total].to_vec(),
            keep_alive,
        }),
        total,
    )
}

fn header_of<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The request handler: borrow a request, build a response. Shared by
/// every connection task, so it must be `Send + Sync`.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Overload-control knobs for one server (DESIGN.md §16). Every field
/// has an environment override so deployed binaries can be retuned
/// without a rebuild; `0` always means "unlimited" / "no deadline".
///
/// Degradation order under rising load: **pause accepting** (kernel
/// backlog absorbs the burst) → **shed requests with `503 +
/// Retry-After`** (cheap, byte-correct rejection) → **drain-abort on
/// shutdown** (stragglers cut after the grace period, with a flight-
/// recorder bundle for the post-mortem).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Parser and buffering limits per connection.
    pub limits: Limits,
    /// Hard cap on concurrently served connections; at the cap the
    /// acceptor pauses (new connections wait in the kernel backlog)
    /// instead of oversubscribing. Env: `LWT_NET_MAX_CONNS`.
    pub max_conns: usize,
    /// Cap on requests simultaneously inside handlers; excess
    /// requests are shed with `503` + `Retry-After: 1` without
    /// touching the handler. Env: `LWT_NET_MAX_INFLIGHT`.
    pub max_inflight: usize,
    /// Per-read deadline for request *body* bytes, ms. A mid-body
    /// stall past this gets `408` and the connection closed. Env:
    /// `LWT_NET_READ_TIMEOUT_MS`.
    pub read_timeout_ms: u64,
    /// Per-write deadline for response bytes, ms (slow-reader
    /// protection; an expired write abandons the connection). Env:
    /// `LWT_NET_WRITE_TIMEOUT_MS`.
    pub write_timeout_ms: u64,
    /// Absolute deadline for receiving one complete request head,
    /// armed at the first header byte — the slow-loris defense:
    /// trickling one byte per second cannot extend it. Expiry: `408`.
    /// Env: `LWT_NET_HEADER_TIMEOUT_MS`.
    pub header_timeout_ms: u64,
    /// Keep-alive idle deadline between requests, ms; expiry closes
    /// the connection quietly (no response — nothing was asked).
    /// Env: `LWT_NET_IDLE_TIMEOUT_MS`.
    pub idle_timeout_ms: u64,
    /// Grace period [`ServerHandle::shutdown`] waits for in-flight
    /// requests before aborting stragglers. Env:
    /// `LWT_NET_DRAIN_TIMEOUT_MS`.
    pub drain_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            limits: Limits::default(),
            max_conns: 4096,
            max_inflight: 1024,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            header_timeout_ms: 10_000,
            idle_timeout_ms: 60_000,
            drain_timeout_ms: 5_000,
        }
    }
}

impl ServerConfig {
    /// The defaults with any `LWT_NET_*` environment overrides
    /// applied (see the per-field docs). Unparsable values fall back
    /// to the default rather than erroring — a typo in an env var
    /// must not take the server down.
    #[must_use]
    pub fn from_env() -> ServerConfig {
        let d = ServerConfig::default();
        ServerConfig {
            limits: d.limits,
            max_conns: env_usize("LWT_NET_MAX_CONNS", d.max_conns),
            max_inflight: env_usize("LWT_NET_MAX_INFLIGHT", d.max_inflight),
            read_timeout_ms: env_u64("LWT_NET_READ_TIMEOUT_MS", d.read_timeout_ms),
            write_timeout_ms: env_u64("LWT_NET_WRITE_TIMEOUT_MS", d.write_timeout_ms),
            header_timeout_ms: env_u64("LWT_NET_HEADER_TIMEOUT_MS", d.header_timeout_ms),
            idle_timeout_ms: env_u64("LWT_NET_IDLE_TIMEOUT_MS", d.idle_timeout_ms),
            drain_timeout_ms: env_u64("LWT_NET_DRAIN_TIMEOUT_MS", d.drain_timeout_ms),
        }
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn ms_opt(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// A running HTTP server: an acceptor work unit plus one async task
/// per live connection, all spawned through the given [`Glt`].
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    listener_stop: Arc<dyn Fn() + Send + Sync>,
    conns: Arc<SpinLock<Vec<Weak<Registration>>>>,
    active: Arc<AtomicUsize>,
    inflight: Arc<AtomicUsize>,
    unanswered: Arc<AtomicUsize>,
    stopping: Arc<AtomicBool>,
    accept_waker: AcceptWaker,
    drain_timeout_ms: u64,
    acceptor: lwt_core::GltHandle<()>,
}

/// Where the acceptor parks its waker while paused at the connection
/// cap; whoever frees a slot (or starts the shutdown) fires it.
type AcceptWaker = Arc<SpinLock<Option<Waker>>>;

fn fire(slot: &AcceptWaker) {
    let parked = slot.lock().take();
    if let Some(w) = parked {
        w.wake();
    }
}

impl ServerHandle {
    /// The address the server is listening on.
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    #[must_use]
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Requests currently inside handlers.
    #[must_use]
    pub fn inflight_requests(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Graceful drain with the configured
    /// [`drain_timeout_ms`](ServerConfig::drain_timeout_ms) grace
    /// period — see [`shutdown_within`](Self::shutdown_within).
    pub fn shutdown(self) {
        let grace = Duration::from_millis(self.drain_timeout_ms);
        self.shutdown_within(grace);
    }

    /// Graceful drain: stop accepting (and join the acceptor), let
    /// in-flight requests finish for up to `grace`, then abort the
    /// stragglers — every remaining connection is unstuck (its next
    /// I/O returns `NotConnected`, ending the task) and, when any
    /// request was still running, a flight-recorder bundle
    /// (`serve_drain_abort`) captures the state for the post-mortem.
    ///
    /// Keep-alive connections are told `Connection: close` on their
    /// next response once draining starts, so a cooperative client
    /// converges well before the deadline.
    pub fn shutdown_within(self, grace: Duration) {
        self.stopping.store(true, Ordering::SeqCst);
        fire(&self.accept_waker);
        (self.listener_stop)();
        self.acceptor.join();
        let deadline = Instant::now() + grace;
        while self.unanswered.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            // Polite wait: yield the work unit when called from one,
            // the thread otherwise (shutdown is control-plane code —
            // a relax loop here is fine).
            if !lwt_core::yield_unit() {
                std::thread::yield_now();
            }
        }
        if self.unanswered.load(Ordering::Acquire) > 0 {
            lwt_metrics::flightrec::dump("serve_drain_abort");
        }
        for weak in self.conns.lock().drain(..) {
            if let Some(reg) = weak.upgrade() {
                reg.close_wake();
            }
        }
    }
}

/// Serve `handler` on `listener`, spawning the acceptor as a ULT and
/// each connection as an async task on `glt`.
/// [`ServerConfig::from_env`] supplies the overload knobs.
///
/// The returned handle borrows nothing from `glt` — but every spawned
/// unit lives in that runtime, so call [`ServerHandle::shutdown`]
/// before `Glt::finalize`, or finalize will report the acceptor as a
/// straggler.
pub fn serve(
    glt: &Glt,
    listener: TcpListener,
    handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
) -> io::Result<ServerHandle> {
    serve_config(glt, listener, ServerConfig::from_env(), Arc::new(handler))
}

/// [`serve`] with a fully explicit [`ServerConfig`] (no env reads).
pub fn serve_config(
    glt: &Glt,
    listener: TcpListener,
    config: ServerConfig,
    handler: Handler,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let listener = Arc::new(listener);
    let stop_listener = Arc::clone(&listener);
    let conns: Arc<SpinLock<Vec<Weak<Registration>>>> = Arc::new(SpinLock::new(Vec::new()));
    let active = Arc::new(AtomicUsize::new(0));
    let inflight = Arc::new(AtomicUsize::new(0));
    let unanswered = Arc::new(AtomicUsize::new(0));
    let stopping = Arc::new(AtomicBool::new(false));
    let accept_waker = AcceptWaker::default();

    let acceptor = {
        let glt2 = glt.clone();
        let conns = Arc::clone(&conns);
        let active = Arc::clone(&active);
        let inflight = Arc::clone(&inflight);
        let unanswered = Arc::clone(&unanswered);
        let stopping = Arc::clone(&stopping);
        let accept_waker = Arc::clone(&accept_waker);
        glt.ult_create(move || loop {
            // Admission, stage 1: at the connection cap, stop calling
            // accept — the kernel backlog absorbs the burst and the
            // load generator sees queueing, not errors. One pause
            // event per episode, however long it lasts, and the paused
            // acceptor is suspended, not spinning: it parks its waker
            // (publish, then re-check) for the connection task that
            // frees a slot, or the shutdown, to fire.
            let open = || {
                active.load(Ordering::Acquire) < config.max_conns
                    || stopping.load(Ordering::Acquire)
            };
            if config.max_conns > 0 && !open() {
                COUNTERS.accept_pauses.inc();
                lwt_core::block_unit_on(|cx| {
                    if open() {
                        return Poll::Ready(());
                    }
                    *accept_waker.lock() = Some(cx.waker().clone());
                    if open() {
                        Poll::Ready(())
                    } else {
                        Poll::Pending
                    }
                });
                if stopping.load(Ordering::Acquire) {
                    return;
                }
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    stream.set_read_timeout(ms_opt(config.read_timeout_ms));
                    stream.set_write_timeout(ms_opt(config.write_timeout_ms));
                    {
                        // Track the registration so shutdown can
                        // unstick the connection; compact dead slots
                        // opportunistically to keep the list bounded
                        // by the number of *live* connections.
                        let mut lock = conns.lock();
                        if lock.len() == lock.capacity() {
                            lock.retain(|w| w.upgrade().is_some());
                        }
                        lock.push(Arc::downgrade(stream.registration()));
                    }
                    active.fetch_add(1, Ordering::Release);
                    let active = Arc::clone(&active);
                    let handler = Arc::clone(&handler);
                    let inflight = Arc::clone(&inflight);
                    let unanswered = Arc::clone(&unanswered);
                    let stopping = Arc::clone(&stopping);
                    let accept_waker = Arc::clone(&accept_waker);
                    drop(glt2.spawn_async(async move {
                        let ctx = ConnCtx {
                            stream: &stream,
                            config: &config,
                            handler: &handler,
                            inflight: &inflight,
                            unanswered: &unanswered,
                            stopping: &stopping,
                        };
                        let _ = connection_loop(&ctx).await;
                        active.fetch_sub(1, Ordering::Release);
                        fire(&accept_waker);
                    }));
                }
                // NotConnected = shutdown; anything else on a listener
                // (EMFILE under fd pressure) also ends the acceptor
                // rather than spinning on a broken socket.
                Err(_) => return,
            }
        })
    };

    Ok(ServerHandle {
        addr,
        listener_stop: Arc::new(move || stop_listener.shutdown()),
        conns,
        active,
        inflight,
        unanswered,
        stopping,
        accept_waker,
        drain_timeout_ms: config.drain_timeout_ms,
        acceptor,
    })
}

/// Counts a request as unanswered from handler entry through the
/// response write — [`ServerHandle::shutdown_within`]'s drain wait
/// counts the response bytes as part of the request, so a draining
/// server never cuts a reply mid-write. The admission slot
/// (`inflight`) is narrower: it is given back when the handler
/// returns, *before* the write, so a client that has read a reply can
/// rely on the slot that request held being free again.
struct UnansweredGuard<'a>(&'a AtomicUsize);

impl<'a> UnansweredGuard<'a> {
    fn enter(count: &'a AtomicUsize) -> Self {
        count.fetch_add(1, Ordering::AcqRel);
        UnansweredGuard(count)
    }
}

impl Drop for UnansweredGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Shared state one connection task needs from its server.
struct ConnCtx<'a> {
    stream: &'a TcpStream,
    config: &'a ServerConfig,
    handler: &'a Handler,
    inflight: &'a AtomicUsize,
    unanswered: &'a AtomicUsize,
    stopping: &'a AtomicBool,
}

/// Write a terminal error response, then linger: half-close the write
/// side and drain (briefly) whatever the client was still sending, so
/// the kernel never turns unread bytes into an RST that destroys the
/// in-flight response — a trickling slow-loris client must actually
/// *see* its `408`.
async fn write_final(stream: &TcpStream, resp: &Response) -> io::Result<()> {
    stream.write_all_async(&resp.to_bytes(false)).await?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 1024];
    let mut linger = TimerGuard::new(1_000);
    while let Ok(n) = stream.read_async_deadline(&mut scratch, &mut linger).await {
        if n == 0 {
            break;
        }
    }
    Ok(())
}

/// Yield the async task once — used by the `NetReadStall` chaos site
/// to stretch a server read across scheduler turns.
async fn yield_task() {
    let mut yielded = false;
    std::future::poll_fn(move |cx| {
        if yielded {
            std::task::Poll::Ready(())
        } else {
            yielded = true;
            cx.waker().wake_by_ref();
            std::task::Poll::Pending
        }
    })
    .await;
}

/// One connection's keep-alive loop: parse, handle, respond, repeat —
/// under the full overload contract (DESIGN.md §16): in-flight
/// shedding with `503`, handler panic isolation (`500` + close),
/// idle/header/body deadlines, drain cooperation.
async fn connection_loop(ctx: &ConnCtx<'_>) -> io::Result<()> {
    let cfg = ctx.config;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // Absolute per-request-head deadline; armed by the first wait for
    // more header bytes, cancelled (by replacement) when the head
    // completes.
    let mut head_timer = TimerGuard::new(cfg.header_timeout_ms);
    loop {
        match parse_request(&buf, &cfg.limits) {
            Parse::Complete(req, consumed) => {
                head_timer = TimerGuard::new(cfg.header_timeout_ms);
                buf.drain(..consumed);
                // Drain cooperation: once shutdown starts, answer this
                // request but tell the client the connection is done.
                let keep = req.keep_alive() && !ctx.stopping.load(Ordering::Acquire);

                // Admission, stage 2: bounded in-flight requests. Over
                // the cap the request is shed *before* the handler
                // runs — a 503 costs one buffered write, and
                // `Retry-After` steers well-behaved clients into
                // backoff instead of a tight retry loop.
                if cfg.max_inflight > 0
                    && ctx.inflight.fetch_add(1, Ordering::AcqRel) >= cfg.max_inflight
                {
                    ctx.inflight.fetch_sub(1, Ordering::AcqRel);
                    COUNTERS.requests_shed.inc();
                    emit(EventKind::RequestShed, 0);
                    let resp = Response::new(503).header("Retry-After", "1");
                    ctx.stream.write_all_async(&resp.to_bytes(keep)).await?;
                    if !keep {
                        return Ok(());
                    }
                    continue;
                }
                if cfg.max_inflight == 0 {
                    ctx.inflight.fetch_add(1, Ordering::AcqRel);
                }
                let _unanswered = UnansweredGuard::enter(ctx.unanswered);

                // Panic isolation: a panicking handler must cost one
                // connection, never a worker thread. The hook already
                // printed the panic message; the client gets a clean
                // 500 and a close (the connection's request state is
                // suspect after a half-run handler).
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    if should_inject(FaultSite::HandlerPanic) {
                        panic!("lwt-chaos: injected handler panic");
                    }
                    (ctx.handler)(&req)
                }));
                ctx.inflight.fetch_sub(1, Ordering::AcqRel);
                match result {
                    Ok(resp) => {
                        ctx.stream.write_all_async(&resp.to_bytes(keep)).await?;
                        if should_inject(FaultSite::NetConnKill) {
                            // Chaos: drop the connection right after a
                            // complete response — the client sees a
                            // byte-correct reply then a close.
                            ctx.stream.close_wake();
                            return Ok(());
                        }
                        if !keep {
                            return Ok(());
                        }
                    }
                    Err(_) => {
                        COUNTERS.handler_panics.inc();
                        emit(EventKind::HandlerPanic, 0);
                        write_final(ctx.stream, &Response::new(500)).await?;
                        return Ok(());
                    }
                }
            }
            Parse::Partial => {
                if should_inject(FaultSite::NetReadStall) {
                    // Chaos: stretch this read across scheduler turns,
                    // as a slow or stalled peer would.
                    for _ in 0..8 {
                        yield_task().await;
                    }
                }
                let n = if buf.is_empty() {
                    // Between requests: idle deadline; expiry closes
                    // quietly — nothing was asked, nothing is owed.
                    let mut idle = TimerGuard::new(cfg.idle_timeout_ms);
                    match ctx
                        .stream
                        .read_async_deadline(&mut chunk, &mut idle)
                        .await
                    {
                        Ok(n) => n,
                        Err(e) if e.kind() == io::ErrorKind::TimedOut => return Ok(()),
                        Err(e) => return Err(e),
                    }
                } else if find_head_end(&buf).is_none() {
                    // Mid-head: the absolute header deadline (armed
                    // once, spanning every read of this head) expires
                    // into a 408 — the slow-loris answer.
                    match ctx
                        .stream
                        .read_async_deadline(&mut chunk, &mut head_timer)
                        .await
                    {
                        Ok(n) => n,
                        Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                            let _ = write_final(ctx.stream, &Response::new(408)).await;
                            return Ok(());
                        }
                        Err(e) => return Err(e),
                    }
                } else {
                    // Head complete, awaiting body bytes: the
                    // per-stream read timeout (set at accept) bounds
                    // each read.
                    match ctx.stream.read_async(&mut chunk).await {
                        Ok(n) => n,
                        Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                            let _ = write_final(ctx.stream, &Response::new(408)).await;
                            return Ok(());
                        }
                        Err(e) => return Err(e),
                    }
                };
                if n == 0 {
                    // Clean EOF between requests; mid-request EOF just
                    // ends the task (nobody is left to read an error).
                    return Ok(());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Parse::Reject(status) => {
                write_final(ctx.stream, &Response::new(status)).await?;
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(raw: &[u8]) -> Parse {
        parse_request(raw, &Limits::default())
    }

    #[test]
    fn parses_a_get_with_headers() {
        let raw = b"GET /hello?x=1 HTTP/1.1\r\nHost: a\r\nX-Trace: 7\r\n\r\n";
        match req(raw) {
            Parse::Complete(r, consumed) => {
                assert_eq!(consumed, raw.len());
                assert_eq!(r.method, "GET");
                assert_eq!(r.target, "/hello?x=1");
                assert_eq!(r.header("x-trace"), Some("7"));
                assert!(r.keep_alive());
                assert!(r.body.is_empty());
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn body_follows_content_length_and_pipelines() {
        let raw = b"POST /e HTTP/1.1\r\nContent-Length: 4\r\n\r\nwxyzGET / HTTP/1.1\r\n\r\n";
        match req(raw) {
            Parse::Complete(r, consumed) => {
                assert_eq!(r.body, b"wxyz");
                // Second pipelined request still in the buffer.
                match parse_request(&raw[consumed..], &Limits::default()) {
                    Parse::Complete(r2, _) => assert_eq!(r2.target, "/"),
                    other => panic!("expected Complete, got {other:?}"),
                }
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn partial_until_blank_line_and_full_body() {
        assert!(matches!(req(b"GET / HTTP/1.1\r\nHost:"), Parse::Partial));
        assert!(matches!(
            req(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort"),
            Parse::Partial
        ));
    }

    #[test]
    fn connection_close_and_http10_default() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        match req(raw) {
            Parse::Complete(r, _) => assert!(!r.keep_alive()),
            other => panic!("{other:?}"),
        }
        match req(b"GET / HTTP/1.0\r\n\r\n") {
            Parse::Complete(r, _) => assert!(!r.keep_alive()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn limits_are_enforced() {
        // Header block too large: reject even before the blank line.
        let mut big = b"GET / HTTP/1.1\r\n".to_vec();
        big.extend(std::iter::repeat_n(b'a', 9000));
        assert!(matches!(req(&big), Parse::Reject(431)));

        // Too many header lines.
        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..100 {
            many.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert!(matches!(req(&many), Parse::Reject(431)));

        // Declared body over the cap.
        let huge = b"POST / HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n";
        assert!(matches!(req(huge), Parse::Reject(413)));
    }

    #[test]
    fn malformed_requests_are_400() {
        assert!(matches!(req(b"BROKEN\r\n\r\n"), Parse::Reject(400)));
        assert!(matches!(req(b"GET / HTTP/9.9\r\n\r\n"), Parse::Reject(400)));
        assert!(matches!(
            req(b"GET / HTTP/1.1\r\nno-colon-line\r\n\r\n"),
            Parse::Reject(400)
        ));
        assert!(matches!(
            req(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Parse::Reject(400)
        ));
    }

    #[test]
    fn response_wire_format() {
        let bytes = Response::ok("hi").header("X-K", "v").to_bytes(true);
        let s = String::from_utf8(bytes).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("X-K: v\r\n"));
        assert!(s.contains("Content-Length: 2\r\n"));
        assert!(s.ends_with("\r\n\r\nhi"));
        let closed = String::from_utf8(Response::new(404).to_bytes(false)).unwrap();
        assert!(closed.contains("Connection: close\r\n"));
        assert!(closed.contains("404 Not Found"));
    }
}
