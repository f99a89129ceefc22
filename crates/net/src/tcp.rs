//! Nonblocking TCP sockets whose waits suspend the calling work unit
//! instead of wedging its worker.
//!
//! Both types follow the same discipline (DESIGN.md §15): the socket
//! lives in nonblocking mode from birth, every operation is tried
//! optimistically, and a `WouldBlock` parks the caller's waker on the
//! reactor and suspends the caller — an async task returns `Pending`,
//! a stackful ULT is taken off every queue, a plain thread turns the
//! reactor itself if nobody else does, else parks. It is one code path
//! ([`poll_op`]); the plain methods are that poll driven by
//! `lwt_core::block_unit_on` in a ULT and by
//! `lwt_sched::block_thread_on_io` on a plain thread. The same
//! `TcpStream` therefore
//! serves both spawn paths of the GLT API: `Glt::ult_create` closures
//! call the plain methods, `Glt::spawn_async` futures call the
//! `*_async` methods.

use std::io::{self, Read as _, Write as _};
use std::net::{self, SocketAddr, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;

use lwt_chaos::{block_enter, should_inject, BlockKind, FaultSite};
use lwt_sched::TimerEntry;

use crate::reactor::{closed_error, reactor, Dir, Registration};

fn would_block() -> io::Error {
    io::Error::new(io::ErrorKind::WouldBlock, "lwt-chaos: injected EAGAIN")
}

/// The deadline of one logical I/O op: `delay_ms` from the op's first
/// *wait* (0 = none). Armed lazily — an op that finds its socket ready
/// never touches the wheel, on either spawn path — and at most once:
/// the entry covers the whole op, not each retry (the HTTP server
/// leans on this for its absolute header deadline, passing one guard
/// across every read of a request head). Dropping the guard cancels
/// the entry, the overwhelmingly common case; cancelling a fired
/// entry is a harmless no-op.
pub(crate) struct TimerGuard {
    delay_ms: u64,
    entry: Option<Arc<TimerEntry>>,
}

impl TimerGuard {
    pub(crate) fn new(delay_ms: u64) -> TimerGuard {
        TimerGuard {
            delay_ms,
            entry: None,
        }
    }

    /// The armed entry, arming it on first call; `None` when the op
    /// has no deadline.
    fn armed(&mut self) -> Option<&TimerEntry> {
        if self.entry.is_none() && self.delay_ms > 0 {
            self.entry = Some(reactor().arm_timer_ms(self.delay_ms));
        }
        self.entry.as_deref()
    }
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        if let Some(t) = &self.entry {
            t.cancel();
        }
    }
}

/// `None` → 0 (wait forever); `Some(d)` → `d` in ms, rounded up to
/// the 1 ms wheel tick so a nonzero timeout is never silently
/// dropped.
fn timeout_to_ms(timeout: Option<Duration>) -> u64 {
    timeout.map_or(0, |d| {
        u64::try_from(d.as_millis()).unwrap_or(u64::MAX).max(1)
    })
}

fn ms_to_timeout(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Injected short write: cut the buffer to a nonempty prefix, exactly
/// as a full kernel send buffer would.
fn chaos_cut(len: usize) -> usize {
    if len > 1 && should_inject(FaultSite::NetPartialWrite) {
        len.div_ceil(2)
    } else {
        len
    }
}

/// Synchronous flavor of [`poll_op`] for ULTs and plain threads: the
/// same poll, driven by `lwt_core::block_unit_on` in a ULT, which
/// suspends the calling unit (not its worker) on every `Pending` until
/// the waker parked by the poll fires — readiness, deadline or close
/// alike. A plain thread runs it under `lwt_sched::block_thread_on_io`
/// instead, which holds the reactor's driver role while it waits if
/// the role is free: in a process with no runtime it is the only
/// driver. A wait that actually suspends registers with the stall
/// watchdog.
fn sync_op<T>(
    reg: &Registration,
    dir: Dir,
    timeout_ms: u64,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut timer = TimerGuard::new(timeout_ms);
    let mut watch = None;
    let poll = |cx: &mut Context<'_>| {
        let polled = poll_op(reg, dir, cx, &mut timer, &mut op);
        if polled.is_pending() && watch.is_none() {
            watch = block_enter(BlockKind::Io, reg.wait_arg(dir));
        }
        polled
    };
    if lwt_ultcore::in_ult() {
        lwt_core::block_unit_on(poll)
    } else {
        lwt_sched::block_thread_on_io(poll)
    }
}

/// The retry loop behind every socket operation: try `op`, consume the
/// readiness edge on `WouldBlock`, wait for the next one, repeat. See
/// DESIGN.md §15 for why the clear is followed by one immediate retry.
/// The `timer` is owned by the caller (it must span every poll of one
/// logical op, so it cannot live here) and is armed by the first wait.
fn poll_op<T>(
    reg: &Registration,
    dir: Dir,
    cx: &mut Context<'_>,
    timer: &mut TimerGuard,
    mut op: impl FnMut() -> io::Result<T>,
) -> Poll<io::Result<T>> {
    loop {
        if reg.is_closed() {
            return Poll::Ready(Err(closed_error()));
        }
        let injected = should_inject(FaultSite::NetSpuriousEagain);
        let first = if injected { Err(would_block()) } else { op() };
        match first {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !injected {
                    // A real EAGAIN consumes the kernel edge; the
                    // re-check + retry close the window where an edge
                    // landed between the failed syscall and the clear.
                    if reg.clear_ready(dir) {
                        continue;
                    }
                    match op() {
                        Err(e2) if e2.kind() == io::ErrorKind::WouldBlock => {}
                        done => return Poll::Ready(done),
                    }
                }
                // Injected EAGAINs leave the ready flag up, so this
                // wait returns immediately: a delay, never a stall.
                match reg.poll_ready_deadline(dir, cx, timer.armed()) {
                    Poll::Ready(Ok(())) => {}
                    Poll::Ready(Err(e)) => return Poll::Ready(Err(e)),
                    Poll::Pending => return Poll::Pending,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            done => return Poll::Ready(done),
        }
    }
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

/// A TCP listener registered with the reactor: `accept` suspends the
/// calling work unit until a connection is pending (it never blocks
/// the worker thread).
///
/// # Examples
///
/// A one-connection echo server, runnable from any context (here the
/// test's own thread; under a runtime, put the same code in a
/// `Glt::ult_create` closure):
///
/// ```
/// use lwt_net::TcpListener;
///
/// let listener = TcpListener::bind("127.0.0.1:0").unwrap();
/// let addr = listener.local_addr().unwrap();
///
/// let client = std::thread::spawn(move || {
///     use std::io::{Read, Write};
///     let mut s = std::net::TcpStream::connect(addr).unwrap();
///     s.write_all(b"ping").unwrap();
///     let mut buf = [0u8; 4];
///     s.read_exact(&mut buf).unwrap();
///     buf
/// });
///
/// // The echo loop: read until EOF, write every byte back.
/// let (stream, _peer) = listener.accept().unwrap();
/// let mut buf = [0u8; 64];
/// let n = stream.read(&mut buf).unwrap();
/// stream.write_all(&buf[..n]).unwrap();
///
/// assert_eq!(&client.join().unwrap(), b"ping");
/// ```
pub struct TcpListener {
    inner: net::TcpListener,
    reg: Arc<Registration>,
}

impl TcpListener {
    /// Bind to `addr` (standard `ToSocketAddrs` forms; port 0 picks a
    /// free port) and register with the reactor. Creates the reactor
    /// on first use anywhere in the process.
    ///
    /// ```
    /// let listener = lwt_net::TcpListener::bind("127.0.0.1:0").unwrap();
    /// assert_ne!(listener.local_addr().unwrap().port(), 0);
    /// ```
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<TcpListener> {
        let inner = net::TcpListener::bind(addr)?;
        inner.set_nonblocking(true)?;
        let reg = reactor().register(inner.as_raw_fd())?;
        Ok(TcpListener { inner, reg })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Accept one connection, suspending the calling work unit until
    /// one is pending. Returns [`closed_error`]-flavored
    /// `ErrorKind::NotConnected` after [`shutdown`](Self::shutdown) —
    /// including for waits already in flight when the shutdown lands.
    pub fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        let (stream, peer) = sync_op(&self.reg, Dir::Read, 0, || self.inner.accept())?;
        Ok((TcpStream::from_std(stream)?, peer))
    }

    /// Poll-flavored [`accept`](Self::accept) for manual future
    /// implementations.
    pub fn poll_accept(&self, cx: &mut Context<'_>) -> Poll<io::Result<(TcpStream, SocketAddr)>> {
        let mut no_deadline = TimerGuard::new(0);
        match poll_op(&self.reg, Dir::Read, cx, &mut no_deadline, || self.inner.accept()) {
            Poll::Ready(Ok((stream, peer))) => {
                Poll::Ready(TcpStream::from_std(stream).map(|s| (s, peer)))
            }
            Poll::Ready(Err(e)) => Poll::Ready(Err(e)),
            Poll::Pending => Poll::Pending,
        }
    }

    /// Async [`accept`](Self::accept) for `Glt::spawn_async` tasks:
    /// returns `Pending` until the reactor observes a pending
    /// connection, rewaking through the task's waker.
    pub async fn accept_async(&self) -> io::Result<(TcpStream, SocketAddr)> {
        std::future::poll_fn(|cx| self.poll_accept(cx)).await
    }

    /// Shut the listener down: every blocked or future `accept`
    /// returns `ErrorKind::NotConnected` instead of hanging, and the
    /// socket leaves the reactor's interest set. Idempotent.
    pub fn shutdown(&self) {
        reactor().deregister(&self.reg);
    }
}

impl Drop for TcpListener {
    fn drop(&mut self) {
        reactor().deregister(&self.reg);
    }
}

impl std::fmt::Debug for TcpListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpListener")
            .field("addr", &self.inner.local_addr().ok())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// TcpStream
// ---------------------------------------------------------------------------

/// A nonblocking TCP stream registered with the reactor. Reads and
/// writes suspend the calling work unit (never its worker thread)
/// until the kernel reports readiness.
///
/// ## Deadlines
///
/// [`set_read_timeout`](Self::set_read_timeout) /
/// [`set_write_timeout`](Self::set_write_timeout) bound every
/// *individual* read/write (sync and async flavors alike) by arming
/// an entry on the process timer wheel: when the wheel fires first,
/// the op fails with `ErrorKind::TimedOut` and the socket stays
/// usable. Composite helpers (`read_exact`, `write_all`) apply the
/// timeout per underlying op, so their total wall time is bounded by
/// `timeout × chunks`, matching `std::net` semantics. The deadline
/// runs from the op's first wait: the fast path (data already
/// available) never touches the wheel.
pub struct TcpStream {
    inner: net::TcpStream,
    reg: Arc<Registration>,
    /// Per-op deadlines in ms; 0 = wait forever (the default).
    read_timeout_ms: AtomicU64,
    write_timeout_ms: AtomicU64,
}

impl TcpStream {
    /// Connect to `addr` and register with the reactor.
    ///
    /// The connect itself uses the std blocking path — on the loopback
    /// and datacenter round trips this stack targets it completes in
    /// one syscall — and the socket is nonblocking from then on.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<TcpStream> {
        TcpStream::from_std(net::TcpStream::connect(addr)?)
    }

    /// Adopt an already-connected std stream (accepted or connected
    /// elsewhere), flipping it to nonblocking and registering it.
    pub fn from_std(inner: net::TcpStream) -> io::Result<TcpStream> {
        inner.set_nonblocking(true)?;
        let reg = reactor().register(inner.as_raw_fd())?;
        Ok(TcpStream {
            inner,
            reg,
            read_timeout_ms: AtomicU64::new(0),
            write_timeout_ms: AtomicU64::new(0),
        })
    }

    /// Bound every subsequent read by `timeout`: once it elapses with
    /// the socket still dry, the read fails with
    /// `ErrorKind::TimedOut`. `None` (the default) waits forever;
    /// sub-millisecond timeouts round up to 1 ms (the wheel tick).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) {
        self.read_timeout_ms
            .store(timeout_to_ms(timeout), Ordering::Relaxed);
    }

    /// Bound every subsequent write by `timeout` (see
    /// [`set_read_timeout`](Self::set_read_timeout)).
    pub fn set_write_timeout(&self, timeout: Option<Duration>) {
        self.write_timeout_ms
            .store(timeout_to_ms(timeout), Ordering::Relaxed);
    }

    /// The configured read deadline, if any.
    #[must_use]
    pub fn read_timeout(&self) -> Option<Duration> {
        ms_to_timeout(self.read_timeout_ms.load(Ordering::Relaxed))
    }

    /// The configured write deadline, if any.
    #[must_use]
    pub fn write_timeout(&self) -> Option<Duration> {
        ms_to_timeout(self.write_timeout_ms.load(Ordering::Relaxed))
    }

    /// Read into `buf`, suspending until at least one byte (or EOF,
    /// returning `Ok(0)`) is available — bounded by the configured
    /// read timeout, if any.
    pub fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        let ms = self.read_timeout_ms.load(Ordering::Relaxed);
        sync_op(&self.reg, Dir::Read, ms, || (&self.inner).read(buf))
    }

    /// Read exactly `buf.len()` bytes; `ErrorKind::UnexpectedEof` if
    /// the peer closes first.
    pub fn read_exact(&self, buf: &mut [u8]) -> io::Result<()> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.read(&mut buf[filled..])? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-message",
                    ))
                }
                n => filled += n,
            }
        }
        Ok(())
    }

    /// Write from `buf`, suspending until the kernel accepts at least
    /// one byte. May write fewer than `buf.len()` bytes — both because
    /// the send buffer filled and under injected `NetPartialWrite`
    /// chaos — so most callers want [`write_all`](Self::write_all).
    pub fn write(&self, buf: &[u8]) -> io::Result<usize> {
        let ms = self.write_timeout_ms.load(Ordering::Relaxed);
        sync_op(&self.reg, Dir::Write, ms, || {
            (&self.inner).write(&buf[..chaos_cut(buf.len())])
        })
    }

    /// Write the whole buffer, resuming from every short write.
    pub fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        let mut sent = 0;
        while sent < buf.len() {
            match self.write(&buf[sent..])? {
                0 => return Err(io::ErrorKind::WriteZero.into()),
                n => sent += n,
            }
        }
        Ok(())
    }

    /// Poll-flavored [`read`](Self::read). Poll methods carry no
    /// deadline — a per-poll call cannot own the wheel entry that must
    /// span the whole logical op. Manual futures that want one should
    /// hold a [`TimerGuard`]-style entry themselves; the `async`
    /// wrappers below do exactly that.
    pub fn poll_read(&self, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
        self.poll_read_deadline(cx, buf, &mut TimerGuard::new(0))
    }

    /// Poll-flavored [`write`](Self::write) (same short-write caveat).
    pub fn poll_write(&self, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
        self.poll_write_deadline(cx, buf, &mut TimerGuard::new(0))
    }

    /// [`poll_read`](Self::poll_read) bounded by a deadline owned by
    /// the caller (it must span every poll of the op).
    fn poll_read_deadline(
        &self,
        cx: &mut Context<'_>,
        buf: &mut [u8],
        timer: &mut TimerGuard,
    ) -> Poll<io::Result<usize>> {
        poll_op(&self.reg, Dir::Read, cx, timer, || (&self.inner).read(buf))
    }

    /// [`poll_write`](Self::poll_write) with a caller-owned deadline.
    fn poll_write_deadline(
        &self,
        cx: &mut Context<'_>,
        buf: &[u8],
        timer: &mut TimerGuard,
    ) -> Poll<io::Result<usize>> {
        poll_op(&self.reg, Dir::Write, cx, timer, || {
            (&self.inner).write(&buf[..chaos_cut(buf.len())])
        })
    }

    /// Async [`read`](Self::read) for `spawn_async` tasks — bounded by
    /// the configured read timeout, if any (the future owns the
    /// deadline for the duration of the op; dropping the future
    /// cancels it).
    pub async fn read_async(&self, buf: &mut [u8]) -> io::Result<usize> {
        let mut timer = TimerGuard::new(self.read_timeout_ms.load(Ordering::Relaxed));
        self.read_async_deadline(buf, &mut timer).await
    }

    /// [`read_async`](Self::read_async) bounded by a caller-owned
    /// deadline *instead of* the stream's own read timeout — the HTTP
    /// server's absolute header/idle deadlines use this.
    pub(crate) async fn read_async_deadline(
        &self,
        buf: &mut [u8],
        timer: &mut TimerGuard,
    ) -> io::Result<usize> {
        std::future::poll_fn(move |cx| self.poll_read_deadline(cx, &mut *buf, &mut *timer)).await
    }

    /// Async [`read_exact`](Self::read_exact).
    pub async fn read_exact_async(&self, buf: &mut [u8]) -> io::Result<()> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.read_async(&mut buf[filled..]).await? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-message",
                    ))
                }
                n => filled += n,
            }
        }
        Ok(())
    }

    /// Async [`write`](Self::write) (short writes possible) — bounded
    /// by the configured write timeout, if any.
    pub async fn write_async(&self, buf: &[u8]) -> io::Result<usize> {
        let mut timer = TimerGuard::new(self.write_timeout_ms.load(Ordering::Relaxed));
        std::future::poll_fn(move |cx| self.poll_write_deadline(cx, buf, &mut timer)).await
    }

    /// Async [`write_all`](Self::write_all).
    pub async fn write_all_async(&self, buf: &[u8]) -> io::Result<()> {
        let mut sent = 0;
        while sent < buf.len() {
            match self.write_async(&buf[sent..]).await? {
                0 => return Err(io::ErrorKind::WriteZero.into()),
                n => sent += n,
            }
        }
        Ok(())
    }

    /// The peer's address.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.peer_addr()
    }

    /// The local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Disable Nagle's algorithm (on by default for the serving
    /// stack's request/response pattern — call with `false` to restore
    /// coalescing).
    pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
        self.inner.set_nodelay(nodelay)
    }

    /// Half- or full-close via the kernel (`shutdown(2)`). Unlike
    /// [`close_wake`-style shutdown](crate::http::ServerHandle), this
    /// is about signaling the peer; local waiters wake through the
    /// resulting `EPOLLHUP`/`EPOLLRDHUP` edge.
    pub fn shutdown(&self, how: net::Shutdown) -> io::Result<()> {
        self.inner.shutdown(how)
    }

    /// Force every current and future operation on this stream to
    /// return `ErrorKind::NotConnected`, waking blocked waiters. Used
    /// by the HTTP server's shutdown to unstick keep-alive readers.
    pub fn close_wake(&self) {
        self.reg.close_wake();
    }

    pub(crate) fn registration(&self) -> &Arc<Registration> {
        &self.reg
    }
}

impl Drop for TcpStream {
    fn drop(&mut self) {
        reactor().deregister(&self.reg);
    }
}

impl std::fmt::Debug for TcpStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpStream")
            .field("local", &self.inner.local_addr().ok())
            .field("peer", &self.inner.peer_addr().ok())
            .finish_non_exhaustive()
    }
}
