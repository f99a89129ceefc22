//! Cross-backend conformance for the lwt-net serving stack: echo over
//! loopback on every backend from both spawn paths (stackful ULTs and
//! `spawn_async` futures), shutdown semantics (error, not hang), the
//! blocking-read-wedges-worker regression, and the HTTP/1.1 layer.
//!
//! Everything here runs under bounded joins (`join_timeout`) so a
//! reactor bug reads as a test failure, never a hung suite.

use std::sync::Arc;
use std::time::Duration;

use lwt::net::http;
use lwt::net::{TcpListener, TcpStream};
use lwt::{BackendKind, Glt};

const JOIN: Duration = Duration::from_secs(60);

/// Bounded join that panics with context instead of hanging.
fn join_within<T>(h: lwt::GltHandle<T>, what: &str) -> T {
    match h.join_timeout(JOIN) {
        Ok(done) => done.unwrap_or_else(|e| panic!("{what} panicked: {e:?}")),
        Err(_) => panic!("{what} did not finish within {JOIN:?}"),
    }
}

/// Echo server: accept `conns` connections, echo each until EOF, then
/// return. Handlers are ULTs; the acceptor joins them all.
fn echo_server(glt: &Glt, listener: TcpListener, conns: usize) -> lwt::GltHandle<()> {
    let glt2 = glt.clone();
    glt.ult_create(move || {
        let mut handlers = Vec::with_capacity(conns);
        for _ in 0..conns {
            let (stream, _peer) = listener.accept().expect("accept");
            handlers.push(glt2.ult_create(move || {
                let mut buf = [0u8; 512];
                loop {
                    match stream.read(&mut buf).expect("server read") {
                        0 => return,
                        n => stream.write_all(&buf[..n]).expect("server write"),
                    }
                }
            }));
        }
        for h in handlers {
            h.join();
        }
    })
}

#[test]
fn echo_ult_clients_every_backend() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local_addr");
        const N: usize = 8;

        let server = echo_server(&glt, listener, N);
        let clients: Vec<_> = (0..N)
            .map(|i| {
                glt.ult_create(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let msg = format!("hello-{i:04}");
                    stream.write_all(msg.as_bytes()).expect("client write");
                    let mut buf = [0u8; 10];
                    stream.read_exact(&mut buf).expect("client read");
                    assert_eq!(buf, msg.as_bytes(), "echo mismatch on {kind}");
                })
            })
            .collect();
        for c in clients {
            join_within(c, "ULT client");
        }
        join_within(server, "echo server");
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn echo_async_clients_every_backend() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local_addr");
        const N: usize = 8;

        // Fully async server: acceptor task + one task per connection.
        let glt2 = glt.clone();
        let server = glt.spawn_async(async move {
            let mut handlers = Vec::with_capacity(N);
            for _ in 0..N {
                let (stream, _peer) = listener.accept_async().await.expect("accept_async");
                handlers.push(glt2.spawn_async(async move {
                    let mut buf = [0u8; 512];
                    loop {
                        match stream.read_async(&mut buf).await.expect("server read") {
                            0 => return,
                            n => stream
                                .write_all_async(&buf[..n])
                                .await
                                .expect("server write"),
                        }
                    }
                }));
            }
            handlers
        });

        let clients: Vec<_> = (0..N)
            .map(|i| {
                glt.spawn_async(async move {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let msg = format!("async-{i:04}");
                    stream.write_all_async(msg.as_bytes()).await.expect("write");
                    let mut buf = [0u8; 10];
                    stream.read_exact_async(&mut buf).await.expect("read");
                    assert_eq!(buf, msg.as_bytes(), "echo mismatch on {kind}");
                })
            })
            .collect();
        for c in clients {
            join_within(c, "async client");
        }
        for h in join_within(server, "async acceptor") {
            join_within(h, "async handler");
        }
        glt.finalize().expect("clean drain");
    }
}

#[test]
fn accept_after_shutdown_errors_not_hangs() {
    // Sequential: shutdown first, accept after.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.shutdown();
    let err = listener.accept().expect_err("accept after shutdown");
    assert_eq!(err.kind(), std::io::ErrorKind::NotConnected);

    // Concurrent: a ULT already parked in accept must be unstuck by a
    // shutdown from outside, on every backend.
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        let listener = Arc::new(TcpListener::bind("127.0.0.1:0").expect("bind"));
        let inside = Arc::clone(&listener);
        let blocked = glt.ult_create(move || inside.accept().map(|_| ()).expect_err("unblocked"));
        // Give the ULT time to reach the wait; shutdown must wake it
        // whether or not it got there.
        std::thread::sleep(Duration::from_millis(20));
        listener.shutdown();
        let err = join_within(blocked, "blocked accept");
        assert_eq!(err.kind(), std::io::ErrorKind::NotConnected, "on {kind}");
        glt.finalize().expect("clean drain");
    }
}

/// The regression this whole crate exists to prevent: with ONE worker,
/// a ULT waiting on socket data must not wedge the pool — an unrelated
/// unit spawned later must still run, and the reader must resume when
/// bytes arrive.
#[test]
fn reactor_read_does_not_wedge_the_single_worker() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(1).build();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local_addr");

        // External (non-worker) client so no work unit is involved in
        // producing the bytes.
        let client = std::net::TcpStream::connect(addr).expect("connect");
        let (server_stream, _peer) = listener.accept().expect("accept");

        let reader = glt.ult_create(move || {
            let mut buf = [0u8; 8];
            server_stream.read_exact(&mut buf).expect("read_exact");
            buf
        });
        // The canary: must complete while the reader is parked on I/O.
        // (With a blocking read(2) instead of the reactor, the single
        // worker would be wedged and this join would time out.)
        let canary = glt.ult_create(|| 6 * 7);
        assert_eq!(join_within(canary, "canary unit"), 42, "on {kind}");

        use std::io::Write as _;
        (&client).write_all(b"8 bytes!").expect("feed reader");
        assert_eq!(&join_within(reader, "parked reader"), b"8 bytes!", "on {kind}");
        glt.finalize().expect("clean drain");
    }
}

/// Read one full HTTP response (head + Content-Length body) off a
/// stream, returning it as text.
fn read_response(stream: &TcpStream) -> String {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 2048];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4) {
            let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
            let clen: usize = head
                .lines()
                .find_map(|l| {
                    let (n, v) = l.split_once(':')?;
                    n.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().ok())?
                })
                .unwrap_or(0);
            if buf.len() >= head_end + clen {
                return String::from_utf8_lossy(&buf[..head_end + clen]).to_string();
            }
        }
        let n = stream.read(&mut chunk).expect("response read");
        assert_ne!(n, 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn http_keepalive_roundtrips_every_backend() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let server = http::serve(&glt, listener, |req| {
            http::Response::ok(format!("you sent {}", req.target))
                .header("X-Backend-Test", "1")
        })
        .expect("serve");
        let addr = server.addr();

        // Three keep-alive requests on one socket, from a ULT client.
        let client = glt.ult_create(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            for i in 0..3 {
                let req = format!("GET /r{i} HTTP/1.1\r\nHost: t\r\n\r\n");
                stream.write_all(req.as_bytes()).expect("request write");
                let resp = read_response(&stream);
                assert!(resp.starts_with("HTTP/1.1 200 OK"), "on {kind}: {resp}");
                assert!(resp.contains(&format!("you sent /r{i}")), "on {kind}: {resp}");
            }
        });
        join_within(client, "HTTP client");

        // Limits: an oversized header block must come back as 431.
        let client = glt.spawn_async(async move {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut req = b"GET / HTTP/1.1\r\n".to_vec();
            req.extend(std::iter::repeat_n(b'x', 10_000));
            stream.write_all_async(&req).await.expect("write");
            let mut buf = [0u8; 64];
            let n = stream.read_async(&mut buf).await.expect("read");
            String::from_utf8_lossy(&buf[..n]).to_string()
        });
        let resp = join_within(client, "oversized-header client");
        assert!(resp.contains("431"), "on {kind}: {resp}");

        server.shutdown();
        glt.finalize().expect("clean drain");
    }
}

/// The ci/tier1.sh serving smoke: 100 concurrent clients per backend
/// against an echo server, all joins bounded, run with LWT_WATCHDOG=1
/// by the CI stage (which asserts zero stall reports on stderr).
#[test]
fn ci_smoke_100_concurrent_clients_every_backend() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local_addr");
        const N: usize = 100;

        let server = echo_server(&glt, listener, N);
        // Async clients: 100 concurrent parked connections is far past
        // worker count, so most sit in the reactor at any moment.
        let clients: Vec<_> = (0..N)
            .map(|i| {
                glt.spawn_async(async move {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let msg = format!("smoke-{i:06}");
                    stream.write_all_async(msg.as_bytes()).await.expect("write");
                    let mut buf = [0u8; 12];
                    stream.read_exact_async(&mut buf).await.expect("read");
                    assert_eq!(buf, msg.as_bytes());
                })
            })
            .collect();
        for c in clients {
            join_within(c, "smoke client");
        }
        join_within(server, "smoke server");
        glt.finalize().expect("clean drain");
    }
}

// ---------------------------------------------------------------------------
// The single wait path: a blocked ULT is suspended, not spinning
// ---------------------------------------------------------------------------

/// A connected loopback pair: the reactor-registered server side and
/// a plain `std::net` peer that no work unit touches.
fn quiet_pair() -> (TcpStream, std::net::TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let peer = std::net::TcpStream::connect(listener.local_addr().expect("local_addr"))
        .expect("connect");
    let (stream, _) = listener.accept().expect("accept");
    (stream, peer)
}

/// A ULT blocked on a quiet socket costs nothing: no yields, both
/// workers parked, and a peer write resumes it promptly. Counters are
/// process-global, so the body runs in a child process that executes
/// only this test (the other tests here yield in their joins).
#[test]
fn blocked_ult_is_suspended_not_spinning_every_backend() {
    const CHILD: &str = "SERVING_TEST_ISOLATED_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let status = std::process::Command::new(std::env::current_exe().expect("current_exe"))
            .args(["--exact", "blocked_ult_is_suspended_not_spinning_every_backend"])
            .env(CHILD, "1")
            .stdout(std::process::Stdio::null())
            .status()
            .expect("re-exec test binary");
        assert!(status.success(), "isolated child failed: {status}");
        return;
    }
    use std::io::Write as _;
    use std::sync::atomic::{AtomicBool, Ordering};
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        let (stream, peer) = quiet_pair();
        let reading = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&reading);
        let reader = glt.ult_create(move || {
            flag.store(true, Ordering::Release);
            let mut buf = [0u8; 4];
            stream.read_exact(&mut buf).expect("read");
            (buf, std::time::Instant::now())
        });
        while !reading.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // Let the reader reach its wait and the workers go to sleep.
        std::thread::sleep(Duration::from_millis(50));
        let before = lwt::metrics::snapshot().counters;
        std::thread::sleep(Duration::from_millis(100));
        let after = lwt::metrics::snapshot().counters;
        assert_eq!(
            after.delta(&before).yields,
            0,
            "a blocked reader yielded on {kind}: the wait is spinning"
        );
        assert_eq!(
            after.workers_parked_level, 2,
            "workers not parked behind a blocked reader on {kind}"
        );

        let sent = std::time::Instant::now();
        (&peer).write_all(b"wake").expect("peer write");
        let (buf, resumed) = join_within(reader, "suspended reader");
        assert_eq!(&buf, b"wake");
        let took = resumed.duration_since(sent);
        assert!(took < Duration::from_millis(150), "resume took {took:?} on {kind}");
        glt.finalize().expect("clean drain");
    }
}

/// Deadlines reach a suspended ULT: the wheel fires the same waker the
/// reactor would, and the read surfaces `TimedOut`.
#[test]
fn read_timeout_fires_while_suspended_every_backend() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        let (stream, _peer) = quiet_pair();
        stream.set_read_timeout(Some(Duration::from_millis(60)));
        let reader = glt.ult_create(move || {
            let started = std::time::Instant::now();
            let err = stream.read(&mut [0u8; 4]).expect_err("nothing was sent");
            (err.kind(), started.elapsed())
        });
        let (kind_of, elapsed) = join_within(reader, "deadline reader");
        assert_eq!(kind_of, std::io::ErrorKind::TimedOut, "on {kind}");
        assert!(elapsed >= Duration::from_millis(50), "early on {kind}: {elapsed:?}");
        glt.finalize().expect("clean drain");
    }
}

/// `close_wake` from another thread reaches a suspended reader as
/// `NotConnected`.
#[test]
fn close_wake_unblocks_a_suspended_reader_every_backend() {
    for kind in BackendKind::ALL {
        let glt = Glt::builder(kind).workers(2).build();
        let (stream, _peer) = quiet_pair();
        let stream = Arc::new(stream);
        let inside = Arc::clone(&stream);
        let reader =
            glt.ult_create(move || inside.read(&mut [0u8; 4]).expect_err("closed").kind());
        std::thread::sleep(Duration::from_millis(20));
        stream.close_wake();
        let kind_of = join_within(reader, "close-woken reader");
        assert_eq!(kind_of, std::io::ErrorKind::NotConnected, "on {kind}");
        glt.finalize().expect("clean drain");
    }
}

/// The drain contract survives suspension: a reader still blocked at
/// `finalize` sits in no queue, yet the workers neither exit early
/// (stranding its stack silently) nor hang — the drain waits out its
/// deadline and names the suspended unit.
#[test]
fn finalize_reports_a_still_blocked_reader_every_backend() {
    for kind in BackendKind::ALL {
        let deadline = Duration::from_millis(200);
        let glt = Glt::builder(kind).workers(2).drain_timeout(deadline).build();
        let (stream, _peer) = quiet_pair();
        let reader = glt.ult_create(move || stream.read(&mut [0u8; 4]).map(|_| ()));
        std::thread::sleep(Duration::from_millis(20));
        let started = std::time::Instant::now();
        let err = glt.finalize().expect_err("a unit is still blocked");
        let waited = started.elapsed();
        assert!(waited >= deadline, "drain exited early on {kind}: {waited:?}");
        assert!(waited < Duration::from_secs(10), "drain hung on {kind}: {waited:?}");
        let suspended: usize = err
            .stragglers
            .iter()
            .filter(|s| s.what.contains("suspended"))
            .map(|s| s.pending)
            .sum();
        assert_eq!(suspended, 1, "on {kind}: {err}");
        assert!(!reader.is_finished());
    }
}
