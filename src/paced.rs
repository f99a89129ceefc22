//! A paced keep-alive probe: an HTTP server whose every response is the
//! one-byte body `k`, and one plain `std::net` client sending it GETs on
//! a fixed schedule — a mostly idle server, where what a wait policy
//! costs between requests shows. `idle_cpu`'s `+paced` rows and
//! `tests/idle_budget.rs` both drive it.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use lwt_core::Glt;
use lwt_net::{http, TcpListener};

/// Unmeasured requests that let the workers settle into the rhythm.
pub const WARM_UP: u32 = 20;
/// Measured requests per paced run.
pub const REQUESTS: u32 = 200;
/// Time between request starts.
pub const PERIOD: Duration = Duration::from_millis(2);

const REQUEST: &[u8] = b"GET /paced HTTP/1.1\r\nHost: t\r\n\r\n";

/// Serve `k` to every request on an ephemeral loopback port of `glt`.
///
/// # Panics
/// If the listener cannot be bound or served.
#[must_use]
pub fn serve(glt: &Glt) -> http::ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    http::serve(glt, listener, |_| http::Response::ok("k")).expect("serve")
}

/// One keep-alive connection to a [`serve`]d server.
#[derive(Debug)]
pub struct PacedClient {
    stream: TcpStream,
    response: Vec<u8>,
}

impl PacedClient {
    /// Connect, with Nagle off and a 5 s read timeout.
    ///
    /// # Panics
    /// If the connection cannot be made or configured.
    #[must_use]
    pub fn connect(addr: SocketAddr) -> PacedClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        PacedClient {
            stream,
            response: Vec::new(),
        }
    }

    /// One request and its whole response.
    ///
    /// # Panics
    /// On an I/O error, a closed connection or a response other than
    /// `200 OK`.
    pub fn roundtrip(&mut self) {
        self.stream.write_all(REQUEST).expect("request write");
        self.response.clear();
        let mut chunk = [0u8; 256];
        loop {
            let head = self.response.windows(4).position(|w| w == b"\r\n\r\n");
            // The body is the one byte `k`.
            if head.is_some_and(|end| self.response.len() > end + 4) {
                assert!(self.response.starts_with(b"HTTP/1.1 200 OK"), "bad response");
                return;
            }
            let n = self.stream.read(&mut chunk).expect("response read");
            assert_ne!(n, 0, "server closed mid-response");
            self.response.extend_from_slice(&chunk[..n]);
        }
    }

    /// [`WARM_UP`] requests, then [`REQUESTS`] measured ones, each
    /// starting [`PERIOD`] after the one before. `probe` is read just
    /// before the first measured request and after the last; returns
    /// both readings.
    pub fn paced<T>(&mut self, mut probe: impl FnMut() -> T) -> (T, T) {
        let t0 = Instant::now();
        let mut start = None;
        for k in 0..WARM_UP + REQUESTS {
            if k == WARM_UP {
                start = Some(probe());
            }
            std::thread::sleep((t0 + PERIOD * k).saturating_duration_since(Instant::now()));
            self.roundtrip();
        }
        (start.expect("REQUESTS > 0"), probe())
    }
}
