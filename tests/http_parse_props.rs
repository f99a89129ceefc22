//! Property tests for the HTTP/1.1 request parser (`lwt::net::http`),
//! the one state machine here that eats untrusted bytes: it never
//! panics, it answers `Partial` exactly while a valid request is still
//! arriving, and over-limit input is rejected with its status, never
//! left waiting for more bytes.

use lwt_check::{check, prop_assert, prop_assert_eq, range, vec_of};

use lwt::net::http::{parse_request, Limits, Parse};

/// Bytes that steer the parser down its interesting paths. Generated
/// byte indices pick from these first, then from the whole byte range.
const STEERING: &[u8] = b"\r\n\r\n: GET /HTTP/1.0Content-Length0123456789-+ connection:close\xff";

/// Limits small enough that random input reaches every one of them.
const SMALL: Limits = Limits {
    max_head_bytes: 64,
    max_headers: 4,
    max_body_bytes: 32,
};

fn outcome(p: &Parse) -> String {
    match p {
        Parse::Complete(_, n) => format!("Complete(consumed {n})"),
        Parse::Partial => "Partial".to_string(),
        Parse::Reject(s) => format!("Reject({s})"),
    }
}

/// Index `i` of a generated byte: the steering set first, then raw
/// bytes.
fn byte(i: u16) -> u8 {
    STEERING
        .get(usize::from(i))
        .copied()
        .unwrap_or((i % 256) as u8)
}

#[test]
fn arbitrary_bytes_never_panic() {
    let len = STEERING.len() as u16 + 256;
    check(
        "parse arbitrary bytes",
        512,
        vec_of(range(0..len), 0..200),
        |raw| {
            let buf: Vec<u8> = raw.iter().map(|&i| byte(i)).collect();
            for limits in [SMALL, Limits::default()] {
                if let Parse::Complete(_, n) = parse_request(&buf, &limits) {
                    prop_assert!(n <= buf.len(), "consumed {n} of {} bytes", buf.len());
                }
            }
            Ok(())
        },
    );
}

#[test]
fn lengths_around_the_head_limit_land_on_the_right_side() {
    // A request line, then filler up to a few bytes either side of
    // the limit, with and without the head terminator.
    check(
        "parse near max_head_bytes",
        256,
        (range(0usize..9), range(0u8..3), range(0u16..256)),
        |&(delta, ending, fill)| {
            let limits = Limits::default();
            let total = limits.max_head_bytes - 4 + delta;
            let mut buf = b"GET / HTTP/1.1\r\nX-Fill: ".to_vec();
            let end: &[u8] = match ending {
                0 => b"\r\n\r\n",
                1 => b"\r\n",
                _ => b"",
            };
            buf.resize(total - end.len(), byte(fill).max(b'!'));
            buf.extend_from_slice(end);
            let got = parse_request(&buf, &limits);
            let want = if buf.len() > limits.max_head_bytes {
                "Reject(431)".to_string()
            } else if ending != 0 {
                "Partial".to_string()
            } else if byte(fill).is_ascii() {
                format!("Complete(consumed {})", buf.len())
            } else {
                "Reject(400)".to_string()
            };
            prop_assert_eq!(outcome(&got), want, "{} bytes, ending {ending}", buf.len());
            Ok(())
        },
    );
}

const METHODS: [&str; 4] = ["GET", "POST", "PUT", "DELETE"];
/// Header names a generated request may use; `Content-Length` is
/// added separately so the body always matches it.
const NAMES: [&str; 5] = ["Host", "Accept", "X-Trace", "User-Agent", "Connection"];
const TOKEN: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_.~";

fn token(raw: &[u8]) -> String {
    raw.iter()
        .map(|&i| char::from(TOKEN[usize::from(i) % TOKEN.len()]))
        .collect()
}

/// A well-formed request: method, path, version, headers (name index,
/// value characters) and body bytes. Returns the wire bytes.
fn request(method: usize, path: &[u8], headers: &[(usize, Vec<u8>)], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{} /{} HTTP/1.1\r\n", METHODS[method], token(path)).into_bytes();
    for (name, value) in headers {
        out.extend_from_slice(format!("{}: {}\r\n", NAMES[*name], token(value)).as_bytes());
    }
    if !body.is_empty() {
        out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

#[test]
fn every_strict_prefix_of_a_valid_request_is_partial() {
    let strategy = (
        (range(0usize..METHODS.len()), vec_of(range(0u8..64), 0..16)),
        vec_of(
            (range(0usize..NAMES.len()), vec_of(range(0u8..64), 0..12)),
            0..6,
        ),
        vec_of(range(0u8..255), 0..48),
    );
    check(
        "valid request prefixes",
        256,
        strategy,
        |((method, path), headers, body)| {
            let wire = request(*method, path, headers, body);
            let limits = Limits::default();
            for cut in 0..wire.len() {
                let got = parse_request(&wire[..cut], &limits);
                prop_assert!(
                    matches!(got, Parse::Partial),
                    "prefix of {cut}/{} bytes: {}",
                    wire.len(),
                    outcome(&got)
                );
            }
            match parse_request(&wire, &limits) {
                Parse::Complete(req, consumed) => {
                    prop_assert_eq!(consumed, wire.len());
                    prop_assert_eq!(req.method.as_str(), METHODS[*method]);
                    prop_assert_eq!(req.target, format!("/{}", token(path)));
                    prop_assert_eq!(&req.body, body);
                }
                other => return Err(format!("whole request: {}", outcome(&other))),
            }
            Ok(())
        },
    );
}

#[test]
fn over_limit_heads_header_counts_and_bodies_are_rejected() {
    let strategy = (range(1usize..200), range(1usize..6), range(1u64..1_000_000));
    check(
        "over-limit requests",
        256,
        strategy,
        |&(excess, extra_headers, extra_len)| {
            // A head `excess` bytes past the limit: 431, complete or not,
            // and so is every prefix already past the limit.
            let mut head = b"GET / HTTP/1.1\r\nX-Fill: ".to_vec();
            head.resize(SMALL.max_head_bytes + excess - 4, b'f');
            head.extend_from_slice(b"\r\n\r\n");
            for cut in SMALL.max_head_bytes + 1..=head.len() {
                let got = parse_request(&head[..cut], &SMALL);
                prop_assert!(
                    matches!(got, Parse::Reject(431)),
                    "{cut}-byte head over a {}-byte limit: {}",
                    SMALL.max_head_bytes,
                    outcome(&got)
                );
            }

            // More header lines than allowed, in a head that fits: 431.
            let mut many = b"GET / HTTP/1.1\r\n".to_vec();
            for i in 0..SMALL.max_headers + extra_headers {
                many.extend_from_slice(format!("H{i}:\r\n").as_bytes());
            }
            many.extend_from_slice(b"\r\n");
            let limits = Limits {
                max_head_bytes: many.len(),
                ..SMALL
            };
            let got = parse_request(&many, &limits);
            prop_assert!(
                matches!(got, Parse::Reject(431)),
                "too many headers: {}",
                outcome(&got)
            );

            // A Content-Length past the cap: 413 before any body arrives.
            let len = SMALL.max_body_bytes as u64 + extra_len;
            let big = format!("POST / HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
            let got = parse_request(big.as_bytes(), &SMALL);
            prop_assert!(
                matches!(got, Parse::Reject(413)),
                "length {len}: {}",
                outcome(&got)
            );
            Ok(())
        },
    );
}
