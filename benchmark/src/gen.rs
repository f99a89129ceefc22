//! Seeded inputs. Everything the runtimes see — vector contents and
//! scalars, request paths and header mixes, echo payload bytes — is a
//! pure function of `--seed`; the same seed gives the same bytes.

use lwt_core::rng::SplitMix64;

/// Units per `spawn-join-fine` region: exactly the stack cache's
/// default capacity, so the fork stays on the cache-hit path.
pub const FINE_UNITS: usize = 64;
/// `nested-grain` shape: 16 parents x 16 leaves, 1024 floats per leaf,
/// 220 Sscal passes (about 20 us of kernel per leaf).
pub const PARENTS: usize = 16;
pub const LEAVES: usize = 16;
pub const CHUNK: usize = 1024;
pub const PASSES: usize = 220;
pub const HTTP_BODY: usize = 128;
pub const ECHO_BYTES: usize = 16 * 1024;
/// Distinct payloads each echo connection cycles through.
pub const ECHO_POOL: usize = 4;

/// A float in `[lo, lo + width)` from 24 random bits.
fn float(rng: &mut SplitMix64, lo: f32, width: f32) -> f32 {
    lo + width * ((rng.next_u64() >> 40) as f32 / (1u32 << 24) as f32)
}

/// `spawn-join-fine`: 64 vector elements and the Sscal scalar.
pub fn fine(seed: u64) -> (Vec<f32>, f32) {
    let mut rng = SplitMix64::new(seed ^ 0xF1E0);
    let contents = (0..FINE_UNITS).map(|_| float(&mut rng, 0.5, 1.0)).collect();
    (contents, float(&mut rng, 0.25, 3.75))
}

/// `nested-grain`: the 256-chunk input vector and a scalar close
/// enough to 1 that 220 passes neither overflow nor flush to zero.
pub fn nested(seed: u64) -> (Vec<f32>, f32) {
    let mut rng = SplitMix64::new(seed ^ 0x9E57ED);
    let input = (0..PARENTS * LEAVES * CHUNK)
        .map(|_| float(&mut rng, 0.5, 1.0))
        .collect();
    (input, float(&mut rng, 0.999, 0.002))
}

/// The key of request `seq` on connection `conn`: a bijection of the
/// pair, so no two requests of a slice share a key, scrambled by the
/// seed so the paths differ between seeds.
pub fn http_key(seed: u64, conn: usize, seq: u32) -> u32 {
    (((conn as u32) << 27) | (seq & 0x07FF_FFFF)).wrapping_mul(0x9E37_79B1) ^ (seed as u32)
}

/// Write request `key` into `out`: `GET /k/<key>` plus zero to four
/// extra headers of varying length, chosen by the key.
pub fn http_request(key: u32, out: &mut Vec<u8>) {
    use std::io::Write as _;
    let mut rng = SplitMix64::new(u64::from(key));
    out.clear();
    write!(out, "GET /k/{key} HTTP/1.1\r\nHost: bench\r\n").expect("vec write");
    for j in 0..rng.next_u64() % 5 {
        let pad = rng.next_u64();
        let width = 4 + (pad % 13) as usize;
        write!(out, "X-Pad-{j}: {pad:0width$x}\r\n").expect("vec write");
    }
    out.extend_from_slice(b"\r\n");
}

/// The 128 body bytes the server must answer `key` with.
pub fn http_body(key: u32) -> [u8; HTTP_BODY] {
    let mut rng = SplitMix64::new(u64::from(key) ^ 0xB0D7);
    let mut body = [0u8; HTTP_BODY];
    for word in body.chunks_exact_mut(8) {
        word.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    body
}

/// The payload pool of echo connection `conn`. The first eight bytes
/// of a payload are overwritten with the op id before each send.
pub fn echo_payloads(seed: u64, conn: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed ^ 0xEC40 ^ ((conn as u64) << 32));
    (0..ECHO_POOL)
        .map(|_| {
            let mut p = Vec::with_capacity(ECHO_BYTES);
            while p.len() < ECHO_BYTES {
                p.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            p
        })
        .collect()
}

/// FNV-1a over input bytes: the fingerprint a run prints so two runs
/// with one seed can be shown to have had identical inputs.
pub fn fingerprint(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

pub fn fingerprint_f32(hash: u64, values: &[f32]) -> u64 {
    values
        .iter()
        .fold(hash, |h, v| fingerprint(h, &v.to_le_bytes()))
}
