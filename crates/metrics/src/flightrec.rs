//! Post-mortem flight recorder: bounded diagnostic bundles on stall
//! or drain failure.
//!
//! When the watchdog flags a stall or `Glt::finalize` returns a
//! `DrainError`, the triggering layer calls [`dump`], which writes a
//! single JSON bundle to `target/lwt-flightrec/<unix_ms>-<n>-<reason>.json`:
//! the last-N events of every worker ring, the full counter
//! snapshot, the worker utilization table, and any registered
//! *sections* (the watchdog's blocked-unit report, the chaos engine's
//! seed/site state — pushed in by those crates via
//! [`register_section`], keeping the dependency arrow pointing into
//! this crate). A hung-under-load run becomes an artifact you can
//! diff and replay (`LWT_CHAOS_SEED` is in the bundle) instead of a
//! stderr line.
//!
//! Everything is bounded: dumps are off unless `LWT_FLIGHTREC` is
//! set (one relaxed load), capped at `LWT_FLIGHTREC_MAX` bundles per
//! process (default 8), and each ring contributes at most
//! `LWT_FLIGHTREC_EVENTS` events (default 256). `LWT_FLIGHTREC_DIR`
//! overrides the output directory.

use crate::registry::{self, CounterSnapshot};
use crate::timeline;
use crate::trace::json_escape;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Default per-process dump cap (`LWT_FLIGHTREC_MAX`).
pub const DEFAULT_MAX_DUMPS: u64 = 8;
/// Default retained events per ring (`LWT_FLIGHTREC_EVENTS`).
pub const DEFAULT_EVENTS_PER_RING: usize = 256;

/// 0 = uninitialized (consult `LWT_FLIGHTREC`), 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether the flight recorder is armed: one relaxed load, with
/// `LWT_FLIGHTREC` consulted once on first call (unset, empty, or
/// `0` ⇒ off).
#[inline]
#[must_use]
pub fn flightrec_enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = matches!(std::env::var("LWT_FLIGHTREC"), Ok(v) if !v.is_empty() && v != "0");
    let _ = ENABLED.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    ENABLED.load(Ordering::Relaxed) == 2
}

type SectionFn = Box<dyn Fn() -> String + Send>;

/// Named bundle sections contributed by higher layers. Each provider
/// must return a **pre-rendered JSON value** (object/array/string);
/// it is embedded verbatim under `"sections"`.
static SECTIONS: Mutex<Vec<(String, SectionFn)>> = Mutex::new(Vec::new());

fn lock_sections() -> MutexGuard<'static, Vec<(String, SectionFn)>> {
    SECTIONS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Register (or replace) a named bundle section. Higher layers call
/// this once at arm time — e.g. lwt-chaos registers `"watchdog"`
/// (blocked-unit report) and `"chaos"` (seed/rate/site sequences).
pub fn register_section(name: &str, provider: impl Fn() -> String + Send + 'static) {
    let mut sections = lock_sections();
    if let Some(slot) = sections.iter_mut().find(|(n, _)| n == name) {
        slot.1 = Box::new(provider);
    } else {
        sections.push((name.to_string(), Box::new(provider)));
    }
}

/// Monotone dump counter: rate cap plus filename uniqueness.
static DUMPS: AtomicU64 = AtomicU64::new(0);

fn max_dumps() -> u64 {
    static MAX: OnceLock<u64> = OnceLock::new();
    *MAX.get_or_init(|| {
        std::env::var("LWT_FLIGHTREC_MAX")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_MAX_DUMPS)
    })
}

fn events_per_ring() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("LWT_FLIGHTREC_EVENTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&v| v > 0)
            .unwrap_or(DEFAULT_EVENTS_PER_RING)
    })
}

fn destination_dir() -> PathBuf {
    std::env::var("LWT_FLIGHTREC_DIR").map_or_else(
        |_| PathBuf::from("target").join("lwt-flightrec"),
        PathBuf::from,
    )
}

fn counters_json(c: &CounterSnapshot) -> String {
    format!(
        "{{\"ults_created\":{},\"tasklets_created\":{},\"yields\":{},\"wait_blocks\":{},\
         \"steal_attempts\":{},\"steal_hits\":{},\"os_threads_spawned\":{},\
         \"feb_blocks\":{},\"feb_wakes\":{},\"messages_executed\":{},\
         \"nested_regions\":{},\"nested_pool_level\":{},\
         \"nested_pool_high_water\":{},\"stack_cache_hits\":{},\
         \"stack_cache_misses\":{},\"queue_contention\":{},\
         \"faults_injected\":{},\"stalls_detected\":{},\"parks\":{},\
         \"unparks\":{},\"workers_parked_level\":{},\
         \"workers_parked_high_water\":{},\"ring_dropped\":{},\
         \"io_registrations\":{},\"io_events\":{},\"io_wakes\":{},\
         \"timers_armed\":{},\"timers_fired\":{},\"timers_cancelled\":{},\
         \"io_timeouts\":{},\"requests_shed\":{},\"handler_panics\":{},\
         \"accept_pauses\":{}}}",
        c.ults_created,
        c.tasklets_created,
        c.yields,
        c.wait_blocks,
        c.steal_attempts,
        c.steal_hits,
        c.os_threads_spawned,
        c.feb_blocks,
        c.feb_wakes,
        c.messages_executed,
        c.nested_regions,
        c.nested_pool_level,
        c.nested_pool_high_water,
        c.stack_cache_hits,
        c.stack_cache_misses,
        c.queue_contention,
        c.faults_injected,
        c.stalls_detected,
        c.parks,
        c.unparks,
        c.workers_parked_level,
        c.workers_parked_high_water,
        c.ring_dropped,
        c.io_registrations,
        c.io_events,
        c.io_wakes,
        c.timers_armed,
        c.timers_fired,
        c.timers_cancelled,
        c.io_timeouts,
        c.requests_shed,
        c.handler_panics,
        c.accept_pauses,
    )
}

/// Render the full bundle as a JSON document. Public for tests; use
/// [`dump`] in production paths.
#[must_use]
pub fn render_bundle(reason: &str) -> String {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let mut out = String::with_capacity(16 * 1024);
    out.push_str(&format!(
        "{{\n\"reason\":\"{}\",\n\"unix_ms\":{unix_ms},\n",
        json_escape(reason)
    ));
    out.push_str(&format!(
        "\"counters\":{},\n",
        counters_json(&registry::snapshot().counters)
    ));
    out.push_str(&format!(
        "\"utilization\":{},\n",
        timeline::utilization().to_json()
    ));
    out.push_str("\"rings\":[");
    let cap = events_per_ring();
    for (i, ring) in registry::rings().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let events = ring.snapshot();
        let tail = &events[events.len().saturating_sub(cap)..];
        out.push_str(&format!(
            "\n{{\"worker\":{},\"label\":\"{}\",\"pushed\":{},\"dropped\":{},\"events\":[",
            ring.worker(),
            json_escape(ring.label()),
            ring.pushed(),
            ring.dropped(),
        ));
        for (j, e) in tail.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"ts_ns\":{},\"kind\":\"{}\",\"arg\":{},\"span\":{}}}",
                e.ts_ns,
                e.kind.name(),
                e.arg,
                e.span
            ));
        }
        out.push_str("]}");
    }
    out.push_str("],\n\"sections\":{");
    for (i, (name, provider)) in lock_sections().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n\"{}\":{}", json_escape(name), provider()));
    }
    out.push_str("}\n}\n");
    out
}

/// Write a bundle for `reason` into `dir`. Bypasses the enable gate
/// and rate cap (those live in [`dump`]); the sequence number still
/// advances so filenames stay unique.
pub fn dump_to(dir: &std::path::Path, reason: &str) -> std::io::Result<PathBuf> {
    let seq = DUMPS.fetch_add(1, Ordering::Relaxed);
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let slug: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .take(32)
        .collect();
    let path = dir.join(format!("{unix_ms}-{seq}-{slug}.json"));
    std::fs::create_dir_all(dir)?;
    std::fs::write(&path, render_bundle(reason))?;
    Ok(path)
}

/// Dump a post-mortem bundle if the recorder is armed and the
/// per-process cap hasn't been hit. Returns the path on success;
/// `None` when disarmed, capped, or on a write error (reported to
/// stderr — a recorder failure must never take the workload down).
pub fn dump(reason: &str) -> Option<PathBuf> {
    if !flightrec_enabled() {
        return None;
    }
    if DUMPS.load(Ordering::Relaxed) >= max_dumps() {
        return None;
    }
    match dump_to(&destination_dir(), reason) {
        Ok(path) => {
            eprintln!("lwt-flightrec: wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("lwt-flightrec: dump failed: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn bundle_has_required_keys_and_registered_sections() {
        register_section("test_section", || "{\"answer\":42}".to_string());
        // Re-registering replaces, not duplicates.
        register_section("test_section", || "{\"answer\":43}".to_string());
        registry::emit(EventKind::Yield, 0); // ring exists iff tracing on
        let bundle = render_bundle("unit \"test\"");
        for key in [
            "\"reason\":", "\"unix_ms\":", "\"counters\":", "\"utilization\":",
            "\"rings\":", "\"sections\":",
        ] {
            assert!(bundle.contains(key), "missing {key} in {bundle}");
        }
        assert!(bundle.contains("unit \\\"test\\\""), "reason must be escaped");
        assert!(bundle.contains("\"test_section\":{\"answer\":43}"));
        assert!(!bundle.contains("\"answer\":42"));
        assert!(bundle.contains("\"ring_dropped\":"));
        assert_eq!(
            bundle.matches("\"test_section\"").count(),
            1,
            "replaced section must appear once"
        );
    }

    #[test]
    fn dump_to_writes_a_file_with_unique_names() {
        let dir = std::env::temp_dir().join("lwt-flightrec-test");
        let a = dump_to(&dir, "reason one").expect("write");
        let b = dump_to(&dir, "reason one").expect("write");
        assert_ne!(a, b, "sequence number must keep filenames unique");
        let body = std::fs::read_to_string(&a).expect("read back");
        assert!(body.contains("\"reason\":\"reason one\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
