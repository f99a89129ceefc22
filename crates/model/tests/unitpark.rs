//! Model-checked unit suspension: the *real* [`UnitPark`] handshake
//! from `lwt-sched` (routed through its `sysapi` facade onto the
//! `lwt-model` shims) explored under the deterministic scheduler.
//!
//! Every blocking wait of a stackful unit, on any backend —
//! `lwt_core::block_unit_on` over `lwt_ultcore::suspend` — rests on
//! this one word. The unit publishes its waker, re-checks its
//! condition, and switches away; `park` runs *after* the switch, on
//! whatever code gained control, while the waker may call `unpark` at
//! any point: before the park, in the middle of the switch, after it,
//! or more than once. Two properties make that safe:
//!
//! 1. **no lost wake** — an unpark that follows the condition's
//!    publication either finds the unit parked (and requeues it) or
//!    leaves a token the park consumes (and the parker requeues), and
//! 2. **one requeue per suspension** — never two queue entries for one
//!    saved context.
//!
//! Build and run with:
//! `RUSTFLAGS="--cfg lwt_model" cargo test -p lwt-model --test unitpark`
#![cfg(lwt_model)]

use std::sync::Arc;

use lwt_model::sync::atomic::{AtomicBool, Ordering};
use lwt_model::thread;
use lwt_model::Checker;
use lwt_sched::UnitPark;

fn quick() -> Checker {
    Checker::new()
        .preemptions(2)
        .max_executions(400_000)
        .time_budget_ms(45_000)
}

/// Awaken-before-park: the wake fully precedes the suspension. The
/// token must survive until the park and make it return at once, and
/// must be consumed by it — the *next* park really parks.
#[test]
fn awaken_before_park_leaves_a_token_for_exactly_one_park() {
    quick().check(|| {
        let park = Arc::new(UnitPark::new());
        let p2 = Arc::clone(&park);
        let waker = thread::spawn(move || p2.unpark());
        let waker_requeues = waker.join();
        assert!(!waker_requeues, "nobody was parked: nothing to requeue");
        assert!(!park.park(), "early wake lost: unit parked anyway");
        assert!(park.park(), "token not consumed: second park skipped");
        assert!(park.unpark(), "a parked unit must be handed to its waker");
    });
}

/// Awaken-during-switch — the race the whole wait path reduces to. The
/// waker raises the condition and then unparks; the unit re-checks the
/// condition and, seeing nothing, parks. In every interleaving either
/// the unit sees the condition, or exactly one side owns the requeue:
/// the waker (it found the unit parked) or the parker (it found the
/// token). "Parked, and the waker walked away" is the lost wake.
#[test]
fn awaken_racing_the_post_switch_park_is_never_lost() {
    quick().check(|| {
        let park = Arc::new(UnitPark::new());
        let ready = Arc::new(AtomicBool::new(false));
        let (p2, r2) = (Arc::clone(&park), Arc::clone(&ready));
        let waker = thread::spawn(move || {
            r2.store(true, Ordering::Release);
            p2.unpark()
        });

        // The unit: waker already published; re-check, then suspend.
        let saw_ready = ready.load(Ordering::Acquire);
        let parked = !saw_ready && park.park();

        let waker_requeues = waker.join();
        if saw_ready {
            assert!(!waker_requeues, "requeued a unit that never suspended");
        } else {
            assert_eq!(
                parked, waker_requeues,
                "parked={parked} but waker_requeues={waker_requeues}: \
                 a lost wake (true/false) or a double requeue (false/true)"
            );
        }
    });
}

/// Double-awaken: an I/O edge and a deadline (or a stale waker left in
/// a slot) fire around one suspension. However the three interleave,
/// one suspension produces exactly one requeue — and whatever token is
/// left over wakes a later park early instead of corrupting it.
#[test]
fn double_awaken_requeues_exactly_once() {
    quick().check(|| {
        let park = Arc::new(UnitPark::new());
        let (p2, p3) = (Arc::clone(&park), Arc::clone(&park));
        let w1 = thread::spawn(move || p2.unpark());
        let w2 = thread::spawn(move || p3.unpark());

        let parked = park.park();

        let by_wakers = usize::from(w1.join()) + usize::from(w2.join());
        let by_parker = usize::from(!parked);
        assert_eq!(
            by_wakers + by_parker,
            1,
            "one suspension, {by_wakers} waker requeue(s) + {by_parker} parker requeue(s)"
        );
        // The unit is runnable again; a leftover token (the second
        // wake arrived after the requeue) may end its next park early,
        // but then it is spent.
        if !park.park() {
            assert!(park.park(), "a token was consumed twice");
        }
        assert!(park.unpark());
    });
}
