//! Typed scheduler events.
//!
//! One fixed vocabulary shared by all six runtimes, so merged traces
//! can be compared across them: the same `StealHit` event means "a
//! work unit migrated" whether massivethreads' random victim loop or
//! openmp's icc task sweep produced it.

/// What happened. The `arg` field of an [`Event`] carries a
/// kind-specific payload (documented per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A ULT was created. `arg`: runtime-specific spawn context —
    /// qthreads: target shepherd; massivethreads: 1 for work-first,
    /// 0 for help-first; converse: target processor; argobots/go: 0.
    UltSpawn = 0,
    /// A worker began (or resumed) running a ULT. `arg`: 0.
    UltRun = 1,
    /// A ULT yielded back to its scheduler. `arg`: 0.
    Yield = 2,
    /// A worker probed a victim's deque. `arg`: victim worker id.
    StealAttempt = 3,
    /// A probe found work. `arg`: victim worker id.
    StealHit = 4,
    /// A join blocked on an empty full/empty bit. `arg`: 0.
    FebBlock = 5,
    /// A blocked FEB reader resumed. `arg`: 0.
    FebWake = 6,
    /// A stackless unit ran to completion on the worker's own stack
    /// (argobots tasklet, converse message, openmp task). `arg`: 0.
    TaskletExec = 7,
    /// An execution stream / worker thread entered its scheduler
    /// loop. `arg`: worker id.
    EsStart = 8,
    /// An execution stream / worker thread left its scheduler loop.
    /// `arg`: worker id.
    EsStop = 9,
    /// A nested parallel region opened (openmp). `arg`: region width.
    NestedRegionOpen = 10,
    /// A ready-queue operation lost a race: Chase-Lev steal `Retry`,
    /// or an MPSC injector pop that observed a half-linked node.
    /// `arg`: 0 for an injector pop, 1 for a deque steal.
    QueueContention = 11,
    /// The chaos engine injected a fault at a decision point.
    /// `arg`: packed `(site << 56) | sequence-index` — see
    /// `lwt_chaos::unpack_fault`.
    FaultInjected = 12,
    /// The stall watchdog flagged a silent worker or an over-deadline
    /// wait. `arg`: worker id for worker stalls, the caller-supplied
    /// wait token for blocked units. Nothing was killed.
    StallDetected = 13,
    /// A worker went to sleep on its parker after a dry steal sweep
    /// (`lwt_sched::ParkGroup::park`). `arg`: worker id.
    WorkerParked = 14,
    /// A parked worker resumed — woken by a spawner's wake-one
    /// notification or its backstop timeout. `arg`: worker id.
    WorkerUnparked = 15,
    /// A work unit was created and assigned a causal span id. `span`:
    /// the new child span; `arg`: the spawner's span (0 when spawned
    /// from outside any traced unit — an external master thread).
    /// Recorded on the *spawner's* ring; the flow edge to the child's
    /// first `UltRun` is what the trace exporter draws.
    SpanSpawn = 16,
    /// A work unit ran to completion. `span`: the finished span.
    /// Recorded on the worker that executed the final segment.
    SpanComplete = 17,
    /// A joiner observed a unit's completion. `span`: the joined
    /// child's span; `arg`: the joiner's own span (0 for an external
    /// joiner). The child→joiner edge is a critical-path dependency.
    SpanJoin = 18,
    /// A stackless future task was polled by a worker (the async
    /// bridge's dispatch). Opens a critical-path segment exactly like
    /// `UltRun`/`TaskletExec`; a `Pending` poll closes it with a
    /// `Yield`, a `Ready` poll with `SpanComplete`. `arg`: 0.
    AsyncPoll = 19,
    /// A future's waker fired and the task was (re)scheduled onto a
    /// ready queue — or coalesced into an already-running poll.
    /// `span`: the woken task's span (the event's *subject*; the
    /// waker may run anywhere). `arg`: 0 for a requeue, 1 for a
    /// woken-while-polling coalesce.
    AsyncWake = 20,
    /// A work unit began waiting for I/O readiness on the reactor
    /// (`lwt-net`): its waker is parked in a registration slot and
    /// the unit (ULT, async task or OS thread) is about to suspend.
    /// `arg`: packed `(token << 1) | direction`
    /// (0 = read, 1 = write).
    IoWait = 21,
    /// The reactor observed readiness for a registration and delivered
    /// it — set the ready flag and, if a waker was parked, fired it.
    /// `arg`: packed `(token << 1) | direction` as for [`IoWait`].
    ///
    /// [`IoWait`]: EventKind::IoWait
    IoReady = 22,
    /// A deadline was armed on the timer wheel (`lwt_sched::timer`):
    /// an I/O deadline, an HTTP idle/header timeout, or a drain
    /// deadline. `arg`: the absolute wheel tick (ms) it expires at.
    TimerArm = 23,
    /// An armed timer reached its deadline and fired — the entry's
    /// waiter (the waker registered on it) is about to be resumed. Cancelled entries never emit this. `arg`: the wheel
    /// tick it was armed for.
    TimerFire = 24,
    /// The HTTP server shed load instead of running a handler: the
    /// in-flight request semaphore was saturated and the request got
    /// a `503 Service Unavailable` + `Retry-After`. `arg`: the
    /// in-flight limit that was hit.
    RequestShed = 25,
    /// A request handler panicked; `catch_unwind` contained it and the
    /// connection got a `500` then close — the worker survived.
    /// `arg`: 0.
    HandlerPanic = 26,
}

impl EventKind {
    /// All kinds, in discriminant order.
    pub const ALL: [EventKind; 27] = [
        EventKind::UltSpawn,
        EventKind::UltRun,
        EventKind::Yield,
        EventKind::StealAttempt,
        EventKind::StealHit,
        EventKind::FebBlock,
        EventKind::FebWake,
        EventKind::TaskletExec,
        EventKind::EsStart,
        EventKind::EsStop,
        EventKind::NestedRegionOpen,
        EventKind::QueueContention,
        EventKind::FaultInjected,
        EventKind::StallDetected,
        EventKind::WorkerParked,
        EventKind::WorkerUnparked,
        EventKind::SpanSpawn,
        EventKind::SpanComplete,
        EventKind::SpanJoin,
        EventKind::AsyncPoll,
        EventKind::AsyncWake,
        EventKind::IoWait,
        EventKind::IoReady,
        EventKind::TimerArm,
        EventKind::TimerFire,
        EventKind::RequestShed,
        EventKind::HandlerPanic,
    ];

    /// Stable display name (used as the Chrome-trace event `name`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::UltSpawn => "UltSpawn",
            EventKind::UltRun => "UltRun",
            EventKind::Yield => "Yield",
            EventKind::StealAttempt => "StealAttempt",
            EventKind::StealHit => "StealHit",
            EventKind::FebBlock => "FebBlock",
            EventKind::FebWake => "FebWake",
            EventKind::TaskletExec => "TaskletExec",
            EventKind::EsStart => "EsStart",
            EventKind::EsStop => "EsStop",
            EventKind::NestedRegionOpen => "NestedRegionOpen",
            EventKind::QueueContention => "QueueContention",
            EventKind::FaultInjected => "FaultInjected",
            EventKind::StallDetected => "StallDetected",
            EventKind::WorkerParked => "WorkerParked",
            EventKind::WorkerUnparked => "WorkerUnparked",
            EventKind::SpanSpawn => "SpanSpawn",
            EventKind::SpanComplete => "SpanComplete",
            EventKind::SpanJoin => "SpanJoin",
            EventKind::AsyncPoll => "AsyncPoll",
            EventKind::AsyncWake => "AsyncWake",
            EventKind::IoWait => "IoWait",
            EventKind::IoReady => "IoReady",
            EventKind::TimerArm => "TimerArm",
            EventKind::TimerFire => "TimerFire",
            EventKind::RequestShed => "RequestShed",
            EventKind::HandlerPanic => "HandlerPanic",
        }
    }

    /// Inverse of the `repr(u8)` discriminant; `None` for unknown
    /// values (a torn ring slot read mid-overwrite).
    #[must_use]
    pub const fn from_u8(v: u8) -> Option<EventKind> {
        if (v as usize) < EventKind::ALL.len() {
            Some(EventKind::ALL[v as usize])
        } else {
            None
        }
    }
}

/// One recorded scheduler event, as read back out of a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the process trace epoch ([`crate::clock`]).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`] variant docs).
    pub arg: u64,
    /// Causal span this event belongs to: for the `Span*` kinds the
    /// span the event is *about*, for every other kind the span that
    /// was executing on the emitting thread ([`crate::span::current`]),
    /// 0 when none (scheduler-loop events, tracing enabled mid-run).
    pub span: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminant_round_trips() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(EventKind::from_u8(EventKind::ALL.len() as u8), None);
        assert_eq!(EventKind::from_u8(u8::MAX), None);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }
}
