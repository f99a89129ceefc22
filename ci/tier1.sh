#!/usr/bin/env bash
# Tier-1 gate: hermetic build + tests, warning-clean, zero external
# crates. Run from anywhere; operates on the repo root.
#
#   ci/tier1.sh
#
# Policy (see README.md "Hermetic build"): the workspace must build and
# test fully offline with no registry access, and the dependency graph
# must contain only workspace-local packages.

set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:-} -D warnings"

# Stages whose numbers depend on thread placement run pinned to one CPU
# (the idle-CPU fence's paced rows, the spawn-path smoke).
PIN=""
if command -v taskset >/dev/null 2>&1; then PIN="taskset -c 0"; fi

echo "== tier1: hermetic dependency guard"
# Every package in the resolved graph must be a path dependency inside
# this workspace ("source": null). Any registry/git source is a policy
# violation, caught before we spend time compiling.
METADATA=$(cargo metadata --offline --format-version 1)
if command -v jq >/dev/null 2>&1; then
    EXTERNAL=$(printf '%s' "$METADATA" | jq -r '.packages[] | select(.source != null) | .name')
else
    EXTERNAL=$(printf '%s' "$METADATA" | python3 -c '
import json, sys
meta = json.load(sys.stdin)
for pkg in meta["packages"]:
    if pkg["source"] is not None:
        print(pkg["name"])
')
fi
if [ -n "$EXTERNAL" ]; then
    echo "FAIL: non-workspace packages in the dependency graph:" >&2
    printf '  %s\n' $EXTERNAL >&2
    exit 1
fi
echo "   ok: all packages are workspace-local"

echo "== tier1: offline release build (all targets, -D warnings)"
cargo build --release --offline --all-targets

echo "== tier1: offline tests (workspace)"
cargo test -q --offline --workspace

echo "== tier1: doctests (workspace)"
# Also covered by the workspace run above, but kept as an explicit
# gate: the public API examples (Glt quickstart, try_join, FEB,
# lwt-model) must keep compiling and passing.
cargo test -q --offline --workspace --doc

echo "== tier1: concurrency model check (--cfg lwt_model, bounded)"
# Deterministic loom-style exploration of the real lock-free core
# (Chase-Lev deque, MPSC injector, SpinLock, FEB, fiber stack cache)
# under crates/model. The cfg swap rebuilds the checked crates with
# the shim facade, so it gets its own target dir to leave the main
# build cache untouched. Each Checker bounds itself (preemption bound
# 2, per-test execution/time caps); `timeout` is the hard backstop.
CARGO_TARGET_DIR=target/lwt-model \
    RUSTFLAGS="${RUSTFLAGS:-} --cfg lwt_model" \
    timeout 600 cargo test -q --offline -p lwt-model
echo "   ok: model suites green (engine + chase_lev + injector + sync + stack cache + park, incl. adaptive with a spent grace budget; the two-sleeper park cases stop at their time cap, not exhaustive + waker + unitpark + waitlist + driver_slot: notify race, hand-on, step-down, taken unit and shutdown-vs-hand-on exhaustive, two sleepers capped, both mutations caught as livelocks)"

echo "== tier1: trace-export smoke (LWT_TRACE=1)"
# One real microbench run with tracing on must produce a parseable
# Chrome-trace JSON with events from more than one worker thread. The
# filename carries the config hash of the measurement knobs
# (fig2_create-<hash>.json), so match by glob and require exactly one.
rm -f target/lwt-trace/fig2_create-*.json
LWT_TRACE=1 LWT_THREADS=2 LWT_REPS=3 \
    cargo run --release --offline -q -p lwt-microbench --bin fig2_create >/dev/null
TRACE_OUT=$(ls target/lwt-trace/fig2_create-*.json 2>/dev/null || true)
if [ "$(printf '%s\n' "$TRACE_OUT" | grep -c .)" != 1 ]; then
    echo "FAIL: expected exactly one config-hashed trace file, got: $TRACE_OUT" >&2
    exit 1
fi
python3 - "$TRACE_OUT" <<'PY'
import collections, json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
events = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
assert events, f"{path}: no instant events"
per_tid = collections.Counter(e["tid"] for e in events)
assert all(n >= 1 for n in per_tid.values())
assert len(per_tid) >= 2, f"{path}: events from only {len(per_tid)} worker(s)"
for e in events:
    assert "ts" in e and "pid" in e and "name" in e, f"malformed event: {e}"
print(f"   ok: {len(events)} events across {len(per_tid)} workers in {path}")
PY

echo "== tier1: chaos stage (fault injection under pinned seeds)"
# The failure-injection suite must stay green with the chaos engine
# live: forced steal failures, victim misdirection, stack-cache
# misses, FEB wake perturbations, and injected yields at the default
# rate. Three pinned seeds; identical seeds replay identical fault
# schedules (crates/chaos/tests/determinism.rs pins that property).
for seed in 7 1234 3735928559; do
    echo "   seed $seed"
    LWT_CHAOS_SEED=$seed \
        cargo test -q --offline --test failure_injection >/dev/null
done
echo "   ok: failure-injection suite green under 3 chaos seeds"

echo "== tier1: async-bridge smoke (futures + blocking pool, all backends)"
# The async_ subset of the GLT conformance suite drives spawn_async and
# spawn_blocking across all five backends, then replays under a pinned
# chaos seed with the async fault sites live: AsyncSpuriousWake
# double-enqueues task cells (the begin_poll claim must reject the
# stale entry) and AsyncPollDelay widens the poll/wake race window (the
# coalesce path must not lose the wake).
cargo test -q --offline --test glt_conformance async_ >/dev/null
LWT_CHAOS_SEED=20160926 \
    cargo test -q --offline --test glt_conformance async_ >/dev/null
echo "   ok: async conformance green, plus chaos-seeded spurious-wake replay"

echo "== tier1: watchdog smoke (LWT_WATCHDOG=1, healthy workload)"
# The stall watchdog on a healthy tier-1 workload must report nothing:
# zero false positives is part of the acceptance bar. Stall reports go
# to stderr prefixed "lwt-watchdog:".
WATCHDOG_LOG="target/lwt-watchdog-smoke.log"
LWT_WATCHDOG=1 LWT_THREADS=2 LWT_REPS=3 \
    cargo run --release --offline -q -p lwt-microbench --bin fig2_create \
    >/dev/null 2>"$WATCHDOG_LOG"
if grep -q "lwt-watchdog:" "$WATCHDOG_LOG"; then
    echo "FAIL: watchdog false positives on healthy workload:" >&2
    grep "lwt-watchdog:" "$WATCHDOG_LOG" >&2
    exit 1
fi
echo "   ok: zero stall reports on healthy workload"

echo "== tier1: flight-recorder smoke (seeded FEB deadlock)"
# The watchdog suite seeds a reader blocked on an empty FEB cell
# nobody is filling; with the recorder armed, flagging that stall must
# write a well-formed post-mortem bundle — counters, utilization
# table, per-worker ring tails, and the watchdog/chaos sections (the
# chaos seed makes the bundle replayable).
FLIGHTREC_DIR="$PWD/target/lwt-flightrec-smoke"
rm -rf "$FLIGHTREC_DIR"
LWT_WATCHDOG=1 LWT_FLIGHTREC=1 LWT_FLIGHTREC_DIR="$FLIGHTREC_DIR" \
    cargo test -q --offline --test failure_injection \
    watchdog_flags_a_seeded_feb_deadlock >/dev/null
python3 - "$FLIGHTREC_DIR" <<'PY'
import glob, json, os, sys

dumps = sorted(glob.glob(os.path.join(sys.argv[1], "*.json")))
assert dumps, "no flight-recorder bundle written for the seeded stall"
with open(dumps[0]) as f:
    doc = json.load(f)
for key in ("reason", "unix_ms", "counters", "utilization", "rings", "sections"):
    assert key in doc, f"bundle missing {key!r}"
assert doc["reason"] == "stall", f"unexpected reason {doc['reason']!r}"
assert "ring_dropped" in doc["counters"], "counter snapshot incomplete"
wd = doc["sections"]["watchdog"]
assert any(
    r["kind"] == "blocked" and r["wait"] == "feb" for r in wd["reports"]
), f"watchdog section lacks the seeded FEB block: {wd}"
chaos = doc["sections"]["chaos"]
assert "seed" in chaos and "sites" in chaos, "chaos section must carry replay state"
print(f"   ok: well-formed bundle {os.path.basename(dumps[0])} ({len(dumps)} dump(s))")
PY

echo "== tier1: idle-CPU smoke (parked pools, blocked sockets and blocked joiners must not spin)"
# A quiescent pool in passive mode must burn near-zero process CPU
# across every backend — the acceptance probe for worker parking —
# and so must the same pool with idle sockets: one acceptor ULT and
# four reader ULTs blocked on quiet connections are *suspended*, so
# their window costs what the empty one does (the fence against a
# relax loop creeping back into the I/O wait path), and so must
# blocked joiners: a ULT and an OS thread each joining a sleeping unit
# are suspended / parked too (held to 20 ms). The park/unpark
# counters must balance once everything is finalized. Then the paced
# rows: a keep-alive server taking 200 requests 2 ms apart may cost at
# most 1.5x the server CPU per request under adaptive that it costs
# under passive — grace windows that never catch a request must stop
# being paid for. Pinned, so a yield is a real switch. The binary
# asserts all of it and exits non-zero on violation (tolerances:
# LWT_IDLE_CPU_TOLERANCE_MS, default 150 ms per 800 ms idle window).
$PIN cargo run --release --offline -q --bin idle_cpu
echo "   ok: parked pools, blocked sockets and blocked joiners idle at ~zero CPU; paced adaptive <= 1.5x passive; park/unpark counters balance"

echo "== tier1: serving smoke (reactor echo, 100 clients x 5 backends, adaptive + passive)"
# The lwt-net reactor must carry a loopback echo server with 100
# concurrent clients on every backend, all joins bounded (the test
# itself fails on any hang), with the stall watchdog armed: a worker
# wedged by a blocking read — the failure mode the reactor exists to
# prevent — would surface here as an "lwt-watchdog:" stderr report.
# Then again under LWT_WAIT_POLICY=passive: no grace window, so a
# worker commits to sleep on nearly every idle episode and takes the
# reactor's driver role, or waits on its bench, each time (DESIGN.md
# §15).
SERVING_LOG="target/lwt-serving-smoke.log"
for policy in adaptive passive; do
    LWT_WATCHDOG=1 LWT_WAIT_POLICY=$policy \
        cargo test -q --offline --test serving \
        ci_smoke_100_concurrent_clients_every_backend \
        >/dev/null 2>"$SERVING_LOG"
    if grep -q "lwt-watchdog:" "$SERVING_LOG"; then
        echo "FAIL: watchdog stall reports during serving smoke ($policy):" >&2
        grep "lwt-watchdog:" "$SERVING_LOG" >&2
        exit 1
    fi
    echo "   ok ($policy): 100-client echo green on all backends, zero stall reports"
done

echo "== tier1: overload smoke (4x connection cap vs 1-worker server)"
# The overload contract under the watchdog, two parts. First the
# deterministic 503 shape: a gated handler saturates a one-slot
# in-flight cap, and the excess request must get a well-formed
# "503 Service Unavailable" with Retry-After while the stall watchdog
# stays silent. Then the macro run: the overload bench offers 4x the
# connection cap to a ONE-worker server (both regimes, both benched
# backends) — every offered request must eventually succeed
# (client_failures == 0: no worker died, nothing wedged) with zero
# stall reports from either process.
OVERLOAD_LOG="target/lwt-overload-smoke.log"
LWT_WATCHDOG=1 \
    cargo test -q --offline --test overload \
    inflight_cap_sheds_with_503_and_retry_after \
    >/dev/null 2>"$OVERLOAD_LOG"
if grep -q "lwt-watchdog:" "$OVERLOAD_LOG"; then
    echo "FAIL: watchdog stall reports during 503-shed smoke:" >&2
    grep "lwt-watchdog:" "$OVERLOAD_LOG" >&2
    exit 1
fi
OVERLOAD_DIR="$PWD/target/lwt-overload-smoke"
rm -f "$OVERLOAD_DIR/BENCH_overload.json"
LWT_WATCHDOG=1 LWT_WORKERS=1 LWT_BENCH_DIR="$OVERLOAD_DIR" \
    LWT_OVERLOAD_CAP=16 LWT_OVERLOAD_REQS=2 \
    cargo bench --offline -q -p lwt-bench --bench overload \
    >/dev/null 2>"$OVERLOAD_LOG"
if grep -q "lwt-watchdog:" "$OVERLOAD_LOG"; then
    echo "FAIL: watchdog stall reports during overload smoke:" >&2
    grep "lwt-watchdog:" "$OVERLOAD_LOG" >&2
    exit 1
fi
python3 - "$OVERLOAD_DIR/BENCH_overload.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
records = doc["benches"]
assert records, "overload smoke wrote no records"
for r in records:
    want = r["offered"] * 2  # LWT_OVERLOAD_REQS=2
    assert r["requests"] == want, (
        f"{r['id']}: {r['requests']}/{want} requests completed — "
        "requests were lost, not shed"
    )
    assert r["client_failures"] == 0, (
        f"{r['id']}: {r['client_failures']} clients exhausted retries"
    )
    assert r["metrics"]["handler_panics"] == 0, (
        f"{r['id']}: worker-side panics during a chaos-free run"
    )
print(f"   {len(records)} records, all offered requests served, 0 failures")
PY
echo "   ok: 503s well-formed, 4x-cap load fully served, zero stall reports"

echo "== tier1: join-path smoke (64-child in-unit join per backend: suspends, never yields)"
# A join is one suspend and one wake. The conformance test forks 64
# children from inside a ULT on every backend (1 and 2 workers) and
# joins them there, in a re-exec'd child so the process-global counters
# see nothing else: the `yields` delta over the joins must be 0 and the
# `wait_blocks` delta at most 64.
cargo test -q --offline --test glt_conformance \
    in_unit_join_of_64_children_suspends_instead_of_yielding >/dev/null
# And no relax loop may creep back into a work unit's wait: the only
# AdaptiveRelax users left are plain-OS-thread waits (the spin/yield
# look before `thread::park` in `lwt_sync::block_thread_on`),
# control-plane waits (Converse's
# processor barrier and quiescence poll, run by the master and the
# processors' own scheduler loops) and the bounded
# `GltHandle::join_timeout`.
RELAX_USERS=$(grep -rln AdaptiveRelax crates/*/src | sort | tr '\n' ' ')
RELAX_ALLOWED="crates/converse/src/lib.rs crates/core/src/glt.rs crates/sync/src/backoff.rs crates/sync/src/lib.rs crates/sync/src/waitlist.rs "
grep -rn AdaptiveRelax crates/*/src | grep -v '^crates/sync/src/' | sed 's/^/   /'
if [ "$RELAX_USERS" != "$RELAX_ALLOWED" ]; then
    echo "FAIL: AdaptiveRelax users changed: $RELAX_USERS" >&2
    echo "      (allowed: $RELAX_ALLOWED)" >&2
    exit 1
fi
echo "   ok: joins suspend on every backend; AdaptiveRelax only in control-plane and bounded waits"

echo "== tier1: one-copy stage (worker loop, lifecycle and task posting exist once; no uncalled backend re-export)"
# The worker loop, the shutdown ladder and task posting live in
# lwt_ultcore::engine and nowhere else. Each of these calls is the
# fingerprint of one of them — the idle and busy reactor polls and the
# watchdog registration of a worker loop, the poll-join of a bounded
# drain — so each may be *called* from exactly one file under
# crates/*/src; and the names of the per-backend copies the engine
# replaced must match nothing. A sixth copy fails this gate instead of
# a review.
ENGINE="crates/ultcore/src/engine.rs"
for call in 'lwt_sched::io_poll()' 'lwt_sched::io_busy_poll()' 'lwt_chaos::register_worker(' 'join_within('; do
    CALLERS=$(grep -rlF "$call" crates/*/src | sort | tr '\n' ' ')
    if [ "$CALLERS" != "$ENGINE " ]; then
        echo "FAIL: \`$call\` is called from: $CALLERS" >&2
        echo "      (allowed: $ENGINE)" >&2
        exit 1
    fi
done
COPIES=$(grep -rnE 'fn (task_poster|worker_main|proc_main)' crates/*/src || true)
if [ -n "$COPIES" ]; then
    echo "FAIL: a per-backend worker loop or task poster is back:" >&2
    printf '%s\n' "$COPIES" >&2
    exit 1
fi
# The same for the ULT record: every backend's ULT is an UltCore, so
# bootstrapping a context, the final switch off a dying stack, the ULT
# entry, the post-switch protocol and a unit's waker each live only in
# lwt-ultcore (lwt-fiber, below it, defines the switch itself). And the
# GLT layer probes one ULT context, not a second one for Argobots.
ULTCORE="crates/ultcore/src/lib.rs"
for call in 'init_context(' 'switch_final('; do
    CALLERS=$(grep -rlF "$call" crates/*/src | grep -v '^crates/fiber/src/' | sort | tr '\n' ' ')
    if [ "$CALLERS" != "$ULTCORE " ]; then
        echo "FAIL: \`$call\` is called from: $CALLERS (allowed: $ULTCORE)" >&2
        exit 1
    fi
done
for def in 'fn ult_entry' 'fn process_post' 'fn unit_waker'; do
    DEFS=$(grep -rnE "$def" crates/*/src | cut -d: -f1 | sort -u | tr '\n' ' ')
    if [ "$DEFS" != "$ULTCORE " ]; then
        echo "FAIL: \`$def\` matches in: $DEFS (allowed: $ULTCORE)" >&2
        exit 1
    fi
done
if grep -rnE 'lwt_argobots::(in_ult|yield_now|block_on)' crates/core/src; then
    echo "FAIL: lwt-core probes a second ULT context" >&2
    exit 1
fi
# And a ULT is one allocation with one join handle (DESIGN.md §9): its
# closure and result live in the record (`lwt_ultcore::Work`), so no
# side result slot may come back, no backend may wrap `Arc<UltCore>` in
# a join handle of its own, and no GLT ULT arm may allocate a second
# completion record (an `EventSlot`) beside its unit.
python3 - <<'PY'
import glob, re, sys

bad = []
for path in sorted(p for root in ("crates", "src", "tests", "examples")
                   for p in glob.glob(f"{root}/**/*.rs", recursive=True)):
    src = open(path).read()
    if re.search(r"\b(?:struct|enum|type|union)\s+ResultCell\b", src):
        bad.append(f"{path}: defines ResultCell")
    if re.match(r"crates/(argobots|qthreads|massivethreads|converse|gothreads)/src/", path):
        for m in re.finditer(r"(?s)\bstruct\s+(\w+)[^;{]*\{([^}]*)\}", src):
            if re.search(r"Arc<\s*UltCore\b", m.group(2)):
                bad.append(f"{path}: struct {m.group(1)} wraps Arc<UltCore> (a second join handle)")
glt = open("crates/core/src/glt.rs").read()
for name in ("ult_create", "ult_create_to"):
    m = re.search(rf"(?s)\n    pub fn {name}\b.*?(?=\n    (?:pub )?fn |\n}}\n)", glt)
    if m is None:
        bad.append(f"crates/core/src/glt.rs: fn {name} not found")
    elif "EventSlot" in m.group(0):
        bad.append(f"crates/core/src/glt.rs: Glt::{name} allocates an EventSlot")
if bad:
    sys.exit("FAIL: a ULT is one allocation with one join handle:\n  " + "\n  ".join(bad))
PY
# The reactor is a role, not a thread (DESIGN.md §15): the driver
# thread and its step-aside protocol must not come back, and exactly
# one place may block in epoll_wait — the role holder's turn. Every
# epoll_wait goes through `turn_with`, and only one call passes it a
# timeout other than 0.
GONE=$(grep -rnE 'lwt-net-reactor|fn driver_loop|IoStandby|stand_by\(' crates/*/src || true)
if [ -n "$GONE" ]; then
    echo "FAIL: the reactor thread or its step-aside protocol is back:" >&2
    printf '%s\n' "$GONE" >&2
    exit 1
fi
EPOLL_CALLS=$(grep -rnF 'sys::epoll_wait(' crates/*/src | wc -l)
BLOCKING=$(grep -rnF 'turn_with(' crates/*/src | grep -v 'fn turn_with' | grep -vF ', 0, false)' || true)
if [ "$EPOLL_CALLS" != 1 ] || [ "$(printf '%s\n' "$BLOCKING" | grep -c .)" != 1 ]; then
    echo "FAIL: epoll_wait must have one caller, and one blocking turn ($EPOLL_CALLS callers):" >&2
    printf '%s\n' "$BLOCKING" >&2
    exit 1
fi
# A backend crate is Table I plus the API that reaches it; anything
# else it makes public is a second copy waiting to happen. Every name
# a backend's lib.rs makes public (`pub use`, `pub mod` or a top-level
# `pub` item) must be named, in a file that names the crate
# (`lwt_<crate>` or `lwt::<crate>`), outside the crate's own src: in
# crates/core, crates/microbench, benchmark/src, src, tests or
# examples. The allow-list below is for names only a backend's own
# tests or signatures need; each entry cites its DESIGN section.
python3 - <<'PY'
import os, re, sys

BACKENDS = ["argobots", "qthreads", "massivethreads", "converse", "gothreads"]
USERS = ["crates/core", "crates/microbench", "benchmark/src", "src", "tests", "examples"]
ALLOWED = {
    "lwt_argobots::UnitState": "DESIGN §12 'One ULT record': the Blocked state home_pool.rs waits for",
    "lwt_argobots::self_suspend": "DESIGN §12 'One ULT record': the core's suspend under its Argobots name",
    "lwt_argobots::unit_waker": "DESIGN §12 'One ULT record': the core's waker under its Argobots name",
    "lwt_argobots::UltExt": "DESIGN §9 'Fallible join': ABT_thread_get_state/resume on the shared handle, which home_pool.rs uses",
    "lwt_converse::awaken": "DESIGN §9 'Fallible join': CthAwaken on the shared handle, which the crate's suspend test uses",
    "lwt_go::Sender": "DESIGN §1 Go model: channel-based, out-of-order join (Fig. 3)",
    "lwt_go::Receiver": "DESIGN §1 Go model: channel-based, out-of-order join (Fig. 3)",
    "lwt_go::select2": "DESIGN §15 'The same path for joins…': the waiter that leaves a list",
    "lwt_go::Either": "DESIGN §15 'The same path for joins…': select2's result",
}

def public_names(lib):
    src = re.sub(r"//[^\n]*", "", open(lib).read())
    names = set(re.findall(r"(?m)^pub mod (\w+)", src))
    names |= set(re.findall(r"(?m)^pub (?:(?:const|unsafe|async) )*"
                            r"(?:fn|struct|enum|trait|type|const|static|union) (\w+)", src))
    for body in re.findall(r"(?m)^pub use\s+([^;]+);", src):
        for piece in re.split(r"[{},]", body):
            name = piece.split(" as ")[-1].strip().split("::")[-1]
            if name not in ("", "self", "*"):
                names.add(name)
    return names

texts = []
for root in USERS:
    for dirpath, _, files in os.walk(root):
        texts += [open(os.path.join(dirpath, f)).read() for f in files if f.endswith(".rs")]
uncalled, public = [], set()
for crate in BACKENDS:
    manifest = open(f"crates/{crate}/Cargo.toml").read()
    lib = re.search(r'(?m)^name = "([^"]+)"', manifest).group(1).replace("-", "_")
    naming = re.compile(rf"\b(?:{lib}|lwt::{lib[len('lwt_'):]})\b")
    users = [t for t in texts if naming.search(t)]
    for name in sorted(public_names(f"crates/{crate}/src/lib.rs")):
        public.add(f"{lib}::{name}")
        named = re.compile(rf"\b{name}\b")
        if f"{lib}::{name}" not in ALLOWED and not any(named.search(t) for t in users):
            uncalled.append(f"{lib}::{name}")
uncalled += [f"{name} (allow-listed, but not public)" for name in sorted(set(ALLOWED) - public)]
if uncalled:
    sys.exit("FAIL: public in a backend crate but named nowhere outside it "
             "(use it, delete it, or allow-list it with a DESIGN reason):\n  "
             + "\n  ".join(uncalled))
print(f"   ok: every backend re-export has an outside user ({len(ALLOWED)} allow-listed)")
PY
echo "   ok: one worker loop, one lifecycle, one task-posting path ($ENGINE)"
echo "   ok: no reactor thread; one blocking epoll_wait (${BLOCKING%%:*})"
echo "   ok: one ULT record, entry and post-switch protocol ($ULTCORE)"
echo "   ok: one ULT allocation and one join handle: no ResultCell, no backend handle around Arc<UltCore>, no EventSlot in a GLT ULT arm"

echo "== tier1: spawn-path smoke (fig2_create vs committed baseline)"
# One quick fig2_create bench run; the spawn path must not regress
# >25% (geometric mean of per-series median ratios) against the
# committed results/BENCH_fig2_create.json. A single series may jitter
# on a loaded box, so individual series only fail at 2x. Tolerances
# overridable for slower/faster CI hosts. Both the baseline and this
# run are pinned to one CPU: with the master and the single worker on
# separate vCPUs, create is bimodal (a spawn that finds the worker
# parked pays a futex wake: 250 ns vs 1 us per series, flipping between
# runs), and no ratio check survives a 4x mode switch.
# Absolute: cargo runs the bench with cwd = the package dir, so a
# relative LWT_BENCH_DIR would land under crates/bench/.
SMOKE_DIR="$PWD/target/lwt-bench-smoke"
rm -f "$SMOKE_DIR/BENCH_fig2_create.json"
LWT_BENCH_DIR="$SMOKE_DIR" LWT_THREADS=1 \
    $PIN cargo bench --offline -q -p lwt-bench --bench fig2_create >/dev/null
python3 - results/BENCH_fig2_create.json "$SMOKE_DIR/BENCH_fig2_create.json" <<'PY'
import json, math, os, sys

base_path, fresh_path = sys.argv[1], sys.argv[2]
geo_tol = float(os.environ.get("LWT_SPAWN_SMOKE_TOLERANCE", "1.25"))
per_tol = float(os.environ.get("LWT_SPAWN_SMOKE_SERIES_TOLERANCE", "2.0"))

def medians(path):
    with open(path) as f:
        doc = json.load(f)
    return {b["id"]: b["median_ns"] for b in doc["benches"] if b["median_ns"] > 0}

base, fresh = medians(base_path), medians(fresh_path)
shared = sorted(set(base) & set(fresh))
assert shared, f"no common bench ids between {base_path} and {fresh_path}"

ratios = {bid: fresh[bid] / base[bid] for bid in shared}
geomean = math.exp(sum(math.log(r) for r in ratios.values()) / len(ratios))
worst = max(ratios, key=ratios.get)
print(f"   {len(shared)} series; geomean ratio {geomean:.3f} "
      f"(worst {worst}: {ratios[worst]:.2f}x)")
if geomean > geo_tol:
    sys.exit(f"FAIL: spawn medians regressed {geomean:.2f}x > {geo_tol}x vs baseline")
gross = {bid: r for bid, r in ratios.items() if r > per_tol}
if gross:
    lines = ", ".join(f"{bid}: {r:.2f}x" for bid, r in sorted(gross.items()))
    sys.exit(f"FAIL: series regressed beyond {per_tol}x: {lines}")
print("   ok: spawn path within tolerance of committed baseline")
PY

echo "tier1: green"
