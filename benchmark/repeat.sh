#!/usr/bin/env bash
# repeat.sh N [SETS]: run the full suite N times on this commit, each
# time with another seed and with the workload order alternating, and
# print per end-to-end metric x workload its min / median / max and
# its quartile spread (Q3 - Q1 over the median, as
# statistics.quantiles(values, n=4) gives them) against the bound in
# BENCHMARK.json. With SETS > 1 the whole thing is done SETS times back
# to back and the drift of each median between sets is checked against
# the same bound. The table goes to stderr, the JSON record to stdout.
set -euo pipefail
N="${1:?usage: repeat.sh N [SETS]}"
SETS="${2:-1}"
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

N="$N" SETS="$SETS" python3 - <<'EOF'
import json, os, platform, statistics, subprocess, sys, time

n, sets = int(os.environ["N"]), int(os.environ["SETS"])
manifest = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in manifest["workloads"]]
bounds = {m["name"]: m for m in manifest["end_to_end"]}
seconds = manifest["run_seconds"]
log = lambda *a: print(*a, file=sys.stderr, flush=True)

def one(workload, seed):
    cmd = manifest["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    run = subprocess.run(cmd, capture_output=True, text=True)
    out = json.loads(run.stdout.strip().splitlines()[-1]) if run.stdout.strip() else {}
    out.update(seed=seed, exit=run.returncode, wall_s=round(time.time() - t0, 2))
    return out

def summarise(runs):
    summary = {}
    for w in workloads:
        for m, spec in bounds.items():
            vals = [r["metrics"][m]["value"] for r in runs[w]]
            med = statistics.median(vals)
            row = {"min": min(vals), "median": med, "max": max(vals), "bound": spec["bound"]}
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                row["spread"] = (q[2] - q[0]) / med
            summary[f"{w}/{m}"] = row
    return summary

record = {
    "nproc": os.cpu_count(), "kernel": platform.release(),
    "rustc": subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip(),
    "seconds": seconds, "runs_per_set": n, "sets": [],
}
ok = True
for s in range(sets):
    runs = {w: [] for w in workloads}
    for i in range(n):
        seed = 1000 * (s + 1) + i
        for w in (workloads if i % 2 == 0 else workloads[::-1]):
            r = one(w, seed)
            runs[w].append(r)
            ok &= r["exit"] == 0 and r.get("failed") == 0
            log(f"set {s} run {i} {w}: exit {r['exit']} failed {r.get('failed')} wall {r['wall_s']} s")
    summary = summarise(runs)
    record["sets"].append({"runs": runs, "summary": summary})
    log(f"-- set {s}: {'metric':<34}{'min':>12}{'median':>12}{'max':>12}{'spread':>9}{'bound':>7}")
    for key, row in summary.items():
        wide = row.get("spread", 0) > row["bound"] and not key.endswith("/setup_s")
        ok &= not wide
        log(f"   {key:<40}{row['min']:>12.4g}{row['median']:>12.4g}{row['max']:>12.4g}"
            f"{row.get('spread', float('nan')):>9.3f}{row['bound']:>7.2f}{'  WIDE' if wide else ''}")

drift = {}
for a, b in zip(record["sets"], record["sets"][1:]):
    for key, first in a["summary"].items():
        second = b["summary"][key]
        worse = second["median"] / first["median"] - 1
        if bounds[key.split("/")[1]]["better"] == "higher":
            worse = first["median"] / second["median"] - 1
        drift[key] = worse
        bad = worse > first["bound"]
        ok &= not bad
        log(f"   drift {key:<40}{worse:>+9.3f} of {first['bound']:.2f}{'  WORSE' if bad else ''}")
record["median_drift"] = drift
record["ok"] = bool(ok)
json.dump(record, sys.stdout, indent=1)
print()
sys.exit(0 if ok else 1)
EOF
