#!/usr/bin/env bash
# Manifest guard: BENCHMARK.json must be well-formed, and what a run
# prints must be exactly what it declares — every workload, every
# metric name and unit, in both the untraced and the traced mode.
# Runs every workload x backend on one-second runs (about 20 s in all,
# most of it the Go backend's nested regions).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

python3 - <<'EOF'
import json, re, subprocess, sys

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
errors = []
def check(ok, what):
    if not ok:
        errors.append(what)

manifest = json.load(open("BENCHMARK.json"))
check(set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
      "BENCHMARK.json: unexpected or missing top-level keys")
check(manifest["paths"] == ["benchmark"], "paths must be [\"benchmark\"]")
check(isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60, "run_seconds out of range")
check(2 <= len(manifest["workloads"]) <= 8, "need 2..8 workloads")
check(1 <= len(manifest["end_to_end"]) <= 16, "need 1..16 end-to-end metrics")
check(1 <= len(manifest["per_layer"]) <= 128, "need 1..128 per-layer metrics")
names = []
for w in manifest["workloads"]:
    check(set(w) == {"name", "why"}, f"workload keys: {w}")
    check(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']} too long")
    names.append(w["name"])
for m in manifest["end_to_end"]:
    check(set(m) == {"name", "unit", "better", "bound"}, f"end_to_end keys: {m}")
    check(0 < m["bound"] <= 0.25, f"bound of {m['name']} outside (0, 0.25]")
for m in manifest["per_layer"]:
    check(set(m) == {"name", "unit", "better"}, f"per_layer keys: {m}")
for m in manifest["end_to_end"] + manifest["per_layer"]:
    check(UNIT.match(m["unit"]) is not None, f"bad unit {m['unit']}")
    check(m["better"] in ("lower", "higher"), f"bad better on {m['name']}")
    names.append(m["name"])
for n in names:
    check(NAME.match(n) is not None, f"bad name {n}")
check(len(names) == len(set(names)), "a name is used twice")
setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s missing or malformed")

for w in manifest["workloads"]:
    for trace, declared in (("0", manifest["end_to_end"]), ("1", manifest["per_layer"])):
        cmd = manifest["command"] + ["--workload", w["name"], "--seed", "1", "--seconds", "1", "--trace", trace]
        run = subprocess.run(cmd, capture_output=True, text=True)
        where = f"{w['name']} --trace {trace}"
        if run.returncode != 0 or not run.stdout.strip():
            errors.append(f"{where}: exit {run.returncode}\n{run.stderr[-2000:]}")
            continue
        out = json.loads(run.stdout.strip().splitlines()[-1])
        check(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
        check(out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, f"{where}: not correct")
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        check(got == want, f"{where}: printed {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
        print(f"ok  {where}: {len(got)} metrics", flush=True)

# Inside a git checkout, the benchmark may have touched nothing else.
status = subprocess.run(["git", "status", "--short"], capture_output=True, text=True)
if status.returncode == 0:
    allowed = ("benchmark/", "BENCHMARK.json", ".gitignore", "CHANGES.md", "ISSUE.md", "REVIEW.md")
    for line in status.stdout.splitlines():
        check(line[3:].strip('"').startswith(allowed), f"git status: {line}")

for e in errors:
    print("FAIL", e, file=sys.stderr)
sys.exit(1 if errors else 0)
EOF
echo "selfcheck passed"
