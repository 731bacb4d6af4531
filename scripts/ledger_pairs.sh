#!/usr/bin/env bash
# scripts/ledger_pairs.sh — alternating same-day ledger pairs of two
# revisions, one workload.
#
#   scripts/ledger_pairs.sh <parent> <change> --workload <w> -n <k>
#       [--seed 1] [--seconds 16] [--scratch DIR] [--ledger FILE]
#
# Each revision is checked out in its own `git worktree` under the scratch
# directory (default `${TMPDIR:-/tmp}/ledger_pairs`) and built there with
# its own CARGO_TARGET_DIR, so a ledger build's rewrite of
# `ledger/Cargo.lock` stays inside the worktree. Pair i runs both sides at
# seed `seed + i` with `ledger/run.sh`; the side that runs first switches
# every pair. Each run appends one JSON line to the ledger file (default
# `BENCH_ledger.jsonl` at the top of the repository): the date, `nproc`,
# the CPU model, both revisions and the side, the workload, seed and
# seconds, `correct`, `failed`, the five end-to-end metrics and the run's
# `gate` lines. At the end it prints, per metric, each side's quartiles
# (Python's exclusive method), the ratio of the medians (change over
# parent), the pairs the change won, by the direction BENCHMARK.json
# gives, and the pairs whose two readings are equal; then the pairs whose
# gate lines are identical line for line, pool growth aside (its count
# varies from run to run and is held to its bound), and every line that
# differs. The summary is `scripts/ledger_summary.py`, which
# `scripts/ledger_summary_selftest.sh` checks against hand-computed numbers.
set -euo pipefail

usage() {
    echo "usage: $0 <parent> <change> --workload <w> -n <k> [--seed S] [--seconds T] [--scratch DIR] [--ledger FILE]" >&2
    exit 2
}

ROOT="$(git rev-parse --show-toplevel)"
[ $# -ge 2 ] || usage
PARENT="$(git -C "$ROOT" rev-parse --verify "$1^{commit}")"
CHANGE="$(git -C "$ROOT" rev-parse --verify "$2^{commit}")"
shift 2
WORKLOAD="" PAIRS="" SEED=1 SECONDS_=16
SCRATCH="${TMPDIR:-/tmp}/ledger_pairs"
LEDGER="$ROOT/BENCH_ledger.jsonl"
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) WORKLOAD="$2"; shift 2 ;;
        -n) PAIRS="$2"; shift 2 ;;
        --seed) SEED="$2"; shift 2 ;;
        --seconds) SECONDS_="$2"; shift 2 ;;
        --scratch) SCRATCH="$2"; shift 2 ;;
        --ledger) LEDGER="$2"; shift 2 ;;
        *) usage ;;
    esac
done
[ -n "$WORKLOAD" ] && [ -n "$PAIRS" ] || usage
mkdir -p "$SCRATCH"

# A worktree and a target directory per revision, built once up front.
checkout() {
    local rev="$1" dir="$SCRATCH/wt-${1:0:12}"
    if [ ! -d "$dir" ]; then
        git -C "$ROOT" worktree add --detach --quiet "$dir" "$rev"
    fi
    CARGO_TARGET_DIR="$SCRATCH/target-${rev:0:12}" cargo build --release --offline --quiet \
        --manifest-path "$dir/Cargo.toml" --bin sss >&2
    CARGO_TARGET_DIR="$SCRATCH/target-${rev:0:12}" cargo build --release --offline --quiet \
        --manifest-path "$dir/ledger/Cargo.toml" >&2
}
checkout "$PARENT"
checkout "$CHANGE"

NPROC="$(nproc)"
CPU="$(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | sed 's/.*: //' || echo unknown)"
START_LINE=0
[ -f "$LEDGER" ] && START_LINE="$(wc -l < "$LEDGER")"

# One run of `side` (parent or change) at `seed`: one line to the ledger.
run() {
    local side="$1" seed="$2" rev
    if [ "$side" = parent ]; then rev="$PARENT"; else rev="$CHANGE"; fi
    local out
    out="$(CARGO_TARGET_DIR="$SCRATCH/target-${rev:0:12}" bash "$SCRATCH/wt-${rev:0:12}/ledger/run.sh" \
        --workload "$WORKLOAD" --seed "$seed" --seconds "$SECONDS_")"
    OUTPUT="$out" python3 - "$LEDGER" "$side" "$PARENT" "$CHANGE" "$WORKLOAD" "$seed" \
        "$SECONDS_" "$NPROC" "$CPU" <<'PY'
import datetime, json, os, sys
ledger, side, parent, change, workload, seed, seconds, nproc, cpu = sys.argv[1:]
output = os.environ["OUTPUT"].splitlines()
result = json.loads(output[-1])
names = ["setup_s", "ingest_tuples_per_s", "cpu_ns_per_tuple", "query_p50_us", "f2_rel_halfwidth"]
line = {
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    "nproc": int(nproc), "cpu": cpu, "parent": parent[:12], "change": change[:12],
    "side": side, "workload": workload, "seed": int(seed), "seconds": float(seconds),
    "correct": result["correct"], "failed": result["failed"],
    "metrics": {n: result["metrics"][n]["value"] for n in names},
    "gates": [l for l in output if l.startswith("gate ")],
}
with open(ledger, "a") as f:
    f.write(json.dumps(line) + "\n")
m = line["metrics"]
print(f"{side:6} seed {seed}: " + "  ".join(f"{n} {m[n]:.4g}" for n in names), file=sys.stderr)
PY
}

for ((i = 0; i < PAIRS; i++)); do
    seed=$((SEED + i))
    if ((i % 2 == 0)); then run parent "$seed"; run change "$seed"
    else run change "$seed"; run parent "$seed"; fi
done

python3 "$ROOT/scripts/ledger_summary.py" "$LEDGER" "$START_LINE" "$ROOT/BENCHMARK.json"
