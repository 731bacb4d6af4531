#!/usr/bin/env bash
# ledger/run.sh — build `sss` and `ledger` (release, offline, vendored
# dependencies only) and run one workload of the benchmark, or its A/A
# check. Run from anywhere; see ledger/README.md.
#
#   ledger/run.sh --workload inproc_full [--seed 1] [--seconds 16] [--trace 0|1] [--smoke]
#   ledger/run.sh --aa 5 [--workload wire_bulk]
#
# Prints every metric by name with its unit, the host and the git
# revision, and ends with one JSON line. Exits non-zero without a result
# line if the build fails or an operation returns an error.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"

# One target directory for both builds, so the crates they share compile
# once. A relative CARGO_TARGET_DIR is relative to the caller's directory.
TARGET="${CARGO_TARGET_DIR:-$ROOT/target}"
case "$TARGET" in
    /*) ;;
    *) TARGET="$PWD/$TARGET" ;;
esac
export CARGO_TARGET_DIR="$TARGET"
OUT="$HERE/out"
mkdir -p "$OUT"

cargo build --release --offline --quiet --manifest-path "$ROOT/Cargo.toml" --bin sss >&2
cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml" >&2

LEDGER_PID=""
cleanup() {
    # The harness kills and reaps its `sss serve` child itself on every
    # path it controls and removes the child's pid file; a pid file still
    # here means the harness was killed first.
    if [ -n "$LEDGER_PID" ]; then
        kill "$LEDGER_PID" 2>/dev/null || true
        wait "$LEDGER_PID" 2>/dev/null || true
    fi
    for pidfile in "$OUT"/serve-*.pid; do
        [ -f "$pidfile" ] || continue
        pid="$(cat "$pidfile")"
        if [ "$(cat "/proc/$pid/comm" 2>/dev/null)" = "sss" ]; then
            kill "$pid" 2>/dev/null || true
        fi
        rm -f "$pidfile"
    done
}
trap cleanup EXIT
trap 'exit 130' INT TERM

echo "revision $(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo none)"
# In the background and waited for, so a signal to this script is handled
# at once instead of after the run.
"$TARGET/release/ledger" --sss "$TARGET/release/sss" --out "$OUT" "$@" &
LEDGER_PID=$!
status=0
wait "$LEDGER_PID" || status=$?
LEDGER_PID=""
exit "$status"
