#!/usr/bin/env bash
# scripts/ledger_summary_selftest.sh — check the pair summary
# (`scripts/ledger_summary.py`) against numbers computed by hand.
#
#   bash scripts/ledger_summary_selftest.sh
#
# The fixture `scripts/testdata/ledger_pairs_four.jsonl` holds one line the
# summary must skip, then four pairs of a made-up workload, the sides
# alternating first. By hand, with Python's exclusive quartiles
# (positions (n+1)·k/4, so 1.25, 2.5 and 3.75 of four):
#
#   query_p50_us (lower)      parent 10 12 11 13 -> 10.25/11.5/12.75
#                             change  8  9 11  7 -> 7.25/8.5/10.5
#                             8.5/11.5 = 0.739; won 3 (seeds 1, 2, 4), same 1
#   ingest_tuples_per_s       parent 100 200 300 400 -> 125/250/375
#   (higher)                  change 150 200 250 500 -> 162.5/225/437.5
#                             225/250 = 0.900; won 2 (seeds 1, 4), same 1
#   f2_rel_halfwidth (lower)  0.01 on every run: ratio 1.000, won 0, same 4
#
# Seed 3's change run is not correct, so not every run is. Seed 2's change
# run failed a gate the parent passed: one line on each side differs, and
# three of four pairs have identical gate lines. The pool growth line
# differs in every pair and is left out of the comparison.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
got="$(python3 "$here/ledger_summary.py" "$here/testdata/ledger_pairs_four.jsonl" 1 \
    "$here/testdata/ledger_pairs_contract.json")"
if ! diff <(echo "$got") "$here/testdata/ledger_summary_expected.txt"; then
    echo "ledger summary self-test: output differs from the hand-computed summary" >&2
    exit 1
fi
echo "ledger summary self-test: ok"
