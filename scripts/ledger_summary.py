#!/usr/bin/env python3
"""The summary `scripts/ledger_pairs.sh` prints after a pair series.

    python3 scripts/ledger_summary.py <ledger.jsonl> <start line> <BENCHMARK.json>

Reads the ledger lines after the first `start line` ones, pairs the
`parent` and `change` runs of each seed, and prints, per end-to-end metric
of the contract, each side's quartiles (Python's exclusive method), the
ratio of the medians (change over parent), the pairs the change won in the
contract's direction and the pairs whose two readings are equal; then every
gate line only one side of a pair printed, and the pairs whose gate lines
are identical line for line, pool growth aside (its count varies from run
to run and is held to its bound). `scripts/ledger_summary_selftest.sh`
checks it against a hand-made ledger.
"""
import json, statistics, sys
ledger, start, contract = sys.argv[1], int(sys.argv[2]), sys.argv[3]
lines = [json.loads(l) for l in open(ledger).read().splitlines()[start:]]
better = {m["name"]: m["better"] for m in json.load(open(contract))["end_to_end"]}
by_seed = {}
for l in lines:
    by_seed.setdefault(l["seed"], {})[l["side"]] = l
pairs = [p for p in by_seed.values() if len(p) == 2]
print(f"{len(pairs)} pairs, {lines[0]['workload']}; every run correct: "
      f"{all(l['correct'] and l['failed'] == 0 for l in lines)}")
def quartiles(xs):
    if len(xs) < 2:
        return (xs[0],) * 3
    return tuple(statistics.quantiles(xs, n=4))
for name, direction in better.items():
    p = [pair["parent"]["metrics"][name] for pair in pairs]
    c = [pair["change"]["metrics"][name] for pair in pairs]
    won = sum((cv < pv) if direction == "lower" else (cv > pv) for pv, cv in zip(p, c))
    same = sum(pv == cv for pv, cv in zip(p, c))
    qp, qc = quartiles(p), quartiles(c)
    ratio = qc[1] / qp[1] if qp[1] else float("nan")
    print(f"{name:20} parent {qp[0]:.4g}/{qp[1]:.4g}/{qp[2]:.4g}  change "
          f"{qc[0]:.4g}/{qc[1]:.4g}/{qc[2]:.4g}  ratio {ratio:.3f}  won {won}/{len(pairs)}"
          f"  same {same}/{len(pairs)}")
def gates(run):
    return [g for g in run.get("gates", []) if not g.startswith("gate ok   pool growth")]
alike = 0
for pair in pairs:
    p, c = gates(pair["parent"]), gates(pair["change"])
    alike += p == c
    for line in sorted(set(p) ^ set(c)):
        side = "parent" if line in p else "change"
        print(f"seed {pair['parent']['seed']} {side} only: {line}")
print(f"gate lines identical (pool growth aside) in {alike}/{len(pairs)} pairs")
