#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

Usage, from the repository root, with result files written by
``run.py --out`` (one workload each, or the list ``--workload all``
writes)::

    python3 benchmarks/e2e/compare.py \\
        --parent parent-*.json --change change-*.json \\
        [--claim sessions_per_s@measured-grid]

The i-th parent file and the i-th change file form one pair; run the
two sides alternately, with the same seed within a pair. For the
claimed (metric, workload) the change must win at least 9 of every 10
pairs (ties count for neither side) and its median must differ from the
parent's by more than the parent's interquartile range. Every other
(metric, workload) is judged against the bound in ``BENCHMARK.json``:

* ``improved`` — every change run beats every parent run;
* ``regressed`` — otherwise, the median is worse by more than the bound;
* ``unresolved`` — otherwise, the parent's own spread is wider than
  the bound, so "unchanged" cannot be shown;
* ``improved`` — otherwise, better by more than the bound;
* ``unchanged`` — otherwise.

Digests, and the exact per-layer counts of traced runs, must be equal
within each pair that used one seed. Prints one row per workload, each
ratio with its base, then the detail per metric; exits 1 on any
regression, unmet claim or mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        records.extend(data if isinstance(data, list) else [data])
    return records


def by_workload(records, trace):
    grouped = {}
    for record in records:
        if record["trace"] == trace:
            grouped.setdefault(record["workload"], []).append(record)
    return grouped


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(metric, parent, change, claimed):
    """Verdict plus the numbers behind it for one (metric, workload)."""
    higher = metric["better"] == "higher"

    def better(a, b):
        return a > b if higher else a < b

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    losses = sum(1 for p, c in pairs if better(p, c))
    worse = (pm - cm) / pm if higher else (cm - pm) / pm
    spread = (p3 - p1) / pm
    if claimed:
        gain = (
            len(pairs) >= MIN_PAIRS
            and wins >= WIN_SHARE * len(pairs)
            and better(cm, pm)
            and abs(cm - pm) > p3 - p1
        )
        verdict = "gain" if gain else "claim not met"
    elif all(better(c, p) for c in change for p in parent):
        verdict = "improved"
    elif worse > metric["bound"]:
        verdict = "regressed"
    elif spread > metric["bound"]:
        verdict = "unresolved"
    elif -worse > metric["bound"]:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict,
        "ratio": cm / pm,
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
        "spread": spread,
    }


def exact_mismatches(parent, change):
    """Pairs run with one seed must agree on digest and exact counts."""
    problems = []
    for p, c in zip(parent, change):
        if p["seed"] != c["seed"]:
            continue
        if p["digest"] != c["digest"]:
            problems.append(f"seed {p['seed']}: digest {p['digest'][:12]} -> {c['digest'][:12]}")
        for key, value in p.get("counts", {}).items():
            if c.get("counts", {}).get(key) != value:
                problems.append(
                    f"seed {p['seed']}: {key} {value} -> {c.get('counts', {}).get(key)}"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", default=None, help="METRIC@WORKLOAD")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    claim = tuple(args.claim.split("@", 1)) if args.claim else None
    parents, changes = load(args.parent), load(args.change)
    failed = False

    untraced_p, untraced_c = by_workload(parents, 0), by_workload(changes, 0)
    names = [m["name"] for m in spec["end_to_end"]]
    print("workload".ljust(16) + "".join(n.ljust(30) for n in names))
    details = []
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = untraced_p.get(workload, []), untraced_c.get(workload, [])
        if not p_runs or not c_runs:
            continue
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            result = judge(
                metric,
                [r["result"]["metrics"][name]["value"] for r in p_runs],
                [r["result"]["metrics"][name]["value"] for r in c_runs],
                claim == (name, workload),
            )
            unit = metric["unit"]
            pm, p1, p3 = result["parent"]
            cm, c1, c3 = result["change"]
            cells.append(f"{result['verdict']} x{result['ratio']:.3f} of {pm:.4g}")
            details.append(
                f"{workload} {name}: {result['verdict']}; change {cm:.5g} {unit} "
                f"[{c1:.5g}, {c3:.5g}] = x{result['ratio']:.4f} of parent "
                f"{pm:.5g} {unit} [{p1:.5g}, {p3:.5g}]; change won "
                f"{result['wins']}, lost {result['losses']} of {result['pairs']} "
                f"pairs; parent spread {result['spread']:.3f} vs bound {metric['bound']}"
            )
            if result["verdict"] in ("regressed", "claim not met"):
                failed = True
        print(workload.ljust(16) + "".join(c.ljust(30) for c in cells))
        if len(p_runs) < MIN_PAIRS or len(c_runs) < MIN_PAIRS:
            details.append(f"{workload}: only {min(len(p_runs), len(c_runs))} pairs; {MIN_PAIRS} needed for a claim")
    print()
    for line in details:
        print(line)

    for trace in (0, 1):
        p_group, c_group = by_workload(parents, trace), by_workload(changes, trace)
        for workload, p_runs in p_group.items():
            for problem in exact_mismatches(p_runs, c_group.get(workload, [])):
                print(f"MISMATCH {workload} (trace {trace}): {problem}")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
