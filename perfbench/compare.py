"""Summarise or compare benchmark result sets written by `run.py --out`.

    python3 perfbench/compare.py results.jsonl            # spread of one set
    python3 perfbench/compare.py parent.jsonl change.jsonl  # verdicts

Both forms print, per workload and end-to-end metric, the median and
quartiles of each set (`statistics.quantiles(n=4)`) and the spread, the
distance between the quartiles as a share of the median. With one set the
last column says whether the spread is below a third of the metric's bound
in BENCHMARK.json. With two sets it gives a verdict, set B (the change)
against set A (the parent), by the pair rule:

- improved: B is better in at least nine tenths of at least ten pairs (runs
  paired by seed, else by order; ties count for neither side), the medians
  differ by more than A's own quartile distance, and B failed no more
  operations than A;
- worse-beyond-bound: B's median is worse than A's by more than the bound;
- unresolved: neither, and A's spread is wider than the bound, unless every
  run of B is better than every run of A (then improved);
- within-bound: neither, and the spread is within the bound.

Pass --trace to summarise the per-layer records of traced runs instead;
those metrics have no bound, so only `improved` and `unresolved` apply.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path, trace: bool) -> dict[str, list[dict]]:
    """workload -> records of the requested trace mode, in file order."""
    by_workload: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if bool(record["trace"]) == trace:
                    by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def _better(a, b, higher: bool) -> bool:
    """True when b reads better than a."""
    return b > a if higher else b < a


def _pairs(runs_a, runs_b):
    seeds_a = {r["seed"]: r for r in runs_a}
    if len(seeds_a) == len(runs_a) and all(r["seed"] in seeds_a for r in runs_b):
        return [(seeds_a[r["seed"]], r) for r in runs_b]
    return list(zip(runs_a, runs_b))


def verdict(runs_a, runs_b, name, higher, bound) -> str:
    a = [r["metrics"][name]["value"] for r in runs_a]
    b = [r["metrics"][name]["value"] for r in runs_b]
    q1a, med_a, q3a = quartiles(a)
    med_b = statistics.median(b)
    if bound is not None:
        worse_by = (med_a - med_b if higher else med_b - med_a) / abs(med_a)
        if worse_by > bound:
            return "worse-beyond-bound"
    pairs = _pairs(runs_a, runs_b)
    wins = sum(_better(x["metrics"][name]["value"], y["metrics"][name]["value"], higher)
               for x, y in pairs)
    failed_ok = sum(r["failed"] for r in runs_b) <= sum(r["failed"] for r in runs_a)
    if (failed_ok and len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and _better(med_a, med_b, higher) and abs(med_b - med_a) > q3a - q1a):
        return "improved"
    if bound is None or spread(a) > bound:
        every_better = all(_better(max(a) if higher else min(a), v, higher) for v in b)
        return "improved" if failed_ok and every_better else "unresolved"
    return "within-bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", help="one or two JSON-lines result files")
    parser.add_argument("--trace", action="store_true",
                        help="use the per-layer records of traced runs")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two result files")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sets = [load(path, args.trace) for path in args.sets]
    workloads = [w["name"] for w in spec["workloads"]]

    cell = f"{'n':>3} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>7}"
    head = f"{'workload':<16} {'metric':<32} {cell}"
    if len(sets) == 2:
        head += f" | {cell}  verdict"
    elif not args.trace:
        head += "  bound/3"
    print(head)
    worst = 0
    for workload in workloads:
        groups = [s.get(workload, []) for s in sets]
        if not all(groups):
            continue
        for metric in declared:
            name, bound = metric["name"], metric.get("bound")
            higher = metric["better"] == "higher"
            cells = []
            for runs in groups:
                values = [r["metrics"][name]["value"] for r in runs
                          if name in r["metrics"]]
                q1, med, q3 = quartiles(values)
                cells.append(f"{len(values):>3} {q1:>11.5g} {med:>11.5g} {q3:>11.5g} "
                             f"{spread(values):>7.3f}")
            line = f"{workload:<16} {name:<32} " + " | ".join(cells)
            if len(sets) == 2:
                result = verdict(*groups, name, higher, bound)
                worst = max(worst, result == "worse-beyond-bound")
                line += f"  {result}"
            elif bound is not None:
                steady = spread([r["metrics"][name]["value"] for r in groups[0]]) < bound / 3
                line += f"  {'ok' if steady else 'WIDE'} ({bound / 3:.3f})"
            print(line)
    return worst


if __name__ == "__main__":
    sys.exit(main())
