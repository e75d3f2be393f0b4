#!/usr/bin/env python3
"""Compare the parent and change sides of a committed BENCH_<PR>.json file.

A BENCH file records `python3 perfbench/run.py` result lines for the commit a
change was made on ("parent") and for the change itself ("change"):

    {"runs": [{"side": "parent", "workload": "factor-ooc", "seed": 1,
               "trace": 0, "result": {<run.py's last stdout line>}}, ...]}

For every (workload, seed, trace) present on both sides, each end-to-end
metric that BENCHMARK.json declares is compared; when a side holds several
runs of the same key, their median is used. A metric is flagged when it moved
past its bound in its worse direction: for a lower-is-better metric when
change > parent * (1 + bound), for a higher-is-better one when
change < parent * (1 - bound). Per-layer metrics carry no bound and are not
compared.

Failed operations are checked per key as well: each result line carries
`attempted` and `failed` operation counts and a `correct` flag. A key is
flagged when the change side's share of failed operations (the sum of
`failed` over the sum of `attempted`, across that side's runs) exceeds the
parent's, or when any change run reports `correct: false`.

Usage: python3 tools/bench_compare.py BENCH_16.json

Exits 1 when any metric or key is flagged (or a side is missing), 0
otherwise. Standard library only.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load_runs(path):
    data = json.loads(Path(path).read_text())
    sides = defaultdict(lambda: defaultdict(list))
    for run in data["runs"]:
        key = (run["workload"], int(run["seed"]), int(run["trace"]))
        sides[run["side"]][key].append(run["result"])
    return sides


def median_metric(results, name):
    values = [r["metrics"][name]["value"] for r in results
              if name in r.get("metrics", {})]
    return statistics.median(values) if values else None


def failed_share(results):
    """Sum of failed over sum of attempted operations across `results`."""
    attempted = sum(int(r.get("attempted", 0)) for r in results)
    failed = sum(int(r.get("failed", 0)) for r in results)
    if attempted == 0:
        return 0.0 if failed == 0 else float("inf")
    return failed / attempted


def worse_by(parent, change, better):
    """Relative move in the worse direction (negative when it improved)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    moved = (change - parent) / abs(parent)
    return moved if better == "lower" else -moved


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", help="BENCH_<PR>.json to check")
    args = ap.parse_args(argv)

    bench_json = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(bench_json.read_text())
    sides = load_runs(args.bench)
    parent, change = sides.get("parent", {}), sides.get("change", {})
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("bench_compare: no (workload, seed, trace) on both sides",
              file=sys.stderr)
        return 1
    missing = sorted(set(parent) ^ set(change))
    for key in missing:
        print(f"bench_compare: {key} has runs on one side only",
              file=sys.stderr)

    flagged = []
    failures = []
    print(f"{'workload':<13}{'seed':>5}{'trace':>6}  {'metric':<28}"
          f"{'parent':>12}{'change':>12}{'ratio':>8}  bound")
    for key in keys:
        for m in spec["end_to_end"]:
            p = median_metric(parent[key], m["name"])
            c = median_metric(change[key], m["name"])
            if p is None or c is None:
                continue
            flag = worse_by(p, c, m["better"]) > m["bound"]
            if flag:
                flagged.append((key, m["name"], p, c))
            ratio = c / p if p else float("nan")
            mark = "FLAGGED" if flag else ""
            print(f"{key[0]:<13}{key[1]:>5}{key[2]:>6}  {m['name']:<28}"
                  f"{p:>12.4g}{c:>12.4g}{ratio:>8.3f}  {m['bound']:.2f}"
                  f" {mark}")
        p = failed_share(parent[key])
        c = failed_share(change[key])
        incorrect = sum(1 for r in change[key] if r.get("correct") is False)
        flag = c > p or incorrect > 0
        if flag:
            failures.append((key, p, c, incorrect))
        mark = "FLAGGED" if flag else ""
        print(f"{key[0]:<13}{key[1]:>5}{key[2]:>6}  {'failed share':<28}"
              f"{p:>12.4g}{c:>12.4g}{'':>8}  -    {mark}")
    for (w, seed, trace), name, p, c in flagged:
        print(f"bench_compare: {w} seed {seed} trace {trace}: {name} "
              f"moved from {p:.4g} to {c:.4g}, past its bound",
              file=sys.stderr)
    for (w, seed, trace), p, c, incorrect in failures:
        print(f"bench_compare: {w} seed {seed} trace {trace}: failed "
              f"share {c:.4g} against {p:.4g} at the parent; {incorrect} "
              f"change run(s) not correct", file=sys.stderr)
    return 1 if flagged or failures or missing else 0


if __name__ == "__main__":
    sys.exit(main())
