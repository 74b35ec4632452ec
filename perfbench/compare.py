#!/usr/bin/env python3
"""Compare two sets of timed results written by ``run.py --out``.

    python3 perfbench/compare.py --base base/*.json --new new/*.json

For each workload and end-to-end metric of BENCHMARK.json it prints the
median and quartiles of both sides and whether the new median is worse
than the base median by more than the metric's bound.  It also compares
the share of failed ops, and per known seed defect the share of its ops
that hit it: a new median above every base run's share is a regression,
since such ops are left out of the latencies and would otherwise read as
a faster run.  An incorrect new run (``correct:
false``) is a regression by itself; an incorrect base run is left out.
A run whose cdwtunnel backend differs from the base runs' backend is not
comparable: it is reported and left out, never compared.

Exit code: 0 no regression, 1 a regression, 3 nothing comparable.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths, side):
    """Correct timed runs by workload, and whether any run was incorrect."""
    runs, incorrect = defaultdict(list), False
    for path in paths:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
        if result["trace"] != 0:
            continue
        if result["correct"]:
            runs[result["workload"]].append((path, result))
        else:
            incorrect = True
            print(f"INCORRECT {side} run {path}, left out: {'; '.join(result['problems'])}")
    return runs, incorrect


def fail_frac(result):
    return result["failed"] / result["attempted"]


def defect_fracs(results, name):
    """Share of ops that hit a known defect, per run that had ops of its kinds."""
    return [hits / n for hits, n, _ in (r["defects"][name] for r in results if name in r["defects"])]


def share_worse(workload, what, base, new):
    """Print one share comparison; True if the new median is above every base run."""
    worse = new > max(base)
    print(f"{workload:<13} {what:<12} base {statistics.median(base):.6g} (max {max(base):.6g})  "
          f"new {new:.6g}  {'MORE FAILURES' if worse else 'ok'}")
    return worse


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    base, _ = load(args.base, "base")
    new, new_incorrect = load(args.new, "new")

    backends = {r["env"]["backend"] for runs in base.values() for _, r in runs}
    if len(backends) != 1:
        print(f"NOT COMPARABLE: the base runs used backends {sorted(backends)}")
        return 3
    (backend,) = backends
    status = 1 if new_incorrect else 0
    compared = 0
    for workload in sorted(set(base) & set(new)):
        kept = []
        for path, r in new[workload]:
            if r["env"]["backend"] == backend:
                kept.append(r)
            else:
                print(f"NOT COMPARABLE: {path} ran backend {r['env']['backend']}, the base ran {backend}")
        if not kept:
            continue
        compared += 1
        for m in metrics:
            b = summary([r["metrics"][m["name"]]["value"] for _, r in base[workload]])
            n = summary([r["metrics"][m["name"]]["value"] for r in kept])
            change = (n[1] - b[1]) / b[1]
            worse = -change if m["better"] == "higher" else change
            verdict = "WORSE THAN BOUND" if worse > m["bound"] else "ok"
            if worse > m["bound"]:
                status = 1
            print(f"{workload:<13} {m['name']:<12} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                  f"new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}] {m['unit']}  "
                  f"change {change:+.2%} (bound {m['bound']:.0%}) {verdict}")
        if share_worse(workload, "fail_frac", [fail_frac(r) for _, r in base[workload]],
                       statistics.median(fail_frac(r) for r in kept)):
            status = 1
        names = sorted({name for r in kept for name in r["defects"]}
                       | {name for _, r in base[workload] for name in r["defects"]})
        for name in names:
            b = defect_fracs([r for _, r in base[workload]], name)
            n = defect_fracs(kept, name)
            if b and n and share_worse(workload, name, b, statistics.median(n)):
                status = 1
    return status if compared else 3


if __name__ == "__main__":
    sys.exit(main())
