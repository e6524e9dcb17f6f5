#!/usr/bin/env python3
"""Run alternating pairs of benchmark runs on two checkouts and compare every metric.

    python scripts/bench_pairs.py PARENT CHANGE --seed 3001

PARENT and CHANGE are source checkouts (the root of each).  Each workload
in CHANGE's BENCHMARK.json runs PAIRS = 10 pairs, with the end-to-end metrics,
directions (`better`) and bounds given there.  Pair k of a workload runs
`perfbench/run.py --workload W --seed SEED+k --seconds S --trace 0` in
both, the parent first in even pairs and the change first in odd ones, so
a drift in the machine's load falls on both sides.  For each workload and
metric it prints the median and quartiles of each side, how many pairs the
change wins (ties count for neither side), whether the medians differ by
more than the parent's interquartile range, whether the change's median is
worse than the parent's by more than the bound, and whether the metric is
unresolved: the parent's interquartile range, over its median, is wider
than the bound and not every run of the change beats every run of the
parent.  Then it prints each pair's two values.  Each pair's two results
go to standard error as they come.  The exit code is 1 if any run failed
a check, exited non-zero or printed no result.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """{"returncode", "result"}: result is run.py's last line of output, None if it is not JSON."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"returncode": done.returncode, "result": result}


def run_failed(run: dict) -> bool:
    result = run["result"]
    return run["returncode"] != 0 or not isinstance(result, dict) or result.get("failed") != 0


def metric_value(run: dict, name: str) -> float | None:
    """The metric's value in a run that passed, else None."""
    if run_failed(run) or name not in run["result"]["metrics"]:
        return None
    return run["result"]["metrics"][name]["value"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Facts about one metric; parent[k] and change[k] ran as pair k."""
    sign = 1.0 if better == "lower" else -1.0
    p_q = quartiles(parent)
    c_q = quartiles(change)
    worse_by = sign * (c_q[1] - p_q[1]) / abs(p_q[1])
    beats_every_run = max(sign * c for c in change) < min(sign * p for p in parent)
    return {"parent": p_q, "change": c_q, "pairs": len(parent),
            "wins": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
            "beyond_parent_iqr": abs(c_q[1] - p_q[1]) > p_q[2] - p_q[0],
            "worse_by": worse_by, "beyond_bound": worse_by > bound,
            "unresolved": (p_q[2] - p_q[0]) / abs(p_q[1]) > bound and not beats_every_run}


def summarize(spec: dict, runs: dict) -> tuple[list[str], bool]:
    """(report lines, whether every run passed) for runs[workload] = [(parent, change), ...]."""
    lines, all_passed = [], True
    for workload, pairs in runs.items():
        failed = [(k, side) for k, pair in enumerate(pairs)
                  for side, run in zip(("parent", "change"), pair) if run_failed(run)]
        all_passed = all_passed and not failed
        tallies = [sum(run["result"]["attempted"] for run in side if not run_failed(run))
                   for side in zip(*pairs)]
        lines.append(f"{workload}: {len(pairs)} pairs; operations attempted, parent/change: "
                     f"{tallies[0]}/{tallies[1]}; failed runs: "
                     + (", ".join(f"pair {k} {side}" for k, side in failed) or "none"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [(metric_value(p, name), metric_value(c, name)) for p, c in pairs]
            values = [pair for pair in values if None not in pair]
            if not values:
                continue
            parent, change = (list(side) for side in zip(*values))
            facts = compare(parent, change, metric["better"], metric["bound"])
            (p1, pm, p3), (c1, cm, c3) = facts["parent"], facts["change"]
            lines.append(
                f"  {name} ({metric['better']} is better, bound {metric['bound']:.0%}): "
                f"parent {pm:.4g} [{p1:.4g}-{p3:.4g}] -> change {cm:.4g} [{c1:.4g}-{c3:.4g}], "
                f"{abs(facts['worse_by']):.1%} {'worse' if facts['worse_by'] > 0 else 'better'}; "
                f"change wins {facts['wins']}/{facts['pairs']}; "
                f"beyond the parent's IQR: {'yes' if facts['beyond_parent_iqr'] else 'no'}; "
                f"beyond the bound: {'yes' if facts['beyond_bound'] else 'no'}; "
                f"unresolved: {'yes' if facts['unresolved'] else 'no'}")
            lines.append("    pairs: " + " ".join(f"{p:.4g}/{c:.4g}" for p, c in values))
    return lines, all_passed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs[name] = []
        for k in range(PAIRS):
            pair = [None, None]
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                checkout = (args.parent, args.change)[side]
                pair[side] = run_once(checkout, name, args.seed + k, spec["run_seconds"])
            runs[name].append(tuple(pair))
            print(f"{name} pair {k} (parent, change): {json.dumps(pair)}", file=sys.stderr,
                  flush=True)
    lines, all_passed = summarize(spec, runs)
    print("\n".join(lines))
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
