"""A/B speed gate: the repository benchmark on two checkouts, in pairs.

Runs ``perfbench/run.py --trace 0`` (the command and ``run_seconds``
that ``BENCHMARK.json`` names) in a base and a head checkout, one pair
per seed, switching which side goes first from pair to pair, so both
sides of every pair share one machine and one stretch of its load.
Pair ``i`` runs seed ``--seed + i`` on both sides.  The gate fails
(exit 1) when

* a head median of an end-to-end metric is worse than the base median
  by more than that metric's ``BENCHMARK.json`` bound,
* a head run is incorrect, or
* the head fails a larger share of operations than the base,

and when a run on either side produces no result, naming that side.
Both checkouts must hold the same ``perfbench/`` and ``BENCHMARK.json``
(copy the head's into the base), so the two sides differ only in the
program.  Each metric's medians, quartile distances and pair wins are
printed either way.

Run with::

    python benchmarks/perf_ab.py BASE_DIR HEAD_DIR \\
        --workload report_cold --pairs 5 --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List


def load_spec(checkout: str) -> Dict:
    with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _benchmark_files(checkout: str) -> Dict[str, bytes]:
    """The benchmark's own files: ``BENCHMARK.json`` and ``perfbench/``."""
    paths = ["BENCHMARK.json"]
    for base, dirs, files in os.walk(os.path.join(checkout, "perfbench")):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths += [os.path.relpath(os.path.join(base, name), checkout)
                  for name in files if not name.endswith(".pyc")]
    contents = {}
    for path in sorted(paths):
        with open(os.path.join(checkout, path), "rb") as handle:
            contents[path] = handle.read()
    return contents


def run_once(spec: Dict, checkout: str, workload: str, seed: int) -> Dict:
    """One benchmark run in ``checkout``: its result line, or
    ``{"error": ...}`` when it printed none."""
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit status {done.returncode}"}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"error": f"unreadable result line {lines[-1][:80]!r}"}


def _fail_share(runs: List[Dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / max(attempted, 1)


def _values(runs: List[Dict], name: str) -> List[float]:
    return [run["metrics"][name]["value"] for run in runs]


def verdict(spec: Dict, base: List[Dict], head: List[Dict]) -> List[str]:
    """Every reason the head fails the gate against the base (none: it
    passes).  ``base[i]`` and ``head[i]`` are pair ``i``'s result lines
    (``correct``, ``attempted``, ``failed``, ``metrics``) or
    ``{"error": ...}`` records of runs that printed none."""
    problems = [f"{side} run {i + 1} failed: {run['error']}"
                for side, runs in (("base", base), ("head", head))
                for i, run in enumerate(runs) if "error" in run]
    if problems:
        return problems
    problems += [f"head run {i + 1} is incorrect ({run['failed']} of "
                 f"{run['attempted']} operations failed)"
                 for i, run in enumerate(head) if not run["correct"]]
    if _fail_share(head) > _fail_share(base):
        problems.append(f"head fails {_fail_share(head):.2%} of "
                        f"operations, base {_fail_share(base):.2%}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        base_median = statistics.median(_values(base, name))
        head_median = statistics.median(_values(head, name))
        change = head_median / base_median - 1.0 if base_median else 0.0
        worse = change > bound if metric["better"] == "lower" \
            else change < -bound
        if worse:
            problems.append(
                f"{name}: head median {head_median:.4g} {metric['unit']} "
                f"against base {base_median:.4g} ({change:+.1%}), past "
                f"the {bound:.0%} bound")
    return problems


def _iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4,
                                           method="inclusive")
    return high - low


def summary(spec: Dict, base: List[Dict], head: List[Dict]) -> str:
    """Medians, quartile distances and pair wins of every metric."""
    lines = [f"{'metric':14s} {'base median':>12s} {'(IQR)':>10s} "
             f"{'head median':>12s} {'(IQR)':>10s} {'change':>8s} "
             f"{'head wins':>9s}"]
    pairs = [(b, h) for b, h in zip(base, head)
             if "error" not in b and "error" not in h]
    for metric in spec["end_to_end"] if pairs else []:
        b = _values([pair[0] for pair in pairs], metric["name"])
        h = _values([pair[1] for pair in pairs], metric["name"])
        lower = metric["better"] == "lower"
        wins = sum((hv < bv) if lower else (hv > bv)
                   for bv, hv in zip(b, h))
        base_median = statistics.median(b)
        head_median = statistics.median(h)
        change = head_median / base_median - 1.0 if base_median else 0.0
        lines.append(f"{metric['name']:14s} {base_median:12.4g} "
                     f"{_iqr(b):10.3g} {head_median:12.4g} "
                     f"{_iqr(h):10.3g} {change:+8.1%} "
                     f"{wins:>5d}/{len(pairs)}")
    for side, runs in (("base", base), ("head", head)):
        done = [run for run in runs if "error" not in run]
        if done:
            lines.append(f"{side} fail share {_fail_share(done):.2%} "
                         f"over {len(done)} run(s)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="checkout of the merge base")
    parser.add_argument("head", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if _benchmark_files(args.base) != _benchmark_files(args.head):
        print("perf_ab: the two checkouts hold different benchmarks; "
              "copy the head's perfbench/ and BENCHMARK.json into the "
              "base", file=sys.stderr)
        return 2
    spec = load_spec(args.head)
    base: List[Dict] = []
    head: List[Dict] = []
    for pair in range(args.pairs):
        seed = args.seed + pair
        sides = [("base", args.base, base), ("head", args.head, head)]
        if pair % 2:
            sides.reverse()
        for side, checkout, runs in sides:
            print(f"perf_ab: pair {pair + 1}/{args.pairs}, seed {seed}: "
                  f"{side}", file=sys.stderr, flush=True)
            runs.append(run_once(spec, checkout, args.workload, seed))
    print(f"{args.workload}: {args.pairs} pair(s), base {args.base}, "
          f"head {args.head}")
    print(summary(spec, base, head))
    problems = verdict(spec, base, head)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("A/B gate: " + ("FAIL" if problems else "pass"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
