"""The repository benchmark: one command, every workload, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report_cold --seed 1 \
        --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

``report_cold``   full ``repro report`` on an empty store
``report_warm``   the same report after a timing-only knob edit
``serve_mixed``   open-loop mixed traffic against ``repro serve``

Progress and the environment record go to stderr.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from a separate traced run inside this one) with
``--trace 1``.  Exit status is nonzero when the program is missing or a
workload could not run; a run whose outputs are wrong still prints its
result with ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, WORK_ROOT, environment, log  # noqa: E402

WORKLOADS = ("report_cold", "report_warm", "serve_mixed")


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _require_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: no program to measure "
                         f"({src}/repro is missing)")
    sys.path.insert(0, src)


def run(workload: str, seed: int, seconds: float, trace: bool,
        work_dir: str, scale: Optional[int]):
    if workload == "serve_mixed":
        import serving
        scale = scale or serving.SERVE_SCALE
        return serving.run_workload(seed, seconds, trace, work_dir,
                                    scale), scale
    import reports
    scale = scale or reports.REPORT_SCALE
    return reports.run_workload(workload, seed, seconds, trace, work_dir,
                                scale), scale


def _fixed_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0``: string hashing, and with it
    set and dict iteration order, then repeat from run to run, which
    takes one source of spread out of the measurements."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        sys.stdout.flush()
        sys.stderr.flush()
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=None,
                        help="model scale override (the smoke test runs "
                             "tiny graphs); default per workload")
    args = parser.parse_args(argv)
    _require_program()

    spec = _benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_ROOT, prefix="run-")
    try:
        outcome, scale = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), work_dir, args.scale)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(args.workload, args.seed, scale, bool(args.trace))
    env["samples"] = outcome.get("samples", {})
    log("environment: " + json.dumps(env, sort_keys=True))
    failures = outcome["failures"]
    for failure in failures:
        log(f"FAIL: {failure}")
    if "end_to_end" not in outcome or (args.trace
                                       and "layers" not in outcome):
        log("perfbench: no operation completed")
        return 1
    values = outcome["layers"] if args.trace else {
        name: entry["value"]
        for name, entry in outcome["end_to_end"].items()}
    units = {entry["name"]: entry["unit"] for entry in wanted}
    metrics = {}
    for name, unit in units.items():
        if name not in values and not args.trace:
            log(f"perfbench: metric {name} was not measured")
            return 1
        # A layer this workload never enters reads 0.
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
    attempted = int(outcome["attempted"])
    failed = min(attempted, len(failures))
    for name, value in sorted(values.items()):
        log(f"  {name:32s} {value:.6g} {units.get(name, '')}")
    log(f"  {'fail_frac':32s} {failed / attempted:.6g}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    _fixed_hash_seed()
    sys.exit(main())
