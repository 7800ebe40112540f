"""Smoke test of the benchmark itself, at a tiny model scale.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric ``BENCHMARK.json`` names is emitted with its
unit by every workload, in both the end-to-end and the traced mode, and
that the tracing wrappers put the original functions back.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

#: Graphs at 1/2^20 of the paper's inputs: the smallest the registry
#: builds (64 vertices), so a whole report takes seconds.
TINY_SCALE = 1 << 20

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", str(TINY_SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-4000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr[-4000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == \
        {entry["name"]: entry["unit"] for entry in wanted}
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        if not trace:
            assert entry["value"] > 0, name


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def test_wrappers_restore_the_originals_after_a_traced_run(tmp_path):
    from layers import LayerTrace, layer_totals, traced_callables
    from repro.jobs import JobRunner
    from repro.jobs.model import RunRequest
    from repro.obs import TRACER

    before = [(owner, attr, _current(owner, attr))
              for owner, attr in traced_callables()]
    layers = LayerTrace().install()
    try:
        for owner, attr, original in before:
            assert _current(owner, attr) is not original, attr
        TRACER.start(trace_id="smoke")
        runner = JobRunner(scale=TINY_SCALE, cache_dir=str(tmp_path))
        runner.prefetch([RunRequest("dc", "push", "arb"),
                         RunRequest("dc", "phi+spzip", "arb")])
        TRACER.stop()
    finally:
        layers.restore()
    for owner, attr, original in before:
        assert _current(owner, attr) is original, attr
    totals = layer_totals(TRACER.spans)
    for layer in ("harness.prefetch", "jobs.run", "jobs.group",
                  "stage.stream", "stage.timing", "graph.load"):
        assert totals[layer]["calls"] >= 1, layer
    # Self time never exceeds the span, and nested layers are carved out.
    for stat in totals.values():
        assert 0.0 <= stat["self_s"] <= stat["total_s"] + 1e-9
    assert totals["harness.prefetch"]["self_s"] < \
        totals["harness.prefetch"]["total_s"]
