"""Fig 17: per-input results with DFS preprocessing.

Paper anchors: PHI+SpZip stays fastest everywhere; preprocessing
benefits inputs differently — twi has little community structure, so its
adjacency compresses less and batching stays comparatively attractive.
"""

from conftest import run_once

from repro.harness import EXPERIMENTS


def test_fig17_per_input_preprocessed(benchmark, runner, report):
    result = run_once(benchmark, EXPERIMENTS["fig17"], runner)
    report(result)
    by_key = {(r["app"], r["input"], r["scheme"]): r for r in result.rows}
    apps = sorted({r["app"] for r in result.rows})
    inputs = sorted({r["input"] for r in result.rows})
    for app in apps:
        for dataset in inputs:
            rows = {s: by_key[(app, dataset, s)]
                    for s in ("push", "push+spzip", "ub", "ub+spzip",
                              "phi", "phi+spzip")}
            fastest = max(rows.values(), key=lambda r: r["speedup"])
            assert fastest["scheme"] == "phi+spzip", (app, dataset)
    # twi benefits least from preprocessed-adjacency compression:
    # Push+SpZip's traffic reduction is smallest there (paper Sec V-A).
    reductions = {}
    for dataset in inputs:
        vals = [by_key[(app, dataset, "push+spzip")]["traffic"]
                for app in apps]
        reductions[dataset] = sum(vals) / len(vals)
    assert reductions["twi"] == max(reductions.values())
