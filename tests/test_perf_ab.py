"""The A/B speed gate's verdict (``benchmarks/perf_ab.py``), on
synthetic run records against the repository's ``BENCHMARK.json``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "perf_ab", ROOT / "benchmarks" / "perf_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_ab = _load_gate()
SPEC = perf_ab.load_spec(str(ROOT))


def record(correct=True, attempted=200, failed=0, **values):
    """One run's result line: every end-to-end metric 1.0 unless given."""
    metrics = {metric["name"]: {"value": values.get(metric["name"], 1.0),
                                "unit": metric["unit"]}
               for metric in SPEC["end_to_end"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def runs(pairs=5, **kwargs):
    return [record(**kwargs) for _ in range(pairs)]


class TestVerdict:
    def test_identical_sides_pass(self):
        assert perf_ab.verdict(SPEC, runs(), runs()) == []

    def test_lower_is_better_30_percent_worse_fails(self):
        problems = perf_ab.verdict(SPEC, runs(report_s=2.0),
                                   runs(report_s=2.6))
        assert len(problems) == 1
        assert problems[0].startswith("report_s:")
        assert "+30.0%" in problems[0]

    def test_lower_is_better_20_percent_worse_passes(self):
        assert perf_ab.verdict(SPEC, runs(p50_ms=10.0),
                               runs(p50_ms=12.0)) == []

    def test_goodput_30_percent_lower_fails(self):
        problems = perf_ab.verdict(SPEC, runs(goodput_rps=240.0),
                                   runs(goodput_rps=168.0))
        assert len(problems) == 1
        assert problems[0].startswith("goodput_rps:")

    def test_goodput_higher_passes(self):
        assert perf_ab.verdict(SPEC, runs(goodput_rps=200.0),
                               runs(goodput_rps=300.0)) == []

    def test_one_slow_pair_does_not_move_the_median(self):
        head = runs(report_s=1.0)
        head[3] = record(report_s=1.9)
        assert perf_ab.verdict(SPEC, runs(report_s=1.0), head) == []

    def test_incorrect_head_run_fails(self):
        head = runs()
        head[2] = record(correct=False, failed=1)
        problems = perf_ab.verdict(SPEC, runs(), head)
        assert "head run 3 is incorrect (1 of 200 operations failed)" \
            in problems
        assert any(problem.startswith("head fails 0.10% of operations")
                   for problem in problems)

    def test_larger_fail_share_fails(self):
        base = runs()
        base[0] = record(correct=False, failed=2)
        head = runs()
        head[4] = record(correct=False, failed=3)
        problems = perf_ab.verdict(SPEC, base, head)
        assert "head fails 0.30% of operations, base 0.20%" in problems

    def test_equal_fail_share_is_not_a_regression(self):
        base = runs()
        base[0] = record(correct=False, failed=2)
        head = runs()
        head[4] = record(correct=True, failed=0)
        assert perf_ab.verdict(SPEC, base, head) == []

    def test_base_run_failure_names_the_base_side(self):
        base = runs()
        base[1] = {"error": "exit status 1"}
        problems = perf_ab.verdict(SPEC, base, runs())
        assert problems == ["base run 2 failed: exit status 1"]


class TestSummary:
    def test_medians_and_pair_wins(self):
        base = [record(report_s=v) for v in (3.0, 3.2, 3.4, 3.6, 3.8)]
        head = [record(report_s=v) for v in (2.9, 3.3, 3.3, 3.5, 3.7)]
        lines = perf_ab.summary(SPEC, base, head).splitlines()
        row = next(line for line in lines if line.startswith("report_s"))
        assert row.split()[1:] == ["3.4", "0.4", "3.3", "0.2", "-2.9%",
                                   "4/5"]
        assert "base fail share 0.00% over 5 run(s)" in lines
