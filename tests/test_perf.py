"""The ``--perf`` instrument: the tracer's per-name span summary and
its event counts (repro.obs)."""

import time

import pytest

from repro.obs import TRACER, Tracer, render_spans


@pytest.fixture
def perf():
    tracer = Tracer()
    tracer.start(trace_id="perf-test")
    yield tracer
    tracer.stop()


class TestStageStat:
    """One name's row of the span summary."""

    def test_mean(self, perf):
        for _ in range(4):
            perf.manual_span("stage", 0.5)
        stat = perf.summary()["stage"]
        assert stat["calls"] == 4
        assert stat["seconds"] / stat["calls"] == pytest.approx(0.5)


class TestPerfRegistry:
    """The tracer as the registry ``--perf`` reports from: spans for
    timings, counts for events."""

    def test_timer_accumulates(self, perf):
        with perf.span("stage.a"):
            pass
        with perf.span("stage.a", count=10):
            time.sleep(0.001)
        stat = perf.summary()["stage.a"]
        assert stat["calls"] == 2
        assert stat["count"] == 10
        assert stat["seconds"] > 0.0

    def test_timer_records_on_exception(self, perf):
        with pytest.raises(RuntimeError):
            with perf.span("stage.boom"):
                raise RuntimeError("x")
        assert perf.summary()["stage.boom"]["calls"] == 1

    def test_add_counts_without_timing(self, perf):
        perf.count("items", 3)
        perf.count("items", 4)
        perf.count("items")
        assert perf.counts() == {"items": 8}
        assert perf.spans == []

    def test_disabled_registry_records_nothing(self):
        tracer = Tracer()  # never started: spans are no-ops
        with tracer.span("x", count=3) as span:
            span.set(ignored=True)
        tracer.manual_span("y", 1.0)
        assert tracer.spans == []
        assert tracer.summary() == {}

    def test_reset(self, perf):
        perf.count("stage.x")
        perf.count("other")
        perf.reset_counts("stage.")
        assert perf.counts() == {"other": 1}
        perf.reset_counts()
        assert perf.counts() == {}

    def test_snapshot_is_sorted_heaviest_first_and_detached(self, perf):
        perf.manual_span("light", 0.1)
        perf.manual_span("heavy", 2.0)
        assert list(perf.summary()) == ["heavy", "light"]
        perf.count("n")
        snap = perf.counts()
        snap["n"] = 99
        assert perf.counts() == {"n": 1}

    def test_report_renders_all_stages(self, perf):
        perf.manual_span("replay.push_scatter", 0.5, count=100)
        perf.manual_span("runner.profile", 2.0)
        report = render_spans("perf:", perf.spans)
        assert "replay.push_scatter" in report
        assert "runner.profile" in report
        # Heaviest stage first.
        assert report.index("runner.profile") < \
            report.index("replay.push_scatter")

    def test_report_when_empty(self):
        assert render_spans("perf:", []).startswith("perf:")


class TestModuleRegistry:
    def test_global_registry_usable(self):
        TRACER.count("test.event")
        assert TRACER.counts("test.") == {"test.event": 1}
        TRACER.reset_counts("test.")
        assert TRACER.counts("test.") == {}
