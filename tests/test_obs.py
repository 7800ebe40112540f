"""The tracing layer: spans, export, adoption, and trace summaries."""

import os

import pytest

from repro.obs import (
    TRACER,
    Tracer,
    read_trace,
    render_trace_summary,
    spans_by_parent,
    summarize_spans,
)


@pytest.fixture
def tracer():
    t = Tracer()
    t.start(trace_id="t-test")
    yield t
    t.stop()


class TestSpanRecording:
    def test_nesting_sets_parent_ids(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                with tracer.span("leaf") as leaf:
                    pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert leaf.parent_id == inner.span_id
        assert [s.name for s in tracer.spans] == \
            ["leaf", "inner", "outer"]  # closed innermost-first

    def test_siblings_share_parent(self, tracer):
        with tracer.span("parent") as parent:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id

    def test_attrs_and_count(self, tracer):
        with tracer.span("work", count=42, app="bfs") as span:
            span.set(extra=1)
        assert span.attrs["app"] == "bfs"
        assert span.attrs["extra"] == 1
        assert span.attrs["count"] == 42
        assert span.duration_s >= 0.0

    def test_summary_accumulates(self, tracer):
        with tracer.span("stage", count=5):
            pass
        with tracer.span("stage", count=7):
            pass
        stat = tracer.summary()["stage"]
        assert stat["calls"] == 2
        assert stat["count"] == 12
        assert stat["seconds"] >= 0.0

    def test_inactive_span_is_a_no_op(self):
        t = Tracer()
        assert not t.active
        with t.span("stage", count=3) as span:
            span.set(ignored=True)  # the shared null span swallows it
        assert t.spans == []
        assert t.summary() == {}
        assert span.attrs == {}

    def test_manual_span_is_returned_but_not_kept_when_inactive(self):
        t = Tracer()
        t.manual_span("stage.stream.hit", 0.25, dataset="arb")
        assert t.spans == []

    def test_forked_child_sees_inactive(self, tracer):
        # Fork-safety is keyed on the owning pid; fake a child process.
        tracer._owner_pid = os.getpid() + 1
        assert not tracer.active
        with tracer.span("x"):
            pass
        assert tracer.spans == []

    def test_manual_span_parents_and_counts(self, tracer):
        with tracer.span("envelope") as env:
            span = tracer.manual_span("measured", duration_s=1.5,
                                      count=9, job_id="j1")
        assert span.parent_id == env.span_id
        assert span.duration_s == 1.5
        assert span.attrs["count"] == 9
        explicit = tracer.manual_span("other", duration_s=0.5,
                                      parent_id="custom")
        assert explicit.parent_id == "custom"


class TestExportAndMerge:
    def test_save_read_roundtrip(self, tracer, tmp_path):
        with tracer.span("outer", app="bfs"):
            with tracer.span("inner", count=3):
                pass
        path = str(tmp_path / "trace.jsonl")
        assert tracer.save(path) == 2
        header, spans = read_trace(path)
        assert header["trace_id"] == "t-test"
        assert [s.name for s in spans] == ["outer", "inner"]  # by start
        by_name = {s.name: s for s in spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].attrs["app"] == "bfs"

    def test_adopt_keeps_worker_nesting_under_the_given_parent(
            self, tracer):
        import pickle
        worker = Tracer()
        worker.start()
        with worker.span("jobs.group", job_id="job-1"):
            with worker.span("jobs.price"):
                pass
        with worker.span("jobs.group", job_id="job-2"):
            pass
        worker.stop()
        # The spans cross the pool by pickle.
        spans = pickle.loads(pickle.dumps(worker.spans))

        with tracer.span("jobs.run"):
            task = tracer.manual_span("jobs.task", duration_s=0.1)
        tracer.adopt(spans, task.span_id)
        assert tracer.spans[-3:] == spans
        groups = [s for s in spans if s.name == "jobs.group"]
        price = next(s for s in spans if s.name == "jobs.price")
        # The worker's top-level spans go under the given parent ...
        assert [g.parent_id for g in groups] == [task.span_id] * 2
        # ... and its nesting is kept.
        assert price.parent_id == next(
            g.span_id for g in groups if g.attrs["job_id"] == "job-1")

    def test_summaries_and_rendering(self, tracer, tmp_path):
        with tracer.span("heavy", count=10):
            pass
        with tracer.span("heavy", count=5):
            pass
        summary = summarize_spans(tracer.spans)
        assert summary["heavy"]["calls"] == 2
        assert summary["heavy"]["count"] == 15
        path = str(tmp_path / "trace.jsonl")
        tracer.save(path)
        assert summarize_spans(read_trace(path)[1])["heavy"]["calls"] == 2
        rendered = render_trace_summary(path)
        assert "heavy" in rendered and "t-test" in rendered
        index = spans_by_parent(tracer.spans)
        assert len(index[None]) == 2


class TestCounts:
    def test_counts_are_kept_while_inactive(self):
        t = Tracer()
        t.count("stage.stream.hit")
        t.count("stage.stream.hit", 2)
        assert t.counts("stage.") == {"stage.stream.hit": 3}

    def test_merge_adds_a_delta(self):
        t = Tracer()
        t.count("stage.stream.hit", 2)
        t.merge_counts({"stage.stream.hit": 3, "stage.replay.hit": 1})
        assert t.counts() == {"stage.stream.hit": 5,
                              "stage.replay.hit": 1}

    def test_counting_is_thread_safe(self):
        import sys
        import threading
        t = Tracer()

        def bump():
            for _ in range(2000):
                t.count("n")
                t.merge_counts({"n": 1})

        threads = [threading.Thread(target=bump) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert t.counts() == {"n": 8 * 2000 * 2}  # no lost update


class TestGlobalTracer:
    def test_module_tracer_is_inactive_by_default(self):
        assert isinstance(TRACER, Tracer)
        assert not TRACER.active
