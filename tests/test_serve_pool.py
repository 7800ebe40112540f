"""Compute backends (repro.serve.pool) and app-level batch dispatch."""

import asyncio
import os
from collections import Counter

import pytest

from repro.jobs import ResultCache
from repro.jobs.cache import StoreConfig
from repro.jobs.model import canonical_request, group_requests
from repro.serve import ServeApp, ServeBackend, parse_price

SCALE = 65536

SCHEMES = ("push", "push+spzip", "phi", "phi+spzip", "ub", "ub+spzip")


def run(coro):
    return asyncio.run(coro)


def one_group(app="dc", dataset="arb", schemes=("push", "phi")):
    ((identity, cells),) = group_requests(
        canonical_request(app, scheme, dataset) for scheme in schemes)
    return identity, cells


def make_app(tmp_path, **kwargs):
    return ServeApp(scale=SCALE, store_config=StoreConfig(
        root=str(tmp_path / "cache")), **kwargs)


class TestMakeBackend:
    def test_builds_by_name(self):
        thread = ServeBackend("thread", 2)
        process = ServeBackend("process", 2)
        try:
            assert thread.name == "thread"
            assert set(thread.stats()) == {"name", "workers",
                                           "dispatches"}
            assert process.name == "process"
            assert set(process.stats()) == {"name", "workers",
                                            "dispatches", "fallbacks",
                                            "pool"}
        finally:
            thread.close()
            process.close()

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError) as info:
            ServeBackend("gpu", 2)
        assert "thread" in str(info.value)
        assert "process" in str(info.value)

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_rejects_nonpositive_workers(self, name):
        with pytest.raises(ValueError):
            ServeBackend(name, 0)


class TestThreadBackend:
    def test_runs_group_and_counts_dispatches(self):
        backend = ServeBackend("thread", 2)
        identity, cells = one_group()

        async def go():
            return await backend.run_group(SCALE, None, identity, cells)

        try:
            outcomes = run(go())
        finally:
            backend.close()
        assert len(outcomes) == 1 + len(cells)
        assert all(error == "" for *_rest, error in outcomes)
        assert backend.stats() == {"name": "thread", "workers": 2,
                                   "dispatches": 1}

    def test_same_profile_dispatches_serialize(self, tmp_path):
        """Two concurrent same-profile groups on two threads build the
        pricer's bundle once: the second waits for the first's build
        (the pricer's per-identity lock) and reuses it."""
        from repro.stages import stage_counters
        backend = ServeBackend("thread", 2)
        identity, cells = one_group(schemes=SCHEMES)
        # A store of its own, so no earlier test's pricer holds the
        # bundle already.
        store = StoreConfig(root=str(tmp_path / "cache"))

        async def go():
            return await asyncio.gather(
                backend.run_group(SCALE, None, identity, cells[:3],
                                  store),
                backend.run_group(SCALE, None, identity, cells[3:],
                                  store))

        before = Counter(stage_counters())
        try:
            results = run(go())
        finally:
            backend.close()
        delta = Counter(stage_counters()) - before
        assert all(error == "" for outcomes in results
                   for *_rest, error in outcomes)
        assert delta["stream.computed"] == 1
        assert delta["stream.memo"] == 1 + len(cells)


class TestProcessBackend:
    def test_runs_group_in_worker_process(self):
        import os
        backend = ServeBackend("process", 2)
        identity, cells = one_group(dataset="ukl")

        async def go():
            return await backend.run_group(SCALE, None, identity, cells)

        try:
            outcomes = run(go())
        finally:
            backend.close()
        assert len(outcomes) == 1 + len(cells)
        assert all(error == "" for *_rest, error in outcomes)
        if backend.stats()["pool"] == "up":  # sandbox may deny pools
            pids = {pid for _c, _m, _w, pid, _e in outcomes}
            assert pids and os.getpid() not in pids
            assert backend.fallbacks == 0
        assert backend.dispatches == 1

    def test_close_releases_shared_graph_segments(self, tmp_path):
        """Pool teardown drops this process's mapped graph segments."""
        from repro.graph import shared
        from repro.graph.datasets import clear_cache
        clear_cache()
        store = shared.enable_graph_store(str(tmp_path / "graphs"))
        backend = ServeBackend("process", 1)
        try:
            from repro.graph.datasets import load_preprocessed
            load_preprocessed("arb", "none", SCALE)   # build + publish
            load_preprocessed.__wrapped__("arb", "none", SCALE)  # map
            assert store.open_segments > 0
        finally:
            backend.close()
            try:
                assert store.open_segments == 0
            finally:
                shared.disable_graph_store()
                clear_cache()

    def test_broken_pool_falls_back_in_process(self):
        backend = ServeBackend("process", 1)
        identity, cells = one_group()
        if backend._pool is not None:
            backend._pool.shutdown(wait=False)  # submits now raise

        async def go():
            return await backend.run_group(SCALE, None, identity, cells)

        try:
            outcomes = run(go())
        finally:
            backend.close()
        assert all(error == "" for *_rest, error in outcomes)
        assert backend.fallbacks == 1
        assert len(outcomes) == 1 + len(cells)

    def test_dead_worker_demotes_the_pool_to_fallback(self):
        """A killed worker breaks the whole pool: the dispatch that
        finds it broken runs in-process, the backend drops the pool, so
        stats read ``fallback``, and later dispatches submit nothing."""
        backend = ServeBackend("process", 2)
        pool = backend._pool
        if pool is None:
            backend.close()
            pytest.skip("process pool unavailable")
        identity, cells = one_group()
        submits = []
        real_submit = pool.submit

        def counted(*args, **kwargs):
            submits.append(args[0])
            return real_submit(*args, **kwargs)

        pool.submit = counted
        _break(pool)

        async def go():
            return [await backend.run_group(SCALE, None, identity, cells)
                    for _ in range(3)]

        try:
            results = run(go())
        finally:
            backend.close()
        for outcomes in results:
            assert len(outcomes) == 1 + len(cells)
            assert all(error == "" for *_rest, error in outcomes)
            assert {pid for _c, _m, _w, pid, _e in outcomes} == \
                {os.getpid()}
        assert len(submits) == 1
        stats = backend.stats()
        assert (stats["pool"], stats["dispatches"], stats["fallbacks"]) \
            == ("fallback", 3, 3)

    def test_broken_pool_falls_back_on_every_thread(self, tmp_path,
                                                    monkeypatch):
        """Once a dead worker broke the pool, concurrent dispatches run
        in-process on as many threads at once, not one by one."""
        import threading
        import time

        import repro.jobs.executor as executor
        app = make_app(tmp_path, backend="process", workers=2)
        pool = app.backend._pool
        if pool is None:
            app.close()
            pytest.skip("process pool unavailable")
        spans = []
        real = executor._execute_group

        def slow(*args):
            start = time.monotonic()
            time.sleep(0.3)
            result = real(*args)
            spans.append((start, time.monotonic(),
                          threading.current_thread().name))
            return result

        # Installed after the pool forked: only in-process runs see it.
        monkeypatch.setattr(executor, "_execute_group", slow)
        _break(pool)
        groups = [one_group(dataset=dataset) for dataset in ("arb", "ukl")]

        async def go():
            return await asyncio.gather(*(
                app.backend.run_group(SCALE, None, identity, cells,
                                      app.store_config)
                for identity, cells in groups))

        try:
            results = run(go())
        finally:
            app.close()
        for outcomes in results:
            assert all(error == "" for *_rest, error in outcomes)
        (start_a, end_a, thread_a), (start_b, end_b, thread_b) = spans
        assert thread_a != thread_b
        assert max(start_a, start_b) < min(end_a, end_b)  # overlapped
        stats = app.backend.stats()
        assert (stats["pool"], stats["dispatches"], stats["fallbacks"]) \
            == ("fallback", 2, 2)


def _break(pool):
    """Kill one of ``pool``'s workers and wait until the pool knows."""
    import signal
    import time
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 30
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.05)


class TestAppBatching:
    def test_same_profile_cells_share_one_dispatch(self, tmp_path):
        """Six distinct schemes of one app/dataset: one execute_group."""
        app = make_app(tmp_path, batch_window_s=0.05)
        cells = [parse_price({"app": "dc", "scheme": scheme,
                              "dataset": "arb"})
                 for scheme in SCHEMES]

        async def go():
            try:
                return await asyncio.gather(
                    *(app.price(cell) for cell in cells))
            finally:
                app.close()

        results = run(go())
        assert app.computes == len(SCHEMES)
        assert Counter(s for _m, s in results) == \
            {"computed": len(SCHEMES)}
        assert app.batcher.batches == 1
        assert app.batcher.max_batch == len(SCHEMES)
        assert app.backend.stats()["dispatches"] == 1
        assert app.admission.admitted == 1  # admission gates dispatches

    def test_distinct_profiles_dispatch_independently(self, tmp_path):
        app = make_app(tmp_path, batch_window_s=0.05)
        cells = [parse_price({"app": "dc", "scheme": "push",
                              "dataset": dataset})
                 for dataset in ("arb", "ukl")]

        async def go():
            try:
                return await asyncio.gather(
                    *(app.price(cell) for cell in cells))
            finally:
                app.close()

        run(go())
        assert app.batcher.batches == 2
        assert app.backend.stats()["dispatches"] == 2

    def test_batch_results_are_write_through_and_correct(self, tmp_path):
        """Batched pricing must agree with the jobs layer, cell by
        cell, and land every result in both store tiers."""
        from repro.jobs.executor import execute_group
        app = make_app(tmp_path, batch_window_s=0.05)
        cells = [parse_price({"app": "bfs", "scheme": scheme,
                              "dataset": "arb"})
                 for scheme in ("push", "phi+spzip")]

        async def go():
            try:
                return await asyncio.gather(
                    *(app.price(cell) for cell in cells))
            finally:
                app.close()

        results = run(go())
        ((identity, group),) = group_requests(cells)
        reference = {cell: metrics for cell, metrics, *_rest
                     in execute_group(SCALE, None, identity, group)
                     if metrics is not None}
        for cell, (metrics, _source) in zip(cells, results):
            expected = reference[cell]
            assert metrics.cycles == expected.cycles
            assert metrics.total_traffic == expected.total_traffic
            key = app.request_key(cell)
            assert app.store.get_hot(key) is metrics
            assert app.store.disk.get(key) is not None

    def test_app_on_process_backend_end_to_end(self, tmp_path):
        app = make_app(tmp_path, backend="process", workers=2,
                       batch_window_s=0.05)
        cells = [parse_price({"app": "dc", "scheme": scheme,
                              "dataset": "ukl"})
                 for scheme in ("push", "phi")]

        async def go():
            try:
                return await asyncio.gather(
                    *(app.price(cell) for cell in cells))
            finally:
                app.close()

        results = run(go())
        assert app.computes == 2
        assert all(metrics.cycles > 0 for metrics, _s in results)
        assert app.backend.name == "process"
        assert app.stats()["backend"]["name"] == "process"
        # Served again: the hot tier answers, no second dispatch.
        app2_dispatches = app.backend.stats()["dispatches"]
        assert app2_dispatches == 1

    def test_workers_store_the_cells_the_server_admits(self, tmp_path,
                                                       monkeypatch):
        """On the process backend the worker that prices a cell writes
        it to disk, once; the server only admits it to the hot tier."""
        from repro.sim.metrics import RunMetrics
        app = make_app(tmp_path, backend="process", workers=2,
                       batch_window_s=0.05)
        writes = []
        real_put = ResultCache.put

        def recording_put(cache, key, value):
            writes.append(key)
            real_put(cache, key, value)

        # Installed after the pool forked: workers keep the real put.
        monkeypatch.setattr(ResultCache, "put", recording_put)
        cells = [parse_price({"app": "dc", "scheme": scheme,
                              "dataset": dataset})
                 for dataset in ("arb", "ukl")
                 for scheme in ("push", "phi")]

        async def go():
            try:
                return await asyncio.gather(
                    *(app.price(cell) for cell in cells))
            finally:
                app.close()

        results = run(go())
        assert app.computes == len(cells)
        disk = app.store.disk
        assert sum(isinstance(disk.get(key), RunMetrics)
                   for key in disk.keys()) == len(cells)
        for cell, (metrics, _source) in zip(cells, results):
            assert app.store.get_hot(app.request_key(cell)) is metrics
        if app.backend.stats()["pool"] == "up":  # sandbox may deny pools
            assert writes == []

    def test_one_bad_cell_does_not_sink_its_batch(self, tmp_path):
        app = make_app(tmp_path, batch_window_s=0.05)
        good = parse_price({"app": "dc", "scheme": "push",
                            "dataset": "arb"})
        bad = parse_price({"app": "dc", "scheme": "phi",
                           "dataset": "arb"})
        original = app.backend.run_group

        async def sabotage(scale, system, identity, cells, store=None):
            outcomes = await original(scale, system, identity, cells,
                                      store=store)
            return [(cell, None, wall, pid, "boom") if cell == bad else
                    (cell, metrics, wall, pid, error)
                    for cell, metrics, wall, pid, error in outcomes]

        app.backend.run_group = sabotage

        async def go():
            try:
                return await asyncio.gather(app.price(good),
                                            app.price(bad),
                                            return_exceptions=True)
            finally:
                app.close()

        good_result, bad_result = run(go())
        assert good_result[0].cycles > 0
        from repro.serve import ComputeError
        assert isinstance(bad_result, ComputeError)


class TestStageCountersAcrossBackends:
    CELLS = [("pr", "ukl", scheme) for scheme in ("push", "phi",
                                                  "phi+spzip")] + \
        [("cc", "arb", scheme) for scheme in ("push", "phi")]

    def _stages(self, tmp_path, backend):
        from repro.stages import reset_stage_counters
        app = make_app(tmp_path / backend, backend=backend, workers=1,
                       batch_window_s=0.01)
        cells = [parse_price({"app": a, "dataset": d, "scheme": s})
                 for a, d, s in self.CELLS]

        async def go():
            try:
                # One cell at a time: every dispatch is one cell, so
                # both backends see the same sequence of groups.
                for cell in cells:
                    await app.price(cell)
            finally:
                app.close()

        reset_stage_counters()
        run(go())
        assert app.computes == len(cells)
        return app.stats()["stages"]

    def test_stats_stages_match_for_thread_and_process(self, tmp_path):
        """Stage work done in a pool worker reaches /stats as it does
        when the same cells run on the thread backend."""
        thread = self._stages(tmp_path, "thread")
        process = self._stages(tmp_path, "process")
        assert thread["timing.computed"] == len(self.CELLS)
        assert thread["stream.computed"] == 2
        assert process == thread


def _price_in_turn(tmp_path, start_tracer_first):
    """Trace a process-backend app that prices two same-profile cells
    one after the other.  Returns the trace and, after each ``price``
    returned, how many worker spans the tracer held."""
    from repro.obs import TRACER
    if start_tracer_first:
        TRACER.start()
    app = make_app(tmp_path, backend="process", workers=2,
                   batch_window_s=0.01)
    if not start_tracer_first:
        TRACER.start()
    if app.backend.stats()["pool"] != "up":
        app.close()
        TRACER.stop()
        pytest.skip("process pool unavailable")
    seen = []

    async def go():
        try:
            for scheme in ("push", "phi"):
                await app.price(parse_price(
                    {"app": "bfs", "scheme": scheme, "dataset": "ukl"}))
                seen.append(sum(1 for span in TRACER.spans
                                if span.pid != os.getpid()))
        finally:
            app.close()

    try:
        run(go())
    finally:
        TRACER.stop()
    assert app.backend.stats()["dispatches"] == 2
    return list(TRACER.spans), seen


@pytest.fixture(scope="class")
def traced_in_turn(tmp_path_factory):
    return _price_in_turn(tmp_path_factory.mktemp("traced"), True)


class TestProcessBackendTrace:
    """Worker spans come home with each dispatch's result."""

    def test_each_group_sits_in_its_own_dispatch(self, traced_in_turn):
        spans, _seen = traced_in_turn
        by_id = {span.span_id: span for span in spans}
        tasks = [span for span in spans if span.name == "jobs.task"]
        groups = [span for span in spans if span.name == "jobs.group"
                  and span.pid != os.getpid()]
        assert len(tasks) == len(groups) == 2
        # Both dispatches share one profile job id; each still gets
        # exactly its own worker group beneath it.
        assert len({task.attrs["job_id"] for task in tasks}) == 1
        assert {group.parent_id for group in groups} == \
            {task.span_id for task in tasks}
        for group in groups:
            task = by_id[group.parent_id]
            assert task.attrs["job_id"] == group.attrs["job_id"]
            assert task.start_s <= group.start_s
            assert group.start_s + group.duration_s <= \
                task.start_s + task.duration_s

    def test_worker_spans_arrive_before_close(self, traced_in_turn):
        _spans, seen = traced_in_turn
        first, second = seen
        assert 0 < first < second

    def test_tracer_started_after_the_app_gets_worker_spans(
            self, tmp_path):
        spans, seen = _price_in_turn(tmp_path, False)
        assert seen[0] > 0
        assert any(span.name == "jobs.group" and span.pid != os.getpid()
                   for span in spans)
