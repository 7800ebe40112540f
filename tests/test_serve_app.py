"""End-to-end serving tests: coalescing, endpoints, shutdown."""

import asyncio
import json
import time
from collections import Counter

import pytest

from repro.jobs.cache import StoreConfig
from repro.serve import (
    AdmissionController,
    ServeApp,
    ServeServer,
    SingleFlight,
    parse_price,
)
from tests.http_client import parse_response

SCALE = 65536

CELL = {"app": "dc", "scheme": "phi+spzip", "dataset": "arb"}


def run(coro):
    return asyncio.run(coro)


def make_app(tmp_path, **kwargs):
    return ServeApp(scale=SCALE, store_config=StoreConfig(
        root=str(tmp_path / "cache")), **kwargs)


def http_bytes(method, path, payload=None):
    body = b"" if payload is None else json.dumps(payload).encode()
    return (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode() + body


async def raw_request(server, data):
    reader, writer = await asyncio.open_connection(server.host,
                                                   server.port)
    writer.write(data)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return raw


async def json_request(server, method, path, payload=None):
    raw = await raw_request(server, http_bytes(method, path, payload))
    status, _headers, body = parse_response(raw)
    return status, json.loads(body)


# ---------------------------------------------------------------------------
# Single-flight coalescing
# ---------------------------------------------------------------------------

class TestSingleFlight:
    def test_concurrent_identical_run_thunk_exactly_once(self):
        async def go():
            flight = SingleFlight()
            gate = asyncio.Event()
            executions = []

            async def thunk():
                executions.append(1)
                await gate.wait()
                return "answer"

            tasks = [asyncio.ensure_future(flight.run("k", thunk))
                     for _ in range(8)]
            await asyncio.sleep(0)  # everyone joins the flight
            gate.set()
            return flight, executions, await asyncio.gather(*tasks)

        flight, executions, outcomes = run(go())
        assert len(executions) == 1
        assert all(result == "answer" for result, _c in outcomes)
        assert Counter(c for _r, c in outcomes) == {False: 1, True: 7}
        assert (flight.leaders, flight.followers) == (1, 7)
        assert flight.stats()["coalesce_rate"] == 7 / 8
        assert flight.in_flight == 0  # the flight is cleared

    def test_distinct_keys_do_not_coalesce(self):
        async def go():
            flight = SingleFlight()

            async def thunk():
                return "x"

            await asyncio.gather(flight.run("a", thunk),
                                 flight.run("b", thunk))
            return flight

        flight = run(go())
        assert (flight.leaders, flight.followers) == (2, 0)

    def test_leader_failure_propagates_but_is_not_cached(self):
        async def go():
            flight = SingleFlight()
            gate = asyncio.Event()
            attempts = []

            async def boom():
                attempts.append(1)
                await gate.wait()
                raise RuntimeError("compute failed")

            tasks = [asyncio.ensure_future(flight.run("k", boom))
                     for _ in range(3)]
            await asyncio.sleep(0)
            gate.set()
            outcomes = await asyncio.gather(*tasks,
                                            return_exceptions=True)
            assert all(isinstance(o, RuntimeError) for o in outcomes)

            async def fine():
                return "recovered"

            result, coalesced = await flight.run("k", fine)
            return attempts, result, coalesced

        attempts, result, coalesced = run(go())
        assert len(attempts) == 1  # the failure ran once, not cached
        assert (result, coalesced) == ("recovered", False)

    def test_cancelled_leader_does_not_sink_followers(self):
        """A leader disconnect must not fail the flight's followers."""
        async def go():
            flight = SingleFlight()
            gate = asyncio.Event()
            executions = []

            async def thunk():
                executions.append(1)
                await gate.wait()
                return "answer"

            leader = asyncio.ensure_future(flight.run("k", thunk))
            await asyncio.sleep(0)  # leader owns the flight
            followers = [asyncio.ensure_future(flight.run("k", thunk))
                         for _ in range(3)]
            await asyncio.sleep(0)  # followers join it
            leader.cancel()  # client disconnect
            await asyncio.sleep(0)
            gate.set()
            results = await asyncio.gather(*followers)
            with pytest.raises(asyncio.CancelledError):
                await leader
            return flight, executions, results

        flight, executions, results = run(go())
        assert len(executions) == 1  # the work still ran exactly once
        assert all(r == ("answer", True) for r in results)
        assert flight.leader_disconnects == 1
        assert flight.in_flight == 0

    def test_fully_abandoned_flight_still_completes(self):
        """Every waiter cancelled: the computation still finishes (it
        warms the store for the next asker) without leaking warnings."""
        async def go():
            flight = SingleFlight()
            finished = asyncio.Event()

            async def thunk():
                await asyncio.sleep(0)
                finished.set()
                return "late"

            leader = asyncio.ensure_future(flight.run("k", thunk))
            await asyncio.sleep(0)
            leader.cancel()
            await asyncio.wait_for(finished.wait(), timeout=1.0)
            await asyncio.sleep(0)  # let the done callback settle
            return flight

        flight = run(go())
        assert flight.in_flight == 0


class TestGroupBatcher:
    def test_same_profile_cells_batch_into_one_dispatch(self):
        from repro.serve import GroupBatcher

        async def go():
            dispatches = []

            async def dispatch(cells):
                dispatches.append(cells)
                return {key: f"priced:{key}" for _r, key in cells}

            batcher = GroupBatcher(dispatch, window_s=0.01,
                                   max_cells=16)
            results = await asyncio.gather(
                *(batcher.submit("profileA", f"req{i}", f"k{i}")
                  for i in range(5)))
            return batcher, dispatches, results

        batcher, dispatches, results = run(go())
        assert len(dispatches) == 1  # one group for all five cells
        assert len(dispatches[0]) == 5
        assert results == [f"priced:k{i}" for i in range(5)]
        assert batcher.stats()["batches"] == 1
        assert batcher.stats()["batched_cells"] == 5
        assert batcher.stats()["max_batch"] == 5

    def test_distinct_profiles_dispatch_separately(self):
        from repro.serve import GroupBatcher

        async def go():
            dispatches = []

            async def dispatch(cells):
                dispatches.append(cells)
                return {key: key for _r, key in cells}

            batcher = GroupBatcher(dispatch, window_s=0.005)
            await asyncio.gather(batcher.submit("pA", "r1", "k1"),
                                 batcher.submit("pB", "r2", "k2"))
            return dispatches

        dispatches = run(go())
        assert len(dispatches) == 2

    def test_full_batch_flushes_before_the_window(self):
        from repro.serve import GroupBatcher

        async def go():
            dispatches = []

            async def dispatch(cells):
                dispatches.append(cells)
                return {key: key for _r, key in cells}

            # A long window that max_cells=2 must preempt.
            batcher = GroupBatcher(dispatch, window_s=30.0, max_cells=2)
            await asyncio.wait_for(asyncio.gather(
                *(batcher.submit("p", f"r{i}", f"k{i}")
                  for i in range(4))), timeout=5.0)
            return batcher, dispatches

        batcher, dispatches = run(go())
        assert len(dispatches) == 2
        assert all(len(cells) == 2 for cells in dispatches)
        assert batcher.size_flushes == 2

    def test_completion_flush_releases_lingering_batch(self):
        from repro.serve import GroupBatcher

        async def go():
            gate = asyncio.Event()
            dispatches = []

            async def dispatch(cells):
                dispatches.append(cells)
                if len(dispatches) == 1:
                    await gate.wait()
                return {key: key for _r, key in cells}

            # Effectively infinite window: the second batch can only
            # flush when the first dispatch completes.
            batcher = GroupBatcher(dispatch, window_s=30.0, max_cells=2)
            first = [asyncio.ensure_future(
                batcher.submit("p", f"r{i}", f"k{i}"))
                for i in range(2)]  # size-flushes immediately
            await asyncio.sleep(0)
            late = asyncio.ensure_future(
                batcher.submit("p", "r-late", "k-late"))
            await asyncio.sleep(0)
            gate.set()
            await asyncio.wait_for(
                asyncio.gather(*first, late), timeout=5.0)
            return batcher, dispatches

        batcher, dispatches = run(go())
        assert len(dispatches) == 2
        assert batcher.completion_flushes == 1

    def test_per_cell_exception_values_fail_only_their_cell(self):
        from repro.serve import GroupBatcher

        async def go():
            async def dispatch(cells):
                results = {}
                for _request, key in cells:
                    results[key] = RuntimeError("bad cell") \
                        if key == "k-bad" else f"ok:{key}"
                return results

            batcher = GroupBatcher(dispatch, window_s=0.005)
            good, bad = await asyncio.gather(
                batcher.submit("p", "r1", "k-good"),
                batcher.submit("p", "r2", "k-bad"),
                return_exceptions=True)
            return good, bad

        good, bad = run(go())
        assert good == "ok:k-good"
        assert isinstance(bad, RuntimeError)

    def test_dispatch_crash_fails_the_whole_batch(self):
        from repro.serve import GroupBatcher

        async def go():
            async def dispatch(cells):
                raise OSError("pool exploded")

            batcher = GroupBatcher(dispatch, window_s=0.005)
            outcomes = await asyncio.gather(
                batcher.submit("p", "r1", "k1"),
                batcher.submit("p", "r2", "k2"),
                return_exceptions=True)
            return outcomes

        outcomes = run(go())
        assert all(isinstance(o, OSError) for o in outcomes)

    def test_rejects_bad_knobs(self):
        from repro.serve import GroupBatcher

        async def noop(cells):
            return {}

        with pytest.raises(ValueError):
            GroupBatcher(noop, window_s=-1.0)
        with pytest.raises(ValueError):
            GroupBatcher(noop, max_cells=0)


class TestAdmission:
    def test_bounds_concurrency_and_counts_waiters(self):
        async def go():
            admission = AdmissionController(limit=2)

            async def work():
                async with admission.slot():
                    await asyncio.sleep(0.01)

            await asyncio.gather(*(work() for _ in range(5)))
            return admission

        admission = run(go())
        assert admission.peak_in_flight == 2
        assert admission.admitted == 5
        assert admission.waited >= 3
        assert admission.in_flight == 0
        assert admission.stats()["limit"] == 2

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            AdmissionController(limit=0)


# ---------------------------------------------------------------------------
# The pricing pipeline (no sockets)
# ---------------------------------------------------------------------------

class TestPricePipeline:
    def test_64_identical_concurrent_requests_compute_once(
            self, tmp_path):
        """The acceptance criterion, at the app layer."""
        async def go():
            app = make_app(tmp_path)
            cell = parse_price(CELL)
            try:
                results = await asyncio.gather(
                    *(app.price(cell) for _ in range(64)))
            finally:
                app.close()
            return app, results

        app, results = run(go())
        assert app.computes == 1
        sources = Counter(source for _metrics, source in results)
        assert sources["computed"] == 1
        assert sources["coalesced"] == 63
        metrics = {id(m) for m, _s in results}
        assert len(metrics) == 1  # everyone got the leader's object

    def test_sources_walk_the_tiers(self, tmp_path):
        async def go():
            cold = make_app(tmp_path)
            cell = parse_price(CELL)
            _m, first = await cold.price(cell)
            _m, second = await cold.price(cell)
            cold.close()
            warm = make_app(tmp_path)  # same disk, empty hot tier
            _m, third = await warm.price(cell)
            _m, fourth = await warm.price(cell)
            warm.close()
            return first, second, third, fourth

        assert run(go()) == ("computed", "hot", "disk", "hot")


# ---------------------------------------------------------------------------
# HTTP endpoints
# ---------------------------------------------------------------------------

async def with_server(tmp_path, fn, **app_kwargs):
    app = make_app(tmp_path, **app_kwargs)
    server = await ServeServer(app, "127.0.0.1", 0).start()
    try:
        return await fn(app, server)
    finally:
        await server.shutdown(drain_timeout=5.0)


class TestEndpoints:
    def test_healthz_and_schemes(self, tmp_path):
        async def go(app, server):
            status, health = await json_request(server, "GET",
                                                "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["scale"] == SCALE
            status, schemes = await json_request(server, "GET",
                                                 "/schemes")
            assert status == 200
            assert schemes["count"] == 8
            names = {s["name"] for s in schemes["schemes"]}
            assert "phi+spzip" in names
            spzip = next(s for s in schemes["schemes"]
                         if s["name"] == "phi+spzip")
            assert spzip["default_parts"]
            assert "paper" in spzip["groups"]
        run(with_server(tmp_path, go))

    def test_price_and_simulate(self, tmp_path):
        async def go(app, server):
            status, priced = await json_request(server, "POST",
                                                "/price", CELL)
            assert status == 200
            assert priced["source"] == "computed"
            assert priced["metrics"]["cycles"] > 0
            status, sim = await json_request(server, "POST",
                                             "/simulate", CELL)
            assert status == 200
            assert sim["speedup_over_push"] > 0
            assert sim["baseline"]["scheme"] == "push"
        run(with_server(tmp_path, go))

    def test_sweep_counts_and_sources(self, tmp_path):
        async def go(app, server):
            body = {"app": "dc", "schemes": ["push", "phi"],
                    "dataset": "arb"}
            status, sweep = await json_request(server, "POST",
                                               "/sweep", body)
            assert status == 200
            assert sweep["count"] == 2
            assert len(sweep["cells"]) == 2
            # The identical sweep again is served without computing.
            computes = app.computes
            status, again = await json_request(server, "POST",
                                               "/sweep", body)
            assert status == 200
            assert app.computes == computes
            assert set(again["sources"]) == {"hot"}
        run(with_server(tmp_path, go))

    def test_oversized_sweep_is_refused_before_any_cell(
            self, tmp_path, monkeypatch):
        """7 apps x 19 versions x 8 schemes of distinct values: a 400
        naming the limit, with no cell built or resolved."""
        import repro.serve.protocol as protocol
        from repro.serve import MAX_SWEEP_CELLS
        built = []
        monkeypatch.setattr(protocol, "RunRequest",
                            lambda *cell: built.append(cell))
        body = {"apps": ["bfs", "cc", "dc", "pr", "prd", "re", "sp"],
                "datasets": [f"arb@{v}" for v in range(1, 20)],
                "schemes": "all"}

        async def go(app, server):
            resolved = []
            monkeypatch.setattr(app, "_resolve", resolved.append)
            status, error = await json_request(server, "POST",
                                               "/sweep", body)
            assert status == 400
            assert f"{MAX_SWEEP_CELLS}-cell limit" in error["error"]
            assert "1064 cells" in error["error"]
            assert built == [] and resolved == []
        run(with_server(tmp_path, go))

    def test_malformed_body_is_400_with_json_error(self, tmp_path):
        async def go(app, server):
            data = (b"POST /price HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 9\r\nConnection: close\r\n\r\n"
                    b"{not json")
            raw = await raw_request(server, data)
            status, _headers, body = parse_response(raw)
            assert status == 400
            error = json.loads(body)
            assert "invalid JSON body" in error["error"]
        run(with_server(tmp_path, go))

    def test_semantic_errors_are_400(self, tmp_path):
        async def go(app, server):
            status, body = await json_request(
                server, "POST", "/price",
                {"app": "nope", "scheme": "phi", "dataset": "arb"})
            assert status == 400
            assert "unknown app" in body["error"]
            status, body = await json_request(
                server, "POST", "/price", {"app": "dc"})
            assert status == 400
            assert "missing required field" in body["error"]
        run(with_server(tmp_path, go))

    def test_unknown_path_and_method(self, tmp_path):
        async def go(app, server):
            status, body = await json_request(server, "GET", "/nope")
            assert status == 404
            assert "/price" in body["endpoints"]
            status, body = await json_request(server, "GET", "/price")
            assert status == 405
            assert "POST" in body["error"]
        run(with_server(tmp_path, go))

    def test_garbage_request_line_is_400_and_closes(self, tmp_path):
        async def go(app, server):
            raw = await raw_request(server, b"GARBAGE\r\n\r\n")
            status, headers, body = parse_response(raw)
            assert status == 400
            assert headers["connection"] == "close"
            assert "malformed request line" in json.loads(body)["error"]
        run(with_server(tmp_path, go))

    def test_keep_alive_serves_sequential_requests(self, tmp_path):
        async def go(app, server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            try:
                for _ in range(2):
                    writer.write(b"GET /healthz HTTP/1.1\r\n"
                                 b"Host: t\r\n\r\n")
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    assert b"200 OK" in head
                    length = int(next(
                        line.split(b":")[1]
                        for line in head.split(b"\r\n")
                        if line.lower().startswith(b"content-length")))
                    await reader.readexactly(length)
            finally:
                writer.close()
                await writer.wait_closed()
        run(with_server(tmp_path, go))

    def test_stats_exposes_all_counter_groups(self, tmp_path):
        async def go(app, server):
            await json_request(server, "POST", "/price", CELL)
            status, stats = await json_request(server, "GET", "/stats")
            assert status == 200
            assert stats["computes"] == 1
            assert stats["requests"]["POST /price"] == 1
            assert stats["store"]["hot_entries"] == 1
            assert stats["admission"]["admitted"] == 1
            assert stats["flight"]["leaders"] == 1
        run(with_server(tmp_path, go))

    def test_stats_reads_the_disk_tier_off_the_event_loop(self,
                                                          tmp_path):
        """The disk tier's stats list every segment, and a server's
        first call indexes the whole store: /stats runs that on the I/O
        pool, and answers with the same keys ``stats()`` has."""
        import threading

        async def go(app, server):
            threads = []
            disk_stats = app.store.disk.stats

            def recorded():
                threads.append(threading.current_thread())
                return disk_stats()

            app.store.disk.stats = recorded
            await json_request(server, "POST", "/price", CELL)
            status, stats = await json_request(server, "GET", "/stats")
            assert status == 200
            assert len(threads) == 1
            assert threads[0] is not threading.current_thread()
            assert threads[0].name.startswith("serve-io")
            assert stats["store"]["disk"]["entries"] >= 4
            assert sorted(stats) == sorted(app.stats())
            assert sorted(stats["store"]) == sorted(app.stats()["store"])
        run(with_server(tmp_path, go))


# ---------------------------------------------------------------------------
# Dynamic graphs over the wire
# ---------------------------------------------------------------------------

class TestGraphDelta:
    @pytest.fixture(autouse=True)
    def clean_graph_registry(self):
        from repro.graph import shared
        from repro.graph.datasets import clear_cache
        clear_cache()
        yield
        shared.disable_graph_store()
        clear_cache()

    DELTA = {"dataset": "ukl",
             "insertions": [[0, 9], [4, 2]],
             "deletions": [[0, 1]]}

    def test_delta_versions_dataset_and_bare_name_follows_head(
            self, tmp_path):
        async def go(app, server):
            status, body = await json_request(server, "POST",
                                              "/graph/delta",
                                              self.DELTA)
            assert status == 200
            assert body["base"] == "ukl"
            assert body["dataset"] == f"ukl@{body['version']}"
            assert body["lineage_depth"] == 1
            assert body["insertions"] == 2
            assert body["deletions"] == 1
            assert body["touched_rows"] == 2  # rows 0 and 4
            assert body["num_vertices"] > 0

            # A bare-name price is pinned to the new head *before*
            # keying, so the explicit version then answers from the
            # hot tier: one cell, one computation.
            cell = {"app": "dc", "scheme": "phi", "dataset": "ukl"}
            status, bare = await json_request(server, "POST",
                                              "/price", cell)
            assert status == 200
            assert bare["source"] == "computed"
            assert bare["request"]["dataset"] == body["dataset"]
            status, pinned = await json_request(
                server, "POST", "/price",
                dict(cell, dataset=body["dataset"]))
            assert status == 200
            assert pinned["source"] == "hot"
            assert pinned["metrics"] == bare["metrics"]

            status, stats = await json_request(server, "GET", "/stats")
            assert stats["deltas"] == 1
        run(with_server(tmp_path, go))

    def test_deltas_chain_and_branch_from_explicit_versions(
            self, tmp_path):
        async def go(app, server):
            _status, first = await json_request(server, "POST",
                                                "/graph/delta",
                                                self.DELTA)
            # Bare name: chains onto the current head.
            _status, second = await json_request(
                server, "POST", "/graph/delta",
                {"dataset": "ukl", "insertions": [[7, 3]]})
            assert second["lineage_depth"] == 2
            # Explicit version: branches from that instance.
            status, branch = await json_request(
                server, "POST", "/graph/delta",
                {"dataset": first["dataset"], "insertions": [[8, 1]]})
            assert status == 200
            assert branch["lineage_depth"] == 2
            assert branch["dataset"] != second["dataset"]
        run(with_server(tmp_path, go))

    def test_unknown_version_price_is_400(self, tmp_path):
        async def go(app, server):
            status, body = await json_request(
                server, "POST", "/price",
                {"app": "dc", "scheme": "phi",
                 "dataset": "ukl@deadbeefdeadbeef"})
            assert status == 400
            assert "unknown dataset version" in body["error"]
            # Same guard on the delta endpoint (branching source).
            status, body = await json_request(
                server, "POST", "/graph/delta",
                {"dataset": "ukl@deadbeefdeadbeef",
                 "insertions": [[0, 1]]})
            assert status == 400
        run(with_server(tmp_path, go))

    def test_rootless_process_backend_refuses_deltas(self, tmp_path):
        """Worker processes can only see a mutation through the shared
        graph store; with no on-disk root that is impossible: 409."""
        async def go():
            app = ServeApp(scale=SCALE, backend="process", workers=1)
            server = await ServeServer(app, "127.0.0.1", 0).start()
            try:
                status, body = await json_request(server, "POST",
                                                  "/graph/delta",
                                                  self.DELTA)
                assert status == 409
                assert "on-disk store" in body["error"]
            finally:
                await server.shutdown(drain_timeout=5.0)
        run(go())


# ---------------------------------------------------------------------------
# Graceful shutdown
# ---------------------------------------------------------------------------

class TestShutdown:
    def test_drain_waits_for_in_flight_requests(self, tmp_path,
                                                monkeypatch):
        import repro.jobs.executor as executor
        original = executor._execute_group

        def slow(*args):
            time.sleep(0.3)
            return original(*args)

        monkeypatch.setattr(executor, "_execute_group", slow)

        async def go():
            app = make_app(tmp_path)
            server = await ServeServer(app, "127.0.0.1", 0).start()
            client = asyncio.ensure_future(
                json_request(server, "POST", "/price", CELL))
            while app._active == 0:  # the request is in flight
                await asyncio.sleep(0.005)
            drained = await server.shutdown(drain_timeout=10.0)
            status, body = await client
            return drained, status, body, server

        drained, status, body, server = run(go())
        assert drained is True
        assert status == 200
        assert body["source"] == "computed"

        async def refused():
            with pytest.raises(OSError):
                await asyncio.open_connection(server.host, server.port)
        run(refused())

    def test_drain_timeout_reports_failure(self, tmp_path,
                                           monkeypatch):
        import repro.jobs.executor as executor
        original = executor._execute_group

        def slow(*args):
            time.sleep(0.4)
            return original(*args)

        monkeypatch.setattr(executor, "_execute_group", slow)

        async def go():
            app = make_app(tmp_path)
            server = await ServeServer(app, "127.0.0.1", 0).start()
            client = asyncio.ensure_future(
                json_request(server, "POST", "/price", CELL))
            while app._active == 0:
                await asyncio.sleep(0.005)
            drained = await server.shutdown(drain_timeout=0.05)
            status, _body = await client  # still completes afterwards
            return drained, status

        drained, status = run(go())
        assert drained is False
        assert status == 200

    def test_draining_rejects_new_posts_but_answers_gets(
            self, tmp_path):
        async def go(app, server):
            app.draining = True
            status, body = await json_request(server, "POST", "/price",
                                              CELL)
            assert status == 503
            assert "draining" in body["error"]
            status, health = await json_request(server, "GET",
                                                "/healthz")
            assert status == 200
            assert health["status"] == "draining"
            app.draining = False  # let with_server shut down cleanly
        run(with_server(tmp_path, go))
