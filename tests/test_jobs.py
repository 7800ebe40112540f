"""Unit tests for the job orchestration subsystem (repro.jobs)."""

import os
from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.jobs import (
    JobExecutionError,
    JobExecutor,
    JobRunner,
    NullCache,
    ResultCache,
    RunRequest,
    code_salt,
    job_fingerprint,
)
from repro.jobs.cache import StoreConfig
from repro.jobs.executor import Dispatcher
from repro.jobs.model import group_requests
from repro.stages import stage_counters
from tests.store_faults import damage_record, segment_paths

SCALE = 65536


def counted(run):
    """``run()``'s result, and the stage counts it added in every
    process that did its work."""
    before = Counter(stage_counters())
    result = run()
    return result, dict(Counter(stage_counters()) - before)


# ---------------------------------------------------------------------------
# Job model
# ---------------------------------------------------------------------------

class TestJobModel:
    def test_cells_of_one_identity_share_a_group(self):
        requests = [RunRequest("pr", s, "arb") for s in ("push", "phi")]
        requests += [RunRequest("pr", "push", "ukl")]
        groups = dict(group_requests(requests))
        assert len(groups) == 2  # arb and ukl share nothing
        assert sum(map(len, groups.values())) == 3
        assert len(groups[("pr", "arb", "none")]) == 2

    def test_duplicate_requests_deduplicate(self):
        request = RunRequest("pr", "push", "arb")
        assert group_requests([request, request]) == \
            [(("pr", "arb", "none"), [request])]

    def test_group_is_keyed_by_the_cells_identity(self):
        request = RunRequest("cc", "ub", "twi", "dfs")
        assert group_requests([request]) == [(("cc", "twi", "dfs"),
                                              [request])]

    def test_identities_and_schemes_come_out_sorted(self):
        """One dispatch order whatever the request order: identities
        sorted, and each identity's cells sorted by scheme."""
        requests = [RunRequest("pr", s, d, p)
                    for p in ("none", "dfs") for d in ("ukl", "arb")
                    for s in ("push", "phi", "ub")]
        groups = group_requests(requests)
        assert group_requests(reversed(requests)) == groups
        identities = [identity for identity, _cells in groups]
        assert identities == sorted(identities) and len(identities) == 4
        for identity, cells in groups:
            assert [c.scheme for c in cells] == ["phi", "push", "ub"]
            assert {c.profile_key for c in cells} == {identity}


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_stable_across_calls(self):
        request = RunRequest("pr", "push", "arb")
        system = SystemConfig().scaled(SCALE)
        assert job_fingerprint(request, SCALE, system) == \
            job_fingerprint(request, SCALE, system)

    def test_sensitive_to_identity_and_config(self):
        system = SystemConfig().scaled(SCALE)
        base = RunRequest("pr", "push", "arb")
        keys = {job_fingerprint(base, SCALE, system)}
        keys.add(job_fingerprint(RunRequest("pr", "phi", "arb"), SCALE,
                                 system))
        keys.add(job_fingerprint(base, SCALE // 2,
                                 SystemConfig().scaled(SCALE // 2)))
        variant = RunRequest("pr", "phi+spzip[decoupled]", "arb")
        keys.add(job_fingerprint(variant, SCALE, system))
        assert len(keys) == 4

    def test_system_is_rendered_once_per_config(self, monkeypatch):
        """Equal systems built apart share a key, an edited system does
        not, and keys for many jobs under one system render it once."""
        from dataclasses import replace

        import repro.jobs.fingerprint as fp
        jobs = [RunRequest("pr", scheme, "arb")
                for scheme in ("push", "phi", "ub")]
        system = SystemConfig().scaled(SCALE)
        twin = SystemConfig().scaled(SCALE)
        assert twin is not system
        assert job_fingerprint(jobs[0], SCALE, twin) == \
            job_fingerprint(jobs[0], SCALE, system)
        faster = replace(system, memory=replace(
            system.memory, gb_per_sec_per_controller=2
            * system.memory.gb_per_sec_per_controller))
        assert job_fingerprint(jobs[0], SCALE, faster) != \
            job_fingerprint(jobs[0], SCALE, system)
        renders = []
        real_asdict = fp.asdict

        def counting_asdict(value):
            renders.append(value)
            return real_asdict(value)

        monkeypatch.setattr(fp, "asdict", counting_asdict)
        fp._system_digest.cache_clear()
        keys = {job_fingerprint(job, SCALE, faster) for job in jobs}
        assert len(keys) == len(jobs)
        assert renders == [faster]

    def test_code_salt_is_short_hex(self):
        salt = code_salt()
        assert len(salt) == 16
        int(salt, 16)


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"x": 1.5})
        assert cache.get("ab" * 32) == {"x": 1.5}
        assert cache.stats()["entries"] == 1
        assert cache.keys() == ["ab" * 32]

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("cd" * 32, [1, 2])
        damage_record(str(tmp_path), "cd" * 32, "flip")
        assert cache.get("cd" * 32) is None
        assert "cd" * 32 not in cache.keys()  # dropped from the index

    def test_corruption_is_reported_not_silent(self, tmp_path):
        """Regression: dropped entries must reach the error channel."""
        messages = []
        cache = ResultCache(str(tmp_path), on_error=messages.append)
        cache.put("cd" * 32, [1, 2])
        damage_record(str(tmp_path), "cd" * 32, "flip")
        assert cache.get("cd" * 32) is None
        assert len(messages) == 1
        assert messages[0].startswith("cache: dropping unreadable")
        assert "cd" * 32 in messages[0]

    def test_executor_wires_cache_error_channel(self, tmp_path):
        seen = []
        executor = JobExecutor(scale=1 << 10,
                               store=StoreConfig(root=str(tmp_path)),
                               progress=seen.append)
        executor.run([])
        executor.cache.on_error("hello")
        assert seen[-1] == "hello"

    def test_each_executor_run_reports_to_its_own_channel(self,
                                                          tmp_path):
        """Executors on one store and config share this process's
        pricer, and so its cache: each run points the cache's error
        channel at its own progress, not the first executor's."""
        store = StoreConfig(root=str(tmp_path))
        first, second = [], []
        JobExecutor(scale=1 << 10, store=store,
                    progress=first.append).run([])
        executor = JobExecutor(scale=1 << 10, store=store,
                               progress=second.append)
        executor.run([])
        executor.cache.on_error("mine")
        assert "mine" in second and "mine" not in first

    def test_corruption_counts_in_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.stats()["corrupt_dropped"] == 0
        cache.put("cd" * 32, [1, 2])
        damage_record(str(tmp_path), "cd" * 32, "flip")
        assert cache.get("cd" * 32) is None
        assert cache.corrupt_dropped == 1
        assert cache.stats()["corrupt_dropped"] == 1

    def test_truncated_entry_reads_as_miss(self, tmp_path):
        """A record cut mid-value is a miss, dropped and counted."""
        cache = ResultCache(str(tmp_path))
        cache.put("ef" * 32, {"x": 1})
        damage_record(str(tmp_path), "ef" * 32, "truncate")
        assert cache.get("ef" * 32) is None
        assert "ef" * 32 not in cache.keys()
        assert cache.stats()["corrupt_dropped"] == 1
        # The key is writable again after the drop.
        cache.put("ef" * 32, {"x": 2})
        assert cache.get("ef" * 32) == {"x": 2}
        assert ResultCache(str(tmp_path)).get("ef" * 32) == {"x": 2}

    def test_null_cache_stores_nothing(self):
        cache = NullCache()
        cache.put("x", 1)
        assert cache.get("x") is None
        assert cache.stats()["corrupt_dropped"] == 0


# ---------------------------------------------------------------------------
# Executor + orchestrator
# ---------------------------------------------------------------------------

REQUESTS = [RunRequest("dc", scheme, "arb") for scheme in
            ("push", "phi", "phi+spzip")]


class TestExecutor:
    def test_serial_executes_and_caches(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        executor = JobExecutor(scale=SCALE, jobs=1,
                               store=StoreConfig(root=str(tmp_path)))
        results, counts = counted(lambda: executor.run(list(REQUESTS)))
        assert list(results) == REQUESTS  # deterministic order
        # Every cell priced, on one profile.
        assert counts["timing.computed"] == len(REQUESTS)
        assert counts["stream.computed"] == 1
        # One cell result per request, plus the staged pipeline's
        # artifacts: one stream/replay/compress for the shared profile.
        # Timing is not stored apart from the cell.
        assert cache.stats()["entries"] == len(REQUESTS) + 3

    def test_warm_cache_skips_profiling(self, tmp_path):
        store = StoreConfig(root=str(tmp_path))
        JobExecutor(scale=SCALE, jobs=1, store=store).run(
            list(REQUESTS))
        executor = JobExecutor(scale=SCALE, jobs=1, store=store)
        warm, counts = counted(lambda: executor.run(list(REQUESTS)))
        # Every cell hit the store: nothing profiled, nothing priced.
        assert counts == {}
        cold = JobExecutor(scale=SCALE, jobs=1).run(list(REQUESTS))
        assert warm == cold

    def test_matches_plain_runner(self):
        from repro.stages import StagePricer
        results = JobExecutor(scale=SCALE, jobs=1).run(list(REQUESTS))
        # Built here, not taken from the executor's per-process memo.
        pricer = StagePricer(scale=SCALE)
        for request, metrics in results.items():
            assert metrics == pricer.price(request.app, request.scheme,
                                           request.dataset,
                                           request.preprocessing)

    def test_failure_raises_after_retries(self, monkeypatch):
        import repro.jobs.executor as executor_module
        real = executor_module._execute_group
        groups = []

        def counting(scale, system, identity, cells, store=None):
            groups.append(identity)
            return real(scale, system, identity, cells, store)

        monkeypatch.setattr(executor_module, "_execute_group", counting)
        executor = JobExecutor(scale=SCALE, jobs=1, retries=2)
        bad = [RunRequest("dc", "no-such-scheme", "arb")]
        with pytest.raises(JobExecutionError,
                           match="price:dc/arb/none/no-such-scheme"):
            executor.run(bad)
        # The first attempt and its two retries.
        assert groups == [("dc", "arb", "none")] * 3

    def test_pool_workers_store_each_cell_once(self, tmp_path):
        """The process that prices a cell stores it, under the key the
        dispatcher looks up: one entry per cell, and a second run on
        the same store hits every cell and dispatches nothing."""
        from repro.sim.metrics import RunMetrics
        requests = list(REQUESTS) + [RunRequest("cc", scheme, "arb")
                                     for scheme in ("push", "phi")]
        store = StoreConfig(root=str(tmp_path))
        cold = JobExecutor(scale=SCALE, jobs=2, store=store).run(requests)
        cache = ResultCache(str(tmp_path))
        stored = [cache.get(key) for key in cache.keys()]
        assert sum(isinstance(value, RunMetrics)
                   for value in stored) == len(requests)
        progress = []
        warm = JobExecutor(scale=SCALE, jobs=2, store=store,
                           progress=progress.append).run(requests)
        assert warm == cold
        assert not [line for line in progress
                    if line.startswith(("group", "stages:"))]

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            JobExecutor(scale=SCALE, jobs=0)

    def test_stages_line_is_the_same_for_serial_and_pool(self, tmp_path):
        """Stage work done in pool workers reaches the executor's
        ``stages:`` progress line exactly as in-process work does."""
        requests = [RunRequest("bfs", scheme, "ukl", preprocessing)
                    for preprocessing in ("none", "dfs")
                    for scheme in ("push", "phi", "phi+spzip")]

        def stages_line(jobs):
            lines = []
            # A fresh store per run: nothing is shared between the two.
            JobExecutor(scale=SCALE, jobs=jobs,
                        store=StoreConfig(root=str(tmp_path / f"j{jobs}")),
                        progress=lines.append).run(list(requests))
            return [line for line in lines if line.startswith("stages:")]

        serial = stages_line(1)
        assert serial and "timing.computed=6" in serial[0]
        assert stages_line(2) == serial

    def test_remote_group_sends_its_count_delta_not_totals(self):
        from repro.jobs.executor import execute_group, execute_remote
        from repro.obs import TRACER
        request = RunRequest("dc", "push", "arb")
        identity = request.profile_key
        TRACER.count("stage.test.prior", 5)
        try:
            outcomes, counts, spans = execute_remote(
                execute_group, (SCALE, None, identity, [request]))
            _outcomes, _counts, traced = execute_remote(
                execute_group, (SCALE, None, identity, [request]),
                traced=True)
        finally:
            TRACER.reset_counts("stage.test.")
        assert [o[0] for o in outcomes] == [identity, request]
        assert "stage.test.prior" not in counts
        assert counts and all(name.startswith("stage.") and n > 0
                              for name, n in counts.items())
        # Spans travel only when the dispatcher was tracing.
        assert spans == []
        roots = [span for span in traced if span.parent_id is None]
        assert [span.name for span in roots] == ["jobs.group"]
        assert not TRACER.active

    def test_worker_store_failures_travel_home(self, tmp_path,
                                               monkeypatch):
        """A pool task whose cell writes hit a full disk returns the
        same results, and its count delta carries the failures to the
        dispatcher."""
        import errno

        import repro.jobs.cache as cache_module
        from repro.jobs.executor import execute_group, execute_remote
        ((identity, cells),) = group_requests(REQUESTS)

        plain, _counts, _spans = execute_remote(execute_group, (
            SCALE, None, identity, cells,
            StoreConfig(root=str(tmp_path / "ok"))))

        def full_disk(fd, buffers):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cache_module.os, "writev", full_disk)
        full, counts, _spans = execute_remote(execute_group, (
            SCALE, None, identity, cells,
            StoreConfig(root=str(tmp_path / "full"))))
        assert full == plain
        assert all(metrics is not None for _c, metrics, _e in full[1:])
        assert counts.get("stage.store.write_failed", 0) >= len(cells)
        # Each failed append was cut back: the segment holds nothing.
        assert [os.path.getsize(path) for path in
                segment_paths(str(tmp_path / "full"))] == [0]


#: Prefetches two groups with jobs=2, timeout=2 and retries=0 after
#: making pool workers that run the ``cc`` group wait until their
#: parent is gone; writes the cells to ``argv[2]``.
HUNG_WORKER_SCRIPT = """
import multiprocessing, os, pickle, sys, time
multiprocessing.set_start_method("fork")
import repro.jobs.executor as executor
from repro.jobs import JobRunner

parent = os.getpid()
real = executor._execute_group


def hang_in_workers(scale, system, identity, cells, store=None):
    if os.getpid() != parent and identity[0] == "cc":
        while os.getppid() == parent:
            time.sleep(0.1)
    return real(scale, system, identity, cells, store)


executor._execute_group = hang_in_workers
requests = pickle.loads(bytes.fromhex(sys.argv[1]))
runner = JobRunner(scale=%d, jobs=2, timeout=2, retries=0,
                   progress=print)
runner.prefetch(requests)
with open(sys.argv[2], "wb") as handle:
    pickle.dump([runner.run(r.app, r.scheme, r.dataset)
                 for r in requests], handle)
""" % SCALE


class TestHungWorker:
    def test_timed_out_worker_does_not_hold_the_exit(self, tmp_path):
        """A worker that never returns: its group times out and runs
        in-process, the pool's workers are stopped, and the interpreter
        exits promptly with a clean run's cells."""
        import contextlib
        import pickle
        import signal
        import subprocess
        import sys
        requests = [RunRequest(app, scheme, "arb")
                    for app in ("dc", "cc") for scheme in ("push", "phi")]
        out = tmp_path / "cells.pkl"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        with subprocess.Popen(
                [sys.executable, "-c", HUNG_WORKER_SCRIPT,
                 pickle.dumps(requests).hex(), str(out)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, start_new_session=True) as proc:
            try:
                # A worker left running would hold the exit: timeout.
                stdout, stderr = proc.communicate(timeout=30)
            finally:
                # Whatever happened, leave no worker of it running.
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 0, stderr
        assert "group profile:cc/arb/none: timed out" in stdout
        clean = JobExecutor(scale=SCALE, jobs=1).run(requests)
        with open(out, "rb") as handle:
            assert pickle.load(handle) == [clean[r] for r in requests]


#: Runs two groups with jobs=2 whose pool workers each drop a file
#: named after their pid into ``argv[1]`` and then sleep.
ORPHAN_SCRIPT = """
import os, sys, time
import repro.jobs.executor as executor
from repro.jobs import JobExecutor, RunRequest

parent = os.getpid()


def mark_and_sleep(scale, system, identity, cells, store=None):
    if os.getpid() != parent:
        open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
        time.sleep(60)
    return []


executor._execute_group = mark_and_sleep
JobExecutor(scale=%d, jobs=2).run([RunRequest("dc", "push", "arb"),
                                   RunRequest("cc", "push", "arb")])
""" % SCALE


def _running(pid):
    """Whether ``pid`` runs; a zombie nobody reaped has ended."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_the_dispatcher_is_killed(self, tmp_path):
        """SIGKILL the dispatching process mid-group: its workers
        notice and end themselves instead of waiting forever."""
        import contextlib
        import signal
        import subprocess
        import sys
        import time
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.Popen(
            [sys.executable, "-c", ORPHAN_SCRIPT, str(tmp_path)],
            env=env, start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while len(os.listdir(tmp_path)) < 2:
                assert proc.poll() is None and \
                    time.monotonic() < deadline, "workers never started"
                time.sleep(0.05)
            workers = [int(name) for name in os.listdir(tmp_path)]
            os.kill(proc.pid, signal.SIGKILL)  # the dispatcher alone
            proc.wait()
            deadline = time.monotonic() + 10
            while any(map(_running, workers)) and \
                    time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in workers if _running(pid)]
        finally:
            # Whatever happened, leave nothing of it running.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


_TEST_PROCESS = os.getpid()


def _hang_in_pool(scale, system, identity, cells, store=None):
    """A group task that never returns in a pool worker, and returns
    no outcomes at once in the test process (its in-process retry)."""
    if os.getpid() != _TEST_PROCESS:
        import time
        time.sleep(60)
    return []


class TestPoolClose:
    """``Dispatcher.close`` joins the pool's manager thread, so a
    process that exits right after it (a report, ``ServeApp.close``)
    cannot race that thread at interpreter exit."""

    def _manager(self, dispatcher):
        if dispatcher._pool is None:
            pytest.skip("process pool unavailable")
        return dispatcher._pool._executor_manager_thread

    def _close(self, dispatcher):
        """``close()``, bounded: a hang fails the test, not the run."""
        import threading
        closer = threading.Thread(target=dispatcher.close, daemon=True)
        closer.start()
        closer.join(timeout=30)
        assert not closer.is_alive(), "close() hung"

    def test_clean_close_joins_the_manager_thread(self):
        dispatcher = Dispatcher(processes=2)
        manager = self._manager(dispatcher)
        self._close(dispatcher)
        assert not manager.is_alive()

    def test_close_after_a_timeout_joins_the_manager_thread(self):
        dispatcher = Dispatcher(processes=1, timeout=0.2)
        manager = self._manager(dispatcher)
        task = (_hang_in_pool, (SCALE, None, ("dc", "arb", "none"), []))
        try:
            [outcomes] = dispatcher.run([task])
            assert outcomes == []
        finally:
            self._close(dispatcher)
        assert not manager.is_alive()


class TestJobRunner:
    def test_prefetch_then_run_hits_memory(self, tmp_path):
        runner = JobRunner(scale=SCALE, jobs=1,
                           cache_dir=str(tmp_path))

        def prefetch_then_run():
            assert set(runner.prefetch(REQUESTS)) == set(REQUESTS)
            return runner.run("dc", "phi", "arb")

        metrics, counts = counted(prefetch_then_run)
        assert metrics.scheme == "phi"
        # The prefetch priced every cell once; the run priced none.
        assert counts["timing.computed"] == len(REQUESTS)
        assert counts["stream.computed"] == 1

    def test_unplanned_run_falls_back_and_caches(self, tmp_path):
        runner = JobRunner(scale=SCALE, jobs=1,
                           cache_dir=str(tmp_path))
        first = runner.run("dc", "ub", "arb")
        fresh = JobRunner(scale=SCALE, jobs=1,
                          cache_dir=str(tmp_path))
        again, counts = counted(lambda: fresh.run("dc", "ub", "arb"))
        assert again == first
        # A one-cell prefetch that hit the store: nothing computed.
        assert counts == {}

    def test_profiles_reuse_the_bundles_prefetch_built(self):
        """The runner prices through the pricer its in-process groups
        use, so reading profiles after a prefetch rebuilds nothing."""
        from repro.stages import reset_stage_counters, stage_counters
        runner = JobRunner(scale=SCALE, jobs=1)
        runner.prefetch([RunRequest("cc", scheme, "arb")
                         for scheme in ("push", "phi")])
        reset_stage_counters()
        assert runner.profiles("cc", "arb")
        counts = stage_counters()
        assert {name for name in counts if name.endswith(".memo")} == \
            {"stream.memo", "replay.memo", "compress.memo"}
        assert not any(name.endswith(".computed") for name in counts)

    def test_corrupt_stage_artifact_reaches_progress(self, tmp_path):
        from dataclasses import replace
        from repro.jobs.fingerprint import stream_fingerprint
        JobRunner(scale=SCALE, cache_dir=str(tmp_path)).prefetch(
            [RunRequest("cc", "push", "arb")])
        key = stream_fingerprint("cc", "arb", "none", SCALE)
        damage_record(str(tmp_path), key, "flip")
        # Another model config: a pricer that reads the store afresh.
        system = SystemConfig().scaled(SCALE)
        system = replace(system, memory=replace(
            system.memory, gb_per_sec_per_controller=2
            * system.memory.gb_per_sec_per_controller))
        seen = []
        runner = JobRunner(scale=SCALE, system=system,
                           cache_dir=str(tmp_path), progress=seen.append)
        runner.prefetch([RunRequest("dc", "push", "arb")])
        assert runner.profiles("cc", "arb")
        assert any(message.startswith("cache: dropping unreadable")
                   and key in message for message in seen)

    def test_store_errors_reach_the_runner_that_read_them(self,
                                                          tmp_path):
        """Runners on one store and config share this process's pricer;
        a damaged cell is reported to the runner that looked it up, by
        prefetch or by run, and to no other."""
        request = RunRequest("dc", "push", "arb")
        key = job_fingerprint(request, SCALE, SystemConfig().scaled(SCALE))
        first, second, third = [], [], []

        def runner(progress):
            return JobRunner(scale=SCALE, cache_dir=str(tmp_path),
                             progress=progress)

        def dropped(messages):
            return [m for m in messages
                    if m.startswith("cache: dropping unreadable")
                    and key in m]

        runner(first.append).prefetch([request])
        damage_record(str(tmp_path), key, "flip")
        runner(second.append).prefetch([request])
        damage_record(str(tmp_path), key, "flip")
        runner(third.append).run("dc", "push", "arb")
        assert (len(dropped(first)), len(dropped(second)),
                len(dropped(third))) == (0, 1, 1)

    def test_run_profiles_and_schemes(self):
        runner = JobRunner(scale=SCALE)
        assert runner.profiles("dc", "arb")
        assert set(runner.run_all_schemes("dc", "arb")) == \
            {"push", "push+spzip", "ub", "ub+spzip", "phi", "phi+spzip"}


def _fig21():
    """Fig 21's declaration with short walks (64 rows each)."""
    from repro.harness.experiments import fig21_scratchpad
    return fig21_scratchpad(rows_to_walk=64)


def _skip_without_pool(progress):
    if any(line.startswith("process pool unavailable") for line in progress):
        pytest.skip("process pool unavailable")


class TestWalkDispatch:
    """Fig 21's walks: looked up in the store by the runner's process,
    the misses walked through the dispatcher, on the pool when
    ``jobs > 1``."""

    def test_rows_agree_across_jobs_stores_and_reruns(self, tmp_path):
        declaration = _fig21()
        expected = declaration(JobRunner(scale=SCALE)).rows
        for jobs in (1, 2):
            assert declaration(JobRunner(scale=SCALE,
                                         jobs=jobs)).rows == expected
            for _rerun in ("cold", "warm"):
                runner = JobRunner(scale=SCALE, jobs=jobs,
                                   cache_dir=str(tmp_path / str(jobs)))
                assert declaration(runner).rows == expected

    def test_cold_pool_run_walks_in_the_workers(self, tmp_path):
        """The parent drives no walk of its own: each one's
        ``engine.drive`` span comes home from a worker beneath its
        dispatch's ``jobs.task`` envelope, and the workers' counts and
        stored walks reach the parent and the store."""
        from repro.obs import TRACER
        from repro.stages import (
            StagePricer,
            reset_stage_counters,
            stage_counters,
        )
        declaration = _fig21()
        progress = []
        runner = JobRunner(scale=SCALE, jobs=2, cache_dir=str(tmp_path),
                           progress=progress.append)
        reset_stage_counters()
        TRACER.start()
        try:
            declaration(runner)
        finally:
            TRACER.stop()
        _skip_without_pool(progress)
        by_id = {span.span_id: span for span in TRACER.spans}

        def envelope(span):
            while span is not None and span.name != "jobs.task":
                span = by_id.get(span.parent_id)
            return span

        drives = [span for span in TRACER.spans
                  if span.name == "engine.drive"]
        assert len(drives) == 6
        assert all(span.pid != os.getpid() for span in drives)
        assert all(envelope(span) is not None for span in drives)
        assert stage_counters() == {"engine.computed": 6}
        pricer = StagePricer(scale=SCALE, store=runner.store)
        assert all(pricer.stored_cycles(
            walk.dataset, walk.preprocessing, walk.config, walk.rows,
            walk.mem_latency) is not None for walk in declaration.walks)

    def test_warm_rerun_builds_no_dispatcher(self, tmp_path, monkeypatch):
        import repro.jobs.executor as executor
        from repro.stages import reset_stage_counters, stage_counters
        declaration = _fig21()
        cold = declaration(JobRunner(scale=SCALE, jobs=2,
                                     cache_dir=str(tmp_path))).rows

        def no_dispatcher(*_args, **_kwargs):
            raise AssertionError("a warm run built a dispatcher")

        monkeypatch.setattr(executor, "Dispatcher", no_dispatcher)
        reset_stage_counters()
        warm = declaration(JobRunner(scale=SCALE, jobs=2,
                                     cache_dir=str(tmp_path))).rows
        assert warm == cold
        assert stage_counters() == {"engine.hit": 6}

    def test_walk_failing_in_workers_is_retried_then_run_here(
            self, monkeypatch):
        from repro.stages import StagePricer
        parent = os.getpid()
        real = StagePricer.traversal_cycles

        def fail_in_workers(self, *args):
            if os.getpid() != parent:
                raise RuntimeError("walk failed in a worker")
            return real(self, *args)

        # Installed before the dispatcher forks: its workers see it.
        monkeypatch.setattr(StagePricer, "traversal_cycles",
                            fail_in_workers)
        walks = list(_fig21().walks)[:2]
        progress = []
        cycles = JobExecutor(scale=SCALE, jobs=2, retries=1,
                             progress=progress.append).walks(walks)
        _skip_without_pool(progress)
        assert cycles == JobExecutor(scale=SCALE, jobs=1).walks(walks)
        failed = [line for line in progress if "worker failed" in line]
        # Per walk: the first attempt and its one retry.
        assert len(failed) == 2 * len(walks)

    def test_walk_failing_everywhere_raises(self, monkeypatch):
        from repro.stages import StagePricer

        def always_fail(self, *args):
            raise RuntimeError("walk failed")

        monkeypatch.setattr(StagePricer, "traversal_cycles", always_fail)
        walks = list(_fig21().walks)[:2]
        progress = []
        with pytest.raises(RuntimeError, match="walk failed"):
            JobExecutor(scale=SCALE, jobs=2, retries=1,
                        progress=progress.append).walks(walks)
        _skip_without_pool(progress)
        # The first walk's two pool attempts failed before it raised here.
        assert len([line for line in progress
                    if "worker failed" in line]) == 2


class TestPricerFor:
    def test_racing_threads_create_one_pricer(self, tmp_path,
                                              monkeypatch):
        """Two threads asking for one (scale, system, store) pricer at
        once get one pricer between them, in every trial."""
        import sys
        import threading

        import repro.jobs.executor as executor
        import repro.stages
        created = []

        class Counting(repro.stages.StagePricer):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(repro.stages, "StagePricer", Counting)
        system = SystemConfig().scaled(SCALE)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for trial in range(50):
                store = StoreConfig(root=str(tmp_path / str(trial)))
                start = threading.Barrier(2, timeout=60)
                got = []

                def ask():
                    start.wait()
                    got.append(executor.pricer_for(SCALE, system, store))

                threads = [threading.Thread(target=ask) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                executor._PRICERS.pop((SCALE, system, store), None)
                assert (len(created), got[0] is got[1]) == (1, True), \
                    f"trial {trial}: {len(created)} pricers"
                created.clear()
        finally:
            sys.setswitchinterval(interval)


class TestPlans:
    """The cells each registry entry declares (repro.harness)."""

    def test_fig07_plan_covers_all_schemes(self):
        from repro.harness import declared_cells
        from repro.schemes import scheme_names
        requests = declared_cells(["fig07"])
        assert {r.scheme for r in requests} == set(scheme_names("paper"))
        assert all(r.profile_key == ("bfs", "ukl", "none")
                   for r in requests)

    def test_plans_deduplicate_across_experiments(self):
        from repro.harness import declared_cells
        merged = declared_cells(["fig15a", "fig15b"])
        assert len(merged) == len(set(merged))
        assert len(merged) == len(declared_cells(["fig15a"]))

    def test_profile_only_experiments_have_empty_plans(self):
        from repro.harness import declared_cells
        assert declared_cells(["table1", "fig21", "sorting"]) == []

    def test_fig19_plan_folds_parts_into_scheme(self):
        from repro.harness import declared_cells
        requests = declared_cells(["fig19"])
        parted = [r for r in requests if "[parts=" in r.scheme]
        assert parted
        assert any(r.scheme == "phi+spzip[parts=adjacency]"
                   for r in parted)

    def test_fig20_plan_folds_decoupled_into_scheme(self):
        from repro.harness import declared_cells
        requests = declared_cells(["fig20"])
        assert any(r.scheme == "phi+spzip[decoupled]" for r in requests)

    def test_each_entry_reads_every_cell_it_declares(self):
        """Render every entry from a map that serves one real result
        for each declared cell, a cycle count for each declared walk,
        and records each read: every declared cell and walk is read.
        (A read of an undeclared cell is a KeyError; see the next
        test.)"""
        from repro.harness import DECLARATIONS
        real = JobRunner(scale=SCALE)
        metrics = real.run("dc", "push", "arb")
        profiles = real.profiles("dc", "arb")

        class Recording(dict):
            def __init__(self, declaration):
                super().__init__((cell, metrics)
                                 for cell in declaration.cells)
                self.update((walk, 1000) for walk in declaration.walks)
                self.read = set()

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

        class Stub(JobRunner):
            def profiles(self, *_args):
                return profiles

        for experiment_id, build in sorted(DECLARATIONS.items()):
            declaration = build()
            served = Recording(declaration)
            declaration.render(served, Stub(scale=SCALE))
            assert served.read == set(served), experiment_id
        assert len(set(DECLARATIONS["fig21"]().walks)) == 6

    def test_an_undeclared_read_is_a_key_error(self):
        """An entry renders from what its prefetch returns: exactly its
        declared cells, even when the runner holds more."""
        from repro.harness import Declaration
        runner = JobRunner(scale=SCALE)
        declared, undeclared = REQUESTS[0], REQUESTS[1]
        runner.prefetch([declared, undeclared])
        with pytest.raises(KeyError):
            Declaration([declared],
                        lambda metrics, _runner: metrics[undeclared]
                        )(runner)
