"""The stage pipeline's caching semantics: keys, invalidation, counters,
and the store's crash/race hardening.

The delta-invalidation matrix is the contract that makes incremental
sweeps work (docs/PIPELINE.md): a knob edit recomputes exactly the
stages whose config slice contains it, everything upstream is a cache
hit.  The crash-simulation tests pin the atomic-write guarantee of
``ResultCache.put`` — a torn or orphaned write must never surface as a
corrupt read.
"""

import os
import pickle
from dataclasses import replace

import pytest

from repro.config import SpZipConfig, SystemConfig
from repro.jobs.cache import ResultCache
from repro.jobs.fingerprint import (
    STAGE_DEPS,
    STAGE_NAMES,
    artifact_digest,
    stage_config_slice,
    stage_fingerprint,
    stage_salt,
    stream_fingerprint,
)
from repro.stages import (
    StagePricer,
    reset_stage_counters,
    stage_counters,
)

SCALE = 4096


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_stage_counters()
    yield
    reset_stage_counters()


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestStageFingerprints:
    def test_salts_are_stable_and_distinct(self):
        assert set(STAGE_DEPS) == set(STAGE_NAMES)
        salts = {stage: stage_salt(stage) for stage in STAGE_NAMES}
        assert all(len(s) == 16 for s in salts.values())
        assert len(set(salts.values())) == len(salts)
        assert salts == {s: stage_salt(s) for s in STAGE_NAMES}

    def test_stream_key_covers_identity(self):
        base = stream_fingerprint("pr", "ukl", "none", SCALE)
        assert base == stream_fingerprint("pr", "ukl", "none", SCALE)
        for other in (("cc", "ukl", "none", SCALE),
                      ("pr", "twi", "none", SCALE),
                      ("pr", "ukl", "dfs", SCALE),
                      ("pr", "ukl", "none", 2 * SCALE)):
            assert stream_fingerprint(*other) != base

    def test_downstream_key_chains_on_content(self):
        key = stage_fingerprint("replay", ["aaaa"], {"llc_lines": 64})
        assert key == stage_fingerprint("replay", ["aaaa"],
                                        {"llc_lines": 64})
        assert key != stage_fingerprint("replay", ["bbbb"],
                                        {"llc_lines": 64})
        assert key != stage_fingerprint("replay", ["aaaa"],
                                        {"llc_lines": 128})

    def test_config_slices_are_disjoint_from_timing_knobs(self):
        cfg = StagePricer(scale=SCALE)  # noqa: F841 - build system
        from repro.runtime.traffic import ModelConfig
        system = SystemConfig().scaled(SCALE)
        mc = ModelConfig(system=system, id_scale=SCALE)
        faster = replace(system, memory=replace(
            system.memory, gb_per_sec_per_controller=99.0))
        mc2 = ModelConfig(system=faster, id_scale=SCALE)
        for stage in ("stream", "replay", "compress"):
            assert stage_config_slice(stage, mc) == \
                stage_config_slice(stage, mc2)
        assert stage_config_slice("timing", mc) != \
            stage_config_slice("timing", mc2)

    def test_stream_generator_sources_are_salted_deps(self,
                                                      monkeypatch):
        """``runtime/traffic_array.py`` must salt every stage.

        The array-native generators and the vectorized size models live
        there; an implementation edit has to rotate all four stage
        salts or frozen artifacts priced under the old code would be
        served as current.  Dropping the file from the dep lists must
        change each salt — proof its bytes are folded into the keys.
        """
        for stage in STAGE_NAMES:
            assert "runtime/traffic_array.py" in STAGE_DEPS[stage]
        before = {s: stage_salt(s) for s in STAGE_NAMES}
        pruned = {s: tuple(d for d in deps
                           if d != "runtime/traffic_array.py")
                  for s, deps in STAGE_DEPS.items()}
        import repro.jobs.fingerprint as fp
        monkeypatch.setattr(fp, "STAGE_DEPS", pruned)
        stage_salt.cache_clear()
        try:
            after = {s: stage_salt(s) for s in STAGE_NAMES}
        finally:
            stage_salt.cache_clear()
        for stage in STAGE_NAMES:
            assert after[stage] != before[stage]

    def test_artifact_digest_is_content_addressed(self):
        import numpy as np
        a = {"x": np.arange(8), "y": 3}
        b = {"x": np.arange(8), "y": 3}
        assert artifact_digest(a) == artifact_digest(b)
        assert artifact_digest(a) != artifact_digest(
            {"x": np.arange(9), "y": 3})


# ---------------------------------------------------------------------------
# Delta-aware invalidation
# ---------------------------------------------------------------------------


class TestInvalidation:
    def _sweep(self, system, cache):
        pricer = StagePricer(scale=SCALE, system=system, cache=cache)
        pricer.price("pr", "push+spzip", "ukl", "none")
        return stage_counters()

    def test_cold_run_computes_every_stage(self, tmp_path):
        counters = self._sweep(SystemConfig().scaled(SCALE),
                               ResultCache(str(tmp_path)))
        assert counters == {f"{s}.computed": 1 for s in STAGE_NAMES}

    def test_identical_rerun_hits_every_stage(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        system = SystemConfig().scaled(SCALE)
        self._sweep(system, cache)
        reset_stage_counters()
        counters = self._sweep(system, cache)
        assert counters == {f"{s}.hit": 1 for s in STAGE_NAMES}

    def test_bandwidth_edit_recomputes_timing_only(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        system = SystemConfig().scaled(SCALE)
        self._sweep(system, cache)
        reset_stage_counters()
        faster = replace(system, memory=replace(
            system.memory,
            gb_per_sec_per_controller=2
            * system.memory.gb_per_sec_per_controller))
        counters = self._sweep(faster, cache)
        assert counters == {"stream.hit": 1, "replay.hit": 1,
                            "compress.hit": 1, "timing.computed": 1}

    def test_core_count_edit_recomputes_timing_only(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        system = SystemConfig().scaled(SCALE)
        self._sweep(system, cache)
        reset_stage_counters()
        counters = self._sweep(replace(system, num_cores=8), cache)
        assert counters == {"stream.hit": 1, "replay.hit": 1,
                            "compress.hit": 1, "timing.computed": 1}

    def test_llc_geometry_edit_keeps_streams_frozen(self, tmp_path):
        # Associativity reaches the resolved LLC size through the
        # sizing granule, so replay (and everything after) recomputes —
        # but the system-independent stream artifact stays frozen.
        cache = ResultCache(str(tmp_path))
        system = SystemConfig().scaled(SCALE)
        self._sweep(system, cache)
        reset_stage_counters()
        rewayed = replace(system, llc=replace(system.llc, ways=4))
        counters = self._sweep(rewayed, cache)
        assert counters["stream.hit"] == 1
        assert counters["replay.computed"] == 1
        assert counters["compress.computed"] == 1
        assert counters["timing.computed"] == 1

    def test_new_scheme_recomputes_timing_only(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        system = SystemConfig().scaled(SCALE)
        pricer = StagePricer(scale=SCALE, system=system, cache=cache)
        pricer.price("pr", "push+spzip", "ukl", "none")
        reset_stage_counters()
        pricer.price("pr", "ub+spzip", "ukl", "none")
        counters = stage_counters()
        assert counters == {"stream.memo": 1, "replay.memo": 1,
                            "compress.memo": 1, "timing.computed": 1}

    def test_stream_code_edit_invalidates_every_stage(self, tmp_path,
                                                      monkeypatch):
        """A traffic_array edit (simulated by rotating the salts) must
        recompute every stage — stale planted artifacts are unreachable
        under the new keys — and reprice to the same result."""
        cache = ResultCache(str(tmp_path))
        system = SystemConfig().scaled(SCALE)
        pricer = StagePricer(scale=SCALE, system=system, cache=cache)
        first = pricer.price("pr", "push+spzip", "ukl", "none")
        reset_stage_counters()
        import repro.jobs.fingerprint as fp
        real = stage_salt
        monkeypatch.setattr(fp, "stage_salt",
                            lambda stage: real(stage)[::-1])
        edited = StagePricer(scale=SCALE, system=system, cache=cache)
        again = edited.price("pr", "push+spzip", "ukl", "none")
        counters = stage_counters()
        assert counters == {f"{s}.computed": 1 for s in STAGE_NAMES}
        # Same code actually ran, so the reprice is bit-identical.
        assert again == first

    def test_memoized_cell_skips_the_store(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        pricer = StagePricer(scale=SCALE, cache=cache)
        first = pricer.price("pr", "push", "ukl", "none")
        reset_stage_counters()
        again = pricer.price("pr", "push", "ukl", "none")
        assert again == first
        assert stage_counters() == {"stream.memo": 1, "replay.memo": 1,
                                    "compress.memo": 1,
                                    "timing.memo": 1}

    def test_cacheless_pricer_matches_cached(self, tmp_path):
        cached = StagePricer(scale=SCALE,
                             cache=ResultCache(str(tmp_path)))
        bare = StagePricer(scale=SCALE)
        assert cached.price("bfs", "phi+spzip", "ukl", "degree") == \
            bare.price("bfs", "phi+spzip", "ukl", "degree")


# ---------------------------------------------------------------------------
# Functional-engine runs (Fig 21's walks)
# ---------------------------------------------------------------------------


def _reference_walk(graph, scratch_kb: int, rows: int) -> int:
    """Fig 21's walk written out against the engine API, as the harness
    ran it inline before walks became store entries."""
    import numpy as np
    from repro.dcl import pack_range
    from repro.engine import (
        INPUT_QUEUE,
        ROWS_QUEUE,
        DriveRequest,
        Fetcher,
        compressed_csr_traversal,
        drive,
    )
    from repro.graph import CompressedCsr
    from repro.memory import AddressSpace
    cc = CompressedCsr(graph)
    space = AddressSpace()
    space.alloc_array("offsets", cc.offsets, "adjacency")
    space.alloc_array("payload", np.frombuffer(cc.payload, dtype=np.uint8),
                      "adjacency")
    fetcher = Fetcher.from_program(
        compressed_csr_traversal(), space,
        SpZipConfig(scratchpad_bytes=scratch_kb * 1024), mem_latency=60)
    walk = min(rows, graph.num_vertices)
    return drive(fetcher, DriveRequest(
        feeds={INPUT_QUEUE: [pack_range(0, walk + 1)]},
        consume=[ROWS_QUEUE], dequeues_per_cycle=4,
        max_cycles=10 ** 8)).cycles


class TestEngineRuns:
    ROWS = 64

    def _walk(self, cache, system=None, preprocessing="none",
              scratch_kb=2, rows=ROWS, mem_latency=60):
        pricer = StagePricer(scale=SCALE, system=system, cache=cache)
        return pricer.traversal_cycles(
            "ukl", preprocessing,
            SpZipConfig(scratchpad_bytes=scratch_kb * 1024), rows,
            mem_latency)

    def test_cycles_match_a_direct_walk(self, tmp_path):
        from repro.sim.runner import identity_workload
        cache = ResultCache(str(tmp_path))
        for preprocessing in ("none", "dfs"):
            graph = identity_workload("cc", "ukl", preprocessing,
                                      SCALE).graph
            for scratch_kb in (1, 2, 4):
                assert self._walk(cache, preprocessing=preprocessing,
                                  scratch_kb=scratch_kb) == \
                    _reference_walk(graph, scratch_kb, self.ROWS)

    def test_bandwidth_edit_reuses_the_walk(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        system = SystemConfig().scaled(SCALE)
        first = self._walk(cache, system)
        assert stage_counters() == {"engine.computed": 1}
        reset_stage_counters()
        faster = replace(system, memory=replace(
            system.memory,
            gb_per_sec_per_controller=2
            * system.memory.gb_per_sec_per_controller))
        assert self._walk(cache, faster) == first
        assert stage_counters() == {"engine.hit": 1}

    @pytest.mark.parametrize("edit", [
        {"preprocessing": "dfs"}, {"scratch_kb": 4},
        {"rows": ROWS // 2}, {"mem_latency": 90}], ids=lambda e: next(iter(e)))
    def test_key_covers_every_walk_input(self, tmp_path, edit):
        cache = ResultCache(str(tmp_path))
        self._walk(cache)
        reset_stage_counters()
        self._walk(cache, **edit)
        assert stage_counters() == {"engine.computed": 1}

    def test_code_edit_recomputes_the_walk(self, tmp_path, monkeypatch):
        import repro.jobs.fingerprint as fp
        cache = ResultCache(str(tmp_path))
        first = self._walk(cache)
        reset_stage_counters()
        monkeypatch.setattr(fp, "code_salt", lambda: "edited")
        assert self._walk(cache) == first
        assert stage_counters() == {"engine.computed": 1}


# ---------------------------------------------------------------------------
# Store hardening: crash simulation and scan races
# ---------------------------------------------------------------------------


class TestStoreCrashAndRaces:
    def test_torn_write_is_invisible(self, tmp_path):
        """A writer that dies mid-write must leave no readable trace."""
        cache = ResultCache(str(tmp_path))
        cache.put("aa" + "0" * 14, {"ok": True})
        # Simulate the crash: a partial temp file next to the objects
        # (what mkstemp leaves if the process dies before os.replace).
        bucket = os.path.join(str(tmp_path), "objects", "aa")
        with open(os.path.join(bucket, "crashed0.tmp"), "wb") as fh:
            fh.write(b"partial pickle bytes")
        assert cache.get("aa" + "0" * 14) == {"ok": True}
        assert cache.stats()["entries"] == 1  # tmp never counted
        # prune sweeps the orphan without touching live entries.
        kept, removed = cache.prune(["aa" + "0" * 14])
        assert (kept, removed) == (1, 0)
        assert os.listdir(bucket) == ["aa" + "0" * 14 + ".pkl"]

    def test_torn_destination_reads_as_miss(self, tmp_path):
        """Truncated final file (torn at the fs level): miss + delete."""
        cache = ResultCache(str(tmp_path))
        key = "bb" + "0" * 14
        cache.put(key, list(range(1000)))
        path = os.path.join(str(tmp_path), "objects", "bb",
                            key + ".pkl")
        blob = pickle.dumps(list(range(1000)),
                            protocol=pickle.HIGHEST_PROTOCOL)
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        assert cache.get(key) is None
        assert cache.corrupt_dropped == 1
        assert not os.path.exists(path)

    def test_put_survives_interrupted_predecessor(self, tmp_path):
        """A retried put after a simulated crash fully replaces."""
        cache = ResultCache(str(tmp_path))
        key = "cc" + "0" * 14
        path = os.path.join(str(tmp_path), "objects", "cc",
                            key + ".pkl")
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.write(b"torn")
        cache.put(key, "fresh")
        assert cache.get(key) == "fresh"

    def test_stats_tolerates_entries_vanishing_mid_scan(self, tmp_path,
                                                        monkeypatch):
        cache = ResultCache(str(tmp_path))
        cache.put("dd" + "0" * 14, 1)
        cache.put("ee" + "0" * 14, 2)
        doomed = cache._path("dd" + "0" * 14)
        real_getsize = os.path.getsize

        def racy_getsize(path):
            if path == doomed:
                raise FileNotFoundError(path)  # pruned concurrently
            return real_getsize(path)

        monkeypatch.setattr(os.path, "getsize", racy_getsize)
        stats = cache.stats()
        assert stats["entries"] == 1

    def test_prune_counts_concurrent_removal_as_removed(self, tmp_path,
                                                        monkeypatch):
        cache = ResultCache(str(tmp_path))
        cache.put("ff" + "0" * 14, 1)
        errors = []
        cache.on_error = errors.append
        monkeypatch.setattr(
            ResultCache, "keys",
            lambda self: ["ff" + "0" * 14, "00" + "f" * 14])
        kept, removed = cache.prune([])
        assert (kept, removed) == (0, 2)  # vanished entry still counts
        assert errors == []  # a lost race is not an error

    def test_full_disk_keeps_the_computed_result(self, tmp_path,
                                                 monkeypatch):
        """A write failing with ENOSPC loses the entry, not the result."""
        import errno

        import repro.jobs.cache as cache_module
        errors = []
        cache = ResultCache(str(tmp_path), on_error=errors.append)
        objects = os.path.join(str(tmp_path), "objects")
        real_replace = os.replace

        def full_disk(src, dst):
            if str(dst).startswith(objects):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_replace(src, dst)

        monkeypatch.setattr(cache_module.os, "replace", full_disk)
        metrics = StagePricer(scale=SCALE, cache=cache).price(
            "pr", "push+spzip", "ukl", "none")
        assert metrics == StagePricer(scale=SCALE).price(
            "pr", "push+spzip", "ukl", "none")
        assert errors and "No space left" in errors[0]
        assert cache.stats()["write_failed"] > 0
        assert cache.stats()["entries"] == 0
        leftovers = [name for _, _, names in os.walk(objects)
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []

    def test_unpicklable_value_still_raises(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with pytest.raises((pickle.PicklingError, AttributeError)):
            cache.put("gg" + "0" * 14, lambda: None)
        assert cache.stats()["write_failed"] == 0
        assert os.listdir(os.path.join(str(tmp_path), "objects",
                                       "gg")) == []


# ---------------------------------------------------------------------------
# Executor integration
# ---------------------------------------------------------------------------


class TestExecutorIntegration:
    def test_worker_pricers_share_the_store(self, tmp_path):
        from repro.jobs.executor import JobExecutor
        from repro.jobs.model import RunRequest
        cache = ResultCache(str(tmp_path))
        requests = [RunRequest("dc", s, "arb")
                    for s in ("push", "phi")]
        JobExecutor(scale=SCALE, jobs=1, cache=cache).run(requests)
        reset_stage_counters()
        # A fresh pricer over the same store sees frozen artifacts.
        pricer = StagePricer(scale=SCALE, cache=cache)
        pricer.price("dc", "push", "arb", "none")
        counters = stage_counters()
        assert counters == {f"{s}.hit": 1 for s in STAGE_NAMES}


# ---------------------------------------------------------------------------
# Stream stage
# ---------------------------------------------------------------------------


class TestStreamStage:
    def test_pull_stream_is_this_graphs_transpose(self):
        """Short-lived graphs (delta traffic makes them constantly) must
        never see another graph's transpose: object ids of freed graphs
        get reused, so nothing may key transposes on ``id(graph)``."""
        import numpy as np

        from repro.apps import pagerank
        from repro.graph.csr import CsrGraph
        from repro.stages.streams import generate_streams

        rng = np.random.default_rng(5)
        for _ in range(20):
            graph = CsrGraph.from_edges(64, rng.integers(0, 64, 256),
                                        rng.integers(0, 64, 256))
            stream = generate_streams(pagerank.build_workload(graph))
            np.testing.assert_array_equal(stream.pull_neighbors,
                                          graph.transpose().neighbors)
