"""The stage pipeline's caching semantics: keys, invalidation, counters,
and the store's crash/race hardening.

The delta-invalidation matrix is the contract that makes incremental
sweeps work (docs/PIPELINE.md): a knob edit recomputes exactly the
stages whose config slice contains it, everything upstream is a cache
hit.  The crash-simulation tests pin what ``ResultCache`` guarantees
about its segment files — a torn or damaged record must never surface
as a corrupt read, and the next writer cuts a dead writer's torn tail.
"""

import os
import pickle
from dataclasses import replace

import pytest

from repro.config import SpZipConfig, SystemConfig
from repro.jobs.cache import ResultCache, StoreConfig
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
from tests.store_faults import damage_record, segment_paths

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
        # Every stored stage has a salt; the last step, timing, is not
        # stored (its result is the cell entry, keyed on the code salt).
        assert tuple(STAGE_DEPS) == STAGE_NAMES[:-1]
        salts = {stage: stage_salt(stage) for stage in STAGE_DEPS}
        assert all(len(s) == 16 for s in salts.values())
        assert len(set(salts.values())) == len(salts)
        assert salts == {s: stage_salt(s) for s in STAGE_DEPS}

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
        with pytest.raises(KeyError):  # timing is not a stored stage
            stage_config_slice("timing", mc)

    def test_stream_generator_sources_are_salted_deps(self,
                                                      monkeypatch):
        """``runtime/traffic_array.py`` must salt every stored stage.

        The array-native generators and the vectorized size models live
        there; an implementation edit has to rotate all three stage
        salts or frozen artifacts priced under the old code would be
        served as current.  Dropping the file from the dep lists must
        change each salt — proof its bytes are folded into the keys.
        """
        for stage in STAGE_DEPS:
            assert "runtime/traffic_array.py" in STAGE_DEPS[stage]
        before = {s: stage_salt(s) for s in STAGE_DEPS}
        pruned = {s: tuple(d for d in deps
                           if d != "runtime/traffic_array.py")
                  for s, deps in STAGE_DEPS.items()}
        import repro.jobs.fingerprint as fp
        monkeypatch.setattr(fp, "STAGE_DEPS", pruned)
        stage_salt.cache_clear()
        try:
            after = {s: stage_salt(s) for s in STAGE_DEPS}
        finally:
            stage_salt.cache_clear()
        for stage in STAGE_DEPS:
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
    def _sweep(self, system, store):
        pricer = StagePricer(scale=SCALE, system=system, store=store)
        pricer.price("pr", "push+spzip", "ukl", "none")
        return stage_counters()

    def test_cold_run_computes_every_stage(self, tmp_path):
        counters = self._sweep(SystemConfig().scaled(SCALE),
                               StoreConfig(root=str(tmp_path)))
        assert counters == {f"{s}.computed": 1 for s in STAGE_NAMES}

    def test_identical_rerun_hits_every_stage(self, tmp_path):
        store = StoreConfig(root=str(tmp_path))
        system = SystemConfig().scaled(SCALE)
        self._sweep(system, store)
        reset_stage_counters()
        counters = self._sweep(system, store)
        # Timing is not stored: a fresh pricer recomputes it.
        assert counters == {"stream.hit": 1, "replay.hit": 1,
                            "compress.hit": 1, "timing.computed": 1}

    def test_bandwidth_edit_recomputes_timing_only(self, tmp_path):
        store = StoreConfig(root=str(tmp_path))
        system = SystemConfig().scaled(SCALE)
        self._sweep(system, store)
        reset_stage_counters()
        faster = replace(system, memory=replace(
            system.memory,
            gb_per_sec_per_controller=2
            * system.memory.gb_per_sec_per_controller))
        counters = self._sweep(faster, store)
        assert counters == {"stream.hit": 1, "replay.hit": 1,
                            "compress.hit": 1, "timing.computed": 1}

    def test_core_count_edit_recomputes_timing_only(self, tmp_path):
        store = StoreConfig(root=str(tmp_path))
        system = SystemConfig().scaled(SCALE)
        self._sweep(system, store)
        reset_stage_counters()
        counters = self._sweep(replace(system, num_cores=8), store)
        assert counters == {"stream.hit": 1, "replay.hit": 1,
                            "compress.hit": 1, "timing.computed": 1}

    def test_llc_geometry_edit_keeps_streams_frozen(self, tmp_path):
        # Associativity reaches the resolved LLC size through the
        # sizing granule, so replay (and everything after) recomputes —
        # but the system-independent stream artifact stays frozen.
        store = StoreConfig(root=str(tmp_path))
        system = SystemConfig().scaled(SCALE)
        self._sweep(system, store)
        reset_stage_counters()
        rewayed = replace(system, llc=replace(system.llc, ways=4))
        counters = self._sweep(rewayed, store)
        assert counters["stream.hit"] == 1
        assert counters["replay.computed"] == 1
        assert counters["compress.computed"] == 1
        assert counters["timing.computed"] == 1

    def test_new_scheme_recomputes_timing_only(self, tmp_path):
        store = StoreConfig(root=str(tmp_path))
        system = SystemConfig().scaled(SCALE)
        pricer = StagePricer(scale=SCALE, system=system, store=store)
        pricer.price("pr", "push+spzip", "ukl", "none")
        reset_stage_counters()
        pricer.price("pr", "ub+spzip", "ukl", "none")
        counters = stage_counters()
        assert counters == {"stream.memo": 1, "replay.memo": 1,
                            "compress.memo": 1, "timing.computed": 1}

    def test_knob_edited_report_reuses_every_frozen_stage(self, tmp_path):
        """The whole report after a timing-only knob edit: every stored
        stage and functional-engine walk is a hit, only the 772 cells'
        timing recomputes; an identical rerun after that computes
        nothing and prints the cold report's bytes."""
        from repro.harness import EXPERIMENTS, declared_cells
        from repro.harness.report import generate_report
        from repro.jobs import JobRunner
        scale = 1 << 20
        system = SystemConfig().scaled(scale)
        faster = replace(system, memory=replace(
            system.memory, gb_per_sec_per_controller=2
            * system.memory.gb_per_sec_per_controller))

        def report(system):
            reset_stage_counters()
            runner = JobRunner(scale=scale, system=system,
                               cache_dir=str(tmp_path))
            return generate_report(runner), stage_counters()

        cold, _ = report(system)
        _, knob = report(faster)
        for stage in ("stream", "replay", "compress", "engine"):
            assert knob.get(f"{stage}.computed", 0) == 0, knob
            assert knob.get(f"{stage}.hit", 0) > 0, knob
        cells = len(declared_cells(sorted(EXPERIMENTS)))
        assert knob["timing.computed"] == cells == 772
        again, identical = report(system)
        assert again == cold
        assert not [name for name in identical
                    if name.endswith(".computed")], identical

    def test_stream_code_edit_invalidates_every_stage(self, tmp_path,
                                                      monkeypatch):
        """A traffic_array edit (simulated by rotating the salts) must
        recompute every stage — stale planted artifacts are unreachable
        under the new keys — and reprice to the same result."""
        store = StoreConfig(root=str(tmp_path))
        system = SystemConfig().scaled(SCALE)
        pricer = StagePricer(scale=SCALE, system=system, store=store)
        first = pricer.price("pr", "push+spzip", "ukl", "none")
        reset_stage_counters()
        import repro.jobs.fingerprint as fp
        real = stage_salt
        monkeypatch.setattr(fp, "stage_salt",
                            lambda stage: real(stage)[::-1])
        edited = StagePricer(scale=SCALE, system=system, store=store)
        again = edited.price("pr", "push+spzip", "ukl", "none")
        counters = stage_counters()
        assert counters == {f"{s}.computed": 1 for s in STAGE_NAMES}
        # Same code actually ran, so the reprice is bit-identical.
        assert again == first

    def test_memoized_cell_skips_the_store(self, tmp_path):
        store = StoreConfig(root=str(tmp_path))
        pricer = StagePricer(scale=SCALE, store=store)
        first = pricer.price("pr", "push", "ukl", "none")
        reset_stage_counters()
        again = pricer.price("pr", "push", "ukl", "none")
        assert again == first
        assert stage_counters() == {"stream.memo": 1, "replay.memo": 1,
                                    "compress.memo": 1,
                                    "timing.computed": 1}

    def test_concurrent_callers_build_a_bundle_once(self):
        """Eight threads ask one pricer for one identity at once, with a
        short switch interval: one builds the bundle, and the others
        wait for it instead of building it again."""
        import sys
        import threading
        pricer = StagePricer(scale=SCALE)
        start = threading.Barrier(8, timeout=60)
        bundles = []

        def ask():
            start.wait()
            bundles.append(pricer.bundle("pr", "ukl", "none"))

        threads = [threading.Thread(target=ask) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(bundles) == 8
        assert all(bundle is bundles[0] for bundle in bundles)
        assert stage_counters() == {
            "stream.computed": 1, "replay.computed": 1,
            "compress.computed": 1, "stream.memo": 7, "replay.memo": 7,
            "compress.memo": 7}

    def test_cacheless_pricer_matches_cached(self, tmp_path):
        cached = StagePricer(scale=SCALE,
                             store=StoreConfig(root=str(tmp_path)))
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

    def _walk(self, store, system=None, preprocessing="none",
              scratch_kb=2, rows=ROWS, mem_latency=60):
        pricer = StagePricer(scale=SCALE, system=system, store=store)
        return pricer.traversal_cycles(
            "ukl", preprocessing,
            SpZipConfig(scratchpad_bytes=scratch_kb * 1024), rows,
            mem_latency)

    def test_cycles_match_a_direct_walk(self, tmp_path):
        from repro.sim.runner import identity_workload
        store = StoreConfig(root=str(tmp_path))
        for preprocessing in ("none", "dfs"):
            graph = identity_workload("cc", "ukl", preprocessing,
                                      SCALE).graph
            for scratch_kb in (1, 2, 4):
                assert self._walk(store, preprocessing=preprocessing,
                                  scratch_kb=scratch_kb) == \
                    _reference_walk(graph, scratch_kb, self.ROWS)

    def test_bandwidth_edit_reuses_the_walk(self, tmp_path):
        store = StoreConfig(root=str(tmp_path))
        system = SystemConfig().scaled(SCALE)
        first = self._walk(store, system)
        assert stage_counters() == {"engine.computed": 1}
        reset_stage_counters()
        faster = replace(system, memory=replace(
            system.memory,
            gb_per_sec_per_controller=2
            * system.memory.gb_per_sec_per_controller))
        assert self._walk(store, faster) == first
        assert stage_counters() == {"engine.hit": 1}

    @pytest.mark.parametrize("edit", [
        {"preprocessing": "dfs"}, {"scratch_kb": 4},
        {"rows": ROWS // 2}, {"mem_latency": 90}], ids=lambda e: next(iter(e)))
    def test_key_covers_every_walk_input(self, tmp_path, edit):
        store = StoreConfig(root=str(tmp_path))
        self._walk(store)
        reset_stage_counters()
        self._walk(store, **edit)
        assert stage_counters() == {"engine.computed": 1}

    def test_code_edit_recomputes_the_walk(self, tmp_path, monkeypatch):
        import repro.jobs.fingerprint as fp
        store = StoreConfig(root=str(tmp_path))
        first = self._walk(store)
        reset_stage_counters()
        monkeypatch.setattr(fp, "code_salt", lambda: "edited")
        assert self._walk(store) == first
        assert stage_counters() == {"engine.computed": 1}


# ---------------------------------------------------------------------------
# Store hardening: crash simulation and scan races
# ---------------------------------------------------------------------------


class TestStoreCrashAndRaces:
    @staticmethod
    def _torn_record(tmp_path, key, value):
        """The first half of the bytes ``put(key, value)`` appends: what
        a writer killed mid-append leaves behind."""
        scratch = str(tmp_path / "scratch")
        ResultCache(scratch).put(key, value)
        (path,) = segment_paths(scratch)
        with open(path, "rb") as handle:
            record = handle.read()
        return record[:len(record) // 2]

    def test_torn_write_is_invisible(self, tmp_path):
        """A dead writer's torn tail reads as nothing, and the next
        claimer of its segment cuts it; earlier records still read."""
        root = str(tmp_path / "store")
        ResultCache(root).put("aa" + "0" * 14, {"ok": True})
        (segment,) = segment_paths(root)
        intact = os.path.getsize(segment)
        with open(segment, "ab") as handle:  # the writer died mid-append
            handle.write(self._torn_record(tmp_path, "ab" + "0" * 14,
                                           list(range(1000))))
        errors = []
        cache = ResultCache(root, on_error=errors.append)
        assert cache.get("aa" + "0" * 14) == {"ok": True}
        assert cache.get("ab" + "0" * 14) is None
        assert cache.keys() == ["aa" + "0" * 14]
        assert cache.corrupt_dropped == 0  # its write may be in flight
        cache.put("ac" + "0" * 14, "next")  # claims the segment
        assert segment_paths(root) == [segment]
        assert cache.corrupt_dropped == 1
        assert len(errors) == 1 and "torn tail" in errors[0]
        assert cache.get("aa" + "0" * 14) == {"ok": True}
        with open(segment, "rb") as handle:
            handle.seek(intact)
            assert b"ab" + b"0" * 14 not in handle.read()

    def test_torn_destination_reads_as_miss(self, tmp_path):
        """A record cut mid-value (torn at the fs level): miss + drop."""
        cache = ResultCache(str(tmp_path))
        key = "bb" + "0" * 14
        cache.put(key, list(range(1000)))
        damage_record(str(tmp_path), key, "truncate")
        assert cache.get(key) is None
        assert cache.corrupt_dropped == 1
        assert key not in cache.keys()

    def test_put_survives_interrupted_predecessor(self, tmp_path):
        """Records appended after a cut tail read back, also in a
        process that indexes the segment afresh."""
        root = str(tmp_path / "store")
        ResultCache(root).put("cb" + "0" * 14, "before")
        (segment,) = segment_paths(root)
        with open(segment, "ab") as handle:
            handle.write(self._torn_record(tmp_path, "cc" + "0" * 14,
                                           "torn"))
        cache = ResultCache(root)
        cache.put("cc" + "0" * 14, "fresh")
        cache.put("cd" + "0" * 14, "after")
        assert cache.get("cc" + "0" * 14) == "fresh"
        del cache  # closes the segment; the next cache indexes anew
        fresh = ResultCache(root)
        assert [fresh.get(k + "0" * 14) for k in ("cb", "cc", "cd")] \
            == ["before", "fresh", "after"]
        assert fresh.corrupt_dropped == 0

    def test_stats_tolerates_entries_vanishing_mid_scan(self, tmp_path,
                                                        monkeypatch):
        """A segment removed between the listing and the open is simply
        gone: not counted, not an error."""
        import shutil

        import repro.jobs.cache as cache_module
        root = str(tmp_path / "store")
        ResultCache(root).put("dd" + "0" * 14, 1)
        (kept,) = segment_paths(root)
        doomed = os.path.join(os.path.dirname(kept), "000001.seg")
        shutil.copyfile(kept, doomed)
        real_listdir = os.listdir

        def racy_listdir(path):
            names = real_listdir(path)
            if os.path.exists(doomed):
                os.remove(doomed)  # removed concurrently
            return names

        monkeypatch.setattr(cache_module.os, "listdir", racy_listdir)
        errors = []
        stats = ResultCache(root, on_error=errors.append).stats()
        assert (stats["entries"], stats["segments"]) == (1, 1)
        assert stats["bytes"] == os.path.getsize(kept)
        assert errors == []

    def test_full_disk_keeps_the_computed_result(self, tmp_path,
                                                 monkeypatch):
        """A write failing with ENOSPC loses the entry, not the result."""
        import errno

        import repro.jobs.cache as cache_module
        errors = []
        pricer = StagePricer(scale=SCALE,
                             store=StoreConfig(root=str(tmp_path)))
        cache = pricer.cache
        cache.on_error = errors.append

        def full_disk(fd, buffers):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cache_module.os, "writev", full_disk)
        metrics = pricer.price("pr", "push+spzip", "ukl", "none")
        assert metrics == StagePricer(scale=SCALE).price(
            "pr", "push+spzip", "ukl", "none")
        assert errors and "No space left" in errors[0]
        assert cache.stats()["write_failed"] > 0
        assert cache.stats()["entries"] == 0
        # Each failed append was cut back to where its record began.
        assert [os.path.getsize(path)
                for path in segment_paths(str(tmp_path))] == [0]

    def test_unpicklable_value_still_raises(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("gf" + "0" * 14, 1)
        (segment,) = segment_paths(str(tmp_path))
        size = os.path.getsize(segment)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            cache.put("gg" + "0" * 14, lambda: None)
        assert cache.stats()["write_failed"] == 0
        assert os.path.getsize(segment) == size  # no byte written
        assert cache.keys() == ["gf" + "0" * 14]


# ---------------------------------------------------------------------------
# Executor integration
# ---------------------------------------------------------------------------


class TestExecutorIntegration:
    def test_worker_pricers_share_the_store(self, tmp_path):
        from repro.jobs.executor import JobExecutor
        from repro.jobs.model import RunRequest
        store = StoreConfig(root=str(tmp_path))
        requests = [RunRequest("dc", s, "arb")
                    for s in ("push", "phi")]
        JobExecutor(scale=SCALE, jobs=1, store=store).run(requests)
        reset_stage_counters()
        # A fresh pricer over the same store sees frozen artifacts.
        pricer = StagePricer(scale=SCALE, store=store)
        pricer.price("dc", "push", "arb", "none")
        counters = stage_counters()
        assert counters == {"stream.hit": 1, "replay.hit": 1,
                            "compress.hit": 1, "timing.computed": 1}
