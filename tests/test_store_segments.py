"""The result store's segment files under concurrent writers, forks and
generated damage.

Writers claim segments with ``flock`` and keep them, so the segment
count is the peak number of concurrent writer processes; a forked child
claims its own.  The fault sweep damages a segment at any byte and
checks what survives, what is counted and what the next writer cuts.
"""

import multiprocessing
import os
import pickle
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs.cache import ResultCache, StoreConfig
from repro.stages import StagePricer
from tests.store_faults import segment_paths

SCALE = 65536
FORK = multiprocessing.get_context("fork")


def _key(writer: int, index: int) -> str:
    return f"{writer:02x}{index:04x}" + "0" * 58


def _put_keys(root: str, writer: int, count: int, barrier=None) -> None:
    cache = ResultCache(root)
    if barrier is not None:
        barrier.wait(30)
    for index in range(count):
        cache.put(_key(writer, index), {"writer": writer, "i": index})


def _run_child(target, *args) -> None:
    child = FORK.Process(target=target, args=args)
    child.start()
    child.join(60)
    assert child.exitcode == 0


class TestConcurrentWriters:
    def test_processes_writing_at_once_share_a_few_segments(self,
                                                            tmp_path):
        root = str(tmp_path)
        writers, count = 4, 40
        barrier = FORK.Barrier(writers)
        children = [FORK.Process(target=_put_keys,
                                 args=(root, writer, count, barrier))
                    for writer in range(writers)]
        for child in children:
            child.start()
        for child in children:
            child.join(60)
            assert child.exitcode == 0
        reader = ResultCache(root)
        for writer in range(writers):
            for index in range(count):
                assert reader.get(_key(writer, index)) == \
                    {"writer": writer, "i": index}
        stats = reader.stats()
        assert stats["entries"] == writers * count
        assert 1 <= stats["segments"] <= writers
        assert reader.corrupt_dropped == 0

    def test_a_missed_key_is_seen_once_another_process_writes_it(
            self, tmp_path):
        root = str(tmp_path)
        reader = ResultCache(root)
        assert reader.get(_key(7, 0)) is None
        _run_child(_put_keys, root, 7, 1)
        assert reader.get(_key(7, 0)) == {"writer": 7, "i": 0}
        assert len(segment_paths(root)) == 1

    def test_forked_child_claims_its_own_segment(self, tmp_path):
        root = str(tmp_path)
        cache = ResultCache(root)
        cache.put(_key(1, 0), "parent")
        ready, go = FORK.Event(), FORK.Event()

        def child():
            cache.put(_key(2, 0), "child")  # the inherited cache object
            ready.set()
            go.wait(30)
            cache.put(_key(2, 1), "child again")

        process = FORK.Process(target=child)
        process.start()
        assert ready.wait(30)
        cache.put(_key(1, 1), "parent again")  # both keep writing
        go.set()
        process.join(30)
        assert process.exitcode == 0
        assert len(segment_paths(root)) == 2
        assert cache.get(_key(1, 1)) == "parent again"
        assert cache.get(_key(2, 1)) == "child again"
        del cache
        fresh = ResultCache(root)
        assert [fresh.get(_key(1, 0)), fresh.get(_key(1, 1)),
                fresh.get(_key(2, 0)), fresh.get(_key(2, 1))] == \
            ["parent", "parent again", "child", "child again"]
        assert fresh.corrupt_dropped == 0

    def test_threads_writing_at_once_share_one_segment(self, tmp_path):
        root = str(tmp_path)
        cache = ResultCache(root)
        threads, count = 8, 25
        barrier = threading.Barrier(threads)

        def writer(number):
            barrier.wait(30)
            for index in range(count):
                cache.put(_key(number, index), [number, index] * 50)

        pool = [threading.Thread(target=writer, args=(number,))
                for number in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the appends finely
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert cache.write_failed == 0
        del cache
        fresh = ResultCache(root)
        for number in range(threads):
            for index in range(count):
                assert fresh.get(_key(number, index)) == \
                    [number, index] * 50
        assert fresh.stats()["segments"] == 1
        assert fresh.corrupt_dropped == 0

    def test_sequential_writers_reuse_one_segment(self, tmp_path):
        root = str(tmp_path)
        for writer in range(50):
            _run_child(_put_keys, root, writer, 1)
        assert len(segment_paths(root)) == 1
        reader = ResultCache(root)
        assert all(reader.get(_key(writer, 0)) == {"writer": writer,
                                                   "i": 0}
                   for writer in range(50))

    def test_deleted_directory_is_recreated_by_the_writer(self,
                                                          tmp_path):
        import shutil
        root = str(tmp_path / "store")
        errors = []
        cache = ResultCache(root, on_error=errors.append)
        cache.put(_key(3, 0), "old")
        shutil.rmtree(root)  # how stale keys are reclaimed
        # Another process makes a segment of the same name: the index's
        # old offsets must not be read from it.
        _run_child(_put_keys, root, 4, 1)
        assert cache.get(_key(3, 0)) is None
        cache.put(_key(3, 2), "new")
        assert cache.get(_key(3, 2)) == "new"
        assert cache.get(_key(4, 0)) == {"writer": 4, "i": 0}
        assert len(segment_paths(root)) == 1  # the child's, reclaimed
        assert (cache.corrupt_dropped, errors) == (0, [])


# ---------------------------------------------------------------------------
# Generated fault injection
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def values(tmp_path_factory):
    """Mixed-size values: tiny ones plus a priced cell and the stage
    artifacts behind it."""
    from repro.graph.shared import disable_graph_store
    pricer = StagePricer(scale=SCALE, store=StoreConfig(
        root=str(tmp_path_factory.mktemp("artifacts"))))
    cell = pricer.price("bfs", "push+spzip", "ukl", "none")
    cache = pricer.cache
    disable_graph_store()  # the pricer enabled one under that root
    artifacts = [cache.get(key) for key in cache.keys()]
    return [0, "x" * 300, cell, list(range(2000))] + artifacts


class TestGeneratedDamage:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_damage_is_contained_counted_and_cut(self, values, data):
        picks = data.draw(st.lists(st.integers(0, len(values) - 1),
                                   min_size=1, max_size=8))
        how = data.draw(st.sampled_from(["truncate", "flip"]))
        with tempfile.TemporaryDirectory() as root:
            self._check(root, [values[i] for i in picks], how, data)

    @staticmethod
    def _check(root, stored, how, data):
        keys = [_key(9, index) for index in range(len(stored))]
        writer = ResultCache(root)
        bounds = []
        for key, value in zip(keys, stored):
            writer.put(key, value)
            (segment,) = segment_paths(root)
            bounds.append(os.path.getsize(segment))
        del writer  # its segment is free for the next claimer
        at = data.draw(st.integers(0, bounds[-1] - 1), label="offset")
        if how == "truncate":
            os.truncate(segment, at)
        else:
            mask = data.draw(st.integers(1, 255), label="mask")
            with open(segment, "r+b") as handle:
                handle.seek(at)
                byte = handle.read(1)[0]
                handle.seek(at)
                handle.write(bytes([byte ^ mask]))
        starts = [0] + bounds[:-1]
        hit = next(i for i, end in enumerate(bounds) if at < end)
        cut_at_boundary = how == "truncate" and at == starts[hit]

        errors = []
        cache = ResultCache(root, on_error=errors.append)
        read = [cache.get(key) for key in keys]  # nothing may raise
        for index in range(hit):  # wholly before the damage
            assert pickle.dumps(read[index]) == \
                pickle.dumps(stored[index])
        assert read[hit] is None
        # A reader counts a bad checksum, but not a record that runs
        # past the end (its write may still be in flight), so a cut or
        # a flipped length is counted by the claim below instead.
        assert cache.corrupt_dropped <= (0 if how == "truncate" else 1)
        cache.put("new" + "0" * 61, "appended")  # claims and cuts
        assert cache.corrupt_dropped == (0 if cut_at_boundary else 1)
        assert len(errors) == cache.corrupt_dropped
        assert cache.get("new" + "0" * 61) == "appended"
        del cache
        fresh = ResultCache(root)
        assert fresh.get("new" + "0" * 61) == "appended"
        for index in range(hit):
            assert pickle.dumps(fresh.get(keys[index])) == \
                pickle.dumps(stored[index])
        assert fresh.get(keys[hit]) is None
