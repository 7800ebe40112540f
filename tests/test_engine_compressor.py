"""Functional tests for the SpZip compressor pipelines."""

import numpy as np
import pytest

from repro.compression import DeltaCodec
from repro.config import SpZipConfig, SystemConfig
from repro.dcl import pack_tuple
from repro.engine import (
    DriveRequest,
    BIN_QUEUE,
    INPUT_QUEUE,
    Compressor,
    drive,
    single_stream_compress,
    ub_bins_compress,
)
from repro.memory import AddressSpace, MemoryHierarchy


def stream_space(capacity=1 << 16):
    space = AddressSpace()
    space.alloc("compressed_out", capacity, "updates")
    return space


def find_op(engine, name):
    return next(op for op in engine.operators if op.name == name)


class TestSingleStream:
    """Fig 13: compress one stream, write it sequentially."""

    def test_stream_compresses_and_roundtrips(self):
        space = stream_space()
        c = Compressor(SpZipConfig(), space)
        c.load_program(single_stream_compress(chunk_elems=64))
        values = list(range(1000, 1480, 4))  # one 120-element chunk budget
        feed = [(v, False) for v in values[:60]] + [(0, True)] + \
               [(v, False) for v in values[60:]] + [(0, True)]
        drive(c, DriveRequest(feeds={INPUT_QUEUE: feed}, consume=[]))
        writer = find_op(c, "writer")
        assert len(writer.chunk_lengths) == 2
        assert writer.total_written < len(values) * 4
        # Decode each chunk back from memory.
        base = space.region("compressed_out").base
        codec = DeltaCodec()
        offset = 0
        decoded = []
        for length in writer.chunk_lengths:
            payload = space.load(base + offset, length)
            decoded.extend(codec.decode_stream(payload,
                                               np.uint32).tolist())
            offset += length
        assert decoded == values

    def test_sorting_optimization_improves_ratio(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 10 ** 5, 512, dtype=np.uint64).tolist()

        def written(sort):
            c = Compressor(SpZipConfig(), stream_space())
            c.load_program(single_stream_compress(chunk_elems=32,
                                                  sort_chunks=sort))
            feed = [(v, False) for v in values] + [(0, True)]
            drive(c, DriveRequest(feeds={INPUT_QUEUE: feed}, consume=[]))
            return find_op(c, "writer").total_written

        assert written(sort=True) < written(sort=False)

    def test_overflow_guard(self):
        c = Compressor(SpZipConfig(), stream_space(capacity=64))
        c.load_program(single_stream_compress(capacity_bytes=64))
        rng = np.random.default_rng(8)
        feed = [(int(v), False)
                for v in rng.integers(0, 2 ** 32, 200, dtype=np.uint64)]
        feed.append((0, True))
        with pytest.raises(Exception):
            drive(c, DriveRequest(feeds={INPUT_QUEUE: feed}, consume=[]))


class TestUbBins:
    """Fig 14: two-MQU pipeline compressing update bins."""

    def make(self, nbins=4, chunk_elems=8, sort=True):
        space = AddressSpace()
        space.alloc("mqu_staging", nbins * 512, "updates")
        space.alloc("compressed_bins", nbins * (1 << 16), "updates")
        c = Compressor(SpZipConfig(), space)
        c.load_program(ub_bins_compress(nbins, chunk_elems=chunk_elems,
                                        sort_chunks=sort))
        return c, space

    def test_updates_land_in_right_bins(self):
        nbins = 4
        c, space = self.make(nbins)
        rng = np.random.default_rng(0)
        truth = {b: [] for b in range(nbins)}
        feed = []
        for _ in range(200):
            b = int(rng.integers(0, nbins))
            v = int(rng.integers(0, 1 << 32))
            truth[b].append(v)
            feed.append((pack_tuple(b, v), False))
        drive(c, DriveRequest(feeds={BIN_QUEUE: feed}, consume=[]))
        c.drain()
        append = find_op(c, "append")
        base = space.region("compressed_bins").base
        codec = DeltaCodec()
        for b in range(nbins):
            payload = space.load(base + b * (1 << 16), append.bin_bytes[b])
            # Chunks are independently delta-coded; decode chunk by chunk
            # is only possible with lengths, so check the cheap invariant:
            # decoded multiset of the whole bin under chunked decode.
            # The compressor sorted each chunk, so decode_stream on one
            # chunk is exact; with multiple chunks we verify sizes only.
            assert append.bin_bytes[b] > 0
            assert len(payload) == append.bin_bytes[b]
        # Total updates preserved: sum of chunk element counts.
        stage = find_op(c, "stage")
        assert stage.pending_elems() == 0

    def test_single_bin_roundtrip_exact(self):
        c, space = self.make(nbins=1, chunk_elems=64, sort=True)
        values = [int(v) for v in
                  np.random.default_rng(3).integers(0, 1 << 20, 40)]
        feed = [(pack_tuple(0, v), False) for v in values]
        drive(c, DriveRequest(feeds={BIN_QUEUE: feed}, consume=[]))
        c.drain()
        append = find_op(c, "append")
        payload = space.load(space.region("compressed_bins").base,
                             append.bin_bytes[0])
        decoded = DeltaCodec().decode_stream(payload, np.uint64).tolist()
        assert decoded == sorted(values)

    def test_drain_flushes_partial_bins(self):
        c, _space = self.make(nbins=2, chunk_elems=32)
        feed = [(pack_tuple(0, 5), False), (pack_tuple(1, 9), False)]
        drive(c, DriveRequest(feeds={BIN_QUEUE: feed}, consume=[]))
        stage = find_op(c, "stage")
        assert stage.pending_elems() == 2
        c.drain()
        assert stage.pending_elems() == 0
        append = find_op(c, "append")
        assert all(b > 0 for b in append.bin_bytes)

    def test_mqu_charges_pointer_and_value_traffic(self):
        c, _space = self.make(nbins=2)
        feed = [(pack_tuple(0, 1), False)]
        drive(c, DriveRequest(feeds={BIN_QUEUE: feed}, consume=[]))
        assert c.mem_reads >= 1   # tail pointer read
        assert c.mem_writes >= 1  # value write

    def test_compressor_issues_to_llc(self):
        hier = MemoryHierarchy(SystemConfig().scaled(4096))
        hier.space.alloc("mqu_staging", 2 * 512, "updates")
        hier.space.alloc("compressed_bins", 2 * (1 << 16), "updates")
        c = Compressor.for_core(hier, core=0)
        c.load_program(ub_bins_compress(2, chunk_elems=4))
        feed = [(pack_tuple(0, v), False) for v in range(8)]
        drive(c, DriveRequest(feeds={BIN_QUEUE: feed}, consume=[]))
        c.drain()
        assert hier.l2[0].stats.hits + hier.l2[0].stats.misses == 0
        assert hier.llc.stats.hits + hier.llc.stats.misses > 0

    def test_bin_overflow_raises_without_handler(self):
        space = AddressSpace()
        space.alloc("mqu_staging", 512, "updates")
        space.alloc("compressed_bins", 16, "updates")
        c = Compressor(SpZipConfig(), space)
        c.load_program(ub_bins_compress(1, bin_bytes=16, chunk_elems=4))
        rng = np.random.default_rng(9)
        feed = [(pack_tuple(0, int(v)), False)
                for v in rng.integers(0, 1 << 60, 64, dtype=np.uint64)]
        with pytest.raises(Exception):
            drive(c, DriveRequest(feeds={BIN_QUEUE: feed}, consume=[]))
            c.drain()
