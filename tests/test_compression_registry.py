"""Tests for the codec registry and best-of selection policy."""

import numpy as np
import pytest

from repro.compression import available_codecs, best_of, make_codec
from tests.oracles.codecs import make_shape


class TestRegistry:
    def test_builtins_available(self):
        names = set(available_codecs())
        assert {"raw", "delta", "bpc", "bdi", "rle"} <= names

    def test_make_unknown_raises(self):
        with pytest.raises(KeyError):
            make_codec("lzma")

    def test_make_plain(self):
        assert make_codec("delta").name == "delta"

    def test_make_chunked(self):
        codec = make_shape("bpc", chunk_elems=32)
        assert codec.name == "chunked-bpc"

    def test_make_sorted_requires_chunk(self):
        with pytest.raises(ValueError):
            make_shape("delta", sort=True)

    def test_make_sorted_chunked(self):
        codec = make_shape("delta", chunk_elems=16, sort=True)
        assert codec.name == "sorted-chunked-delta"


class TestBestOf:
    def test_prefers_delta_on_sorted_ids(self):
        rng = np.random.default_rng(0)
        ids = np.sort(rng.integers(0, 5000, 400)).astype(np.uint32)
        assert best_of(ids).name == "delta"

    def test_falls_back_to_raw_on_random(self):
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 2 ** 32, 512, dtype=np.uint64).astype(np.uint32)
        assert best_of(ids).name == "raw"

    def test_respects_candidate_list(self):
        x = np.repeat(np.arange(4, dtype=np.uint32), 200)
        chosen = best_of(x, candidates=("rle",))
        assert chosen.name == "rle"

    def test_sampling_bounds_work(self):
        # A perfectly regular stride compresses under either candidate;
        # the point is that sampling a huge array stays cheap and picks
        # something better than raw.
        x = np.arange(10 ** 5, dtype=np.uint32)
        codec = best_of(x, sample_elems=128)
        assert codec.name in ("delta", "bpc")
