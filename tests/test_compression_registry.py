"""Tests for the codec registry."""

import pytest

from repro.compression import available_codecs, make_codec
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
