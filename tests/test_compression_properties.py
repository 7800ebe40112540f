"""Registry-driven codec property sweep.

Every codec the registry builds goes through the same property battery
in three shapes: plain, chunk-framed, and chunk-framed+sorted (the
test-side framings of :mod:`tests.oracles.codecs`).  The battery:
round-trip, size accounting against the closed-form size model,
determinism, ratio sanity.  The sweep reads
:func:`repro.compression.available_codecs`, so there is no
hand-enumerated codec list to forget to extend.

The sorting variant is order-insensitive by design: its round-trip
target is each chunk's sorted multiset, not the original order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import available_codecs
from tests.oracles.codecs import make_shape, model_size

CHUNK = 16

#: (codec name, chunk_elems, sort) for every sweep shape.
VARIANTS = [
    pytest.param(name, chunk, sort,
                 id=name + {None: "", CHUNK: "-chunked"}[chunk]
                 + ("-sorted" if sort else ""))
    for name in available_codecs()
    for chunk, sort in ((None, False), (CHUNK, False), (CHUNK, True))
]

uint32_arrays = st.lists(
    st.integers(0, 2 ** 32 - 1), min_size=0, max_size=128
).map(lambda xs: np.asarray(xs, dtype=np.uint32))

uint64_arrays = st.lists(
    st.integers(0, 2 ** 64 - 1), min_size=0, max_size=64
).map(lambda xs: np.asarray(xs, dtype=np.uint64))

float64_arrays = st.lists(
    st.floats(allow_nan=False, width=64), min_size=0, max_size=64
).map(lambda xs: np.asarray(xs, dtype=np.float64))


def expected(data: np.ndarray, sort: bool) -> np.ndarray:
    """What decode must return: the input, per-chunk sorted if sorting."""
    if not sort:
        return data
    out = data.copy()
    for start in range(0, data.size, CHUNK):
        out[start:start + CHUNK] = np.sort(out[start:start + CHUNK])
    return out


@pytest.mark.parametrize("name,chunk,sort", VARIANTS)
class TestRegistrySweep:
    @settings(max_examples=15, deadline=None)
    @given(data=uint32_arrays)
    def test_roundtrip_u32(self, name, chunk, sort, data):
        codec = make_shape(name, chunk, sort)
        out = codec.decode(codec.encode(data), data.size, np.uint32)
        assert np.array_equal(out, expected(data, sort))

    @settings(max_examples=10, deadline=None)
    @given(data=uint64_arrays)
    def test_roundtrip_u64(self, name, chunk, sort, data):
        codec = make_shape(name, chunk, sort)
        out = codec.decode(codec.encode(data), data.size, np.uint64)
        assert np.array_equal(out, expected(data, sort))

    @settings(max_examples=10, deadline=None)
    @given(data=uint32_arrays)
    def test_encoded_size_matches_encode(self, name, chunk, sort, data):
        codec = make_shape(name, chunk, sort)
        assert codec.encoded_size(data) == len(codec.encode(data)) \
            == model_size(codec, data)

    @settings(max_examples=10, deadline=None)
    @given(data=uint32_arrays)
    def test_encode_deterministic_and_pure(self, name, chunk, sort,
                                           data):
        codec = make_shape(name, chunk, sort)
        original = data.copy()
        first = codec.encode(data)
        assert np.array_equal(data, original), "encode mutated its input"
        assert codec.encode(data) == first

    @settings(max_examples=10, deadline=None)
    @given(data=uint32_arrays)
    def test_ratio_sanity(self, name, chunk, sort, data):
        codec = make_shape(name, chunk, sort)
        encoded = codec.encode(data)
        if data.size == 0:
            # Self-describing codecs (counted-*) may keep a count
            # header even for empty input; all that matters is that
            # nothing is priced below zero bytes.
            assert len(encoded) >= 0
            return
        assert len(encoded) > 0
        ratio = (data.size * data.dtype.itemsize) / len(encoded)
        assert 0.0 < ratio < np.inf


@pytest.mark.parametrize("name,chunk,sort", VARIANTS)
class TestScalarOracleDifferential:
    """Closed-form size model vs the real encoders, byte for byte.

    ``len(encode(values))`` must equal
    :func:`tests.oracles.codecs.model_size` exactly; the BDI and BPC
    models run the pricer's own line and plane-class kernels, so this
    also holds those kernels to the encoders.  Adversarial shapes
    target the places the vectorized forms branch: empty input, a
    single element, the sign-bit-first zigzag overflow, and tails
    shorter than one sub-chunk.
    """

    def _assert_match(self, name, chunk, sort, data):
        codec = make_shape(name, chunk, sort)
        assert model_size(codec, data) == len(codec.encode(data))

    def test_empty(self, name, chunk, sort):
        for dtype in (np.uint32, np.uint64, np.float64, np.int32):
            self._assert_match(name, chunk, sort,
                               np.empty(0, dtype=dtype))

    def test_single_element(self, name, chunk, sort):
        for value in (0, 1, 2 ** 31, 2 ** 32 - 1):
            self._assert_match(
                name, chunk, sort,
                np.array([value], dtype=np.uint32))

    def test_sign_bit_first(self, name, chunk, sort):
        """First element >= 2**63: the 65-bit zigzag overflow shape."""
        for head in (2 ** 63, 2 ** 64 - 1, 2 ** 63 + 12345):
            data = np.array([head, 3, 2 ** 63, 7, head] * 7,
                            dtype=np.uint64)
            self._assert_match(name, chunk, sort, data)

    def test_sub_chunk_tails(self, name, chunk, sort):
        """Every length around the chunk boundary, incl. 1-elem tails."""
        rng = np.random.default_rng(7)
        for n in (1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3,
                  63, 64, 65, 66):
            data = rng.integers(0, 2 ** 32, n,
                                dtype=np.uint64).astype(np.uint32)
            self._assert_match(name, chunk, sort, data)

    @settings(max_examples=10, deadline=None)
    @given(data=uint64_arrays)
    def test_differential_u64(self, name, chunk, sort, data):
        self._assert_match(name, chunk, sort, data)

    @settings(max_examples=10, deadline=None)
    @given(data=float64_arrays)
    def test_differential_f64(self, name, chunk, sort, data):
        self._assert_match(name, chunk, sort, data)


@pytest.mark.parametrize("name,chunk,sort", VARIANTS)
def test_sign_bit_first_element(name, chunk, sort):
    """Size accounting with the top bit set in the first element.

    A float64 with the sign bit set (or a uint64 >= 2**63) zigzags to a
    65-bit value, which the delta-family encoders must carry through
    Python ints and a vectorized size model must patch, since it
    overflows a uint64 array.
    """
    data = np.array([-1.5, 2.25, -3e300, 0.0] * 8, dtype=np.float64)
    codec = make_shape(name, chunk, sort)
    encoded = codec.encode(data)
    assert model_size(codec, data) == len(encoded)
    out = codec.decode(encoded, data.size, np.float64)
    assert np.array_equal(out, expected(data, sort))


def test_sweep_is_registry_driven():
    """Every registered codec name appears in the sweep's variants."""
    swept = {param.values[0] for param in VARIANTS}
    assert swept == set(available_codecs())
