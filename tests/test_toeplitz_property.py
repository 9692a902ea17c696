"""Property test: `write_stream` against the bit-level dense oracle.

Kept apart from test_toeplitz.py so that an environment without
hypothesis loses only this test.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vacqrng import toeplitz
from vacqrng.toeplitz import ExtractorParams, generate_test_seed
from tests.bit_reference import dense_stream, stream_bytes


@st.composite
def stream_cases(draw):
    """A geometry, a sample stream of up to ~40 blocks and a chunk size
    of 8 or 16 blocks, so that chunk edges fall inside samples and bytes
    and the helper thread hashes some of the chunks."""
    bits_per_sample = draw(st.integers(1, 16))
    n = draw(st.integers(1, 300))
    m = draw(st.integers(1, n))
    dtype = np.dtype(draw(st.sampled_from(["int16", "int32", "uint16"])))
    size = draw(st.integers(0, 40 * n // bits_per_sample + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    info = np.iinfo(dtype)
    samples = rng.integers(info.min, info.max, size=size, endpoint=True,
                           dtype=dtype)
    return (samples, bits_per_sample, ExtractorParams(m=m, n=n),
            draw(st.sampled_from([8, 16])), draw(st.integers(0, 2 ** 16)))


class TestStreamProperty:
    @settings(max_examples=60, deadline=None, database=None)
    @given(stream_cases())
    def test_stream_equals_dense_oracle(self, case):
        samples, bits_per_sample, params, chunk_blocks, seed_value = case
        seed = generate_test_seed(params, seed_value)
        with mock.patch.object(toeplitz, "_CHUNK_BLOCKS", chunk_blocks):
            packed = stream_bytes(samples, seed, params, bits_per_sample)
        assert packed == dense_stream(samples, seed, params, bits_per_sample)
