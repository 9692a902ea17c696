"""Property test: the packed-word suite against the bit-level oracle.

Every statistic must equal the oracle's integer; every p-value must equal
the oracle's scipy p-value to 1e-10 relative (1e-12 absolute below
p = 1e-6), and, where the oracle is given the suite's own special
functions, its p-value exactly.  Kept apart from test_stattests.py so
that an environment without hypothesis loses only this test.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import stat_reference as ref
from vacqrng import stattests


@st.composite
def sequence_cases(draw):
    """A sequence of any length (many below 64 bits, most not a whole
    number of bytes), fair, biased or constant, lying at a random bit
    offset inside a longer packed stream, plus a block size and a
    pattern length."""
    n = draw(st.one_of(st.integers(2, 63), st.integers(64, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["fair", "biased", "zeros", "ones"]))
    if kind == "fair":
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    elif kind == "biased":
        bits = (rng.random(n) < draw(st.floats(0.01, 0.99))).astype(np.uint8)
    else:
        bits = np.full(n, kind == "ones", dtype=np.uint8)
    offset = draw(st.integers(0, 80))
    stream = np.concatenate([rng.integers(0, 2, size=offset, dtype=np.uint8),
                             bits,
                             rng.integers(0, 2, size=draw(st.integers(0, 20)),
                                          dtype=np.uint8)])
    block_size = draw(st.one_of(st.sampled_from([1, 3, 8, 10, 64, 100, 128]),
                                st.integers(1, n)))
    pattern_length = draw(st.integers(1, 6))
    return bits, ref.pack(stream)[0], offset, block_size, pattern_length


def assert_p_close(got: float, want: float) -> None:
    if want > 1e-6:
        assert abs(got - want) <= 1e-10 * want, (got, want)
    else:
        assert abs(got - want) <= 1e-12, (got, want)


class TestPackedSuiteProperty:
    @settings(max_examples=150, deadline=None, database=None)
    @given(sequence_cases())
    def test_statistics_and_p_values_equal_oracle(self, case):
        bits, stream, offset, block_size, m = case
        n = bits.size
        words = stattests._words(stream, offset, n)
        # the sequence, moved to bit 0, with nothing after it
        assert np.array_equal(
            np.unpackbits(words.view(np.uint8), bitorder="little"),
            np.concatenate([bits, np.zeros(64 * words.size - n, np.uint8)]))

        assert stattests._ones(words) == ref.ones(bits)
        assert stattests._runs(words, n) == ref.runs(bits)
        p = stattests.runs_test(words, n)
        assert_p_close(p, ref.runs_p(bits))
        assert p == ref.runs_p(bits, erfc=math.erfc)
        for mode in ("forward", "backward"):
            assert (stattests._max_excursion(words, n, mode)
                    == ref.excursion(bits, mode))
            assert_p_close(stattests.cumulative_sums_test(words, n, mode=mode),
                           ref.cumulative_sums_p(bits, mode))
        p = stattests.monobit_test(words, n)
        assert_p_close(p, ref.monobit_p(bits))
        assert p == ref.monobit_p(bits, erfc=math.erfc)
        if n >= block_size:
            assert np.array_equal(
                stattests._block_counts(words, block_size, n // block_size),
                ref.block_counts(bits, block_size))
            p = stattests.block_frequency_test(words, n,
                                               block_size=block_size)
            assert_p_close(p, ref.block_frequency_p(bits, block_size))
            assert p == ref.block_frequency_p(bits, block_size,
                                              gammaincc=stattests._gammaincc)
        if n >= m + 2:
            assert np.array_equal(stattests._pattern_counts(words, n, m),
                                  ref.pattern_counts(bits, m))
            p = stattests.approximate_entropy_test(words, n,
                                                   pattern_length=m)
            assert_p_close(p, ref.approximate_entropy_p(bits, m))
            assert p == ref.approximate_entropy_p(
                bits, m, gammaincc=stattests._gammaincc)
