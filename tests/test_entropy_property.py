"""Property test: `sample_variance` against `np.var`, bit for bit.

`np.var(x, ddof=1)` is the oracle; `src/` sums along its pairwise tree
without holding the deviation array.  Kept apart from test_entropy.py so
that an environment without hypothesis loses only this test.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vacqrng.entropy import VARIANCE_LEAF, sample_variance

INT16 = np.iinfo(np.int16)


@st.composite
def streams(draw):
    """A Gaussian stream at a length next to a split point of numpy's
    pairwise sum (its 8-way unroll, its 128-sample block, the leaf) or
    of a few million samples, with its mean and spread anywhere in the
    int16 range, as int16 or float64."""
    n = draw(st.one_of(
        st.just(2), st.integers(3, 16), st.integers(120, 136),
        st.integers(VARIANCE_LEAF - 8, VARIANCE_LEAF + 8),
        st.integers(2 * VARIANCE_LEAF, 2 * VARIANCE_LEAF + 16),
        st.integers(1_000_000, 4_000_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mean = draw(st.floats(INT16.min, INT16.max))
    scale = draw(st.sampled_from([0.0, 0.5, 3.0, 430.0, 862.0, 2e4]))
    values = rng.normal(mean, scale, size=n)
    if draw(st.booleans()):
        return values
    return np.clip(np.rint(values), INT16.min, INT16.max).astype(np.int16)


class TestSampleVarianceIsNpVar:
    @settings(max_examples=80, deadline=None, database=None)
    @given(streams())
    def test_bit_identical(self, values):
        assert sample_variance(values).hex() \
            == float(np.var(values, ddof=1)).hex()
