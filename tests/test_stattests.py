"""Statistical tests: published reference vectors, degenerate inputs,
calibration, and the pass-proportion rule."""

import math

import numpy as np
import pytest
from scipy import special

from vacqrng.errors import DataError, ParameterError
from vacqrng.stattests import (_max_excursion, approximate_entropy_test,
                               block_frequency_test, cumulative_sums_test,
                               monobit_test, pass_proportion_interval,
                               run_suite, runs_test)

# First 100 binary digits of pi (integer part included), the standard
# suite's worked long example; 42 ones, 52 runs.
PI_100 = ("1100100100001111110110101010001000100001011010001100"
          "001000110100110001001100011001100010100010111000")


def bits(s: str) -> np.ndarray:
    return np.array([int(c) for c in s], dtype=np.uint8)


def prng_bits(n: int, seed: int = 1) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=n, dtype=np.uint8)


class TestReferenceVectors:
    """Published example p-values, reproduced to 1e-4."""

    def test_monobit_pi_digits(self):
        assert bits(PI_100).sum() == 42
        out = monobit_test(bits(PI_100))
        assert out.p_value == pytest.approx(0.109599, abs=1e-4)

    def test_block_frequency_short_example(self):
        out = block_frequency_test(bits("0110011010"), block_size=3)
        assert out.p_value == pytest.approx(0.801252, abs=1e-4)

    def test_block_frequency_pi_digits(self):
        out = block_frequency_test(bits(PI_100), block_size=10)
        assert out.p_value == pytest.approx(0.706438, abs=1e-4)

    def test_runs_short_example(self):
        out = runs_test(bits("1001101011"))
        assert out.p_value == pytest.approx(0.147232, abs=1e-4)

    def test_runs_pi_digits(self):
        out = runs_test(bits(PI_100))
        assert out.p_value == pytest.approx(0.500798, abs=1e-4)

    def test_cumulative_sums_short_example(self):
        out = cumulative_sums_test(bits("1011010111"))
        assert out.p_value == pytest.approx(0.4116588, abs=1e-4)

    def test_cumulative_sums_pi_digits_both_modes(self):
        fwd = cumulative_sums_test(bits(PI_100), mode="forward")
        assert fwd.p_value == pytest.approx(0.219194, abs=1e-4)
        bwd = cumulative_sums_test(bits(PI_100), mode="backward")
        assert bwd.p_value == pytest.approx(0.114866, abs=1e-4)

    def test_approximate_entropy_short_example(self):
        out = approximate_entropy_test(bits("0100110101"), pattern_length=3)
        assert out.p_value == pytest.approx(0.261961, abs=1e-4)

    def test_approximate_entropy_pi_digits(self):
        out = approximate_entropy_test(bits(PI_100), pattern_length=2)
        assert out.p_value == pytest.approx(0.235301, abs=1e-4)


class TestDegenerateInputs:
    def test_monobit_alternating_is_perfect(self):
        assert monobit_test(np.tile([0, 1], 500_000)).p_value == 1.0

    def test_monobit_constant_fails(self):
        out = monobit_test(np.ones(1_000_000, dtype=np.uint8))
        assert out.p_value == pytest.approx(0.0, abs=1e-12)
        assert not out.passed

    def test_block_frequency_constant_fails(self):
        out = block_frequency_test(np.ones(10_000, dtype=np.uint8))
        assert out.p_value == pytest.approx(0.0, abs=1e-12)

    def test_runs_constant_fails_pretest(self):
        assert runs_test(np.zeros(10_000, dtype=np.uint8)).p_value == 0.0

    def test_cumulative_sums_constant_fails(self):
        out = cumulative_sums_test(np.ones(10_000, dtype=np.uint8))
        assert out.p_value == pytest.approx(0.0, abs=1e-12)

    def test_approximate_entropy_constant_fails(self):
        out = approximate_entropy_test(np.zeros(10_000, dtype=np.uint8))
        assert out.p_value == pytest.approx(0.0, abs=1e-12)


def apen_p_two_indices(bits: np.ndarray, m: int) -> float:
    """Approximate-entropy p-value with the m- and (m+1)-bit circular
    pattern counts each counted directly, as the statistic is defined."""
    n = bits.size

    def phi(block_len: int) -> float:
        aug = np.concatenate([bits, bits[:block_len - 1]])
        idx = np.zeros(n, dtype=np.int64)
        for t in range(block_len):
            idx = (idx << 1) | aug[t:t + n]
        counts = np.bincount(idx, minlength=2 ** block_len)
        probs = counts[counts > 0] / n
        return float(np.sum(probs * np.log(probs)))

    apen = phi(m) - phi(m + 1)
    chi2 = max(2.0 * n * (math.log(2.0) - apen), 0.0)
    return float(min(max(special.gammaincc(2 ** (m - 1), chi2 / 2.0), 0.0),
                     1.0))


class TestApproximateEntropyDerivedCounts:
    """The m-bit counts derived from the (m+1)-bit ones (each circular
    m-window is the prefix of the (m+1)-window at the same position) give
    the p-value of counting both directly, bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_direct_counts(self, m):
        rng = np.random.default_rng(40 + m)
        for data in (prng_bits(20_011, seed=m),
                     (rng.random(5_003) < 0.3).astype(np.uint8),
                     bits(PI_100)):
            got = approximate_entropy_test(data, pattern_length=m).p_value
            assert got == apen_p_two_indices(data, m)


def reference_excursion(data: np.ndarray) -> int:
    """max |S_k| of the +/-1 walk, summed in int64."""
    return int(np.max(np.abs(np.cumsum(2 * data.astype(np.int64) - 1))))


class TestCumulativeSumsWalk:
    """The int8-step, int32-sum walk gives the int64 walk's z."""

    def test_random_sequences_both_directions(self):
        rng = np.random.default_rng(50)
        for k in range(50):
            n = int(rng.integers(2, 200_000))
            data = (rng.random(n) < rng.uniform(0.3, 0.7)).astype(np.uint8)
            assert _max_excursion(data) == reference_excursion(data)
            assert (_max_excursion(data[::-1])
                    == reference_excursion(data[::-1]))

    @pytest.mark.parametrize("value", [0, 1])
    def test_constant_sequences_reach_n(self, value):
        data = np.full(300_007, value, dtype=np.uint8)
        for walk in (data, data[::-1]):
            assert _max_excursion(walk) == data.size
            assert reference_excursion(walk) == data.size


class TestRandomInputSanity:
    def test_all_tests_pass_prng_stream(self):
        data = prng_bits(100_000, seed=31)
        for test in (monobit_test, block_frequency_test, runs_test,
                     cumulative_sums_test, approximate_entropy_test):
            out = test(data)
            assert out.p_value > 0.01
            assert out.passed

    def test_p_values_in_unit_interval(self):
        for seed in range(30):
            data = prng_bits(2048, seed=seed)
            for test in (monobit_test, block_frequency_test, runs_test,
                         cumulative_sums_test, approximate_entropy_test):
                assert 0.0 <= test(data).p_value <= 1.0


class TestInvariances:
    def test_monobit_complement_invariance(self):
        for seed in range(20):
            data = prng_bits(5000, seed=seed)
            assert monobit_test(data).p_value == pytest.approx(
                monobit_test(1 - data).p_value, rel=1e-12)

    def test_rejection_rate_calibrated(self):
        # at beta = 0.01 a healthy test rejects ~1% of true-random input
        rng = np.random.default_rng(424242)
        n_seq, length = 10_000, 1024
        data = rng.integers(0, 2, size=(n_seq, length), dtype=np.uint8)
        tests = {"monobit": monobit_test, "block_frequency":
                 block_frequency_test, "runs": runs_test,
                 "cumulative_sums": cumulative_sums_test,
                 "approximate_entropy": approximate_entropy_test}
        for name, test in tests.items():
            fails = sum(not test(row).passed for row in data)
            assert 0.005 <= fails / n_seq <= 0.015, name


class TestPreconditions:
    def test_monobit_needs_100_bits(self):
        with pytest.raises(ParameterError):
            monobit_test(np.ones(99, dtype=np.uint8))

    def test_block_frequency_needs_one_block(self):
        with pytest.raises(ParameterError):
            block_frequency_test(np.ones(100, dtype=np.uint8),
                                 block_size=128)

    def test_cusum_mode_validated(self):
        with pytest.raises(ParameterError):
            cumulative_sums_test(prng_bits(100), mode="sideways")

    def test_non_binary_rejected(self):
        with pytest.raises(ParameterError):
            monobit_test(np.array([0, 1, 2] * 100))


class TestPassProportionInterval:
    def test_reference_boundary(self):
        lo, hi = pass_proportion_interval(0.01, 1000)
        # exact formula value; the commonly quoted 0.9805608 rounds the
        # last digit up
        assert lo == pytest.approx(0.9805607203664686, abs=1e-12)
        assert lo == pytest.approx(0.9805608, abs=1.5e-7)
        assert hi == pytest.approx(0.9994392796335314, abs=1e-12)

    def test_symmetry_about_center(self):
        lo, hi = pass_proportion_interval(0.01, 1000)
        assert (lo + hi) / 2 == pytest.approx(0.99, rel=1e-12)

    def test_interval_shrinks_with_n(self):
        widths = [pass_proportion_interval(0.5, n)[1]
                  - pass_proportion_interval(0.5, n)[0]
                  for n in (10, 100, 10_000, 1_000_000)]
        assert all(a > b for a, b in zip(widths, widths[1:]))
        assert widths[-1] < 0.004  # closing in on the center

    def test_invalid_beta(self):
        with pytest.raises(ParameterError):
            pass_proportion_interval(0.0, 100)
        with pytest.raises(ParameterError):
            pass_proportion_interval(1.0, 100)


class TestRunSuite:
    def test_prng_stream_passes(self):
        verdict = run_suite(prng_bits(2_000_000, seed=5),
                            sequence_length=100_000, n_sequences=20)
        assert verdict.overall_pass
        lo, hi = verdict.interval_lo, verdict.interval_hi
        for prop in verdict.proportions.values():
            assert lo <= prop <= hi

    def test_all_zero_stream_fails(self):
        verdict = run_suite(np.zeros(1_000_000, dtype=np.uint8),
                            sequence_length=100_000, n_sequences=10)
        assert not verdict.overall_pass
        assert all(p == 0.0 for p in verdict.proportions.values())

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            run_suite(prng_bits(1000), sequence_length=1000, n_sequences=2)

    def test_verdict_serializes_and_tabulates(self):
        import json
        verdict = run_suite(prng_bits(500_000, seed=6),
                            sequence_length=100_000, n_sequences=5)
        payload = json.loads(verdict.to_json())
        assert set(payload["proportions"]) == {
            "monobit", "block_frequency", "runs", "cumulative_sums",
            "approximate_entropy"}
        table = verdict.table()
        assert "monobit" in table and "acceptance band" in table
