"""Statistical tests: published reference vectors, degenerate inputs,
calibration, the pass-proportion rule, and the standard-library special
functions against scipy."""

import gc
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import vacqrng
from vacqrng.errors import DataError, ParameterError
from vacqrng.pipeline import write_json
from vacqrng.stattests import (DEFAULT_BETA, _gammaincc, _max_excursion,
                               _ndtr, _words, approximate_entropy_test,
                               block_frequency_test, cumulative_sums_test,
                               monobit_test, pass_proportion_interval,
                               run_suite, runs_test)
from tests.stat_reference import excursion, pack

# First 100 binary digits of pi (integer part included), the standard
# suite's worked long example; 42 ones, 52 runs.
PI_100 = ("1100100100001111110110101010001000100001011010001100"
          "001000110100110001001100011001100010100010111000")


def bits(s: str) -> np.ndarray:
    return np.array([int(c) for c in s], dtype=np.uint8)


def align(data) -> tuple[np.ndarray, int]:
    """0/1 bits as the aligned words a test takes, and their count: the
    packed stream moved to bit 0 of uint64 words, as `run_suite` does."""
    stream, n = pack(data)
    return _words(stream, 0, n), n


def aligned(s: str) -> tuple[np.ndarray, int]:
    """A string of 0/1 digits as (aligned words, bit count)."""
    return align(bits(s))


def prng_bits(n: int, seed: int = 1) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=n, dtype=np.uint8)


class TestReferenceVectors:
    """Published example p-values, reproduced to 1e-4."""

    def test_monobit_pi_digits(self):
        assert bits(PI_100).sum() == 42
        out = monobit_test(*aligned(PI_100))
        assert out == pytest.approx(0.109599, abs=1e-4)

    def test_block_frequency_short_example(self):
        out = block_frequency_test(*aligned("0110011010"), block_size=3)
        assert out == pytest.approx(0.801252, abs=1e-4)

    def test_block_frequency_pi_digits(self):
        out = block_frequency_test(*aligned(PI_100), block_size=10)
        assert out == pytest.approx(0.706438, abs=1e-4)

    def test_runs_short_example(self):
        out = runs_test(*aligned("1001101011"))
        assert out == pytest.approx(0.147232, abs=1e-4)

    def test_runs_pi_digits(self):
        out = runs_test(*aligned(PI_100))
        assert out == pytest.approx(0.500798, abs=1e-4)

    def test_cumulative_sums_short_example(self):
        out = cumulative_sums_test(*aligned("1011010111"))
        assert out == pytest.approx(0.4116588, abs=1e-4)

    def test_cumulative_sums_pi_digits_both_modes(self):
        fwd = cumulative_sums_test(*aligned(PI_100), mode="forward")
        assert fwd == pytest.approx(0.219194, abs=1e-4)
        bwd = cumulative_sums_test(*aligned(PI_100), mode="backward")
        assert bwd == pytest.approx(0.114866, abs=1e-4)

    def test_approximate_entropy_short_example(self):
        out = approximate_entropy_test(*aligned("0100110101"),
                                       pattern_length=3)
        assert out == pytest.approx(0.261961, abs=1e-4)

    def test_approximate_entropy_pi_digits(self):
        out = approximate_entropy_test(*aligned(PI_100), pattern_length=2)
        assert out == pytest.approx(0.235301, abs=1e-4)


class TestDegenerateInputs:
    def test_monobit_alternating_is_perfect(self):
        assert monobit_test(*align(np.tile([0, 1], 500_000))) == 1.0

    def test_monobit_constant_fails(self):
        out = monobit_test(*align(np.ones(1_000_000)))
        assert out == pytest.approx(0.0, abs=1e-12)
        assert out <= DEFAULT_BETA

    def test_block_frequency_constant_fails(self):
        out = block_frequency_test(*align(np.ones(10_000)))
        assert out == pytest.approx(0.0, abs=1e-12)

    def test_runs_constant_fails_pretest(self):
        assert runs_test(*align(np.zeros(10_000))) == 0.0

    def test_cumulative_sums_constant_fails(self):
        out = cumulative_sums_test(*align(np.ones(10_000)))
        assert out == pytest.approx(0.0, abs=1e-12)

    def test_approximate_entropy_constant_fails(self):
        out = approximate_entropy_test(*align(np.zeros(10_000)))
        assert out == pytest.approx(0.0, abs=1e-12)


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
    return float(min(max(_gammaincc(2 ** (m - 1), chi2 / 2.0), 0.0), 1.0))


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
            got = approximate_entropy_test(*align(data), pattern_length=m)
            assert got == apen_p_two_indices(data, m)


class TestCumulativeSumsWalk:
    """The byte-table walk over the packed stream gives the int64 walk's
    z, forward and backward."""

    def test_random_sequences_both_directions(self):
        rng = np.random.default_rng(50)
        for k in range(50):
            n = int(rng.integers(2, 200_000))
            data = (rng.random(n) < rng.uniform(0.3, 0.7)).astype(np.uint8)
            for mode in ("forward", "backward"):
                assert (_max_excursion(*align(data), mode)
                        == excursion(data, mode))

    @pytest.mark.parametrize("value", [0, 1])
    def test_constant_sequences_reach_n(self, value):
        data = np.full(300_007, value, dtype=np.uint8)
        for mode in ("forward", "backward"):
            assert _max_excursion(*align(data), mode) == data.size
            assert excursion(data, mode) == data.size


class TestRandomInputSanity:
    def test_all_tests_pass_prng_stream(self):
        data = align(prng_bits(100_000, seed=31))
        for test in (monobit_test, block_frequency_test, runs_test,
                     cumulative_sums_test, approximate_entropy_test):
            # the suite's pass rule, p > beta
            assert test(*data) > 0.01

    def test_p_values_in_unit_interval(self):
        for seed in range(30):
            data = align(prng_bits(2048, seed=seed))
            for test in (monobit_test, block_frequency_test, runs_test,
                         cumulative_sums_test, approximate_entropy_test):
                assert 0.0 <= test(*data) <= 1.0


class TestInvariances:
    def test_monobit_complement_invariance(self):
        for seed in range(20):
            data = prng_bits(5000, seed=seed)
            assert monobit_test(*align(data)) == pytest.approx(
                monobit_test(*align(1 - data)), rel=1e-12)

    def test_rejection_rate_calibrated(self):
        # at beta = 0.01 a healthy test rejects ~1% of true-random input
        rng = np.random.default_rng(424242)
        n_seq, length = 10_000, 1024
        data = np.packbits(rng.integers(0, 2, size=(n_seq, length),
                                        dtype=np.uint8),
                           axis=1, bitorder="little")
        tests = {"monobit": monobit_test, "block_frequency":
                 block_frequency_test, "runs": runs_test,
                 "cumulative_sums": cumulative_sums_test,
                 "approximate_entropy": approximate_entropy_test}
        fails = dict.fromkeys(tests, 0)
        for row in data:
            # each row aligned once, as run_suite aligns each sequence
            words = _words(row, 0, length)
            for name, test in tests.items():
                fails[name] += test(words, length) <= 0.01
        for name, count in fails.items():
            assert 0.005 <= count / n_seq <= 0.015, name


class TestPreconditions:
    """`run_suite` checks its input once; the tests it calls check
    nothing."""

    def test_block_frequency_needs_one_block(self):
        # the longest minimum of the five: one 128-bit block
        data, n = pack(prng_bits(1_000))
        with pytest.raises(ParameterError, match="128"):
            run_suite(data, n, sequence_length=127, n_sequences=2)
        run_suite(data, n, sequence_length=128, n_sequences=2)

    def test_non_binary_rejected(self):
        # integers that are not bytes are no packed stream
        with pytest.raises(ParameterError):
            run_suite(np.array([0, 1, 2] * 100), 300, sequence_length=128,
                      n_sequences=2)

    def test_bit_count_must_fit_bytes(self):
        data, n = pack(prng_bits(200))
        for count in (-1, n + 57):
            with pytest.raises(ParameterError):
                run_suite(data, count, sequence_length=128, n_sequences=2)


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
        verdict = run_suite(*pack(prng_bits(2_000_000, seed=5)),
                            sequence_length=100_000, n_sequences=20)
        assert verdict.overall_pass
        lo, hi = verdict.interval_lo, verdict.interval_hi
        for prop in verdict.proportions.values():
            assert lo <= prop <= hi

    def test_all_zero_stream_fails(self):
        verdict = run_suite(*pack(np.zeros(1_000_000)),
                            sequence_length=100_000, n_sequences=10)
        assert not verdict.overall_pass
        assert all(p == 0.0 for p in verdict.proportions.values())

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            run_suite(*pack(prng_bits(1000)), sequence_length=1000,
                      n_sequences=2)

    def test_verdict_serializes_and_tabulates(self, tmp_path):
        verdict = run_suite(*pack(prng_bits(500_000, seed=6)),
                            sequence_length=100_000, n_sequences=5)
        payload = json.loads(write_json(tmp_path / "verdict.json",
                                        asdict(verdict)))
        assert set(payload["proportions"]) == {
            "monobit", "block_frequency", "runs", "cumulative_sums",
            "approximate_entropy"}
        table = verdict.table()
        assert "monobit" in table and "acceptance band" in table


def assert_p_close(got: float, want: float) -> None:
    """1e-10 relative where p > 1e-6, 1e-12 absolute below."""
    if want > 1e-6:
        assert abs(got - want) <= 1e-10 * want, (got, want)
    else:
        assert abs(got - want) <= 1e-12, (got, want)


class TestSpecialFunctions:
    """The standard-library p-value functions against scipy over the
    suite's argument ranges."""

    @pytest.mark.parametrize("a", [0.5, 1, 1.5, 2, 4, 3906, 3906.5])
    def test_gammaincc(self, a):
        # x spread around a: both branches, the switch at a + 1, and many
        # standard deviations (sqrt(a)) on either side
        spread = np.concatenate([np.linspace(-12, 12, 97),
                                 [-1, -1e-9, 0, 1e-9, 1]])
        xs = a + 1 + spread * math.sqrt(a)
        xs = np.concatenate([xs[xs > 0], [1e-12, 1e-3, a / 10, 3 * a,
                                          10 * a + 50]])
        for x in xs:
            assert_p_close(_gammaincc(a, float(x)),
                           float(special.gammaincc(a, x)))
        assert _gammaincc(a, 0.0) == 1.0

    def test_erfc(self):
        # monobit and runs arguments: |s| / sqrt(2n) and the runs ratio
        for x in np.concatenate([np.linspace(0, 6, 601), [7.5, 9.0]]):
            assert_p_close(math.erfc(x), float(special.erfc(x)))

    def test_ndtr_at_cumulative_sums_arguments(self):
        # (4k +/- 1) z / sqrt(n) and (4k + 3) z / sqrt(n) over every k the
        # test sums, for excursions from tiny to the whole sequence
        for n, z in [(10, 3), (100, 16), (100_000, 1),
                     (1_000_000, 1_200), (1_000_000, 5_000),
                     (1_000_000, 1_000_000)]:
            ks = np.arange(math.floor((-n / z - 3) / 4),
                           math.floor((n / z - 1) / 4) + 1)
            xs = np.concatenate([(4 * ks + j) * z / math.sqrt(n)
                                 for j in (-1, 1, 3)])
            got = np.array([_ndtr(float(x)) for x in xs])
            want = special.ndtr(xs)
            # within two ulps of 1 everywhere, and relatively close
            assert np.abs(got - want).max() <= 4.5e-16
            for g, w in zip(got, want):
                assert_p_close(g, w)


class TestNoGarbage:
    def test_suite_leaves_no_reference_cycles(self):
        # a cycle would hold the suite's word arrays until the cyclic
        # collector ran, and repeated runs would retain heap between them
        data = pack(prng_bits(20_000, seed=8))
        gc.collect()
        gc.disable()
        try:
            run_suite(*data, sequence_length=10_000, n_sequences=2)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestNoScipyAtRuntime:
    def test_import_leaves_scipy_out(self):
        code = ("import sys, vacqrng.cli; "
                "print('scipy' in sys.modules, 'vacqrng.stattests' in "
                "sys.modules)")
        env = {**os.environ,
               "PYTHONPATH": str(Path(vacqrng.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["False", "True"]
