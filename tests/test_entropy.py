"""Variance estimation, conditional min-entropy, extractor budget."""

import math
import tracemalloc

import numpy as np
import pytest

from vacqrng.config import PipelineConfig
from vacqrng.entropy import (block_budget, build_report, min_entropy,
                             min_entropy_discretized, sample_variance)
from vacqrng.errors import NoExtractableEntropyError, ParameterError
from vacqrng.pipeline import noise_samples, select_centered, simulate_run


class TestSampleVariance:
    def test_constant_sequence(self):
        assert sample_variance([1, 1, 1, 1]) == 0.0

    def test_two_point_hand_value(self):
        assert sample_variance([0, 2]) == pytest.approx(2.0)

    def test_large_gaussian_draw(self):
        rng = np.random.default_rng(15)
        draws = rng.normal(0.0, math.sqrt(1.86e5), size=1_000_000)
        assert sample_variance(draws) == pytest.approx(1.86e5, rel=0.01)

    def test_too_short(self):
        with pytest.raises(ParameterError):
            sample_variance([3.0])

    def test_integer_input_equals_float64_copy(self):
        # integer sums are exact in float64 and the deviations are the same
        # array, so skipping the up-front cast changes no bit
        rng = np.random.default_rng(16)
        values = np.rint(rng.normal(0, 862, size=300_001)).astype(np.int16)
        assert sample_variance(values) == float(
            np.var(values.astype(np.float64), ddof=1))

    def test_bounded_memory(self):
        # numpy reports its buffers to tracemalloc: np.var holds a float64
        # deviation array of the whole stream (32 MB here), the tree walk
        # one leaf of it at a time
        values = np.rint(np.random.default_rng(17).normal(
            0, 1700, size=4_000_000)).astype(np.int16)
        tracemalloc.start()
        try:
            sample_variance(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak


class TestMinEntropy:
    def test_reference_operating_point(self):
        assert min_entropy(1.86e5, 166.09) == pytest.approx(10.08, abs=0.005)

    def test_unit_variance_zero_bits(self):
        assert min_entropy(1 / (2 * math.pi), 0.0) == pytest.approx(0.0,
                                                                    abs=1e-12)

    def test_inverted_formula_exact_ten_bits(self):
        sigma_e_sq = 166.09
        sigma_m_sq = sigma_e_sq + 2 ** 20 / (2 * math.pi)
        assert min_entropy(sigma_m_sq, sigma_e_sq) == pytest.approx(
            10.0, abs=1e-9)

    def test_no_quantum_excess_rejected(self):
        with pytest.raises(NoExtractableEntropyError):
            min_entropy(166.09, 166.09)
        with pytest.raises(NoExtractableEntropyError):
            min_entropy(100.0, 166.09)

    def test_monotonicity(self):
        base = min_entropy(1.86e5, 166.09)
        assert min_entropy(2.0e5, 166.09) > base
        assert min_entropy(1.86e5, 300.0) < base

    def test_scale_covariance_one_bit_per_factor_four(self):
        h = min_entropy(1000.0, 0.0)
        assert min_entropy(4000.0, 0.0) == pytest.approx(h + 1.0, abs=1e-12)

    def test_discretized_variant_close_to_continuous(self):
        # at wide sigma the discrete peak mass matches the density peak
        sigma_q_sq = 1.86e5 - 166.09
        cont = min_entropy(1.86e5, 166.09)
        disc = min_entropy_discretized(sigma_q_sq)
        assert disc == pytest.approx(cont, abs=0.01)


def budget(h_min: float, samples_per_block: int, epsilon: float) -> int:
    """block_budget of a block of whole 12-bit samples."""
    return block_budget(h_min, 12 * samples_per_block, 12, epsilon)


class TestExtractorBudget:
    def test_reference_geometry(self):
        assert budget(10.08, 200, 2.0 ** -48) == 1920

    def test_no_security_deduction(self):
        # epsilon -> 1 costs nothing; full-entropy samples pass through
        assert budget(12.0, 200, 1.0) == 2400

    def test_budget_exhausted(self):
        with pytest.raises(NoExtractableEntropyError):
            budget(0.4, 200, 2.0 ** -48)

    def test_h_min_at_or_below_zero_exhausts_budget(self):
        # a measured shortfall even at epsilon = 1, not a parameter error
        for h_min in (0.004, 0.0, -3.0):
            with pytest.raises(NoExtractableEntropyError):
                budget(h_min, 200, 1.0)

    def test_never_exceeds_raw_bits(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            h = rng.uniform(0.1, 12.0)
            spb = int(rng.integers(1, 500))
            try:
                m = budget(h, spb, 2.0 ** -48)
            except NoExtractableEntropyError:
                continue
            assert m <= spb * 12

    def test_invalid_epsilon(self):
        with pytest.raises(ParameterError):
            budget(10.0, 200, 0.0)
        with pytest.raises(ParameterError):
            budget(10.0, 200, 1.5)


class TestEndToEnd:
    def test_simulated_runs_reproduce_reference_entropy(self):
        cfg = PipelineConfig(samples=2_000_000, noise_samples=1_000_000)
        # the samples `all` estimates from: LO-on blocks from the first
        # lock on, and the whole frozen LO-off run
        measured = select_centered(cfg, simulate_run(cfg))
        report = build_report(measured, noise_samples(cfg), adc_bits=12)
        assert report.h_min_per_sample == pytest.approx(10.08, abs=0.05)
        assert report.sigma_m_sq == pytest.approx(1.86e5, rel=0.02)
        assert report.sigma_e_sq == pytest.approx(166.09, rel=0.05)
        assert report.sigma_q_sq == pytest.approx(
            report.sigma_m_sq - report.sigma_e_sq)
        assert report.bits_per_raw_bit == pytest.approx(
            report.h_min_per_sample / 12)

    def test_report_serializes(self):
        import json
        # start at the balance code so a short run has usable blocks
        cfg = PipelineConfig(samples=100_000, noise_samples=100_000,
                             dac_init=5182)
        report = build_report(select_centered(cfg, simulate_run(cfg)),
                              noise_samples(cfg))
        payload = json.loads(report.to_json())
        assert payload["sample_count"] == report.sample_count
