"""Conditional min-entropy estimation and extractor sizing.

The measurement outcome is modeled as quantum noise plus independent
classical noise, both Gaussian.  Comparing the output variance with the LO
on (sigma_m_sq) and off (sigma_e_sq) isolates the quantum part, and the
worst-case extractable randomness per sample is

    h_min = (1/2) * log2(2*pi*(sigma_m_sq - sigma_e_sq))

Variances are in squared ADC counts (LSB^2).  The leftover-hash budget
m <= k - 2*log2(1/eps) then sizes the extractor output per input block.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NoExtractableEntropyError, ParameterError


# Samples per leaf of the variance's summation tree: the largest
# deviation array sample_variance holds (float64, 512 KB).
VARIANCE_LEAF = 1 << 16


def _square_sum(values: np.ndarray, lo: int, n: int, mean: float) -> float:
    """Sum of (values[lo:lo+n] - mean)^2 along numpy's pairwise-summation
    tree: split at n // 2 rounded down to a multiple of 8, as numpy's
    float64 `add.reduce` does, down to leaves of at most VARIANCE_LEAF
    samples that numpy sums itself."""
    if n <= VARIANCE_LEAF:
        deviation = values[lo:lo + n] - mean
        np.multiply(deviation, deviation, out=deviation)
        return float(np.add.reduce(deviation))
    half = n // 2 - n // 2 % 8
    return (_square_sum(values, lo, half, mean)
            + _square_sum(values, lo + half, n - half, mean))


def sample_variance(values) -> float:
    """Unbiased sample variance (two-pass, divide by n-1) of integer or
    float64 values, equal to `np.var(values, ddof=1)` bit for bit.

    The mean is numpy's buffered float64 sum over n.  The squared
    deviations are summed leaf by leaf along the tree numpy's pairwise
    summation would walk over the whole deviation array, so every
    addition is the same and no more than VARIANCE_LEAF deviations are
    held at once, where `np.var` holds all n in float64.
    """
    values = np.asarray(values).reshape(-1)
    n = values.size
    if n < 2:
        raise ParameterError("variance needs at least 2 values")
    mean = np.add.reduce(values, dtype=np.float64) / n
    return _square_sum(values, 0, n, mean) / (n - 1)


def min_entropy(sigma_m_sq: float, sigma_e_sq: float) -> float:
    """Min-entropy (bits/sample) of the measurement given classical noise."""
    if sigma_e_sq < 0:
        raise ParameterError("sigma_e_sq must be >= 0")
    sigma_q_sq = sigma_m_sq - sigma_e_sq
    if sigma_q_sq <= 0:
        raise NoExtractableEntropyError(
            f"measured variance {sigma_m_sq} does not exceed classical "
            f"noise variance {sigma_e_sq}")
    return 0.5 * math.log2(2.0 * math.pi * sigma_q_sq)


def min_entropy_discretized(sigma_q_sq: float, lsb_units: float = 1.0) -> float:
    """Min-entropy of the quantum part after quantization to the LSB grid.

    -log2 of the most probable code's mass for a centered Gaussian; a
    comparison variant to the continuous formula, not the default path.
    """
    if sigma_q_sq <= 0:
        raise NoExtractableEntropyError("nonpositive quantum variance")
    sigma = math.sqrt(sigma_q_sq)
    p_max = math.erf(0.5 * lsb_units / (sigma * math.sqrt(2.0)))
    return -math.log2(p_max)


def block_samples(n: int, bits_per_sample: int) -> int:
    """Whole samples in an n-bit input block, which must hold one."""
    samples = n // bits_per_sample
    if samples < 1:
        raise ParameterError("an input block must hold a whole sample")
    return samples


def block_budget(h_min_per_sample: float, n: int, bits_per_sample: int,
                 epsilon: float) -> int:
    """The admission rule: leftover-hash budget of one n-bit input block,
    floor(k * h - 2*log2(1/epsilon)) bits from its k = n // bits_per_sample
    whole samples at h_min rounded to the 0.01-bit precision the extractor
    geometry is sized with; a budget of 0 or less, which every h <= 0
    gives, admits nothing.  Validation applies it to the configured
    noise, every estimate to the measured."""
    if not 0 < epsilon <= 1:
        raise ParameterError(f"epsilon must be in (0, 1], got {epsilon}")
    h = round(h_min_per_sample, 2)
    samples = block_samples(n, bits_per_sample)
    budget = math.floor(samples * h - 2.0 * math.log2(1.0 / epsilon))
    if budget <= 0:
        raise NoExtractableEntropyError(
            f"security deduction exhausts the {samples}-sample "
            f"entropy budget at h_min={h} bits/sample, epsilon={epsilon}")
    return budget


@dataclass(frozen=True)
class EntropyReport:
    """Variance and min-entropy summary of a measurement/noise run pair."""

    sigma_m_sq: float
    sigma_e_sq: float
    sigma_q_sq: float
    h_min_per_sample: float
    bits_per_raw_bit: float
    sample_count: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def build_report(measured_centered_half_lsb, noise_centered_half_lsb,
                 adc_bits: int = 12) -> EntropyReport:
    """Estimate variances from centered half-LSB samples and report entropy.

    Inputs are the centered streams of the LO-on and LO-off runs; half-LSB
    variance is divided by 4 to report in LSB^2 counts.
    """
    measured = np.asarray(measured_centered_half_lsb)
    noise = np.asarray(noise_centered_half_lsb)
    sigma_m_sq = sample_variance(measured) / 4.0
    sigma_e_sq = sample_variance(noise) / 4.0
    h = min_entropy(sigma_m_sq, sigma_e_sq)
    return EntropyReport(
        sigma_m_sq=sigma_m_sq,
        sigma_e_sq=sigma_e_sq,
        sigma_q_sq=sigma_m_sq - sigma_e_sq,
        h_min_per_sample=h,
        bits_per_raw_bit=h / adc_bits,
        sample_count=int(measured.size),
    )
