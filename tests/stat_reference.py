"""Bit-level oracle for `vacqrng.stattests`.

The five tests computed as the standard states them, one bit per byte,
with scipy's special functions: the implementation the packed-word suite
replaced.  Each statistic is an integer here as there, so the packed
suite must reproduce every one exactly, and its p-values to the accuracy
of its standard-library special functions.  Given those same special
functions (the `erfc` and `gammaincc` arguments), the p-values of
monobit, block frequency, runs and approximate entropy must match bit
for bit: the packed suite keeps this floating-point stage as it is.
"""

import math

import numpy as np
from scipy import special


def pack(bits) -> tuple[np.ndarray, int]:
    """0/1 bits as the packed stream the suite takes (first bit in the LSB
    of the first byte) and their count."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.packbits(bits, bitorder="little"), bits.size


def ones(bits: np.ndarray) -> int:
    return int(bits.sum())


def block_counts(bits: np.ndarray, block_size: int) -> np.ndarray:
    n_blocks = bits.size // block_size
    return (bits[:n_blocks * block_size].reshape(n_blocks, block_size)
            .sum(axis=1, dtype=np.int64))


def runs(bits: np.ndarray) -> int:
    return 1 + int(np.count_nonzero(np.diff(bits)))


def excursion(bits: np.ndarray, mode: str = "forward") -> int:
    """max |S_k| of the +/-1 walk, summed in int64."""
    walk = bits[::-1] if mode == "backward" else bits
    return int(np.max(np.abs(np.cumsum(2 * walk.astype(np.int64) - 1))))


def pattern_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of the circular (m+1)-bit windows, first bit most
    significant."""
    n = bits.size
    aug = np.concatenate([bits, bits[:m]])
    idx = np.zeros(n, dtype=np.int64)
    for t in range(m + 1):
        idx = (idx << 1) | aug[t:t + n]
    return np.bincount(idx, minlength=2 ** (m + 1))


def _clip(p) -> float:
    return float(min(max(p, 0.0), 1.0))


def monobit_p(bits: np.ndarray, erfc=special.erfc) -> float:
    n = bits.size
    return _clip(erfc(abs(2 * ones(bits) - n) / math.sqrt(2.0 * n)))


def block_frequency_p(bits: np.ndarray, block_size: int = 128,
                      gammaincc=special.gammaincc) -> float:
    n_blocks = bits.size // block_size
    pi = (bits[:n_blocks * block_size].reshape(n_blocks, block_size)
          .mean(axis=1))
    chi2 = 4.0 * block_size * float(np.sum((pi - 0.5) ** 2))
    return _clip(gammaincc(n_blocks / 2.0, chi2 / 2.0))


def runs_p(bits: np.ndarray, erfc=special.erfc) -> float:
    n = bits.size
    pi = float(bits.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n) or pi in (0.0, 1.0):
        return 0.0
    num = abs(runs(bits) - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return _clip(erfc(num / den))


def cumulative_sums_p(bits: np.ndarray, mode: str = "forward") -> float:
    n = bits.size
    z = excursion(bits, mode)
    sqrt_n = math.sqrt(n)
    k1 = np.arange(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1)
    term1 = np.sum(special.ndtr((4 * k1 + 1) * z / sqrt_n)
                   - special.ndtr((4 * k1 - 1) * z / sqrt_n))
    k2 = np.arange(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1)
    term2 = np.sum(special.ndtr((4 * k2 + 3) * z / sqrt_n)
                   - special.ndtr((4 * k2 + 1) * z / sqrt_n))
    return _clip(1.0 - term1 + term2)


def approximate_entropy_p(bits: np.ndarray, m: int = 2,
                          gammaincc=special.gammaincc) -> float:
    n = bits.size
    counts_long = pattern_counts(bits, m)
    counts = counts_long.reshape(-1, 2).sum(axis=1)

    def phi(c: np.ndarray) -> float:
        probs = c[c > 0] / n
        return float(np.sum(probs * np.log(probs)))

    apen = phi(counts) - phi(counts_long)
    chi2 = max(2.0 * n * (math.log(2.0) - apen), 0.0)
    return _clip(gammaincc(2 ** (m - 1), chi2 / 2.0))
