"""Five-test statistical validation subset with the pass-proportion rule.

Implements the frequency (monobit), block frequency, runs, cumulative
sums, and approximate entropy tests with their standard statistics and
p-value formulas.  A stream is judged by splitting it into fixed-length
sequences, testing each, and requiring the per-test pass proportion to lie
in the three-sigma band around 1 - beta:

    (1-beta) +/- 3*sqrt((1-beta)*beta/N)

The remaining tests of the full standard suite are delegated to external
tools via the packed-bitstream export.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import special

from .errors import DataError, ParameterError

DEFAULT_BETA = 0.01


@dataclass(frozen=True)
class TestOutcome:
    test_name: str
    p_value: float
    passed: bool


@dataclass(frozen=True)
class SuiteVerdict:
    """Per-test pass proportions against the acceptance band."""

    proportions: dict[str, float]
    interval_lo: float
    interval_hi: float
    overall_pass: bool
    n_sequences: int
    sequence_length: int
    beta: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def table(self) -> str:
        """Human-readable proportion table."""
        lines = [f"{'test':<22}{'proportion':>12}{'verdict':>10}",
                 "-" * 44]
        for name, prop in self.proportions.items():
            ok = self.interval_lo <= prop <= self.interval_hi
            lines.append(f"{name:<22}{prop:>12.4f}{'pass' if ok else 'FAIL':>10}")
        lines.append("-" * 44)
        lines.append(f"acceptance band [{self.interval_lo:.7f}, "
                     f"{self.interval_hi:.7f}]  ->  "
                     f"{'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ParameterError("bit sequence must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ParameterError("bits must be 0/1")
    return arr


def _outcome(name: str, p_value: float, beta: float) -> TestOutcome:
    p = float(min(max(p_value, 0.0), 1.0))
    return TestOutcome(test_name=name, p_value=p, passed=p > beta)


def monobit_test(bits, beta: float = DEFAULT_BETA) -> TestOutcome:
    """Frequency test: erfc(|sum of +/-1| / sqrt(2n))."""
    bits = _as_bits(bits)
    n = bits.size
    if n < 100:
        raise ParameterError(f"monobit test needs >= 100 bits, got {n}")
    s = 2 * int(bits.sum()) - n
    p = special.erfc(abs(s) / math.sqrt(2.0 * n))
    return _outcome("monobit", p, beta)


def block_frequency_test(bits, block_size: int = 128,
                         beta: float = DEFAULT_BETA) -> TestOutcome:
    """Proportion of ones within fixed blocks, chi-square against 1/2."""
    bits = _as_bits(bits)
    if block_size < 1:
        raise ParameterError("block_size must be >= 1")
    n_blocks = bits.size // block_size
    if n_blocks < 1:
        raise ParameterError(
            f"need at least one {block_size}-bit block, got {bits.size} bits")
    pi = bits[:n_blocks * block_size].reshape(n_blocks, block_size).mean(axis=1)
    chi2 = 4.0 * block_size * float(np.sum((pi - 0.5) ** 2))
    p = special.gammaincc(n_blocks / 2.0, chi2 / 2.0)
    return _outcome("block_frequency", p, beta)


def runs_test(bits, beta: float = DEFAULT_BETA) -> TestOutcome:
    """Total number of runs against its expectation for the observed bias.

    Applies the standard frequency pre-test: a bias beyond 2/sqrt(n) makes
    the runs statistic meaningless and scores p = 0.
    """
    bits = _as_bits(bits)
    n = bits.size
    if n < 2:
        raise ParameterError("runs test needs at least 2 bits")
    pi = float(bits.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n) or pi in (0.0, 1.0):
        return _outcome("runs", 0.0, beta)
    v = 1 + int(np.count_nonzero(np.diff(bits)))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    p = special.erfc(num / den)
    return _outcome("runs", p, beta)


def cumulative_sums_test(bits, mode: str = "forward",
                         beta: float = DEFAULT_BETA) -> TestOutcome:
    """Maximum excursion of the +/-1 random walk (forward or backward)."""
    bits = _as_bits(bits)
    n = bits.size
    if n < 2:
        raise ParameterError("cumulative sums test needs at least 2 bits")
    if mode not in ("forward", "backward"):
        raise ParameterError(f"mode must be 'forward' or 'backward', not {mode!r}")
    z = _max_excursion(bits[::-1] if mode == "backward" else bits)
    if z == 0:
        return _outcome("cumulative_sums", 1.0, beta)
    sqrt_n = math.sqrt(n)

    k1 = np.arange(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1)
    term1 = np.sum(special.ndtr((4 * k1 + 1) * z / sqrt_n)
                   - special.ndtr((4 * k1 - 1) * z / sqrt_n))
    k2 = np.arange(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1)
    term2 = np.sum(special.ndtr((4 * k2 + 3) * z / sqrt_n)
                   - special.ndtr((4 * k2 + 1) * z / sqrt_n))
    p = 1.0 - term1 + term2
    return _outcome("cumulative_sums", p, beta)


def _max_excursion(bits: np.ndarray) -> int:
    """max_k |S_k| of the walk S_k = sum of the first k steps 2*bit - 1.

    Steps in int8 and partial sums in int32 (int64 only from 2**31 bits
    on, where |S_k| could overflow) give the same integer as an int64
    walk at a fraction of its memory traffic.
    """
    steps = bits.view(np.int8) * 2 - 1
    walk = np.cumsum(steps, dtype=np.int32 if bits.size < 2**31 else np.int64)
    return int(max(walk.max(), -walk.min()))


def approximate_entropy_test(bits, pattern_length: int = 2,
                             beta: float = DEFAULT_BETA) -> TestOutcome:
    """Compares frequencies of overlapping m- and (m+1)-bit patterns.

    Windows wrap around the end of the sequence, as the standard
    statistic requires.
    """
    bits = _as_bits(bits)
    n = bits.size
    m = pattern_length
    if m < 1:
        raise ParameterError("pattern_length must be >= 1")
    if n < m + 2:
        raise ParameterError(
            f"approximate entropy needs more than m+1 = {m + 1} bits")

    # Index of the circular (m+1)-bit window at every position, built once.
    # The m-bit window at a position is the prefix of the (m+1)-bit one, so
    # the m-bit counts are the sums of adjacent (m+1)-bit counts.
    aug = np.concatenate([bits, bits[:m]])
    idx = np.zeros(n, dtype=np.uint8 if m < 8 else np.int64)
    for t in range(m + 1):
        idx <<= 1
        idx |= aug[t:t + n]
    counts_long = np.bincount(idx, minlength=2 ** (m + 1))
    counts = counts_long.reshape(-1, 2).sum(axis=1)

    def phi(c: np.ndarray) -> float:
        probs = c[c > 0] / n
        return float(np.sum(probs * np.log(probs)))

    apen = phi(counts) - phi(counts_long)
    chi2 = max(2.0 * n * (math.log(2.0) - apen), 0.0)
    p = special.gammaincc(2 ** (m - 1), chi2 / 2.0)
    return _outcome("approximate_entropy", p, beta)


ALL_TESTS = {
    "monobit": monobit_test,
    "block_frequency": block_frequency_test,
    "runs": runs_test,
    "cumulative_sums": cumulative_sums_test,
    "approximate_entropy": approximate_entropy_test,
}


def pass_proportion_interval(beta: float, n_sequences: int) -> tuple[float, float]:
    """Three-sigma acceptance band for the fraction of passing sequences."""
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must be in (0, 1), got {beta}")
    if n_sequences < 1:
        raise ParameterError("n_sequences must be >= 1")
    center = 1.0 - beta
    half = 3.0 * math.sqrt((1.0 - beta) * beta / n_sequences)
    return center - half, center + half


def run_suite(bitstream, sequence_length: int, n_sequences: int,
              beta: float = DEFAULT_BETA) -> SuiteVerdict:
    """Split a stream into sequences, run every test, judge proportions."""
    bits = _as_bits(bitstream)
    needed = sequence_length * n_sequences
    if bits.size < needed:
        raise DataError(
            f"stream has {bits.size} bits; need {needed} for "
            f"{n_sequences} x {sequence_length}")
    lo, hi = pass_proportion_interval(beta, n_sequences)
    passes = {name: 0 for name in ALL_TESTS}
    for i in range(n_sequences):
        seq = bits[i * sequence_length:(i + 1) * sequence_length]
        for name, test in ALL_TESTS.items():
            if test(seq, beta=beta).passed:
                passes[name] += 1
    proportions = {name: count / n_sequences for name, count in passes.items()}
    overall = all(lo <= prop <= hi for prop in proportions.values())
    return SuiteVerdict(proportions=proportions, interval_lo=lo,
                        interval_hi=hi, overall_pass=overall,
                        n_sequences=n_sequences, sequence_length=sequence_length,
                        beta=beta)
