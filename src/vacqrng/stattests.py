"""Five-test statistical validation subset with the pass-proportion rule.

Implements the frequency (monobit), block frequency, runs, cumulative
sums, and approximate entropy tests with their standard statistics and
p-value formulas.  A stream is judged by splitting it into fixed-length
sequences, testing each, and requiring the per-test pass proportion to lie
in the three-sigma band around 1 - beta:

    (1-beta) +/- 3*sqrt((1-beta)*beta/N)

`run_suite` takes the packed stream of `extracted.bin` (the first bit in
the least significant bit of the first byte) and its length in bits.  It
checks them and the sequence length once, moves each sequence to bit 0 of
zeroed uint64 words (whatever its bit offset, the bits past its end
cleared) and passes those words and the length to each test of
`ALL_TESTS`: a plain function that returns the p-value, clamped to
[0, 1], and checks nothing itself.  Every statistic is an integer counted
from the words: popcounts of the words, of their XOR with the sequence
one bit on, and of ANDs of the sequence shifted by 0..m bits; the
random-walk excursion comes from per-byte tables.  The p-values use only
the standard library: `math.erfc`, and the regularized upper incomplete
gamma function of Numerical Recipes (series and continued fraction).

The remaining tests of the full standard suite are delegated to external
tools via the packed-bitstream export.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError

DEFAULT_BETA = 0.01

# The longest minimum of the five tests: one 128-bit block-frequency block.
MIN_SEQUENCE_LENGTH = 128


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


def _words(packed: np.ndarray, start: int, n_bits: int) -> np.ndarray:
    """Bits [start, start + n_bits) of a packed stream, moved to bit 0 of
    n_bits // 64 + 1 little-endian uint64 words, zero past the last bit."""
    n_words = n_bits // 64 + 1
    first, shift = divmod(start, 8)
    buf = np.zeros(8 * n_words + 8, dtype=np.uint8)
    src = packed[first:(start + n_bits + 7) // 8]
    buf[:src.size] = src
    w = buf.view("<u8")
    # Two shifts for the high word, so that shift = 0 needs no branch.
    words = (w[:-1] >> shift) | ((w[1:] << 1) << (63 - shift))
    words[-1] &= (np.uint64(1) << np.uint64(n_bits % 64)) - np.uint64(1)
    return words


def _ones(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


def _clamp(p_value: float) -> float:
    return float(min(max(p_value, 0.0), 1.0))


def _ndtr(x: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


_MAX_TERMS = 100_000


def _gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x), a > 0.

    Below x = a + 1 the series for P = 1 - Q, above it Lentz's continued
    fraction for Q (Press et al., Numerical Recipes, 3rd ed., 2007, 6.2).
    """
    if x <= 0.0:
        return 1.0
    prefactor = math.exp(a * math.log(x) - x - math.lgamma(a))
    eps, tiny = sys.float_info.epsilon, sys.float_info.min
    if x < a + 1.0:
        term = total = 1.0 / a
        for k in range(1, _MAX_TERMS):
            term *= x / (a + k)
            total += term
            if abs(term) < abs(total) * eps:
                return 1.0 - total * prefactor
    else:
        b = x + 1.0 - a
        c, d = 1.0 / tiny, 1.0 / b
        h = d
        for k in range(1, _MAX_TERMS):
            an = -k * (k - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = b + an / c
            c = c if abs(c) > tiny else tiny
            delta = d * c
            h *= delta
            if abs(delta - 1.0) <= eps:
                return prefactor * h
    raise ParameterError(f"incomplete gamma Q({a}, {x}) did not converge")


def monobit_test(words: np.ndarray, n: int) -> float:
    """Frequency test: erfc(|sum of +/-1| / sqrt(2n))."""
    s = 2 * _ones(words) - n
    return _clamp(math.erfc(abs(s) / math.sqrt(2.0 * n)))


def _block_counts(words: np.ndarray, block_size: int,
                  n_blocks: int) -> np.ndarray:
    """Ones in each of the first n_blocks block_size-bit blocks: the ones
    before each block edge, from a running popcount over whole words plus
    the popcount of the edge word's low bits."""
    edges = np.arange(n_blocks + 1, dtype=np.int64) * block_size
    at = edges >> 6
    low = (np.uint64(1) << (edges & 63).astype(np.uint64)) - np.uint64(1)
    before = np.concatenate(
        ([0], np.cumsum(np.bitwise_count(words), dtype=np.int64)))
    return np.diff(before[at] + np.bitwise_count(words[at] & low))


def block_frequency_test(words: np.ndarray, n: int,
                         block_size: int = 128) -> float:
    """Proportion of ones within fixed blocks, chi-square against 1/2."""
    n_blocks = n // block_size
    pi = _block_counts(words, block_size, n_blocks) / block_size
    chi2 = 4.0 * block_size * float(np.sum((pi - 0.5) ** 2))
    return _clamp(_gammaincc(n_blocks / 2.0, chi2 / 2.0))


def _runs(words: np.ndarray, n: int) -> int:
    """Number of runs: one, plus one wherever a bit differs from the next
    (the popcount of the sequence XOR the sequence one bit on)."""
    seq = words.view(np.uint8)
    return 1 + _ones(_words(seq, 0, n - 1) ^ _words(seq, 1, n - 1))


def runs_test(words: np.ndarray, n: int) -> float:
    """Total number of runs against its expectation for the observed bias.

    Applies the standard frequency pre-test: a bias beyond 2/sqrt(n) makes
    the runs statistic meaningless and scores p = 0.
    """
    pi = _ones(words) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n) or pi in (0.0, 1.0):
        return 0.0
    num = abs(_runs(words, n) - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return _clamp(math.erfc(num / den))


def _byte_walks() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per byte value: the walk of its 8 steps 2*bit - 1 (LSB first), and
    the walk's end, highest and lowest point (0, the start, included)."""
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    walk = np.cumsum(2 * bits - 1, axis=1).astype(np.int8)
    return (walk, walk[:, -1], np.maximum(walk.max(axis=1), 0),
            np.minimum(walk.min(axis=1), 0))


_BYTE_WALK, _BYTE_END, _BYTE_HIGH, _BYTE_LOW = _byte_walks()


def _max_excursion(words: np.ndarray, n: int, mode: str) -> int:
    """max_k |S_k| of the walk S_k = sum of the first k steps 2*bit - 1,
    run over the bits in order ("forward") or from the last ("backward").

    The forward walk's end S_n, highest point H and lowest point L (S_0 = 0
    included) give both: the backward walk visits S_n - S_j, so its
    excursion is max(S_n - L, H - S_n).  Each whole byte's walk starts at
    the running sum of the byte ends and reaches its extremes by table;
    the last n % 8 steps are walked out.
    """
    whole, rest = divmod(n, 8)
    data = words.view(np.uint8)
    body = data[:whole]
    starts = np.concatenate(
        ([0], np.cumsum(np.take(_BYTE_END, body), dtype=np.int64)))
    tail = starts[-1] + _BYTE_WALK[data[whole], :rest]
    end = int(tail[-1]) if rest else int(starts[-1])
    high = max(int((starts[:-1] + np.take(_BYTE_HIGH, body)).max(initial=0)),
               int(tail.max(initial=0)))
    low = min(int((starts[:-1] + np.take(_BYTE_LOW, body)).min(initial=0)),
              int(tail.min(initial=0)))
    if mode == "backward":
        return max(end - low, high - end)
    return max(high, -low)


def cumulative_sums_test(words: np.ndarray, n: int,
                         mode: str = "forward") -> float:
    """Maximum excursion of the +/-1 random walk, "forward" from the first
    bit or "backward" from the last."""
    z = _max_excursion(words, n, mode)
    if z == 0:
        return 1.0
    sqrt_n = math.sqrt(n)

    def cdf(k: int) -> float:
        return _ndtr(k * z / sqrt_n)

    term1 = sum(cdf(4 * k + 1) - cdf(4 * k - 1) for k in range(
        math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1))
    term2 = sum(cdf(4 * k + 3) - cdf(4 * k + 1) for k in range(
        math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1))
    return _clamp(1.0 - term1 + term2)


def _pattern_counts(words: np.ndarray, n: int, m: int) -> np.ndarray:
    """Counts of the 2**(m+1) circular (m+1)-bit patterns, indexed with
    the window's first bit as the most significant.

    Bit i of window stream t is sequence bit (i + t) mod n, read from the
    sequence followed by itself.  A pattern's count is the popcount of
    the AND over t of window stream t or its complement, as the pattern's
    bit t says; each level of the split reuses the AND of the levels
    above it.
    """
    pad = -n % 8
    seq = words.view(np.uint8)
    # The sequence moved up by pad bits, so that it ends on a byte, then
    # the sequence again: bit pad + i is sequence bit i mod n.
    moved = _words(np.concatenate((np.zeros(1, np.uint8), seq)), 8 - pad,
                   n + pad).view(np.uint8)
    wrapped = np.concatenate((moved[:(n + pad) // 8], seq))
    windows = [_words(wrapped, pad + t, n) for t in range(m + 1)]
    everywhere = _words(np.full(n // 8 + 1, 0xFF, dtype=np.uint8), 0, n)
    counts: list[int] = []
    _split_counts(everywhere, windows, counts)
    return np.array(counts, dtype=np.int64)


def _split_counts(matches: np.ndarray, windows: list[np.ndarray],
                  counts: list[int]) -> None:
    """Append the popcounts of `matches` ANDed with every pattern over
    `windows`, 0 before 1 in each window.  (A module function, not a
    recursive closure: that would be a reference cycle holding the
    window streams until the cyclic collector ran.)"""
    if not windows:
        counts.append(_ones(matches))
        return
    ones = matches & windows[0]
    _split_counts(matches ^ ones, windows[1:], counts)
    _split_counts(ones, windows[1:], counts)


def approximate_entropy_test(words: np.ndarray, n: int,
                             pattern_length: int = 2) -> float:
    """Compares frequencies of overlapping m- and (m+1)-bit patterns.

    Windows wrap around the end of the sequence, as the standard
    statistic requires.
    """
    m = pattern_length
    # The m-bit window at a position is the prefix of the (m+1)-bit one, so
    # the m-bit counts are the sums of adjacent (m+1)-bit counts.
    counts_long = _pattern_counts(words, n, m)
    counts = counts_long.reshape(-1, 2).sum(axis=1)

    def phi(c: np.ndarray) -> float:
        probs = c[c > 0] / n
        return float(np.sum(probs * np.log(probs)))

    apen = phi(counts) - phi(counts_long)
    chi2 = max(2.0 * n * (math.log(2.0) - apen), 0.0)
    return _clamp(_gammaincc(2 ** (m - 1), chi2 / 2.0))


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


def run_suite(packed, n_bits: int, sequence_length: int, n_sequences: int,
              beta: float = DEFAULT_BETA) -> SuiteVerdict:
    """Split a packed stream of n_bits bits into sequences, run every
    test, judge proportions."""
    packed = np.asarray(packed)
    if packed.dtype != np.uint8 or packed.ndim != 1:
        raise ParameterError("packed stream must be a one-dimensional "
                             "uint8 array")
    if not 0 <= n_bits <= 8 * packed.size:
        raise ParameterError(
            f"{n_bits} bits do not fit in {packed.size} packed bytes")
    if sequence_length < MIN_SEQUENCE_LENGTH:
        raise ParameterError(f"sequences need >= {MIN_SEQUENCE_LENGTH} "
                             f"bits, got {sequence_length}")
    needed = sequence_length * n_sequences
    if n_bits < needed:
        raise DataError(
            f"stream has {n_bits} bits; need {needed} for "
            f"{n_sequences} x {sequence_length}")
    lo, hi = pass_proportion_interval(beta, n_sequences)
    passes = {name: 0 for name in ALL_TESTS}
    for i in range(n_sequences):
        words = _words(packed, i * sequence_length, sequence_length)
        for name, test in ALL_TESTS.items():
            if test(words, sequence_length) > beta:
                passes[name] += 1
    proportions = {name: count / n_sequences for name, count in passes.items()}
    overall = all(lo <= prop <= hi for prop in proportions.values())
    return SuiteVerdict(proportions=proportions, interval_lo=lo,
                        interval_hi=hi, overall_pass=overall,
                        n_sequences=n_sequences, sequence_length=sequence_length,
                        beta=beta)
